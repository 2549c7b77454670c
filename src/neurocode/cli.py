"""Command line front end: ingestion, dispatch, rendering.

Exit codes: 0 on success, 1 on input or usage errors, 2 when a ``check``
(or ``verify``) verdict is false. All set-valued output is canonically
ordered, so runs are reproducible; JSON documents carry ``"schema": 1``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from functools import cache
from itertools import islice

from .classify import (
    _IC_METHODS,
    _MIC_METHODS,
    IntersectionWitness,
    PseudomonomialWitness,
    verify_dictionary,
)
from .codes import Code, neurons_from_mask
from .complexes import (
    PolarFace,
    downward_closure,
    factor_complex,
    polar_complex,
    prime_sets,
    sr_minimal_primes,
)
from .ideals import canonical_form, primary_decomposition
from .io import ParseWarning, interval_text, monomial_prime_text, parse_code, word_text
from .survey import summarize, survey

SCHEMA_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise _UsageError(message)


@cache  # one parser per process; parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="neurocode",
                     description="neural codes, their ideals and complexes")
    sub = parser.add_subparsers(dest="command", metavar="command")

    io_parent = _Parser(add_help=False)
    io_parent.add_argument("--json", action="store_true",
                           help="emit JSON instead of text")
    io_parent.add_argument("--input", metavar="PATH",
                           help="read the code from PATH (default: stdin)")

    commands = {}
    for name, handler, help_ in _COMMANDS:
        commands[name] = sub.add_parser(
            name, parents=[] if name == "survey" else [io_parent], help=help_)
        commands[name].set_defaults(handler=handler)
    commands["check"].add_argument("property", choices=["ic", "mic"])
    commands["check"].add_argument("--method", default="all", choices=[
        "all", *dict.fromkeys([*_IC_METHODS, *_MIC_METHODS])])
    commands["survey"].add_argument("--n", type=int, required=True)
    commands["survey"].add_argument("--json", action="store_true",
                                    help="emit JSON instead of text")
    return parser


def _read_code(args) -> Code:
    if args.input:
        # newline="" keeps the file's line ends as they are, as POSIX stdin
        # does, so both hand the parser the same text
        with open(args.input, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
        source = args.input
    else:
        text = sys.stdin.read()
        source = "<stdin>"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ParseWarning)
        try:
            return parse_code(text, source)
        finally:  # plain stderr lines, ahead of any parse error
            sys.stderr.writelines(f"warning: {w.message}\n" for w in caught)


def _emit_json(doc: dict) -> None:
    # Written as it is encoded, so the document text never exists in full;
    # the bytes are json.dumps(doc, indent=2) plus a newline. The encoder
    # yields tokens of a few characters; joining them into batches keeps
    # an in-memory stdout (io.StringIO holds every write until it joins
    # them) from holding one string object per token.
    write = sys.stdout.write
    chunks = json.JSONEncoder(indent=2).iterencode(doc)
    for first in chunks:
        write(first + "".join(islice(chunks, 4095)))
    write("\n")


class _Rendered(list):
    """A JSON array whose entries are rendered one at a time while
    ``_emit_json`` writes them, so a large document never exists in full
    as Python objects.

    It holds the source items (so its length, and whether it is empty, are
    right); iterating it, which is how the incremental encoder behind
    ``JSONEncoder.iterencode`` walks an array, yields the rendered entries.
    """

    def __init__(self, items, render):
        super().__init__(items)
        self._render = render

    def __iter__(self):
        return map(self._render, list.__iter__(self))


def _mask_json(mask: int) -> list[int]:
    return list(neurons_from_mask(mask))


def _pm_json(pm) -> dict:
    return {"sigma": _mask_json(pm.sigma), "tau": _mask_json(pm.tau), "text": str(pm)}


def _interval_json(iv) -> dict:
    return {"lo": _mask_json(iv.lo), "hi": _mask_json(iv.hi)}


def _prime_json(p) -> dict:
    return {"pos": _mask_json(p.pos), "neg": _mask_json(p.neg), "text": str(p)}


def _face_json(face: PolarFace) -> dict:
    return {"x": _mask_json(face.xpart), "y": _mask_json(face.ypart)}


def _base_doc(command: str, code: Code) -> dict:
    return {"schema": SCHEMA_VERSION, "command": command,
            "n": code.n, "code": _Rendered(code.word_list, _mask_json)}


def _emit_list(args, command: str, code: Code, key: str, items,
               to_json, to_text) -> int:
    """One sorted list: a JSON document holding it under ``key``, or one
    text line per item, written 4,096 lines at a time."""
    if args.json:
        doc = _base_doc(command, code)
        doc[key] = _Rendered(items, to_json)
        _emit_json(doc)
    else:
        write = sys.stdout.write
        lines = map(to_text, items)
        while batch := list(islice(lines, 4096)):
            write("\n".join(batch) + "\n")
    return 0


def _cmd_cf(args, code: Code) -> int:
    return _emit_list(args, "cf", code, "canonical_form",
                      sorted(canonical_form(code).elements), _pm_json, str)


def _cmd_intervals(args, code: Code) -> int:
    n = code.n
    return _emit_list(args, "intervals", code, "maximal_intervals",
                      sorted(code.maximal_intervals), _interval_json,
                      lambda iv: interval_text(iv, n))


def _cmd_decompose(args, code: Code) -> int:
    return _emit_list(args, "decompose", code, "primes",
                      sorted(primary_decomposition(code)), _prime_json, str)


def _cmd_complexes(args, code: Code) -> int:
    polar = sorted(polar_complex(code).facets)  # capped: refuses first
    factor = sorted(factor_complex(code).facets)
    n = code.n

    def face_json(mask: int) -> dict:
        return _face_json(PolarFace.from_mask(mask, n))

    def face_text(mask: int) -> str:
        return str(PolarFace.from_mask(mask, n))

    # (key, sorted items, JSON form, text form), in output order
    lists = (
        ("delta_facets", sorted(downward_closure(code).facets), _mask_json,
         lambda f: word_text(f, n)),
        ("factor_facets", factor, face_json, face_text),
        ("polar_facets", polar, face_json, face_text),
        ("minimal_prime_sets", sorted(prime_sets(code)), _face_json, str),
        ("sr_minimal_primes", sorted(sr_minimal_primes(code)), _mask_json,
         monomial_prime_text),
    )
    if args.json:
        doc = _base_doc("complexes", code)
        for key, items, to_json, _ in lists:
            doc[key] = _Rendered(items, to_json)
        _emit_json(doc)
    else:
        for key, items, _, to_text in lists:
            print(f"{key}: " + " ".join(map(to_text, items)))
    return 0


def _witness_json(w) -> dict:
    if isinstance(w, IntersectionWitness):
        return {"kind": "missing_intersection",
                "words": [_mask_json(m) for m in w.words],
                "intersection": _mask_json(w.intersection)}
    if isinstance(w, PseudomonomialWitness):
        return {"kind": "pseudomonomial", **_pm_json(w.pm)}
    return {"kind": "facet", **_face_json(w.facet), "text": str(w.facet)}


def _report_json(report) -> dict:
    doc = {"property": report.property, "method": report.method,
           "verdict": report.verdict,
           "witness": None if report.witness is None else _witness_json(report.witness),
           "timing_us": report.elapsed_us}
    if report.certificate is not None:
        doc["certificate"] = {
            "minimal_primes": [_mask_json(b) for b in report.certificate.prime_vars],
            "entries": [{"pm": str(e.pm), "index": e.index,
                         "contained_prime_sets": list(e.contained_prime_sets)}
                        for e in report.certificate.entries]}
    return doc


def _witness_text(w, n: int) -> str:
    if isinstance(w, IntersectionWitness):
        words = " & ".join(word_text(m, n) for m in w.words)
        return f"missing intersection: {words} = {word_text(w.intersection, n)}"
    if isinstance(w, PseudomonomialWitness):
        return f"violating pseudomonomial: {w.pm}"
    return f"violating facet: {w.facet}"


def _cmd_check(args, code: Code) -> int:
    table = _IC_METHODS if args.property == "ic" else _MIC_METHODS
    if args.method != "all" and args.method not in table:
        raise _UsageError(
            f"method {args.method!r} does not apply to {args.property!r}")
    names = list(table) if args.method == "all" else [args.method]
    reports = [table[name](code) for name in names]
    if args.json:
        doc = _base_doc("check", code)
        doc["reports"] = [_report_json(r) for r in reports]
        _emit_json(doc)
    else:
        for report in reports:
            print(f"{report.property} {report.method}: "
                  f"{'true' if report.verdict else 'false'}")
            if report.witness is not None:
                print(f"  witness: {_witness_text(report.witness, code.n)}")
            if report.certificate is not None:
                for entry in report.certificate.entries:
                    print(f"  certificate: {entry.pm} i={entry.index} "
                          f"contained_prime_sets={list(entry.contained_prime_sets)}")
    return 0 if all(r.verdict for r in reports) else 2


def _cmd_verify(args, code: Code) -> int:
    report = verify_dictionary(code)
    if args.json:
        doc = _base_doc("verify", code)
        doc["passed"] = report.passed
        doc["checks"] = [dataclasses.asdict(c) for c in report.checks]
        _emit_json(doc)
    else:
        for check in report.checks:
            status = "pass" if check.passed else f"fail ({check.detail})"
            print(f"{check.name}: {status}")
    return 0 if report.passed else 2


# The names of the SurveyRow and SurveySummary fields, in field order, as
# the survey's JSON keys and text labels.
_SURVEY_COLUMNS = ("id", "max_codewords", "max_intervals", "cf_size",
                   "cf_nonmonomials", "ic", "mic")
_SUMMARY_KEYS = ("codes", "intersection_complete", "max_intersection_complete",
                 "max_cf_nonmonomials_by_max_codewords")


def _row_json(row) -> dict:
    return dict(zip(_SURVEY_COLUMNS, vars(row).values()))


def _cmd_survey(args) -> int:
    rows_iter = survey(args.n)
    if args.json:
        rows = list(rows_iter)
        summary = summarize(rows)
        doc = {"schema": SCHEMA_VERSION, "command": "survey", "n": args.n,
               "rows": _Rendered(rows, _row_json),
               "summary": dict(zip(_SUMMARY_KEYS, vars(summary).values()))}
        _emit_json(doc)
        return 0
    out = sys.stdout
    out.write(f"# survey n={args.n}: {2 ** (1 << args.n) - 2} codes\n")
    out.write(f"# columns: {' '.join(_SURVEY_COLUMNS)}\n")

    def written_rows():
        for r in rows_iter:
            out.write(f"{r.code_id} {r.max_codewords} {r.max_intervals} "
                      f"{r.cf_size} {r.cf_nonmonomials} "
                      f"{'true' if r.ic else 'false'} "
                      f"{'true' if r.mic else 'false'}\n")
            yield r

    summary = summarize(written_rows())
    for key, value in zip(_SUMMARY_KEYS, vars(summary).values()):
        if isinstance(value, dict):  # the buckets
            value = " ".join(f"{k}={v}" for k, v in value.items())
        out.write(f"# {key}: {value}\n")
    return 0


# (name, handler, help) of every command, in help order; every handler
# but survey's also takes the code it reads
_COMMANDS = (
    ("cf", _cmd_cf, "canonical form of the neural ideal"),
    ("intervals", _cmd_intervals, "maximal intervals of the code"),
    ("decompose", _cmd_decompose, "irredundant prime decomposition of the neural ideal"),
    ("complexes", _cmd_complexes,
     "code complex, factor complex, polar complex, prime-sets and minimal primes"),
    ("check", _cmd_check, "decide a closure property by one or all methods"),
    ("verify", _cmd_verify, "run the correspondence checks on the code"),
    ("survey", _cmd_survey, "enumerate every valid code on n neurons"),
)


def run_command(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        parser.print_usage(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exit_:  # --help
        return int(exit_.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "survey":  # the one command that reads no code
            return args.handler(args)
        return args.handler(args, _read_code(args))
    except BrokenPipeError:
        raise  # a closed stdout is not an input error: ``main`` handles it
    except (_UsageError, ValueError, OSError) as err:
        # ParseError, InvalidCodeError, CapExceededError and
        # SurveyTooLargeError are all ValueError subclasses
        print(f"error: {err}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> None:
    try:
        status = run_command(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
    except BrokenPipeError:
        # the reader went away (``| head``): point stdout at devnull so the
        # flush at exit cannot fail again, and exit 1 with nothing on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)
