"""Command line front end: ingestion, dispatch, rendering.

Exit codes: 0 on success, 1 on input or usage errors, 2 when a ``check``
(or ``verify``) verdict is false. All set-valued output is canonically
ordered, so runs are reproducible; JSON documents carry ``"schema": 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="neurocode",
                     description="neural codes, their ideals and complexes")
    sub = parser.add_subparsers(dest="command", metavar="command")

    io_parent = _Parser(add_help=False)
    io_parent.add_argument("--json", action="store_true",
                           help="emit JSON instead of text")
    io_parent.add_argument("--input", metavar="PATH",
                           help="read the code from PATH (default: stdin)")

    sub.add_parser("cf", parents=[io_parent],
                   help="canonical form of the neural ideal")
    sub.add_parser("intervals", parents=[io_parent],
                   help="maximal intervals of the code")
    sub.add_parser("decompose", parents=[io_parent],
                   help="irredundant prime decomposition of the neural ideal")
    sub.add_parser("complexes", parents=[io_parent],
                   help="code complex, factor complex, polar complex, "
                        "prime-sets and minimal primes")
    check = sub.add_parser("check", parents=[io_parent],
                           help="decide a closure property by one or all methods")
    check.add_argument("property", choices=["ic", "mic"])
    check.add_argument("--method", default="all", choices=[
        "all", *dict.fromkeys([*_IC_METHODS, *_MIC_METHODS])])
    sub.add_parser("verify", parents=[io_parent],
                   help="run the correspondence checks on the code")
    surv = sub.add_parser("survey",
                          help="enumerate every valid code on n neurons")
    surv.add_argument("--n", type=int, required=True)
    surv.add_argument("--json", action="store_true",
                      help="emit JSON instead of text")
    return parser


def _read_code(args) -> Code:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
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
    text line per item."""
    if args.json:
        doc = _base_doc(command, code)
        doc[key] = _Rendered(items, to_json)
        _emit_json(doc)
    else:
        for item in items:
            print(to_text(item))
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
    factor = sorted(factor_complex(code).facets)  # capped: refuses first
    delta = sorted(downward_closure(code).facets)
    polar = sorted(polar_complex(code).facets)
    psets = sorted(prime_sets(code))
    primes = sorted(sr_minimal_primes(code))
    n = code.n

    def face(mask: int) -> PolarFace:
        return PolarFace.from_mask(mask, n)

    if args.json:
        doc = _base_doc("complexes", code)
        doc["delta_facets"] = _Rendered(delta, _mask_json)
        doc["factor_facets"] = _Rendered(factor, lambda f: _face_json(face(f)))
        doc["polar_facets"] = _Rendered(polar, lambda f: _face_json(face(f)))
        doc["minimal_prime_sets"] = _Rendered(psets, _face_json)
        doc["sr_minimal_primes"] = _Rendered(primes, _mask_json)
        _emit_json(doc)
    else:
        print("delta_facets: " + " ".join(word_text(f, n) for f in delta))
        print("factor_facets: " + " ".join(str(face(f)) for f in factor))
        print("polar_facets: " + " ".join(str(face(f)) for f in polar))
        print("minimal_prime_sets: " + " ".join(str(f) for f in psets))
        print("sr_minimal_primes: " + " ".join(monomial_prime_text(b) for b in primes))
    return 0


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
        doc["reports"] = [r.to_dict() for r in reports]
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
        doc.update(report.to_dict())
        _emit_json(doc)
    else:
        for check in report.checks:
            status = "pass" if check.passed else f"fail ({check.detail})"
            print(f"{check.name}: {status}")
    return 0 if report.passed else 2


def _cmd_survey(args) -> int:
    rows_iter = survey(args.n)
    if args.json:
        rows = list(rows_iter)
        summary = summarize(rows)
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "survey",
            "n": args.n,
            "rows": [{"id": r.code_id,
                      "max_codewords": r.max_codewords,
                      "max_intervals": r.max_intervals,
                      "cf_size": r.cf_size,
                      "cf_nonmonomials": r.cf_nonmonomials,
                      "ic": r.ic,
                      "mic": r.mic} for r in rows],
            "summary": {
                "codes": summary.codes,
                "intersection_complete": summary.ic_count,
                "max_intersection_complete": summary.mic_count,
                "max_cf_nonmonomials_by_max_codewords": {
                    str(k): v for k, v in summary.max_cf_nonmonomials.items()},
            },
        }
        _emit_json(doc)
        return 0
    out = sys.stdout
    out.write(f"# survey n={args.n}: {2 ** (1 << args.n) - 2} codes\n")
    out.write("# columns: id max_codewords max_intervals cf_size "
              "cf_nonmonomials ic mic\n")

    def written_rows():
        for r in rows_iter:
            out.write(f"{r.code_id} {r.max_codewords} {r.max_intervals} "
                      f"{r.cf_size} {r.cf_nonmonomials} "
                      f"{'true' if r.ic else 'false'} "
                      f"{'true' if r.mic else 'false'}\n")
            yield r

    summary = summarize(written_rows())
    out.write(f"# codes: {summary.codes}\n")
    out.write(f"# intersection_complete: {summary.ic_count}\n")
    out.write(f"# max_intersection_complete: {summary.mic_count}\n")
    buckets = " ".join(f"{k}={v}" for k, v in summary.max_cf_nonmonomials.items())
    out.write(f"# max_cf_nonmonomials_by_max_codewords: {buckets}\n")
    return 0


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
        if args.command == "survey":
            return _cmd_survey(args)
        code = _read_code(args)
        handler = {
            "cf": _cmd_cf,
            "intervals": _cmd_intervals,
            "decompose": _cmd_decompose,
            "complexes": _cmd_complexes,
            "check": _cmd_check,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args, code)
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
