"""Command line front end: ingestion, dispatch, rendering.

Exit codes: 0 on success, 1 on input or usage errors, 2 when a ``check``
(or ``verify``) verdict is false. All set-valued output is canonically
ordered, so runs are reproducible; JSON documents carry ``"schema": 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from itertools import islice

from .classify import (
    ClassificationReport,
    is_intersection_complete_bruteforce,
    is_intersection_complete_cf,
    is_intersection_complete_facets,
    is_mic_algebraic,
    is_mic_bruteforce,
    is_mic_facets,
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

_IC_METHODS = {
    "brute": is_intersection_complete_bruteforce,
    "cf": is_intersection_complete_cf,
    "facets": is_intersection_complete_facets,
}
_MIC_METHODS = {
    "brute": is_mic_bruteforce,
    "algebraic": is_mic_algebraic,
    "facets": is_mic_facets,
}


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
    check.add_argument("--method",
                       choices=["all", "brute", "cf", "facets", "algebraic"],
                       default="all")
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


def _sorted_faces(complex_) -> list[PolarFace]:
    n = complex_.universe.n
    return [PolarFace.from_mask(f, n) for f in sorted(complex_.facets)]


def _cmd_cf(args, code: Code) -> int:
    cf = canonical_form(code)
    elems = sorted(cf.elements)
    if args.json:
        doc = _base_doc("cf", code)
        doc["canonical_form"] = _Rendered(elems, _pm_json)
        _emit_json(doc)
    else:
        for pm in elems:
            print(pm)
    return 0


def _cmd_intervals(args, code: Code) -> int:
    ivs = sorted(code.maximal_intervals)
    if args.json:
        doc = _base_doc("intervals", code)
        doc["maximal_intervals"] = _Rendered(ivs, _interval_json)
        _emit_json(doc)
    else:
        for iv in ivs:
            print(interval_text(iv, code.n))
    return 0


def _cmd_decompose(args, code: Code) -> int:
    primes = sorted(primary_decomposition(code))
    if args.json:
        doc = _base_doc("decompose", code)
        doc["primes"] = _Rendered(primes, _prime_json)
        _emit_json(doc)
    else:
        for p in primes:
            print(p)
    return 0


def _cmd_complexes(args, code: Code) -> int:
    factor = _sorted_faces(factor_complex(code))  # capped: refuses first
    delta = sorted(downward_closure(code).facets)
    polar = _sorted_faces(polar_complex(code))
    psets = sorted(prime_sets(code))
    primes = sorted(sr_minimal_primes(code))
    if args.json:
        doc = _base_doc("complexes", code)
        doc["delta_facets"] = [list(neurons_from_mask(f)) for f in delta]
        doc["factor_facets"] = [_face_json(f) for f in factor]
        doc["polar_facets"] = [_face_json(f) for f in polar]
        doc["minimal_prime_sets"] = [_face_json(f) for f in psets]
        doc["sr_minimal_primes"] = [list(neurons_from_mask(b)) for b in primes]
        _emit_json(doc)
    else:
        n = code.n
        print("delta_facets: " + " ".join(word_text(f, n) for f in delta))
        print("factor_facets: " + " ".join(str(f) for f in factor))
        print("polar_facets: " + " ".join(str(f) for f in polar))
        print("minimal_prime_sets: " + " ".join(str(f) for f in psets))
        print("sr_minimal_primes: " + " ".join(monomial_prime_text(b) for b in primes))
    return 0


def _witness_text(report: ClassificationReport, n: int) -> str:
    w = report.witness
    doc = w.to_dict()
    if doc["kind"] == "missing_intersection":
        words = " & ".join(word_text(m, n) for m in w.words)
        return f"missing intersection: {words} = {word_text(w.intersection, n)}"
    if doc["kind"] == "pseudomonomial":
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
                print(f"  witness: {_witness_text(report, code.n)}")
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
    except (_UsageError, ValueError, OSError) as err:
        # ParseError, InvalidCodeError, CapExceededError and
        # SurveyTooLargeError are all ValueError subclasses
        print(f"error: {err}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> None:
    raise SystemExit(run_command(sys.argv[1:] if argv is None else argv))
