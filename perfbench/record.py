"""Record the expected output of every benchmark request.

    python3 perfbench/record.py --part kernels   # or large, survey, smoke
    python3 perfbench/record.py --merge

Each part runs every request of its workload over the whole seed pool,
stores its exit status and output digest, and confirms independently
that every ``check --method all`` shows its three methods agreeing and
every ``verify`` passes, and that every ``intervals`` output lists the
maximal intervals found by an independent algorithm (``prime_cubes``).
An ``intervals`` request still running after RECORD_LIMIT_S seconds is
recorded from that algorithm's intervals, rendered by the CLI's own
``intervals`` handler; any other request that runs past the limit stops
the recording. Parts can run side by side; ``--merge`` joins them into
``expected.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
RECORD_LIMIT_S = 90.0

_VERDICT = re.compile(r"^(IC|MIC) \S+: (true|false)$")


def confirm(argv, status: int, out: str) -> None:
    """Independent sanity of a recorded output; raises on a library fault."""
    if argv[0] == "verify":
        passed = (json.loads(out)["passed"] if "--json" in argv
                  else all(line.endswith(": pass") for line in out.splitlines()))
        if status != 0 or not passed:
            raise SystemExit(f"verify failed on the seed commit: {argv}")
    if argv[0] == "check" and "--method" not in argv:
        if "--json" in argv:
            verdicts = [r["verdict"] for r in json.loads(out)["reports"]]
        else:
            verdicts = [m.group(2) == "true" for m in map(_VERDICT.match, out.splitlines())
                        if m]
        if len(verdicts) != 3 or len(set(verdicts)) != 1:
            raise SystemExit(f"methods disagree: {argv}: {verdicts}")
        if status != (0 if verdicts[0] else 2):
            raise SystemExit(f"exit status {status} contradicts verdicts: {argv}")


def prime_cubes(words: set[int], n: int) -> set[tuple[int, int]]:
    """The maximal intervals of a code, as (lo, hi), by merging cubes.

    An interval of the code is a cube of words; the maximal ones are the
    cubes that no cube of one more dimension contains. A cube (lo, free)
    of dimension d + 1 is two cubes of dimension d that differ in one bit
    outside ``free``, so the cubes are built up level by level, and a cube
    that merges with no neighbour is maximal.
    """
    level = {(w, 0) for w in words}
    maximal = set()
    while level:
        bigger = set()
        for lo, free in level:
            merged = False
            for i in range(n):
                bit = 1 << i
                if not free & bit and (lo ^ bit, free) in level:
                    merged = True
                    bigger.add((lo & ~bit, free | bit))
            if not merged:
                maximal.add((lo, lo | free))
        level = bigger
    return maximal


def intervals_output(cli, doc: str, argv) -> str:
    """The CLI's rendering of the maximal intervals found by ``prime_cubes``."""
    from neurocode.codes import Interval
    code = cli.parse_code(doc, "<stdin>")
    code.__dict__["maximal_intervals"] = frozenset(
        Interval(lo, hi) for lo, hi in prime_cubes(set(code.words), code.n))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli._cmd_intervals(argparse.Namespace(json="--json" in argv), code)
    if status != 0:
        raise SystemExit(f"intervals handler exited {status}: {argv}")
    return out.getvalue()


def record_requests(cli, workload: wl.Workload, limit: float) -> dict:
    table = {}
    for n in workload.ns:
        for density in workload.densities:
            for k in range(wl.POOL):
                doc = wl.document(n, density, k)
                for cmd in workload.commands:
                    over = False
                    for fmt in wl.FORMATS:
                        argv = cmd + fmt
                        key = wl.request_key(n, density, k, argv)
                        if not over:
                            status, out, secs = wl.call(cli.run_command, argv, doc, limit)
                            over = status is None
                        if over and argv[0] != "intervals":
                            raise SystemExit(f"{key} ran past {limit}s")
                        if argv[0] == "intervals":
                            independent = intervals_output(cli, doc, argv)
                            if over:
                                status, out = 0, independent
                            elif [status, out] != [0, independent]:
                                raise SystemExit(f"maximal intervals disagree: {key}")
                        confirm(argv, status, out)
                        table[key] = [status, wl.digest(argv, out)]
                        print(f"{key} -> {table[key]} ({secs:.2f}s"
                              f"{', past the limit' if over else ''})",
                              file=sys.stderr, flush=True)
    return table


def survey_expectation(text: str) -> dict:
    """Chunk digests of the row lines, plus the footer and whole-output digest."""
    lines = text.splitlines(keepends=True)
    header = lines[:2]
    footer = [ln for ln in lines if ln.startswith("#")][2:]
    rows = lines[2:len(lines) - len(footer)]
    chunks = ["".join(rows[i:i + wl.SURVEY_CHUNK])
              for i in range(0, len(rows), wl.SURVEY_CHUNK)]
    return {
        "rows": len(rows),
        "header": hashlib.sha256("".join(header).encode()).hexdigest()[:24],
        "chunks": [hashlib.sha256(c.encode()).hexdigest()[:24] for c in chunks],
        "footer": "".join(footer),
        "full": hashlib.sha256(text.encode()).hexdigest()[:24],
    }


def record_survey(cli, n: int, limit: float) -> dict:
    argv = ("survey", "--n", str(n))
    status, out, secs = wl.call(cli.run_command, argv, "", limit)
    if status != 0:
        raise SystemExit(f"survey --n {n} did not finish (status {status})")
    print(f"survey --n {n}: {secs:.1f}s", file=sys.stderr)
    return survey_expectation(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", choices=["kernels", "large", "survey", "smoke"])
    ap.add_argument("--merge", action="store_true")
    args = ap.parse_args()
    if args.merge:
        merged = {"pool": wl.POOL, "survey_chunk": wl.SURVEY_CHUNK,
                  "record_limit_s": RECORD_LIMIT_S}
        for part in ("kernels", "large", "survey", "smoke"):
            merged[part] = json.loads((HERE / f".record-{part}.json").read_text())
        EXPECTED.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    import neurocode.cli as cli
    wl.install_deadline_handler()
    t0 = time.time()
    if args.part == "kernels":
        result = record_requests(cli, wl.WORKLOADS["cli-kernels"], RECORD_LIMIT_S)
    elif args.part == "large":
        result = record_requests(cli, wl.WORKLOADS["cli-large"], RECORD_LIMIT_S)
    elif args.part == "survey":
        result = record_survey(cli, 4, RECORD_LIMIT_S)
    else:
        result = {"survey": record_survey(cli, 2, RECORD_LIMIT_S)}
        for name in ("cli-kernels", "cli-large"):
            result.update(record_requests(cli, wl.SMOKE[name], RECORD_LIMIT_S))
    (HERE / f".record-{args.part}.json").write_text(json.dumps(result, sort_keys=True))
    print(f"{args.part}: {time.time() - t0:.0f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
