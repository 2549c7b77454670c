"""Run every workload on several seeds and record medians, quartiles and spreads.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Each run is a fresh ``run.py`` process, as the benchmark's own runner makes
it. For every end-to-end metric the output holds the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median, which must stay within a
third of the metric's bound in ``BENCHMARK.json``. One traced run per
workload adds the per-layer table. The context (Python version, ``nproc``,
git commit, source lines of ``src/neurocode``) is recorded beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# printed by run.py beside the gated metrics; recorded here without a bound
UNGATED = re.compile(r"^# (latency_tail_ms|error_ratio) (\S+) (\S+)")


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [ln for ln in lines[:-1] if ln.startswith("# ")
                       and not ln[2:].split(" ", 1)[0] in result["metrics"]]
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def source_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "neurocode").glob("*.py")))


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    report = {"context": {"python": platform.python_version(), "nproc": os.cpu_count(),
                          "git_commit": git_commit(), "src_loc": source_lines(),
                          "run_seconds": spec["run_seconds"], "runs": args.runs},
              "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run(spec, name, seed, 0))
            print(f"{name} seed={seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                file=sys.stderr, flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "notes": runs[0]["notes"], "end_to_end": {}}
        for metric, bound in bounds.items():
            stats = summary([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], **stats, "bound": bound}
            steady = stats["spread"] is not None and stats["spread"] < bound / 3
            ok &= steady
            print(f"  {name:12s} {metric:16s} median={stats['median']:<12.5g} "
                  f"spread={stats['spread']} bound/3={bound / 3:.4f}"
                  f"{'' if steady else '  NOT STEADY'}", file=sys.stderr)
        ungated = {}
        for r in runs:
            for m in filter(None, map(UNGATED.match, r["notes"])):
                ungated.setdefault(m.group(1), (m.group(3), []))[1].append(float(m.group(2)))
        entry["ungated"] = {metric: {"unit": unit.rstrip(":"), **summary(values)}
                            for metric, (unit, values) in ungated.items()}
        ok &= entry["correct"]
        traced = run(spec, name, 1, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["trace_notes"] = traced["notes"]
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
