"""The neurocode benchmark: seeded CLI workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload cli-kernels --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads (closed loop: one caller, one process, single-threaded):

  survey-n4    `survey --n 4`; one request is one survey row.
  cli-kernels  cf, intervals, decompose, complexes, check ic, check mic and
               verify, text and --json, on codes at n in {8, 10}.
  cli-large    intervals and brute-force check ic / check mic, text and
               --json, on codes at n in {12, 14, 16}.

Every request goes through ``neurocode.cli.run_command`` with its document
on stdin, under a per-request deadline enforced by an interval timer.
Outputs are compared with the digests in ``expected.json``. An interrupted
request is not a wrong answer: it lowers ``success_ratio`` and enters the
latency percentiles at its measured time. Completed requests' times are
scaled to a reference host speed (``workloads.calibrate``). The last line
of stdout is the JSON result; the lines before it add the unscaled
figures, the tail percentile and ``error_ratio`` for people.

With ``--trace 1`` each request runs twice, untraced and then traced
(``spans.py``), and the per-layer metrics are reported instead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
# Set-up samples per run: this process's and those of fresh child processes,
# at least SETUP_MIN_SAMPLES and until the children have taken SETUP_BUDGET_S.
# A short set-up is noisier, and gets more samples.
SETUP_MIN_SAMPLES = 3
SETUP_BUDGET_S = 3.0
TRACE_SURVEY_ROWS = 8192  # the traced survey run covers this row prefix
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it


class StopRun(BaseException):
    """Raised from the survey's stdout when the run has what it needs."""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_cli():
    """Import neurocode.cli from this checkout's src/, and nothing else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import neurocode.cli as cli
    except ImportError as err:
        fail(f"cannot import neurocode from {src}: {err}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        fail(f"neurocode was imported from {cli.__file__}, not from {src}")
    return cli


def load_expected() -> dict:
    try:
        return json.loads((HERE / "expected.json").read_text())
    except OSError as err:
        fail(f"no recorded expectations: {err}")


def run_command(cli):
    # looked up per call, so the traced wrapper is used while installed
    return lambda argv: cli.run_command(argv)


# -- outcome bookkeeping ------------------------------------------------

class Tally:
    """Latencies and outcomes of the requests of one measured stretch."""

    def __init__(self):
        self.latencies: list[float] = []  # speed-scaled; interrupted ones as measured
        self.done: list[float] = []  # speed-scaled latencies of completed requests
        self.raw: list[float] = []  # wall seconds as measured
        self.factors: list[float] = []  # host-speed factors of completed requests
        self.completed = 0
        self.interrupted = 0
        self.wrong: list[str] = []  # labels of wrong outputs
        self.failed = 0  # requests whose output was wrong
        self.unchecked = 0  # survey rows completed but cut off from their chunk's check
        self.unreached = 0  # survey rows after an interrupted row, never run
        self.output_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.unreached

    @property
    def succeeded(self) -> int:
        """Requests answered within the deadline with a checked, right output."""
        return self.completed - self.failed - self.unchecked

    def fail(self, label: str, requests: int = 1) -> None:
        self.wrong.append(label)
        self.failed += requests

    def time(self, secs: float, factor: float, interrupted: bool = False) -> None:
        self.raw.append(secs)
        self.latencies.append(secs if interrupted else secs * factor)
        if not interrupted:
            self.done.append(secs * factor)
            self.factors.append(factor)

    def record(self, key: str, argv, status, out: str, secs: float, expected,
               factor: float) -> None:
        self.time(secs, factor, status is None)
        if status is None:
            self.interrupted += 1
            return
        self.completed += 1
        self.output_bytes += len(out)
        if [status, wl.digest(argv, out)] != expected:
            self.fail(key)

    def merge(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.done += other.done
        self.raw += other.raw
        self.completed += other.completed
        self.interrupted += other.interrupted
        self.wrong += other.wrong
        self.failed += other.failed
        self.unchecked += other.unchecked
        self.unreached += other.unreached


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            return h
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted mean of all order statistics around rank p*n. Request
    kinds of very different cost leave gaps in the latency distribution;
    the single middle sample then jumps across a gap from run to run,
    while this estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    lo = max(int((p - 10 * sd) * n), 0)
    hi = min(int((p + 10 * sd) * n) + 1, n)
    cdf = [_beta_cdf(a, b, i / n) for i in range(lo, hi + 1)]
    return sum((cdf[i + 1] - cdf[i]) * xs[lo + i] for i in range(hi - lo)) \
        / (cdf[-1] - cdf[0])


TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with TAIL_BEYOND samples beyond it."""
    fits = [p for p in TAIL_LADDER if samples * (100.0 - p) / 100.0 >= TAIL_BEYOND]
    return fits[-1] if fits else TAIL_LADDER[0]


# -- set-up -------------------------------------------------------------

class Bench:
    def __init__(self, name: str, seed: int):
        self.workload = wl.WORKLOADS[name]
        self.seed = seed
        self.calibrated = False  # scale times by the host's speed (not while tracing)
        self.expected = load_expected()
        # The host's speed changes within a set-up, so each step is scaled
        # by the calibration loops around it, as a request is.
        self.cli, _, setup_s = self._step(import_cli)
        self.run = run_command(self.cli)
        wl.install_deadline_handler()
        self.docs = {}
        for key in [(n, d, k) for n in self.workload.ns for d in self.workload.densities
                    for k in range(wl.POOL)]:
            self.docs[key], _, secs = self._step(wl.document, *key)
            setup_s += secs
        self.setup_s = setup_s + self._warm_up()
        self.calibrated = True
        gc.collect()
        gc.freeze()  # set-up objects stay out of the collections below

    @staticmethod
    def _step(fn, *args, **kwargs):
        """Run one set-up step; returns its result and its seconds as
        measured and as scaled by the host's speed around it."""
        before = wl.calibrate()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        secs = time.perf_counter() - t0
        return result, secs, secs * 2 * wl.CAL_REF_S / (before + wl.calibrate())

    def _warm_up(self) -> float:
        """One request per distinct (command, n); returns its set-up seconds."""
        w = self.workload
        if w.name == "survey-n4":
            return self._step(self.survey_pass, Tally(), stop_rows=wl.SURVEY_CHUNK)[2]
        total = 0.0
        for n in w.ns:
            for cmd in w.commands:
                (status, _, _), secs, scaled = self._step(
                    wl.call, self.run, cmd, wl.warmup_document(n), w.deadline_s)
                total += secs if status is None else scaled  # a deadline wait is not scaled
        return total

    # -- cli workloads --------------------------------------------------
    def rounds(self):
        """Endless rounds; a round runs every (n, density, command, format) once.

        Slot i of round r parses pool document (r + i) mod POOL, so a run
        holds the same requests whatever the seed, and the seed shuffles
        their order within each round.
        """
        w = self.workload
        slots = [(n, d, cmd + fmt) for n in w.ns for d in w.densities
                 for cmd in w.commands for fmt in wl.FORMATS]
        r = 0
        while True:
            order = list(range(len(slots)))
            random.Random(f"{self.seed}:{r}").shuffle(order)
            yield [(n, d, (r + i) % wl.POOL, argv)
                   for i in order for n, d, argv in [slots[i]]]
            r += 1

    def request(self, tally: Tally, n, density, k, argv) -> float:
        key = wl.request_key(n, density, k, argv)
        table = self.expected["kernels" if self.workload.name == "cli-kernels" else "large"]
        if table.get(key) is None:
            fail(f"no recorded expectation for {key}; rerun record.py")
        gc.collect()  # untimed: each request starts on a collected heap, as in a fresh CLI
        before = wl.calibrate() if self.calibrated else 0.0
        status, out, secs = wl.call(self.run, argv, self.docs[n, density, k],
                                    self.workload.deadline_s)
        factor = (wl.CAL_REF_S * 2 / (before + wl.calibrate())) if self.calibrated else 1.0
        tally.record(key, argv, status, out, secs, table[key], factor)
        return secs if status is not None else None

    def measure(self, seconds: float) -> tuple[Tally, float]:
        """Run for about ``seconds``: the survey for one whole pass, so that its
        totals are checked, and on until a chunk edge past ``seconds``; CLI
        workloads in whole rounds, ending on the round edge nearest to it."""
        tally = Tally()
        t0 = time.perf_counter()
        if self.workload.name == "survey-n4":
            end = t0 + seconds
            self.survey_pass(tally)
            while time.perf_counter() < end:
                self.survey_pass(tally, end=end)
            return tally, time.perf_counter() - t0
        for done, slots in enumerate(self.rounds()):
            elapsed = time.perf_counter() - t0
            if done and elapsed + elapsed / done / 2 > seconds:
                break
            for n, density, k, argv in slots:
                self.request(tally, n, density, k, argv)
        return tally, time.perf_counter() - t0

    # -- survey ---------------------------------------------------------
    def survey_pass(self, tally: Tally, end: float = float("inf"),
                    stop_rows: int | None = None, tracer=None) -> float:
        """One `survey --n 4`, until it finishes, `end` passes (checked at
        chunk edges) or `stop_rows` rows are out. Returns its wall time."""
        expect = self.expected["survey"]
        out = SurveyOut(tally, expect, self.workload.deadline_s, end, stop_rows, tracer,
                        self.calibrated)
        t0 = out.last = time.perf_counter()
        try:
            status, _, _ = wl.call(self.run, ("survey", "--n", "4"), "",
                                   self.workload.deadline_s, stdout=out)
        except StopRun:
            return time.perf_counter() - t0
        if status is None:  # a row ran past the deadline and ended the pass
            # the rows of its chunk cannot be checked, and the rest never ran
            tally.unchecked += len(out.chunk)
            out.scale_chunk(out.cal_prev)
            tally.time(time.perf_counter() - out.last, 1.0, interrupted=True)
            tally.interrupted += 1
            tally.unreached += max(expect["rows"] - out.rows - 1, 0)
        elif status != 0:
            tally.fail(f"survey exit status {status}", len(out.chunk))
        else:
            out.finish()
        return time.perf_counter() - t0


class SurveyOut:
    """Captured stdout of a survey: one write per row, checked per chunk."""

    def __init__(self, tally: Tally, expect: dict, deadline_s: float, end: float,
                 stop_rows, tracer, calibrated: bool):
        self.tally, self.expect, self.deadline_s = tally, expect, deadline_s
        self.end, self.stop_rows, self.tracer = end, stop_rows, tracer
        self.calibrated = calibrated
        self.cal_prev = wl.calibrate() if calibrated else 0.0
        self.rows = 0
        self.chunk: list[str] = []
        self.chunk_secs: list[float] = []  # row latencies of the chunk, as measured
        self.head: list[str] = []
        self.foot: list[str] = []
        self.hasher = hashlib.sha256()
        self.last = 0.0

    def write(self, text: str) -> int:
        now = time.perf_counter()
        if text.startswith("#"):
            (self.foot if self.rows else self.head).append(text)
            return len(text)
        self.chunk_secs.append(now - self.last)
        self.tally.completed += 1
        self.tally.output_bytes += len(text)
        self.last = now
        self.rows += 1
        self.chunk.append(text)
        if self.tracer is not None:
            self.tracer.begin_request()
        wl.arm(self.deadline_s)
        if self.rows % wl.SURVEY_CHUNK == 0:
            self._check_chunk()
            if now >= self.end or (self.stop_rows and self.rows >= self.stop_rows):
                raise StopRun()
            self.last = time.perf_counter()  # the chunk's bookkeeping is not a row's
        return len(text)

    def flush(self) -> None:
        pass

    def _check_chunk(self) -> None:
        index = (self.rows - 1) // wl.SURVEY_CHUNK
        text = "".join(self.chunk).encode()
        if index == 0:
            self.hasher.update("".join(self.head).encode())
        self.hasher.update(text)
        got = hashlib.sha256(text).hexdigest()[:24]
        if index >= len(self.expect["chunks"]) or got != self.expect["chunks"][index]:
            self.tally.fail(f"survey chunk {index}", len(self.chunk))
        self.chunk.clear()
        cal = wl.calibrate() if self.calibrated else 0.0
        self.scale_chunk((self.cal_prev + cal) / 2)
        self.cal_prev = cal

    def scale_chunk(self, cal: float) -> None:
        """Move the chunk's row latencies into the tally, scaled by ``cal``."""
        factor = wl.CAL_REF_S / cal if self.calibrated else 1.0
        for secs in self.chunk_secs:
            self.tally.time(secs, factor)
        self.chunk_secs.clear()

    def finish(self) -> None:
        """The pass ran to its footer: check the rest and the totals."""
        if self.chunk:
            self._check_chunk()
        self.hasher.update("".join(self.foot).encode())
        head = hashlib.sha256("".join(self.head).encode()).hexdigest()[:24]
        if (self.rows != self.expect["rows"] or head != self.expect["header"]
                or "".join(self.foot) != self.expect["footer"]
                or self.hasher.hexdigest()[:24] != self.expect["full"]):
            self.tally.fail("survey footer or totals")


# -- modes --------------------------------------------------------------

def setup_samples(bench: Bench, args) -> list[float]:
    """This process's set-up time and that of fresh child processes."""
    samples = [bench.setup_s]
    t0 = time.perf_counter()
    while len(samples) < SETUP_MIN_SAMPLES or time.perf_counter() - t0 < SETUP_BUDGET_S:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up child failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def end_to_end(bench: Bench, args) -> tuple[dict, Tally, list[str]]:
    setups = setup_samples(bench, args)
    tally, wall = bench.measure(args.seconds)
    pct = tail_percentile(len(tally.latencies))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = tally.succeeded
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": (tally.completed / math.fsum(tally.latencies), "1/s"),
        "latency_p50_ms": (quantile(tally.latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(tally.latencies, 0.9) * 1e3, "ms"),
        "completed_p90_ms": (quantile(tally.done, 0.9) * 1e3, "ms"),
        "success_ratio": (ok / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    lines = [
        f"# {bench.workload.name} seed={args.seed}: {tally.attempted} requests in "
        f"{wall:.1f}s; {tally.completed} completed, {tally.interrupted} interrupted at "
        f"the {bench.workload.deadline_s}s deadline, {tally.failed} wrong, "
        f"{tally.unchecked} unchecked and {tally.unreached} never run after an "
        f"interrupted survey row",
        f"# setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}",
        f"# latency_tail_ms {quantile(tally.latencies, pct / 100) * 1e3:.6g} ms: "
        f"p{pct:g} of {len(tally.latencies)} samples",
        f"# as measured, unscaled: {tally.completed / wall:.5g} requests/s of wall time, "
        f"p50 {quantile(tally.raw, 0.5) * 1e3:.5g} ms, "
        f"p{pct:g} {quantile(tally.raw, pct / 100) * 1e3:.5g} ms; "
        f"median host-speed factor {statistics.median(tally.factors or [1.0]):.4f}",
        f"# error_ratio {1 - ok / tally.attempted:.4f} ratio",
    ]
    return metrics, tally, lines


def traced(bench: Bench, args) -> tuple[dict, Tally, list[str]]:
    """Each request untraced, then traced; per-layer metrics of the traced ones."""
    bench.calibrated = False
    tracer = spans.Tracer()
    plain, traced_tally = Tally(), Tally()
    plain_ns = traced_ns = wall_ns = 0
    if bench.workload.name == "survey-n4":
        plain_wall = bench.survey_pass(plain, stop_rows=TRACE_SURVEY_ROWS)
        tracer.install()
        try:
            tracer.begin_request()
            wall = bench.survey_pass(traced_tally, stop_rows=TRACE_SURVEY_ROWS,
                                     tracer=tracer)
        finally:
            tracer.uninstall()
        requests = traced_tally.attempted
        wall_ns = round(wall * 1e9)
        plain_ns, traced_ns = round(plain_wall * 1e9), wall_ns
    else:
        for n, density, k, argv in next(bench.rounds()):
            base = bench.request(plain, n, density, k, argv)
            tracer.install()
            try:
                tracer.begin_request()
                secs = bench.request(traced_tally, n, density, k, argv)
            finally:
                tracer.uninstall()
            wall_ns += round(traced_tally.raw[-1] * 1e9)
            if base is not None and secs is not None:
                plain_ns += round(base * 1e9)
                traced_ns += round(secs * 1e9)
        requests = traced_tally.attempted
    tracer.counts["cli.output_bytes"] = traced_tally.output_bytes
    overhead = traced_ns / plain_ns if plain_ns else 0.0
    values = spans.layer_metrics(tracer, requests, wall_ns, overhead)
    units = {name: unit for name, unit, _ in spans.per_layer_metrics()}
    metrics = {name: (values[name], units[name]) for name in units}
    path = OUT_DIR / f"trace-{bench.workload.name}-seed{args.seed}.csv.gz"
    span_count = tracer.write(path)
    layers = sum(v for name, v in values.items() if name.endswith(".self_ms"))
    lines = [
        f"# {bench.workload.name} seed={args.seed} traced: {requests} requests, "
        f"{span_count} spans written to {path.relative_to(ROOT)}",
        f"# per request: layers {layers:.4f} ms + unattributed "
        f"{values['trace.unattributed_ms']:.4f} ms = wall "
        f"{values['trace.request_wall_ms']:.4f} ms",
    ]
    plain.merge(traced_tally)
    return metrics, plain, lines


def smoke() -> int:
    """Every n <= 3 request of the three workload shapes, checked, and one
    traced request; finishes in seconds."""
    expected = load_expected()["smoke"]
    cli = import_cli()
    run = run_command(cli)
    wl.install_deadline_handler()
    tally = Tally()
    for name, w in wl.SMOKE.items():
        if name == "survey-n4":
            out = SurveyOut(tally, expected["survey"], w.deadline_s, float("inf"), None, None,
                            False)
            out.last = time.perf_counter()
            status, _, _ = wl.call(run, w.commands[0], "", w.deadline_s, stdout=out)
            if status != 0:
                tally.fail(f"survey exit status {status}")
            else:
                out.finish()
            continue
        for n in w.ns:
            for density in w.densities:
                for k in range(wl.POOL):
                    doc = wl.document(n, density, k)
                    for argv in [c + f for c in w.commands for f in wl.FORMATS]:
                        key = wl.request_key(n, density, k, argv)
                        status, out, secs = wl.call(run, argv, doc, w.deadline_s)
                        tally.record(key, argv, status, out, secs, expected[key], 1.0)
    before = spans.namespace_snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_request()
        wl.call(run, ("check", "mic"), wl.document(3, 0.5, 0), 5.0)
    finally:
        tracer.uninstall()
    after = spans.namespace_snapshot()
    restored = before.keys() == after.keys() and all(after[k] is v for k, v in before.items())
    ok = (not tally.wrong and tally.interrupted == 0 and tally.unchecked == 0
          and restored and tracer.calls.get("classify.is_mic_facets") == 1)
    print(f"smoke: {tally.attempted} requests, {tally.failed} wrong "
          f"{tally.wrong[:5]}, {tally.interrupted} interrupted, "
          f"{len(tracer.span_name)} spans, tracing restored={restored}: "
          f"{'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true",
                    help="run the n <= 3 smoke check instead of a workload")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    bench = Bench(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": bench.setup_s}))
        return 0
    metrics, tally, lines = (traced if args.trace else end_to_end)(bench, args)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    for key in tally.wrong[:20]:
        print(f"# WRONG OUTPUT: {key}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
