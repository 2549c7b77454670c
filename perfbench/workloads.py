"""Workload definitions, document generation and output digests.

Every document is generated from ``(n, density, k)``: each of the 2**n
words is kept with probability ``density`` by a generator seeded from
those three values, and the code is rendered as one binary word per line.
``k`` ranges over the pool seeds ``0 .. POOL - 1``; expected outputs are
recorded for the whole pool (``expected.json``), so every run checks every
output it produces.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import sys
import time
from dataclasses import dataclass

# Pool seeds per (n, density) cell; a run draws its documents from all of them.
POOL = 4

# Rows of `survey --n 4` per digest chunk; a survey run ends on a chunk edge.
SURVEY_CHUNK = 256

KERNEL_COMMANDS = (("cf",), ("intervals",), ("decompose",), ("complexes",),
                   ("check", "ic"), ("check", "mic"), ("verify",))
LARGE_COMMANDS = (("intervals",), ("check", "ic", "--method", "brute"),
                  ("check", "mic", "--method", "brute"))


@dataclass(frozen=True)
class Workload:
    name: str
    ns: tuple[int, ...]
    densities: tuple[float, ...]
    commands: tuple[tuple[str, ...], ...]
    deadline_s: float  # per request (per survey row)


FORMATS = ((), ("--json",))  # every command runs as text and as JSON


WORKLOADS = {
    "survey-n4": Workload("survey-n4", (4,), (), (("survey", "--n", "4"),), 0.75),
    "cli-kernels": Workload("cli-kernels", (8, 10), (0.1, 0.5, 0.9),
                            KERNEL_COMMANDS, 0.75),
    "cli-large": Workload("cli-large", (12, 14, 16), (0.01, 0.1, 0.5),
                          LARGE_COMMANDS, 1.0),
}

# n <= 3 shapes of the three workloads, for `run.py --smoke`.
SMOKE = {
    "survey-n4": Workload("survey-n4", (2,), (), (("survey", "--n", "2"),), 5.0),
    "cli-kernels": Workload("cli-kernels", (2, 3), (0.5,), KERNEL_COMMANDS, 5.0),
    "cli-large": Workload("cli-large", (3,), (0.25, 0.75), LARGE_COMMANDS, 5.0),
}


def generate_words(n: int, density: float, k: int) -> list[int]:
    """A nonempty, proper word set on n neurons, seeded by (n, density, k)."""
    rng = random.Random(f"neurocode-bench:{n}:{density!r}:{k}")
    while True:
        words = [w for w in range(1 << n) if rng.random() < density]
        if 0 < len(words) < 1 << n:
            return words


def render(n: int, words: list[int]) -> str:
    lines = [f"n={n}"]
    lines += ["".join("1" if w >> i & 1 else "0" for i in range(n)) for w in words]
    return "\n".join(lines) + "\n"


def document(n: int, density: float, k: int) -> str:
    return render(n, generate_words(n, density, k))


def warmup_document(n: int) -> str:
    """A three-word chain code; warm-ups fill process-global tables."""
    return render(n, [0, 1, 3])


# A fixed interpreter loop timed next to every request (every survey chunk).
# On a shared host (the baseline's is a 2-core VM) the interpreter's speed
# drifts by up to a fifth within minutes as other tenants load it; times
# are scaled by CAL_REF_S / (loop time) to the speed of a reference host
# on which the loop takes CAL_REF_S.
CAL_LOOPS = 40_000
CAL_REF_S = 0.002


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i & 7
    return time.perf_counter() - t0


def request_key(n: int, density: float, k: int, argv) -> str:
    return f"{n}:{density!r}:{k}:{' '.join(argv)}"


def digest(argv, out: str) -> str:
    """Digest of a request's stdout; JSON check timings are dropped first."""
    if argv[0] == "check" and "--json" in argv:
        doc = json.loads(out)
        for report in doc["reports"]:
            report.pop("timing_us", None)
        out = json.dumps(doc, indent=2) + "\n"
    return hashlib.sha256(out.encode()).hexdigest()[:24]


class DeadlineExceeded(BaseException):
    """Raised by the interval timer inside a request that ran too long.

    A BaseException, so no ``except Exception`` in the library swallows it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def install_deadline_handler() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def arm(seconds: float) -> None:
    signal.setitimer(signal.ITIMER_REAL, seconds)


def disarm() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)


def call(run_command, argv, doc: str, deadline_s: float, stdout=None):
    """One CLI invocation with ``doc`` on stdin, under a deadline.

    Returns (exit status or None if interrupted, stdout text, seconds).
    """
    out = io.StringIO() if stdout is None else stdout
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(doc)
    status = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            arm(deadline_s)
            try:
                status = run_command(list(argv))
            finally:
                disarm()
    except DeadlineExceeded:
        status = None
    finally:
        sys.stdin = saved_stdin
    elapsed = time.perf_counter() - t0
    return status, (out.getvalue() if stdout is None else ""), elapsed
