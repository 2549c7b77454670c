"""The sha256 of each demo's stdout, and a check of them that needs only
the standard library.

``test_io_cli.py`` reads the digests from here. Run as a script, it runs
every demo and compares the sha256 of its stdout with its digest; it
exits 1 if any demo fails or differs:

    python3 tests/check_demos.py
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout
DEMO_STDOUT_SHA256 = {
    "01_codes_and_intervals": "ee2b44215f5a91cfece544a2f115ba586817b751fb7b10018128771e472fd2b1",
    "02_neural_ideal_and_canonical_form":
        "10cbe24f1c2fc343fda783e2143611d2229ca53e5c503b74485621373a6a1390",
    "03_polarization_and_complexes":
        "164f38dad2b31a7571e8ccc2dff131df5967e8a6af98fb89deaa767b5829134c",
    "04_deciding_closure_properties":
        "dc8d2904faece725d8e580c3b68cc7b897b1a84697836e9d4eed7e46241d44c0",
    "05_survey": "a8339255deac9337ed1e9437a6f0f6863b7c65cb331c995720a3f6f132317309",
}


def demo_paths() -> list[Path]:
    return sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """Run one demo against this checkout's ``src``, capturing its output."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def stdout_sha256(proc: subprocess.CompletedProcess) -> str:
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


def main() -> int:
    demos = demo_paths()
    failed = sorted(set(DEMO_STDOUT_SHA256) - {demo.stem for demo in demos})
    for name in failed:
        print(f"{name}: pinned, but no such demo", file=sys.stderr)
    for demo in demos:
        proc = run_demo(demo)
        if proc.returncode != 0:
            print(f"{demo.stem}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        elif stdout_sha256(proc) != DEMO_STDOUT_SHA256.get(demo.stem):
            print(f"{demo.stem}: stdout sha256 {stdout_sha256(proc)}, pinned "
                  f"{DEMO_STDOUT_SHA256.get(demo.stem)}", file=sys.stderr)
        else:
            print(f"{demo.stem}: ok")
            continue
        failed.append(demo.stem)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
