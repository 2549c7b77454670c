"""The CLI's exit status, stdout and stderr, pinned as sha256 digests.

There is one digest per (command, format, n), each over the fixed-seed
random codes of that n (densities 0.1, 0.5 and 0.9), so a failure names
which output moved. n runs to 11, so braced words (n >= 10) and facets
with a vertex index above 9 are covered; ``intervals`` and the brute
``check`` commands also run on sparse codes at n = 12, 14 and 16
(densities 0.01 and 0.1), so neurons 9 to 16, the second byte of a mask,
are pinned too. ``timing_us`` is zeroed before
hashing; it is the only field that varies from run to run.

The digests in ``cli_bytes.json`` are meant to be recorded once and then
only compared against. ``PYTHONPATH=src python tests/test_cli_bytes.py``
records the cases that have no digest yet; an existing digest is
rewritten only when its case name is passed as an argument, for an
intended output change. Each name it writes is printed.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from neurocode import render_code_document
from neurocode.cli import run_command

from oracles import random_codes

DIGESTS = Path(__file__).with_name("cli_bytes.json")

COMMANDS = {
    "cf": ["cf"],
    "intervals": ["intervals"],
    "decompose": ["decompose"],
    "complexes": ["complexes"],
    "verify": ["verify"],
    "check ic": ["check", "ic"],
    "check mic": ["check", "mic"],
    **{f"check ic {m}": ["check", "ic", "--method", m]
       for m in ("brute", "cf", "facets")},
    **{f"check mic {m}": ["check", "mic", "--method", m]
       for m in ("brute", "algebraic", "facets")},
}
# the polar complex's dualization dominates above n = 6; verify stays
# under a second a code up to n = 11
SMALL_ONLY = {"complexes": 6, "verify": 11}
LARGE = ("intervals", "check ic brute", "check mic brute")  # also at n = 12, 14, 16


def _cases() -> dict[str, list[tuple[list[str], str]]]:
    """Name -> the (argv, stdin text) invocations hashed into one digest."""
    cases = {}
    for n in range(1, 12):
        docs = [render_code_document(c) for c in random_codes(n, 3, seed=9000 + n)]
        for name, argv in COMMANDS.items():
            if n > SMALL_ONLY.get(name, n):
                continue
            cases[f"{name} text n={n}"] = [(argv, d) for d in docs]
            cases[f"{name} json n={n}"] = [(argv + ["--json"], d) for d in docs]
    for n in (12, 14, 16):
        docs = [render_code_document(c) for c in
                random_codes(n, 2, seed=9000 + n, densities=(0.01, 0.1))]
        for name in LARGE:
            cases[f"{name} text n={n}"] = [(COMMANDS[name], d) for d in docs]
            cases[f"{name} json n={n}"] = [(COMMANDS[name] + ["--json"], d) for d in docs]
    example = "n=3\n000\n010\n001\n110\n101\n"
    cases["check ic --method algebraic (does not apply)"] = [
        (["check", "ic", "--method", "algebraic"], example)]
    cases["check mic --method cf (does not apply)"] = [
        (["check", "mic", "--method", "cf"], example)]
    for n in ("2", "3"):
        cases[f"survey text n={n}"] = [(["survey", "--n", n], "")]
        cases[f"survey json n={n}"] = [(["survey", "--n", n, "--json"], "")]
    cases["duplicate-word warning"] = [(["cf"], "n=2\n00\n01\n00\n11\n")]
    cases["parse error"] = [(["cf"], "n=2\n00\n012\n")]
    cases["cap refusal n=13"] = [
        (argv, "n=13\n{1}\n{1,2}\n{13}\n") for argv in (["cf"], ["verify"])]
    return cases


_TIMING = re.compile(r'"timing_us": \d+')


def _digest(invocations) -> str:
    h = hashlib.sha256()
    for argv, text in invocations:
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = run_command(argv)
        finally:
            sys.stdin = stdin
        stdout = _TIMING.sub('"timing_us": 0', out.getvalue())
        h.update(json.dumps([status, stdout, err.getvalue()]).encode())
    return h.hexdigest()


CASES = _cases()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes(name, recorded):
    assert _digest(CASES[name]) == recorded[name]


def test_kernels_skip_the_antichain_check(monkeypatch, recorded):
    """With ``_is_antichain`` raising wherever ``complexes`` and ``ideals``
    call it, every command, text and JSON, still prints its usual bytes on
    the n = 8 documents, and the survey on n = 2 and 3: the kernels build
    their artifacts without the public constructors' checks. The
    ``complexes`` command is pinned only up to n = 6, so its n = 8 bytes
    come from a run without the patch."""
    cases = {name: CASES[name] for name in CASES
             if name.endswith(" n=8") or name.startswith("survey ")}
    expected = {name: recorded[name] for name in cases}
    docs = [text for _, text in cases["cf text n=8"]]
    for name, argv in (("complexes text n=8", ["complexes"]),
                       ("complexes json n=8", ["complexes", "--json"])):
        cases[name] = [(argv, d) for d in docs]
        expected[name] = _digest(cases[name])

    def refuse(masks):
        raise AssertionError("a kernel ran the antichain check")
    for module in ("neurocode.complexes", "neurocode.ideals"):
        monkeypatch.setattr(f"{module}._is_antichain", refuse)
    for name, invocations in cases.items():
        assert _digest(invocations) == expected[name], name


def record(repin: list[str]) -> None:
    """Record the missing digests and those of the ``repin`` cases."""
    unknown = sorted(set(repin) - set(CASES))
    if unknown:
        raise SystemExit(f"no such case: {', '.join(unknown)}")
    digests = json.loads(DIGESTS.read_text())
    for name in sorted(CASES):
        if name not in digests or name in repin:
            digests[name] = _digest(CASES[name])
            print(f"recorded {name}")
    DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")


if __name__ == "__main__":
    record(sys.argv[1:])
