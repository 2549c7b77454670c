"""Acceptance suite: one test per exit criterion, one pass/fail line each.

The lines bypass pytest's capture, so they show up interleaved with the
progress output under any capture mode.
"""

import hashlib
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from io import StringIO

import pytest

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from neurocode import (
    Interval,
    PolarFace,
    PrimePseudomonomialIdeal,
    Pseudomonomial,
    SquarefreeMonomialIdeal,
    Universe,
    canonical_form,
    code_from_id,
    complex_of_ideal,
    face_to_interval,
    factor_complex,
    factor_ideal,
    ideal_of_complex,
    in_neural_ideal,
    interval_to_pm,
    is_intersection_complete_bruteforce,
    is_intersection_complete_cf,
    is_intersection_complete_facets,
    is_mic_algebraic,
    is_mic_bruteforce,
    is_mic_facets,
    polar_complex,
    prime_sets,
    primary_decomposition,
    sr_minimal_primes,
    verify_dictionary,
)
from neurocode.classify import _IC_METHODS, _MIC_METHODS
from neurocode.cli import run_command

from oracles import (
    all_codes,
    check_correspondences,
    check_method_agreement,
    example_code,
    example_complement,
    minimal_members,
    replay_witness,
    sample_codes,
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _uncaptured(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit(line):
    with _CAPTURE.disabled() if _CAPTURE is not None else nullcontext():
        print(line, flush=True)


@contextmanager
def criterion(name, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(f"\nACCEPTANCE {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < limit_s else "FAIL"
    _emit(f"\nACCEPTANCE {name}: {verdict} ({elapsed:.2f}s, limit {limit_s:.0f}s)")
    assert elapsed < limit_s, f"{name} exceeded its {limit_s}s target"


def test_criterion_1_worked_examples():
    with criterion("worked-examples", 1.0):
        code = example_code()
        comp = example_complement()
        assert code.complement == comp

        assert code.maximal_intervals == {
            Interval(0, 0b010), Interval(0, 0b100),
            Interval(0b010, 0b011), Interval(0b100, 0b101)}

        assert canonical_form(code).elements == {
            Pseudomonomial(0b001, 0b110), Pseudomonomial(0b110, 0)}
        assert canonical_form(comp).elements == {
            Pseudomonomial(0, 0b101), Pseudomonomial(0, 0b011),
            Pseudomonomial(0b010, 0b100), Pseudomonomial(0b100, 0b010)}

        assert primary_decomposition(comp) == {
            PrimePseudomonomialIdeal(0b110, 0b001),
            PrimePseudomonomialIdeal(0, 0b110)}

        # the factor ideal is the intersection of the polarized primes
        # {x2, x3, y1} and {y2, y3}, expanded to its minimal generators
        assert {p.pos | p.neg << 3 for p in primary_decomposition(comp)} == {
            0b110 | 0b001 << 3, 0b110 << 3}
        assert factor_ideal(comp).generators == {
            0b010 | 0b010 << 3, 0b010 | 0b100 << 3,
            0b100 | 0b010 << 3, 0b100 | 0b100 << 3,
            0b011 << 3, 0b101 << 3}

        assert factor_complex(comp).polar_facets() == {
            PolarFace(0b001, 0b110), PolarFace(0b111, 0b001)}
        assert {face_to_interval(f, 3)
                for f in factor_complex(comp).polar_facets()} == \
            comp.maximal_intervals

        assert prime_sets(comp) == {PolarFace(0, 0b010), PolarFace(0, 0b100)}

        from neurocode import downward_closure
        assert downward_closure(code).facets == {0b011, 0b101}
        assert canonical_form(code).monomials() == {Pseudomonomial(0b110, 0)}
        assert sr_minimal_primes(code) == {0b010, 0b100}

        # dictionary correspondences on the worked pair
        assert {interval_to_pm(iv, 3) for iv in comp.maximal_intervals} == \
            canonical_form(code).elements
        assert verify_dictionary(code).passed
        assert verify_dictionary(comp).passed

        # classification with the worked witnesses
        r = is_intersection_complete_bruteforce(code)
        assert (r.verdict, r.witness.words, r.witness.intersection) == \
            (False, (0b011, 0b101), 0b001)
        assert is_intersection_complete_cf(code).witness.pm == \
            Pseudomonomial(0b001, 0b110)
        assert is_intersection_complete_facets(code).witness.facet == \
            PolarFace(0b001, 0b110)
        r = is_mic_bruteforce(code)
        assert (r.verdict, r.witness.words, r.witness.intersection) == \
            (False, (0b011, 0b101), 0b001)
        assert is_mic_algebraic(code).witness.pm == Pseudomonomial(0b001, 0b110)
        assert is_mic_facets(code).witness.facet == PolarFace(0b001, 0b110)

        assert polar_complex(comp).polar_facets() == {
            PolarFace(0b001, 0b110), PolarFace(0b111, 0b001),
            PolarFace(0b011, 0b010), PolarFace(0b101, 0b100)}


def test_criterion_2_exhaustive_n3():
    with criterion("exhaustive-n3", 5.0):
        count = 0
        for code in all_codes(3):
            check_method_agreement(code)  # includes the star-form agreement
            assert verify_dictionary(code).passed
            count += 1
        assert count == 254


def test_criterion_3_randomized_n4_n5():
    with criterion("randomized-n4-n5", 60.0):
        for n in (4, 5):
            count = 0
            for code in sample_codes(n, 10_000, seed=0xC0DE + n):
                check_method_agreement(code)
                assert verify_dictionary(code).passed
                check_correspondences(code)
                count += 1
            assert count == 10_000


# sha256 of the whole `survey --n 4` text, header and footer included
SURVEY_N4_SHA256 = "8903c6599bc45c1d161c88a1f3879684cae03e553e703bddf2c5148ff8bb514d"


def test_criterion_4_survey_n4_deterministic():
    with criterion("survey-n4", 240.0):
        outputs = []
        for _ in range(2):
            t0 = time.perf_counter()
            buffer = StringIO()
            with redirect_stdout(buffer):
                status = run_command(["survey", "--n", "4"])
            assert status == 0
            assert time.perf_counter() - t0 < 120.0, "one survey run over target"
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1], "survey runs differ byte for byte"
        rows = [line for line in outputs[0].splitlines() if not line.startswith("#")]
        assert len(rows) == 65_534
        assert hashlib.sha256(outputs[0].encode()).hexdigest() == SURVEY_N4_SHA256


# ---------------------------------------------------------------------------
# criterion 5: structural property tests

_SETTINGS = settings(max_examples=1000, derandomize=True, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.filter_too_much])


@st.composite
def codes(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    code_id = draw(st.integers(1, 2 ** (1 << n) - 2))
    return code_from_id(n, code_id)


@_SETTINGS
@given(codes())
def _complement_involution(code):
    assert code.complement.complement == code
    assert code.complement.words.isdisjoint(code.words)
    assert len(code.complement) + len(code) == 1 << code.n


@_SETTINGS
@given(codes(max_n=4))
def _cf_antichain_and_minimality(code):
    cf = canonical_form(code)
    elems = cf.elements
    from neurocode import divides
    for p in elems:
        assert in_neural_ideal(p, code)
        for q in elems:
            assert p == q or not divides(p, q)
        for part in ("sigma", "tau"):
            bits = getattr(p, part)
            while bits:
                bit = bits & -bits
                bits ^= bit
                if part == "sigma":
                    smaller = Pseudomonomial(p.sigma ^ bit, p.tau)
                else:
                    smaller = Pseudomonomial(p.sigma, p.tau ^ bit)
                assert not in_neural_ideal(smaller, code)


@_SETTINGS
@given(codes(max_n=4))
def _decomposition_covers_irredundantly(code):
    n = code.n
    primes = primary_decomposition(code)
    union = frozenset().union(*(p.zero_interval(n).members(n) for p in primes))
    assert union == code.words
    for p in primes:
        for q in primes:
            if p != q:
                assert not (q.pos & ~p.pos == 0 and q.neg & ~p.neg == 0)


@st.composite
def squarefree_ideals(draw):
    size = draw(st.integers(1, 8))
    supports = draw(st.frozensets(st.integers(1, (1 << size) - 1), max_size=6))
    return SquarefreeMonomialIdeal(
        Universe(size, polar=False), frozenset(minimal_members(list(supports))))


@_SETTINGS
@given(squarefree_ideals())
def _ideal_complex_round_trip(ideal):
    assert ideal_of_complex(complex_of_ideal(ideal)) == ideal
    cx = complex_of_ideal(ideal)
    assert complex_of_ideal(ideal_of_complex(cx)) == cx


@_SETTINGS
@given(codes(max_n=4))
def _witness_replay(code):
    for decide in (*_IC_METHODS.values(), *_MIC_METHODS.values()):
        report = decide(code)
        if not report.verdict:
            replay_witness(code, report)


def test_criterion_5_structural_properties():
    with criterion("structural-properties", 600.0):
        _complement_involution()
        _cf_antichain_and_minimality()
        _decomposition_covers_irredundantly()
        _ideal_complex_round_trip()
        _witness_replay()
