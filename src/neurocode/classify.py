"""Deciders for intersection-complete and max-intersection-complete codes.

Each property gets three criteria: a brute-force closure check, one on
the canonical form, and one on the factor complex of the complement code.
The last two read the same maximal intervals and maximal codewords, so
they are one computation; the brute-force deciders and ``tests/oracles.py``
are the independent routes. False verdicts carry a replayable witness;
true max-intersection verdicts from the algebraic method carry a
certificate. ``verify_dictionary`` checks the correspondences the other
methods rely on, end to end, on a single code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress

from .codes import (Code, Interval, _clear_masks, _intersection_closure,
                    _member_bits, _set_bits, full_mask)
from .complexes import (
    PolarFace,
    complex_of_ideal,
    factor_complex,
    factor_ideal,
    minimal_transversals,
    prime_sets,
    sr_minimal_primes,
)
from .ideals import Pseudomonomial, canonical_form


@dataclass(frozen=True)
class IntersectionWitness:
    """Codewords whose intersection is missing from the code."""

    words: tuple[int, ...]
    intersection: int


@dataclass(frozen=True)
class PseudomonomialWitness:
    """Canonical-form element violating the property's criterion."""

    pm: Pseudomonomial


@dataclass(frozen=True)
class FacetWitness:
    """Factor-complex facet violating the property's criterion."""

    facet: PolarFace


@dataclass(frozen=True)
class MicCertificateEntry:
    """For one nonmonomial canonical-form element: an index passing both
    clauses of the algebraic criterion, plus the positions of the minimal
    prime-sets that the matching facet contains."""

    pm: Pseudomonomial
    index: int
    contained_prime_sets: tuple[int, ...]


@dataclass(frozen=True)
class MicCertificate:
    """Replayable evidence for a true algebraic max-intersection verdict."""

    prime_vars: tuple[int, ...]
    entries: tuple[MicCertificateEntry, ...]


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of one decider run. Timing never enters equality."""

    property: str
    method: str
    verdict: bool
    witness: object | None = None
    certificate: MicCertificate | None = None
    elapsed_us: int = field(default=0, compare=False)


def _now() -> int:
    return time.perf_counter_ns()


def is_intersection_complete_bruteforce(code: Code) -> ClassificationReport:
    """Closure check: the code is intersection-complete iff the
    intersection closure of its word bitset adds no word.

    The witness is the first pair of ``word_list`` with a missing
    intersection. Its w1 is the least codeword with a failing partner, all
    of which lie above it, so w1 contains a missing m. w1 & w2 = m iff w2
    is in [m, m | ([n] - w1)]; over all m those are a carry-free product.
    """
    wb, n = code.word_bits, code.n
    t0 = _now()
    missing = _intersection_closure(wb, n) & ~wb
    above = missing  # up-closure: the words that contain a missing value
    for i, keep in enumerate(_clear_masks(n)):
        above |= (above & keep) << (1 << i)
    witness = None
    for w1 in _set_bits(above & wb):
        below = _member_bits(0, w1) & missing
        partners = below * _member_bits(0, full_mask(n) ^ w1) & wb
        if partners:
            w2 = (partners & -partners).bit_length() - 1
            witness = IntersectionWitness((w1, w2), w1 & w2)
            break
    return ClassificationReport(
        "IC", "brute_force", witness is None, witness,
        elapsed_us=(_now() - t0) // 1000)


def is_intersection_complete_cf(code: Code) -> ClassificationReport:
    """A code is intersection-complete iff every canonical-form element has
    at most one 1 - x factor."""
    cf = canonical_form(code)
    t0 = _now()
    witness = None
    for pm in sorted(cf.elements):
        if pm.tau.bit_count() > 1:
            witness = PseudomonomialWitness(pm)
            break
    return ClassificationReport(
        "IC", "canonical_form", witness is None, witness,
        elapsed_us=(_now() - t0) // 1000)


def is_intersection_complete_facets(code: Code) -> ClassificationReport:
    """A code is intersection-complete iff every facet of the complement's
    factor complex meets [n] in at least n - 1 vertices."""
    fc = factor_complex(code.complement)
    t0 = _now()
    n = code.n
    full = full_mask(n)
    witness = None
    for fmask in sorted(fc.facets):
        if (fmask & full).bit_count() < n - 1:
            witness = FacetWitness(PolarFace.from_mask(fmask, n))
            break
    return ClassificationReport(
        "IC", "factor_complex", witness is None, witness,
        elapsed_us=(_now() - t0) // 1000)


def is_mic_bruteforce(code: Code) -> ClassificationReport:
    """Every intersection of maximal codewords must be a codeword: the
    intersection closure of their bitset adds no word. The witness lists
    all maximal codewords containing the least missing value; their
    intersection is exactly that value.
    """
    maxw, wb = code.maximal_codewords, code.word_bits
    t0 = _now()
    missing = _intersection_closure(sum(1 << m for m in maxw), code.n) & ~wb
    witness = None
    if missing:
        v = (missing & -missing).bit_length() - 1
        witness = IntersectionWitness(
            tuple(sorted(m for m in maxw if v & ~m == 0)), v)
    return ClassificationReport(
        "MIC", "brute_force", witness is None, witness,
        elapsed_us=(_now() - t0) // 1000)


def is_mic_algebraic(code: Code) -> ClassificationReport:
    """Algebraic criterion for max-intersection-completeness.

    For every nonmonomial element pm of the canonical form there must be
    an index i such that (1 - x_i) divides pm and every minimal prime of
    the code complex's Stanley-Reisner ideal containing x_i also contains
    pm. Minimal primes stand in for associated primes: the ideals here are
    radical, so the two coincide. A prime with variable set B contains pm
    exactly when B meets sigma.

    True verdicts carry a certificate recording the chosen index per
    element.
    """
    cf, prime_vars = canonical_form(code), sorted(sr_minimal_primes(code))
    t0 = _now()
    n = code.n
    witness = None
    entries = []
    for pm in sorted(cf.elements):
        if pm.tau == 0:
            continue
        sigma = pm.sigma
        chosen = None
        for i in range(1, n + 1):
            bit = 1 << (i - 1)
            if not pm.tau & bit:
                continue
            if all(b & sigma for b in prime_vars if b & bit):
                chosen = i
                break
        if chosen is None:
            witness = PseudomonomialWitness(pm)
            break
        entries.append(MicCertificateEntry(
            pm, chosen,
            tuple(v for v, b in enumerate(prime_vars) if b & sigma == 0)))
    verdict = witness is None
    certificate = MicCertificate(tuple(prime_vars), tuple(entries)) if verdict else None
    return ClassificationReport(
        "MIC", "canonical_form", verdict, witness, certificate,
        elapsed_us=(_now() - t0) // 1000)


def is_mic_facets(code: Code) -> ClassificationReport:
    """Combinatorial criterion on the complement's factor complex.

    For every facet F not containing [n] there must be an i outside F
    such that every minimal prime-set containing i-bar also contains
    some j-bar outside F.
    """
    fc, psets = factor_complex(code.complement), prime_sets(code.complement)
    t0 = _now()
    n = code.n
    full = full_mask(n)
    pset_masks = sorted(pf.ypart for pf in psets)
    witness = None
    for fmask in sorted(fc.facets):
        x = fmask & full
        y = fmask >> n
        if x == full:
            continue
        for i in range(1, n + 1):
            bit = 1 << (i - 1)
            if not x & bit and all(b & ~y for b in pset_masks if b & bit):
                break
        else:
            witness = FacetWitness(PolarFace.from_mask(fmask, n))
            break
    return ClassificationReport(
        "MIC", "factor_complex", witness is None, witness,
        elapsed_us=(_now() - t0) // 1000)


# The three deciders of each property, by method name, in report order.
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


@dataclass(frozen=True)
class DictionaryCheck:
    name: str
    passed: bool
    detail: str | None = None


@dataclass(frozen=True)
class DictionaryReport:
    checks: tuple[DictionaryCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _pairs_free_in(i: int, n: int) -> int:
    """Bitset over the indices sigma | tau << n: those free in neuron i + 1,
    with neither bit i nor bit i + n."""
    bits = (1 << (1 << i)) - 1
    for k in range(i + 1, 2 * n):
        if k != i + n:
            bits |= bits << (1 << k)
    return bits


def _canonical_form_by_enumeration(code: Code) -> frozenset[Pseudomonomial]:
    """Reference route for the alpha check, independent of the interval kernel.

    A zeta transform over one bitset of 2**(2n) bits, indexed by
    sigma | tau << n. A pair is in the ideal iff [sigma, [n] - tau] holds no
    codeword. The full pairs (w, [n] - w) of the non-words are marked
    first; then, neuron by neuron, a pair free in i is marked iff both
    pairs that fix i are (one shift-AND each), which marks every pair of
    the ideal. A member is minimal iff no one-factor divisor is a member:
    one shift per factor.
    """
    n = code.n
    full = full_mask(n)
    nbytes = max(8, 1 << 2 * n >> 3)  # whole 64-bit words
    marks = bytearray(nbytes)
    for w in range(1 << n):
        if w not in code.words:
            p = w | (full ^ w) << n
            marks[p >> 3] |= 1 << (p & 7)
    members = int.from_bytes(marks, "little")
    del marks
    for i in range(n):
        members |= members >> (1 << i) & members >> (1 << i + n) & _pairs_free_in(i, n)
    divisible = 0
    for i in range(n):
        free = members & _pairs_free_in(i, n)
        divisible |= free << (1 << i) | free << (1 << i + n)
    data = (members & ~divisible).to_bytes(nbytes, "little")
    out = []
    for k in compress(range(nbytes >> 3), memoryview(data).cast("Q")):
        word = int.from_bytes(data[k << 3:k + 1 << 3], "little")
        while word:
            low = word & -word
            word ^= low
            p = k << 6 | low.bit_length() - 1
            out.append(Pseudomonomial(p & full, p >> n))
    return frozenset(out)


def _prime_sets_by_enumeration(code: Code) -> frozenset[PolarFace]:
    """Reference route for the delta check, independent of the maximal
    codewords: ``prime_sets``' definition, tested on all 2**n barred sets.

    [n] + B-bar is a face iff B lies in the barred part of a facet holding
    [n]. Bit-parallel over those facets: holders[v] is the bitset of the
    facets whose barred part holds v, so the facets above B are the
    intersection of holders[v] over v in B, built from B less its lowest
    vertex. B is a minimal non-face iff that is empty and nonempty for
    every B less one vertex.
    """
    n, fc = code.n, factor_complex(code)
    full = full_mask(n)
    barred = [f >> n for f in fc.facets if f & full == full]
    holders = [0] * n
    for j, y in enumerate(barred):
        for v in range(n):
            if y >> v & 1:
                holders[v] |= 1 << j
    above = [(1 << len(barred)) - 1]
    for b in range(1, 1 << n):
        above.append(above[b & b - 1] & holders[(b & -b).bit_length() - 1])
    return frozenset(
        PolarFace(0, b) for b in range(1 << n) if not above[b]
        and all(above[b ^ 1 << v] for v in range(n) if b >> v & 1))


def verify_dictionary(code: Code) -> DictionaryReport:
    """Check the code/ideal/complex correspondences end to end on one code.

    Each check compares one library artifact with one route that can
    disagree with it.

    alpha: the canonical form of the complement's neural ideal (read off
        the code's maximal intervals) against the minimal pseudomonomials
        of that ideal found by a zeta transform over all (sigma, tau)
        pairs, which reads only the words: a few shifts per neuron of
        2**(2n)-bit integers (128 KiB at n = 10, about 10 ms).
    beta: the factor-complex facets (read off the same intervals) against
        the facets of the complex of the factor ideal, which is built from
        the primary decomposition by a hypergraph dualization. Both read
        the same intervals, so this catches dualization bugs only.
    maximality: every reported interval lies in the code and no interval
        one neuron wider does; any strictly larger interval contains a
        one-neuron widening, so this tests maximality without the interval
        walk. That no maximal interval is missing is alpha's test.
    gamma_delta: the minimal primes of the code complex's ideal (the
        complements of the maximal codewords) against the minimal
        transversals of the canonical form's monomial supports, and the
        complement's minimal prime-sets against their definition, tested
        on all 2**n barred sets bit-parallel over the factor-complex
        facets that hold [n] (about 2 ms at n = 10).

    A failed check indicates a library bug, not a property of the code.
    """
    fc = factor_complex(code)  # capped: refuses first
    comp = code.complement
    checks = []

    cf_comp = canonical_form(comp).elements
    reference = _canonical_form_by_enumeration(comp)
    ok = cf_comp == reference
    checks.append(DictionaryCheck(
        "alpha", ok,
        None if ok else f"difference from enumeration {sorted(map(str, cf_comp ^ reference))}"))

    indep = complex_of_ideal(factor_ideal(code)).facets
    ok = fc.facets == indep
    checks.append(DictionaryCheck(
        "beta", ok,
        None if ok else f"facets {sorted(fc.facets)} vs ideal route {sorted(indep)}"))

    def one_wider(iv: Interval):  # free one more neuron: drop it from lo or add it to hi
        for i in range(code.n):
            if not (iv.hi ^ iv.lo) >> i & 1:
                yield Interval(iv.lo & ~(1 << i), iv.hi | 1 << i)

    bad = next((iv for iv in sorted(code.maximal_intervals)
                if not code.contains_interval(iv)
                or any(map(code.contains_interval, one_wider(iv)))), None)
    checks.append(DictionaryCheck(
        "maximality", bad is None,
        None if bad is None else f"interval [{bad.lo},{bad.hi}]"))

    primes = sr_minimal_primes(code)
    transversals = minimal_transversals(
        pm.sigma for pm in canonical_form(code).monomials())
    psets, scan = prime_sets(comp), _prime_sets_by_enumeration(comp)
    ok = primes == transversals and psets == scan
    checks.append(DictionaryCheck(
        "gamma_delta", ok,
        None if ok else f"primes {sorted(primes)} vs transversals {sorted(transversals)}; "
                        f"prime-sets {sorted(psets)} vs {sorted(scan)} from enumeration"))

    return DictionaryReport(tuple(checks))
