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
from functools import lru_cache
from itertools import compress

from .codes import (_INTERVAL_KEY, Code, _intersection_closure, _member_bits, _set_bits,
                    _up_closure, full_mask)
from .complexes import (PolarFace, factor_complex, minimal_transversals, prime_sets,
                        sr_minimal_primes)
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
    witness = None
    for w1 in _set_bits(_up_closure(missing, n) & wb):  # words above a missing value
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
    for pm in cf:  # ascending
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
    for pm in cf:  # ascending
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
    some j-bar outside F. The complement's minimal prime-sets are the
    barred ``sr_minimal_primes(code)``, which are read as masks.
    """
    fc, pset_masks = factor_complex(code.complement), sorted(sr_minimal_primes(code))
    t0 = _now()
    n = code.n
    full = full_mask(n)
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


@lru_cache(maxsize=None)
def _ternary_tables() -> tuple[tuple[int, ...], ...]:
    """Over eight neurons: the ternary vector of each byte's word (digit 1
    on its neurons), and the on and free masks of each of the 3**8 vectors."""
    values, on, free = [0], [0], [0]
    for k in range(8):
        values += [v + 3 ** k for v in values]
        on, free = on + [m | 1 << k for m in on] + on, free + free + [m | 1 << k for m in free]
    return tuple(values), tuple(on), tuple(free)


def _digit_two(i: int, n: int) -> int:
    """Bitset over the 3**n ternary vectors: those whose digit i is 2. One
    block of 3**(i + 1) bits, tripled; built per call, never cached (5.4 MB
    at n = 16)."""
    step = 3 ** i
    bits, width = (1 << step) - 1 << 2 * step, 3 * step
    while width < 3 ** n:
        bits |= bits << width | bits << 2 * width
        width *= 3
    return bits


def _inside(words: frozenset[int], n: int) -> int:
    """The intervals inside a word set, as a bitset over the 3**n ternary
    vectors t = sum(d_i * 3**i), whose digit d_i says neuron i + 1 is off
    (0), on (1) or free (2).

    A ternary zeta transform: the words themselves (no free digit) are
    marked first; then, neuron by neuron, a vector free in i is marked iff
    both vectors that fix i are (one shift-AND each), which marks every
    interval inside the set.
    """
    values = _ternary_tables()[0]
    marks = bytearray(3 ** n + 7 >> 3)
    for w in words:
        t = values[w & 255] + 6561 * values[w >> 8]
        marks[t >> 3] |= 1 << (t & 7)
    inside = int.from_bytes(marks, "little")
    for i in range(n):
        inside |= inside << 3 ** i & inside << 2 * 3 ** i & _digit_two(i, n)
    return inside


def _maximal_intervals_by_transform(inside: int, n: int) -> frozenset[tuple[int, int]]:
    """Reference route for the alpha, beta and maximality checks: the
    maximal intervals of a word set as (lo, hi) pairs, read off its
    ``_inside`` alone. An interval inside the set is maximal iff no
    one-neuron widening is: digit 0 or 1 to 2, which adds 2 * 3**i or
    3**i. The maximal vectors are read off the nonzero 64-bit words.
    """
    blocked = 0
    for i in range(n):
        wide = inside & _digit_two(i, n)
        blocked |= wide >> 3 ** i | wide >> 2 * 3 ** i
    nbytes = 3 ** n + 63 >> 6 << 3  # whole 64-bit words
    data = (inside ^ inside & blocked).to_bytes(nbytes, "little")
    _, on, free = _ternary_tables()
    out = []
    for k in compress(range(nbytes >> 3), memoryview(data).cast("Q")):
        word = int.from_bytes(data[k << 3:k + 1 << 3], "little")
        while word:
            low = word & -word
            word ^= low
            high, t = divmod(k << 6 | low.bit_length() - 1, 6561)
            lo = on[t] | on[high] << 8
            out.append((lo, lo | free[t] | free[high] << 8))
    return frozenset(out)


def _prime_sets_by_transform(inside: int, n: int) -> frozenset[PolarFace]:
    """Reference route for the delta check: ``prime_sets``' definition,
    tested on all 2**n barred sets against ``_inside`` of the code's words.

    [n] + B-bar is a face of the factor complex iff the interval
    [[n] - B, [n]] lies inside the code: the vector with digit 1 outside B
    and digit 2 on B, (3**n - 1) / 2 plus the ternary vector of B. The
    bits are read once, through ``to_bytes``. B is a minimal non-face iff
    it is not a face and every B less one vertex is.
    """
    data = inside.to_bytes(3 ** n + 7 >> 3, "little")
    values = _ternary_tables()[0]
    base = 3 ** n >> 1
    face = [data[t >> 3] >> (t & 7) & 1 for t in (
        base + values[b & 255] + 6561 * values[b >> 8] for b in range(1 << n))]
    return frozenset(
        PolarFace(0, b) for b in range(1 << n) if not face[b]
        and all(face[b ^ 1 << v] for v in range(n) if b >> v & 1))


def verify_dictionary(code: Code) -> DictionaryReport:
    """Check the code/ideal/complex correspondences end to end on one code.

    Each check compares an artifact that the CLI prints for this code with
    one route that can disagree with it. The routes are ternary zeta
    transforms (``_inside``) of the code's words and of the complement's,
    each built once and reading only the words: a few shift-ANDs per
    neuron of 3**n-bit integers (65 KiB at n = 12, 5.4 MB at n = 16).

    alpha: the code's canonical form (read off the complement's maximal
        intervals) against the image under alpha of the maximal intervals
        that the transform of the complement's words finds.
    beta: the factor-complex facets (read off the code's maximal
        intervals) against the image under the facet formula, [lo, hi] to
        hi + bar([n] - lo), of those that the code's transform finds.
    maximality: each reported interval, in sorted order, against beta's
        reference; the first that is not a maximal interval of the code is
        named. That none is missing is beta's test.
    gamma_delta: the minimal primes of the code complex's ideal (the
        complements of the maximal codewords) against the minimal
        transversals of the canonical form's monomial supports, and the
        code's minimal prime-sets against their definition, tested on all
        2**n barred sets in the transform of the code's words.

    A failed check indicates a library bug, not a property of the code.
    """
    fc = factor_complex(code)  # capped: refuses first
    n, full = code.n, full_mask(code.n)
    inside = _inside(code.words, n)
    reference = _maximal_intervals_by_transform(inside, n)
    checks = []

    cf = canonical_form(code)
    pms = frozenset(Pseudomonomial(lo, full ^ hi) for lo, hi in
                    _maximal_intervals_by_transform(_inside(code.complement.words, n), n))
    ok = cf.elements == pms
    checks.append(DictionaryCheck(
        "alpha", ok,
        None if ok else f"difference from enumeration {sorted(map(str, cf.elements ^ pms))}"))

    facets = {hi | (full ^ lo) << n for lo, hi in reference}
    ok = fc.facets == facets
    checks.append(DictionaryCheck(
        "beta", ok,
        None if ok else f"facets {sorted(fc.facets)} vs {sorted(facets)} from enumeration"))

    bad = next((iv for iv in sorted(code.maximal_intervals, key=_INTERVAL_KEY)
                if (iv.lo, iv.hi) not in reference), None)
    checks.append(DictionaryCheck(
        "maximality", bad is None,
        None if bad is None else f"interval [{bad.lo},{bad.hi}]"))

    primes = sr_minimal_primes(code)
    transversals = minimal_transversals(pm.sigma for pm in cf.monomials())
    psets, scan = prime_sets(code), _prime_sets_by_transform(inside, n)
    ok = primes == transversals and psets == scan
    checks.append(DictionaryCheck(
        "gamma_delta", ok,
        None if ok else f"primes {sorted(primes)} vs transversals {sorted(transversals)}; "
                        f"prime-sets {sorted(psets)} vs {sorted(scan)} from enumeration"))

    return DictionaryReport(tuple(checks))
