"""Deciders for intersection-complete and max-intersection-complete codes.

Each property gets three mutually independent methods: a brute-force
closure check, a criterion on the canonical form, and a criterion on the
factor complex of the complement code. False verdicts carry a replayable
witness; true max-intersection verdicts from the algebraic method carry a
certificate. ``verify_dictionary`` checks the correspondences the other
methods rely on, end to end, on a single code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .codes import Code, Interval, _member_bits, full_mask, neurons_from_mask, submasks
from .complexes import (
    PolarFace,
    complex_of_ideal,
    factor_complex,
    factor_ideal,
    minimal_transversals,
    prime_sets,
    sr_minimal_primes,
)
from .ideals import Pseudomonomial, canonical_form, interval_to_pm


@dataclass(frozen=True)
class IntersectionWitness:
    """Codewords whose intersection is missing from the code."""

    words: tuple[int, ...]
    intersection: int

    def to_dict(self) -> dict:
        return {
            "kind": "missing_intersection",
            "words": [list(neurons_from_mask(w)) for w in self.words],
            "intersection": list(neurons_from_mask(self.intersection)),
        }


@dataclass(frozen=True)
class PseudomonomialWitness:
    """Canonical-form element violating the property's criterion."""

    pm: Pseudomonomial

    def to_dict(self) -> dict:
        return {
            "kind": "pseudomonomial",
            "sigma": list(neurons_from_mask(self.pm.sigma)),
            "tau": list(neurons_from_mask(self.pm.tau)),
            "text": str(self.pm),
        }


@dataclass(frozen=True)
class FacetWitness:
    """Factor-complex facet violating the property's criterion."""

    facet: PolarFace

    def to_dict(self) -> dict:
        return {
            "kind": "facet",
            "x": list(neurons_from_mask(self.facet.xpart)),
            "y": list(neurons_from_mask(self.facet.ypart)),
            "text": str(self.facet),
        }


@dataclass(frozen=True)
class MicCertificateEntry:
    """For one nonmonomial canonical-form element: an index passing both
    clauses of the algebraic criterion, plus the positions of the minimal
    prime-sets that the matching facet contains."""

    pm: Pseudomonomial
    index: int
    contained_prime_sets: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "pm": str(self.pm),
            "index": self.index,
            "contained_prime_sets": list(self.contained_prime_sets),
        }


@dataclass(frozen=True)
class MicCertificate:
    """Replayable evidence for a true algebraic max-intersection verdict."""

    prime_vars: tuple[int, ...]
    entries: tuple[MicCertificateEntry, ...]

    def to_dict(self) -> dict:
        return {
            "minimal_primes": [list(neurons_from_mask(b)) for b in self.prime_vars],
            "entries": [e.to_dict() for e in self.entries],
        }


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of one decider run. Timing never enters equality."""

    property: str
    method: str
    verdict: bool
    n: int
    witness: object | None = None
    certificate: MicCertificate | None = None
    elapsed_us: int = field(default=0, compare=False)

    def to_dict(self) -> dict:
        doc = {
            "property": self.property,
            "method": self.method,
            "verdict": self.verdict,
            "witness": self.witness.to_dict() if self.witness is not None else None,
            "timing_us": self.elapsed_us,
        }
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_dict()
        return doc


def _now() -> int:
    return time.perf_counter_ns()


def is_intersection_complete_bruteforce(code: Code) -> ClassificationReport:
    """Pairwise closure check; pairwise closure generates all intersections."""
    t0 = _now()
    words = code.word_list
    member = code.words.__contains__
    witness = None
    for i, w1 in enumerate(words):
        for w2 in words[i + 1:]:
            m = w1 & w2
            if not member(m):
                witness = IntersectionWitness((w1, w2), m)
                break
        if witness is not None:
            break
    return ClassificationReport(
        "IC", "brute_force", witness is None, code.n, witness,
        elapsed_us=(_now() - t0) // 1000)


def is_intersection_complete_cf(code: Code) -> ClassificationReport:
    """A code is intersection-complete iff every canonical-form element has
    at most one 1 - x factor."""
    t0 = _now()
    witness = None
    for pm in sorted(canonical_form(code).elements):
        if pm.tau.bit_count() > 1:
            witness = PseudomonomialWitness(pm)
            break
    return ClassificationReport(
        "IC", "canonical_form", witness is None, code.n, witness,
        elapsed_us=(_now() - t0) // 1000)


def is_intersection_complete_facets(code: Code) -> ClassificationReport:
    """A code is intersection-complete iff every facet of the complement's
    factor complex meets [n] in at least n - 1 vertices."""
    t0 = _now()
    n = code.n
    full = full_mask(n)
    witness = None
    for fmask in sorted(factor_complex(code.complement).facets):
        if (fmask & full).bit_count() < n - 1:
            witness = FacetWitness(PolarFace.from_mask(fmask, n))
            break
    return ClassificationReport(
        "IC", "factor_complex", witness is None, code.n, witness,
        elapsed_us=(_now() - t0) // 1000)


def is_mic_bruteforce(code: Code) -> ClassificationReport:
    """Close the maximal-codeword family under pairwise intersection and
    check every value is a codeword.

    Intersection is associative, commutative and idempotent, so the
    pairwise closure contains the intersection of every nonempty subset.
    The witness lists all maximal codewords containing the least missing
    value; their intersection is exactly that value.
    """
    t0 = _now()
    maxw = sorted(code.maximal_codewords)
    values = set(maxw)
    frontier = list(maxw)
    while frontier:
        fresh = []
        for v in frontier:
            for m in maxw:
                x = v & m
                if x not in values:
                    values.add(x)
                    fresh.append(x)
        frontier = fresh
    missing = sorted(v for v in values if v not in code.words)
    witness = None
    if missing:
        v = missing[0]
        witness = IntersectionWitness(
            tuple(m for m in maxw if v & ~m == 0), v)
    return ClassificationReport(
        "MIC", "brute_force", witness is None, code.n, witness,
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
    t0 = _now()
    n = code.n
    prime_vars = sorted(sr_minimal_primes(code))
    witness = None
    entries = []
    for pm in sorted(canonical_form(code).elements):
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
        "MIC", "canonical_form", verdict, code.n, witness, certificate,
        elapsed_us=(_now() - t0) // 1000)


def is_mic_facets(code: Code) -> ClassificationReport:
    """Combinatorial criterion on the complement's factor complex.

    For every facet F not containing [n] there must be an i outside F
    such that every minimal prime-set containing i-bar also contains
    some j-bar outside F. An equivalent single-set condition (the
    complement of the union of the prime-sets contained in F must not
    lie inside F) is evaluated alongside and held to agreement.
    """
    t0 = _now()
    n = code.n
    full = full_mask(n)
    comp = code.complement
    pset_masks = sorted(pf.ypart for pf in prime_sets(comp))
    witness = None
    for fmask in sorted(factor_complex(comp).facets):
        x = fmask & full
        y = fmask >> n
        if x == full:
            continue
        ok = False
        for i in range(1, n + 1):
            bit = 1 << (i - 1)
            if x & bit:
                continue
            if all(b & ~y for b in pset_masks if b & bit):
                ok = True
                break
        union = 0
        for b in pset_masks:
            if b & ~y == 0:
                union |= b
        star = (full & ~union) & ~x != 0
        if ok != star:
            raise AssertionError(
                f"facet criterion and its single-set form disagree on "
                f"{PolarFace.from_mask(fmask, n)}")
        if not ok:
            witness = FacetWitness(PolarFace.from_mask(fmask, n))
            break
    return ClassificationReport(
        "MIC", "factor_complex", witness is None, code.n, witness,
        elapsed_us=(_now() - t0) // 1000)


@dataclass(frozen=True)
class DictionaryCheck:
    name: str
    passed: bool
    detail: str | None = None

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class DictionaryReport:
    checks: tuple[DictionaryCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def _canonical_form_by_enumeration(code: Code) -> frozenset[Pseudomonomial]:
    """Reference route for the alpha check, independent of the interval kernel.

    Visits all 3**n disjoint (sigma, tau) pairs by increasing
    |sigma| + |tau|, so minimal elements appear before anything they
    divide and minimality reduces to a forward filter against the kept
    list. A pair is in the ideal iff [sigma, [n] - tau] holds no codeword.
    """
    n = code.n
    full = full_mask(n)
    wb = code.word_bits
    kept: list[tuple[int, int]] = []
    for support in sorted(range(1 << n), key=int.bit_count):
        for sigma in submasks(support):
            tau = support ^ sigma
            if _member_bits(sigma, full ^ tau) & wb == 0 and not any(
                    ps & ~sigma == 0 and pt & ~tau == 0 for ps, pt in kept):
                kept.append((sigma, tau))
    return frozenset(Pseudomonomial(s, t) for s, t in kept)


def verify_dictionary(code: Code) -> DictionaryReport:
    """Check the code/ideal/complex correspondences end to end on one code.

    alpha: maximal intervals map exactly onto the canonical form of the
        complement's neural ideal, both as computed (the image of the same
        intervals, so this half only checks the caching) and as found by
        an independent 3**n enumeration.
    beta: interval images are exactly the factor-complex facets, agree with
        the facets recomputed through the factor ideal, and are effective.
    maximality: for every interval of the code, interval maximality,
        canonical-form membership of its pseudomonomial, and facet-ness of
        its face all agree.
    gamma_delta: complements of maximal codewords give both the minimal
        primes of the code complex's ideal (recomputed as minimal
        transversals of the canonical form's monomial supports) and,
        barred, the minimal prime-sets of the complement's factor complex.

    A failed check indicates a library bug, not a property of the code.
    """
    n = code.n
    full = full_mask(n)
    comp = code.complement
    checks = []

    miv = code.maximal_intervals
    alpha_img = frozenset(interval_to_pm(iv, n) for iv in miv)
    cf_comp = canonical_form(comp).elements
    reference = _canonical_form_by_enumeration(comp)
    ok = alpha_img == cf_comp == reference
    checks.append(DictionaryCheck(
        "alpha", ok,
        None if ok else f"difference {sorted(map(str, alpha_img ^ cf_comp))}, "
                        f"from enumeration {sorted(map(str, alpha_img ^ reference))}"))

    fc = factor_complex(code)
    beta_img = frozenset(iv.hi | (full & ~iv.lo) << n for iv in miv)
    indep = complex_of_ideal(factor_ideal(code)).facets
    effective = all((f | f >> n) & full == full for f in fc.facets)
    ok = beta_img == fc.facets == indep and effective
    checks.append(DictionaryCheck(
        "beta", ok,
        None if ok else f"facets {sorted(fc.facets)} vs ideal route {sorted(indep)}, "
                        f"effective={effective}"))

    bad = None
    facetset = fc.facets
    miv_pairs = {(iv.lo, iv.hi) for iv in miv}
    cf_pairs = {(pm.sigma, pm.tau) for pm in cf_comp}
    wb = code.word_bits
    for c in code.word_list:
        for d in code.word_list:
            if c & ~d or _member_bits(c, d) & ~wb:
                continue
            m1 = (c, d) in miv_pairs
            m2 = (c, full & ~d) in cf_pairs
            m3 = (d | (full & ~c) << n) in facetset
            if not (m1 == m2 == m3):
                bad = Interval(c, d)
                break
        if bad is not None:
            break
    checks.append(DictionaryCheck(
        "maximality", bad is None,
        None if bad is None else f"interval [{bad.lo},{bad.hi}]"))

    maxw = code.maximal_codewords
    gamma_expected = frozenset(full & ~m for m in maxw)
    mono_supports = [pm.sigma for pm in canonical_form(code).monomials()]
    gamma_actual = minimal_transversals(mono_supports)
    delta_expected = frozenset(PolarFace(0, full & ~m) for m in maxw)
    delta_actual = prime_sets(comp)
    ok = gamma_expected == gamma_actual and delta_expected == delta_actual
    checks.append(DictionaryCheck(
        "gamma_delta", ok,
        None if ok else f"primes {sorted(gamma_actual)} vs {sorted(gamma_expected)}; "
                        f"prime-sets {sorted(delta_actual)} vs {sorted(delta_expected)}"))

    return DictionaryReport(tuple(checks))
