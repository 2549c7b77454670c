"""Independent brute-force oracles and shared corpora for the test suite.

Every oracle here recomputes a result straight from definitions, by full
enumeration, so it never shares a code path with the implementation it
checks.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from neurocode import (
    Code,
    Interval,
    Pseudomonomial,
    canonical_form,
    code_from_id,
    divides,
    evaluate,
    factor_complex,
    factor_ideal,
    full_mask,
    in_neural_ideal,
    polar_complex,
    polar_ideal,
    prime_sets,
    submasks,
)
from neurocode.classify import (
    FacetWitness,
    IntersectionWitness,
    PseudomonomialWitness,
    is_intersection_complete_bruteforce,
    is_intersection_complete_cf,
    is_intersection_complete_facets,
    is_mic_algebraic,
    is_mic_bruteforce,
    is_mic_facets,
)
from neurocode.complexes import sr_minimal_primes

# the worked example used throughout: C = {empty, 2, 3, 12, 13} on n = 3
EXAMPLE_WORDS = frozenset({0b000, 0b010, 0b100, 0b011, 0b101})
EXAMPLE_COMPLEMENT_WORDS = frozenset({0b001, 0b110, 0b111})


def example_code() -> Code:
    return Code(3, EXAMPLE_WORDS)


def example_complement() -> Code:
    return Code(3, EXAMPLE_COMPLEMENT_WORDS)


def all_codes(n: int):
    """Every valid code on n neurons, ascending id order."""
    for code_id in range(1, 2 ** (1 << n) - 1):
        yield code_from_id(n, code_id)


def sample_codes(n: int, count: int, seed: int):
    """Fixed-seed sample of distinct valid codes on n neurons."""
    rng = random.Random(seed)
    ids = rng.sample(range(1, 2 ** (1 << n) - 1), count)
    for code_id in ids:
        yield code_from_id(n, code_id)


def random_codes(n: int, count: int, seed: int, densities=(0.1, 0.5, 0.9)):
    """Fixed-seed random valid codes on n neurons; each word is kept with
    probability cycling through ``densities`` from one code to the next.

    Unlike ``sample_codes`` this works for any n, and it reaches sparse and
    dense codes, not only the half-density ones a uniform id draws.
    """
    rng = random.Random(seed)
    made = 0
    while made < count:
        density = densities[made % len(densities)]
        words = frozenset(w for w in range(1 << n) if rng.random() < density)
        if 0 < len(words) < 1 << n:
            yield Code(n, words)
            made += 1


def disjoint_pairs(n: int):
    """All 3**n disjoint (sigma, tau) pairs."""
    for support in range(1 << n):
        for sigma in submasks(support):
            yield sigma, support ^ sigma


def interval_pairs(n: int):
    """All 3**n pairs (c, d) with c <= d <= [n]."""
    for d in range(1 << n):
        for c in submasks(d):
            yield c, d


@lru_cache(maxsize=None)
def all_pseudomonomials(n: int) -> tuple[Pseudomonomial, ...]:
    return tuple(Pseudomonomial(s, t) for s, t in disjoint_pairs(n))


def oracle_maximal_intervals(code: Code) -> frozenset[Interval]:
    """Full 3**n scan of interval endpoints, pairwise maximality prune."""
    member = code.words.__contains__
    ivs = [(c, d) for c, d in interval_pairs(code.n)
           if all(member(c | s) for s in submasks(d ^ c))]
    return frozenset(
        Interval(c, d) for c, d in ivs
        if not any(c2 & ~c == 0 and d & ~d2 == 0 and (c2, d2) != (c, d)
                   for c2, d2 in ivs))


def oracle_in_neural_ideal(pm: Pseudomonomial, code: Code) -> bool:
    """Pointwise membership: the pseudomonomial vanishes on every codeword."""
    return all(evaluate(pm, w) == 0 for w in code.word_list)


def oracle_canonical_form(code: Code) -> frozenset[Pseudomonomial]:
    """Evaluation-based membership, pairwise minimality prune."""
    members = [Pseudomonomial(s, t) for s, t in disjoint_pairs(code.n)
               if all(evaluate(Pseudomonomial(s, t), w) == 0 for w in code.words)]
    return frozenset(p for p in members
                     if not any(q != p and divides(q, p) for q in members))


def oracle_maximal_codewords(code: Code) -> frozenset[int]:
    """Pairwise inclusion test over all codeword pairs."""
    return frozenset(w for w in code.words
                     if not any(w != v and w & ~v == 0 for v in code.words))


def oracle_complex_facets(generators, size: int) -> frozenset[int]:
    """Subset scan over a universe of at most 12 vertices."""
    assert size <= 12
    gens = list(generators)
    faces = [m for m in range(1 << size)
             if not any(g & ~m == 0 for g in gens)]
    return frozenset(f for f in faces
                     if not any(f != g and f & ~g == 0 for g in faces))


def oracle_mic(code: Code) -> bool:
    """Intersections of every nonempty subset of maximal codewords."""
    maxw = sorted(code.maximal_codewords)
    for k in range(1, len(maxw) + 1):
        for sub in combinations(maxw, k):
            x = sub[0]
            for m in sub[1:]:
                x &= m
            if x not in code.words:
                return False
    return True


def oracle_ic(code: Code) -> bool:
    """Closure under intersections of codeword subsets of size up to 4.

    Pairwise closure already forces closure under every subset, so the
    small-subset scan is an independent confirmation, not a restriction.
    """
    words = sorted(code.words)
    for k in range(2, min(len(words), 4) + 1):
        for sub in combinations(words, k):
            x = sub[0]
            for m in sub[1:]:
                x &= m
            if x not in code.words:
                return False
    return True


def replay_witness(code: Code, report) -> None:
    """Re-derive the violation a false verdict's witness points at."""
    w = report.witness
    assert w is not None, "false verdicts must carry a witness"
    n = code.n
    if isinstance(w, IntersectionWitness):
        x = w.words[0]
        for m in w.words[1:]:
            x &= m
        assert x == w.intersection
        assert w.intersection not in code.words
        if report.property == "MIC":
            assert set(w.words) <= code.maximal_codewords
        else:
            assert set(w.words) <= code.words
    elif isinstance(w, PseudomonomialWitness):
        pm = w.pm
        assert pm in canonical_form(code).elements
        if report.property == "IC":
            assert pm.tau.bit_count() >= 2
        else:
            assert pm.tau != 0
            primes = sr_minimal_primes(code)
            for i in range(1, n + 1):
                bit = 1 << (i - 1)
                two = bool(pm.tau & bit)
                one = all(b & pm.sigma for b in primes if b & bit)
                assert not (one and two), f"index {i} satisfies both clauses"
    elif isinstance(w, FacetWitness):
        f = w.facet
        comp = code.complement
        assert f.mask(n) in factor_complex(comp).facets
        if report.property == "IC":
            assert f.xpart.bit_count() < n - 1
        else:
            assert f.xpart != full_mask(n)
            psets = [pf.ypart for pf in prime_sets(comp)]
            for i in range(1, n + 1):
                bit = 1 << (i - 1)
                two = not f.xpart & bit
                one = all(b & ~f.ypart for b in psets if b & bit)
                assert not (one and two), f"index {i} satisfies both clauses"
    else:
        raise AssertionError(f"unknown witness type {type(w)}")


def validate_certificate(code: Code, report) -> None:
    """Independently re-check every clause a certificate claims."""
    cert = report.certificate
    assert cert is not None
    primes = tuple(sorted(sr_minimal_primes(code)))
    assert cert.prime_vars == primes
    nonmono = {pm for pm in canonical_form(code).elements if pm.tau}
    assert {e.pm for e in cert.entries} == nonmono
    for entry in cert.entries:
        bit = 1 << (entry.index - 1)
        assert entry.pm.tau & bit, "chosen index must divide as 1 - x_i"
        for b in primes:
            if b & bit:
                assert b & entry.pm.sigma, "prime with x_i must contain the element"
        expected = tuple(v for v, b in enumerate(primes) if b & entry.pm.sigma == 0)
        assert entry.contained_prime_sets == expected


def check_method_agreement(code: Code) -> tuple[bool, bool]:
    """All three deciders per property agree; witnesses replay; certificates
    hold; intersection-complete implies max-intersection-complete."""
    ic = (is_intersection_complete_bruteforce(code),
          is_intersection_complete_cf(code),
          is_intersection_complete_facets(code))
    assert ic[0].verdict == ic[1].verdict == ic[2].verdict, f"IC disagreement on {code}"
    mic = (is_mic_bruteforce(code), is_mic_algebraic(code), is_mic_facets(code))
    assert mic[0].verdict == mic[1].verdict == mic[2].verdict, f"MIC disagreement on {code}"
    if ic[0].verdict:
        assert mic[0].verdict, "intersection-complete must imply max-intersection-complete"
    if all(pm.tau == 0 for pm in canonical_form(code).elements):
        assert mic[0].verdict, "monomial-only canonical form must be max-intersection-complete"
    for report in (*ic, *mic):
        if not report.verdict:
            replay_witness(code, report)
    if mic[1].verdict:
        validate_certificate(code, mic[1])
    return ic[0].verdict, mic[0].verdict


def all_prime_sets(code: Code) -> set[int]:
    """Every barred set B with [n] + B-bar not a face of the factor complex,
    minimal or not, straight from the definition."""
    full = full_mask(code.n)
    fc = factor_complex(code)
    return {b for b in range(1 << code.n) if not fc.is_face(full | b << code.n)}


def check_correspondences(code: Code) -> None:
    """Membership transfer and face correspondences, on one code."""
    n = code.n
    full = full_mask(n)
    fc = factor_complex(code)
    pc = polar_complex(code)
    fi = factor_ideal(code)
    pi = polar_ideal(code)
    fi_gens = tuple(fi.generators)
    pi_gens = tuple(pi.generators)
    fc_nofacets = tuple(~f for f in fc.facets)
    pc_nofacets = tuple(~f for f in pc.facets)

    # membership transfers to both polarized ideals
    for pm in all_pseudomonomials(n):
        member = in_neural_ideal(pm, code)
        nsupp = ~(pm.sigma | pm.tau << n)
        assert member == any(g & nsupp == 0 for g in fi_gens)
        assert member == any(g & nsupp == 0 for g in pi_gens)

    # the polar ideal sits inside the factor ideal; complexes the other way
    assert all(fi.contains_monomial(g) for g in pi.generators)
    assert all(pc.is_face(f) for f in fc.facets)

    # codewords are exactly the faces w + bar([n] - w), in both complexes
    for w in range(1 << n):
        m = w | (full & ~w) << n
        in_code = w in code.words
        assert in_code == fc.is_face(m)
        assert in_code == pc.is_face(m)

    # intervals inside the code are exactly the faces d + bar([n] - c)
    member = code.words.__contains__
    for c, d in interval_pairs(n):
        inside = all(member(c | s) for s in submasks(d ^ c))
        m = d | (full & ~c) << n
        assert inside == any(m & nf == 0 for nf in fc_nofacets)
        assert inside == any(m & nf == 0 for nf in pc_nofacets)

    # every factor facet is effective, and the factor complex is exactly
    # the effective part of the polar complex
    assert all((f | f >> n) & full == full for f in fc.facets)
    effective = frozenset(f for f in pc.facets if (f | f >> n) & full == full)
    assert effective == fc.facets

    # barred prime-sets of the complement's factor complex match monomial
    # primes containing the code complex's Stanley-Reisner ideal
    comp = code.complement
    mono = [pm.sigma for pm in canonical_form(code).monomials()]
    psets = all_prime_sets(comp)
    for b in range(1 << n):
        contains_ideal = all(b & s for s in mono)
        assert (b in psets) == contains_ideal
