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
    PolarFace,
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
    primary_decomposition,
    prime_sets,
    submasks,
)
from neurocode.classify import (
    _IC_METHODS,
    _MIC_METHODS,
    FacetWitness,
    IntersectionWitness,
    PseudomonomialWitness,
)
from neurocode.codes import _maximal_members
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


def near_closed_codes(n: int, count: int, seed: int):
    """Fixed-seed codes at most one word short of intersection-closed: the
    intersection closure of a random family of 2 to 8 words, less one of
    its words. On these the first failing pair can sit anywhere."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        family = [rng.getrandbits(n) for _ in range(rng.randint(2, 8))]
        words = sorted(oracle_intersections(family))
        words.remove(rng.choice(words))
        if 0 < len(words) < 1 << n:
            yield Code(n, frozenset(words))
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


def oracle_complement(code: Code) -> Code:
    """The code of the non-words, built word by word over all 2**n words."""
    return Code(code.n, frozenset(
        w for w in range(1 << code.n) if w not in code.words))


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


def oracle_intersections(words) -> frozenset[int]:
    """Intersections of every nonempty subfamily of a word family."""
    words = sorted(set(words))
    out = set()
    for k in range(1, len(words) + 1):
        for sub in combinations(words, k):
            x = sub[0]
            for m in sub[1:]:
                x &= m
            out.add(x)
    return frozenset(out)


def oracle_mic(code: Code) -> bool:
    """Intersections of every nonempty subset of maximal codewords."""
    return oracle_intersections(code.maximal_codewords) <= code.words


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


def oracle_ic_pairwise(code: Code) -> IntersectionWitness | None:
    """The first pair of codewords, in ``word_list`` order, whose
    intersection is missing; pairwise closure generates all intersections."""
    words = code.word_list
    member = code.words.__contains__
    for i, w1 in enumerate(words):
        for w2 in words[i + 1:]:
            m = w1 & w2
            if not member(m):
                return IntersectionWitness((w1, w2), m)
    return None


def oracle_mic_frontier(code: Code) -> IntersectionWitness | None:
    """Close the maximal codewords under pairwise intersection, one
    frontier of new values at a time. The witness lists all maximal
    codewords containing the least missing value."""
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
    if not missing:
        return None
    v = missing[0]
    return IntersectionWitness(tuple(m for m in maxw if v & ~m == 0), v)


def mic_facets_single_set(code: Code) -> FacetWitness | None:
    """The facet MIC criterion in its single-set form: the first facet F of
    the complement's factor complex, in mask order and not containing [n],
    such that every neuron outside the union of the minimal prime-sets
    inside F's barred part lies in F's plain part."""
    n = code.n
    full = full_mask(n)
    comp = code.complement
    psets = [pf.ypart for pf in prime_sets(comp)]
    for fmask in sorted(factor_complex(comp).facets):
        x, y = fmask & full, fmask >> n
        union = 0
        for b in psets:
            if b & ~y == 0:
                union |= b
        if x != full and full & ~union & ~x == 0:
            return FacetWitness(PolarFace.from_mask(fmask, n))
    return None


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
        assert f in factor_complex(comp).polar_facets()
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
    hold; intersection-complete implies max-intersection-complete; the facet
    MIC criterion agrees with its single-set form facet by facet (the same
    first failing facet, or none)."""
    ic = {name: decide(code) for name, decide in _IC_METHODS.items()}
    assert len({r.verdict for r in ic.values()}) == 1, f"IC disagreement on {code}"
    mic = {name: decide(code) for name, decide in _MIC_METHODS.items()}
    assert len({r.verdict for r in mic.values()}) == 1, f"MIC disagreement on {code}"
    assert mic["facets"].witness == mic_facets_single_set(code), \
        f"facet criterion and its single-set form disagree on {code}"
    if ic["brute"].verdict:
        assert mic["brute"].verdict, "intersection-complete must imply max-intersection-complete"
    if all(pm.tau == 0 for pm in canonical_form(code).elements):
        assert mic["brute"].verdict, "monomial-only canonical form must be max-intersection-complete"
    for report in (*ic.values(), *mic.values()):
        if not report.verdict:
            replay_witness(code, report)
    if mic["algebraic"].verdict:
        validate_certificate(code, mic["algebraic"])
    return ic["brute"].verdict, mic["brute"].verdict


def first_unmaximal_interval(code: Code) -> Interval | None:
    """verify's maximality leg, one ``Interval`` per widening: the first
    reported interval, in sorted order, that is not inside the code or
    that has an interval one neuron wider inside it, each tested with
    ``Code.contains_interval``."""
    def one_wider(iv: Interval):  # free one more neuron: drop it from lo or add it to hi
        for i in range(code.n):
            if not (iv.hi ^ iv.lo) >> i & 1:
                yield Interval(iv.lo & ~(1 << i), iv.hi | 1 << i)

    return next((iv for iv in sorted(code.maximal_intervals)
                 if not code.contains_interval(iv)
                 or any(map(code.contains_interval, one_wider(iv)))), None)


def minimal_members(masks: list[int]) -> list[int]:
    """The masks of a family of distinct masks that contain no other one:
    the complements of the maximal members of the complements."""
    union = 0
    for m in masks:
        union |= m
    return [union ^ m for m in _maximal_members([union ^ m for m in masks])]


def is_face(cx, mask: int) -> bool:
    """True when some facet of the complex contains the mask."""
    return any(mask & ~f == 0 for f in cx.facets)


def prime_contains(prime, pm: Pseudomonomial) -> bool:
    """Membership in a prime pseudomonomial ideal, decided on zero sets.

    A pseudomonomial lies in the prime iff it vanishes on the prime's zero
    interval, which happens exactly when sigma meets pos or tau meets neg.
    """
    return bool(pm.sigma & prime.pos or pm.tau & prime.neg)


def all_prime_sets(code: Code) -> set[int]:
    """Every barred set B with [n] + B-bar not a face of the factor complex,
    minimal or not, straight from the definition."""
    full = full_mask(code.n)
    fc = factor_complex(code)
    return {b for b in range(1 << code.n) if not is_face(fc, full | b << code.n)}


# The first byte of the cube's subsets without vertex 0, 1 and 2.
_LOW_WITHOUT = (0b01010101, 0b00110011, 0b00001111)


@lru_cache(maxsize=None)
def _without_vertex(size: int) -> tuple[int, ...]:
    """Bitsets over the 2**size subsets: entry v marks those without vertex v.

    Each is one repeated byte pattern: a vertex v < 3 repeats one byte, and
    v >= 3 repeats 2**(v - 3) 0xff bytes followed by as many zero bytes.
    """
    nbytes = max(1, (1 << size) >> 3)
    out = []
    for v in range(size):
        half = 1 << v >> 3
        block = bytes([_LOW_WITHOUT[v]]) if v < 3 else b"\xff" * half + bytes(half)
        data = block * (nbytes // len(block))
        out.append(int.from_bytes(data, "little") & (1 << (1 << size)) - 1)
    return tuple(out)


def _bitset(masks, size: int) -> int:
    """Bitset over the 2**size subsets: the masks, marked in a bytearray."""
    marks = bytearray(max(1, (1 << size) >> 3))
    for m in masks:
        marks[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(marks, "little")


def up_closure(masks, size: int) -> int:
    """Bitset over the 2**size subsets: those containing some mask."""
    bits = _bitset(masks, size)
    for v, without in enumerate(_without_vertex(size)):
        bits |= (bits & without) << (1 << v)
    return bits


def down_closure(masks, size: int) -> int:
    """Bitset over the 2**size subsets: those inside some mask."""
    bits = _bitset(masks, size)
    for v, without in enumerate(_without_vertex(size)):
        bits |= (bits & ~without) >> (1 << v)
    return bits


def _set_positions(bits: int) -> frozenset[int]:
    """The positions of the set bits of a bitset."""
    return frozenset(i for i, c in enumerate(bin(bits)[:1:-1]) if c == "1")


def cube_minimal_transversals(edges, size: int) -> frozenset[int]:
    """The minimal transversals of a hypergraph on ``size`` vertices, by two
    sweeps over the 2**size subsets: the non-transversals are the
    down-closure of the edge complements, and a transversal is minimal iff
    no transversal lies one vertex below it. No edge gives {0}; an empty
    edge gives no transversal."""
    full = (1 << size) - 1
    trans = ((1 << (1 << size)) - 1) ^ down_closure([full ^ e for e in edges], size)
    above = 0  # the subsets one vertex above a transversal
    for v, without in enumerate(_without_vertex(size)):
        above |= (trans & without) << (1 << v)
    return _set_positions(trans & ~above)


def factor_ideal_by_primes(code: Code) -> frozenset[int]:
    """The factor ideal's generators by its definition: the intersection of
    the polarized primes of the neural ideal is generated by the minimal
    transversals of their variable sets (dualized on the cube)."""
    n = code.n
    return cube_minimal_transversals(
        [p.pos | p.neg << n for p in primary_decomposition(code)], 2 * n)


def intersection_closure(masks, size: int) -> int:
    """Bitset over the 2**size subsets: the intersections of the nonempty
    subfamilies of ``masks``, as size + 1 down-closures. A mask is one iff
    it lies inside some member and, for each vertex v outside it, inside
    some member without v (those members meet in it)."""
    masks = set(masks)
    out = down_closure(masks, size)
    for v, without in enumerate(_without_vertex(size)):
        out &= ~without | down_closure((m for m in masks if not m >> v & 1), size)
    return out


def pair_canonical_form(code: Code) -> frozenset[Pseudomonomial]:
    """The canonical form by a zeta transform over all (sigma, tau) pairs,
    on one bitset of 2**(2n) bits indexed by sigma | tau << n (n <= 10).

    A pair is in the ideal iff [sigma, [n] - tau] holds no codeword. The
    full pairs (w, [n] - w) of the non-words are marked first; then, neuron
    by neuron, a pair free in i is marked iff both pairs that fix i are.
    A member is minimal iff no one-factor divisor is a member.
    """
    n = code.n
    assert n <= 10
    full = full_mask(n)
    without = _without_vertex(2 * n)
    members = _bitset((w | (full ^ w) << n for w in range(1 << n) if w not in code.words), 2 * n)
    for i in range(n):
        members |= members >> (1 << i) & members >> (1 << i + n) & without[i] & without[i + n]
    divisible = 0
    for i in range(n):
        free = members & without[i] & without[i + n]
        divisible |= free << (1 << i) | free << (1 << i + n)
    return frozenset(Pseudomonomial(p & full, p >> n) for p in _set_positions(members & ~divisible))


def check_correspondences(code: Code) -> None:
    """Membership transfer and face correspondences, on one code.

    Ideal membership (some generator divides the support) and face tests
    (some facet contains the mask) are bit tests on the up-closure of the
    generators and the down-closure of the facets over the 2**(2n) masks.
    """
    n = code.n
    full = full_mask(n)
    fc = factor_complex(code)
    pc = polar_complex(code)
    fi = factor_ideal(code)
    pi = polar_ideal(code)
    fi_members = up_closure(fi.generators, 2 * n)
    pi_members = up_closure(pi.generators, 2 * n)
    fc_faces = down_closure(fc.facets, 2 * n)
    pc_faces = down_closure(pc.facets, 2 * n)

    # membership transfers to both polarized ideals
    for pm in all_pseudomonomials(n):
        member = in_neural_ideal(pm, code)
        support = pm.sigma | pm.tau << n
        assert member == bool(fi_members >> support & 1)
        assert member == bool(pi_members >> support & 1)

    # the polar ideal sits inside the factor ideal; complexes the other way
    assert all(fi_members >> g & 1 for g in pi.generators)
    assert all(is_face(pc, f) for f in fc.facets)

    # codewords are exactly the faces w + bar([n] - w), in both complexes
    for w in range(1 << n):
        m = w | (full & ~w) << n
        in_code = w in code.words
        assert in_code == bool(fc_faces >> m & 1)
        assert in_code == bool(pc_faces >> m & 1)

    # intervals inside the code are exactly the faces d + bar([n] - c)
    member = code.words.__contains__
    for c, d in interval_pairs(n):
        inside = all(member(c | s) for s in submasks(d ^ c))
        m = d | (full & ~c) << n
        assert inside == bool(fc_faces >> m & 1)
        assert inside == bool(pc_faces >> m & 1)

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
