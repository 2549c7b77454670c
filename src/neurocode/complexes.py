"""Polarization and the simplicial complexes attached to a neural code.

Vertices live either on [n] (plain universe) or on [n] together with a
barred copy [n-bar] (polar universe). A barred vertex i-bar is encoded as
bit n + i - 1, so every face is a single integer mask and face queries are
mask containment tests against a facet antichain.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable

from .codes import (
    _is_antichain,
    _memo,
    _neuron_names,
    _trusted,
    Code,
    Interval,
    full_mask,
)
from .ideals import (
    CapExceededError,
    Pseudomonomial,
    _check_cap,
    canonical_form,
)


@dataclass(frozen=True, order=True)
class PolarFace:
    """Subset of the doubled vertex set, split into plain and barred parts.

    The parts need not be disjoint: i and i-bar may both occur.
    """

    xpart: int
    ypart: int

    def __post_init__(self) -> None:
        if self.xpart < 0 or self.ypart < 0:
            raise ValueError("face parts must be subset masks")

    @classmethod
    def from_mask(cls, mask: int, n: int) -> "PolarFace":
        return cls(mask & full_mask(n), mask >> n)

    def __str__(self) -> str:
        xs = _neuron_names(self.xpart)
        ys = _neuron_names(self.ypart)
        if not xs and not ys:
            return "{}"
        if (self.xpart | self.ypart) >> 9 == 0:  # neurons 1-9 only
            return "".join(xs) + "".join(f"~{j}" for j in ys)
        return "{" + ",".join(xs) + "}~{" + ",".join(ys) + "}"


# Sort key in field order, as codes._INTERVAL_KEY.
_FACE_KEY = attrgetter("xpart", "ypart")


@dataclass(frozen=True)
class Universe:
    """Vertex universe of a complex: [n] alone, or [n] with its barred copy."""

    n: int
    polar: bool

    @property
    def size(self) -> int:
        return 2 * self.n if self.polar else self.n

    @property
    def full(self) -> int:
        return (1 << self.size) - 1


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex stored by its facets over a declared universe.

    A mask is a face exactly when some facet contains it. The public
    constructor checks that the facets fit the universe and form an
    antichain; this module's kernels build theirs through ``codes._trusted``.
    """

    universe: Universe
    facets: frozenset[int]

    def __post_init__(self) -> None:
        facets = frozenset(self.facets)
        object.__setattr__(self, "facets", facets)
        full = self.universe.full
        for f in facets:
            if f < 0 or f & ~full:
                raise ValueError(f"facet {f} outside the universe")
        if not _is_antichain(list(facets)):
            raise ValueError("facets must form an antichain")

    def polar_facets(self) -> frozenset[PolarFace]:
        if not self.universe.polar:
            raise ValueError("plain complexes have no barred rendering")
        n = self.universe.n
        return frozenset(PolarFace.from_mask(f, n) for f in self.facets)


@dataclass(frozen=True)
class SquarefreeMonomialIdeal:
    """Squarefree monomial ideal, held as its minimal generator supports.

    The public constructor checks that they are nonempty, fit the universe
    and form an antichain; this module's kernels build theirs through
    ``codes._trusted``.
    """

    universe: Universe
    generators: frozenset[int]

    def __post_init__(self) -> None:
        gens = frozenset(self.generators)
        object.__setattr__(self, "generators", gens)
        full = self.universe.full
        for g in gens:
            if g <= 0 or g & ~full:
                raise ValueError(f"generator support {g} invalid for the universe")
        if not _is_antichain(list(gens)):
            raise ValueError("generators must form an antichain")


def minimal_transversals(edges: Iterable[int]) -> frozenset[int]:
    """All minimal hitting sets of a family of vertex masks.

    Processes one edge at a time: transversals already hitting it survive,
    the rest are extended by one vertex of the edge, and the result is
    pruned back to an antichain (Berge multiplication). An empty edge
    admits no transversal at all.
    """
    trans: list[int] = [0]
    edges = sorted(set(edges))
    if edges and edges[0] < 0:
        raise ValueError(f"an edge is a nonnegative mask, got {edges[0]}")
    for e in edges:
        if e == 0:
            return frozenset()
        # transversals hitting the edge stay minimal; only extensions of the
        # missers need pruning (against everything kept, ascending by size)
        kept: list[int] = []
        extended = set()
        for t in trans:
            if t & e:
                kept.append(t)
                continue
            v = e
            while v:
                bit = v & -v
                v ^= bit
                extended.add(t | bit)
        for a in sorted(extended, key=int.bit_count):
            if not any(k & ~a == 0 for k in kept):
                kept.append(a)
        trans = kept
    return frozenset(trans)


def polarize(pm: Pseudomonomial) -> PolarFace:
    """Replace each factor 1 - x_j by the fresh vertex j-bar."""
    return PolarFace(pm.sigma, pm.tau)


def downward_closure(code: Code) -> SimplicialComplex:
    """Smallest simplicial complex containing the code.

    Its facets are the maximal codewords.
    """
    # maximal codewords on n neurons: an antichain
    return _trusted(SimplicialComplex, universe=Universe(code.n, polar=False),
                    facets=code.maximal_codewords)


@_memo
def polar_ideal(code: Code) -> SquarefreeMonomialIdeal:
    """Polarization of the neural ideal: the polarized canonical form, an
    antichain already (divisibility is containment of sigma | tau << n)."""
    n = code.n
    # the canonical form on 2n vertices; the unit is not in it, as the code is nonempty
    return _trusted(SquarefreeMonomialIdeal, universe=Universe(n, polar=True),
                    generators=frozenset(pm.sigma | pm.tau << n
                                         for pm in canonical_form(code).elements))


def _check_dualization(n: int, why: str) -> None:
    """Refuse n above ``CF_MAX_N``, then above 10, where the Berge
    dualization named in ``why`` can run for minutes."""
    _check_cap(n)
    if n > 10:
        raise CapExceededError(
            f"n={n} exceeds the limit of 10 on the {why}, which can run for minutes")


@_memo
def factor_ideal(code: Code) -> SquarefreeMonomialIdeal:
    """Intersection of the polarized primes of the neural ideal, read off
    as the Stanley-Reisner ideal of the factor complex: the facet of a
    maximal interval [lo, hi] has the complement ([n] - hi) + bar(lo),
    the variable set of its prime. Refused above n = 10 up front, as
    ``polar_complex``.
    """
    _check_dualization(code.n, "factor ideal: its generators come from a Berge "
                               "dualization of the neural ideal's primes")
    return ideal_of_complex(factor_complex(code))


def complex_of_ideal(ideal: SquarefreeMonomialIdeal) -> SimplicialComplex:
    """The complex whose non-faces are the supports containing a generator.

    Facets are complements of minimal transversals of the generator
    hypergraph; the zero ideal gives the full simplex.
    """
    full = ideal.universe.full
    # complements in the universe of minimal transversals: an antichain
    return _trusted(SimplicialComplex, universe=ideal.universe, facets=frozenset(
        full & ~t for t in minimal_transversals(ideal.generators)))


def ideal_of_complex(cx: SimplicialComplex) -> SquarefreeMonomialIdeal:
    """Stanley-Reisner ideal of a complex: its minimal non-faces.

    Round-trips with ``complex_of_ideal`` on both sides. The void complex
    (not even the empty face) is refused: its ideal is the unit ideal.
    """
    if not cx.facets:
        raise ValueError("the void complex has the unit ideal as its Stanley-Reisner "
                         "ideal, which a SquarefreeMonomialIdeal cannot hold")
    full = cx.universe.full
    # minimal transversals of at least one edge in the universe: an antichain, none empty
    return _trusted(SquarefreeMonomialIdeal, universe=cx.universe,
                    generators=minimal_transversals(full & ~f for f in cx.facets))


@_memo
def factor_complex(code: Code) -> SimplicialComplex:
    """The complex on [n] + [n-bar] whose Stanley-Reisner ideal is the
    factor ideal.

    Facets come straight from maximal intervals: [c, d] maps to d together
    with the barred copy of [n] - c. Every facet is effective. Cached on
    the code; refused above ``CF_MAX_N`` before the intervals are built.
    """
    n = code.n
    _check_cap(n)
    full = full_mask(n)
    # maximal intervals on n neurons, none inside another: an antichain on 2n vertices
    return _trusted(SimplicialComplex, universe=Universe(n, polar=True), facets=frozenset(
        iv.hi | (full & ~iv.lo) << n for iv in code.maximal_intervals))


@_memo
def polar_complex(code: Code) -> SimplicialComplex:
    """The complex whose Stanley-Reisner ideal is the polar ideal.

    Contains the factor complex; its effective facets are exactly the
    factor complex's facets. Its facets come from a Berge dualization,
    which can run for minutes above n = 10, so that is refused up front.
    """
    _check_dualization(code.n, "polar complex: its facets come from a Berge "
                               "dualization of the polar ideal")
    return complex_of_ideal(polar_ideal(code))


def is_effective(face: PolarFace, n: int) -> bool:
    """True when the face contains i or i-bar for every i in [n]."""
    full = full_mask(n)
    if (face.xpart | face.ypart) & ~full:
        raise ValueError(f"face {face} does not fit in {n} neurons")
    return (face.xpart | face.ypart) == full


def face_to_interval(face: PolarFace, n: int) -> Interval:
    """Inverse of the interval-to-face map, defined on effective faces.

    Returns [c, d] with d the plain part and c the complement of the
    barred part; effectiveness guarantees c <= d.
    """
    if not is_effective(face, n):
        raise ValueError(f"defective face {face} has no interval preimage")
    return Interval(full_mask(n) & ~face.ypart, face.xpart)


def prime_sets(code: Code) -> frozenset[PolarFace]:
    """The inclusion-minimal barred sets B-bar with [n] + B-bar not a face
    of the code's factor complex.

    [n] + B-bar is a face iff every word containing [n] - B is a codeword,
    so the minimal B are the complements of the complement's maximal
    codewords (the delta correspondence): the barred image of
    ``sr_minimal_primes(code.complement)``. Results carry an empty plain
    part; verify's reference reads the definition off the facets instead.
    """
    return frozenset(PolarFace(0, b) for b in sr_minimal_primes(code.complement))


def sr_minimal_primes(code: Code) -> frozenset[int]:
    """Variable sets of the minimal primes of the Stanley-Reisner ideal of
    the code's complex: one per facet, the variables outside it.

    Facets of the code's complex are the maximal codewords, so these are
    the complements of maximal codewords.
    """
    full = full_mask(code.n)
    return frozenset(full & ~m for m in code.maximal_codewords)
