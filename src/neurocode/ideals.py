"""Pseudomonomials, neural ideals, canonical forms, prime decompositions.

Ideals are carried extensionally. The neural ideal of a code is determined
by its zero set (the code itself), so membership is decided on the code's
word bitset, and canonical forms and decompositions are read off the
maximal intervals of the complement and of the code; no polynomial
arithmetic is ever performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .codes import (
    _is_antichain,
    _member_bits,
    _memo,
    _neuron_names,
    Code,
    Interval,
    full_mask,
)

CF_MAX_N = 12


class CapExceededError(ValueError):
    """A request was refused because n is above ``CF_MAX_N``, or above 10
    for the polar complex."""


def _check_cap(n: int) -> None:
    """Refuse n above CF_MAX_N; ``canonical_form``, ``factor_complex`` and
    ``polar_complex`` call this first."""
    if n > CF_MAX_N:
        raise CapExceededError(
            f"n={n} exceeds the cap of {CF_MAX_N} on the canonical form and the "
            "factor complex: above it they can hold hundreds of thousands of "
            "elements, and checking that these form an antichain takes tens of seconds")


@dataclass(frozen=True, order=True)
class Pseudomonomial:
    """Product of variables x_i (i in sigma) and factors 1 - x_j (j in tau)."""

    sigma: int
    tau: int

    def __post_init__(self) -> None:
        if self.sigma < 0 or self.tau < 0 or self.sigma & self.tau:
            raise ValueError("sigma and tau must be disjoint sets")

    @property
    def is_monomial(self) -> bool:
        return self.tau == 0

    def __str__(self) -> str:
        factors = [f"x{i}" for i in _neuron_names(self.sigma)]
        factors += [f"(1-x{j})" for j in _neuron_names(self.tau)]
        return "*".join(factors) if factors else "1"


# Sort keys in field order, as codes._INTERVAL_KEY.
_PM_KEY = attrgetter("sigma", "tau")
_PRIME_KEY = attrgetter("pos", "neg")


@dataclass(frozen=True, order=True)
class PrimePseudomonomialIdeal:
    """Prime pseudomonomial ideal <x_i : i in pos> + <1 - x_j : j in neg>."""

    pos: int
    neg: int

    def __post_init__(self) -> None:
        if self.pos < 0 or self.neg < 0 or self.pos & self.neg:
            raise ValueError("pos and neg must be disjoint sets")

    def zero_interval(self, n: int) -> Interval:
        """The Boolean interval on which every generator vanishes."""
        return Interval(self.neg, full_mask(n) & ~self.pos)

    def __str__(self) -> str:
        gens = [f"x{i}" for i in _neuron_names(self.pos)]
        gens += [f"1-x{j}" for j in _neuron_names(self.neg)]
        return "<" + ",".join(gens) + ">"


@dataclass(frozen=True)
class CanonicalForm:
    """The divisibility-minimal pseudomonomials of a neural ideal."""

    n: int
    elements: frozenset[Pseudomonomial]

    def __post_init__(self) -> None:
        elems = frozenset(self.elements)
        object.__setattr__(self, "elements", elems)
        full = full_mask(self.n)
        for p in elems:
            if (p.sigma | p.tau) & ~full:
                raise ValueError(f"{p} does not fit in {self.n} neurons")
        # divisibility is containment of sigma | tau << n
        if not _is_antichain([p.sigma | p.tau << self.n for p in elems]):
            raise ValueError(
                "canonical form must be an antichain under divisibility")

    def monomials(self) -> frozenset[Pseudomonomial]:
        """Elements with empty tau; they generate the Stanley-Reisner ideal
        of the code's simplicial complex."""
        return frozenset(p for p in self.elements if p.tau == 0)

    def __iter__(self):
        return iter(sorted(self.elements, key=_PM_KEY))

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, pm: Pseudomonomial) -> bool:
        return pm in self.elements


def indicator(word: int, n: int) -> Pseudomonomial:
    """Indicator polynomial of a word: 1 at the word, 0 elsewhere."""
    full = full_mask(n)
    if word < 0 or word & ~full:
        raise ValueError(f"word {word} does not fit in {n} neurons")
    return Pseudomonomial(word, full & ~word)


def evaluate(pm: Pseudomonomial, word: int) -> int:
    """Value in {0, 1} of the pseudomonomial at a 0/1 point."""
    return 1 if pm.sigma & ~word == 0 and pm.tau & word == 0 else 0


def divides(p: Pseudomonomial, q: Pseudomonomial) -> bool:
    """Factorwise divisibility. Both arguments share the same ambient n."""
    return p.sigma & ~q.sigma == 0 and p.tau & ~q.tau == 0


def in_neural_ideal(pm: Pseudomonomial, code: Code) -> bool:
    """Membership of a pseudomonomial in the neural ideal of ``code``.

    Two equivalent formulations: the pseudomonomial evaluates to 0 on every
    codeword, or the Boolean interval [sigma, [n] - tau] contains no
    codeword. This uses the interval form; ``tests/oracles.py`` keeps the
    pointwise formulation (``oracle_in_neural_ideal``) as a cross-check.

    The unit pseudomonomial is never a member: its interval is the whole
    lattice, which always meets a nonempty code.
    """
    n = code.n
    full = full_mask(n)
    if (pm.sigma | pm.tau) & ~full:
        raise ValueError(f"{pm} does not fit in {n} neurons")
    return _member_bits(pm.sigma, full ^ pm.tau) & code.word_bits == 0


@_memo
def canonical_form(code: Code) -> CanonicalForm:
    """Canonical form of the neural ideal: the image of the complement's
    maximal intervals under the paper's alpha map (``interval_to_pm``,
    written inline: sigma = lo, tau = [n] - hi).

    A pseudomonomial lies in the ideal iff its interval [sigma, [n] - tau]
    holds no codeword, i.e. lies inside the complement; divisibility
    reverses interval containment, so the minimal elements are the images
    of the maximal intervals. The result is cached on the code
    (write-once, idempotent).
    """
    n = code.n
    _check_cap(n)
    full = full_mask(n)
    return CanonicalForm(n, frozenset(
        Pseudomonomial(iv.lo, full ^ iv.hi) for iv in code.complement.maximal_intervals))


def primary_decomposition(code: Code) -> frozenset[PrimePseudomonomialIdeal]:
    """Irredundant prime decomposition of the neural ideal.

    Each maximal interval [c, d] of the code contributes the prime whose
    zero set is exactly [c, d]: generated by x_i for i outside d and by
    1 - x_j for j in c. Minimality of the primes makes the intersection
    irredundant.
    """
    full = full_mask(code.n)
    return frozenset(
        PrimePseudomonomialIdeal(full & ~iv.hi, iv.lo)
        for iv in code.maximal_intervals)


def interval_to_pm(iv: Interval, n: int) -> Pseudomonomial:
    """The pseudomonomial with sigma = lo and tau = [n] - hi.

    Restricted to maximal intervals of a code, this lands exactly on the
    canonical form of the complement code's neural ideal; the full
    interval maps to the unit.
    """
    full = full_mask(n)
    if iv.hi & ~full:
        raise ValueError(f"interval endpoint {iv.hi} does not fit {n} neurons")
    return Pseudomonomial(iv.lo, full & ~iv.hi)
