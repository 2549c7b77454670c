"""Neural codes as subset bitmasks: codewords, Boolean intervals, closures.

A code on ``n`` neurons is a nonempty, proper collection of subsets of
{1, .., n}. Subsets are packed into integer masks (bit ``i - 1`` encodes
neuron ``i``), which keeps subset tests O(1) and every value hashable
and immutable. A set of words is in turn one bitset over the 2**n subsets
(``Code.word_bits``), on which the interval and codeword kernels run as
shift/AND steps. All operations here are pure functions of their inputs;
cached attributes are write-once and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from operator import attrgetter
from typing import Iterable, Iterator

MAX_NEURONS = 16


class InvalidCodeError(ValueError):
    """A code violated a structural requirement (empty, full, out of range)."""


def full_mask(n: int) -> int:
    """Mask with the low ``n`` bits set: the whole vertex set."""
    return (1 << n) - 1


def mask_from_neurons(neurons: Iterable[int], n: int) -> int:
    """Pack neuron indices (1-based) into a mask, validating the range."""
    mask = 0
    for i in neurons:
        if not 1 <= i <= n:
            raise ValueError(f"neuron {i} outside 1..{n}")
        mask |= 1 << (i - 1)
    return mask


# The neurons of every byte value as the low and as the high byte of a
# mask (neurons 1-8 and 9-16): two lookups unpack any mask on MAX_NEURONS.
_LOW_BYTE, _HIGH_BYTE = (
    tuple(tuple(8 * high + k + 1 for k in range(8) if b >> k & 1) for b in range(256))
    for high in (0, 1))
# The same table as decimal texts, which the renderers join.
_LOW_NAMES, _HIGH_NAMES = (
    tuple(tuple(map(str, neurons)) for neurons in table) for table in (_LOW_BYTE, _HIGH_BYTE))


def neurons_from_mask(mask: int) -> tuple[int, ...]:
    """Unpack a mask into ascending 1-based neuron indices."""
    if 0 <= mask < 0x10000:
        return _LOW_BYTE[mask & 255] + _HIGH_BYTE[mask >> 8]
    if mask < 0:
        raise ValueError(f"a mask is nonnegative, got {mask}")
    return tuple(i + 1 for i in _set_bits(mask))


def _neuron_names(mask: int) -> tuple[str, ...]:
    """``neurons_from_mask`` as decimal texts."""
    if 0 <= mask < 0x10000:
        return _LOW_NAMES[mask & 255] + _HIGH_NAMES[mask >> 8]
    return tuple(map(str, neurons_from_mask(mask)))


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, descending, including ``mask`` and 0."""
    if mask < 0:
        raise ValueError(f"a mask is nonnegative, got {mask}")
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


@lru_cache(maxsize=None)
def _clear_masks(n: int) -> tuple[int, ...]:
    """Bitsets over the 2**n subsets: entry i marks the words without neuron i + 1.

    The one mask table of the cube steps: an up step along neuron i is
    ``(bits & clear[i]) << 2**i``, a down step ``(bits >> 2**i) & clear[i]``:
    shifted first, only the words that had neuron i land inside the mask.
    """
    size = 1 << n
    out = []
    for i in range(n):
        step = 1 << i
        bits = (1 << step) - 1
        width = 2 * step
        while width < size:
            bits |= bits << width
            width *= 2
        out.append(bits)
    return tuple(out)


def _down_closure(bits: int, n: int) -> int:
    """The subsets of the members of a bitset over the cube: n down steps."""
    for i, clear in enumerate(_clear_masks(n)):
        bits |= (bits >> (1 << i)) & clear
    return bits


def _up_closure(bits: int, n: int) -> int:
    """The supersets of the members of a bitset over the cube: n up steps."""
    for i, clear in enumerate(_clear_masks(n)):
        bits |= (bits & clear) << (1 << i)
    return bits


def _intersection_closure(bits: int, n: int) -> int:
    """The intersections of all nonempty subfamilies of a bitset's members.

    A word w is one iff, for every neuron i, some member above w agrees
    with w on i (those members meet in w): iff w lies in every D_i, the
    down-closure of the members along every neuron but i. One
    divide-and-conquer pass gives all n closures D_i in n * ceil(log2 n)
    down steps: 64 at n = 16, against 272 for n + 1 full down-closures.
    """
    if n == 1:
        return bits  # the words on one neuron form a chain
    return _leave_one_out(bits, 0, n, _clear_masks(n))


def _leave_one_out(bits: int, lo: int, hi: int, clear: tuple[int, ...]) -> int:
    """The AND of D_i over the neurons i in lo..hi - 1 (at least two).

    ``bits`` comes closed along every neuron outside lo..hi - 1. Closing it
    along one half of the range serves every neuron of the other half, so
    each level of the recursion takes one down step per neuron.
    """
    mid = (lo + hi) >> 1
    left = right = bits
    for i in range(mid, hi):
        left |= (left >> (1 << i)) & clear[i]
    for i in range(lo, mid):
        right |= (right >> (1 << i)) & clear[i]
    out = left if mid - lo == 1 else _leave_one_out(left, lo, mid, clear)
    return out & (right if hi - mid == 1 else _leave_one_out(right, mid, hi, clear))


def _member_bits(lo: int, hi: int) -> int:
    """The members of [lo, hi] as a bitset over the cube, one shift per free neuron."""
    bits = 1 << lo
    free = hi ^ lo
    while free:
        low = free & -free
        free ^= low
        bits |= bits << low
    return bits


def _memo(fn):
    """Cache ``fn(code)`` write-once in the code's instance dict.

    The wrapper keeps ``fn``'s name and module, so lookups by module and
    name (such as the benchmark's span tracer) still find it.
    """
    key = "_" + fn.__name__

    @wraps(fn)
    def cached(code):
        value = code.__dict__.get(key)
        if value is None:
            value = code.__dict__[key] = fn(code)
        return value
    return cached


def _set_bits(bits: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative integer, ascending."""
    digits = bin(bits)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _maximal_members(masks: list[int]) -> list[int]:
    """The masks of a family of distinct masks that lie inside no other one.

    Bit-parallel over the family: holders[v] is the bitset of positions j
    whose mask contains vertex v, so the members containing masks[j] are
    the intersection of holders[v] over v in masks[j], and masks[j] is
    maximal iff that intersection is j alone.
    """
    if len(masks) < 2:
        return list(masks)
    holders: dict[int, int] = {}  # keyed by the vertex's bit
    for j, m in enumerate(masks):
        own = 1 << j
        while m:
            low = m & -m
            m ^= low
            holders[low] = holders.get(low, 0) | own
    out = []
    for j, m in enumerate(masks):
        own = 1 << j
        above = -1  # every member contains the empty mask
        while m:
            low = m & -m
            m ^= low
            above &= holders[low]
            if above == own:
                out.append(masks[j])
                break
    return out


def _is_antichain(masks: list[int]) -> bool:
    """True iff no mask of the family of distinct masks lies inside another."""
    return len(_maximal_members(masks)) == len(masks)


@dataclass(frozen=True, order=True)
class Interval:
    """Boolean interval [lo, hi]: every word between lo and hi inclusive."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < 0 or self.lo & ~self.hi:
            raise ValueError(
                f"interval requires masks 0 <= lo <= hi, got [{self.lo}, {self.hi}]")

    def members(self, n: int) -> frozenset[int]:
        """The 2**(|hi| - |lo|) words w with lo <= w <= hi."""
        if self.hi & ~full_mask(n):
            raise ValueError(f"interval endpoint {self.hi} does not fit {n} neurons")
        return frozenset(self.lo | s for s in submasks(self.hi ^ self.lo))


# Sort key in field order: the order of the generated __lt__, with the
# comparisons done in C rather than through per-pair tuples in Python.
_INTERVAL_KEY = attrgetter("lo", "hi")


def _check_neuron_count(n: int) -> None:
    """Refuse a neuron count that is not an int in 1..MAX_NEURONS (a bool is not one)."""
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_NEURONS:
        raise InvalidCodeError(f"neuron count must be in 1..{MAX_NEURONS}, got {n!r}")


@dataclass(frozen=True)
class Code:
    """A neural code: neuron count ``n`` plus a set of codeword masks.

    Codes are always nonempty and proper (never all of 2**[n]); the ideal
    decompositions downstream are undefined otherwise, so the constructor
    rejects such inputs instead of normalizing them.
    """

    n: int
    words: frozenset[int]

    def __post_init__(self) -> None:
        _check_neuron_count(self.n)
        words = frozenset(self.words)
        object.__setattr__(self, "words", words)
        if not words:
            raise InvalidCodeError("a code must contain at least one codeword")
        full = full_mask(self.n)
        for w in words:
            if not isinstance(w, int) or w < 0 or w & ~full:
                raise InvalidCodeError(
                    f"codeword {w!r} does not fit in {self.n} neurons")
        if len(words) == 1 << self.n:
            raise InvalidCodeError("a code must omit at least one subset of [n]")

    @classmethod
    def from_neuron_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "Code":
        """Build a code from collections of 1-based neuron indices."""
        return cls(n, frozenset(mask_from_neurons(s, n) for s in sets))

    def __contains__(self, word: int) -> bool:
        return word in self.words

    def __iter__(self) -> Iterator[int]:
        return iter(self.word_list)

    def __len__(self) -> int:
        return len(self.words)

    @cached_property
    def word_list(self) -> tuple[int, ...]:
        """Codewords in ascending mask order."""
        return tuple(sorted(self.words))

    @cached_property
    def word_bits(self) -> int:
        """The word set as one bitset over the 2**n subsets, read as one
        binary literal (its last digit is bit 0)."""
        digits = bytearray(b"0") * (1 << self.n)
        for w in self.words:
            digits[w] = 49  # ord("1")
        return int(digits[::-1], 2)

    @cached_property
    def complement(self) -> "Code":
        """The code whose words are exactly the non-words of this one, cached
        one way: it holds no reference back, so the two form no cycle."""
        return _code_from_bits(self.n, self.word_bits ^ ((1 << (1 << self.n)) - 1))

    @cached_property
    def maximal_codewords(self) -> frozenset[int]:
        """Codewords maximal under inclusion; always a nonempty antichain.

        The words strictly below some codeword are the down-closure of the
        codewords with one neuron dropped; the down-closure drops each
        neuron in turn (2n down steps over ``word_bits`` in all).
        """
        wb = self.word_bits
        below = 0
        for i, clear in enumerate(_clear_masks(self.n)):
            below |= (wb >> (1 << i)) & clear
        return frozenset(_set_bits(wb & ~_down_closure(below, self.n)))

    def contains_interval(self, iv: Interval) -> bool:
        """True iff every member of ``iv`` is a codeword."""
        full = full_mask(self.n)
        if iv.hi & ~full:
            raise ValueError(
                f"interval endpoint {iv.hi} does not fit {self.n} neurons")
        return _member_bits(iv.lo, iv.hi) & ~self.word_bits == 0

    @cached_property
    def maximal_intervals(self) -> frozenset[Interval]:
        """Intervals of the code that are maximal under interval containment.

        A depth-first walk over free sets F carries the bitset I[F] of lower
        endpoints c (disjoint from F) with [c, c | F] inside the code:
        I[{}] is ``word_bits`` and I[F + i] = I[F] & (I[F] >> 2**i) with
        neuron i cleared. Any strictly larger interval of the code is
        reached by single-step widenings, and widening [c, c | F] by a
        neuron i outside F stays inside the code iff c ^ 2**i is in I[F];
        so c is maximal iff that fails for every such i. Only the bitsets
        on the current path are alive.
        """
        n = self.n
        clear = _clear_masks(n)
        out: list[Interval] = []

        def visit(lows: int, free: int, start: int) -> None:
            blocked = 0
            for i in range(n):
                step = 1 << i
                if free & step:
                    continue
                pairs = lows & (lows >> step) & clear[i]
                if pairs:
                    blocked |= pairs | pairs << step
                    if i >= start:
                        visit(pairs, free | step, i + 1)
            out.extend(Interval(c, c | free) for c in _set_bits(lows & ~blocked))

        visit(self.word_bits, 0, 0)
        return frozenset(out)


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with normalized ``fields``,
    built without the ``__post_init__`` checks that the caller vouches for."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _code_from_bits(n: int, bits: int) -> Code:
    """The code whose words are the set bits of ``bits``, a bitset over the
    2**n subsets, which it keeps as its cached ``word_bits``.

    The one check 0 < bits < 2**(2**n) - 1 stands in for the word-by-word
    checks of ``Code.__post_init__``: every set bit is a word that fits n
    neurons, some bit is set (nonempty) and some is clear (proper).
    """
    _check_neuron_count(n)
    if not 0 < bits < (1 << (1 << n)) - 1:
        raise InvalidCodeError(
            f"a word bitset on {n} neurons must be in 1..2**{1 << n} - 2")
    return _trusted(Code, n=n, words=frozenset(_set_bits(bits)), word_bits=bits)
