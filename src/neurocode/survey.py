"""Exhaustive survey over every valid code on a few neurons.

Each code gets one row recording interval and canonical-form statistics
plus the two closure verdicts; every verdict is computed by all three
criteria, over two computations (see ``classify``), and any disagreement
aborts the survey. Rows stream in canonical id order, so output is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .classify import _IC_METHODS, _MIC_METHODS
from .codes import Code, InvalidCodeError, _code_from_bits
from .ideals import canonical_form

SURVEY_MAX_N = 4


class SurveyTooLargeError(ValueError):
    """Survey refused: the code count is astronomically large."""


class MethodDisagreement(AssertionError):
    """Two deciders for the same property returned different verdicts."""


@dataclass(frozen=True)
class SurveyRow:
    code_id: int
    max_codewords: int
    max_intervals: int
    cf_size: int
    cf_nonmonomials: int
    ic: bool
    mic: bool


@dataclass
class SurveySummary:
    codes: int
    ic_count: int
    mic_count: int
    # max nonmonomial canonical-form size, keyed by maximal-codeword count
    max_cf_nonmonomials: dict[int, int]


def code_from_id(n: int, code_id: int) -> Code:
    """Decode a canonical id: the id is the code's word bitset, so bit w
    marks word w as present.

    Ids run from 1 to 2**(2**n) - 2 (the empty and full word sets are not
    codes). An id that is not an int (a bool is not one) is refused here;
    ``_code_from_bits`` then checks n, then refuses an id outside that
    range, and does not check the words again one by one.
    """
    if isinstance(code_id, bool) or not isinstance(code_id, int):
        raise InvalidCodeError(f"a code id must be an int, got {code_id!r}")
    return _code_from_bits(n, code_id)


def survey(n: int) -> Iterator[SurveyRow]:
    """One row per valid code on n neurons, in ascending id order.

    Validates n eagerly; ids run from 1 to 2**(2**n) - 2 (the empty and
    full word sets are not codes).
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"neuron count must be a positive integer, got {n!r}")
    if n > SURVEY_MAX_N:
        digits = 2.0 ** min(n, 1023) * 0.30103  # 2**n * log10(2), never a 2**n-bit int
        if digits < 15:
            count = 2 ** (1 << n) - 2
            sizing = f"{count} codes, about {count * 5e-4 / 86400:.1f} days at 0.5 ms each"
        elif n < 1024:
            sizing = f"about 10**{digits:.0f} codes"
        else:  # 10**(10**(n * log10(2) + log10(log10(2)))), rounded in integers
            sizing = f"about 10**(10**{(n * 30103 - 2140) // 100000}) codes"
        raise SurveyTooLargeError(
            f"survey over n={n} means {sizing}; the cap is n={SURVEY_MAX_N} "
            f"(65534 codes)")
    return _survey_rows(n)


def _agreed_verdict(methods: dict, code: Code, prop: str, code_id: int) -> bool:
    """The verdict every decider of ``methods`` returns on ``code``."""
    verdicts = {decide(code).verdict for decide in methods.values()}
    if len(verdicts) > 1:
        raise MethodDisagreement(
            f"{prop} methods disagree on id {code_id} (n={code.n})")
    return verdicts.pop()


def _survey_rows(n: int) -> Iterator[SurveyRow]:
    for code_id in range(1, 2 ** (1 << n) - 1):
        code = code_from_id(n, code_id)
        ic = _agreed_verdict(_IC_METHODS, code, "intersection-complete", code_id)
        mic = _agreed_verdict(_MIC_METHODS, code, "max-intersection-complete", code_id)
        cf = canonical_form(code)
        nonmono = sum(1 for pm in cf.elements if pm.tau)
        yield SurveyRow(code_id, len(code.maximal_codewords),
                        len(code.maximal_intervals), len(cf.elements),
                        nonmono, ic, mic)


def summarize(rows: Iterable[SurveyRow]) -> SurveySummary:
    """Fold rows into the survey footer statistics."""
    codes = ic_count = mic_count = 0
    buckets: dict[int, int] = {}
    for row in rows:
        codes += 1
        ic_count += row.ic
        mic_count += row.mic
        prev = buckets.get(row.max_codewords, -1)
        if row.cf_nonmonomials > prev:
            buckets[row.max_codewords] = row.cf_nonmonomials
    return SurveySummary(codes, ic_count, mic_count, dict(sorted(buckets.items())))
