"""Code document parsing and deterministic text rendering.

A code document is UTF-8 text: the first content line declares ``n=<k>``,
every further line holds one word. Lines end at a newline and nowhere
else; one carriage return before it is dropped. Binary strings (``010``,
exactly n characters) and subset literals (bare digits like ``23`` for
n <= 9, comma lists like ``{2,11}`` for any n) may be mixed line by line.
Blank lines and ``#`` comments are ignored.

``parse_code`` reads the documents ``render_code_document`` writes in bulk
and hands any other to a line loop, the only source of parse errors,
their line numbers and parse warnings.
"""

from __future__ import annotations

import re
import warnings
from itertools import repeat

from .codes import (MAX_NEURONS, Code, Interval, _neuron_names, _trusted,
                    mask_from_neurons)


class ParseError(ValueError):
    """Input document rejected; carries the offending position."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


class ParseWarning(UserWarning):
    pass


_N_LINE = re.compile(r"^n[ \t]*=[ \t]*([0-9]+)$")
_BINARY = re.compile(r"^[01]+$")
_DIGITS = re.compile(r"^[0-9]+$")
_BRACES = re.compile(r"^\{([0-9, \t]*)\}$")
# The bulk reader's header, n= and at most two digits as render_code_document
# writes it, and the characters its body may hold, which str.translate deletes.
_PLAIN_HEADER = re.compile(r"n=([0-9]{1,2})")
_PLAIN_BODY = dict.fromkeys(map(ord, "01\n"))


def _small_int(digits: str) -> int:
    """A decimal string's value, or 0 if it has more than two significant
    digits. Neuron counts and indices lie in 1..16, so such a value is out
    of range as 0 is; and ``int`` refuses strings of more than 4,300
    digits, leading zeros included."""
    digits = digits.lstrip("0")
    return int(digits) if 0 < len(digits) <= 2 else 0


def _number_text(digits: str) -> str:
    """A decimal string for a message, without leading zeros and cut short."""
    digits = digits.lstrip("0") or "0"
    return digits if len(digits) <= 20 else f"{digits[:8]}... ({len(digits)} digits)"


def _token_text(token: str) -> str:
    """A token for a message, quoted, and cut short past 64 characters."""
    return repr(token) if len(token) <= 64 else f"{token[:24]!r}... ({len(token)} characters)"


def _parse_word(token: str, n: int) -> int:
    if len(token) == n and _BINARY.match(token):
        return int(token[::-1], 2)  # character k is neuron k + 1, bit k
    m = _BRACES.match(token)
    if m:
        body = m.group(1).strip()
        if not body:
            return 0
        neurons = []
        for part in body.split(","):
            part = part.strip()
            if not part.isdigit():
                raise ValueError(f"bad entry {_token_text(part)} in {_token_text(token)}")
            neurons.append(part.lstrip("0") or "0")
        if len(set(neurons)) != len(neurons):
            raise ValueError(f"repeated neuron in {_token_text(token)}")
        mask = 0
        for digits in neurons:
            i = _small_int(digits)
            if not 1 <= i <= n:
                raise ValueError(f"neuron {_number_text(digits)} outside 1..{n}")
            mask |= 1 << i - 1
        return mask
    if _DIGITS.match(token):
        if n > 9:
            raise ValueError(
                f"bare digit words need n <= 9; use {{i,j}} lists for n={n}")
        if token == "0":
            return 0
        digits = [int(ch) for ch in token]
        if 0 in digits:
            raise ValueError(
                f"neuron 0 does not exist in {_token_text(token)} "
                f"(binary words must have exactly {n} characters)")
        if len(set(digits)) != len(digits):
            raise ValueError(f"repeated neuron in {_token_text(token)}")
        return mask_from_neurons(digits, n)
    raise ValueError(f"cannot parse word {_token_text(token)}")


def parse_code(text: str, source: str = "<input>") -> Code:
    """Parse a document into a code.

    A plain document (a bare ``n=<k>`` header, then only k-character binary
    lines) is read in bulk: one ``str.translate`` that must delete the whole
    body, one length test over all lines, one reversal of the body so that
    each line's ``int(..., 2)`` reads character k as bit k, and one
    ``frozenset``. It is accepted only if its words are distinct and do not
    make the code full. Anything else, errors included, goes to the line
    loop, which alone reports errors and warnings.
    """
    header, _, body = text.partition("\n")
    m = _PLAIN_HEADER.fullmatch(header)
    if m and not body.translate(_PLAIN_BODY):
        n = int(m.group(1))
        # reversing the body reverses the line order and each line's digits
        lines = body.removesuffix("\n")[::-1].split("\n")
        if 1 <= n <= MAX_NEURONS and set(map(len, lines)) == {n}:
            words = frozenset(map(int, lines, repeat(2)))
            if len(words) == len(lines) < 1 << n:  # no duplicate, not full
                return _trusted(Code, n=n, words=words)
    return _parse_lines(text, source)


def _parse_lines(text: str, source: str) -> Code:
    """The line loop: every document the bulk reader does not vouch for.

    One pass: duplicates and the line at which the code becomes full are
    noted as the words are read, and reported only once every word has
    parsed, so a syntax error anywhere wins over code-level checks.
    Duplicate words are then dropped with a warning; empty and full codes
    are rejected with the offending line. Every word has been checked
    against n on the way, so the code is built without checking them again.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # a final newline ends the last line
    n = None
    seen: set[int] = set()
    duplicates: list[tuple[int, str]] = []  # (line, literal) before the code is full
    full_line = None
    for idx, raw in enumerate(lines, start=1):
        if raw.endswith("\r"):
            raw = raw[:-1]
        content = raw.split("#", 1)[0].strip(" \t")
        if not content:
            continue
        if n is None:
            m = _N_LINE.match(content)
            if not m:
                raise ParseError(source, idx, "expected the neuron count first, as n=<k>")
            n = _small_int(m.group(1))
            if not 1 <= n <= MAX_NEURONS:
                raise ParseError(source, idx, f"neuron count must be in 1..{MAX_NEURONS}, "
                                              f"got {_number_text(m.group(1))}")
            continue
        try:
            mask = _parse_word(content, n)
        except ValueError as err:
            raise ParseError(source, idx, str(err)) from None
        if mask not in seen:
            seen.add(mask)
            if len(seen) == 1 << n:
                full_line = idx
        elif full_line is None:
            duplicates.append((idx, content))
    if n is None:
        raise ParseError(source, max(len(lines), 1), "empty document; expected n=<k>")
    for line, literal in duplicates:
        warnings.warn(ParseWarning(
            f"{source}:{line}: duplicate word {_token_text(literal)} ignored"))
    if full_line is not None:
        raise ParseError(
            source, full_line, "code contains every subset of [n]; proper codes required")
    if not seen:
        raise ParseError(source, max(len(lines), 1),
                         "no codewords given; nonempty codes required")
    return _trusted(Code, n=n, words=frozenset(seen))


def render_code_document(code: Code) -> str:
    """One binary word per line, ascending; reparses to an equal code."""
    out = [f"n={code.n}"]
    for w in code.word_list:
        out.append("".join("1" if w >> k & 1 else "0" for k in range(code.n)))
    return "\n".join(out) + "\n"


def word_text(mask: int, n: int) -> str:
    """Digit rendering for small n ('0' for the empty word), braces above."""
    if n <= 9:
        return "".join(_neuron_names(mask)) or "0"
    return "{" + ",".join(_neuron_names(mask)) + "}"


def interval_text(iv: Interval, n: int) -> str:
    return f"[{word_text(iv.lo, n)},{word_text(iv.hi, n)}]"


def monomial_prime_text(mask: int) -> str:
    """Render a variable-set mask as a monomial prime, e.g. ``<x2,x3>``."""
    return "<" + ",".join(f"x{i}" for i in _neuron_names(mask)) + ">"
