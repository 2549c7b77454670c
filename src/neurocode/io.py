"""Code document parsing and deterministic text rendering.

A code document is UTF-8 text: the first content line declares ``n=<k>``,
every further line holds one word. Binary strings (``010``, exactly n
characters) and subset literals (bare digits like ``23`` for n <= 9, comma
lists like ``{2,11}`` for any n) may be mixed line by line. Blank lines
and ``#`` comments are ignored.
"""

from __future__ import annotations

import re
import warnings

from .codes import MAX_NEURONS, Code, Interval, mask_from_neurons, neurons_from_mask


class ParseError(ValueError):
    """Input document rejected; carries the offending position."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


class ParseWarning(UserWarning):
    pass


_N_LINE = re.compile(r"^n\s*=\s*(\d+)$")
_BINARY = re.compile(r"^[01]+$")
_DIGITS = re.compile(r"^[0-9]+$")
_BRACES = re.compile(r"^\{([0-9,\s]*)\}$")


def _parse_word(token: str, n: int) -> int:
    if _BINARY.match(token) and len(token) == n:
        mask = 0
        for k, ch in enumerate(token):
            if ch == "1":
                mask |= 1 << k
        return mask
    m = _BRACES.match(token)
    if m:
        body = m.group(1).strip()
        if not body:
            return 0
        neurons = []
        for part in body.split(","):
            part = part.strip()
            if not part.isdigit():
                raise ValueError(f"bad entry {part!r} in {token!r}")
            neurons.append(int(part))
        if len(set(neurons)) != len(neurons):
            raise ValueError(f"repeated neuron in {token!r}")
        return mask_from_neurons(neurons, n)
    if _DIGITS.match(token):
        if n > 9:
            raise ValueError(
                f"bare digit words need n <= 9; use {{i,j}} lists for n={n}")
        if token == "0":
            return 0
        digits = [int(ch) for ch in token]
        if 0 in digits:
            raise ValueError(
                f"neuron 0 does not exist in {token!r} "
                f"(binary words must have exactly {n} characters)")
        if len(set(digits)) != len(digits):
            raise ValueError(f"repeated neuron in {token!r}")
        return mask_from_neurons(digits, n)
    raise ValueError(f"cannot parse word {token!r}")


def parse_code(text: str, source: str = "<input>") -> Code:
    """Parse a document into a code.

    Every word is parsed once, so a syntax error anywhere wins over
    code-level checks. Duplicate words are then dropped with a warning;
    empty and full codes are rejected with the offending line.
    """
    lines = text.splitlines()
    n = None
    parsed: list[tuple[int, str, int]] = []  # (line, literal, mask)
    for idx, raw in enumerate(lines, start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        if n is None:
            m = _N_LINE.match(content)
            if not m:
                raise ParseError(source, idx, "expected the neuron count first, as n=<k>")
            n = int(m.group(1))
            if not 1 <= n <= MAX_NEURONS:
                raise ParseError(
                    source, idx, f"neuron count must be in 1..{MAX_NEURONS}, got {n}")
            continue
        try:
            parsed.append((idx, content, _parse_word(content, n)))
        except ValueError as err:
            raise ParseError(source, idx, str(err)) from None
    if n is None:
        raise ParseError(source, max(len(lines), 1), "empty document; expected n=<k>")
    seen: set[int] = set()
    for line, literal, mask in parsed:
        if mask in seen:
            warnings.warn(ParseWarning(
                f"{source}:{line}: duplicate word {literal!r} ignored"))
            continue
        seen.add(mask)
        if len(seen) == 1 << n:
            raise ParseError(
                source, line, "code contains every subset of [n]; proper codes required")
    if not seen:
        raise ParseError(source, max(len(lines), 1),
                         "no codewords given; nonempty codes required")
    return Code(n, frozenset(seen))


def render_code_document(code: Code) -> str:
    """One binary word per line, ascending; reparses to an equal code."""
    out = [f"n={code.n}"]
    for w in code.word_list:
        out.append("".join("1" if w >> k & 1 else "0" for k in range(code.n)))
    return "\n".join(out) + "\n"


def word_text(mask: int, n: int) -> str:
    """Digit rendering for small n ('0' for the empty word), braces above."""
    ns = neurons_from_mask(mask)
    if n <= 9:
        return "".join(map(str, ns)) if ns else "0"
    return "{" + ",".join(map(str, ns)) + "}"


def interval_text(iv: Interval, n: int) -> str:
    return f"[{word_text(iv.lo, n)},{word_text(iv.hi, n)}]"


def monomial_prime_text(mask: int) -> str:
    """Render a variable-set mask as a monomial prime, e.g. ``<x2,x3>``."""
    return "<" + ",".join(f"x{i}" for i in neurons_from_mask(mask)) + ">"
