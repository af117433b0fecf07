"""Text grammar for external addresses and itineraries.

The grammar for external addresses is::

    ADDRESS := INT (SEP INT)* SEP? '(' INT (SEP INT)* ')'
             | '(' INT (SEP INT)* ')'

with SEP a comma or whitespace, e.g. ``0(1)``, ``0 (0 1)``, ``-2,0(1)``.
Itineraries use the same grammar; alternatively a pre-singular itinerary
is a (possibly empty) INT list followed by ``*``, e.g. ``2,*`` or ``*``,
the kneading tail being implied.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .partition import Itinerary, Plain, PreSingular
from .sequences import ExtAddress, canonicalize

__all__ = ["parse_address", "parse_itinerary"]

# Digits are ASCII only: int() would also read other scripts' digits.
_TOKEN = re.compile(r"-?[0-9]+|[()*]|(?P<sep>[,\s]+)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "sep":
            tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


def _parse_int_list(tokens: list[tuple[str, int]], i: int) -> tuple[list[int], int]:
    out = []
    while i < len(tokens) and tokens[i][0] not in "()*":
        tok, offset = tokens[i]
        try:
            out.append(int(tok))
        except ValueError:  # e.g. more digits than int() converts
            raise ParseError(f"numeral {tok[:20]!r} is not an integer", offset) from None
        i += 1
    return out, i


def parse_address(text: str) -> ExtAddress:
    """Parse the ADDRESS grammar; raises :class:`ParseError` with the
    offset of the offending token, a character index into ``text``."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty address", 0)
    pre, i = _parse_int_list(tokens, 0)
    if i >= len(tokens) or tokens[i][0] != "(":
        offset = tokens[i][1] if i < len(tokens) else len(text)
        raise ParseError("expected '(' starting the period word", offset)
    per, j = _parse_int_list(tokens, i + 1)
    if j >= len(tokens) or tokens[j][0] != ")":
        offset = tokens[j][1] if j < len(tokens) else len(text)
        raise ParseError("expected ')' closing the period word", offset)
    if j + 1 != len(tokens):
        raise ParseError("trailing input after the period word", tokens[j + 1][1])
    if not per:
        raise ParseError("period word must be nonempty", tokens[i][1])
    return canonicalize(pre, per)


def parse_itinerary(text: str) -> Itinerary:
    """Parse an itinerary: an ADDRESS, or an INT list ending in ``*``."""
    tokens = _tokenize(text)
    if any(tok == "*" for tok, _ in tokens):
        prefix, i = _parse_int_list(tokens, 0)
        if i + 1 != len(tokens) or tokens[i][0] != "*":
            raise ParseError("'*' must end a pre-singular itinerary", tokens[i][1])
        return PreSingular(tuple(prefix))
    return Plain(parse_address(text))
