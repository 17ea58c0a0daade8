"""Rational-string parsing and formatting for the JSON interfaces.

Rationals travel as strings ("3", "-7/2") so that every file round-trips
bit-exactly; floats are never accepted or emitted.  Only integers and
integer quotients are read, at most ``MAX_DIGITS`` digits each, so an input
string cannot expand into an enormous number.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import NormalVolError

MAX_DIGITS = 1000

_RATIONAL = re.compile(rf"[+-]?[0-9]{{1,{MAX_DIGITS}}}(?:/[0-9]{{1,{MAX_DIGITS}}})?")


def parse_rat(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise NormalVolError(f"expected a rational string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value) is None:
            raise NormalVolError(f"bad rational string {value[:40]!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise NormalVolError(f"bad rational string {value!r}") from exc
    raise NormalVolError(f"expected a rational string, got {value!r}")


def format_rat(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
