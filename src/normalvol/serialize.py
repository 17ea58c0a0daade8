"""Rational-string parsing and formatting for the JSON interfaces.

Rationals travel as strings ("3", "-7/2") so that every file round-trips
bit-exactly; floats are never accepted or emitted.  Only integers and
integer quotients are read, at most ``MAX_DIGITS`` digits each, so an input
string cannot expand into an enormous number.  Counts (a fan's
``ambient_dim``, a matroid's ``rank``) are JSON integers or strings of
digits, never floats or booleans.  Arrays are JSON lists, never strings,
which would otherwise be read one character per entry.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError, NormalVolError

MAX_DIGITS = 1000

_RATIONAL = re.compile(rf"[+-]?[0-9]{{1,{MAX_DIGITS}}}(?:/[0-9]{{1,{MAX_DIGITS}}})?")
_DIGITS = re.compile(rf"[0-9]{{1,{MAX_DIGITS}}}")


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


def parse_int(value) -> int:
    """A JSON integer or a string of digits; anything else raises TypeError."""
    if isinstance(value, str) and _DIGITS.fullmatch(value):
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer or a string of digits, got {value!r}")
    return value


def parse_list(value, convert=lambda entry: entry) -> list:
    """The entries of a JSON array (or a tuple, from Python callers), each
    through convert; anything else, a string above all, raises TypeError."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected an array, got {value!r}")
    return [convert(entry) for entry in value]


def read_field(raw, what: str, key: str, convert=lambda value: value):
    """convert(raw[key]); an InputError naming the key when it is missing or
    when convert raises KeyError, TypeError or ValueError."""
    try:
        value = raw[key]
    except (KeyError, TypeError):
        raise InputError(f"{what} has no {key!r}") from None
    try:
        return convert(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{what}'s {key!r} is malformed: {exc}") from None


def format_rat(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
