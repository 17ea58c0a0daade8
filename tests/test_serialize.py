from fractions import Fraction

import pytest

from normalvol.errors import NormalVolError
from normalvol.serialize import MAX_DIGITS, format_rat, parse_rat


def test_parse_int_and_string():
    assert parse_rat(3) == Fraction(3)
    assert parse_rat("-7/2") == Fraction(-7, 2)
    assert parse_rat("0") == 0


def test_round_trip():
    for v in (Fraction(3), Fraction(-7, 2), Fraction(0), Fraction(22, 7)):
        assert parse_rat(format_rat(v)) == v


def test_rejects_floats_and_bools():
    with pytest.raises(NormalVolError):
        parse_rat(1.5)
    with pytest.raises(NormalVolError):
        parse_rat(True)


def test_rejects_garbage():
    with pytest.raises(NormalVolError):
        parse_rat("three")
    with pytest.raises(NormalVolError):
        parse_rat("1/0")
    with pytest.raises(NormalVolError):
        parse_rat(None)


@pytest.mark.parametrize(
    "text",
    ["1e3", "0.5", " 3", "1" * (MAX_DIGITS + 1), "1/" + "1" * (MAX_DIGITS + 1)],
    ids=["exponent", "decimal", "space", "long numerator", "long denominator"],
)
def test_rejects_decimals_exponents_and_long_strings(text):
    with pytest.raises(NormalVolError):
        parse_rat(text)


def test_accepts_the_longest_integers():
    big = "9" * MAX_DIGITS
    assert parse_rat(f"-{big}/{big}") == -1
