from fractions import Fraction

import pytest

from normalvol.errors import DimensionMismatch
from normalvol.poly import MultiPoly

from conftest import hessian, total_degree


def lin(**coeffs):
    return MultiPoly.linear({k: Fraction(v) for k, v in coeffs.items()})


def test_zero_coefficients_pruned():
    p = lin(x=1) + (-1) * lin(x=1)
    assert p == MultiPoly.zero()
    assert not p


def test_arithmetic_and_equality():
    p = (lin(x=1) + lin(y=1)) * (lin(x=1) + (-1) * lin(y=1))
    q = lin(x=1) * lin(x=1) + (-1) * lin(y=1) * lin(y=1)
    assert p == q
    assert p + (-1) * q == MultiPoly.zero()
    assert q * Fraction(-1) + p == MultiPoly.zero()


def test_scalar_multiplication():
    p = lin(x=2, y=3)
    assert Fraction(1, 2) * p == lin(x=1) + Fraction(3, 2) * lin(y=1)


def test_degree_and_homogeneity():
    p = lin(x=1) * lin(y=1) + lin(x=1) * lin(x=1)
    assert total_degree(p) == 2
    assert total_degree(p + MultiPoly.constant(1)) == 2
    assert total_degree(MultiPoly.zero()) == 0


def test_eval_at():
    p = lin(x=1) * lin(y=1) + MultiPoly.constant(3)
    assert p.eval_at({"x": Fraction(2), "y": Fraction(5)}) == 13
    with pytest.raises(DimensionMismatch):
        p.eval_at({"x": Fraction(2)})


def test_hessian_quadratic():
    # f = x^2 + 4xy - y^2
    p = lin(x=1) * lin(x=1) + 4 * lin(x=1) * lin(y=1) + (-1) * lin(y=1) * lin(y=1)
    h = hessian(p, ["x", "y"])
    assert h == ((Fraction(2), Fraction(4)), (Fraction(4), Fraction(-2)))


def test_hessian_rejects_cubic():
    p = lin(x=1) * lin(x=1) * lin(x=1)
    with pytest.raises(DimensionMismatch):
        hessian(p, ["x"])

