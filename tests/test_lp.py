from fractions import Fraction

import pytest

from normalvol.errors import Infeasible, Unbounded
from normalvol.lp import feasible_nonneg, max_min_slack, simplex_max
from normalvol.linalg import qmat, qvec


def test_simplex_max_known_optimum():
    # maximize x + y subject to x + 2y + s1 = 4, 3x + y + s2 = 6, all >= 0
    a = qmat([[1, 2, 1, 0], [3, 1, 0, 1]])
    x, value = simplex_max(a, qvec([4, 6]), qvec([1, 1, 0, 0]))
    assert value == Fraction(14, 5)
    assert x[0] == Fraction(8, 5) and x[1] == Fraction(6, 5)


def test_simplex_infeasible():
    # x + y = -1 with x, y >= 0 (negated internally, still infeasible with x+y=1, -x-y=1)
    a = qmat([[1, 1], [-1, -1]])
    with pytest.raises(Infeasible):
        simplex_max(a, qvec([1, 1]), qvec([0, 0]))


def test_simplex_unbounded():
    # maximize x with only y constrained
    a = qmat([[0, 1]])
    with pytest.raises(Unbounded):
        simplex_max(a, qvec([1]), qvec([1, 0]))


def test_feasible_nonneg():
    a = qmat([[1, 1]])
    x = feasible_nonneg(a, qvec([3]))
    assert x is not None and x[0] + x[1] == 3 and min(x) >= 0
    assert feasible_nonneg(qmat([[1, 1], [-1, -1]]), qvec([1, 1])) is None


def test_max_min_slack_symmetric():
    # maximize min(z1, z2) subject to z1 + z2 = 1
    z, slack = max_min_slack([qvec([1, 0]), qvec([0, 1])])
    assert slack == Fraction(1, 2)
    assert z == (Fraction(1, 2), Fraction(1, 2))


def test_max_min_slack_empty():
    # z > 0 and -z > 0 cannot both hold
    assert max_min_slack([qvec([1]), qvec([-1])]) is None
