from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from normalvol import lp
from normalvol.errors import Infeasible, Unbounded
from normalvol.lp import feasible_nonneg, max_min_slack, simplex_max
from normalvol.linalg import qmat, qvec

from conftest import reference_max_min_slack


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


def test_simplex_max_negates_a_row_with_a_negative_right_hand_side():
    # -x - y = -2 is read as x + y = 2; maximize x
    x, value = simplex_max(qmat([[-1, -1]]), qvec([-2]), qvec([1, 0]))
    assert (x, value) == ((2, 0), 2)


def test_simplex_max_drives_an_artificial_out_of_the_basis_after_phase_1(monkeypatch):
    # x + y = 0 and x - y = 0: phase 1 pivots x in for the first artificial and stops at
    # value 0 with the second artificial basic at level 0, which y then replaces
    pivots = []
    pivot = lp._pivot

    def recorded(tableau, basis, row, col):
        pivots.append((row, col))
        pivot(tableau, basis, row, col)

    monkeypatch.setattr(lp, "_pivot", recorded)
    x, value = simplex_max(qmat([[1, 1], [1, -1]]), qvec([0, 0]), qvec([1, 1]))
    assert (x, value) == ((0, 0), 0)
    assert pivots == [(0, 0), (1, 1)]


def test_simplex_max_with_no_constraints():
    # phase 1 has no rows to sum, and phase 2 no row to bound an improving column
    assert simplex_max([], [], qvec([0, 0])) == ((0, 0), 0)
    with pytest.raises(Unbounded):
        simplex_max([], [], qvec([1, 0]))


# (A, b, c, optimum) where the one tableau's phase 2 has to do its own work
PHASE_2_CASES = {
    # x + y = 2 twice over (the second doubled) and y + w = 3; maximize x.  The doubled row
    # keeps its artificial basic after phase 1, and phase 2 reaches x = 2 with it in place
    "a redundant row": ([[1, 1, 0], [2, 2, 0], [0, 1, 1]], [2, 4, 3], [1, 0, 0], ((2, 0, 3), 2)),
    # maximize -x - y over x + y = 1: the artificial's reduced cost is positive when phase 1
    # ends, and letting it enter would relax the row to x + y <= 1 and read value 0
    "no artificial enters": ([[1, 1]], [1], [-1, -1], ((1, 0), -1)),
    # s1 + x = 1 and s2 + x = 3, slacks first, maximize x: phase 1 ends on the slack basis,
    # and the ratio test (1 against 3) reads the last entry of each row, not the artificial
    # column that sits where a tableau without artificials keeps the right-hand side
    "ratios on the right-hand side": ([[1, 0, 1], [0, 1, 1]], [1, 3], [0, 0, 1], ((0, 2, 1), 1)),
}


@pytest.mark.parametrize("case", list(PHASE_2_CASES))
def test_simplex_max_phase_2_on_the_one_tableau(case):
    a, b, c, optimum = PHASE_2_CASES[case]
    assert simplex_max(qmat(a), qvec(b), qvec(c)) == optimum


def test_max_min_slack_symmetric():
    # maximize t subject to z1 >= t, 2 z2 >= 2 t and z1 + z2 = 1
    z, slack = max_min_slack([(1, 0), (0, 2)], [1, 2])
    assert slack == Fraction(1, 2)
    assert z == (Fraction(1, 2), Fraction(1, 2))


def test_max_min_slack_empty():
    # z > 0 and -2z > 0 cannot both hold
    assert max_min_slack([(1,), (-2,)], [1, 3]) is None


@st.composite
def slack_lps(draw):
    """Integer rows over positive dens: 1-4 coordinates, 1-6 rows, entries in [-3, 3]."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=6))
    dens = draw(st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows)))
    return rows, dens


@settings(max_examples=200, deadline=None)
@given(slack_lps())
def test_max_min_slack_matches_the_rational_reference(lp_case):
    # same Bland pivots on the integer tableau, so the same (z, t) or both None
    rows, dens = lp_case
    found = max_min_slack(rows, dens)
    assert found == reference_max_min_slack(
        [tuple(Fraction(v, d) for v in row) for row, d in zip(rows, dens)]
    )
    event("infeasible" if found is None else "feasible")
    if found is not None:
        z, t = found
        assert sum(z) == 1 and min(z) >= 0 and t > 0
        assert min(sum(x * v for x, v in zip(z, row)) / d for row, d in zip(rows, dens)) == t


def test_the_cubical_lp_updates_its_rows_with_the_one_row_step(monkeypatch):
    """Every row update of ``max_min_slack`` is ``linalg.reduce_row``."""

    def boom(*args):
        raise RuntimeError("reduce_row")

    monkeypatch.setattr(lp, "reduce_row", boom)
    with pytest.raises(RuntimeError, match="reduce_row"):
        max_min_slack([(1, 0), (0, 2)], [1, 2])
