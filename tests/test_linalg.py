import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normalvol import linalg
from normalvol.errors import DimensionMismatch, NoSolution, NotSymmetric
from normalvol.linalg import (
    Signature,
    _integer_rows,
    border_adjugate,
    cofactors,
    det,
    dot,
    echelon,
    identity,
    inverse,
    mat_vec,
    qmat,
    qvec,
    rank,
    reduce_row,
    signature,
    solve,
)

from conftest import _reference_det, _reference_eliminate, _reference_solve, mat_mul, transpose


def solution(a, b):
    """The solution ``solve`` returns, as the vector x / p."""
    x, p = solve(a, b)
    return tuple(Fraction(v, p) for v in x)


def test_solve_unique_system():
    a = qmat([[2, 1], [1, 3]])
    assert solution(a, qvec([5, 5])) == qvec([2, 1])


def test_solve_inconsistent_raises():
    a = qmat([[1, 1], [2, 2]])
    with pytest.raises(NoSolution):
        solve(a, qvec([1, 3]))


def test_solve_underdetermined_free_coordinates_zero():
    assert solution(qmat([[1, 1, 1]]), qvec([6])) == qvec([6, 0, 0])


def test_inverse_and_det():
    a = qmat([[2, 1], [1, 1]])
    assert mat_mul(a, inverse(a)) == identity(2)
    assert det(a) == 1
    assert det(qmat([[1, 2], [2, 4]])) == 0
    with pytest.raises(NoSolution):
        inverse(qmat([[1, 2], [2, 4]]))


@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]]])
def test_det_refuses_a_non_square_matrix(rows):
    # a 2x3 matrix once gave -3, and a 3x2 one a bare IndexError
    with pytest.raises(DimensionMismatch, match="square"):
        det(qmat(rows))


def test_rank_and_transpose():
    a = qmat([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert rank(a) == 2


def test_signature_hyperbolic_pair():
    assert tuple(signature(qmat([[0, 1], [1, 0]]))) == (1, 1, 0)


def test_signature_diagonal():
    assert tuple(signature(qmat([[2, 0, 0], [0, -3, 0], [0, 0, 0]]))) == (1, 1, 1)


def test_signature_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        signature(qmat([[0, 1], [2, 0]]))


def test_signature_congruence_invariance():
    rng = random.Random(11)
    for _ in range(10):
        n = 4
        s = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                s[i][j] = s[j][i]
        s = qmat(s)
        # congruence by a random invertible matrix preserves the signature
        while True:
            p = qmat([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
            if det(p) != 0:
                break
        congruent = mat_mul(transpose(p), mat_mul(s, p))
        assert tuple(signature(congruent)) == tuple(signature(s))


def test_signature_zero_diagonal_triangle():
    # the all-ones matrix minus the identity, with eigenvalues 2, -1, -1
    assert tuple(signature(qmat([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))) == (1, 2, 0)


def test_signature_two_hyperbolic_pairs():
    s = qmat([[0, 3, 0, 0], [3, 0, 0, 0], [0, 0, 0, Fraction(-1, 2)], [0, 0, Fraction(-1, 2), 0]])
    assert tuple(signature(s)) == (2, 2, 0)


def test_signature_zero_matrix():
    assert tuple(signature(qmat([[0] * 3] * 3))) == (0, 0, 3)
    assert tuple(signature(())) == (0, 0, 0)


def test_signature_of_int_entries():
    s = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert tuple(signature(s)) == tuple(signature(qmat(s))) == (3, 0, 0)


def _reference_signature(s):
    """Inertia by rational congruence elimination: 1x1 diagonal pivots, and a
    2x2 hyperbolic pivot, counted once positive and once negative, when the
    remaining diagonal is all zero but some off-diagonal entry is not."""
    n = len(s)
    work = {(i, j): s[i][j] for i in range(n) for j in range(n)}
    active = list(range(n))
    n_plus = n_minus = 0
    while active:
        piv = next((i for i in active if work[(i, i)] != 0), None)
        if piv is not None:
            p = work[(piv, piv)]
            if p > 0:
                n_plus += 1
            else:
                n_minus += 1
            active.remove(piv)
            col = {k: work[(k, piv)] for k in active}
            for k in active:
                if col[k] == 0:
                    continue
                for l in active:
                    work[(k, l)] -= col[k] * col[l] / p
            continue
        off = next(
            ((i, j) for idx, i in enumerate(active) for j in active[idx + 1 :] if work[(i, j)] != 0),
            None,
        )
        if off is None:
            return Signature(n_plus, n_minus, len(active))
        i, j = off
        a = work[(i, j)]
        n_plus += 1
        n_minus += 1
        active.remove(i)
        active.remove(j)
        ci = {k: work[(k, i)] for k in active}
        cj = {k: work[(k, j)] for k in active}
        for k in active:
            for l in active:
                work[(k, l)] -= (ci[k] * cj[l] + cj[k] * ci[l]) / a
    return Signature(n_plus, n_minus, n - n_plus - n_minus)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices of size 1 to 6: either sparse, often with
    the whole diagonal forced to zero, or a sum of at most 3 signed rank-one
    terms v v^T, so of low rank."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), RATIONALS)
    if draw(st.booleans()):
        s = [[Fraction(0)] * n for _ in range(n)]
        zero_diagonal = draw(st.booleans())
        for i in range(n):
            for j in range(i + 1):
                s[i][j] = s[j][i] = Fraction(0) if i == j and zero_diagonal else draw(entry)
    else:
        terms = [
            (draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)])), [draw(entry) for _ in range(n)])
            for _ in range(draw(st.integers(0, 3)))
        ]
        s = [[sum(c * v[i] * v[j] for c, v in terms) for j in range(n)] for i in range(n)]
    return qmat(s)


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_signature_matches_rational_congruence_elimination(s):
    assert signature(s) == _reference_signature(s)


def test_vector_length_mismatch():
    with pytest.raises(DimensionMismatch):
        dot(qvec([1, 2]), qvec([1, 2, 3]))


# -- the fraction-free routines against plain rational elimination -----------


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def rational_systems(draw):
    """(A, b) with A of rank at most ``rank``; the other rows are rational
    combinations of the first ones, so A is often rank-deficient and A x = b
    often inconsistent.  Zero entries are likely."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(Fraction(0)), RATIONALS)
    base = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(1, m)))]
    rows = list(base)
    while len(rows) < m:
        coeffs = [draw(st.one_of(st.just(Fraction(0)), RATIONALS)) for _ in base]
        rows.append([sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(n)])
    order = draw(st.permutations(range(m)))
    a = qmat([rows[i] for i in order])
    b = qvec(draw(entry) for _ in range(m))
    return a, b


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(st.integers(-9, 9), min_size=k, max_size=k), min_size=k, max_size=k
)))
def test_cofactors_expand_the_determinant_along_its_first_row(rows):
    first, *below = rows
    assert dot(first, cofactors(below)) == _reference_det(qmat(rows))


@settings(max_examples=200, deadline=None)
@given(rational_systems())
def test_integer_elimination_matches_rational_elimination(system):
    a, b = system
    n = len(a[0])
    # step -1 solves A with its columns reversed and reverses the answer back
    for step in (1, -1):
        expected = _reference_solve(a, b, range(n)[::step])
        a_step = tuple(row[::step] for row in a)
        if expected is None:
            with pytest.raises(NoSolution):
                solve(a_step, b)
        else:
            assert solution(a_step, b)[::step] == expected
    assert rank(a) == len(_reference_eliminate([list(row) for row in a], range(n)))
    if len(a) == n:
        assert det(a) == _reference_det(a)
        if _reference_det(a) == 0:
            with pytest.raises(NoSolution):
                inverse(a)
        else:
            columns = tuple(_reference_solve(a, e, range(n)) for e in identity(n))
            assert inverse(a) == transpose(columns)


@settings(max_examples=100, deadline=None)
@given(rational_systems())
def test_solve_returns_integer_numerators_over_the_last_pivot(system):
    a, b = system
    expected = _reference_solve(a, b, range(len(a[0])))
    if expected is None:
        with pytest.raises(NoSolution):
            solve(a, b)
        return
    x, p = solve(a, b)
    assert type(p) is int and p != 0
    assert all(type(v) is int for v in x)
    assert tuple(Fraction(v, p) for v in x) == expected


@settings(max_examples=100, deadline=None)
@given(rational_systems())
def test_int_rows_are_eliminated_as_they_are(system):
    """Each row of (A | b) scaled to ``int`` by its own lcm: the int rows are
    not copied, and ``rank`` and ``solve`` read them as the rational ones."""
    a, b = system
    scaled = []
    for row, rhs in zip(a, b):
        s = lcm(*(x.denominator for x in (*row, rhs)))
        scaled.append(tuple(int(x * s) for x in (*row, rhs)))
    int_a = tuple(row[:-1] for row in scaled)
    int_b = tuple(row[-1] for row in scaled)
    assert all(out is row for out, row in zip(_integer_rows(int_a), int_a))
    assert rank(int_a) == rank(a)
    expected = _reference_solve(a, b, range(len(a[0])))
    if expected is None:
        with pytest.raises(NoSolution):
            solve(int_a, int_b)
    else:
        assert solution(int_a, int_b) == expected


@st.composite
def square_matrices(draw):
    """Square rational matrices with many zero entries, so pivots often need row swaps."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(Fraction(0)), RATIONALS)
    return qmat([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_det_matches_rational_elimination(a):
    assert det(a) == _reference_det(a)


@settings(max_examples=100, deadline=None)
@given(square_matrices().flatmap(lambda a: st.tuples(st.just(a), st.permutations(range(len(a))))))
def test_det_changes_sign_with_each_row_swap(case):
    """det(P A) = sign(P) det(A) for a row permutation P: the pivot columns of P A
    come in another order, and ``det`` reads the sign off that order."""
    a, order = case
    sign = (-1) ** sum(x > y for i, x in enumerate(order) for y in order[i + 1 :])
    permuted = tuple(a[i] for i in order)
    assert det(permuted) == sign * det(a) == sign * _reference_det(a)
    assert det(permuted) == _reference_det(permuted)


# Rows that leave no pivot when they come first: a zero row, a repeated row and a
# combination of the rows after it, each with a consistent and an inconsistent b.
LEADING_DEPENDENT_ROWS = {
    "zero first row": ([[0, 0, 0], [1, 2, 3], [0, 1, 1]], [0, 4, 1], [1, 4, 1]),
    "repeated first row": ([[1, 2, 0], [1, 2, 0], [0, 1, 1]], [3, 3, 2], [3, 4, 2]),
    "first row a combination": (
        [[Fraction(1, 2), 3, 2], [Fraction(1, 2), 1, 0], [0, 1, 1]],
        [7, 3, 2],
        [8, 3, 2],
    ),
    "first row a combination, one free column": (
        [[2, 4, 6, 0], [1, 1, 1, 0], [0, 1, 2, 0]],
        [4, 1, 1],
        [5, 1, 1],
    ),
}


@pytest.mark.parametrize("name", list(LEADING_DEPENDENT_ROWS))
def test_solve_with_a_dependent_first_row(name):
    rows, consistent, inconsistent = LEADING_DEPENDENT_ROWS[name]
    a = qmat(rows)
    expected = _reference_solve(a, qvec(consistent), range(len(a[0])))
    assert expected is not None
    assert solution(a, qvec(consistent)) == expected
    assert _reference_solve(a, qvec(inconsistent), range(len(a[0]))) is None
    with pytest.raises(NoSolution):
        solve(a, qvec(inconsistent))


ELIMINATING = {
    "rank": rank,
    "solve": lambda a: solve(a, qvec([1, 1])),
    "det": det,
    "inverse": inverse,
    "signature": signature,
}


@pytest.mark.parametrize("name", list(ELIMINATING))
def test_every_eliminating_routine_reads_the_one_row_step(name, monkeypatch):
    """``rank``, ``solve``, ``det``, ``inverse`` and ``signature`` all eliminate through ``reduce_row``."""

    def boom(*args):
        raise RuntimeError("reduce_row")

    monkeypatch.setattr(linalg, "reduce_row", boom)
    with pytest.raises(RuntimeError, match="reduce_row"):
        ELIMINATING[name](qmat([[2, 1], [1, 1]]))


# -- the row step over a previous pivot, and the bordering of adjugates -------


def test_reduce_row_divides_one_step_by_the_previous_pivot():
    prow, prev = [0, 6, 4, 2], 3
    row = [3, 9, -3, 12]
    assert reduce_row(row, ((1, prow),), prev) == [(6 * v - 9 * w) // prev for v, w in zip(row, prow)]
    assert reduce_row(row, ((1, prow),), prev) == [6, 0, -18, 18]
    # f = 0: the row is only rescaled by p / prev
    assert reduce_row([3, 0, 6, 9], ((1, prow),), prev) == [6, 0, 12, 18]
    untouched = [3, 0, 6, 9]
    assert reduce_row(untouched, ((1, [0, 3, 4, 2]),), prev) is untouched
    assert reduce_row(untouched, ()) is untouched


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=2, max_size=6
)))
def test_reduce_row_resumes_an_elimination_from_its_previous_pivot(rows):
    """Reducing against a tail of the echelon, from the pivot before it, gives the
    same row as reducing against the whole echelon at once."""
    *pushed, row = rows
    stack, _ = echelon(pushed, len(row))
    whole = reduce_row(row, stack)
    for j in range(1, len(stack)):
        c, prow = stack[j - 1]
        assert reduce_row(reduce_row(row, stack[:j]), stack[j:], prow[c]) == whole


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=0, max_size=4
).map(lambda a: (n, a))))
def test_border_adjugate_builds_the_determinant_and_adjugate_row_by_row(case):
    """G = A^T A + I is a symmetric positive-definite integer matrix; bordered from
    (1, ()) one row at a time, each step gives the leading block's D and adjugate."""
    n, a = case
    g = [[sum(r[i] * r[j] for r in a) + (i == j) for j in range(n)] for i in range(n)]
    d, adj = 1, ()
    for k in range(n):
        d, adj = border_adjugate(d, adj, g[k][:k], g[k][k])
        block = [row[: k + 1] for row in g[: k + 1]]
        assert d == det(qmat(block))
        assert all(type(v) is int for row in adj for v in row)
        product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*adj)] for row in block]
        assert product == [[d * (i == j) for j in range(k + 1)] for i in range(k + 1)]
