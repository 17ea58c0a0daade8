"""Exact rational linear algebra.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Every
routine here is exact: there is no floating point anywhere, so results can
be compared with ``==``.  Elimination is fraction-free: ``solve``, ``rank``,
``inverse`` and ``det`` scale each row to integers and read one Bareiss
Gauss-Jordan elimination, dividing by the pivots only at the end; their
results equal those of rational elimination.  ``solve`` returns one
solution as integer numerators over one denominator, the last pivot, with
its free coordinates zero; the Chow covectors use it, star fans use
``inverse``, fan validation's sign certificates, linear matroids and a fan's
refusal of a cone with dependent rays (to name that cone) use ``rank``, and
the geometric oracle expands its integer determinants along ``cofactors``.
``reduce_row`` is one row's part of a Bareiss forward elimination, against
rows already in fraction-free echelon form; a fan's one echelon walk, when
it is built, builds those rows one ray at a time and reads both its
simpliciality and its balancing certificates off them, without ``rank``.
The four eliminating routines take integer rows as well as rational ones,
and a row that is all ``int`` is eliminated as it is, with no scaling.  ``signature``
reads inertia off a symmetric Bareiss elimination with one pivot rule, over
the whole matrix scaled to integers by one factor.  ``scaled_rows`` is that
one scaling, of a matrix by the lcm of all its denominators; fans scale
their rays, contexts their Gram and ``scaled_to_int`` a truncation with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence, TypeVar

from .errors import DimensionMismatch, NoSolution, NotSymmetric

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

K = TypeVar("K")

ZERO = Fraction(0)
ONE = Fraction(1)


def qvec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


def qmat(rows: Iterable[Iterable]) -> Mat:
    mat = tuple(qvec(row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise DimensionMismatch("ragged matrix")
    return mat


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def vec_add(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths {len(a)} != {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths {len(a)} != {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def dot(a: Vec, b: Vec) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths {len(a)} != {len(b)}")
    return sum((x * y for x, y in zip(a, b)), ZERO)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def scaled_rows(rows: Iterable[Iterable]) -> tuple[int, list[list[int]]]:
    """(s, s * rows): s the lcm of the denominators of every entry, s * rows in integers."""
    rows = [tuple(row) for row in rows]
    s = lcm(*(x.denominator for row in rows for x in row))
    return s, [[x.numerator * (s // x.denominator) for x in row] for row in rows]


def scaled_to_int(z: Mapping[K, Fraction]) -> tuple[int, dict[K, int]]:
    """(Z, Z z): Z the lcm of the denominators of z's values, Z z in integers."""
    scale, (ints,) = scaled_rows([z.values()])
    return scale, dict(zip(z, ints))


def _integer_rows(rows: Iterable[Sequence]) -> list[Sequence[int]]:
    """Each row scaled to integers; a row that is already ``int`` is passed through as it is."""
    return [row if all(type(x) is int for x in row) else scaled_rows([row])[1][0] for row in rows]


def _eliminate(rows: list[Sequence[int]], ncols: int) -> tuple[list[tuple[int, int]], int]:
    """Bareiss's fraction-free Gauss-Jordan elimination; returns (pivots, signed last pivot).

    Each pivot is a (row index, column index) pair.  The first ``ncols``
    columns are taken in order, and the pivot is the first nonzero entry of
    the column at or below the current row.  With p that pivot and prev the
    one before it (1 at first), every other row becomes
    (p * row - row[c] * pivot_row) // prev, an exact division by Sylvester's
    identity; a row with row[c] == 0 is only rescaled by p / prev.  After
    the call every pivot entry is the last pivot, every other entry of a
    pivot column is zero, and a pivot row divided by its pivot entry is a
    row of the reduced echelon form.  The signed last pivot carries one sign
    flip per row swap; for a square matrix of full rank it is the
    determinant.
    """
    pivots: list[tuple[int, int]] = []
    sign, prev = 1, 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(p * v - f * w) // prev for v, w in zip(row, prow)]
            elif p != prev:
                rows[i] = [p * v // prev for v in row]
        pivots.append((r, c))
        prev = p
        r += 1
        if r == len(rows):
            break
    return pivots, sign * prev


def reduce_row(row: Sequence[int], echelon: Sequence[tuple[int, Sequence[int]]]) -> list[int]:
    """``row`` reduced against fraction-free echelon rows by one Bareiss step each.

    ``echelon`` holds (pivot column, row) pairs, each row already reduced
    against those before it, so its entries in the earlier pivot columns are
    zero.  With p the pivot and prev the one before it (1 at first), the row
    becomes (p * row - row[c] * pivot_row) // prev, exact by Sylvester's
    identity as in ``_eliminate``, and only rescaled by p / prev when
    row[c] == 0.  The result is p_k row + sum_j m_j r_j over the original
    rows r_j, p_k the last pivot, with integers m_j; it is zero in every pivot
    column, and zero everywhere exactly when row lies in their span.
    """
    row = list(row)
    prev = 1
    for c, prow in echelon:
        p, f = prow[c], row[c]
        if f:
            row = [(p * v - f * w) // prev for v, w in zip(row, prow)]
        elif p != prev:
            row = [p * v // prev for v in row]
        prev = p
    return row


def solve(a: Mat, b: Vec) -> tuple[tuple[int, ...], int]:
    """One solution of A x = b, exactly, as (x, p): integer numerators x over p != 0.

    Raises :class:`NoSolution` when the system is inconsistent.  Pivots are
    taken in column order, and coordinates in non-pivot columns are zero,
    so the solution x / p is deterministic.  After the elimination every
    pivot entry is the last pivot p, so with the free coordinates zero the
    pivot row of column c reads p X_c = its right-hand side, which is x_c.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    if len(b) != m:
        raise DimensionMismatch(f"matrix has {m} rows, rhs has {len(b)}")
    rows = _integer_rows((*row, rhs) for row, rhs in zip(a, b))
    pivots, _ = _eliminate(rows, n)
    if any(rows[i][n] for i in range(len(pivots), m)):
        raise NoSolution("inconsistent linear system")
    x = [0] * n
    for r, c in pivots:
        x[c] = rows[r][n]
    p = rows[pivots[-1][0]][pivots[-1][1]] if pivots else 1
    return tuple(x), p


def rank(a: Mat) -> int:
    if not a:
        return 0
    return len(_eliminate(_integer_rows(a), len(a[0]))[0])


def inverse(a: Mat) -> Mat:
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("inverse needs a square matrix")
    rows = _integer_rows((*row, *ident_row) for row, ident_row in zip(a, identity(n)))
    pivots, _ = _eliminate(rows, n)
    if len(pivots) < n:
        raise NoSolution("matrix is singular")
    return tuple(tuple(Fraction(v, rows[r][c]) for v in rows[r][n:]) for r, c in pivots)


def cofactors(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The v with det(x, *rows) = x . v, for k - 1 <= 2 rows of length k."""
    if len(rows) == 2:
        (b0, b1, b2), (c0, c1, c2) = rows
        return (b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0)
    return (rows[0][1], -rows[0][0]) if rows else (1,)


def det(a: Mat) -> Fraction:
    """Determinant: each row is scaled to integers by the lcm s_i of its
    denominators, and det(A) is the signed last pivot of the elimination
    over the product of the s_i, or zero when a pivot is missing."""
    scale = 1
    rows = []
    for row in a:
        s, (ints,) = scaled_rows([row])
        rows.append(ints)
        scale *= s
    pivots, last = _eliminate(rows, len(rows))
    return Fraction(last, scale) if len(pivots) == len(a) else ZERO


@dataclass(frozen=True)
class Signature:
    """Inertia of a symmetric matrix: eigenvalue sign counts."""

    n_plus: int
    n_minus: int
    n_zero: int

    def __iter__(self):
        return iter((self.n_plus, self.n_minus, self.n_zero))


def signature(s: Mat) -> Signature:
    """Inertia of a symmetric rational matrix by symmetric Bareiss elimination.

    The matrix is scaled to integers by one positive factor.  A pivot is any
    active w_kk != 0; with prev the pivot before it (1 at first), w_kk / prev
    is the next diagonal entry of an LDL^T factorisation, positive when
    w_kk * prev > 0, and every other active entry becomes
    (w_kk w_ij - w_ik w_kj) // prev, exact because each entry is a minor.
    When the active diagonal is zero but some w_ij is not, adding row and
    column j to row and column i is a congruence that puts 2 w_ij there; by
    Sylvester's law of inertia it keeps the counts.  The active entries left
    when all are zero count as zero eigenvalues.
    """
    n = len(s)
    for i in range(n):
        if len(s[i]) != n:
            raise NotSymmetric("matrix is not square")
        for j in range(i):
            if s[i][j] != s[j][i]:
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
    w = scaled_rows(s)[1]
    active = list(range(n))
    n_plus = n_minus = 0
    prev = 1
    while active:
        k = next((i for i in active if w[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in active for j in active if w[i][j]), None)
            if pair is None:
                break
            i, j = pair
            for t in active:
                w[i][t] += w[j][t]
            for t in active:
                w[t][i] += w[t][j]
            continue
        p, wk = w[k][k], w[k]
        if p * prev > 0:
            n_plus += 1
        else:
            n_minus += 1
        active.remove(k)
        for i in active:
            wi, f = w[i], w[i][k]
            for j in active:
                wi[j] = (p * wi[j] - f * wk[j]) // prev
        prev = p
    return Signature(n_plus, n_minus, len(active))
