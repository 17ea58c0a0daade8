"""Exact rational linear algebra.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Every
routine here is exact: there is no floating point anywhere, so results can
be compared with ``==``.  Elimination is fraction-free, with one row step:
``reduce_row`` reduces a row against rows already in fraction-free echelon
form, by one Bareiss step per row, over the pivot that came before them.
It is the library's one row update.  ``rank``, ``solve``, ``det`` and
``inverse`` scale their rows to integers and push them, in input order,
through ``echelon``, a forward pass of that step; their results equal
those of rational elimination.  ``solve`` back-substitutes exactly and
returns one solution as integer numerators over one denominator, the last
pivot, with its free coordinates zero; the Chow covectors use it, star fans
use ``inverse``, fan validation's sign certificates and a fan's refusal of a
cone with dependent rays (to name that cone) use ``rank``, linear matroids
find each closure and their rank with ``echelon`` itself, and the geometric
oracle expands its integer determinants along ``cofactors``.  A fan's one echelon walk, when it is built, builds its
rows one ray at a time with ``reduce_row`` and reads both its simpliciality
and its balancing certificates off them, without ``rank``; the cubical LP
(``lp.max_min_slack``) updates each tableau row with it, over its last
pivot.  The four eliminating routines take integer rows as well as
rational ones, and a row that is all ``int`` is eliminated as it is, with
no scaling.  ``signature`` keeps its own symmetric pivot rule, over the
whole matrix scaled to integers by one factor, but not its own step: it
updates each active row with ``reduce_row``.  ``border_adjugate`` borders
an integer determinant and adjugate by one row and column, the one step
of each cone's Gram adjugate (``normalcx.Context.cone_gram_inverse``).  So
only this module divides by a previous pivot or minor.  ``scaled_rows`` is
the one scaling of a matrix by the lcm of all its denominators; fans scale
their rays and weights, contexts their Gram and ``scaled_to_int`` a
truncation with it.
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


def reduce_row(
    row: Sequence[int], echelon: Sequence[tuple[int, Sequence[int]]], prev: int = 1
) -> Sequence[int]:
    """``row`` reduced against fraction-free echelon rows by one Bareiss step each.

    ``echelon`` holds (pivot column, row) pairs, each row already reduced
    against those before it, so its entries in the earlier pivot columns are
    zero, and ``prev`` is the pivot that came before the first of them (1 at
    the start of an elimination).  With p the pivot, the row becomes
    (p * row - row[c] * pivot_row) // prev, exact by Sylvester's identity,
    and only rescaled by p / prev when row[c] == 0; then p is the next prev.
    A row that no step changes (row[c] == 0 and p == prev at every step) is
    returned as the same object.  The result is p_k row + sum_j m_j r_j over
    the original rows r_j, p_k the last pivot, with integers m_j; it is zero
    in every pivot column, and zero everywhere exactly when row lies in
    their span.
    """
    for c, prow in echelon:
        p, f = prow[c], row[c]
        if f:
            row = [(p * v - f * w) // prev for v, w in zip(row, prow)]
        elif p != prev:
            row = [p * v // prev for v in row]
        prev = p
    return row


def border_adjugate(
    d: int, adj: Sequence[Sequence[int]], b: Sequence[int], c: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D', adj') of the symmetric integer matrix [[G, b], [b^T, c]], from (D, adj) of G.

    D = det G != 0 and adj its adjugate, with (1, ()) for the empty matrix.
    With a = adj b, D' = c D - b.a and adj' = [[(D' adj + a a^T) / D, -a], [-a^T, D]].
    The division by D, the previous minor, is exact: its quotient is the
    block of adj', and the adjugate of an integer matrix is integral
    (Sylvester's identity, as in ``reduce_row``).
    """
    a = [sum(x * y for x, y in zip(row, b)) for row in adj]
    d_new = c * d - sum(x * y for x, y in zip(a, b))
    rows = [
        tuple((d_new * v + ai * aj) // d for v, aj in zip(row, a)) + (-ai,)
        for row, ai in zip(adj, a)
    ]
    rows.append(tuple(-x for x in a) + (d,))
    return d_new, tuple(rows)


def echelon(
    rows: Iterable[Sequence[int]], ncols: int
) -> tuple[list[tuple[int, Sequence[int]]], list[Sequence[int]]]:
    """(echelon, residual): ``rows`` pushed in input order, each reduced by ``reduce_row``
    against those already pushed; a row's pivot is its first nonzero entry among the
    first ``ncols``, and a row with none there is residual."""
    echelon, residual = [], []
    for row in rows:
        row = reduce_row(row, echelon)
        c = next((j for j in range(ncols) if row[j]), None)
        if c is None:
            residual.append(row)
        else:
            echelon.append((c, row))
    return echelon, residual


def solve(a: Mat, b: Vec) -> tuple[tuple[int, ...], int]:
    """One solution of A x = b, exactly, as (x, p): integer numerators x over p != 0.

    Raises :class:`NoSolution` when the system is inconsistent, which is when
    a residual row of (A | b) has a nonzero right-hand side.  Sorted by pivot
    column the echelon rows are a staircase, so their pivot columns are those
    of the reduced echelon form; coordinates in the other columns are zero,
    so the solution x / p is deterministic.  p is the last pivot, +- a minor
    of A on the echelon's rows and pivot columns, so by Cramer's rule p times
    the solution is integral, and back substitution from the last pivot
    column reads it exactly: x_c = (p rhs - sum_j row[j] x_j) // row[c].
    """
    m, n = len(a), len(a[0]) if a else 0
    if len(b) != m:
        raise DimensionMismatch(f"matrix has {m} rows, rhs has {len(b)}")
    pivot_rows, residual = echelon(_integer_rows((*row, rhs) for row, rhs in zip(a, b)), n)
    if any(row[n] for row in residual):
        raise NoSolution("inconsistent linear system")
    p = pivot_rows[-1][1][pivot_rows[-1][0]] if pivot_rows else 1
    x = [0] * n
    for c, row in sorted(pivot_rows, reverse=True):
        x[c] = (p * row[n] - sum(row[j] * x[j] for j in range(c + 1, n))) // row[c]
    return tuple(x), p


def rank(a: Mat) -> int:
    return len(echelon(_integer_rows(a), len(a[0]))[0]) if a else 0


def inverse(a: Mat) -> Mat:
    """A^-1, column by column: ``solve`` on the columns of the identity."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("inverse needs a square matrix")
    try:
        columns = [solve(a, e) for e in identity(n)]
    except NoSolution:
        raise NoSolution("matrix is singular") from None
    return tuple(zip(*(tuple(Fraction(v, p) for v in x) for x, p in columns)))


def cofactors(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The v with det(x, *rows) = x . v, for k - 1 <= 2 rows of length k."""
    if len(rows) == 2:
        (b0, b1, b2), (c0, c1, c2) = rows
        return (b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0)
    return (rows[0][1], -rows[0][0]) if rows else (1,)


def det(a: Mat) -> Fraction:
    """Determinant: A is scaled to integers once, by the lcm s of its denominators,
    and det(A) is the last pivot of ``echelon``, signed by the parity of the
    order in which the pivot columns came, over s^n; zero when a row leaves no pivot."""
    if any(len(row) != len(a) for row in a):
        raise DimensionMismatch("det needs a square matrix")
    s, rows = scaled_rows(a)
    pivot_rows, residual = echelon(rows, len(rows))
    if residual:
        return ZERO
    cols = [c for c, _ in pivot_rows]
    sign = (-1) ** sum(x > y for i, x in enumerate(cols) for y in cols[i + 1 :])
    return Fraction(sign * pivot_rows[-1][1][cols[-1]] if pivot_rows else 1, s ** len(rows))


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
    w_kk * prev > 0, and every other active row becomes
    ``reduce_row(w_i, ((k, w_k),), prev)``, (w_kk w_i - w_ik w_k) // prev,
    exact because each entry is a minor.  The step runs over whole rows: an
    eliminated column is zero in every active row, and stays zero, so the
    active block is the one of the elimination over active entries alone.
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
        p = w[k][k]
        if p * prev > 0:
            n_plus += 1
        else:
            n_minus += 1
        active.remove(k)
        for i in active:
            w[i] = reduce_row(w[i], ((k, w[k]),), prev)
        prev = p
    return Signature(n_plus, n_minus, len(active))
