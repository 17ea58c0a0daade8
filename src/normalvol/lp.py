"""Exact linear programming by the simplex method.

Bland's rule is used throughout, so the solver never cycles, and ``_bland``
picks every pivot: the first improving column, then the least ratio by
cross-multiplication, ties to the least basic index.

``simplex_max`` runs the textbook two phases on one ``Fraction`` tableau,
built once: the rows of A x = b, each with its artificial column, then c's
reduced costs, which every pivot updates, then the phase-1 objective,
popped when phase 1 ends.  Phase 2 lets only the real columns enter, so an
artificial left basic on a redundant row, whose real entries are all zero,
stays in place and never wins a ratio test.

The cubical search, ``max_min_slack``, solves a dual that needs no phase 1,
fraction-free: its tableau holds integers over one positive denominator,
the last pivot, and each row update is ``linalg.reduce_row`` over that
pivot, one Bareiss step, exact by Sylvester's identity (as in lrs, Avis
2000); this module does no row arithmetic of its own for it.  Scaling a
column or the objective row by a positive factor changes no sign and no
ratio order, so Bland's rule takes the same pivots as on the rational
tableau.  ``simplex_max`` and fan validation stay on ``Fraction`` rows until
the benchmark's peak RSS stops growing with the number of set-up repeats
(ROADMAP item 1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import Infeasible, Unbounded
from .linalg import Vec, ZERO, ONE, reduce_row


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    inv = ONE / tableau[row][col]
    tableau[row] = [inv * v for v in tableau[row]]
    for i, trow in enumerate(tableau):
        if i != row and trow[col] != 0:
            f = trow[col]
            tableau[i] = [v - f * w for v, w in zip(trow, tableau[row])]
    basis[row] = col


def _bland(tableau: list[list], basis: list[int], ncols: int) -> tuple[int, int] | None:
    """Bland's (row, col), or None at the optimum, on a tableau whose first
    ``len(basis)`` rows are the constraints and whose last row is the
    (maximization) objective.  Each row's right-hand side is its last entry,
    only the first ``ncols`` columns may enter, and rows share one positive
    denominator."""
    obj = tableau[-1]
    col = next((j for j in range(ncols) if obj[j] > 0), None)  # first improving
    if col is None:
        return None
    best = None
    for i, row in enumerate(tableau[: len(basis)]):
        if row[col] > 0 and (
            best is None
            or (row[-1] * tableau[best][col], basis[i])
            < (tableau[best][-1] * row[col], basis[best])
        ):
            best = i
    if best is None:
        raise Unbounded("objective unbounded above")
    return best, col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> None:
    while (step := _bland(tableau, basis, ncols)) is not None:
        _pivot(tableau, basis, *step)


def simplex_max(a: Sequence[Vec], b: Vec, c: Vec) -> tuple[Vec, Fraction]:
    """Maximize c.x subject to A x = b, x >= 0.

    Returns (optimal x, optimal value).  Raises Infeasible or Unbounded.
    """
    m, n = len(a), len(c)
    rows = [(row, bi) if bi >= 0 else ([-v for v in row], -bi) for row, bi in zip(a, b)]
    tableau = [
        [*row, *(ONE if j == i else ZERO for j in range(m)), bi] for i, (row, bi) in enumerate(rows)
    ]
    basis = [n + i for i in range(m)]
    # Phase 1 maximizes -(sum of artificials): its reduced costs are the
    # column sums of the rows, less 1 on each (basic) artificial.  Above it
    # rides c, which is its own reduced-cost row while only artificials, of
    # cost 0, are basic; every pivot keeps it so.
    phase1 = [sum(col) for col in zip(*tableau, [ZERO] * n + [-ONE] * m + [ZERO])]
    tableau += [[*c, *[ZERO] * (m + 1)], phase1]
    _run_simplex(tableau, basis, n + m)
    if tableau.pop()[-1] != 0:
        raise Infeasible("phase 1 optimum is nonzero")
    # Drive artificials out of the basis where possible.  A row whose
    # artificial stays basic is zero on every real column, so phase 2, where
    # only real columns enter, never pivots on it.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is not None:
                _pivot(tableau, basis, i, col)
    _run_simplex(tableau, basis, n)
    values = dict(zip(basis, (row[-1] for row in tableau)))
    return tuple(values.get(j, ZERO) for j in range(n)), -tableau[-1][-1]


def feasible_nonneg(a: Sequence[Vec], b: Vec) -> Vec | None:
    """Return some x >= 0 with A x = b, or None when no such x exists."""
    n = len(a[0]) if a else 0
    try:
        x, _ = simplex_max(a, b, (ZERO,) * n)
    except Infeasible:
        return None
    return x


def max_min_slack(
    rows: Sequence[Sequence[int]], dens: Sequence[int]
) -> tuple[Vec, Fraction] | None:
    """Maximize t subject to rows[k].z >= dens[k] t, sum(z) = 1 and z >= 0.

    Integer rows, dens[k] > 0.  Returns (z, t) with t > 0, or None when no
    z >= 0 has every rows[k].z > 0.  By homogeneity 1/t = min sum(z) subject
    to rows[k].z >= dens[k] and z >= 0.  Its dual, max sum_k dens[k] y_k
    subject to sum_k y_k rows[k] <= 1 and y >= 0, is solved from the feasible
    slack basis, one tableau row per coordinate of z; an unbounded dual means
    an infeasible primal.  The tableau is its integers over den, the last
    pivot, and a pivot on (r, c) updates every other row by
    ``reduce_row(T[i], ((c, T[r]),), den)``, to (p T[i] - T[i][c] T[r]) // den
    with p = T[r][c]; a row with T[i][c] == 0 is only rescaled by p / den,
    and kept as it is when p == den.  At the optimum v, the reduced cost of
    slack column j is -v z_j, and t = 1/v.
    """
    m, n = len(rows), len(rows[0])
    tableau = [[row[j] for row in rows] + [int(i == j) for i in range(n)] + [1] for j in range(n)]
    tableau.append(list(dens) + [0] * (n + 1))
    basis = list(range(m, m + n))
    den = 1
    try:
        while (step := _bland(tableau, basis, m + n)) is not None:
            r, c = step
            pivot = ((c, tableau[r]),)
            tableau = [
                row if i == r else reduce_row(row, pivot, den) for i, row in enumerate(tableau)
            ]
            basis[r], den = c, tableau[r][c]
    except Unbounded:
        return None
    obj = tableau[-1]  # obj[m + n] = -v den < 0
    return tuple(Fraction(obj[m + j], obj[m + n]) for j in range(n)), Fraction(-den, obj[m + n])
