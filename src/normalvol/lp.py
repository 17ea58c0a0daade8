"""Exact linear programming by the simplex method.

Bland's rule is used throughout, so the solver never cycles.  Everything is
rational and desk-scale.  ``simplex_max`` runs the textbook two phases; the
cubical search, ``max_min_slack``, solves a dual that needs no phase 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import Infeasible, Unbounded
from .linalg import Vec, ZERO, ONE


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    inv = ONE / tableau[row][col]
    tableau[row] = [inv * v for v in tableau[row]]
    for i, trow in enumerate(tableau):
        if i != row and trow[col] != 0:
            f = trow[col]
            tableau[i] = [v - f * w for v, w in zip(trow, tableau[row])]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> None:
    """Iterate on a tableau whose last row is the (maximization) objective."""
    obj = tableau[-1]
    while True:
        col = next((j for j in range(ncols) if obj[j] > 0), None)  # Bland: first improving
        if col is None:
            return
        best_row = None
        best_ratio = None
        for i in range(len(tableau) - 1):
            if tableau[i][col] > 0:
                ratio = tableau[i][ncols] / tableau[i][col]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_row])
                ):
                    best_row, best_ratio = i, ratio
        if best_row is None:
            raise Unbounded("objective unbounded above")
        _pivot(tableau, basis, best_row, col)
        obj = tableau[-1]


def simplex_max(a: Sequence[Vec], b: Vec, c: Vec) -> tuple[Vec, Fraction]:
    """Maximize c.x subject to A x = b, x >= 0.

    Returns (optimal x, optimal value).  Raises Infeasible or Unbounded.
    """
    m, n = len(a), len(c)
    rows = [list(row) for row in a]
    rhs = list(b)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # Phase 1: artificial variables, maximize -(sum of artificials).
    width = n + m
    tableau = [rows[i] + [ONE if j == i else ZERO for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    phase1_obj = [sum(tableau[i][j] for i in range(m)) for j in range(width + 1)]
    for j in range(n, width):
        phase1_obj[j] = ZERO  # reduced cost of a basic artificial is zero
    tableau.append(phase1_obj)
    _run_simplex(tableau, basis, width)
    if tableau[-1][width] != 0:
        raise Infeasible("phase 1 optimum is nonzero")
    # Drive artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is not None:
                _pivot(tableau, basis, i, col)
    # Drop rows whose basic variable is still artificial (redundant constraints).
    keep = [i for i in range(m) if basis[i] < n]
    tableau = [[tableau[i][j] for j in range(n)] + [tableau[i][width]] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2.
    objective = list(c) + [ZERO]
    for i, bi in enumerate(basis):
        if objective[bi] != 0:
            f = objective[bi]
            objective = [v - f * w for v, w in zip(objective, tableau[i])]
    tableau.append(objective)
    _run_simplex(tableau, basis, n)
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = tableau[i][n]
    return tuple(x), -tableau[-1][n]


def feasible_nonneg(a: Sequence[Vec], b: Vec) -> Vec | None:
    """Return some x >= 0 with A x = b, or None when no such x exists."""
    n = len(a[0]) if a else 0
    try:
        x, _ = simplex_max(a, b, (ZERO,) * n)
    except Infeasible:
        return None
    return x


def max_min_slack(rows: Sequence[Vec]) -> tuple[Vec, Fraction] | None:
    """Maximize t subject to row.z >= t for every row, sum(z) = 1 and z >= 0.

    Returns (z, t) with t > 0, or None when no z >= 0 has every row.z > 0.
    By homogeneity 1/t = min sum(z) subject to row.z >= 1 and z >= 0.  Its
    dual, max sum(y) subject to sum_k y_k row_k <= 1 and y >= 0, is solved
    from the feasible slack basis, one tableau row per coordinate of z.  An
    unbounded dual means an infeasible primal.  At the optimum v, the
    reduced cost of slack column j is -v z_j, and t = 1/v.
    """
    m, n = len(rows), len(rows[0])
    tableau = [
        [row[j] for row in rows] + [ONE if i == j else ZERO for i in range(n)] + [ONE]
        for j in range(n)
    ]
    tableau.append([ONE] * m + [ZERO] * (n + 1))
    basis = list(range(m, m + n))
    try:
        _run_simplex(tableau, basis, m + n)
    except Unbounded:
        return None
    obj = tableau[-1]
    value = -obj[m + n]
    return tuple(-obj[m + j] / value for j in range(n)), ONE / value
