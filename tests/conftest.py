"""Shared fixtures: small fans, matroid fixtures, and seeded samples.

Bergman contexts are built once per test session; their cubical witnesses
come from the LP search, ``find_cubical``.
"""

from fractions import Fraction

import pytest

import normalvol as nv
from normalvol.linalg import identity, qmat
from normalvol.normalcx import Context


def mat_mul(a, b):
    """Reference matrix product; the library has none."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def transpose(m):
    return tuple(zip(*m))


def _reference_eliminate(rows, col_order):
    """Gauss-Jordan over Fraction in the given column order: normalize each
    pivot row, clear its column.  Shares no code with ``normalvol.linalg``."""
    pivots = []
    r = 0
    for c in col_order:
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    return pivots


def _reference_solve(a, b, col_order):
    """x with zero free coordinates, or None when A x = b is inconsistent."""
    n = len(a[0])
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    pivots = _reference_eliminate(rows, col_order)
    if any(rows[i][n] != 0 for i in range(len(pivots), len(a))):
        return None
    x = [Fraction(0)] * n
    for r, c in pivots:
        x[c] = rows[r][n]
    return tuple(x)


def make_quadrant_fan():
    """Rays +-e1, +-e2 in the plane, four orthant cones, weights 1."""
    rays = {
        "r1": (Fraction(1), Fraction(0)),
        "r2": (Fraction(0), Fraction(1)),
        "r3": (Fraction(-1), Fraction(0)),
        "r4": (Fraction(0), Fraction(-1)),
    }
    cones = [(("r1", "r2"), 1), (("r2", "r3"), 1), (("r3", "r4"), 1), (("r4", "r1"), 1)]
    return nv.MarkedFan(2, rays, cones)


def reversed_coordinates(fan):
    """The same fan with each ray's coordinates reversed: same ids, cones and weights.

    A covector with zero free coordinates on this fan, reversed back, is one
    that prefers the last coordinates of the original fan, so degrees computed
    on both fans compare two choices of covector.
    """
    rays = {rid: u[::-1] for rid, u in fan.rays.items()}
    cones = [(cone, fan.weights[cone]) for cone in fan.max_cones]
    return nv.MarkedFan(fan.ambient_dim, rays, cones, validate_geometry=False)


def make_pm1_fan(weights=(1, 1)):
    """The 1-dimensional fan with rays at +1 and -1."""
    rays = {"p": (Fraction(1),), "m": (Fraction(-1),)}
    return nv.MarkedFan(1, rays, [(("p",), weights[0]), (("m",), weights[1])])


QUADRANT_JSON = {
    "ambient_dim": 2,
    "rays": [
        {"id": "r1", "u": ["1", "0"]},
        {"id": "r2", "u": ["0", "1"]},
        {"id": "r3", "u": ["-1", "0"]},
        {"id": "r4", "u": ["0", "-1"]},
    ],
    "max_cones": [
        {"rays": ["r1", "r2"], "weight": "1"},
        {"rays": ["r2", "r3"], "weight": "1"},
        {"rays": ["r3", "r4"], "weight": "1"},
        {"rays": ["r4", "r1"], "weight": "1"},
    ],
}


K4_EDGES = [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")]
K4_MINUS_EDGE = K4_EDGES[:5]


def make_matroid(name):
    if name == "U23":
        return nv.uniform(2, 3)
    if name == "U34":
        return nv.uniform(3, 4)
    if name == "U35":
        return nv.uniform(3, 5)
    if name == "U45":
        return nv.uniform(4, 5)
    if name == "K4":
        return nv.graphic(K4_EDGES)
    if name == "K4e":
        return nv.graphic(K4_MINUS_EDGE)
    raise KeyError(name)


MATROID_NAMES = ("U23", "U34", "U35", "U45", "K4", "K4e")


class BergmanFixture:
    def __init__(self, name):
        self.name = name
        self.matroid = make_matroid(name)
        self.e0 = self.matroid.ground[0]
        self.fan = nv.bergman_fan(self.matroid, self.e0)
        self.gram = nv.e0_inner_product(self.matroid, self.e0)
        self.ctx = Context(self.fan, self.gram)
        self.z_alpha, self.z_beta = nv.alpha_beta_z(self.matroid, self.e0)

    def cubical_witness(self):
        found = nv.find_cubical(self.ctx)
        assert found is not None
        return found[0]


_BERGMAN_CACHE = {}


def bergman(name) -> BergmanFixture:
    if name not in _BERGMAN_CACHE:
        _BERGMAN_CACHE[name] = BergmanFixture(name)
    return _BERGMAN_CACHE[name]


@pytest.fixture(scope="session")
def quadrant_ctx():
    return Context(make_quadrant_fan(), identity(2))


@pytest.fixture(scope="session")
def pm1_ctx():
    return Context(make_pm1_fan(), identity(1))


def rational_gram(entries):
    return qmat(entries)
