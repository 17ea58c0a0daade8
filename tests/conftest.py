"""Shared fixtures: small fans, matroid fixtures, and seeded samples.

Bergman contexts are built once per test session; their cubical witnesses
come from the LP search, ``find_cubical``.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import strategies as st

import normalvol as nv
from normalvol.errors import (
    DimensionMismatch,
    DimTooLarge,
    GradeOverflow,
    NotInvariant,
    NotPseudocubical,
    WrongGrade,
)
from normalvol.fan import ZERO_CONE, TropicalReport
from normalvol.linalg import ZERO, ONE, dot, identity, mat_vec, qmat, qvec, zeros
from normalvol.normalcx import Context, mixed_volumes


def cone_of(*rids):
    """The cone with these ray ids: the sorted tuple, built without ``normalvol.fan``."""
    return tuple(sorted(rids))


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


def reference_dependent_cones(rays, cones):
    """The cones whose rays are dependent, in the order given: one rank per cone by
    ``_reference_eliminate``.  A fan's refusal names the first of its maximal cones."""
    dependent = []
    for cone in cones:
        rows = [list(rays[rid]) for rid in cone]
        if len(_reference_eliminate(rows, range(len(rows[0])))) < len(cone):
            dependent.append(cone)
    return dependent


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


def _reference_det(a):
    """Determinant by rational Gaussian elimination with row swaps."""
    rows = [list(row) for row in a]
    n, result = len(rows), Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = -result
        result *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [v - f * w for v, w in zip(rows[i], rows[c])]
    return result


def reference_geometric_volume(ctx, sigma, z):
    """The chain-simplex tiling of ``normalcx.geometric_volume_oracle`` over Fraction.

    This is the oracle as it was before it moved to integers, rebuilt from first
    principles: w_tau(z) = sum_theta c_theta u_theta with c solving the Gram block of
    tau against z_tau (``_reference_solve``), vertex coordinates <w_tau(z), u_rho>
    through the Gram matrix, and the |det| of each chain by ``_reference_det``.  It
    refuses what the oracle refuses, in the same order and with the same messages
    (ray ids that are not a sorted tuple first), and shares no arithmetic with
    ``normalvol.normalcx``.
    """
    # a set, a list, ids out of order or not strings, or no collection at all
    if not (type(sigma) is tuple and {type(r) for r in sigma} <= {str} and sigma == cone_of(*sigma)):
        if isinstance(sigma, (tuple, list)):
            shown = list(sigma)
        elif isinstance(sigma, (set, frozenset)):
            shown = sorted(sigma, key=repr if {type(r) for r in sigma} - {str} else None)
        else:
            shown = sigma
        raise DimensionMismatch(f"{type(sigma).__name__} {shown!r} is not a sorted tuple of ray ids")
    if len(sigma) > 3:
        raise DimTooLarge("geometric oracle supports dimension <= 3 only")
    if set(z) != set(ctx.fan.rays):
        raise DimensionMismatch("z-values must be indexed by exactly the fan's rays")
    rays, gram, rids = ctx.fan.rays, ctx.gram, sigma
    w = {}
    for k in range(1, len(rids) + 1):
        for sub in combinations(rids, k):
            if sub not in ctx.fan.cones:
                raise DimensionMismatch(f"{list(sub)} is not a cone of the fan")
            block = [[dot(rays[a], mat_vec(gram, rays[b])) for b in sub] for a in sub]
            c = _reference_solve(block, [z[a] for a in sub], range(k))
            if any(x < 0 for x in c):
                raise NotPseudocubical(f"z is outside the pseudocubical cone at {list(sub)}")
            coords = zip(*(rays[a] for a in sub))
            w[sub] = [sum(x * u for x, u in zip(c, col)) for col in coords]
    vertex = {tau: [dot(v, mat_vec(gram, rays[rho])) for rho in rids] for tau, v in w.items()}
    return sum(
        abs(_reference_det([vertex[cone_of(*order[:i])] for i in range(1, len(order) + 1)]))
        for order in permutations(rids)
    )


def make_quadrant_fan(symmetries=()):
    """Rays +-e1, +-e2 in the plane, four orthant cones, weights 1, and the given
    ray permutations as the fan's symmetries."""
    rays = {
        "r1": (Fraction(1), Fraction(0)),
        "r2": (Fraction(0), Fraction(1)),
        "r3": (Fraction(-1), Fraction(0)),
        "r4": (Fraction(0), Fraction(-1)),
    }
    cones = [(("r1", "r2"), 1), (("r2", "r3"), 1), (("r3", "r4"), 1), (("r4", "r1"), 1)]
    return nv.MarkedFan(2, rays, cones, symmetries=symmetries)


def reversed_coordinates(fan):
    """The same fan with each ray's coordinates reversed: same ids, cones and weights.

    A covector with zero free coordinates on this fan, reversed back, is one
    that prefers the last coordinates of the original fan, so degrees computed
    on both fans compare two choices of covector.
    """
    rays = {rid: u[::-1] for rid, u in fan.rays.items()}
    cones = [(cone, fan.weights[cone]) for cone in fan.max_cones]
    return nv.MarkedFan(fan.ambient_dim, rays, cones, validate_geometry=False)


def dense_rational_matrix(n):
    """An invertible n x n matrix L U with every entry of L and U rational and
    most entries of the product nonzero: L is unit lower triangular and U upper
    triangular with diagonal 2/3."""
    low = [[Fraction(1) if k == i else Fraction(i - k + 1, k + 2) if k < i else 0 for k in range(n)]
           for i in range(n)]
    up = [[Fraction(j - k + 2, 3) if j >= k else 0 for j in range(n)] for k in range(n)]
    return mat_mul(low, up)


def dense_gram(n):
    """M^T M for a dense invertible rational M: positive definite, no zero entry."""
    m = dense_rational_matrix(n)
    return mat_mul(transpose(m), m)


def mapped(fan, a, weights=None):
    """The fan with each ray u replaced by A u: same ids and cones.

    The weights are the fan's, or ``weights[cone]`` where given.  For an
    invertible A this is the same fan in other coordinates, so degrees and
    the balancing condition do not change (covectors map to A^-T v).
    """
    rays = {rid: tuple(mat_vec(a, u)) for rid, u in fan.rays.items()}
    weights = weights or {}
    cones = [(cone, weights.get(cone, fan.weights[cone])) for cone in fan.max_cones]
    return nv.MarkedFan(fan.ambient_dim, rays, cones, validate_geometry=False)


def reference_balancing_report(fan):
    """The balancing check over Fraction: the weighted link sum of each
    codimension-1 cone must lie in the span of its rays.  Ranks come from
    ``_reference_eliminate``, so this shares no arithmetic with ``normalvol``."""
    failing = []
    for tau in fan.cones_of_dim(fan.d - 1):
        total = [Fraction(0)] * fan.ambient_dim
        for eta in fan.link(tau):
            weight = fan.weights[cone_of(*tau, eta)]
            total = [t + weight * u for t, u in zip(total, fan.rays[eta])]
        rows = [list(fan.rays[rid]) for rid in tau] + [total]
        if len(_reference_eliminate(rows, range(fan.ambient_dim))) != len(tau):
            failing.append(tau)
    return TropicalReport(not failing, tuple(failing))


@dataclass(frozen=True)
class ChowClass:
    """A grade-k Chow class over Fraction in the X_sigma basis, zero weights pruned.

    The reference for ``normalvol.chow``, which keeps integer numerators over
    one denominator instead.
    """

    grade: int
    weights: tuple

    @classmethod
    def build(cls, grade, weights):
        items = [(c, v) for c, v in weights.items() if v != 0]
        for cone, _ in items:
            if len(cone) != grade:
                raise WrongGrade(f"cone {list(cone)} has dimension {len(cone)}, not {grade}")
        items.sort()
        return cls(grade, tuple(items))

    @classmethod
    def unit(cls):
        return cls.build(0, {ZERO_CONE: ONE})


def reference_multiply(fan, cls, z):
    """cls * D(z) by the per-ray expansion: one solve per ray rho of each sigma.

    x_rho X_sigma for rho in sigma is rewritten with the covector v_rho dual
    to rho on sigma (<v_rho, u_eta> = [eta == rho] for eta in sigma), solved
    over Fraction by ``_reference_solve`` on the rational rays.
    """
    if cls.grade >= fan.d:
        raise GradeOverflow(f"cannot raise grade {cls.grade} on a {fan.d}-dimensional fan")
    out = {}
    for sigma, c in cls.weights:
        for eta in fan.link(sigma):
            out[cone_of(*sigma, eta)] = out.get(cone_of(*sigma, eta), Fraction(0)) + c * z[eta]
        for rho in sigma:
            if not z[rho]:
                continue
            rhs = qvec([1 if rid == rho else 0 for rid in sigma])
            v = _reference_solve(tuple(fan.rays[rid] for rid in sigma), rhs, range(fan.ambient_dim))
            for eta in fan.link(sigma):
                out[cone_of(*sigma, eta)] -= c * z[rho] * dot(v, fan.rays[eta])
    return ChowClass.build(cls.grade + 1, out)


def reference_degree(fan, cls):
    """The degree map on a grade-d class: the weighted sum of its top-cone coefficients."""
    if cls.grade != fan.d:
        raise WrongGrade(f"degree needs grade {fan.d}, got {cls.grade}")
    return sum((c * fan.weights[sigma] for sigma, c in cls.weights), ZERO)


def reference_deg_product(fan, zs):
    """deg(D(z_1) ... D(z_d)) by ``reference_multiply`` from the unit class."""
    cls = ChowClass.unit()
    for z in zs:
        cls = reference_multiply(fan, cls, z)
    return reference_degree(fan, cls)


def reference_max_min_slack(rows):
    """The rational LP that ``lp.max_min_slack`` solves in integers: maximize t subject
    to row.z >= t, sum(z) = 1 and z >= 0, by the dual over Fraction from the slack
    basis, with Bland's rule and its ratio test by division; (z, t) or None.

    Rows over Fraction, with 1 in every objective entry; ``max_min_slack(rows, dens)``
    is this LP on the rows rows[k] / dens[k].  Shares no code with ``normalvol.lp``.
    """
    m, n = len(rows), len(rows[0])
    tableau = [[row[j] for row in rows] + [ONE if i == j else ZERO for i in range(n)] + [ONE]
               for j in range(n)]
    tableau.append([ONE] * m + [ZERO] * (n + 1))
    basis = list(range(m, m + n))
    while True:
        obj = tableau[-1]
        col = next((j for j in range(m + n) if obj[j] > 0), None)
        if col is None:
            break
        best = None
        for i in range(n):
            if tableau[i][col] > 0:
                ratio = tableau[i][m + n] / tableau[i][col]
                if best is None or ratio < best[1] or (ratio == best[1] and basis[i] < basis[best[0]]):
                    best = (i, ratio)
        if best is None:
            return None  # the dual is unbounded
        row = best[0]
        tableau[row] = [v / tableau[row][col] for v in tableau[row]]
        for i, trow in enumerate(tableau):
            if i != row and trow[col] != 0:
                tableau[i] = [v - trow[col] * w for v, w in zip(trow, tableau[row])]
        basis[row] = col
    value = -tableau[-1][m + n]
    return tuple(-tableau[-1][m + j] / value for j in range(n)), ONE / value


def reference_check_symmetry(ctx, perm):
    """A generator's check as a pass of its own, before any orbit search: it must be a
    bijection of the rays, map every maximal cone to one of equal weight, be induced by
    a linear map and keep the pairing of every ray and 2-cone.  Raises NotInvariant;
    reads only ``ctx.ray_pair`` and, for linearity, ``_reference_solve``: each row m_i
    of a matrix M with M u = u_perm(u) on every ray solves a system over all the rays."""
    fan = ctx.fan
    if perm.keys() != fan.rays.keys() or set(perm.values()) != fan.rays.keys():
        raise NotInvariant("a symmetry must be a bijection of the fan's rays")
    for sigma, w in fan.int_weights.items():
        image = tuple(sorted(perm[rid] for rid in sigma))
        if fan.int_weights.get(image) != w:
            raise NotInvariant(f"a symmetry maps the maximal cone {list(sigma)} to {list(image)}")
    rids = fan.ray_ids()
    rays = [fan.rays[rid] for rid in rids]
    for i in range(fan.ambient_dim):
        targets = [fan.rays[perm[rid]][i] for rid in rids]
        if _reference_solve(rays, targets, range(fan.ambient_dim)) is None:
            raise NotInvariant("no linear map induces a symmetry")
    for a in fan.rays:
        for b in (a, *fan.link((a,))):
            if a <= b and ctx.ray_pair(perm[a], perm[b]) != ctx.ray_pair(a, b):
                raise NotInvariant(f"a symmetry changes the pairing of {a!r} and {b!r}")


def reference_orbits(fan, perms):
    """(order, rep, weights) of ``MarkedFan.orbits`` by a search of its own over checked
    generators: each cone not yet met, in ``fan.cones`` order, is its orbit's
    representative, and its orbit is the closure under the generators."""
    order, rep, weights = [], {}, {}
    for cone in fan.cones:
        if cone in rep:
            continue
        order.append(cone)
        orbit, todo = {cone}, [cone]
        while todo:
            c = todo.pop()
            for perm in perms:
                image = tuple(sorted([perm[rid] for rid in c]))
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        if len(cone) == fan.d:
            weights[cone] = len(orbit) * fan.int_weights[cone]
        orbit.remove(cone)
        rep.update(dict.fromkeys(orbit, cone))
    return order, rep, weights


def total_degree(poly):
    """The largest degree of a monomial of a ``MultiPoly``; 0 for the zero polynomial."""
    return max((sum(e for _, e in mono) for mono in poly.terms), default=0)


def hessian(poly, variables):
    """The constant Hessian of a quadratic ``MultiPoly``, in the given variable order.

    The reference for ``normalcx.star_hessians``: it reads the polynomial's
    terms, not the adjugates.
    """
    if total_degree(poly) > 2:
        raise DimensionMismatch("hessian matrix requires a quadratic polynomial")
    index = {v: i for i, v in enumerate(variables)}
    h = [[ZERO] * len(index) for _ in index]
    for mono, coeff in poly.terms.items():
        if sum(e for _, e in mono) != 2:
            continue
        if len(mono) == 1:
            (var, _), = mono
            h[index[var]][index[var]] += 2 * coeff
        else:
            (v1, _), (v2, _) = mono
            i, j = index[v1], index[v2]
            h[i][j] += coeff
            h[j][i] += coeff
    return tuple(tuple(row) for row in h)


def product_fan(a, b):
    """Product of two fans in the direct sum of their ambient spaces.

    Ray ids are prefixed "L." and "R." to keep the factors disjoint; weights multiply.
    """
    rays = {"L." + rid: tuple(u) + zeros(b.ambient_dim) for rid, u in a.rays.items()}
    rays.update({"R." + rid: zeros(a.ambient_dim) + tuple(u) for rid, u in b.rays.items()})
    cones = [
        (["L." + r for r in ca] + ["R." + r for r in cb], a.weights[ca] * b.weights[cb])
        for ca in a.max_cones
        for cb in b.max_cones
    ]
    return nv.MarkedFan(a.ambient_dim + b.ambient_dim, rays, cones, validate_geometry=False)


def make_pm1_fan(weights=(1, 1), symmetries=()):
    """The 1-dimensional fan with rays at +1 and -1, and the given symmetries."""
    rays = {"p": (Fraction(1),), "m": (Fraction(-1),)}
    cones = [(("p",), weights[0]), (("m",), weights[1])]
    return nv.MarkedFan(1, rays, cones, symmetries=symmetries)


def with_symmetries(fan, symmetries):
    """The same fan, with the given ray permutations as its symmetries."""
    cones = [(cone, fan.weights[cone]) for cone in fan.max_cones]
    return nv.MarkedFan(
        fan.ambient_dim, fan.rays, cones, validate_geometry=False, symmetries=symmetries
    )


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


def reference_graphic_flats(edges):
    """The flats of a multigraph's cycle matroid, as edge bitsets, from a rank oracle:
    a set S is a flat when adding any edge outside it raises the rank, the number of
    vertices its edges touch less the number of components they form (by depth-first
    search).  Reads every subset of the edges."""

    def rank(mask):
        chosen = [e for i, e in enumerate(edges) if mask >> i & 1]
        vertices = {x for e in chosen for x in e}
        seen, components = set(), 0
        for start in vertices:
            if start not in seen:
                components += 1
                seen.add(start)
                todo = [start]
                while todo:
                    x = todo.pop()
                    for u, v in chosen:
                        for a, b in ((u, v), (v, u)):
                            if a == x and b not in seen:
                                seen.add(b)
                                todo.append(b)
        return len(vertices) - components

    masks = range(1 << len(edges))
    return {
        s for s in masks
        if all(rank(s | 1 << i) > rank(s) for i in range(len(edges)) if not s >> i & 1)
    }


def flats_of_rank(m, k):
    """The flats of rank k of a matroid, in ``m.flats`` order."""
    return tuple(f for f in m.flats if m.rank_of_flat(f) == k)


def sparse_paving_flats(ground, r, circuit_hyperplanes):
    """The flats of the sparse paving matroid of rank r on ground with these
    circuit-hyperplanes (r-sets meeting pairwise in at most r - 2 elements):
    every set of size <= r - 2, the (r - 1)-sets inside no circuit-hyperplane,
    the circuit-hyperplanes and the ground set."""
    hyperplanes = [set(h) for h in circuit_hyperplanes]
    small = [list(s) for k in range(r - 1) for s in combinations(ground, k)]
    free = [
        list(s) for s in combinations(ground, r - 1) if not any(set(s) <= h for h in hyperplanes)
    ]
    return small + free + [sorted(h) for h in hyperplanes] + [list(ground)]


# The Vamos matroid: rank 4 on aA bB cC dD, its circuit-hyperplanes the unions of
# two pairs other than cCdD.  No field represents it.
VAMOS_GROUND = ["a", "A", "b", "B", "c", "C", "d", "D"]
VAMOS_FLATS = sparse_paving_flats(VAMOS_GROUND, 4, ["aAbB", "aAcC", "aAdD", "bBcC", "bBdD"])


@st.composite
def sparse_paving_matroids(draw, sizes, ranks):
    """(ground, r, circuit-hyperplanes) with |ground| from sizes and r from ranks.

    Drawn r-sets are kept in order when they meet every kept one in at most
    r - 2 elements; an empty list gives the uniform matroid U(r, n).
    """
    n, r = draw(st.sampled_from(sizes)), draw(st.sampled_from(ranks))
    ground = [f"e{i}" for i in range(n)]
    subsets = st.sets(st.sampled_from(ground), min_size=r, max_size=r)
    kept = []
    for s in draw(st.lists(subsets, max_size=2 * n)):
        if all(len(s & h) <= r - 2 for h in kept):
            kept.append(s)
    return ground, r, [sorted(h) for h in kept]


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


def boundary_limit_margins(ctx, bases, witness, ts):
    """Compare MVol along cubical approximants with its multilinear expansion.

    For z_i(t) = (1-t) * bases[i] + t * witness, the mixed volume is a
    polynomial p(t) determined by the 2^d mixed volumes of base/witness
    choices.  Returns, per t, the (identically zero) difference between the
    direct evaluation and p(t); the t = 0 value of p is the boundary value.
    """
    d = ctx.fan.d
    rays = ctx.fan.ray_ids()
    masks = range(1 << d)
    corners = [[witness if mask >> i & 1 else bases[i] for i in range(d)] for mask in masks]
    zts = {}
    for t in ts:
        t = Fraction(t)
        zts[t] = [
            {rid: (ONE - t) * Fraction(b[rid]) + t * Fraction(witness[rid]) for rid in rays}
            for b in bases
        ]
    values = mixed_volumes(ctx, corners + list(zts.values()))
    corner = dict(zip(masks, values))

    def p(t):
        total = ZERO
        for mask, value in corner.items():
            k = mask.bit_count()
            total += (ONE - t) ** (d - k) * t**k * value
        return total

    direct = values[len(corners) :]
    return {t: value - p(t) for t, value in zip(zts, direct)}
