import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import normalvol as nv
from normalvol.errors import (
    ArityMismatch,
    DimensionMismatch,
    DimTooLarge,
    NormalVolError,
    NotPseudocubical,
    NotSymmetric,
)
from normalvol.fan import ZERO_CONE, star, star_connected_minus_origin
from normalvol.linalg import dot, identity, mat_vec, qmat, qvec
from normalvol import chow, normalcx
from normalvol.normalcx import (
    OUTSIDE,
    Context,
    classify_z,
    face_complex,
    geometric_volume_oracle,
    mvol_polarization_oracle,
    mvol_recursive,
    polytope_vertices,
    restrict_z,
    vol_polynomial,
    vol_recursive,
    w_vector,
)
from normalvol.poly import MultiPoly

from conftest import bergman, make_pm1_fan, make_quadrant_fan


def F(x, y=1):
    return Fraction(x, y)


def zmap(**kwargs):
    return {k: Fraction(v) for k, v in kwargs.items()}


# -- context validation -----------------------------------------------------


def test_cone_gram_inverse_borders_through_linalg(monkeypatch):
    """Each cone's (D, adj) comes from ``linalg.border_adjugate``; the zero cone's is (1, ())."""

    def boom(*args):
        raise RuntimeError("border_adjugate")

    monkeypatch.setattr(normalcx, "border_adjugate", boom)
    ctx = Context(make_quadrant_fan(), identity(2))
    assert ctx.cone_gram_inverse(ZERO_CONE) == (1, ())
    with pytest.raises(RuntimeError, match="border_adjugate"):
        ctx.cone_gram_inverse(("r1",))


def test_gram_must_be_symmetric():
    with pytest.raises(NotSymmetric):
        Context(make_quadrant_fan(), qmat([[1, 1], [0, 1]]))


def test_gram_must_be_positive_definite():
    for gram in ([[1, 2], [2, 1]], [[1, 1], [1, 1]]):  # indefinite, singular
        with pytest.raises(NormalVolError):
            Context(make_quadrant_fan(), qmat(gram))


# -- w-vectors ----------------------------------------------------------------


def test_w_vector_zero_z(quadrant_ctx):
    w = w_vector(quadrant_ctx, ("r1", "r2"), zmap(r1=0, r2=0, r3=0, r4=0))
    assert w.coords == qvec([0, 0])
    assert all(c == 0 for _, c in w.coefficients)


def test_w_vector_orthonormal_cone(quadrant_ctx):
    z = zmap(r1=3, r2=5, r3=0, r4=0)
    w = w_vector(quadrant_ctx, ("r1", "r2"), z)
    assert w.coords == qvec([3, 5])
    assert dict(w.coefficients)["r1"] == 3 and dict(w.coefficients)["r2"] == 5


def test_w_vector_single_ray_formula():
    # w = (z / (u*u)) u for a single ray
    fan = nv.MarkedFan(2, {"a": qvec([2, 1]), "b": qvec([-1, 0])}, [(("a",), 1), (("b",), 1)])
    ctx = Context(fan, identity(2))
    w = w_vector(ctx, ("a",), {"a": F(10), "b": F(0)})
    assert w.coords == qvec([4, 2])  # (10/5) * (2,1)
    assert dict(w.coefficients)["a"] == 2


def test_w_vector_defining_equations(quadrant_ctx):
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    for cone in quadrant_ctx.fan.cones:
        w = w_vector(quadrant_ctx, cone, z)
        for rid in cone:
            assert dot(w.coords, mat_vec(quadrant_ctx.gram, quadrant_ctx.fan.rays[rid])) == z[rid]


# -- classification --------------------------------------------------------------


def test_classify_positive_is_cubical(quadrant_ctx):
    assert nv.classify_z(quadrant_ctx, zmap(r1=1, r2=2, r3=3, r4=4)).is_cubical


def test_classify_zero_is_boundary(quadrant_ctx):
    report = nv.classify_z(quadrant_ctx, zmap(r1=0, r2=0, r3=0, r4=0))
    assert report.classification == "pseudocubical-boundary"
    assert report.is_pseudocubical and not report.is_cubical


def test_classify_negative_is_outside(quadrant_ctx):
    report = nv.classify_z(quadrant_ctx, zmap(r1=-1, r2=1, r3=1, r4=1))
    assert report.classification == "outside"
    assert report.witness_ray == "r1"


# -- find_cubical ------------------------------------------------------------------


def test_find_cubical_quadrant(quadrant_ctx):
    z, slack = nv.find_cubical(quadrant_ctx)
    assert z == zmap(r1=F(1, 4), r2=F(1, 4), r3=F(1, 4), r4=F(1, 4))
    assert slack == F(1, 4)


def test_find_cubical_pm1(pm1_ctx):
    z, slack = nv.find_cubical(pm1_ctx)
    assert z == {"p": F(1, 2), "m": F(1, 2)}
    assert slack == F(1, 2)


@pytest.mark.parametrize(
    "name, slack", [("U34", F(1, 32)), ("K4", F(5, 271)), ("U35", F(1, 57)), ("U45", F(1, 143))]
)
def test_find_cubical_slack_anchors(name, slack):
    # Bergman fans with the identity Gram; the LP optimum is the smallest coefficient.
    fan = bergman(name).fan
    ctx = Context(fan, identity(fan.ambient_dim))
    z, found = nv.find_cubical(ctx)
    assert found == slack
    assert nv.classify_z(ctx, z).is_cubical
    # c_sigma(z) for every nonzero cone sigma
    cones = [cone for cone in ctx.fan.cones if cone]
    assert min(c for cone in cones for _, c in w_vector(ctx, cone, z).coefficients) == slack


# -- restriction ---------------------------------------------------------------------


def test_restrict_zero_cone_identity(quadrant_ctx):
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    assert restrict_z(quadrant_ctx, ZERO_CONE, z) == z


def test_restrict_orthogonal_rays_unchanged(quadrant_ctx):
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    restricted = restrict_z(quadrant_ctx, ("r1",), z)
    assert restricted == {"r2": F(2), "r4": F(4)}


def test_restrict_single_ray_formula():
    # z^rho_eta = z_eta - (u_rho*u_eta)/(u_rho*u_rho) z_rho
    rays = {"a": qvec([1, 0]), "b": qvec([1, 1]), "c": qvec([-1, 0]), "d": qvec([0, -1])}
    fan = nv.MarkedFan(2, rays, [(("a", "b"), 1), (("b", "c"), 1), (("c", "d"), 1), (("d", "a"), 1)])
    ctx = Context(fan, identity(2))
    z = zmap(a=2, b=3, c=5, d=7)
    restricted = restrict_z(ctx, ("b",), z)
    assert restricted["a"] == z["a"] - F(1, 2) * z["b"]
    assert restricted["c"] == z["c"] + F(1, 2) * z["b"]


# -- polytope vertices ------------------------------------------------------------------


def test_vertices_rectangle(quadrant_ctx):
    z = zmap(r1=3, r2=5, r3=1, r4=1)
    sigma = ("r1", "r2")
    verts = polytope_vertices(quadrant_ctx, sigma, z)
    assert verts[ZERO_CONE] == qvec([0, 0])
    assert verts[("r1",)] == qvec([3, 0])
    assert verts[("r2",)] == qvec([0, 5])
    assert verts[sigma] == qvec([3, 5])


def test_vertices_require_pseudocubical(quadrant_ctx):
    with pytest.raises(NotPseudocubical):
        polytope_vertices(quadrant_ctx, ("r1", "r2"), zmap(r1=-1, r2=1, r3=1, r4=1))


def test_vertices_read_only_the_faces_of_their_cone(monkeypatch):
    # Obtuse Gram: z is negative on the face {a} of {a, b}, and on no face of {b, c}.
    rays = {"a": qvec([1, 0]), "b": qvec([0, 1]), "c": qvec([-1, 0])}
    fan = nv.MarkedFan(2, rays, [(("a", "b"), 1), (("b", "c"), 1)])
    ctx = Context(fan, qmat([[1, F(-1, 2)], [F(-1, 2), 1]]))
    z = zmap(a=-1, b=4, c=4)
    assert classify_z(ctx, z).classification == OUTSIDE

    def no_classification(*args):
        raise AssertionError("polytope_vertices must not classify the whole fan")

    monkeypatch.setattr(normalcx, "classify_z", no_classification)
    verts = polytope_vertices(ctx, ("b", "c"), z)
    assert set(verts) == {ZERO_CONE, ("b",), ("c",), ("b", "c")}
    assert verts[("b", "c")] == qvec([F(-8, 3), F(8, 3)])
    with pytest.raises(NotPseudocubical, match=r"\['a'\]"):
        polytope_vertices(ctx, ("a", "b"), z)


def test_vertex_linearity(quadrant_ctx):
    z1 = zmap(r1=1, r2=2, r3=3, r4=4)
    z2 = zmap(r1=2, r2=1, r3=1, r4=2)
    lam = F(3, 2)
    for cone in quadrant_ctx.fan.cones:
        w1 = w_vector(quadrant_ctx, cone, z1).coords
        w2 = w_vector(quadrant_ctx, cone, z2).coords
        combo = {k: lam * z1[k] + z2[k] for k in z1}
        wc = w_vector(quadrant_ctx, cone, combo).coords
        assert wc == tuple(lam * a + b for a, b in zip(w1, w2))


# -- volumes --------------------------------------------------------------------------------


def test_vol_zero(quadrant_ctx):
    assert vol_recursive(quadrant_ctx, zmap(r1=0, r2=0, r3=0, r4=0)) == 0


def test_vol_pm1_segment(pm1_ctx):
    assert vol_recursive(pm1_ctx, {"p": F(3), "m": F(4)}) == 7


def test_vol_quadrant_closed_form(quadrant_ctx):
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    # sum over quadrants of the normalized rectangle volume 2 * z_i * z_j
    assert vol_recursive(quadrant_ctx, z) == 2 * (1 + 3) * (2 + 4)


def test_vol_rejects_outside(quadrant_ctx):
    with pytest.raises(NotPseudocubical):
        vol_recursive(quadrant_ctx, zmap(r1=-1, r2=1, r3=1, r4=1))


def test_vol_polynomial_pm1(pm1_ctx):
    assert vol_polynomial(pm1_ctx) == MultiPoly.linear({"p": F(1), "m": F(1)})


def test_vol_polynomial_quadrant(quadrant_ctx):
    expected = 2 * (
        MultiPoly.linear({"r1": F(1), "r3": F(1)})
        * MultiPoly.linear({"r2": F(1), "r4": F(1)})
    )
    assert vol_polynomial(quadrant_ctx) == expected


def test_vol_polynomial_euler_identity(quadrant_ctx):
    # f(t z) = t^d f(z), whose derivative at t = 1 is Euler's identity
    f = vol_polynomial(quadrant_ctx)
    d = quadrant_ctx.fan.d
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    t = F(5, 3)
    assert f.eval_at({rid: t * c for rid, c in z.items()}) == t**d * f.eval_at(z)
    assert all(sum(e for _, e in mono) == d for mono in f.terms)


def test_vol_polynomial_homogeneous(quadrant_ctx):
    # every monomial has degree d, and the variables of each form a cone
    for ctx in (quadrant_ctx, bergman("K4").ctx):
        f = vol_polynomial(ctx)
        assert all(sum(e for _, e in mono) == ctx.fan.d for mono in f.terms)
        assert all(tuple(v for v, _ in mono) in ctx.fan.cones for mono in f.terms)


def test_geometric_oracle_segment(pm1_ctx):
    assert geometric_volume_oracle(pm1_ctx, ("p",), {"p": F(3), "m": F(1)}) == 3


def test_geometric_oracle_rectangle(quadrant_ctx):
    z = zmap(r1=3, r2=5, r3=1, r4=1)
    # normalized volume of the a x b rectangle is 2ab
    assert geometric_volume_oracle(quadrant_ctx, ("r1", "r2"), z) == 30


def test_geometric_oracle_rejects_negative_face():
    # Obtuse Gram: z is positive on sigma's own w-vector but negative on the face {a}.
    rays = {"a": qvec([1, 0]), "b": qvec([0, 1])}
    ctx = Context(nv.MarkedFan(2, rays, [(("a", "b"), 1)]), qmat([[1, F(-1, 2)], [F(-1, 2), 1]]))
    z = {"a": F(-1), "b": F(4)}
    sigma = tuple(rays)
    assert all(c > 0 for _, c in w_vector(ctx, sigma, z).coefficients)
    with pytest.raises(NotPseudocubical, match=r"^z is outside the pseudocubical cone at \['a'\]$"):
        geometric_volume_oracle(ctx, sigma, z)


def test_geometric_oracle_refuses_a_non_cone_and_foreign_z(quadrant_ctx):
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    with pytest.raises(DimensionMismatch, match=r"^\['r1', 'r3'\] is not a cone of the fan$"):
        geometric_volume_oracle(quadrant_ctx, ("r1", "r3"), z)
    with pytest.raises(DimensionMismatch, match="indexed by exactly the fan's rays"):
        geometric_volume_oracle(quadrant_ctx, ("r1", "r2"), zmap(r1=1, r2=2))


def test_geometric_oracle_dim_cap():
    rays = {f"e{i}": qvec([1 if j == i else 0 for j in range(4)]) for i in range(4)}
    fan = nv.MarkedFan(4, rays, [(tuple(rays), 1)], validate_geometry=False)
    ctx = Context(fan, identity(4))
    with pytest.raises(DimTooLarge):
        geometric_volume_oracle(ctx, tuple(rays), {r: F(1) for r in rays})


def test_geometric_oracle_3d_box():
    rays = {"x": qvec([1, 0, 0]), "y": qvec([0, 1, 0]), "z": qvec([0, 0, 1])}
    fan = nv.MarkedFan(3, rays, [(("x", "y", "z"), 1)])
    ctx = Context(fan, identity(3))
    z = zmap(x=2, y=3, z=5)
    # box 2x3x5 has normalized volume 3! * 30
    assert geometric_volume_oracle(ctx, tuple(rays), z) == 180
    assert vol_recursive(ctx, z) == 180


# -- mixed volumes ------------------------------------------------------------------------------


def test_mvol_normalization(quadrant_ctx):
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    assert mvol_recursive(quadrant_ctx, [z, z]) == vol_recursive(quadrant_ctx, z)


def test_mvol_zero_argument(quadrant_ctx):
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    zero = zmap(r1=0, r2=0, r3=0, r4=0)
    assert mvol_recursive(quadrant_ctx, [z, zero]) == 0


def test_mvol_arity(quadrant_ctx):
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    with pytest.raises(ArityMismatch):
        mvol_recursive(quadrant_ctx, [z])
    for count in (1, 3):  # d - 1 and d + 1 arguments, d = 2
        with pytest.raises(ArityMismatch, match=f"need exactly 2 arguments, got {count}"):
            mvol_polarization_oracle(quadrant_ctx, [z] * count)


def test_mvol_axis_supported(quadrant_ctx):
    z1 = zmap(r1=2, r2=0, r3=3, r4=0)
    z2 = zmap(r1=0, r2=1, r3=0, r4=4)
    # Vol = 2(z1+z3)(z2+z4); polarizing gives MVol(z1, z2) = s1 t2 with the
    # axis sums s, t since each argument vanishes on one axis
    assert mvol_recursive(quadrant_ctx, [z1, z2]) == (2 + 3) * (1 + 4)
    assert mvol_polarization_oracle(quadrant_ctx, [z1, z2]) == 25


def test_mvol_symmetry_random(quadrant_ctx):
    rng = random.Random(5)
    rays = quadrant_ctx.fan.ray_ids()
    for _ in range(5):
        z1 = {r: Fraction(rng.randint(1, 9)) for r in rays}
        z2 = {r: Fraction(rng.randint(1, 9)) for r in rays}
        assert mvol_recursive(quadrant_ctx, [z1, z2]) == mvol_recursive(quadrant_ctx, [z2, z1])


def test_mvol_multilinearity(quadrant_ctx):
    rng = random.Random(6)
    rays = quadrant_ctx.fan.ray_ids()
    for _ in range(5):
        z1 = {r: Fraction(rng.randint(1, 9)) for r in rays}
        z2 = {r: Fraction(rng.randint(1, 9)) for r in rays}
        z3 = {r: Fraction(rng.randint(1, 9)) for r in rays}
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        combo = {r: lam * z2[r] + z3[r] for r in rays}
        lhs = mvol_recursive(quadrant_ctx, [z1, combo])
        rhs = lam * mvol_recursive(quadrant_ctx, [z1, z2]) + mvol_recursive(quadrant_ctx, [z1, z3])
        assert lhs == rhs


def test_polarization_oracle_d1(pm1_ctx):
    z = {"p": F(2), "m": F(3)}
    assert mvol_polarization_oracle(pm1_ctx, [z]) == vol_recursive(pm1_ctx, z)


def test_partials_identity(quadrant_ctx):
    # along the line z + t v: f(z+v) - f(z-v) = 4 MVol(v, z) and
    # f(z+v) - f(z) - f(v) + f(0) = 2 MVol(v, z), the first and mixed second derivatives
    rng = random.Random(7)
    rays = quadrant_ctx.fan.ray_ids()
    f = vol_polynomial(quadrant_ctx)
    z = {r: Fraction(rng.randint(1, 9)) for r in rays}
    v = {r: Fraction(rng.randint(1, 9)) for r in rays}
    plus = f.eval_at({r: z[r] + v[r] for r in rays})
    minus = f.eval_at({r: z[r] - v[r] for r in rays})
    mixed = mvol_recursive(quadrant_ctx, [v, z])
    assert (plus - minus) / 4 == mixed
    zero = {r: Fraction(0) for r in rays}
    assert plus - f.eval_at(z) - f.eval_at(v) + f.eval_at(zero) == 2 * mixed


# -- faces ------------------------------------------------------------------------------------------


def test_face_complex_zero_cone(quadrant_ctx):
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    ctx2, z2 = face_complex(quadrant_ctx, ZERO_CONE, z)
    assert ctx2 is quadrant_ctx and z2 == z


def test_face_of_face_composition(quadrant_ctx):
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    tau = ("r1",)
    pi = ("r1", "r2")
    ctx_tau, z_tau = face_complex(quadrant_ctx, tau, z)
    ctx_pi_direct, z_pi_direct = face_complex(quadrant_ctx, pi, z)
    ctx_pi_iter, z_pi_iter = face_complex(ctx_tau, ("r2",), z_tau)
    assert z_pi_iter == z_pi_direct
    assert ctx_pi_iter.fan.rays == ctx_pi_direct.fan.rays


def test_projecting_ws_identity(quadrant_ctx):
    # w_sigma(z) - w_tau(z) = w_{sigma^tau}(z^tau)
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    tau = ("r1",)
    sigma = ("r1", "r2")
    star_ctx, z_tau = face_complex(quadrant_ctx, tau, z)
    lhs = tuple(
        a - b
        for a, b in zip(
            w_vector(quadrant_ctx, sigma, z).coords, w_vector(quadrant_ctx, tau, z).coords
        )
    )
    rhs = w_vector(star_ctx, ("r2",), z_tau).coords
    assert lhs == rhs


# -- cone arguments -----------------------------------------------------------------------------

# Every function that takes a cone, called on the quadrant with the Gram I and z = 1.
_QUADRANT = Context(make_quadrant_fan(), identity(2))
_ONES = zmap(r1=1, r2=1, r3=1, r4=1)
CONE_ENTRY_POINTS = {
    "link": lambda cone: _QUADRANT.fan.link(cone),
    "w_vector": lambda cone: w_vector(_QUADRANT, cone, _ONES),
    "restrict_z": lambda cone: restrict_z(_QUADRANT, cone, _ONES),
    "face_complex": lambda cone: face_complex(_QUADRANT, cone, _ONES),
    "star": lambda cone: star(_QUADRANT.fan, cone, _QUADRANT.gram),
    "star_connected_minus_origin": lambda cone: star_connected_minus_origin(_QUADRANT.fan, cone),
    "polytope_vertices": lambda cone: polytope_vertices(_QUADRANT, cone, _ONES),
    "geometric_volume_oracle": lambda cone: geometric_volume_oracle(_QUADRANT, cone, _ONES),
}
# A cone is the sorted tuple of its ray ids: a set of ray ids, even the empty set or
# the rays of a cone, a list, ids out of order, an id that is not a string and an
# argument of any other type are refused for their form, and a sorted tuple that is
# no cone for that.
NOT_CONES = {
    "set of a cone's rays": (
        frozenset({"r1", "r2"}),
        "frozenset ['r1', 'r2'] is not a sorted tuple of ray ids",
    ),
    "empty set": (frozenset(), "frozenset [] is not a sorted tuple of ray ids"),
    "unsorted tuple": (("r2", "r1"), "tuple ['r2', 'r1'] is not a sorted tuple of ray ids"),
    "list of a cone's rays": (["r1", "r2"], "list ['r1', 'r2'] is not a sorted tuple of ray ids"),
    "non-cone": (("r1", "r3"), "['r1', 'r3'] is not a cone of the fan"),
    "None": (None, "NoneType None is not a sorted tuple of ray ids"),
    "int": (5, "int 5 is not a sorted tuple of ray ids"),
    "tuple with an int id": (("r1", 1), "tuple ['r1', 1] is not a sorted tuple of ray ids"),
    "set with an int id": ({"r1", 1}, "set ['r1', 1] is not a sorted tuple of ray ids"),
    "tuple with a list id": (("r1", ["r2"]), "tuple ['r1', ['r2']] is not a sorted tuple of ray ids"),
}


@pytest.mark.parametrize("entry", list(CONE_ENTRY_POINTS))
@pytest.mark.parametrize("form", list(NOT_CONES))
def test_only_a_cone_of_the_fan_is_a_cone_argument(entry, form):
    cone, message = NOT_CONES[form]
    with pytest.raises(DimensionMismatch) as raised:
        CONE_ENTRY_POINTS[entry](cone)
    assert str(raised.value) == message
    CONE_ENTRY_POINTS[entry](("r1", "r2"))  # the cone itself is taken


@pytest.mark.parametrize("entry", ["polytope_vertices", "geometric_volume_oracle"])
def test_the_form_of_a_cone_is_refused_before_its_size_and_the_keys(entry):
    call = {"polytope_vertices": polytope_vertices, "geometric_volume_oracle": geometric_volume_oracle}
    with pytest.raises(DimensionMismatch) as raised:
        call[entry](_QUADRANT, ("r4", "r3", "r2", "r1"), {"r1": 1})
    assert str(raised.value) == "tuple ['r4', 'r3', 'r2', 'r1'] is not a sorted tuple of ray ids"


# Every function that takes a truncation, called on the quadrant; z must be indexed by
# exactly the fan's rays, and the degrees check that after the balancing condition.
Z_ENTRY_POINTS = {
    "w_vector": lambda z: w_vector(_QUADRANT, ("r1", "r2"), z),
    "restrict_z": lambda z: restrict_z(_QUADRANT, ("r1",), z),
    "face_complex": lambda z: face_complex(_QUADRANT, ("r1",), z),
    "classify_z": lambda z: classify_z(_QUADRANT, z),
    "vol_recursive": lambda z: vol_recursive(_QUADRANT, z),
    "polytope_vertices": lambda z: polytope_vertices(_QUADRANT, ("r1", "r2"), z),
    "geometric_volume_oracle": lambda z: geometric_volume_oracle(_QUADRANT, ("r1", "r2"), z),
    "deg_product": lambda z: chow.deg_product(_QUADRANT.fan, [z] * 2),
    "deg_products": lambda z: chow.deg_products(_QUADRANT.fan, [[_ONES] * 2, [_ONES, z]]),
}
WRONG_KEYS = {
    "missing key": zmap(r1=1, r2=1, r3=1),
    "extra key": zmap(r1=1, r2=1, r3=1, r4=1, r5=1),
}


@pytest.mark.parametrize("entry", list(Z_ENTRY_POINTS))
@pytest.mark.parametrize("keys", list(WRONG_KEYS))
def test_only_the_fans_rays_index_a_truncation(entry, keys):
    with pytest.raises(DimensionMismatch) as raised:
        Z_ENTRY_POINTS[entry](WRONG_KEYS[keys])
    assert str(raised.value) == "z-values must be indexed by exactly the fan's rays"
    Z_ENTRY_POINTS[entry](_ONES)  # the fan's own rays are taken


# Run in a child process: every entry point's outcome on every form, one line each.
OUTCOMES = """
import sys
sys.path[:0] = sys.argv[1:3]
from test_normalcx import CONE_ENTRY_POINTS, NOT_CONES
for form, (cone, _) in NOT_CONES.items():
    for entry, call in CONE_ENTRY_POINTS.items():
        try:
            call(cone)
            print(form, entry, "taken")
        except Exception as exc:
            print(form, entry, type(exc).__name__, exc)
"""


def test_cone_arguments_do_not_depend_on_the_hash_seed():
    """The set forms iterate in an order set by the hash seed; no outcome may follow it."""
    tests, src = Path(__file__).resolve().parent, Path(nv.__file__).resolve().parents[1]
    outs = []
    for seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        command = [sys.executable, "-c", OUTCOMES, str(src), str(tests)]
        done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
        outs.append(done.stdout)
    assert outs == [outs[0]] * 4
    assert outs[0].count("DimensionMismatch") == len(NOT_CONES) * len(CONE_ENTRY_POINTS)
