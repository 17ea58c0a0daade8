"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints exactly one summary line
"ACCEPTANCE <n> (<name>): pass" on success, and asserts exact equalities
(no tolerances anywhere).
"""

import time
from fractions import Fraction
from itertools import permutations

import normalvol as nv
from normalvol import af, chow
from normalvol.fan import ZERO_CONE
from normalvol.linalg import identity, vec_scale, zeros
from normalvol.matroid import flat_ray_id
from normalvol.normalcx import (
    Context,
    face_complex,
    geometric_volume_oracle,
    mvol_polarization_oracle,
    mvol_recursive,
    vol_recursive,
    w_vector,
)

from conftest import (
    MATROID_NAMES,
    bergman,
    boundary_limit_margins,
    flats_of_rank,
    make_pm1_fan,
    make_quadrant_fan,
    reversed_coordinates,
)


def _report(number, name, ok):
    print(f"\nACCEPTANCE {number} ({name}): {'pass' if ok else 'fail'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _fixtures():
    """The six volume fixtures: two hand-built fans and four Bergman fans."""
    out = [
        ("quadrant", Context(make_quadrant_fan(), identity(2))),
        ("pm1", Context(make_pm1_fan(), identity(1))),
    ]
    for name in ("U23", "U34", "U35", "K4"):
        out.append((name, bergman(name).ctx))
    return out


def _samples(ctx, count, seed):
    return af.sample_cubical(ctx, count, seed)


def test_acceptance_1_vol_equals_deg():
    start = time.monotonic()
    ok = True
    for i, (name, ctx) in enumerate(_fixtures()):
        for z in _samples(ctx, 20, seed=100 + i):
            if vol_recursive(ctx, z) != chow.deg_product(ctx.fan, [z] * ctx.fan.d):
                ok = False
    elapsed = time.monotonic() - start
    _report(1, "Vol equals deg on 20 sampled z per fixture", ok and elapsed < 60)


def test_acceptance_2_mvol_equals_mdeg():
    ok = True
    for i, (name, ctx) in enumerate(_fixtures()):
        d = ctx.fan.d
        flat = _samples(ctx, 10 * d, seed=200 + i)
        for t in range(10):
            zs = flat[t * d : (t + 1) * d]
            if mvol_recursive(ctx, zs) != chow.deg_product(ctx.fan, zs):
                ok = False
    _report(2, "MVol equals mixed degree on 10 sampled tuples per fixture", ok)


def test_acceptance_3_independent_oracles():
    ok = True
    for i, (name, ctx) in enumerate(_fixtures()):
        d = ctx.fan.d
        flat = _samples(ctx, 5 * d, seed=300 + i)
        for t in range(5):
            zs = flat[t * d : (t + 1) * d]
            if mvol_recursive(ctx, zs) != mvol_polarization_oracle(ctx, zs):
                ok = False
        if d <= 3:
            for z in flat[:5]:
                geom = sum(
                    ctx.fan.weights[sigma] * geometric_volume_oracle(ctx, sigma, z)
                    for sigma in ctx.fan.max_cones
                )
                if geom != vol_recursive(ctx, z):
                    ok = False
    _report(3, "polarization and geometric oracles agree with the recursion", ok)


def test_acceptance_4_symmetry_and_multilinearity():
    ok = True
    for i, (name, ctx) in enumerate(_fixtures()):
        d = ctx.fan.d
        flat = _samples(ctx, 5 * d + 15, seed=400 + i)
        perms = list(permutations(range(d)))
        for t in range(5):
            zs = flat[t * d : (t + 1) * d]
            base = mvol_recursive(ctx, zs)
            for p in perms[:5]:
                if mvol_recursive(ctx, [zs[j] for j in p]) != base:
                    ok = False
        rest = flat[1 : d] if d > 1 else []
        for t in range(5):
            za, zb, zc = flat[5 * d + 3 * t : 5 * d + 3 * t + 3]
            lam = Fraction(2 * t + 1, 3)
            combo = {r: lam * za[r] + zb[r] for r in za}
            lhs = mvol_recursive(ctx, [combo, zc] + rest[: d - 2] if d >= 2 else [combo])
            rhs_a = mvol_recursive(ctx, [za, zc] + rest[: d - 2] if d >= 2 else [za])
            rhs_b = mvol_recursive(ctx, [zb, zc] + rest[: d - 2] if d >= 2 else [zb])
            if lhs != lam * rhs_a + rhs_b:
                ok = False
    _report(4, "MVol symmetry and multilinearity on sampled tuples", ok)


def test_acceptance_5_face_identities():
    ok = True
    triples = 0
    for i, (name, ctx) in enumerate(_fixtures()):
        for z in _samples(ctx, 3, seed=500 + i):
            for pi in ctx.fan.cones:
                if not pi:
                    continue
                for tau in ctx.fan.cones:
                    if not (tau and set(tau) < set(pi)):  # a proper face, as sets of rays
                        continue
                    triples += 1
                    rest = tuple(rid for rid in pi if rid not in tau)  # pi as a cone of the star
                    star_ctx, z_tau = face_complex(ctx, tau, z)
                    # w-vector projection identity
                    w_pi = w_vector(ctx, pi, z).coords
                    w_tau = w_vector(ctx, tau, z).coords
                    diff = tuple(a - b for a, b in zip(w_pi, w_tau))
                    if diff != w_vector(star_ctx, rest, z_tau).coords:
                        ok = False
                    # a face of a face is a face
                    _, z_pi_direct = face_complex(ctx, pi, z)
                    _, z_pi_iter = face_complex(star_ctx, rest, z_tau)
                    if z_pi_iter != z_pi_direct:
                        ok = False
    _report(5, f"face identities on {triples} (fixture, face pair, z) triples", ok and triples >= 50)


def test_acceptance_6_reduce_conditions_and_rank3_degrees():
    ok = True
    for name in ("U23", "U34", "U35", "K4", "K4e"):
        if nv.check_reduce_conditions(bergman(name).ctx).verdict != "pass":
            ok = False
    # rank-3 Chow degree facts on the Bergman fan
    for name in ("U34", "K4"):
        fx = bergman(name)
        m, fan = fx.matroid, fx.fan

        def ind(rid):
            return {r: Fraction(1 if r == rid else 0) for r in fan.ray_ids()}

        for g in flats_of_rank(m, 2):
            gid = flat_ray_id(m, g)
            if chow.deg_product(fan, [ind(gid)] * 2) != -1:
                ok = False
            for f in flats_of_rank(m, 1):
                if f & g == f:
                    fid = flat_ray_id(m, f)
                    if chow.deg_product(fan, [ind(fid), ind(gid)]) != 1:
                        ok = False
        for f in flats_of_rank(m, 1):
            fid = flat_ray_id(m, f)
            above = sum(1 for c in fan.cones_of_dim(2) if fid in c)
            if chow.deg_product(fan, [ind(fid)] * 2) != 1 - above:
                ok = False
    _report(6, "sufficient conditions and rank-3 degree identities", ok)


def test_acceptance_7_af_inequality():
    ok = True
    for i, name in enumerate(("U34", "U35", "K4")):
        fx = bergman(name)
        d = fx.ctx.fan.d
        flat = af.sample_cubical(fx.ctx, 50 * d, seed=700 + i)
        count = 0
        for t in range(50):
            zs = flat[t * d : (t + 1) * d]
            count += 1
            if nv.af_check(fx.ctx, zs) < 0:
                ok = False
        if count < 50:
            ok = False
        # equality when the first two arguments coincide
        equal_args = [flat[0], flat[0]] + flat[1 : d - 1]
        if nv.af_check(fx.ctx, equal_args) != 0:
            ok = False
    _report(7, "AF margins nonnegative on 50 cubical tuples per fixture", ok)


def test_acceptance_8_hrw_pipeline():
    start = time.monotonic()
    expected = {
        "U23": (1, 2),
        "U34": (1, 3, 3),
        "U35": (1, 4, 6),
        "U45": (1, 4, 6, 4),
        "K4": (1, 5, 6),
        "K4e": (1, 4, 4),
    }
    ok = True
    for name in MATROID_NAMES:
        fx = bergman(name)
        report = nv.hrw_verify(fx.matroid, fx.e0)
        if report.verdict != "pass" or report.mubar_char != expected[name]:
            ok = False
        if not (report.log_concave and report.unimodal):
            ok = False
        if not (report.mu_log_concave and report.mu_unimodal):
            ok = False
    elapsed = time.monotonic() - start
    _report(8, "characteristic polynomial pipeline on all matroid fixtures", ok and elapsed < 120)


def test_acceptance_9_alpha_beta_w_vectors():
    ok = True
    for name in MATROID_NAMES:
        fx = bergman(name)
        m, ctx = fx.matroid, fx.ctx
        e0_bit = 1 << m.index[fx.e0]
        if not nv.classify_z(ctx, fx.z_alpha).is_pseudocubical:
            ok = False
        if not nv.classify_z(ctx, fx.z_beta).is_pseudocubical:
            ok = False
        rank = {flat_ray_id(m, f): m.rank_of_flat(f) for f in m.proper_flats()}
        contains_e0 = {
            flat_ray_id(m, f): bool(f & e0_bit) for f in m.proper_flats()
        }
        size = {flat_ray_id(m, f): bin(f).count("1") for f in m.proper_flats()}
        n = m.n
        for cone in ctx.fan.cones:
            if not cone:
                continue
            chain = sorted(cone, key=lambda rid: rank[rid])
            top, bottom = chain[-1], chain[0]
            w_alpha = w_vector(ctx, cone, fx.z_alpha).coords
            if contains_e0[top]:
                want = vec_scale(Fraction(1, n - size[top]), ctx.fan.rays[top])
            else:
                want = zeros(ctx.fan.ambient_dim)
            if w_alpha != want:
                ok = False
            w_beta = w_vector(ctx, cone, fx.z_beta).coords
            if not contains_e0[bottom]:
                want = vec_scale(Fraction(1, size[bottom]), ctx.fan.rays[bottom])
            else:
                want = zeros(ctx.fan.ambient_dim)
            if w_beta != want:
                ok = False
    _report(9, "alpha/beta truncations and their closed-form w-vectors", ok)


def test_acceptance_10_pivot_strategy_independence():
    ok = True
    products = 0
    # the top grade reads no covector, so U(4,5) (d = 3) joins the fixtures of dimension <= 2
    for i, (name, ctx) in enumerate([*_fixtures(), ("U45", bergman("U45").ctx)]):
        d = ctx.fan.d
        reversed_fan = reversed_coordinates(ctx.fan)  # the other choice of covector per cone
        flat = _samples(ctx, 20 * d, seed=1000 + i)
        for t in range(20):
            zs = flat[t * d : (t + 1) * d]
            products += 1
            if chow.deg_product(ctx.fan, zs) != chow.deg_product(reversed_fan, zs):
                ok = False
    _report(10, f"pivot strategies agree on {products} degree products", ok and products >= 100)


def test_acceptance_11_boundary_limits():
    ok = True
    ts = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]
    for name in MATROID_NAMES:
        fx = bergman(name)
        d = fx.ctx.fan.d
        bases = [fx.z_alpha if i % 2 == 0 else fx.z_beta for i in range(d)]
        witness = fx.cubical_witness()
        margins = boundary_limit_margins(fx.ctx, bases, witness, ts)
        if any(v != 0 for v in margins.values()):
            ok = False
        # the t -> 0 limit is exactly the boundary mixed volume
        if margins[Fraction(0)] != 0:
            ok = False
    _report(11, "cubical limits reproduce boundary mixed volumes exactly", ok)
