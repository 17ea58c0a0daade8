"""Property tests of the face-poset engine against the independent oracles.

Fans are small products of the +-1 and quadrant fans (d <= 3), Grams are
random positive-definite rationals L D L^T close to diagonal, and truncations
are random cubical points near the all-ones vector.  Every comparison is exact.
"""

import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import normalvol as nv
from normalvol import af, chow, normalcx
from normalvol.errors import NormalVolError, NotSimplicial
from normalvol.fan import ZERO_CONE, join, star_connected_minus_origin
from normalvol.linalg import dot, identity, inverse, mat_vec, qmat, scaled_to_int, signature
from normalvol.normalcx import (
    CUBICAL,
    OUTSIDE,
    PSEUDOCUBICAL_BOUNDARY,
    Context,
    CubReport,
    classify_z,
    face_complex,
    geometric_volume_oracle,
    mixed_volumes,
    mvol_polarization_oracle,
    mvol_recursive,
    restrict_z,
    star_hessians,
    vol_polynomial,
    vol_recursive,
    w_vector,
)

from conftest import (
    bergman,
    cone_of,
    dense_gram,
    hessian,
    make_pm1_fan,
    make_quadrant_fan,
    mat_mul,
    product_fan,
    reference_dependent_cones,
    reference_geometric_volume,
)

FANS = {
    "pm1 x pm1": product_fan(make_pm1_fan(), make_pm1_fan((2, 2))),
    "pm1 x quadrant": product_fan(make_pm1_fan((3, 3)), make_quadrant_fan()),
    "quadrant x pm1": product_fan(make_quadrant_fan(), make_pm1_fan()),
    "pm1^3": product_fan(product_fan(make_pm1_fan(), make_pm1_fan()), make_pm1_fan((2, 2))),
    # weights 1/2, so the dynamic program scales its weights to integers (W = 2)
    "half pm1 x quadrant": product_fan(
        make_pm1_fan((Fraction(1, 2), Fraction(1, 2))), make_quadrant_fan()
    ),
}

# The d = 3 fans of the star tests.  "quadrant x ray" is not complete, so the
# closed-form star Hessians and star connectivity also meet a fan with a boundary.
STAR_FANS = {name: fan for name, fan in FANS.items() if fan.d == 3}
STAR_FANS["quadrant x ray"] = product_fan(
    make_quadrant_fan(), nv.MarkedFan(1, {"p": (Fraction(1),)}, [(("p",), 1)])
)

PROPERTY = settings(max_examples=15, deadline=None)

# Axis-aligned rays under a diagonal Gram: every positive truncation is cubical.
# The 1-cones have D = 2, 3, 5, so the lcm of D by dimension (1, 30, 30) is not constant.
_HALF = Context(FANS["half pm1 x quadrant"], qmat([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))
_HALF_ZS = [
    {rid: Fraction(i + j + 2, i + 1) for j, rid in enumerate(_HALF.fan.ray_ids())}
    for i in range(3)
]


@st.composite
def gram(draw, n):
    """L D L^T with L unit lower triangular: positive definite by construction."""
    off = st.fractions(min_value=Fraction(-1, 8), max_value=Fraction(1, 8), max_denominator=8)
    diag = st.fractions(min_value=1, max_value=2, max_denominator=4)
    lower = [[Fraction(int(i == j)) if j >= i else draw(off) for j in range(n)] for i in range(n)]
    d = [draw(diag) for _ in range(n)]
    return tuple(
        tuple(sum(lower[i][k] * d[k] * lower[j][k] for k in range(n)) for j in range(n))
        for i in range(n)
    )


@st.composite
def context_and_truncations(draw):
    fan = FANS[draw(st.sampled_from(sorted(FANS)))]
    ctx = Context(fan, draw(gram(fan.ambient_dim)))
    step = st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(1, 4), max_denominator=8)
    zs = []
    for _ in range(fan.d):
        z = {rid: 1 + draw(step) for rid in fan.ray_ids()}
        assume(classify_z(ctx, z).is_cubical)
        zs.append(z)
    return ctx, zs


def _geometric_mvol(ctx, zs):
    """MVol by polarizing the geometric volume, summed over the maximal cones.

    No dynamic program is involved: each volume triangulates the truncation
    polytopes.  Every fan here has d <= 3, the oracle's limit.
    """
    d = ctx.fan.d
    total = Fraction(0)
    for r in range(1, d + 1):
        for subset in combinations(range(d), r):
            z = {rid: sum(zs[i][rid] for i in subset) for rid in zs[0]}
            volume = sum(
                ctx.fan.weights[sigma] * geometric_volume_oracle(ctx, sigma, z)
                for sigma in ctx.fan.max_cones
            )
            total += (-1) ** (d - r) * volume
    return total / factorial(d)


@PROPERTY
@given(context_and_truncations())
@example((_HALF, _HALF_ZS))
def test_dp_matches_chow_and_polarization(case):
    ctx, zs = case
    value = mvol_recursive(ctx, zs)
    assert value == chow.deg_product(ctx.fan, zs)
    assert value == mvol_polarization_oracle(ctx, zs)
    assert value == _geometric_mvol(ctx, zs)


@st.composite
def batch_of_tuples(draw):
    """A context, and tuples over 2-3 cubical truncations whose layers a memo can share.

    The batch mixes a pencil (in either order), the three tuples of ``af_check``,
    tuples with their slots permuted and repeated tuples, in a drawn order.
    """
    fan = FANS[draw(st.sampled_from(sorted(FANS)))]
    ctx = Context(fan, draw(gram(fan.ambient_dim)))
    step = st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(1, 4), max_denominator=8)
    pool = []
    for _ in range(draw(st.integers(2, 3))):
        z = {rid: 1 + draw(step) for rid in fan.ray_ids()}
        assume(classify_z(ctx, z).is_cubical)
        pool.append(z)
    d = fan.d
    z1, z2 = pool[0], pool[1]
    pencil = [[z1] * (d - a) + [z2] * a for a in range(d + 1)]
    if draw(st.booleans()):
        pencil.reverse()
    rest = [pool[-1]] * (d - 2)
    tuples = pencil + [[z1, z2] + rest, [z1, z1] + rest, [z2, z2] + rest]
    picks = st.sampled_from(tuples)
    tuples += [draw(st.permutations(draw(picks))) for _ in range(2)]
    tuples += [draw(picks) for _ in range(2)]
    return ctx, draw(st.permutations(tuples))


# _HALF's three truncations in a pencil, af_check's tuples and two more: memoized prefixes
# of lengths 1 and 2 are scaled by Lambda_k // D_sigma with Lambda = (1, 30, 30) by dimension
_A, _B, _C = _HALF_ZS
_HALF_BATCH = [[_A] * (3 - a) + [_B] * a for a in range(4)]
_HALF_BATCH += [[_A, _B, _C], [_A, _A, _C], [_B, _B, _C], [_C, _B, _A], [_C, _C, _C]]


@PROPERTY
@given(batch_of_tuples(), st.randoms(use_true_random=False))
@example((_HALF, _HALF_BATCH), random.Random(0))
def test_memoized_layers_match_chow_and_slot_permutations(case, rng):
    ctx, tuples = case
    values = mixed_volumes(ctx, tuples)
    assert values == [chow.deg_product(ctx.fan, zs) for zs in tuples]
    permuted = [rng.sample(list(zs), len(zs)) for zs in tuples]
    assert mixed_volumes(ctx, permuted) == values


def _count_tables(monkeypatch):
    """The Z z of each table built, in order, by wrapping the table pass."""
    built, table = [], normalcx._Table
    monkeypatch.setattr(normalcx, "_Table", lambda *args: built.append(args[1]) or table(*args))
    return built


@pytest.mark.parametrize("name", ["U45", "K4"])
def test_a_batch_shares_a_table_by_value_and_tells_scales_apart(name, monkeypatch):
    # alpha as 1, Fraction(1) and Fraction(2, 2) is one truncation with one table; alpha
    # halved has alpha's Z z = alpha, over Z = 2, and a table of its own
    fx = bergman(name)
    ctx = Context(fx.fan, fx.gram)
    a, d = fx.z_alpha, fx.fan.d
    kinds = (int, Fraction, lambda v: Fraction(2 * v, 2))
    copies = [{r: kind(v) for r, v in a.items()} for kind in kinds]
    half = {r: v / 2 for r, v in a.items()}
    built = _count_tables(monkeypatch)
    assert mixed_volumes(ctx, []) == [] and not built
    values = mixed_volumes(ctx, [[z] * d for z in [*copies, half]])
    assert values == [1, 1, 1, Fraction(1, 2**d)]
    assert built == [a, a]  # Z z of alpha, then of its half
    # later calls on the context read the same two tables, and still tell the scales apart
    assert [vol_recursive(ctx, z) for z in (half, copies[1])] == [Fraction(1, 2**d), 1]
    assert built == [a, a]


def _count_layers(monkeypatch):
    """Count the layers built, by wrapping the one step function."""
    counts = Counter()
    climb = normalcx._climb

    def counted(*args):
        counts["_climb"] += 1
        return climb(*args)

    monkeypatch.setattr(normalcx, "_climb", counted)
    return counts


@pytest.mark.parametrize("r", [4, 5])
def test_hrw_pencil_builds_a_trie_of_its_prefixes(r, monkeypatch):
    # d + 1 mixed volumes alpha^(d-a) beta^a: alpha climbed d times, and the a-th
    # coefficient a new layers above the shared prefix alpha^(d-a)
    layers = _count_layers(monkeypatch)
    report = nv.hrw_verify(nv.uniform(r, r + 1), "a")
    d = report.fan.d
    assert d == r - 1
    assert sum(layers.values()) == d + d * (d + 1) // 2


def _three_cubical(fan):
    """Three distinct positive truncations: cubical on pm1^3 with the identity Gram."""
    rays = fan.ray_ids()
    return [{rid: Fraction(i + j + 2, i + 1) for j, rid in enumerate(rays)} for i in range(3)]


def test_layer_counts_of_af_check_volume_and_polarization(monkeypatch):
    # each call on a fresh context, whose batch holds no layer yet
    fan = FANS["pm1^3"]
    zs = _three_cubical(fan)
    layers = _count_layers(monkeypatch)
    af.af_check(Context(fan, identity(3)), zs)
    # [z1, z2, z3] builds 3; [z1, z1, z3] shares the prefix [z1] and builds 2; [z2, z2, z3] 3
    assert sum(layers.values()) == 8
    layers.clear()
    vol_recursive(Context(fan, identity(3)), zs[0])
    assert dict(layers) == {"_climb": 3}
    layers.clear()
    mvol_polarization_oracle(Context(fan, identity(3)), zs)
    # one constant tuple per nonempty subset, climbed as vol_recursive climbs it
    assert dict(layers) == {"_climb": 3 * (2**3 - 1)}


def test_the_volume_calls_of_a_crosscheck_job_share_its_seven_tables(monkeypatch):
    # vol_recursive tables z1, mvol_recursive z2 and z3, the polarization the four sums of
    # two or three, and af_check none: 7 tables on one context, where separate batches
    # built 1 + 3 + 7 + 3 = 14
    fan = FANS["pm1^3"]
    zs = _three_cubical(fan)
    calls = [
        lambda c: vol_recursive(c, zs[0]),
        lambda c: mvol_recursive(c, zs),
        lambda c: mvol_polarization_oracle(c, zs),
        lambda c: af.af_check(c, zs),
    ]
    expected = [call(Context(fan, identity(3))) for call in calls]
    built = _count_tables(monkeypatch)
    ctx = Context(fan, identity(3))
    assert [call(ctx) for call in calls] == expected
    assert len(built) == 7 and len(ctx._tables) == 7
    assert len({tuple(zz.values()) for zz in built}) == 7


def _filled(fan, count):
    """A fresh identity-Gram context of the fan, its batch holding ``count`` tables."""
    ctx = Context(fan, identity(fan.ambient_dim))
    for k in range(count):
        classify_z(ctx, {rid: Fraction(k + 10) for rid in fan.ray_ids()})
    assert len(ctx._tables) == count
    return ctx


@pytest.mark.parametrize("bound", [1, 2, 3, normalcx.TABLE_BOUND])
def test_a_call_that_starts_one_table_below_the_bound_keeps_its_numbers(bound, monkeypatch):
    # the batch is dropped only as a call starts: a call that starts one table below the
    # bound numbers its truncations past it, and each number holds until it returns
    fan = FANS["pm1^3"]
    zs = _three_cubical(fan)
    margin = af.af_check(Context(fan, identity(3)), zs)
    monkeypatch.setattr(normalcx, "TABLE_BOUND", bound)
    ctx = _filled(fan, bound - 1)
    assert af.af_check(ctx, zs) == margin
    assert len(ctx._tables) == bound + 2
    # past the bound, the next call drops the tables, layers and numbering together: then
    # z1..z3 and the four sums, each climbed as a constant tuple
    assert mvol_polarization_oracle(ctx, zs) == mvol_recursive(Context(fan, identity(3)), zs)
    assert len(ctx._tables) == len(ctx.truncations.scaled) == 7
    assert set(ctx._forward) == {(t,) * k for t in range(7) for k in range(4)}
    # hrw_verify's fresh context starts at bound - 1 = 0 when the bound is 1
    assert nv.hrw_verify(nv.uniform(4, 5), "a").mubar_char == (1, 4, 6, 4)


def test_a_filled_context_is_freed_without_the_cycle_collector():
    # the batch points at no context, so a context goes as its last reference does
    fan = FANS["pm1^3"]
    zs = _three_cubical(fan)
    gc.disable()
    try:
        ctx = _filled(fan, 2)
        af.af_check(ctx, zs)
        mvol_polarization_oracle(ctx, zs)
        assert ctx._tables and len(ctx._forward) > 1
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def test_a_context_that_took_the_zero_cones_star_is_freed_without_the_cycle_collector():
    # the star of the zero cone is the context itself, and it is not stored in its own stars
    gc.disable()
    try:
        ctx = Context(make_quadrant_fan(), identity(2))
        assert ctx.star_context(ZERO_CONE) is ctx
        assert ctx.star_context(("r1",)) is ctx.star_context(("r1",)) is not ctx
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def _count_fractions(patch):
    """The arguments of each Fraction built while ``patch`` is in force."""
    built, new = [], Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    patch.setattr(Fraction, "__new__", counted)
    return built


def test_layers_hold_integers_and_mvol_builds_one_fraction(monkeypatch):
    ctx = Context(_HALF.fan, _HALF.gram)
    for z in _HALF_ZS:
        classify_z(ctx, z)
    with monkeypatch.context() as patch:
        built = _count_fractions(patch)
        value = mvol_recursive(ctx, _HALF_ZS)
    assert len(built) == 1
    assert [ctx.dim_scales(j)[0] for j in range(3)] == [1, 30, 30]
    assert value == chow.deg_product(_HALF.fan, _HALF_ZS)
    layers = ctx._forward.values()
    assert all(type(v) is int for layer in layers for v in layer.values())
    rows = [row for table in ctx._tables for by_dim in table.values() for row in by_dim.values()]
    assert rows and all(type(f) is int for row in rows for f in row)


@PROPERTY
@given(context_and_truncations())
def test_vol_polynomial_matches_dp(case):
    ctx, zs = case
    f = vol_polynomial(ctx)
    for z in zs:
        assert f.eval_at(z) == vol_recursive(ctx, z)


@PROPERTY
@given(context_and_truncations())
def test_table_factors_are_restrictions(case):
    # the factor of (sigma, rho) is num_rho / (Z D_{sigma - rho}) = z^{sigma - rho}_rho, and
    # also c_sigma(z)_rho / (G_sigma^-1)_{rho rho} in the w-vector's coefficients
    ctx, zs = case
    z = zs[0]
    scale, zz = scaled_to_int(z)
    table = normalcx._Table(ctx, zz)
    assert sum(map(len, table.values())) == len(ctx.fan.cones) - 1  # cubical: every cone
    for sigma in (c for c in ctx.fan.cones if c):
        d, adj = ctx.cone_gram_inverse(sigma)
        coefficients = w_vector(ctx, sigma, z).coefficients
        for i, (rho, num) in enumerate(zip(sigma, table[len(sigma)][sigma])):
            face = sigma[:i] + sigma[i + 1 :]
            factor = Fraction(num, scale * ctx.cone_gram_inverse(face)[0])
            assert factor == restrict_z(ctx, face, z)[rho]
            assert factor == coefficients[i][1] / (adj[i][i] / (d * ctx.pair_scale))


@st.composite
def context_and_any_truncation(draw):
    """A context of ``context_and_truncations`` and one truncation of three kinds:
    - "cubical": its first cubical truncation;
    - "zeros": the same, zero on some rays, so that some cones have no nonzero factor;
    - "signs": of random signs, mostly outside the pseudocubical cone.
    """
    ctx, zs = draw(context_and_truncations())
    rays = ctx.fan.ray_ids()
    z = dict(zs[0])
    kind = draw(st.sampled_from(["cubical", "zeros", "signs"]))
    if kind == "zeros":
        for rid in draw(st.sets(st.sampled_from(rays), min_size=1)):
            z[rid] = Fraction(0)
    elif kind == "signs":
        value = st.fractions(min_value=-1, max_value=2, max_denominator=4)
        z = {rid: draw(value) for rid in rays}
    event(kind)
    return ctx, z


def _reference_scan(ctx, z):
    """The classification by the w-vectors' coefficients, cones in lexicographic order:
    the first negative coefficient, else the first zero."""
    boundary = None
    for cone in sorted(c for c in ctx.fan.cones if c):
        for rho, c in w_vector(ctx, cone, z).coefficients:
            if c < 0:
                return CubReport(OUTSIDE, cone, rho)
            if c == 0 and boundary is None:
                boundary = (cone, rho)
    return CubReport(PSEUDOCUBICAL_BOUNDARY, *boundary) if boundary else CubReport(CUBICAL)


@settings(PROPERTY, max_examples=40)
@given(context_and_any_truncation())
def test_table_rows_are_scaled_restrictions_and_its_report_is_the_scan(case):
    ctx, z = case
    scale, zz = scaled_to_int(z)
    table = normalcx._Table(ctx, zz)
    report = _reference_scan(ctx, z)
    event(report.classification)
    assert classify_z(ctx, z) == table.report == report
    assert classify_z(Context(ctx.fan, ctx.gram), z) == report  # a fresh batch and a used one
    # the pass builds the rows of the cones before an outside witness, and no others; a row
    # is the integers num = adj_sigma (Z z)_sigma, the restrictions scaled by Z D_{sigma - rho}
    cones = sorted(c for c in ctx.fan.cones if c)
    if report.classification == OUTSIDE:
        cones = cones[: cones.index(report.witness_cone)]
    expected = {k: {} for k in range(1, ctx.fan.d + 1)}
    for sigma in cones:
        adj = ctx.cone_gram_inverse(sigma)[1]
        nums = [sum(a * zz[t] for a, t in zip(row, sigma)) for row in adj]
        for i, (rho, num) in enumerate(zip(sigma, nums)):
            face = sigma[:i] + sigma[i + 1 :]
            assert num == scale * ctx.cone_gram_inverse(face)[0] * restrict_z(ctx, face, z)[rho]
        if any(nums):
            expected[len(sigma)][sigma] = nums
    assert table == expected
    assert all(type(v) is int for rows in table.values() for row in rows.values() for v in row)


@settings(PROPERTY, max_examples=25)
@given(context_and_any_truncation())
def test_classifying_reads_no_lambda(case):
    # Lambda_k // D_sigma scales the layers only: no classification reads it
    ctx, z = case
    fresh = Context(ctx.fan, ctx.gram)

    def unread(j):
        raise AssertionError(f"the classification read Lambda_{j}")

    fresh.dim_scales = unread
    assert classify_z(fresh, z) == classify_z(ctx, z)
    assert fresh.classify(z) == classify_z(ctx, z)


@PROPERTY
@given(st.sampled_from(["quadrant", "quadrant x pm1"]), st.data())
def test_restriction_reads_the_link_and_builds_no_star(name, data):
    fan = make_quadrant_fan() if name == "quadrant" else FANS[name]
    g = data.draw(gram(fan.ambient_dim))
    step = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    z = {rid: data.draw(step) for rid in fan.ray_ids()}
    ctx = Context(fan, g)
    restricted = {tau: restrict_z(ctx, tau, z) for tau in fan.cones if tau}
    assert ctx._stars == {}
    reference = Context(fan, g)
    for tau, z_tau in restricted.items():
        assert face_complex(reference, tau, z)[1] == z_tau


def _rescaled(draw, fan):
    """The fan with every ray scaled by a random positive rational (still a valid fan)."""
    scale = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=6)
    rays = {rid: tuple(draw(scale) * x for x in u) for rid, u in fan.rays.items()}
    cones = [(c, fan.weights[c]) for c in fan.max_cones]
    return nv.MarkedFan(fan.ambient_dim, rays, cones, validate_geometry=False)


@st.composite
def context_with_rational_rays(draw):
    """A fan of FANS with every ray scaled by a random positive rational, and a random Gram."""
    fan = _rescaled(draw, FANS[draw(st.sampled_from(sorted(FANS)))])
    return Context(fan, draw(gram(fan.ambient_dim)))


@PROPERTY
@given(context_with_rational_rays())
def test_cone_adjugates_invert_the_gram_blocks(ctx):
    # G_sigma^-1 = adj / (D pair_scale), with adj G~_sigma = D I in the integer pairings
    for sigma in ctx.fan.cones:
        if not sigma:
            continue
        rids = sigma
        d, adj = ctx.cone_gram_inverse(sigma)
        pairs = [[ctx.ray_pair(a, b) for b in rids] for a in rids]
        assert d > 0
        assert mat_mul(adj, pairs) == tuple(
            tuple(d if i == j else 0 for j in range(len(rids))) for i in range(len(rids))
        )
        rays = [ctx.fan.rays[rid] for rid in rids]
        block = tuple(tuple(dot(u, mat_vec(ctx.gram, v)) for v in rays) for u in rays)
        assert tuple(tuple(v / (d * ctx.pair_scale) for v in row) for row in adj) == inverse(block)


def _check_cone_order(fan):
    cones = list(fan.cones)
    # every cone is a strictly increasing tuple of ray ids, and the cones are the
    # faces of the maximal cones
    assert all(type(c) is tuple and all(a < b for a, b in zip(c, c[1:])) for c in cones)
    faces = {s for sigma in fan.max_cones for k in range(fan.d + 1) for s in combinations(sigma, k)}
    assert set(cones) == faces
    # fan.cones is lexicographic, each cone once, the zero cone first
    assert cones[0] == ZERO_CONE == ()
    assert all(a < b for a, b in zip(cones, cones[1:]))
    # join adds a link ray in its sorted place, and gives a cone of the fan
    for tau in cones:
        for eta in fan.link(tau):
            assert join(tau, eta) == cone_of(*tau, eta) and join(tau, eta) in fan.cones
    # a cone's face without its last ray is the nearest earlier cone of one dimension less
    latest = {}
    for cone in cones:
        if cone:
            assert latest[len(cone) - 1] == cone[:-1]
        latest[len(cone)] = cone
    for k in range(fan.d + 1):
        assert fan.cones_of_dim(k) == sorted(c for c in fan.cones if len(c) == k)
    assert Context(fan, identity(fan.ambient_dim)).cone_gram_inverse(ZERO_CONE) == (1, ())


@pytest.mark.parametrize("name", sorted(FANS))
def test_the_fan_owns_one_lexicographic_cone_order(name):
    _check_cone_order(FANS[name])


def _relabeled(fan, names):
    """The fan with ray ids renamed by ``names``, so that the id order is not the factors'."""
    rays = {names[rid]: u for rid, u in fan.rays.items()}
    cones = [([names[rid] for rid in c], fan.weights[c]) for c in fan.max_cones]
    return nv.MarkedFan(fan.ambient_dim, rays, cones, validate_geometry=False)


FACTORS = {
    "pm1": make_pm1_fan(),
    "quadrant": make_quadrant_fan(),
    "ray": nv.MarkedFan(1, {"p": (Fraction(1),)}, [(("p",), 1)]),
    "U34": bergman("U34").fan,
}


@PROPERTY
@given(st.lists(st.sampled_from(sorted(FACTORS)), min_size=2, max_size=3), st.data())
def test_drawn_product_fans_own_one_lexicographic_cone_order(factors, data):
    fan = FACTORS[factors[0]]
    for name in factors[1:]:
        fan = product_fan(fan, FACTORS[name])
    rids = sorted(fan.rays)
    labels = data.draw(st.permutations([f"r{i}" for i in range(len(rids))] + ["a", "ab", "b"]))
    _check_cone_order(_relabeled(fan, dict(zip(rids, labels))))


@PROPERTY
@given(st.lists(st.sampled_from(sorted(FACTORS)), min_size=2, max_size=3), st.data())
def test_drawn_dependent_cones_are_named_as_by_a_rank_scan(factors, data):
    """A drawn product fan, its maximal cones listed in a drawn order, with one ray of
    one cone moved to an integer combination of that cone's other rays: the build
    refuses it, naming the cone that a scan of the maximal cones by rank finds first."""
    fan = FACTORS[factors[0]]
    for name in factors[1:]:
        fan = product_fan(fan, FACTORS[name])
    cones = data.draw(st.permutations(fan.max_cones))
    sigma = data.draw(st.sampled_from(cones))
    moved = data.draw(st.sampled_from(sigma))
    others = [rid for rid in sigma if rid != moved]
    # nonzero coefficients of independent rays: u is no zero ray, refused for itself
    nonzero = st.sampled_from([-2, -1, 1, 2])
    coefficients = data.draw(st.lists(nonzero, min_size=len(others), max_size=len(others)))
    u = [sum(c * fan.rays[rid][i] for c, rid in zip(coefficients, others))
         for i in range(fan.ambient_dim)]
    rays = {**fan.rays, moved: tuple(u)}
    dependent = reference_dependent_cones(rays, cones)
    named = dependent[0]
    event("lexicographically first" if named == min(dependent) else "not lexicographically first")
    with pytest.raises(NotSimplicial) as raised:
        nv.MarkedFan(fan.ambient_dim, rays, [(c, fan.weights[c]) for c in cones],
                     validate_geometry=False)
    assert str(raised.value) == f"cone {list(named)} has dependent generators"


@st.composite
def oracle_cases(draw):
    """A rescaled fan of FANS with a random Gram, a cone sigma (now and then a set of
    rays that is not one), and a truncation of one of four kinds:
    - "near": near the all-ones vector, mostly cubical;
    - "zeros": the same, zero on some rays;
    - "boundary": the same, with one barycentric coefficient of w_sigma(z) solved to 0,
      so that every chain through that facet is degenerate (det 0);
    - "signs": of random signs, mostly outside the pseudocubical cone.
    """
    ctx = draw(context_with_rational_rays())
    fan = ctx.fan
    rays = fan.ray_ids()
    if draw(st.integers(0, 9)):
        sigma = draw(st.sampled_from(list(fan.cones)))
    else:
        subsets = (s for k in (2, 3) for s in combinations(rays, k))
        sigma = draw(st.sampled_from([s for s in subsets if s not in fan.cones]))
    step = st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(1, 4), max_denominator=8)
    z = {rid: 1 + draw(step) for rid in rays}
    kind = draw(st.sampled_from(["near", "zeros", "boundary", "signs"]))
    if kind == "zeros":
        for rid in draw(st.sets(st.sampled_from(rays), min_size=1)):
            z[rid] = Fraction(0)
    elif kind == "boundary" and sigma in fan.cones and sigma:
        rids = sigma
        i = draw(st.integers(0, len(rids) - 1))
        row = ctx.cone_gram_inverse(sigma)[1][i]
        rest = sum(a * z[rid] for j, (a, rid) in enumerate(zip(row, rids)) if j != i)
        z[rids[i]] = Fraction(-rest, row[i])
    elif kind == "signs":
        z = {rid: draw(st.fractions(min_value=-2, max_value=2, max_denominator=6)) for rid in rays}
    event(kind)
    return ctx, sigma, z


_QUADRANT = Context(make_quadrant_fan(), identity(2))
_BOUNDARY = {"r1": Fraction(0), "r2": Fraction(1), "r3": Fraction(1), "r4": Fraction(1)}
_CUBE = Context(FANS["pm1^3"], qmat([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))
_BOX = {rid: Fraction(i + 1, 2) for i, rid in enumerate(_CUBE.fan.ray_ids())}


@PROPERTY
@given(oracle_cases())
@example((_QUADRANT, ("r1", "r2"), _BOUNDARY))  # a 0 x 1 rectangle: volume 0
@example((_QUADRANT, ("r2", "r3"), _BOUNDARY))  # a 1 x 1 square: volume 2
@example((_QUADRANT, ("r1", "r3"), _BOUNDARY))  # not a cone
@example((_CUBE, _CUBE.fan.max_cones[0], _BOX))  # a box with three different sides, D != 1
def test_geometric_oracle_equals_the_rational_tiling(case):
    # value for value, and the same refusal with the same message
    ctx, sigma, z = case
    try:
        expected = reference_geometric_volume(ctx, sigma, z)
    except NormalVolError as exc:
        event(type(exc).__name__)
        with pytest.raises(NormalVolError) as raised:
            geometric_volume_oracle(ctx, sigma, z)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
    else:
        event("zero volume" if expected == 0 else "positive volume")
        assert geometric_volume_oracle(ctx, sigma, z) == expected


@pytest.mark.parametrize("name", ["pm1^3", "quadrant x pm1"])
def test_the_geometric_oracle_builds_one_fraction(name, monkeypatch):
    # the chains of a cone sum as integers over one denominator, whatever its D and Z
    ctx = Context(FANS[name], qmat([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))
    z = {rid: Fraction(i + 1, 2 + i % 3) for i, rid in enumerate(ctx.fan.ray_ids())}
    values = {}
    for sigma in ctx.fan.cones:
        with monkeypatch.context() as patch:
            built = _count_fractions(patch)
            values[sigma] = geometric_volume_oracle(ctx, sigma, z)
        assert len(built) == (1 if sigma else 0), sigma  # the zero cone's is the constant 1
    assert values == {sigma: reference_geometric_volume(ctx, sigma, z) for sigma in values}
    total = sum(ctx.fan.weights[s] * values[s] for s in ctx.fan.max_cones)
    assert total == vol_recursive(ctx, z) > 0


@st.composite
def context_of_dim_3(draw):
    """A fan of STAR_FANS with its rays rescaled, and a random Gram."""
    fan = _rescaled(draw, STAR_FANS[draw(st.sampled_from(sorted(STAR_FANS)))])
    return Context(fan, draw(gram(fan.ambient_dim)))


def _cones_up_to(fan, dim):
    return [tau for k in range(dim + 1) for tau in fan.cones_of_dim(k)]


@PROPERTY
@given(context_of_dim_3())
def test_star_hessians_are_the_hessians_of_the_star_polynomials(ctx):
    # the closed form against the star fan's own elimination and dynamic program
    hessians = star_hessians(ctx)
    assert set(hessians) == set(ctx.fan.cones_of_dim(ctx.fan.d - 2))
    for tau, h in hessians.items():
        assert h == hessian(vol_polynomial(ctx.star_context(tau)), ctx.fan.link(tau))


@PROPERTY
@given(context_of_dim_3())
def test_star_connectivity_is_read_off_the_link(ctx):
    # up to d - 1, where the 1-dimensional stars of the +-1 factors are disconnected
    for tau in _cones_up_to(ctx.fan, ctx.fan.d - 1):
        expected = star_connected_minus_origin(ctx.star_context(tau).fan)
        assert star_connected_minus_origin(ctx.fan, tau) == expected


# (fan, Gram, verdict); the U(4,5) fan's cubical cone is empty under the dense Gram
REDUCE_CASES = {name: (FANS[name], identity(3), af.PASS) for name in ("quadrant x pm1", "pm1^3")}
for _fx in map(bergman, ("U34", "K4", "U35", "U45")):
    REDUCE_CASES[f"{_fx.name} e0"] = (_fx.fan, _fx.gram, af.PASS)
    REDUCE_CASES[f"{_fx.name} dense"] = (
        _fx.fan,
        dense_gram(_fx.fan.ambient_dim),
        af.UNDEFINED if _fx.name == "U45" else af.PASS,
    )


@pytest.mark.parametrize("name", list(REDUCE_CASES))
def test_reduce_conditions_build_no_star_context(name):
    fan, g, verdict = REDUCE_CASES[name]
    ctx = Context(fan, g)
    report = af.check_reduce_conditions(ctx)
    assert report.verdict == verdict
    assert report.condition_i_pass and report.condition_ii_pass
    assert [tau for tau, _ in report.condition_ii_signatures] == fan.cones_of_dim(fan.d - 2)
    assert ctx._stars == {}
    reference = Context(fan, g)
    for tau, sig in report.condition_ii_signatures:
        star_ctx = reference.star_context(tau)
        assert sig == signature(hessian(vol_polynomial(star_ctx), star_ctx.fan.ray_ids()))


def test_hrw_builds_no_star_context(monkeypatch):
    built = []

    class Recording(Context):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(af, "Context", Recording)
    report = nv.hrw_verify(nv.uniform(4, 5), "a")
    assert report.mubar_char == (1, 4, 6, 4)
    assert len(built) == 1
    assert built[0]._stars == {}
