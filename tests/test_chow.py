import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normalvol as nv
from normalvol import chow
from normalvol.chow import covector
from normalvol.errors import GradeOverflow, NotTropical, WrongGrade
from normalvol.fan import ZERO_CONE, is_tropical
from normalvol.linalg import dot, scaled_to_int
from normalvol.normalcx import vol_recursive

from conftest import (
    ChowClass,
    cone_of,
    bergman,
    dense_rational_matrix,
    flats_of_rank,
    make_pm1_fan,
    make_quadrant_fan,
    mapped,
    product_fan,
    reference_deg_product,
    reference_multiply,
    reversed_coordinates,
)


def zmap(**kwargs):
    return {k: Fraction(v) for k, v in kwargs.items()}


def _as_class(grade, nums, den):
    """The reference class of integer numerators over den."""
    return ChowClass.build(grade, {cone: Fraction(c, den) for cone, c in nums.items()})


def test_unit_times_divisor_is_the_divisor():
    fan = make_quadrant_fan()
    z = zmap(r1=Fraction(1, 2), r2=2, r3=Fraction(3, 4), r4=4)
    scale, zz = scaled_to_int(z)
    # the zero cone has no rays, so the first step solves for no covector
    solved = {}
    nums, big = chow._multiply(fan, {ZERO_CONE: 1}, zz, solved)
    assert (scale, big, solved) == (4, 1, {})
    assert _as_class(1, nums, scale * big) == reference_multiply(fan, ChowClass.unit(), z)
    assert nums == {(r,): zz[r] for r in z}


def test_wrong_grade_rejected():
    fan = make_quadrant_fan()
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    # a short tuple anywhere in a batch is refused
    with pytest.raises(WrongGrade, match="degree needs grade 2, got 1"):
        chow.deg_products(fan, [[z, z], [z]])
    with pytest.raises(WrongGrade, match="degree needs grade 2, got 0"):
        nv.deg_product(fan, [])


def test_grade_overflow():
    fan = make_pm1_fan()
    z = {"p": Fraction(1), "m": Fraction(1)}
    assert chow.deg_products(fan, [[z]]) == [2]
    with pytest.raises(GradeOverflow, match="cannot raise grade 1 on a 1-dimensional fan"):
        chow.deg_products(fan, [[z], [z, z]])


def test_degree_requires_tropical():
    fan = make_pm1_fan(weights=(1, 2))
    z = {"p": Fraction(1), "m": Fraction(1)}
    with pytest.raises(NotTropical):
        nv.deg_products(fan, [[z]])
    report = is_tropical(fan)
    assert report.failing == (ZERO_CONE,) and report.certificates == {}


def test_degree_on_a_zero_dimensional_fan_is_its_weight():
    fan = nv.MarkedFan(1, {}, [((), Fraction(2, 3))])
    assert fan.d == 0
    assert nv.deg_products(fan, [[], []]) == [Fraction(2, 3)] * 2


def test_covector_defining_equations():
    fan = bergman("U34").fan  # cones of dimension <= 2 in a 3-dimensional space
    assert fan.ambient_dim == 3
    sigma = fan.cones_of_dim(2)[0]
    rids = fan.ray_ids()
    z1 = {r: Fraction(i + 2, 3) for i, r in enumerate(rids)}
    z2 = {r: Fraction(5 - 2 * i, 7) for i, r in enumerate(rids)}
    lam = Fraction(-3, 2)
    combo = {r: z1[r] + lam * z2[r] for r in rids}
    chosen = []
    # the reversed fan's covectors, reversed back, are covectors of the fan too
    for f, back in ((fan, 1), (reversed_coordinates(fan), -1)):
        covectors = []
        for z in (z1, z2, combo):
            scale = lcm(*(x.denominator for x in z.values()))
            zz = {r: int(x * scale) for r, x in z.items()}
            v, p = covector(f, sigma, zz)
            assert p != 0 and all(type(x) is int for x in v)
            assert all(dot(v, f.int_rays[rho]) == p * zz[rho] for rho in sigma)
            # v / p pairs M u with Z z, so M v / (Z p) pairs u with z
            covectors.append(tuple(Fraction(f.ray_scale * x, scale * p) for x in v)[::back])
        v1, v2, vc = covectors
        for v, z in ((v1, z1), (v2, z2), (vc, combo)):
            assert all(dot(v, fan.rays[rho]) == z[rho] for rho in sigma)
        assert vc == tuple(a + lam * b for a, b in zip(v1, v2))
        chosen.append(v1)
    assert chosen[0] != chosen[1]


# Every covector term vanishes on products of coordinate fans, so the product
# here has a Bergman factor; U(4,5) adds 2-cones of one Bergman fan, on which
# z can vanish on one ray and not the other.  The mapped fans have dense
# non-integral rays, so their integer rays are scaled by a ray_scale above 1,
# and at d = 3 their balancing certificates come from pivots other than 1.
# Each fan also comes with its coordinates reversed, which changes the
# covector chosen on each cone and the certificate's pivots.
REFERENCE_FANS = {
    "U34": bergman("U34").fan,
    "K4": bergman("K4").fan,
    "U45": bergman("U45").fan,
    "U34 x pm1": product_fan(bergman("U34").fan, make_pm1_fan((2, 2))),
    "U34 mapped": mapped(bergman("U34").fan, dense_rational_matrix(3)),
    "U45 mapped": mapped(bergman("U45").fan, dense_rational_matrix(4)),
}
REFERENCE_FANS.update(
    {f"{name} reversed": reversed_coordinates(fan) for name, fan in list(REFERENCE_FANS.items())}
)

entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(REFERENCE_FANS)),
    data=st.data(),
)
def test_multiply_divisor_matches_per_ray_expansion(name, data):
    # the integer step, with one covector per cone where z is not zero, against
    # the per-ray expansion over Fraction, at every grade below d
    fan = REFERENCE_FANS[name]
    cls, nums, den = ChowClass.unit(), {ZERO_CONE: 1}, 1
    for _ in range(fan.d - 1):
        z = {r: data.draw(entries) for r in fan.ray_ids()}
        scale, zz = scaled_to_int(z)
        solved = {}
        support = [sigma for sigma in nums if any(z[rho] for rho in sigma)]
        nums, big = chow._multiply(fan, nums, zz, solved)
        assert list(solved) == support
        assert big == lcm(*(p for _, p in solved.values()))
        den *= scale * big
        cls = reference_multiply(fan, cls, z)
        assert _as_class(cls.grade, nums, den) == cls
        assert all(type(c) is int and c for c in nums.values())


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(REFERENCE_FANS)),
    data=st.data(),
)
def test_deg_products_match_per_ray_reference(name, data):
    # batches drawn from a pool of two or three truncations, so that prefixes repeat
    fan = REFERENCE_FANS[name]
    rids = fan.ray_ids()
    pool = [{r: data.draw(entries) for r in rids} for _ in range(data.draw(st.integers(2, 3)))]
    picks = st.lists(st.sampled_from(range(len(pool))), min_size=fan.d, max_size=fan.d)
    tuples = [[pool[i] for i in data.draw(picks)] for _ in range(data.draw(st.integers(1, 4)))]
    values = chow.deg_products(fan, tuples)
    assert values == [reference_deg_product(fan, zs) for zs in tuples]
    assert values == [chow.deg_product(fan, zs) for zs in tuples]


@pytest.mark.parametrize("name", ["U45", "K4"])
def test_deg_products_of_a_batch_equal_its_degrees_one_by_one(name, monkeypatch):
    # mixed batches: the hrw pencil, its reversal, repeated tuples, a random truncation,
    # and alpha halved, whose Z z = alpha over Z = 2 is alpha's own Z z over Z = 1
    fx = bergman(name)
    fan, a, b = fx.fan, fx.z_alpha, fx.z_beta
    rng = random.Random(3)
    c = {r: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for r in fan.ray_ids()}
    half = {r: v / 2 for r, v in a.items()}
    d = fan.d
    pencil = [[a] * (d - k) + [b] * k for k in range(d + 1)]
    tuples = pencil + [zs[::-1] for zs in pencil] + [[c] + [a] * (d - 1), [a] * (d - 1) + [c]]
    tuples += [[dict(z) for z in zs] for zs in tuples[:2]]  # equal by value, not by identity
    tuples += [[half] * d, [half] + [b] * (d - 1)]
    values = chow.deg_products(fan, tuples)
    assert values == [chow.deg_product(fan, zs) for zs in tuples]
    assert tuple(values[: d + 1]) == nv.char_poly(fx.matroid).mubar
    assert values[-2:] == [values[0] / 2**d, values[d - 1] / 2] and values[-2] != values[0]
    assert chow.deg_products(fan, []) == []
    # alpha as 1, Fraction(1) and Fraction(2, 2): one truncation, one covector per cone
    kinds = (int, Fraction, lambda v: Fraction(2 * v, 2))
    copies = [{r: kind(v) for r, v in a.items()} for kind in kinds]
    solved = []
    monkeypatch.setattr(chow, "covector", lambda *args: solved.append(args[1]) or covector(*args))
    assert chow.deg_products(fan, [[a] * d]) == [1]
    once, solved[:] = list(solved), []
    assert chow.deg_products(fan, [[z] * d for z in copies]) == [1, 1, 1]
    assert solved == once and len(set(once)) == len(once)


@pytest.mark.parametrize("name", ["U34", "K4"])
def test_degrees_do_not_change_under_a_rational_change_of_coordinates(name):
    fx = bergman(name)
    fan = fx.fan
    other = mapped(fan, dense_rational_matrix(fan.ambient_dim))
    assert other.ray_scale > 1
    rng = random.Random(5)
    z_random = {r: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for r in fan.ray_ids()}
    for zs in ([fx.z_alpha] * fan.d, [fx.z_alpha, fx.z_beta], [z_random, fx.z_beta]):
        assert nv.deg_product(fan, zs) == nv.deg_product(other, zs)


def test_deg_product_checks_before_it_multiplies(monkeypatch):
    def refuse(*args):
        raise AssertionError("a product was taken")

    # the step below the top, the pairing at the top and the covectors
    for name in ("_multiply", "_pairings", "covector"):
        monkeypatch.setattr(chow, name, refuse)
    quadrant = make_quadrant_fan()
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    with pytest.raises(WrongGrade, match="degree needs grade 2, got 1"):
        chow.deg_product(quadrant, [z])
    with pytest.raises(GradeOverflow, match="cannot raise grade 2 on a 2-dimensional fan"):
        chow.deg_product(quadrant, [z] * 3)
    unbalanced = make_pm1_fan(weights=(1, 2))
    zp = {"p": Fraction(1), "m": Fraction(1)}
    with pytest.raises(NotTropical, match="degree is only well defined on tropical fans"):
        chow.deg_product(unbalanced, [zp])
    # arity comes first, as in the product loop: a non-tropical fan with the wrong count
    with pytest.raises(WrongGrade):
        chow.deg_product(unbalanced, [])
    with pytest.raises(GradeOverflow):
        chow.deg_product(unbalanced, [zp, zp])


def test_deg_product_adds_no_attribute_to_the_fan():
    fan = make_quadrant_fan()
    before = set(vars(fan))
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    assert nv.deg_product(fan, [z, z]) == nv.deg_product(reversed_coordinates(fan), [z, z]) == 48
    assert set(vars(fan)) == before


def test_deg_matches_volume_on_quadrant(quadrant_ctx):
    fan = quadrant_ctx.fan
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    assert nv.deg_product(fan, [z, z]) == vol_recursive(quadrant_ctx, z) == 48


def test_deg_independent_of_pivot_strategy(quadrant_ctx):
    fan = quadrant_ctx.fan
    reversed_fan = reversed_coordinates(fan)
    rng = random.Random(11)
    for _ in range(10):
        z1 = {r: Fraction(rng.randint(-5, 9)) for r in fan.ray_ids()}
        z2 = {r: Fraction(rng.randint(-5, 9)) for r in fan.ray_ids()}
        assert nv.deg_product(fan, [z1, z2]) == nv.deg_product(reversed_fan, [z1, z2])


def test_deg_commutative(quadrant_ctx):
    fan = quadrant_ctx.fan
    z1 = zmap(r1=1, r2=2, r3=3, r4=4)
    z2 = zmap(r1=2, r2=1, r3=1, r4=2)
    assert nv.deg_product(fan, [z1, z2]) == nv.deg_product(fan, [z2, z1]) == 30


def test_deg_multilinear(quadrant_ctx):
    fan = quadrant_ctx.fan
    z1 = zmap(r1=1, r2=2, r3=3, r4=4)
    z2 = zmap(r1=2, r2=1, r3=1, r4=2)
    z3 = zmap(r1=0, r2=5, r3=1, r4=0)
    lam = Fraction(7, 3)
    combo = {r: lam * z2[r] + z3[r] for r in z1}
    assert nv.deg_product(fan, [z1, combo]) == lam * nv.deg_product(
        fan, [z1, z2]
    ) + nv.deg_product(fan, [z1, z3])


def _indicator(fan, rid):
    return {r: Fraction(1 if r == rid else 0) for r in fan.ray_ids()}


def test_bergman_rank3_squares():
    # On the Bergman fan of a rank-3 matroid: deg(X_F X_G) = 1 for a flag
    # F < G, deg(X_G^2) = -1 for rank-2 flats, and deg(X_F^2) = 1 - #{G > F}
    # for rank-1 flats.
    fx = bergman("U34")
    m, fan = fx.matroid, fx.fan
    from normalvol.matroid import flat_ray_id

    rank1 = [flat_ray_id(m, f) for f in flats_of_rank(m, 1)]
    rank2 = [flat_ray_id(m, f) for f in flats_of_rank(m, 2)]

    for f_id in rank1:
        for g_id in rank2:
            if cone_of(f_id, g_id) in fan.cones:
                assert nv.deg_product(fan, [_indicator(fan, f_id), _indicator(fan, g_id)]) == 1
    for g_id in rank2:
        assert nv.deg_product(fan, [_indicator(fan, g_id)] * 2) == -1
    for f_id in rank1:
        above = sum(1 for c in fan.cones_of_dim(2) if f_id in c)
        assert nv.deg_product(fan, [_indicator(fan, f_id)] * 2) == 1 - above


def test_zero_entry_prunes():
    fan = make_quadrant_fan()
    zero = zmap(r1=0, r2=0, r3=0, r4=0)
    assert chow._multiply(fan, {ZERO_CONE: 1}, scaled_to_int(zero)[1], {}) == ({}, 1)
    assert reference_multiply(fan, ChowClass.unit(), zero).weights == ()
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    assert nv.deg_products(fan, [[zero, z], [z, zero]]) == [0, 0]


def test_one_degree_builds_one_fraction(monkeypatch):
    # integer numerators over one denominator all the way: the only Fraction is the degree
    fx, other = bergman("U45"), REFERENCE_FANS["U45 mapped"]
    for fan, zs in (
        (fx.fan, [fx.z_alpha, fx.z_beta, _halves(fx.fan)]),
        (other, [_halves(other)] * 3),
    ):
        is_tropical(fan)
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counted)
            value = chow.deg_product(fan, zs)
        assert len(built) == 1
        assert value == reference_deg_product(fan, zs)


def _halves(fan):
    return {r: Fraction(i % 5 - 2, 2) for i, r in enumerate(fan.ray_ids())}


def test_top_grade_calls_no_covector(monkeypatch):
    calls = []

    def counted(fan, sigma, zz):
        calls.append(sigma)
        return covector(fan, sigma, zz)

    monkeypatch.setattr(chow, "covector", counted)
    small = [make_quadrant_fan(), make_pm1_fan(), bergman("U34").fan, bergman("K4").fan]
    small += [REFERENCE_FANS["U34 mapped"], REFERENCE_FANS["U34 mapped reversed"]]
    for fan in small:
        assert fan.d <= 2
        z = _halves(fan)
        assert chow.deg_product(fan, [z] * fan.d) == reference_deg_product(fan, [z] * fan.d)
    assert calls == []
    # on d = 3 only the middle step solves, once per ray where both z are nonzero
    fx = bergman("U45")
    z1, z2 = _halves(fx.fan), fx.z_beta
    chow.deg_product(fx.fan, [z1, z2, fx.z_alpha])
    solved = [(r,) for r in fx.fan.ray_ids() if z1[r] and z2[r]]
    assert sorted(calls) == solved
