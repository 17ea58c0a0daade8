from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import normalvol as nv
from normalvol import af, chow, normalcx
from normalvol.af import (
    FAIL,
    PASS,
    UNDEFINED,
    sample_cubical,
)
from normalvol.errors import ArityMismatch, MismatchError, NotCubical
from normalvol.linalg import identity, signature
from normalvol.normalcx import Context, vol_polynomial

from conftest import (
    bergman,
    boundary_limit_margins,
    hessian,
    make_pm1_fan,
    product_fan,
    sparse_paving_flats,
    sparse_paving_matroids,
)


def zmap(**kwargs):
    return {k: Fraction(v) for k, v in kwargs.items()}


# -- reduce conditions --------------------------------------------------------


def test_reduce_quadrant(quadrant_ctx):
    report = nv.check_reduce_conditions(quadrant_ctx)
    assert report.verdict == PASS
    assert report.condition_i_pass and not report.condition_i_failing
    # the quadrant's volume quadratic 2(z1+z3)(z2+z4) has signature (1, 1)
    assert len(report.condition_ii_signatures) == 1
    sig = report.condition_ii_signatures[0][1]
    assert (sig.n_plus, sig.n_minus) == (1, 1)
    assert report.cub_nonempty and report.cubical_witness is not None


def test_reduce_segment(pm1_ctx):
    # d = 1: no conditions to check, Cub nonempty
    report = nv.check_reduce_conditions(pm1_ctx)
    assert report.verdict == PASS
    assert report.condition_ii_signatures == ()


@pytest.mark.parametrize("name", ["U34", "K4"])
def test_reduce_bergman(name):
    report = nv.check_reduce_conditions(bergman(name).ctx)
    assert report.verdict == PASS
    for _, sig in report.condition_ii_signatures:
        assert sig.n_plus == 1


def test_product_star_signature():
    # the product of two 1-dimensional Bergman fans is a 2-dimensional fan
    # whose volume quadratic has signature (1, 1) padded by zeros
    f1 = bergman("U23").fan
    fan = product_fan(f1, f1)
    ctx = Context(fan, identity(4))
    quad = vol_polynomial(ctx)
    sig = signature(hessian(quad, fan.ray_ids()))
    assert (sig.n_plus, sig.n_minus) == (1, 1)
    report = nv.check_reduce_conditions(ctx)
    assert report.verdict == PASS


# -- af_check ------------------------------------------------------------------


def test_af_margin_zero_on_equal_arguments(quadrant_ctx):
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    assert nv.af_check(quadrant_ctx, [z, z]) == 0


def test_af_margin_nonnegative_and_symmetric(quadrant_ctx):
    z1 = zmap(r1=1, r2=2, r3=3, r4=4)
    z2 = zmap(r1=2, r2=1, r3=1, r4=2)
    m = nv.af_check(quadrant_ctx, [z1, z2])
    assert m >= 0
    assert nv.af_check(quadrant_ctx, [z2, z1]) == m


def test_af_margin_scaling(quadrant_ctx):
    # scaling z2 by lambda scales the margin by lambda^2
    z1 = zmap(r1=1, r2=2, r3=3, r4=4)
    z2 = zmap(r1=2, r2=1, r3=1, r4=2)
    lam = Fraction(3, 2)
    scaled = {k: lam * v for k, v in z2.items()}
    assert nv.af_check(quadrant_ctx, [z1, scaled]) == lam**2 * nv.af_check(
        quadrant_ctx, [z1, z2]
    )


def test_af_requires_cubical(quadrant_ctx):
    z = zmap(r1=1, r2=2, r3=3, r4=4)
    boundary = zmap(r1=0, r2=0, r3=0, r4=0)
    with pytest.raises(NotCubical):
        nv.af_check(quadrant_ctx, [z, boundary])
    with pytest.raises(ArityMismatch):
        nv.af_check(quadrant_ctx, [z])


def test_af_needs_dimension_two():
    ctx = Context(make_pm1_fan(), identity(1))
    with pytest.raises(ArityMismatch):
        nv.af_check(ctx, [{"p": Fraction(1), "m": Fraction(1)}])


def test_af_on_bergman_samples():
    fx = bergman("K4")
    samples = sample_cubical(fx.ctx, 10, seed=3)
    assert len(samples) == 10
    for i in range(0, 10, 2):
        margin = nv.af_check(fx.ctx, [samples[i], samples[i + 1]])
        assert margin >= 0


# -- sampling --------------------------------------------------------------------


def test_sampling_is_deterministic(quadrant_ctx):
    a = sample_cubical(quadrant_ctx, 5, seed=9)
    b = sample_cubical(quadrant_ctx, 5, seed=9)
    assert a == b
    c = sample_cubical(quadrant_ctx, 5, seed=10)
    assert c != a


def test_samples_are_cubical(quadrant_ctx):
    for z in sample_cubical(quadrant_ctx, 20, seed=1):
        assert nv.classify_z(quadrant_ctx, z).is_cubical


# -- the HRW pipeline ------------------------------------------------------------------


HRW_MUBAR = {
    "U23": (1, 2),
    "U34": (1, 3, 3),
    "K4": (1, 5, 6),
    "K4e": (1, 4, 4),
}


@pytest.mark.parametrize("name", sorted(HRW_MUBAR))
def test_hrw_values(name):
    fx = bergman(name)
    report = nv.hrw_verify(fx.matroid, fx.e0)
    assert report.verdict == PASS
    assert report.mubar_char == HRW_MUBAR[name]
    assert report.log_concave and report.unimodal


def test_hrw_refuses_a_mixed_volume_off_by_one(monkeypatch):
    # U(3,4) has d = 2, and alpha and beta are the batch's truncations 0 and 1
    mvol_at = af.Context.mvol_at

    def shifted(ctx, ts):
        return mvol_at(ctx, ts) + (ts == (0, 1))

    monkeypatch.setattr(af.Context, "mvol_at", shifted)
    with pytest.raises(MismatchError, match="mubar paths disagree"):
        nv.hrw_verify(bergman("U34").matroid, "a")


def test_hrw_refuses_a_chow_degree_off_by_one(monkeypatch):
    deg_products_at = af.chow.deg_products_at

    def shifted(fan, batch, keys):
        values = deg_products_at(fan, batch, keys)
        values[1] += 1
        return values

    monkeypatch.setattr(af.chow, "deg_products_at", shifted)
    with pytest.raises(MismatchError, match="mubar paths disagree"):
        nv.hrw_verify(bergman("U34").matroid, "a")


@pytest.mark.parametrize("name", ["U34", "K4"])
def test_hrw_indexes_its_pencil_once(name, monkeypatch):
    # the mixed volumes and the Chow degrees read one fan.Truncations, which numbers
    # alpha and beta once each
    fx = bergman(name)  # its context is built before the count starts
    built, indexed = [], []
    truncations = normalcx.Truncations

    class Counted(truncations):
        def __init__(self, fan):
            built.append(fan)
            super().__init__(fan)

        def index(self, z):
            indexed.append(z)
            return super().index(z)

    for module in (chow, normalcx):
        monkeypatch.setattr(module, "Truncations", Counted)
    report = nv.hrw_verify(fx.matroid, fx.e0)
    assert report.mubar_char == HRW_MUBAR[name]
    assert len(built) == 1 and built[0] is report.fan
    assert indexed == list(nv.alpha_beta_z(fx.matroid, fx.e0))


def test_hrw_e0_independent():
    m = bergman("U34").matroid
    for e0 in m.ground:
        assert nv.hrw_verify(m, e0).mubar_char == (1, 3, 3)


@settings(max_examples=25, deadline=None)
@given(sparse_paving_matroids(sizes=[6, 7, 8], ranks=[3, 4]), st.data())
def test_hrw_and_reduce_conditions_on_sparse_paving_matroids(case, data):
    # most sparse paving matroids are representable over no field; the theorem covers them all
    ground, r, circuit_hyperplanes = case
    m = nv.from_flats(ground, sparse_paving_flats(ground, r, circuit_hyperplanes))
    assert m.rank == r
    e0 = data.draw(st.sampled_from(ground))
    event(f"n = {len(ground)}, r = {r}, {len(circuit_hyperplanes)} circuit-hyperplanes")
    report = nv.hrw_verify(m, e0)  # MismatchError unless the three mubar paths agree
    mubar = report.mubar_char
    assert report.verdict == PASS
    assert all(mubar[i] ** 2 >= mubar[i - 1] * mubar[i + 1] for i in range(1, len(mubar) - 1))
    if len(ground) <= 7:  # find_cubical is cheap here
        ctx = Context(nv.bergman_fan(m, e0), nv.e0_inner_product(m, e0))
        assert nv.check_reduce_conditions(ctx).verdict == PASS


# -- boundary limits ----------------------------------------------------------------------


def test_boundary_limit_margins_vanish():
    fx = bergman("U34")
    witness = fx.cubical_witness()
    ts = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    margins = boundary_limit_margins(fx.ctx, [fx.z_alpha, fx.z_beta], witness, ts)
    assert set(margins) == set(ts)
    assert all(v == 0 for v in margins.values())


def test_verdict_constants():
    assert {PASS, FAIL, UNDEFINED} == {"pass", "fail", "undefined"}
