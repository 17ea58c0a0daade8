import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import normalvol as nv
from normalvol import lp
from normalvol.errors import (
    DimensionMismatch,
    FacesDontMeet,
    NonpositiveWeight,
    NotPure,
    NotSimplicial,
    RayProjectionCollision,
)
from normalvol import fan as fan_module
from normalvol.fan import (
    ZERO_CONE,
    _balancing_report,
    _sign_certificate,
    star,
    star_connected_minus_origin,
)
from normalvol.linalg import identity, qvec, rank

from conftest import (
    QUADRANT_JSON,
    bergman,
    cone_of,
    dense_rational_matrix,
    make_pm1_fan,
    make_quadrant_fan,
    mapped,
    product_fan,
    reference_balancing_report,
    reversed_coordinates,
)


def test_quadrant_fan_builds():
    fan = make_quadrant_fan()
    assert fan.d == 2
    assert len(fan.cones) == 9  # zero cone, 4 rays, 4 two-cones
    assert fan.ray_ids() == ["r1", "r2", "r3", "r4"]


def test_pm1_fan_builds():
    fan = make_pm1_fan()
    assert fan.d == 1
    assert ZERO_CONE in fan.cones


def test_zero_generator_rejected():
    with pytest.raises(NotSimplicial):
        nv.MarkedFan(2, {"a": (Fraction(0), Fraction(0))}, [(("a",), 1)])


def test_dependent_generators_rejected():
    rays = {"a": qvec([1, 0]), "b": qvec([2, 0])}
    with pytest.raises(NotSimplicial):
        nv.MarkedFan(2, rays, [(("a", "b"), 1)])


# (ambient_dim, rays, maximal cones in input order, the cone the refusal names): the
# first maximal cone in input order whose generators are dependent, whichever cone the
# build meets the dependency at first
DEPENDENT = {
    "the dependency first shows at a face": (
        3,
        {"a": qvec([1, 0, 0]), "b": qvec([2, 0, 0]), "c": qvec([0, 0, 1]),
         "d": qvec([0, 1, 0]), "e": qvec([1, 1, 1])},
        [("c", "d", "e"), ("b", "a", "c")],
        "['a', 'b', 'c']",
    ),
    "two dependent cones listed against lexicographic order": (
        2,
        {"a": qvec([1, 0]), "b": qvec([-1, 0]), "c": qvec([0, 1]), "d": qvec([0, -1])},
        [("c", "d"), ("a", "b")],
        "['c', 'd']",
    ),
    "a dependent cone and an unused ray": (
        2,
        {"a": qvec([1, 0]), "b": qvec([2, 0]), "e": qvec([0, 1])},
        [("a", "b")],
        "['a', 'b']",
    ),
}


@pytest.mark.parametrize("case", list(DEPENDENT))
def test_dependent_generators_refusal_names_the_first_cone_in_input_order(case):
    n, rays, cones, named = DEPENDENT[case]
    with pytest.raises(NotSimplicial) as raised:
        nv.MarkedFan(n, rays, [(c, 1) for c in cones], validate_geometry=False)
    assert str(raised.value) == f"cone {named} has dependent generators"


def test_a_valid_fan_is_built_and_certified_without_rank(monkeypatch):
    """Simpliciality is read off the echelon walk that certifies balancing; on a
    valid fan only the sign certificates of the face-to-face check call ``rank``."""
    fans = {name: bergman(name).fan for name in ("U45", "K4")}
    reports = {name: nv.is_tropical(fan) for name, fan in fans.items()}

    def refused(*args):
        raise AssertionError("rank called")

    monkeypatch.setattr(fan_module, "rank", refused)
    for name, fan in fans.items():
        again = nv.MarkedFan(
            fan.ambient_dim, fan.rays, [(c, fan.weights[c]) for c in fan.max_cones],
            validate_geometry=False,
        )
        report = nv.is_tropical(again)
        assert report == reports[name] and report.certificates == reports[name].certificates


def test_is_tropical_reads_the_report_kept_at_build(monkeypatch):
    fans = _certificate_fans()

    def refused(*args):
        raise AssertionError("reduce_row called")

    monkeypatch.setattr(fan_module, "reduce_row", refused)
    for name, fan in fans.items():
        report = nv.is_tropical(fan)
        assert report == reference_balancing_report(fan), name
        assert nv.is_tropical(fan) is report, name


def test_mixed_dimensions_rejected():
    rays = {"a": qvec([1, 0]), "b": qvec([0, 1])}
    with pytest.raises(NotPure):
        nv.MarkedFan(2, rays, [(("a", "b"), 1), (("a",), 1)])


def test_unused_ray_rejected():
    rays = {"a": qvec([1]), "b": qvec([-1])}
    with pytest.raises(NotPure):
        nv.MarkedFan(1, rays, [(("a",), 1)])


def test_nonpositive_weight_rejected():
    with pytest.raises(NonpositiveWeight):
        make_pm1_fan(weights=(1, 0))


def test_duplicate_cone_rejected():
    rays = {"a": qvec([1]), "b": qvec([-1])}
    with pytest.raises(FacesDontMeet):
        nv.MarkedFan(1, rays, [(("a",), 1), (("a",), 2), (("b",), 1)])


def test_overlapping_cones_rejected():
    # cone(a, c) contains cone(a, b)'s interior direction b = a + c; validation
    # checks each pair once, so both listing orders must be rejected
    rays = {"a": qvec([1, 0]), "b": qvec([1, 1]), "c": qvec([0, 1])}
    cones = [(("a", "b"), 1), (("a", "c"), 1)]
    for listed in (cones, cones[::-1]):
        with pytest.raises(FacesDontMeet):
            nv.MarkedFan(2, rays, listed)


@pytest.fixture
def lp_calls(monkeypatch):
    """A list that grows by one entry per call of ``lp.feasible_nonneg``."""
    calls = []
    solve = lp.feasible_nonneg

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(lp, "feasible_nonneg", counted)
    return calls


def _revalidated(fan):
    """The fan rebuilt with the face-to-face check on."""
    return nv.MarkedFan(fan.ambient_dim, fan.rays, [(c, fan.weights[c]) for c in fan.max_cones])


def _complete_graph(n):
    return nv.graphic([(str(a), str(b)) for a, b in itertools.combinations(range(1, n + 1), 2)])


@pytest.mark.parametrize(
    "name, matroid, lps",
    [
        ("U34", lambda: nv.uniform(3, 4), 0),
        ("K4", lambda: _complete_graph(4), 0),
        ("U35", lambda: nv.uniform(3, 5), 0),
        ("U38", lambda: nv.uniform(3, 8), 0),
        ("U45", lambda: nv.uniform(4, 5), 0),
        ("K5", lambda: _complete_graph(5), 0),
    ],
)
def test_sign_certificates_leave_few_pairs_to_the_lp(name, matroid, lps, lp_calls):
    """LP calls of the face-to-face check on Bergman fans; every other pair
    (of 1770 on U(4,5), 16110 on K5) is cleared by a sign certificate, 60 and
    270 of them by the rank of their zero rays."""
    m = matroid()
    fan = _revalidated(nv.bergman_fan(m, m.ground[0]))
    assert fan.faces_meet_checked
    assert len(lp_calls) == lps, name


def test_one_overlap_among_certified_pairs_is_rejected(lp_calls):
    # four orthants of R^3 and cone(e1, e2, b), b = (1, 1, 1), which lies in
    # the positive orthant; every other pair has a sign certificate
    rays = {
        "e1": qvec([1, 0, 0]), "e2": qvec([0, 1, 0]), "e3": qvec([0, 0, 1]),
        "m1": qvec([-1, 0, 0]), "m2": qvec([0, -1, 0]), "m3": qvec([0, 0, -1]),
        "b": qvec([1, 1, 1]),
    }
    orthants = [("e1", "e2", "e3"), ("m1", "e2", "e3"), ("e1", "m2", "e3"), ("e1", "e2", "m3")]
    cones = [(c, 1) for c in orthants + [("e1", "e2", "b")]]
    fan = nv.MarkedFan(3, rays, cones, validate_geometry=False)
    certified = _sign_certificate(fan)
    uncertified = [
        (c1, c2) for c1, c2 in itertools.combinations(fan.max_cones, 2)
        if not certified(c1, c2, _common(c1, c2))
    ]
    assert uncertified == [(cone_of(*orthants[0]), cone_of("e1", "e2", "b"))]
    for listed in (cones, cones[::-1]):
        lp_calls.clear()
        with pytest.raises(FacesDontMeet, match=r"do not meet along \['e1', 'e2'\]"):
            nv.MarkedFan(3, rays, listed)
        assert len(lp_calls) == 1


def _common(c1, c2):
    """The common face of two cones: the ray ids they share."""
    return cone_of(*(set(c1) & set(c2)))


COORDINATE = st.sampled_from([Fraction(k, 2) for k in range(-4, 5)])


@st.composite
def small_fans(draw):
    """(ambient_dim, rays, maximal cones): 2 to 6 simplicial cones of dimension
    2 or 3 on at most 6 rays with small coordinates.  They are not checked to
    meet face to face: about half of the draws have a pair that overlaps."""
    n, d = draw(st.sampled_from([(3, 3), (3, 2), (2, 2)]))
    vectors = draw(
        st.lists(st.tuples(*[COORDINATE] * n).filter(any), min_size=d, max_size=6, unique=True)
    )
    rays = {f"r{i}": qvec(u) for i, u in enumerate(vectors)}
    ray_sets = draw(
        st.lists(st.sets(st.sampled_from(sorted(rays)), min_size=d, max_size=d), min_size=2, max_size=6)
    )
    cones = list(dict.fromkeys(
        cone_of(*c) for c in ray_sets if rank(tuple(rays[rid] for rid in c)) == d
    ))
    assume(len(cones) >= 2)
    used = set().union(*cones)
    return n, {rid: u for rid, u in rays.items() if rid in used}, [(list(c), 1) for c in cones]


# cone(a, b) and cone(c, d) share the direction of a = c / 2 but no ray id; x_2
# vanishes on a and on c, so it is no certificate
@example((2, {"a": qvec([1, 0]), "b": qvec([0, 1]), "c": qvec([2, 0]), "d": qvec([0, -1])},
          [(["a", "b"], 1), (["c", "d"], 1)]))
@settings(max_examples=150, deadline=None)
@given(small_fans())
def test_sign_certificates_agree_with_the_lp(case):
    """A pair cleared by a sign certificate has no point outside its common face
    by the LP either, and the fan's verdict is the one of an LP on every pair."""
    n, rays, cones = case
    fan = nv.MarkedFan(n, rays, cones, validate_geometry=False)
    certified = _sign_certificate(fan)
    overlapping = False
    for c1, c2 in itertools.combinations(fan.max_cones, 2):
        meets_outside = fan._meets_outside_face(c1, c2, _common(c1, c2))
        assert not (meets_outside and certified(c1, c2, _common(c1, c2)))
        overlapping |= meets_outside
    try:
        nv.MarkedFan(n, rays, cones)
    except FacesDontMeet:
        assert overlapping
    else:
        assert not overlapping


def test_json_round_trip():
    fan = nv.build_fan(QUADRANT_JSON)
    again = nv.build_fan(nv.fan_to_json(fan))
    assert nv.fan_to_json(fan) == nv.fan_to_json(again)
    assert again.rays == fan.rays and again.weights == fan.weights


def test_duplicate_ray_id_rejected():
    raw = {
        "ambient_dim": 1,
        "rays": [{"id": "a", "u": ["1"]}, {"id": "a", "u": ["-1"]}],
        "max_cones": [{"rays": ["a"], "weight": "1"}],
    }
    with pytest.raises(FacesDontMeet):
        nv.build_fan(raw)


def test_tropical_pm1():
    assert nv.is_tropical(make_pm1_fan((1, 1))).is_tropical
    report = nv.is_tropical(make_pm1_fan((1, 2)))
    assert not report.is_tropical
    assert report.failing == (ZERO_CONE,)


def test_tropical_quadrant():
    assert nv.is_tropical(make_quadrant_fan()).is_tropical


def _thirds_and_halves(weights):
    rays = {"p": (Fraction(1, 3),), "m": (Fraction(-1, 2),)}
    return nv.MarkedFan(1, rays, [(("p",), weights[0]), (("m",), weights[1])])


def _mapped_bergman(name, changed=None):
    """A Bergman fan in dense rational coordinates, every weight 1/2 but ``changed``'s 1/3."""
    fan = bergman(name).fan
    weights = {cone: Fraction(1, 3 if cone == changed else 2) for cone in fan.max_cones}
    return mapped(fan, dense_rational_matrix(fan.ambient_dim), weights)


def test_balancing_with_non_integral_rays_and_weights():
    """Integer balancing sums against the Fraction reference, on fans whose
    rays need scaling, and on mapped Bergman fans whose weights do too."""
    first = bergman("U34").fan.max_cones[0]
    fans = {
        "thirds and halves, 3 and 2": (_thirds_and_halves((3, 2)), True),
        "thirds and halves, 1 and 1": (_thirds_and_halves((1, 1)), False),
        "U34 mapped, weights 1/2": (_mapped_bergman("U34"), True),
        "U34 mapped, one weight 1/3": (_mapped_bergman("U34", first), False),
        "K4 mapped, weights 1/2": (_mapped_bergman("K4"), True),
    }
    for name, (fan, balanced) in fans.items():
        assert fan.ray_scale > 1, name
        report = _balancing_report(fan)
        assert report == reference_balancing_report(fan), name
        assert report.is_tropical is balanced, name
    assert _balancing_report(fans["thirds and halves, 1 and 1"][0]).failing == (ZERO_CONE,)
    assert len(_balancing_report(fans["U34 mapped, one weight 1/3"][0]).failing) == 2


def test_the_fan_scales_its_weights_to_integers_once():
    fan = make_pm1_fan((1, Fraction(2, 3)))
    assert fan.weight_scale == 3
    assert fan.int_weights == {("p",): 3, ("m",): 2}
    assert all(type(w) is int for w in fan.int_weights.values())


def _certificate_fans():
    """Balanced and unbalanced fans: Bergman fans and their reversals, a product
    with a 1-dimensional factor, mapped fans with ray_scale > 1 and weights
    1/2 or 1/3, and 1-dimensional fans, whose only codimension-1 cone is the
    zero cone."""
    first = {name: bergman(name).fan.max_cones[0] for name in ("U34", "U45")}
    fans = {name: bergman(name).fan for name in ("U34", "K4", "U45")}
    fans["U34 x pm1"] = product_fan(bergman("U34").fan, make_pm1_fan((2, 2)))
    for name in ("U34", "K4", "U45"):
        fans[f"{name} mapped"] = _mapped_bergman(name)
    for name in ("U34", "U45"):
        fans[f"{name} mapped, one weight 1/3"] = _mapped_bergman(name, first[name])
    fans.update({f"{name} reversed": reversed_coordinates(fan) for name, fan in list(fans.items())})
    for weights in ((3, 2), (1, 1)):
        fans[f"thirds and halves, {weights}"] = _thirds_and_halves(weights)
    for weights in ((1, 1), (1, 2)):
        fans[f"pm1, {weights}"] = make_pm1_fan(weights)
    fans["quadrant"] = make_quadrant_fan()
    return fans


def test_balancing_certificates_hold_in_integers():
    """Every balanced codimension-1 cone tau has (a, p), p != 0, with
    p s_tau + sum_i a_i u~_i = 0 in integers, s_tau summed here from the
    weights times the lcm of their denominators."""
    fans = _certificate_fans()
    mapped_scales = [fan.ray_scale for name, fan in fans.items() if "mapped" in name]
    assert mapped_scales and all(scale > 1 for scale in mapped_scales)
    for name, fan in fans.items():
        report = _balancing_report(fan)
        assert report == reference_balancing_report(fan), name
        taus = fan.cones_of_dim(fan.d - 1)
        assert list(report.certificates) == [tau for tau in taus if tau not in report.failing], name
        scale = lcm(*(w.denominator for w in fan.weights.values()))
        for tau, (a, p) in report.certificates.items():
            assert type(p) is int and p != 0 and len(a) == len(tau), (name, tau)
            total = [0] * fan.ambient_dim
            for eta in fan.link(tau):
                w = fan.weights[cone_of(*tau, eta)] * scale
                assert w.denominator == 1
                total = [t + int(w) * x for t, x in zip(total, fan.int_rays[eta])]
            combo = [p * t for t in total]
            for x, rid in zip(a, tau):
                assert type(x) is int
                combo = [c + x * u for c, u in zip(combo, fan.int_rays[rid])]
            assert combo == [0] * fan.ambient_dim, (name, tau)
    assert _balancing_report(fans["thirds and halves, (3, 2)"]).certificates == {ZERO_CONE: ((), 1)}
    assert _balancing_report(fans["pm1, (1, 2)"]).certificates == {}
    assert len(_balancing_report(fans["U45 mapped, one weight 1/3"]).failing) == 3
    assert repr(_balancing_report(fans["U45"])) == "TropicalReport(is_tropical=True, failing=())"


def test_star_of_quadrant_at_ray():
    fan = make_quadrant_fan()
    sf = star(fan, ("r1",), identity(2))
    assert sorted(sf.rays) == ["r2", "r4"]
    assert sf.rays["r2"] == qvec([0, 1])
    assert sf.rays["r4"] == qvec([0, -1])


def test_star_at_zero_cone_is_identity():
    fan = make_quadrant_fan()
    assert star(fan, ZERO_CONE, identity(2)) is fan


def test_star_ray_collision_detected():
    # b and c both project to (0, 1) in the star at a
    rays = {"a": qvec([1, 0]), "b": qvec([0, 1]), "c": qvec([-1, 1])}
    fan = nv.MarkedFan(2, rays, [(("a", "b"), 1), (("a", "c"), 1)], validate_geometry=False)
    with pytest.raises(RayProjectionCollision):
        star(fan, ("a",), identity(2))


def test_link_of_quadrant():
    fan = make_quadrant_fan()
    assert fan.link(ZERO_CONE) == ("r1", "r2", "r3", "r4")
    assert fan.link(("r1",)) == ("r2", "r4")
    assert fan.link(("r1", "r2")) == ()
    with pytest.raises(DimensionMismatch):
        fan.link(("r1", "r3"))


def test_star_connected_minus_origin():
    assert star_connected_minus_origin(make_quadrant_fan())
    # two cones sharing no rays: disconnected ray graph
    rays = {"a": qvec([1, 0]), "b": qvec([0, 1]), "c": qvec([-1, 0]), "d": qvec([0, -1])}
    fan = nv.MarkedFan(2, rays, [(("a", "b"), 1), (("c", "d"), 1)])
    assert not star_connected_minus_origin(fan)


def test_unknown_ray_in_cone():
    with pytest.raises(DimensionMismatch):
        nv.MarkedFan(1, {"a": qvec([1])}, [(("a", "zz"), 1)])
