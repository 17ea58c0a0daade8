from fractions import Fraction

import pytest

import normalvol as nv
from normalvol.errors import (
    DimensionMismatch,
    FacesDontMeet,
    NonpositiveWeight,
    NotPure,
    NotSimplicial,
    RayProjectionCollision,
)
from normalvol.fan import ZERO_CONE, _balancing_report, star, star_connected_minus_origin
from normalvol.linalg import identity, qvec

from conftest import (
    QUADRANT_JSON,
    bergman,
    dense_rational_matrix,
    make_pm1_fan,
    make_quadrant_fan,
    mapped,
    reference_balancing_report,
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
    # runs one LP per pair, so both listing orders must be rejected
    rays = {"a": qvec([1, 0]), "b": qvec([1, 1]), "c": qvec([0, 1])}
    cones = [(("a", "b"), 1), (("a", "c"), 1)]
    for listed in (cones, cones[::-1]):
        with pytest.raises(FacesDontMeet):
            nv.MarkedFan(2, rays, listed)


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


def test_star_of_quadrant_at_ray():
    fan = make_quadrant_fan()
    sf = star(fan, frozenset({"r1"}), identity(2))
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
        star(fan, frozenset({"a"}), identity(2))


def test_link_of_quadrant():
    fan = make_quadrant_fan()
    assert fan.link(ZERO_CONE) == ("r1", "r2", "r3", "r4")
    assert fan.link(frozenset({"r1"})) == ("r2", "r4")
    assert fan.link(frozenset({"r1", "r2"})) == ()
    with pytest.raises(DimensionMismatch):
        fan.link(frozenset({"r1", "r3"}))


def test_star_connected_minus_origin():
    assert star_connected_minus_origin(make_quadrant_fan())
    # two cones sharing no rays: disconnected ray graph
    rays = {"a": qvec([1, 0]), "b": qvec([0, 1]), "c": qvec([-1, 0]), "d": qvec([0, -1])}
    fan = nv.MarkedFan(2, rays, [(("a", "b"), 1), (("c", "d"), 1)])
    assert not star_connected_minus_origin(fan)


def test_unknown_ray_in_cone():
    with pytest.raises(DimensionMismatch):
        nv.MarkedFan(1, {"a": qvec([1])}, [(("a", "zz"), 1)])
