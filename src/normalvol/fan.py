"""Marked, weighted, pure simplicial fans.

A fan is stored by its maximal cones; since every cone is simplicial, the
faces of a maximal cone are exactly the subsets of its ray set, and the
whole face poset is generated from the maximal cones.  Ray ids are strings
and a cone is a frozenset of ray ids (the empty set is the zero cone).
"""

from __future__ import annotations

from collections.abc import KeysView
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping

from . import lp
from .errors import (
    DimensionMismatch,
    FacesDontMeet,
    InputError,
    NonpositiveWeight,
    NotPure,
    NotSimplicial,
    RayProjectionCollision,
)
from .linalg import (
    Mat, Vec, ZERO, ONE, dot, inverse, mat_vec, qvec, rank, vec_scale, vec_sub, zeros
)
from .serialize import format_rat, parse_int, parse_list, parse_rat, read_field

Cone = frozenset[str]

ZERO_CONE: Cone = frozenset()


class MarkedFan:
    """A pure simplicial fan with marked ray generators and weighted top cones."""

    def __init__(
        self,
        ambient_dim: int,
        rays: Mapping[str, Vec],
        max_cones: Iterable[tuple[Iterable[str], Fraction]],
        validate_geometry: bool = True,
    ):
        self.ambient_dim = ambient_dim
        self.rays: dict[str, Vec] = {rid: qvec(u) for rid, u in rays.items()}
        for rid, u in self.rays.items():
            if len(u) != ambient_dim:
                raise DimensionMismatch(f"ray {rid!r} has length {len(u)}, expected {ambient_dim}")
            if all(x == 0 for x in u):
                raise NotSimplicial(f"ray {rid!r} has zero marked generator")
        self.weights: dict[Cone, Fraction] = {}
        cones: list[Cone] = []
        for ray_ids, weight in max_cones:
            cone = frozenset(ray_ids)
            missing = cone - self.rays.keys()
            if missing:
                raise DimensionMismatch(f"cone uses unknown rays {sorted(missing)}")
            weight = Fraction(weight)
            if weight <= 0:
                raise NonpositiveWeight(f"cone {sorted(cone)} has weight {weight}")
            if cone in self.weights:
                raise FacesDontMeet(f"cone {sorted(cone)} listed twice")
            self.weights[cone] = weight
            cones.append(cone)
        if not cones:
            raise NotPure("fan has no maximal cones")
        self.d = len(cones[0])
        if any(len(c) != self.d for c in cones):
            raise NotPure("maximal cones have different numbers of rays")
        self.max_cones: tuple[Cone, ...] = tuple(cones)
        for cone in self.max_cones:
            if rank(tuple(self.rays[rid] for rid in cone)) != len(cone):
                raise NotSimplicial(f"cone {sorted(cone)} has dependent generators")
        used = set().union(*self.max_cones)
        unused = self.rays.keys() - used
        if unused:
            raise NotPure(f"rays {sorted(unused)} lie in no maximal cone")
        links: dict[Cone, list[str]] = {
            frozenset(sub): [] for cone in self.max_cones for sub in _subsets(sorted(cone))
        }
        for cone in links:
            for rid in cone:
                links[cone - {rid}].append(rid)
        self._links: dict[Cone, tuple[str, ...]] = {c: tuple(sorted(s)) for c, s in links.items()}
        self.cones: KeysView[Cone] = self._links.keys()
        self._tropical: TropicalReport | None = None  # filled by is_tropical
        # Whether cones were checked to meet face to face: the check runs for d <= 3 only.
        self.faces_meet_checked = validate_geometry and self.d <= 3
        if self.faces_meet_checked:
            self._check_meet_along_faces()

    # -- basic queries -------------------------------------------------

    def ray_ids(self) -> list[str]:
        return sorted(self.rays)

    def cones_of_dim(self, k: int) -> list[Cone]:
        return sorted((c for c in self.cones if len(c) == k), key=sorted)

    def link(self, tau: Cone) -> tuple[str, ...]:
        """Sorted ids of the rays eta not in tau for which tau | {eta} is a cone."""
        try:
            return self._links[tau]
        except KeyError:
            raise DimensionMismatch(f"{sorted(tau)} is not a cone of the fan") from None

    # -- validation ----------------------------------------------------

    def _check_meet_along_faces(self) -> None:
        """Exact pairwise check that maximal cones intersect in their common face.

        For simplicial cones, a point of cone(S1) lies in the common face iff
        its (unique) barycentric coefficients vanish outside the common ray
        set, so a violation is a feasible point of an exact LP.  One LP per
        pair suffices: if no point of c1 & c2 has c1-coefficients off the
        common rays, c1 & c2 = cone(common), so the swapped LP is infeasible.
        """
        for i, c1 in enumerate(self.max_cones):
            for c2 in self.max_cones[i + 1 :]:
                common = c1 & c2
                if self._meets_outside_face(c1, c2, common):
                    raise FacesDontMeet(
                        f"cones {sorted(c1)} and {sorted(c2)} do not meet along {sorted(common)}"
                    )

    def _meets_outside_face(self, c1: Cone, c2: Cone, common: Cone) -> bool:
        r1, r2 = sorted(c1), sorted(c2)
        n = self.ambient_dim
        ncols = len(r1) + len(r2)
        rows = []
        for coord in range(n):
            rows.append(
                qvec(
                    [self.rays[rid][coord] for rid in r1]
                    + [-self.rays[rid][coord] for rid in r2]
                )
            )
        rows.append(
            qvec([ONE if rid not in common else ZERO for rid in r1] + [ZERO] * len(r2))
        )
        b = qvec([ZERO] * n + [ONE])
        return lp.feasible_nonneg(rows, b) is not None


def _subsets(items: list[str]):
    n = len(items)
    for mask in range(1 << n):
        yield [items[i] for i in range(n) if mask >> i & 1]


# -- construction from JSON ---------------------------------------------


def parse_fan(raw: Mapping) -> tuple[int, dict[str, Vec], list[tuple[tuple[str, ...], Fraction]]]:
    """The ambient dimension, rays and weighted maximal cones of a JSON fan description.

    Only the shape is checked here: a malformed key, an ``ambient_dim``
    below 1, a file with no rays and a cone that repeats a ray raise
    InputError.  ``MarkedFan`` validates the geometry.
    """
    field = partial(read_field, raw, "the fan")
    ambient_dim = field("ambient_dim", parse_int)
    rays = field("rays", lambda es: parse_list(es, _ray))
    max_cones = field("max_cones", lambda es: parse_list(es, _cone))
    if ambient_dim < 1:
        raise InputError(f"the fan's 'ambient_dim' must be at least 1, got {ambient_dim}")
    if not rays:
        raise InputError("the fan has no rays")
    for ray_ids, _ in max_cones:
        if len(set(ray_ids)) != len(ray_ids):
            raise InputError(f"the fan's cone {list(ray_ids)} repeats a ray")
    ray_map = dict(rays)
    if len(ray_map) != len(rays):
        raise FacesDontMeet("duplicate ray ids")
    return ambient_dim, ray_map, max_cones


def _ray(entry) -> tuple[str, Vec]:
    return _ray_id(entry["id"]), qvec(parse_list(entry["u"], parse_rat))


def _cone(entry) -> tuple[tuple[str, ...], Fraction]:
    return tuple(parse_list(entry["rays"], _ray_id)), parse_rat(entry["weight"])


def _ray_id(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"a ray id must be a string, got {value!r}")
    return value


def build_fan(raw: Mapping) -> MarkedFan:
    """Build and validate a fan from its JSON description."""
    return MarkedFan(*parse_fan(raw))


def fan_to_json(fan: MarkedFan) -> dict:
    return {
        "ambient_dim": fan.ambient_dim,
        "rays": [{"id": rid, "u": [format_rat(v) for v in fan.rays[rid]]} for rid in fan.ray_ids()],
        "max_cones": [
            {"rays": sorted(cone), "weight": format_rat(fan.weights[cone])}
            for cone in sorted(fan.max_cones, key=sorted)
        ],
    }


# -- the balancing condition ---------------------------------------------


@dataclass(frozen=True)
class TropicalReport:
    is_tropical: bool
    failing: tuple[Cone, ...]


def is_tropical(fan: MarkedFan) -> TropicalReport:
    """Check the weighted balancing condition at every codimension-1 cone.

    The report is computed once per fan and kept on it.
    """
    if fan._tropical is None:
        fan._tropical = _balancing_report(fan)
    return fan._tropical


def _balancing_report(fan: MarkedFan) -> TropicalReport:
    """Cones tau whose weighted link sum leaves span(tau); tau's rays are independent."""
    failing = []
    for tau in fan.cones_of_dim(fan.d - 1):
        total = zeros(fan.ambient_dim)
        for eta in fan.link(tau):
            weight = fan.weights[tau | {eta}]
            total = tuple(t + weight * u for t, u in zip(total, fan.rays[eta]))
        if rank(tuple(fan.rays[rid] for rid in tau) + (total,)) != len(tau):
            failing.append(tau)
    return TropicalReport(not failing, tuple(failing))


# -- star fans ------------------------------------------------------------


def star(fan: MarkedFan, tau: Cone, gram: Mat) -> MarkedFan:
    """Star fan at tau, realized in the orthogonal complement of span(tau).

    Its rays are the rays of ``fan.link(tau)``, projected and keeping their
    ids, so restricting a z-vector to the star is index-stable; a star cone
    pi stands for the cone pi | tau of the fan.  A ray u projects to
    u - sum_i c_i u_i over the rays u_i of tau, with c = G_tau^-1 (<u_i, u>)_i
    and G_tau inverted once per star.  A projection is never zero: tau | {eta}
    lies in a maximal cone, whose rays were checked independent.
    """
    if tau not in fan.cones:
        raise DimensionMismatch(f"{sorted(tau)} is not a cone of the fan")
    if not tau:
        return fan
    basis = [fan.rays[rid] for rid in sorted(tau)]
    gbasis = [mat_vec(gram, u) for u in basis]
    gm_inv = inverse(tuple(tuple(dot(u, gb) for gb in gbasis) for u in basis))
    star_rays = {}
    for rid in fan.link(tau):
        v = fan.rays[rid]
        coeffs = mat_vec(gm_inv, tuple(dot(v, gb) for gb in gbasis))
        for c, u in zip(coeffs, basis):
            v = vec_sub(v, vec_scale(c, u))
        star_rays[rid] = v
    _check_no_collision(star_rays)
    star_cones = [
        (sorted(sigma - tau), fan.weights[sigma]) for sigma in fan.max_cones if tau <= sigma
    ]
    return MarkedFan(fan.ambient_dim, star_rays, star_cones, validate_geometry=False)


def _check_no_collision(star_rays: Mapping[str, Vec]) -> None:
    items = sorted(star_rays.items())
    for i, (rid1, u1) in enumerate(items):
        for rid2, u2 in items[i + 1 :]:
            if _positively_parallel(u1, u2):
                raise RayProjectionCollision(
                    f"rays {rid1!r} and {rid2!r} project onto the same star ray"
                )


def _positively_parallel(u: Vec, v: Vec) -> bool:
    pivot = next((i for i, x in enumerate(u) if x != 0), None)
    if pivot is None or v[pivot] == 0:
        return False
    c = v[pivot] / u[pivot]
    if c <= 0:
        return False
    return all(c * x == y for x, y in zip(u, v))


def star_connected_minus_origin(fan: MarkedFan, tau: Cone = ZERO_CONE) -> bool:
    """Connectivity of the star at tau minus the origin.

    The graph's vertices are ``fan.link(tau)`` and a, b are adjacent when
    tau | {a, b} is a cone.  For a pure star of dimension >= 2 this is
    equivalent to connectivity of the star minus the origin.
    """
    rays = fan.link(tau)
    if len(rays) <= 1:
        return True
    seen = {rays[0]}
    stack = [rays[0]]
    while stack:
        for nxt in fan.link(tau | {stack.pop()}):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(rays)


# -- products --------------------------------------------------------------


def product_fan(a: MarkedFan, b: MarkedFan) -> MarkedFan:
    """Product of two fans in the direct sum of their ambient spaces.

    Ray ids are prefixed "L." and "R." to keep the factors disjoint; weights multiply.
    """
    pa, pb = "L.", "R."
    rays: dict[str, Vec] = {}
    for rid, u in a.rays.items():
        rays[pa + rid] = tuple(u) + zeros(b.ambient_dim)
    for rid, u in b.rays.items():
        rays[pb + rid] = zeros(a.ambient_dim) + tuple(u)
    cones = []
    for ca in a.max_cones:
        for cb in b.max_cones:
            ray_ids = [pa + r for r in ca] + [pb + r for r in cb]
            cones.append((ray_ids, a.weights[ca] * b.weights[cb]))
    return MarkedFan(a.ambient_dim + b.ambient_dim, rays, cones, validate_geometry=False)
