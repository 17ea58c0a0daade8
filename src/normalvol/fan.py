"""Marked, weighted, pure simplicial fans.

A fan is stored by its maximal cones; since every cone is simplicial, the
faces of a maximal cone are exactly the subsets of its ray set, and the
whole face poset is generated from the maximal cones.  Ray ids are strings
and a cone is the sorted tuple of its ray ids (the empty tuple is the zero
cone): one value is both its key and its place in the order below.  The face
of a cone without its i-th ray is ``cone[:i] + cone[i + 1:]``, and ``join``
adds a ray.

A fan scales its rays and its weights to integers once: ``int_rays`` holds
M u, with M = ``ray_scale`` the lcm of the rays' denominators, and
``int_weights`` holds W w, with W = ``weight_scale`` the lcm of the weights'
denominators; every integer computation reads them.

A fan also fixes the one order of its cones, once: ``cones`` lists every
cone lexicographically, so the zero cone comes first.  Every ordered scan or
report over the cones reads it.

A fan may carry a group of ray permutations, given by generators
(``MarkedFan(..., symmetries)``).  When the fan is built, each must be a
bijection of the rays; then one search finds the orbits of the cones
(``MarkedFan.orbits``) and checks that each generator maps every maximal cone
to one of equal weight, on the images it computes; and each must be induced
by a linear map, which is what makes simpliciality, the balancing condition
and the Chow classes constant on orbits.  The trivial group is the same code
with the map of non-representatives empty.

A fan is checked and certified in one pass, when it is built: one
fraction-free echelon walk over the orbit representatives (every cone for
the trivial group) refuses a cone whose rays are dependent and leaves the
balancing report, with its certificates, on the fan (``_balancing_report``,
read by ``is_tropical``).  Faces, links and ``fan_to_json`` stay full-size.

A batch of truncation values, the z of the divisors D(z) and of the mixed
volumes, is told apart here, once for both engines that read it
(``Truncations``): keys checked on every value, integer keys (Z, Z z), and one
invariance check and one scaled copy per distinct value.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Callable, KeysView
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from . import lp
from .errors import (
    DimensionMismatch,
    FacesDontMeet,
    InputError,
    NonpositiveWeight,
    NotInvariant,
    NotPure,
    NotSimplicial,
    RayProjectionCollision,
)
from .linalg import (
    Mat, Vec, ZERO, ONE, dot, inverse, mat_vec, qvec, rank, reduce_row, scaled_rows,
    scaled_to_int, solve, vec_scale, vec_sub,
)
from .serialize import format_rat, parse_int, parse_list, parse_rat, read_field

Cone = tuple[str, ...]

ZERO_CONE: Cone = ()


def join(cone: Cone, rid: str) -> Cone:
    """The cone with the ray rid, not one of its own, added in its sorted place."""
    i = bisect(cone, rid)
    return cone[:i] + (rid,) + cone[i:]


def check_sorted(rids: Cone) -> None:
    """Refuse anything but a sorted tuple of string ray ids, naming its form.

    A tuple or a list is shown as a list, and a set with its ids sorted (by their
    repr when they are not all strings), so the message does not follow the hash
    seed; anything else, None or a number say, is shown as it is.
    """
    if type(rids) is tuple and all(type(r) is str for r in rids) and list(rids) == sorted(rids):
        return
    shown = list(rids) if isinstance(rids, (tuple, list)) else rids
    if isinstance(rids, (set, frozenset)):
        shown = sorted(rids, key=None if all(type(r) is str for r in rids) else repr)
    raise DimensionMismatch(f"{type(rids).__name__} {shown!r} is not a sorted tuple of ray ids")


def check_keys(fan: MarkedFan, z: Mapping[str, Fraction]) -> None:
    """Refuse truncation values that are not indexed by exactly the fan's rays."""
    if set(z) != set(fan.rays):
        raise DimensionMismatch("z-values must be indexed by exactly the fan's rays")


class Truncations:
    """The distinct truncations of one batch, numbered as they first come.

    The one place where truncations are told apart and scaled to integers: the
    Chow degrees (``chow.deg_products``) and the volume tables
    (``normalcx.Context``'s batch) both read it.  ``index(z)`` refuses z's keys
    (``check_keys``) on every call, and keys z by integers: Z, the lcm of its
    denominators, and Z z in the order of the fan's rays.  They are equal exactly
    when the values are, and Z is part of the key: (1/2, 1) and (1, 2) have one
    Z z.  A value met for the first time must be constant on the orbits of the
    fan's rays (NotInvariant otherwise) and is then numbered t = len(scaled),
    with ``scaled[t]`` = (Z, Z z); a refused value is not numbered, so the
    batch stays usable.
    """

    def __init__(self, fan: MarkedFan):
        self.fan = fan
        self.scaled: list[tuple[int, dict[str, int]]] = []
        self._index: dict[tuple[int, ...], int] = {}

    def index(self, z: Mapping[str, Fraction]) -> int:
        check_keys(self.fan, z)
        scale, (ints,) = scaled_rows([[z[rid] for rid in self.fan.rays]])
        key = (scale, *ints)
        t = self._index.get(key)
        if t is None:
            zz = dict(zip(self.fan.rays, ints))
            for perm in self.fan.symmetries:
                if any(zz[perm[rid]] != v for rid, v in zz.items()):
                    raise NotInvariant("z must be constant on the orbits of the fan's symmetries")
            t = self._index[key] = len(self.scaled)
            self.scaled.append((scale, zz))
        return t


class MarkedFan:
    """A pure simplicial fan with marked ray generators and weighted top cones.

    The constructor refuses, in this order: a ray of the wrong length or zero,
    a cone with an unknown ray, a weight <= 0 or a cone listed twice, no cone or
    cones of different dimensions, a symmetry that is not a bijection of the
    rays, that maps a maximal cone to no maximal cone of equal weight or that no
    linear map induces (NotInvariant), dependent rays in a cone (the echelon walk
    of ``_balancing_report``, run once here after the faces, links and orbits
    are built), a ray in no cone and, for d <= 3 when ``validate_geometry``,
    cones that do not meet along a common face.
    """

    def __init__(
        self,
        ambient_dim: int,
        rays: Mapping[str, Vec],
        max_cones: Iterable[tuple[Iterable[str], Fraction]],
        validate_geometry: bool = True,
        symmetries: Sequence[Mapping[str, str]] = (),
    ):
        self.ambient_dim = ambient_dim
        self.rays: dict[str, Vec] = {rid: qvec(u) for rid, u in rays.items()}
        for rid, u in self.rays.items():
            if len(u) != ambient_dim:
                raise DimensionMismatch(f"ray {rid!r} has length {len(u)}, expected {ambient_dim}")
            if all(x == 0 for x in u):
                raise NotSimplicial(f"ray {rid!r} has zero marked generator")
        self.ray_scale, int_rows = scaled_rows(self.rays.values())
        self.int_rays: dict[str, tuple[int, ...]] = dict(zip(self.rays, map(tuple, int_rows)))
        self.weights: dict[Cone, Fraction] = {}
        cones: list[Cone] = []
        for ray_ids, weight in max_cones:
            cone = tuple(sorted(ray_ids))
            missing = [rid for rid in cone if rid not in self.rays]
            if missing:
                raise DimensionMismatch(f"cone uses unknown rays {missing}")
            weight = Fraction(weight)
            if weight <= 0:
                raise NonpositiveWeight(f"cone {list(cone)} has weight {weight}")
            if cone in self.weights:
                raise FacesDontMeet(f"cone {list(cone)} listed twice")
            self.weights[cone] = weight
            cones.append(cone)
        if not cones:
            raise NotPure("fan has no maximal cones")
        self.d = len(cones[0])
        if any(len(c) != self.d for c in cones):
            raise NotPure("maximal cones have different numbers of rays")
        self.max_cones: tuple[Cone, ...] = tuple(cones)
        self.weight_scale, self.int_weights = scaled_to_int(self.weights)
        # Faces layer by layer, downward: sigma gives each face without one ray,
        # and a face joins the next layer, to give its own faces, once.
        links: dict[Cone, list[str]] = {cone: [] for cone in self.max_cones}
        layer: Iterable[Cone] = self.max_cones
        while layer:
            below: dict[Cone, None] = {}
            for cone in layer:
                for i, rid in enumerate(cone):
                    face = cone[:i] + cone[i + 1 :]
                    if face not in links:
                        links[face] = []
                        below[face] = None
                    links[face].append(rid)
            layer = below
        self._links: dict[Cone, tuple[str, ...]] = {
            cone: tuple(sorted(links[cone])) for cone in sorted(links)
        }
        del links, layer  # freed before the orbit search allocates
        self.cones: KeysView[Cone] = self._links.keys()
        self.symmetries = tuple(map(dict, symmetries))
        trivial = (self.cones, {}, self.int_weights)
        self._orbits = self._search_orbits() if self.symmetries else trivial
        # one walk: refuses a cone with dependent rays, before the unused-ray check below
        self._tropical: TropicalReport = _balancing_report(self)
        unused = self.rays.keys() - set().union(*self.max_cones)
        if unused:
            raise NotPure(f"rays {sorted(unused)} lie in no maximal cone")
        # Whether cones were checked to meet face to face: the check runs for d <= 3 only.
        self.faces_meet_checked = validate_geometry and self.d <= 3
        if self.faces_meet_checked:
            self._check_meet_along_faces()

    # -- basic queries -------------------------------------------------

    def ray_ids(self) -> list[str]:
        return sorted(self.rays)

    def cones_of_dim(self, k: int) -> list[Cone]:
        return [cone for cone in self.cones if len(cone) == k]

    def link(self, tau: Cone) -> tuple[str, ...]:
        """Sorted ids of the rays eta not in tau for which join(tau, eta) is a cone.

        Refuses anything but a cone of the fan by DimensionMismatch: an argument
        that is not a sorted tuple of string ray ids by ``check_sorted``, naming its
        form, and any other tuple as no cone of the fan.  The functions that take a
        cone check it here.
        """
        try:
            if type(tau) is tuple:
                return self._links[tau]
        except (KeyError, TypeError):  # no cone of the fan, or an id with no hash
            pass
        check_sorted(tau)
        raise DimensionMismatch(f"{list(tau)} is not a cone of the fan")

    def orbits(self) -> tuple[Sequence[Cone], dict[Cone, Cone], Mapping[Cone, int]]:
        """(order, rep, weights) of the group the symmetries generate, found when the
        fan is built.

        ``order`` lists the representatives, each the least cone of its orbit, in the
        order of ``cones``; ``rep`` maps every other cone to its representative; and
        ``weights`` maps each maximal representative to the sum of ``int_weights`` over
        its orbit.  The trivial group's are ``cones``, {} and ``int_weights``.
        """
        return self._orbits

    # -- validation ----------------------------------------------------

    def _search_orbits(self) -> tuple[list[Cone], dict[Cone, Cone], dict[Cone, int]]:
        """The orbits of the group the symmetries generate, each generator checked: it
        must be a bijection of the rays, then, on the images the search computes, map each
        maximal cone to one of equal weight, and then be linear (``_check_linear``).

        The search takes each cone not yet met, in the order of ``cones``, as the
        representative of its orbit and applies every generator once to every cone of
        the orbit.  An image that is not a cone of the fan is searched on too: the
        maximal cones over its preimage fail their check, so its generator is refused.
        """
        for perm in self.symmetries:
            if perm.keys() != self.rays.keys() or set(perm.values()) != self.rays.keys():
                raise NotInvariant("a symmetry must be a bijection of the fan's rays")
        int_weights = self.int_weights
        order: list[Cone] = []
        rep: dict[Cone, Cone] = {}
        met: dict[Cone, Cone] = {}  # images not yet reached in ``cones``, to their representative
        weights: dict[Cone, int] = {}
        for cone in self.cones:
            if cone in met:
                rep[cone] = met.pop(cone)  # keyed by the fan's own tuple; the image is freed
                continue
            order.append(cone)
            orbit, todo = {cone}, [cone]
            while todo:
                c = todo.pop()
                for perm in self.symmetries:
                    image = tuple(sorted([perm[rid] for rid in c]))
                    if len(c) == self.d and int_weights.get(image) != int_weights[c]:
                        raise NotInvariant(
                            f"a symmetry maps the maximal cone {list(c)} to {list(image)}, "
                            "which is not a maximal cone of the same weight"
                        )
                    if image not in orbit:
                        orbit.add(image)
                        todo.append(image)
            if len(cone) == self.d:
                weights[cone] = len(orbit) * int_weights[cone]
            orbit.remove(cone)
            met.update(dict.fromkeys(orbit, cone))
        self._check_linear()
        return order, rep, weights

    def _check_linear(self) -> None:
        """Refuse a symmetry that no linear map induces.

        A basis B of the rays' span is picked greedily in ``ray_ids`` order, by
        ``reduce_row``, and ``solve`` gives integers (v_b, p_b) with
        <v_b, u~_c> = p_b [b == c] on B.  With P the lcm of the p_b, every ray is
        P u~ = sum_b c_b u~_b, c_b = (P / p_b) <v_b, u~>, and a map is induced by a
        linear map of the span exactly when it takes each ray to the same
        combination of the images of B: P u~_g(r) = sum_b c_b u~_g(b).
        """
        n, rays, echelon, basis = self.ambient_dim, self.int_rays, [], []
        for rid in self.ray_ids():
            row = reduce_row(rays[rid], echelon)
            c = next((i for i in range(n) if row[i]), None)
            if c is not None:
                echelon.append((c, row))
                basis.append(rid)
        duals = [solve([rays[b] for b in basis], [int(b == c) for c in basis]) for b in basis]
        big = lcm(*(p for _, p in duals))
        coefficients = {
            rid: [big // p * sum(map(mul, v, u)) for v, p in duals] for rid, u in rays.items()
        }
        for perm in self.symmetries:
            columns = list(zip(*(rays[perm[b]] for b in basis)))
            for rid, cs in coefficients.items():
                image = [sum(map(mul, cs, col)) for col in columns]
                if image != [big * x for x in rays[perm[rid]]]:
                    raise NotInvariant(
                        f"a symmetry maps the ray {rid!r} to {perm[rid]!r}, but the "
                        "linear map it induces on a basis of the rays does not"
                    )

    def _check_meet_along_faces(self) -> None:
        """Exact pairwise check that maximal cones intersect in their common face.

        A pair (c1, c2) with common face tau is cleared first by a sign
        certificate, with no LP: a functional l with l >= 0 on the rays of c1,
        l <= 0 on those of c2, and linearly independent zero rays, the rays
        of c1 | c2 on which l = 0.  Any x in both cones has l(x) >= 0 and
        l(x) <= 0, so l(x) = 0.  Write x as sum a_r r over the rays r of c1,
        every a_r >= 0.  Then 0 = sum a_r l(r) is a sum of terms >= 0, so
        a_r = 0 wherever l(r) != 0; the same holds for the coefficients b_r
        of x over c2.  Both sums then run over zero rays, and their difference
        is sum (a_r - b_r) r = 0, a coefficient absent from a sum being 0.  By
        independence a_r = b_r on every zero ray, so a_r = 0 on the rays of
        c1 off c2, and x lies in cone(tau).  The candidates are +-x_a and
        +-(x_a - x_b), read off ``int_rays``, whose signs are those of the
        rays; see ``_sign_certificate``.

        A pair with no certificate goes to an exact LP.  For simplicial
        cones, a point of cone(S1) lies in the common face iff its (unique)
        barycentric coefficients vanish outside the common ray set, so a
        violation is a feasible point of the LP.  One LP per pair suffices:
        if no point of c1 & c2 has c1-coefficients off the common rays,
        c1 & c2 = cone(common), so the swapped LP is infeasible.
        """
        certified = _sign_certificate(self)
        for i, c1 in enumerate(self.max_cones):
            for c2 in self.max_cones[i + 1 :]:
                common = tuple(rid for rid in c1 if rid in c2)
                if certified(c1, c2, common):
                    continue
                if self._meets_outside_face(c1, c2, common):
                    raise FacesDontMeet(
                        f"cones {list(c1)} and {list(c2)} do not meet along {list(common)}"
                    )

    def _meets_outside_face(self, r1: Cone, r2: Cone, common: Cone) -> bool:
        columns = [self.rays[rid] for rid in r1] + [[-v for v in self.rays[rid]] for rid in r2]
        off_face = [ONE if rid not in common else ZERO for rid in r1] + [ZERO] * len(r2)
        b = [ZERO] * self.ambient_dim + [ONE]
        return lp.feasible_nonneg([*zip(*columns), off_face], b) is not None


def _sign_certificate(fan: MarkedFan) -> Callable[[Cone, Cone, Cone], bool]:
    """A test of whether maximal cones (c1, c2, common) have a sign certificate.

    The certificate is a functional l among +-x_a and +-(x_a - x_b) with
    l >= 0 on c1, l <= 0 on c2, and linearly independent zero rays in
    c1 | c2; it proves c1 & c2 = cone(common) (see
    ``MarkedFan._check_meet_along_faces``).  Each candidate is evaluated
    once per ray.  Candidate j stands for bit j (+l) and bit j + m (-l) of
    three masks per ray: the signed candidates that are >= 0 on it, <= 0 on
    it, and nonzero on it.  When l != 0 on every ray of c1 - common or on
    every ray of c2 - common, the zero rays lie in one simplicial cone, and
    the pair costs a few integer ANDs; otherwise each candidate that has
    the signs costs one ``rank`` of its zero rays.
    """
    n = fan.ambient_dim
    diffs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    m = n + len(diffs)
    nonneg: dict[str, int] = {}
    nonpos: dict[str, int] = {}
    nonzero: dict[str, int] = {}
    for rid, u in fan.int_rays.items():
        values = [*u, *(u[a] - u[b] for a, b in diffs)]
        pos = sum(1 << j for j, v in enumerate(values) if v > 0)
        neg = sum(1 << j for j, v in enumerate(values) if v < 0)
        zero = (1 << m) - 1 & ~(pos | neg)
        nonneg[rid] = pos | zero | (neg | zero) << m
        nonpos[rid] = neg | zero | (pos | zero) << m
        nonzero[rid] = pos | neg | (pos | neg) << m
    every = (1 << 2 * m) - 1

    def on_all(masks: Mapping[str, int], rids: Iterable[str]) -> int:
        out = every
        for rid in rids:
            out &= masks[rid]
        return out

    nonneg_on = {c: on_all(nonneg, c) for c in fan.max_cones}
    nonpos_on = {c: on_all(nonpos, c) for c in fan.max_cones}

    def certified(c1: Cone, c2: Cone, common: Cone) -> bool:
        signed = nonneg_on[c1] & nonpos_on[c2]
        only1, only2 = ([rid for rid in c if rid not in common] for c in (c1, c2))
        if signed & (on_all(nonzero, only1) | on_all(nonzero, only2)):
            return True
        rays = c1 + tuple(only2)
        candidates = (signed | signed >> m) & (1 << m) - 1
        return any(
            candidates >> j & 1 and independent(r for r in rays if not nonzero[r] >> j & 1)
            for j in range(m)
        )

    def independent(rids: Iterable[str]) -> bool:
        zero_rays = tuple(fan.int_rays[rid] for rid in rids)
        return rank(zero_rays) == len(zero_rays)

    return certified


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
            {"rays": list(cone), "weight": format_rat(fan.weights[cone])}
            for cone in fan.cones_of_dim(fan.d)
        ],
    }


# -- the balancing condition ---------------------------------------------


@dataclass(frozen=True)
class TropicalReport:
    """The cones tau of dimension d - 1 that fail the balancing condition, every cone of
    each failing orbit in ``cones_of_dim`` order, and ``certificates``, neither compared
    nor printed: (a, p) for every other tau that is an orbit representative
    (``MarkedFan.orbits``; every tau for the trivial group), integers with p != 0 and
    p s_tau + sum_i a_i u~_i = 0 (``_balancing_report``).  A linear symmetry maps a
    representative's certificate to one of each cone of its orbit."""

    is_tropical: bool
    failing: tuple[Cone, ...]
    certificates: Mapping[Cone, tuple[tuple[int, ...], int]] = field(
        default_factory=dict, compare=False, repr=False
    )


def is_tropical(fan: MarkedFan) -> TropicalReport:
    """The weighted balancing condition at every codimension-1 cone.

    The report is computed once per fan and kept on it: ``MarkedFan`` runs
    ``_balancing_report`` when it is built, so this call does no work.
    """
    return fan._tropical


def _balancing_report(fan: MarkedFan) -> TropicalReport:
    """Cones tau whose weighted link sum s_tau leaves span(tau), and certificates for the rest.

    The fan's one echelon walk, which ``MarkedFan`` runs once when it is
    built; it also refuses a cone with dependent rays.  The sums are
    integers: s_tau = sum_eta w~_{tau eta} u~_eta, with w~_{tau eta} the
    ``int_weights`` entry of join(tau, eta) and u~ the ``int_rays``.  One
    loop reads the orbit representatives in ``fan.cones`` order
    (``MarkedFan.orbits``; every cone for the trivial group).  The fan's
    symmetries are linear, so a cone's rays are independent, and s_tau lies
    in span(tau), exactly when those of its representative are and do.
    Each ray of a cone is a fraction-free echelon row,
    reduced by ``reduce_row`` against the rays before it and augmented by a unit vector
    that records its combination of the rays.  A representative's face without its
    last ray is a representative too: were an image g(face) less than the face,
    the image g(cone), whose i-th least ray is at most that of g(face), would be
    less than the cone.  Other faces need not be (the quadrant under its quarter
    turn).  So in lexicographic order the face without the last ray is the last
    representative read of one dimension less but for the face's own extensions,
    cutting the echelon stack to that dimension leaves the face's rows, and every
    nonzero representative, maximal ones included, reduces the row of its last ray
    against them and pushes it.  A cone's rays
    are independent exactly when no prefix's last ray has a residual that is
    zero in the ray coordinates, and every prefix of a maximal representative is a
    representative the loop reads, so a zero residual is the only refusal:
    NotSimplicial, naming the first maximal cone, in input order, that
    ``rank`` finds dependent (the one call of ``rank``, on this error path).
    At tau, s_tau reduced against these rows is p s_tau + sum_i a_i u~_i in its first
    n entries and a in the rest, p the last pivot (1 at the zero cone).
    tau's rays are independent, so the residual is zero exactly when s_tau
    lies in span(tau), and then (a, p) certifies it.  A row whose pivot is
    negative is negated, as its ray and unit vector would be, so every pivot
    is positive and none costs a rescaling by -1.  A failing representative
    fails with its whole orbit, and ``failing`` lists every such cone.
    """
    n, top = fan.ambient_dim, fan.d - 1
    order, rep, _ = fan.orbits()
    failing: set[Cone] = set()
    certificates: dict[Cone, tuple[tuple[int, ...], int]] = {}
    # equal certificates kept once: on U(7,8), 57120 cones share 20 certificates
    shared: dict[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]] = {}
    echelon: list[tuple[int, list[int]]] = []
    for cone in order:
        k = len(cone)
        if k:
            del echelon[k - 1 :]
            unit = [int(i == k - 1) for i in range(top)]
            row = reduce_row([*fan.int_rays[cone[-1]], *unit], echelon)
            c = next((i for i in range(n) if row[i]), None)
            if c is None:
                bad = next(s for s in fan.max_cones if rank([fan.int_rays[r] for r in s]) < len(s))
                raise NotSimplicial(f"cone {list(bad)} has dependent generators")
            echelon.append((c, row if row[c] > 0 else [-v for v in row]))
        if k == top:
            total = [0] * n
            for eta in fan.link(cone):
                w = fan.int_weights[join(cone, eta)]
                total = [t + w * x for t, x in zip(total, fan.int_rays[eta])]
            row = reduce_row([*total, *[0] * top], echelon)
            if any(row[:n]):
                failing.add(cone)
            else:
                c, prow = echelon[-1] if echelon else (0, [1])
                certificate = tuple(row[n:]), prow[c]
                certificates[cone] = shared.setdefault(certificate, certificate)
    if failing:  # every cone of each failing orbit
        failing = {tau for tau in fan.cones_of_dim(top) if rep.get(tau, tau) in failing}
    return TropicalReport(not failing, tuple(sorted(failing)), certificates)


# -- star fans ------------------------------------------------------------


def star(fan: MarkedFan, tau: Cone, gram: Mat) -> MarkedFan:
    """Star fan at tau, realized in the orthogonal complement of span(tau).

    Its rays are the rays of ``fan.link(tau)``, projected and keeping their
    ids, so restricting a z-vector to the star is index-stable; a star cone
    pi stands for the cone of the fan with the rays of pi and tau.  A ray u
    projects to u - sum_i c_i u_i over the rays u_i of tau, with
    c = G_tau^-1 (<u_i, u>)_i and G_tau inverted once per star.  A projection
    is never zero: join(tau, eta) lies in a maximal cone, whose rays were
    checked independent.
    """
    link = fan.link(tau)
    if not tau:
        return fan
    basis = [fan.rays[rid] for rid in tau]
    gbasis = [mat_vec(gram, u) for u in basis]
    gm_inv = inverse(tuple(tuple(dot(u, gb) for gb in gbasis) for u in basis))
    star_rays = {}
    for rid in link:
        v = fan.rays[rid]
        coeffs = mat_vec(gm_inv, tuple(dot(v, gb) for gb in gbasis))
        for c, u in zip(coeffs, basis):
            v = vec_sub(v, vec_scale(c, u))
        star_rays[rid] = v
    _check_no_collision(star_rays)
    star_cones = [
        ([rid for rid in sigma if rid not in tau], fan.weights[sigma])
        for sigma in fan.max_cones
        if set(tau) <= set(sigma)
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

    The graph's vertices are ``fan.link(tau)`` and a, b are adjacent when b is
    in the link of join(tau, a).  For a pure star of dimension >= 2 this is
    equivalent to connectivity of the star minus the origin.
    """
    rays = fan.link(tau)
    if len(rays) <= 1:
        return True
    seen = {rays[0]}
    stack = [rays[0]]
    while stack:
        for nxt in fan.link(join(tau, stack.pop())):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(rays)
