"""Matroids, characteristic polynomials, and Bergman fans.

A matroid is stored by its flats, bitsets over the ordered ground set, and
by the covers that the axiom check finds; ranks, closures and Bergman flags
all read the covers.  Constructors from other encodings (uniform, graphic,
linear over the rationals) build the flats by closure search, one closure per
cover, and then run the same axiom validation.  Each gives the search its own
closure: a uniform matroid's in closed form, a graphic one's by one
union-find pass, and a linear one's by one fraction-free elimination of the
set's columns (``linalg.reduce_row``), against which each other column is
reduced once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb
from typing import Callable, Mapping, Sequence

from .errors import (
    AxiomViolation,
    GroundSetTooLarge,
    InputError,
    LoopDetected,
    MismatchError,
    RankTooSmall,
    UnknownElement,
)
from .fan import MarkedFan
from .linalg import Mat, Vec, ONE, ZERO, echelon, identity, qmat, reduce_row, scaled_rows
from .serialize import parse_int, parse_list, parse_rat, read_field

GROUND_SET_CAP = 20

# check_fan(rays, d) raises when the Bergman fan's ray count or dimension
# exceeds a cap; it may be given lower bounds before the exact values.
CheckFan = Callable[[int, int], None]


def any_fan(rays: int, d: int) -> None:
    """The ``check_fan`` that accepts every fan: no caps."""


class Matroid:
    """A loopless matroid presented by its flats."""

    def __init__(self, ground: Sequence[str], flat_masks: set[int]):
        self.ground: tuple[str, ...] = tuple(str(e) for e in ground)
        if len(set(self.ground)) != len(self.ground):
            raise AxiomViolation("F1", "ground set labels are not distinct")
        self.n = len(self.ground)
        self.index: dict[str, int] = {e: i for i, e in enumerate(self.ground)}
        self.full_mask = (1 << self.n) - 1
        self.flats: tuple[int, ...] = tuple(sorted(flat_masks, key=lambda m: (m.bit_count(), m)))
        self._validate_axioms()
        self._rank_of_flat: dict[int, int] = {0: 0}
        for f in self.flats:
            for g in self._cover[f].values():
                self._rank_of_flat[g] = self._rank_of_flat[f] + 1
        self.rank = self._rank_of_flat[self.full_mask]

    def _validate_axioms(self) -> None:
        flats = set(self.flats)
        if 0 not in flats:
            raise AxiomViolation("F1", "the empty set is not a flat")
        if self.full_mask not in flats:
            raise AxiomViolation("F2", "the ground set is not a flat")
        for f in self.flats:
            for g in self.flats:
                if f & g not in flats:
                    raise AxiomViolation(
                        "F2", f"intersection of {self.labels(f)} and {self.labels(g)} is not a flat"
                    )
        # F3: f's covers partition E - f; _cover[f] maps each element outside f to its cover.
        self._cover: dict[int, dict[int, int]] = {}
        for f in self.flats:
            above = [g for g in self.flats if g & f == f and g != f]
            minimal = [g for g in above if not any(h & g == h and h != g for h in above)]
            cover = self._cover[f] = {}
            for g in minimal:  # covers meet in f: g & g' is a flat (F2) between f and g
                cover.update(dict.fromkeys((i for i in range(self.n) if (g & ~f) >> i & 1), g))
            if above and len(cover) != self.n - f.bit_count():
                raise AxiomViolation(
                    "F3", f"elements outside {self.labels(f)} missed by its minimal superflats"
                )

    # -- basic queries ---------------------------------------------------

    def labels(self, mask: int) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.ground) if mask >> i & 1)

    def element_bit(self, e: str) -> int:
        """The bit of ground set element e in a flat; UnknownElement for any other value."""
        if e not in self.index:
            raise UnknownElement(f"{e!r} is not a ground set element")
        return 1 << self.index[e]

    def closure(self, mask: int) -> int:
        f = 0  # climb to the cover of f holding the lowest element of mask outside f
        while missing := mask & ~f:
            f = self._cover[f][(missing & -missing).bit_length() - 1]
        return f

    def rank_of_flat(self, flat: int) -> int:
        return self._rank_of_flat[flat]

    def proper_flats(self) -> tuple[int, ...]:
        return tuple(f for f in self.flats if f != 0 and f != self.full_mask)


# -- constructors ----------------------------------------------------------


def from_flats(
    ground: Sequence[str], flats: Sequence[Sequence[str]], check_fan: CheckFan = any_fan
) -> Matroid:
    labels = [str(e) for e in ground]
    index = {e: i for i, e in enumerate(labels)}
    masks = set()
    for flat in flats:
        m = 0
        for e in flat:
            if str(e) not in index:
                raise UnknownElement(f"{e!r} is not a ground set element")
            m |= 1 << index[str(e)]
        masks.add(m)
    # the rank, and so the dimension, is known only after the axiom check
    check_fan(len(masks - {0, (1 << len(labels)) - 1}), 0)
    return Matroid(labels, masks)


def _flats_from_closure(
    ground: Sequence[str],
    closure: Callable[[int], int],
    rank: int,
    check_fan: CheckFan = any_fan,
) -> set[int]:
    """Closure search: the flats are the closed sets of the closure, of a matroid of
    this rank.

    ``check_fan`` sees rank - 1 before the search and a lower bound on
    the number of proper flats at each new flat, so a cap stops the search.
    """
    n, d = len(ground), rank - 1
    full = (1 << n) - 1
    check_fan(0, d)
    flats = {closure(0)}
    frontier = deque(flats)  # breadth first, so a cap on the flats stops it early
    while frontier:
        f = frontier.popleft()
        covered = f  # f and the covers of f found so far, one closure each
        for i in range(n):
            bit = 1 << i
            if covered & bit:
                continue
            g = closure(f | bit)
            covered |= g
            if g not in flats:
                flats.add(g)
                frontier.append(g)
                check_fan(len(flats) - 2, d)
    flats.add(full)
    return flats


def uniform(r: int, ground: int | Sequence[str]) -> Matroid:
    if isinstance(ground, int):
        ground = [chr(ord("a") + i) if ground <= 26 else f"e{i}" for i in range(ground)]
    labels = [str(e) for e in ground]
    n = len(labels)
    if not 0 < r <= n:
        raise RankTooSmall(f"uniform matroid needs 0 < r <= {n}, got {r}")

    def closure(mask: int) -> int:  # every set of fewer than r elements is a flat
        return mask if mask.bit_count() < r else (1 << n) - 1

    return Matroid(labels, _flats_from_closure(labels, closure, r))


def graphic(
    edges: Sequence[Sequence[str]],
    labels: Sequence[str] | None = None,
    check_fan: CheckFan = any_fan,
) -> Matroid:
    """The cycle matroid of a multigraph given as a list of edges (u, v)."""
    if labels is None:
        labels = [str(i) for i in range(len(edges))]
    if len(labels) != len(edges):
        raise AxiomViolation("F1", "one label per edge is required")
    pairs = [(str(u), str(v)) for u, v in edges]
    for u, v in pairs:
        if u == v:
            raise LoopDetected(f"edge ({u},{v}) is a loop")

    def union_find(mask: int) -> Callable[[str], str]:
        """The root of each vertex's component under the edges of mask."""
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                parent[find(u)] = find(v)
        return find

    def closure(mask: int) -> int:
        """Every edge whose ends the edges of mask connect: one union-find pass."""
        find = union_find(mask)
        return sum(1 << i for i, (u, v) in enumerate(pairs) if find(u) == find(v))

    vertices, find = {x for e in pairs for x in e}, union_find((1 << len(pairs)) - 1)
    rank = len(vertices) - len(set(map(find, vertices)))
    return Matroid(labels, _flats_from_closure(labels, closure, rank, check_fan))


def linear(
    columns: Sequence[Sequence],
    labels: Sequence[str] | None = None,
    check_fan: CheckFan = any_fan,
) -> Matroid:
    """The matroid of a list of rational column vectors."""
    vecs = qmat(columns)
    if labels is None:
        labels = [str(i) for i in range(len(vecs))]
    if len(labels) != len(vecs):
        raise AxiomViolation("F1", "one label per column is required")
    labels = [str(e) for e in labels]
    for e, v in zip(labels, vecs):
        if all(x == 0 for x in v):
            raise LoopDetected(f"column {e!r} is zero")

    n, ints = len(vecs), scaled_rows(vecs)[1]
    dim = len(ints[0]) if ints else 0

    def closure(mask: int) -> int:
        """mask and every column in the span of its echelon rows: one elimination of
        mask, then one reduction of each column outside it."""
        rows = echelon((ints[i] for i in range(n) if mask >> i & 1), dim)[0]
        spanned = (i for i in range(n) if not mask >> i & 1 and not any(reduce_row(ints[i], rows)))
        return mask | sum(1 << i for i in spanned)

    rank = len(echelon(ints, dim)[0])
    return Matroid(labels, _flats_from_closure(labels, closure, rank, check_fan))


def matroid_from_json(
    raw: Mapping, cap: int = GROUND_SET_CAP, check_fan: CheckFan = any_fan
) -> Matroid:
    """A matroid from its file: a ``kind`` with the keys it needs, and a ``ground_set``.

    A missing key, or one whose value has the wrong shape, raises InputError
    naming it, and so does an empty ground set; a ground set larger than
    ``cap`` raises GroundSetTooLarge before anything is built.  ``check_fan``
    is called with the ray count and dimension of the Bergman fan, the number
    of proper flats and rank - 1: for a uniform matroid from the closed form
    C(n,1) + ... + C(n,r-1) before any flat is built, for the other kinds
    once the flats are known, and before that with lower bounds: during the
    closure search of a graphic or linear matroid, and before the axiom
    check of a matroid given by its flats.
    """
    field = partial(read_field, raw, "the matroid file")
    ground = field("ground_set", lambda g: parse_list(g, str))
    if not ground:
        raise InputError("the matroid file's 'ground_set' is empty")
    if len(ground) > cap:
        raise GroundSetTooLarge(f"|E| = {len(ground)} exceeds the cap {cap}")
    kind = field("kind")
    if kind == "uniform":
        r, n = field("rank", parse_int), len(ground)
        if 0 < r <= n:
            check_fan(sum(comb(n, k) for k in range(1, r)), r - 1)
        return uniform(r, ground)
    if kind == "flats":
        m = from_flats(ground, field("flats", lambda fs: parse_list(fs, parse_list)), check_fan)
    elif kind == "graphic":
        edges = field("edges", lambda es: [(u, v) for u, v in parse_list(es, parse_list)])
        m = graphic(edges, ground, check_fan)
    elif kind == "linear":
        matrix = field("matrix", lambda cs: parse_list(cs, lambda c: parse_list(c, parse_rat)))
        m = linear(matrix, ground, check_fan)
    else:
        raise UnknownElement(f"unknown matroid kind {kind!r}")
    check_fan(len(m.proper_flats()), m.rank - 1)
    return m


# -- characteristic polynomials ---------------------------------------------


@dataclass(frozen=True)
class CharPoly:
    """chi and the reduced chibar, coefficients by ascending power of lambda."""

    chi: tuple[int, ...]
    chibar: tuple[int, ...]

    @property
    def mu(self) -> tuple[int, ...]:
        """Unsigned Whitney numbers mu^a = |coefficient of lambda^(r-a)| in chi."""
        r = len(self.chi) - 1
        return tuple(abs(self.chi[r - a]) for a in range(r + 1))

    @property
    def mubar(self) -> tuple[int, ...]:
        d = len(self.chibar) - 1
        return tuple(abs(self.chibar[d - a]) for a in range(d + 1))


def char_poly(m: Matroid) -> CharPoly:
    """Characteristic polynomial by subset expansion, cross-checked by Moebius counts."""
    if m.n > GROUND_SET_CAP:
        raise GroundSetTooLarge(f"|E| = {m.n} exceeds the cap {GROUND_SET_CAP}")
    r = m.rank
    chi = [0] * (r + 1)
    for s in range(1 << m.n):
        chi[r - m.rank_of_flat(m.closure(s))] += -1 if s.bit_count() & 1 else 1

    mobius: dict[int, int] = {}
    for f in m.flats:
        mobius[f] = -sum(mobius[g] for g in m.flats if g & f == g and g != f) if f else 1
    chi2 = [0] * (r + 1)
    for f in m.flats:
        chi2[r - m.rank_of_flat(f)] += mobius[f]
    if chi != chi2:
        raise MismatchError("subset expansion and Moebius paths disagree")

    # Exact division by (lambda - 1), highest power first.
    quotient = [0] * r
    carry = 0
    for k in range(r, 0, -1):
        carry += chi[k]
        quotient[k - 1] = carry
    if carry + chi[0] != 0:
        raise MismatchError("chi(1) != 0; division by (lambda - 1) leaves a remainder")
    return CharPoly(tuple(chi), tuple(quotient))


# -- Bergman fans -----------------------------------------------------------


def flat_ray_id(m: Matroid, flat: int) -> str:
    """The ray id of a flat, its labels joined by commas: the one place the format is set.

    Distinct flats get distinct ids because no label holds a comma
    (``require_bergman_input``), so splitting an id on "," gives back its labels.
    """
    return ",".join(m.labels(flat))


def require_bergman_input(m: Matroid, e0: str) -> None:
    """Raise RankTooSmall, UnknownElement or InputError (a ground label that holds a
    comma, which would make two flats one ray id) unless ``bergman_fan(m, e0)`` is
    defined."""
    if m.rank < 2:
        raise RankTooSmall(f"Bergman fan needs rank >= 2, got {m.rank}")
    m.element_bit(e0)
    if comma := [e for e in m.ground if "," in e]:
        raise InputError(f"the ground set label {comma[0]!r} holds a comma, which ray ids reserve")


def bergman_fan(
    m: Matroid, e0: str, symmetries: Sequence[Mapping[str, str]] = ()
) -> MarkedFan:
    """Bergman fan on flags of proper flats, realized in R^(E minus e0).

    The quotient by the all-ones vector is realized by deleting the e0
    coordinate, so the e0 inner product is the identity matrix.  All cone
    weights are 1, and the fan has dimension rank(m) - 1.  ``symmetries``,
    ray permutations such as ``bergman_symmetries``, go to the fan, which
    checks them and runs its balancing walk over their orbits.
    """
    require_bergman_input(m, e0)
    coords = [e for e in m.ground if e != e0]
    e0_bit = m.element_bit(e0)
    ids = {f: flat_ray_id(m, f) for f in m.proper_flats()}

    rays: dict[str, Vec] = {}
    for f, rid in ids.items():
        shift = ONE if f & e0_bit else ZERO
        rays[rid] = tuple((ONE if f >> m.index[e] & 1 else ZERO) - shift for e in coords)

    flags: list[list[int]] = [[]]
    for _ in range(1, m.rank):  # each chain grows by each cover of its end, in m.flats order
        flags = [
            chain + [g]
            for chain in flags
            for g in dict.fromkeys(m._cover[chain[-1] if chain else 0].values())
        ]
    max_cones = [([ids[f] for f in chain], ONE) for chain in flags]
    return MarkedFan(len(coords), rays, max_cones, validate_geometry=False, symmetries=symmetries)


def bergman_symmetries(m: Matroid, e0: str) -> list[dict[str, str]]:
    """Ray permutations of ``bergman_fan(m, e0)`` that generate the symmetric group of
    each transposition class of E minus e0.

    Elements e and f of E minus e0 are in one class when swapping them maps flats
    to flats.  The swaps form an equivalence relation, as (a c) = (a b)(b c)(a b),
    so each element is tested against the first element of each class so far:
    at most C(n - 1, 2) tests of one pass over the flats each.  A class of two or
    more elements gives a transposition and a cycle of its elements.  Each fixes
    e0 and maps flats to flats, so it maps flags to flags, keeps whether a flat
    holds e0, and permutes the coordinates of the identity e0 Gram.
    """
    e0_bit, flats = m.element_bit(e0), set(m.flats)
    ids = {f: flat_ray_id(m, f) for f in m.proper_flats()}
    classes: list[list[int]] = []
    for i in range(m.n):
        bit = 1 << i
        if bit == e0_bit:
            continue
        for c in classes:
            pair = bit | 1 << c[0]
            if all((f ^ pair if (f & pair) in (bit, pair ^ bit) else f) in flats for f in flats):
                c.append(i)
                break
        else:
            classes.append([i])
    perms = []
    for c in classes:
        for cycle in dict.fromkeys((tuple(c[:2]), tuple(c))) if len(c) > 1 else ():
            p = list(range(m.n))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                p[a] = b
            perms.append({
                rid: ids[sum(1 << p[i] for i in range(m.n) if f >> i & 1)] for f, rid in ids.items()
            })
    return perms


def e0_inner_product(m: Matroid, e0: str) -> Mat:
    """The inner product making {u_e | e != e0} orthonormal: the identity Gram."""
    m.element_bit(e0)
    return identity(m.n - 1)


def alpha_beta_z(m: Matroid, e0: str) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """Indicator truncation values with D(z_alpha) = alpha and D(z_beta) = beta."""
    e0_bit = m.element_bit(e0)
    z_alpha: dict[str, Fraction] = {}
    z_beta: dict[str, Fraction] = {}
    for f in m.proper_flats():
        rid = flat_ray_id(m, f)
        z_alpha[rid] = ONE if f & e0_bit else ZERO
        z_beta[rid] = ZERO if f & e0_bit else ONE
    return z_alpha, z_beta
