"""Matroids, characteristic polynomials, and Bergman fans.

A matroid is stored by its flats, bitsets over the ordered ground set, and
by the covers that the axiom check finds; ranks, closures and Bergman flags
all read the covers.  Constructors from other encodings (uniform, graphic,
linear over the rationals) build the flats by closure search from a rank
oracle, one closure per cover, and then run the same axiom validation.
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
from .linalg import Mat, Vec, ONE, ZERO, identity, qmat
from .linalg import rank as matrix_rank
from .serialize import parse_int, parse_list, parse_rat, read_field

GROUND_SET_CAP = 20

# check_fan(rays, d) raises when the Bergman fan's ray count or dimension
# exceeds a cap; it may be given lower bounds before the exact values.
CheckFan = Callable[[int, int], None]


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


class Matroid:
    """A loopless matroid presented by its flats."""

    def __init__(self, ground: Sequence[str], flat_masks: set[int]):
        self.ground: tuple[str, ...] = tuple(str(e) for e in ground)
        if len(set(self.ground)) != len(self.ground):
            raise AxiomViolation("F1", "ground set labels are not distinct")
        self.n = len(self.ground)
        self.index: dict[str, int] = {e: i for i, e in enumerate(self.ground)}
        self.full_mask = (1 << self.n) - 1
        self.flats: tuple[int, ...] = tuple(sorted(flat_masks, key=lambda m: (_popcount(m), m)))
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
            for g in minimal:
                extra = [i for i in range(self.n) if (g & ~f) >> i & 1]
                if cover.keys() & extra:
                    raise AxiomViolation(
                        "F3", f"two minimal flats above {self.labels(f)} share an element"
                    )
                cover.update(dict.fromkeys(extra, g))
            if above and len(cover) != self.n - _popcount(f):
                raise AxiomViolation(
                    "F3", f"elements outside {self.labels(f)} missed by its minimal superflats"
                )

    # -- basic queries ---------------------------------------------------

    def labels(self, mask: int) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.ground) if mask >> i & 1)

    def closure(self, mask: int) -> int:
        f = 0  # climb to the cover of f holding the lowest element of mask outside f
        while missing := mask & ~f:
            f = self._cover[f][(missing & -missing).bit_length() - 1]
        return f

    def rank_of_flat(self, flat: int) -> int:
        return self._rank_of_flat[flat]

    def proper_flats(self) -> tuple[int, ...]:
        return tuple(f for f in self.flats if f != 0 and f != self.full_mask)

    def flats_of_rank(self, k: int) -> tuple[int, ...]:
        return tuple(f for f in self.flats if self._rank_of_flat[f] == k)


# -- constructors ----------------------------------------------------------


def from_flats(
    ground: Sequence[str], flats: Sequence[Sequence[str]], check_fan: CheckFan | None = None
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
    if check_fan:  # the rank, and so the dimension, is known only after the axiom check
        check_fan(len(masks - {0, (1 << len(labels)) - 1}), 0)
    return Matroid(labels, masks)


def _flats_from_rank_oracle(
    ground: Sequence[str], rank_of, check_fan: CheckFan | None = None
) -> set[int]:
    """Closure search: the flats are the closed sets of the rank function.

    ``check_fan`` sees rank(E) - 1 before the search and a lower bound on
    the number of proper flats at each new flat, so a cap stops the search.
    """
    n = len(ground)
    full = (1 << n) - 1
    d = rank_of(full) - 1
    if check_fan:
        check_fan(0, d)

    def closure(mask: int) -> int:
        r = rank_of(mask)
        out = mask
        for i in range(n):
            bit = 1 << i
            if not mask & bit and rank_of(mask | bit) == r:
                out |= bit
        return out

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
                if check_fan:
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
    return Matroid(labels, _flats_from_rank_oracle(labels, lambda m: min(_popcount(m), r)))


def graphic(
    edges: Sequence[Sequence[str]],
    labels: Sequence[str] | None = None,
    check_fan: CheckFan | None = None,
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

    def rank_of(mask: int) -> int:
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        r = 0
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    r += 1
        return r

    return Matroid(labels, _flats_from_rank_oracle(labels, rank_of, check_fan))


def linear(
    columns: Sequence[Sequence],
    labels: Sequence[str] | None = None,
    check_fan: CheckFan | None = None,
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

    def rank_of(mask: int) -> int:
        rows = tuple(v for i, v in enumerate(vecs) if mask >> i & 1)
        return matrix_rank(rows)

    return Matroid(labels, _flats_from_rank_oracle(labels, rank_of, check_fan))


def matroid_from_json(
    raw: Mapping, cap: int = GROUND_SET_CAP, check_fan: CheckFan | None = None
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
        if check_fan and 0 < r <= n:
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
    if check_fan:
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
        chi[r - m.rank_of_flat(m.closure(s))] += -1 if _popcount(s) & 1 else 1

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
    return ",".join(m.labels(flat))


def bergman_fan(m: Matroid, e0: str) -> MarkedFan:
    """Bergman fan on flags of proper flats, realized in R^(E minus e0).

    The quotient by the all-ones vector is realized by deleting the e0
    coordinate, so the e0 inner product is the identity matrix.  All cone
    weights are 1, and the fan has dimension rank(m) - 1.
    """
    if m.rank < 2:
        raise RankTooSmall(f"Bergman fan needs rank >= 2, got {m.rank}")
    if e0 not in m.index:
        raise UnknownElement(f"{e0!r} is not a ground set element")
    coords = [e for e in m.ground if e != e0]
    e0_bit = 1 << m.index[e0]

    rays: dict[str, Vec] = {}
    for f in m.proper_flats():
        shift = ONE if f & e0_bit else ZERO
        rays[flat_ray_id(m, f)] = tuple(
            (ONE if f >> m.index[e] & 1 else ZERO) - shift for e in coords
        )

    flags: list[list[int]] = [[]]
    for _ in range(1, m.rank):  # each chain grows by each cover of its end, in m.flats order
        flags = [
            chain + [g]
            for chain in flags
            for g in dict.fromkeys(m._cover[chain[-1] if chain else 0].values())
        ]
    max_cones = [([flat_ray_id(m, f) for f in chain], ONE) for chain in flags]
    return MarkedFan(len(coords), rays, max_cones, validate_geometry=False)


def e0_inner_product(m: Matroid, e0: str) -> Mat:
    """The inner product making {u_e | e != e0} orthonormal: the identity Gram."""
    if e0 not in m.index:
        raise UnknownElement(f"{e0!r} is not a ground set element")
    return identity(m.n - 1)


def alpha_beta_z(m: Matroid, e0: str) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """Indicator truncation values with D(z_alpha) = alpha and D(z_beta) = beta."""
    if e0 not in m.index:
        raise UnknownElement(f"{e0!r} is not a ground set element")
    e0_bit = 1 << m.index[e0]
    z_alpha: dict[str, Fraction] = {}
    z_beta: dict[str, Fraction] = {}
    for f in m.proper_flats():
        rid = flat_ray_id(m, f)
        z_alpha[rid] = ONE if f & e0_bit else ZERO
        z_beta[rid] = ZERO if f & e0_bit else ONE
    return z_alpha, z_beta
