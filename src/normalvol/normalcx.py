"""Normal complexes of a (fan, inner product) context.

Everything an inner product touches happens here: w-vectors, the cubical /
pseudocubical classification and search, polytope vertices, exact volumes
and mixed volumes, the symbolic volume polynomial, and restriction of
truncation values to star fans.

Volumes, mixed volumes and the volume polynomial come from one dynamic
program over the cones of the fan, grouped by dimension:

    F_0(0) = 1,  F_k(sigma) = sum_{rho in sigma} F_{k-1}(sigma - rho) * (z_k)^{sigma - rho}_rho,
    MVol(z_1, ..., z_d) = sum_sigma w_sigma F_d(sigma),

with sigma - rho the face of sigma without rho.  Each context keeps one batch
of truncations for every volume call made on it: it tells them apart, and
scales each to integers, through its ``fan.Truncations`` (``Context.truncations``),
as the Chow degrees do, and keeps one table per truncation and the layer of
every prefix z_1..z_k it climbs, so its layers are a trie of the batch's
tuples: the d + 1 tuples alpha^(d-a) beta^a of ``hrw`` share the prefixes
alpha^k and need d + d(d + 1)/2 layers in all.  So a classification, a volume,
a mixed volume, a polarization and an AF margin on one context share the
tables of their truncations: the four volume calls of one cross-check on
three truncations (``vol_recursive``, ``mvol_recursive``,
``mvol_polarization_oracle``, ``af_check``) table 7 truncations once each.
The batch is bounded: as a public call starts (``Context.open_batch``), a
context that holds ``TABLE_BOUND`` tables or more drops its tables, layers and
numbering together, and within a call it never drops them, so the numbers a
call holds stay valid until it returns.  The batch points at no context, so a
context is freed by reference counting alone.

The factors come from the barycentric coefficients c_sigma(z) = G_sigma^-1 z_sigma
of the w-vectors, the same numbers the classification reads: restriction is
transitive, so z^{sigma - rho}_rho = c_sigma(z)_rho / (G_sigma^-1)_{rho rho}.  One
pass over the cones per distinct truncation (``_Table``) classifies it and keeps
its nonzero rows of factors by dimension, so no step of the program reads a link.

The exact core is fraction-free.  A context scales its Gram by the lcm g of
the Gram's denominators and reads the fan's integer rays M u (``int_rays``,
M the lcm of the ray denominators, scaled once when the fan is built), so
every ray pairing is an integer, <u_a, u_b> / pair_scale with
pair_scale = 1 / (g M^2).
Each cone keeps the integer determinant D > 0 and adjugate of its Gram block
in these pairings, so G_sigma^-1 = adj / (D pair_scale), bordered from the face
without its last ray by ``linalg.border_adjugate``, whose one division is
exact by Sylvester's identity (the step of Bareiss's elimination); this
module divides by no previous pivot or minor itself.  A table reads z scaled by
the lcm Z of its denominators (``fan.Truncations``) and holds the integers
num = adj (Z z), which have the signs of c_sigma(z); the factor of (sigma, rho)
is num_rho / (Z D_{sigma - rho}), since adj_{rho rho} = D_{sigma - rho}.  A row
keeps these raw integers, so the table pass divides nothing and reads no
determinant but its own cone's.  The denominators D_{sigma - rho} are cleared on
the layers instead, once per cone and not once per (cone, ray): with Lambda_j
the lcm of D_tau over the cones tau of dimension j, a layer of k-cones below
the top is multiplied, cone by cone, by the integer Lambda_k // D_sigma
(``Context.dim_scales``, cached per context and dimension), so the climb
L_k(sigma) = sum_i M_{k-1}(sigma - rho_i) num_sigma[i], with M_{k-1} the scaled
layer below, holds the integers F_k(sigma) prod_{j <= k} Z_j Lambda_{j-1}.  The
top layer is not scaled; it pairs with the weights times their lcm denominator
W (``int_weights``).  So every layer is integers, and a mixed volume builds one
Fraction: sum_sigma L_d(sigma) W w_sigma / (W prod_k Z_k Lambda_{k-1}).
Every public value stays a Fraction.

The fan may carry a group of ray permutations (``MarkedFan(..., symmetries)``),
which it checks and whose orbits of cones it finds when it is built
(``MarkedFan.orbits``).  A context checks that the group keeps its Gram: every
ray and 2-cone must keep its pairing, read as the pairing being constant on
the cone's orbit.  So every D and adjugate is constant on an orbit
of cones, up to the order of its rays.  For truncations
constant on the orbits of the rays (refused otherwise), every table row and
forward value is constant on orbits too, and the program runs over the
orbits' representatives alone: the table pass walks the representatives, a
face is read at its representative, and the top layer pairs with each orbit's
sum of weights (``MarkedFan.orbits``).  The trivial group is the same code with
the map of non-representatives empty.
``hrw`` builds its Bergman fan over the matroid's transposition classes
(``matroid.bergman_symmetries``), so its mixed volumes, the fan's balancing
walk and the Chow degrees all run over orbits; ``char_poly``, which never
reads the fan, is the check independent of them.  Every other reader of the
context reads every cone.

The Hessians of the volume quadratics of the stars at the cones of
dimension d - 2, which condition (ii) of ``reduce-check`` reads, come in
closed form from the maximal cones' adjugates (``star_hessians``), so no star
fan and no polynomial is built for them.  ``restrict_z`` reads its rays off
``fan.link(tau)`` and builds no star either; only ``face_complex`` builds star
contexts, for the face identity
w_pi(z) - w_tau(z) = w^star_{pi - tau}(z^tau), and the star's geometry comes
from its own elimination, not from this context's adjugates.  The geometric
oracle below and the Chow degrees in ``chow`` stay independent of the
dynamic program.

The truncation polytope P_sigma(z) of a cone, the convex hull of the w_tau(z)
over the faces tau of sigma, is checked in one place, ``_checked_faces``, which
gives its vertices in integers; the mesh export draws it and the geometric
oracle tiles it by chain simplices, with no w-vector and no rational determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import mul
from itertools import combinations, permutations
from typing import Iterable, Mapping, Sequence, TypeVar

from . import lp
from .errors import (
    ArityMismatch,
    DimensionMismatch,
    DimTooLarge,
    InputError,
    MismatchError,
    NotInvariant,
    NotPseudocubical,
    NormalVolError,
)
from .fan import Cone, MarkedFan, Truncations, ZERO_CONE, check_keys, check_sorted, star
from .linalg import (
    Mat,
    Vec,
    ZERO,
    ONE,
    border_adjugate,
    cofactors,
    scaled_rows,
    scaled_to_int,
    signature,
    vec_add,
    vec_scale,
    zeros,
)
from .poly import MultiPoly
from .serialize import parse_rat

ZValues = dict[str, Fraction]

TABLE_BOUND = 8  # the tables a context's batch keeps from one public call to the next


def check_gram(gram: Mat, n: int) -> None:
    """Validate a symmetric positive-definite Gram matrix, exactly.

    ``signature`` raises NotSymmetric; positive definite means n positive
    eigenvalues.
    """
    if len(gram) != n or any(len(row) != n for row in gram):
        raise DimensionMismatch(f"Gram matrix must be {n}x{n}")
    if signature(gram).n_plus != n:
        raise NormalVolError("Gram matrix is not positive definite")


class Context:
    """A (fan, inner product) pair with per-cone caches and one batch of truncation tables.

    Star contexts are realized inside the same ambient coordinates, so the
    restricted inner product is literally the same Gram matrix.  Every scan
    over the cones reads the fan's one order, ``fan.cones``, and every cache
    is keyed by the fan's cones, sorted tuples of ray ids.

    The caches hold integers.  With g the lcm of the Gram's denominators,
    G~ = g G is integral, and the fan's ``int_rays`` are u~ = M u with
    M = ``fan.ray_scale``, so ``ray_pair`` is the integer <u~_a, G~ u~_b> =
    <u_a, u_b> / pair_scale, where pair_scale = 1 / (g M^2).  A cone's Gram
    block in these pairings has an integer determinant D > 0 and adjugate,
    and G_sigma^-1 = adj / (D pair_scale).

    The fan's symmetries (``MarkedFan.orbits``) must keep the Gram: the pairing of
    each ray and of each 2-cone, the only pairings an adjugate reads, must be constant
    on its orbit, which is each generator keeping it.  The volume program runs over
    the orbits (module docstring), and every other reader of the context reads every
    cone.

    The context also holds the volume program's batch (module docstring): the index of
    its truncations (``truncations``, a ``fan.Truncations``), one ``_Table`` per
    truncation, and the layers memoized by the prefix of the truncations' numbers.  A
    layer climbs a table's raw rows, L_k(sigma) = sum_i M_{k-1}(sigma - rho_i)
    num_sigma[i], and holds the integers F_k(sigma) prod_{j <= k} Z_j Lambda_{j-1}; a
    layer of length k < d is kept as M_k, each value times Lambda_k // D_sigma
    (``dim_scales``), so that the next climb is over one denominator.  The top layer is
    not scaled.  Over a group, every table and layer is keyed by representatives, and
    the top layer pairs with the orbits' sums of weights.  ``classify_z``,
    ``mixed_volumes``, ``mvol_polarization_oracle`` and ``af.af_check`` each open the
    batch once (``open_batch``) and then read it by ``classify``, ``index``, ``mvol``
    and ``mvol_at``; ``af.hrw_verify`` numbers its pencil once by ``index`` for its
    mixed volumes and its Chow degrees (``chow.deg_products_at``) alike.  At
    ``TABLE_BOUND`` tables or more, the next call to open the batch starts a new one.
    """

    def __init__(self, fan: MarkedFan, gram: Mat):
        check_gram(gram, fan.ambient_dim)
        self.fan = fan
        self.gram = gram
        g, gram_int = scaled_rows(gram)
        self.pair_scale = Fraction(1, g * fan.ray_scale**2)
        self._gram_rays = {
            rid: tuple(sum(x * y for x, y in zip(row, u)) for row in gram_int)
            for rid, u in fan.int_rays.items()
        }
        self._ray_pairs: dict[tuple[str, str], int] = {}
        self._gram_inv: dict[Cone, tuple[int, tuple[tuple[int, ...], ...]]] = {ZERO_CONE: (1, ())}
        self._dim_scales: list[tuple[int, dict[Cone, int]] | None] = [None] * fan.d
        self._stars: dict[Cone, "Context"] = {}
        self._vol_poly: MultiPoly | None = None
        for cone, r in fan.orbits()[1].items():
            if len(cone) <= 2 and self.ray_pair(cone[0], cone[-1]) != self.ray_pair(r[0], r[-1]):
                raise NotInvariant(f"a symmetry changes the pairing of {r[0]!r} and {r[-1]!r}")
        self._new_batch()

    def _new_batch(self) -> None:
        self.truncations = Truncations(self.fan)
        self._tables: list[_Table] = []
        self._forward: dict[tuple[int, ...], dict[Cone, int]] = {(): {ZERO_CONE: 1}}

    def open_batch(self) -> None:
        """Start a public call on the batch: from ``TABLE_BOUND`` tables on, drop the
        tables, the layers and the numbering together, so that no call's numbers go stale."""
        if len(self._tables) >= TABLE_BOUND:
            self._new_batch()

    def _lookup(self, z: Mapping[str, Fraction]) -> int:
        t = self.truncations.index(z)
        if t == len(self._tables):
            self._tables.append(_Table(self, self.truncations.scaled[t][1]))
        return t

    def classify(self, z: Mapping[str, Fraction]) -> CubReport:
        """``classify_z`` within the call that has opened the batch."""
        return self._tables[self._lookup(z)].report

    def index(self, z: Mapping[str, Fraction]) -> int:
        """z's number in ``truncations``, refused (NotPseudocubical) outside the
        pseudocubical cone; ``mvol_at`` reads the numbers it gives."""
        t = self._lookup(z)
        require_pseudocubical(self._tables[t].report)
        return t

    def _forward_layer(self, prefix: tuple[int, ...]) -> dict[Cone, int]:
        if prefix not in self._forward:
            below, k = self._forward_layer(prefix[:-1]), len(prefix)
            layer = _climb(below, self._tables[prefix[-1]][k], 0, self.fan.orbits()[1])
            if k < self.fan.d:  # below the top: times Lambda_k // D_sigma
                scales = self.dim_scales(k)[1]
                layer = {cone: v * scales[cone] for cone, v in layer.items()}
            self._forward[prefix] = layer
        return self._forward[prefix]

    def mvol(self, zs: Sequence[Mapping[str, Fraction]]) -> Fraction:
        """MVol(zs), each z numbered and checked by ``index`` in turn."""
        if len(zs) != self.fan.d:
            raise ArityMismatch(f"need exactly {self.fan.d} arguments, got {len(zs)}")
        return self.mvol_at(tuple(map(self.index, zs)))

    def mvol_at(self, ts: tuple[int, ...]) -> Fraction:
        """MVol of the d truncations numbered ts by ``index``: the tuple's top layer,
        climbed through the memo of its prefixes, paired with the orbits' sums of weights
        (module docstring)."""
        weights = self.fan.orbits()[2]
        total = sum(v * weights[c] for c, v in self._forward_layer(ts).items())
        den = prod(self.truncations.scaled[t][0] * self.dim_scales(j)[0] for j, t in enumerate(ts))
        return Fraction(total, self.fan.weight_scale * den)

    def ray_pair(self, a: str, b: str) -> int:
        """The integer <u~_a, G~ u~_b> = <u_a, u_b> / pair_scale, cached per unordered pair."""
        key = (a, b) if a <= b else (b, a)
        value = self._ray_pairs.get(key)
        if value is None:
            value = sum(x * y for x, y in zip(self.fan.int_rays[a], self._gram_rays[b]))
            self._ray_pairs[key] = value
        return value

    def cone_gram_inverse(self, cone: Cone) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, adj): the determinant and adjugate of the cone's integer Gram block.

        Rows and columns are in the cone's ray order, and G_cone^-1 = adj / (D pair_scale);
        the zero cone's is (1, ()).  Computed on first use and cached, bordered onto
        (D, A) of the face ``cone[:-1]`` without the last ray r by
        ``linalg.border_adjugate``, with the pairings b = ray_pair(face, r) and
        c = ray_pair(r, r).
        """
        entry = self._gram_inv.get(cone)
        if entry is None:
            head, last = cone[:-1], cone[-1]
            b = [self.ray_pair(rid, last) for rid in head]
            entry = border_adjugate(*self.cone_gram_inverse(head), b, self.ray_pair(last, last))
            self._gram_inv[cone] = entry
        return entry

    def dim_scales(self, j: int) -> tuple[int, dict[Cone, int]]:
        """(Lambda_j, scales) on first need: Lambda_j is the lcm of D over the cones of
        dimension j, and scales maps each representative j-cone tau to Lambda_j // D_tau.

        D is constant on an orbit, so the lcm runs over the representatives; Lambda_0 = 1,
        the determinant of the empty cone.
        """
        entry = self._dim_scales[j]
        if entry is None:
            dets = {c: self.cone_gram_inverse(c)[0] for c in self.fan.orbits()[0] if len(c) == j}
            lam = lcm(*dets.values())
            entry = self._dim_scales[j] = lam, {c: lam // det for c, det in dets.items()}
        return entry

    def star_context(self, tau: Cone) -> "Context":
        if not tau:  # the zero cone's star is the fan; kept in _stars it would be a cycle
            return self
        ctx = self._stars.get(tau)
        if ctx is None:
            ctx = self._stars[tau] = Context(star(self.fan, tau, self.gram), self.gram)
        return ctx


def zvalues_from_json(raw: Mapping, fan: MarkedFan) -> ZValues:
    try:
        z = {rid: parse_rat(v) for rid, v in raw["z"].items()}
    except (KeyError, TypeError, AttributeError):
        raise InputError('a truncation file must hold {"z": {ray id: value}}') from None
    check_keys(fan, z)
    return z


# -- w-vectors and the cubical classification -----------------------------


@dataclass(frozen=True)
class WVector:
    coords: Vec
    coefficients: tuple[tuple[str, Fraction], ...]  # barycentric, in the ray basis


def w_vector(ctx: Context, cone: Cone, z: Mapping[str, Fraction]) -> WVector:
    """The unique vector of span(cone) pairing to z_rho against every marked ray."""
    check_keys(ctx.fan, z)
    ctx.fan.link(cone)  # refuses a non-cone
    scale, zz = scaled_to_int(z)
    d, c, _ = _face_pairings(ctx, cone, zz, ())
    coeffs = tuple(Fraction(x, scale * d) / ctx.pair_scale for x in c)
    coords = zeros(ctx.fan.ambient_dim)
    for x, rid in zip(coeffs, cone):
        coords = vec_add(coords, vec_scale(x, ctx.fan.rays[rid]))
    return WVector(coords, tuple(zip(cone, coeffs)))


CUBICAL = "cubical"
PSEUDOCUBICAL_BOUNDARY = "pseudocubical-boundary"
OUTSIDE = "outside"


@dataclass(frozen=True)
class CubReport:
    classification: str
    witness_cone: Cone | None = None
    witness_ray: str | None = None

    @property
    def is_cubical(self) -> bool:
        return self.classification == CUBICAL

    @property
    def is_pseudocubical(self) -> bool:
        return self.classification in (CUBICAL, PSEUDOCUBICAL_BOUNDARY)


def classify_z(ctx: Context, z: Mapping[str, Fraction]) -> CubReport:
    """Exact classification by the w-vectors' barycentric coefficients (``_Table``): the
    first negative, else the first zero, with the cones in lexicographic order.  z is
    tabled in the context's batch, where a volume call on it finds its table."""
    ctx.open_batch()
    return ctx.classify(z)


def require_pseudocubical(report: CubReport) -> None:
    if not report.is_pseudocubical:
        raise NotPseudocubical("z is outside the pseudocubical cone")


def find_cubical(ctx: Context) -> tuple[ZValues, Fraction] | None:
    """Search the cubical cone by an exact LP; None means Cub is empty.

    Maximizes the minimum barycentric coefficient over all (cone, ray) pairs
    subject to sum(z) = 1 and z >= 0, which loses nothing: the coefficient
    of the 1-cone {rho} is z_rho / <u_rho, u_rho>.  The coefficient of rho in
    sigma is adj_rho . z / (D pair_scale), so with g = gcd(D, adj_rho) the LP
    reads the integer row adj_rho / g over D / g, deduplicated on that key
    (equal exactly when the rational rows are) in first-seen order.
    ``lp.max_min_slack`` solves the dual in integers and returns the slack
    times pair_scale; the witness it recovers is re-classified exactly before
    it is returned with its positive slack.
    """
    ray_order = ctx.fan.ray_ids()
    index = {rid: i for i, rid in enumerate(ray_order)}
    keys: dict[tuple[int, tuple[int, ...]], None] = {}  # rows repeat across shared faces
    for cone in ctx.fan.cones:
        d, adj = ctx.cone_gram_inverse(cone)
        for adj_row in adj:
            g = gcd(d, *adj_row)
            row = [0] * len(ray_order)
            for rid, v in zip(cone, adj_row):
                row[index[rid]] = v // g
            keys.setdefault((d // g, tuple(row)))
    found = lp.max_min_slack([row for _, row in keys], [den for den, _ in keys])
    if found is None:
        return None
    zvec, slack = found
    z = dict(zip(ray_order, zvec))
    if not classify_z(ctx, z).is_cubical:
        raise MismatchError("the LP witness is not cubical")
    return z, slack / ctx.pair_scale


# -- restriction to star fans ---------------------------------------------


def restrict_z(ctx: Context, tau: Cone, z: Mapping[str, Fraction]) -> ZValues:
    """Truncation values z^tau on the rays of ``fan.link(tau)``, the star's rays:
    z^tau_eta = z_eta - <w_tau(z), u_eta>."""
    check_keys(ctx.fan, z)
    rids = ctx.fan.link(tau)
    scale, zz = scaled_to_int(z)
    cols = ([ctx.ray_pair(t, eta) for t in tau] for eta in rids)
    d, _, pairings = _face_pairings(ctx, tau, zz, cols)
    return {eta: z[eta] - Fraction(p, scale * d) for eta, p in zip(rids, pairings)}


def face_complex(
    ctx: Context, tau: Cone, z: Mapping[str, Fraction]
) -> tuple[Context, ZValues]:
    """The face of the normal complex at tau, as a normal complex of the star.

    Raises MismatchError when the restriction weakens the classification of z.
    ``restrict_z`` refuses a foreign z or a non-cone tau before any star is built.
    """
    z_tau = restrict_z(ctx, tau, z)
    star_ctx = ctx.star_context(tau)
    before = classify_z(ctx, z).classification
    after = classify_z(star_ctx, z_tau).classification
    order = {CUBICAL: 2, PSEUDOCUBICAL_BOUNDARY: 1, OUTSIDE: 0}
    if order[after] < order[before]:
        raise MismatchError(
            f"restriction to {list(tau)} weakened classification {before} -> {after}"
        )
    return star_ctx, z_tau


def _face_pairings(
    ctx: Context, tau: Cone, zz: Mapping[str, int], cols: Iterable[Sequence[int]]
) -> tuple[int, list[int], list[int]]:
    """(D_tau, c, p) for zz = Z z: c = adj_tau zz_tau has the signs of the barycentric
    coefficients of w_tau(z), and p_rho = c . col for each column col of cols, the
    pairings ray_pair(theta, rho) of tau's rays theta with a ray rho, so that
    <w_tau(z), u_rho> = p_rho / (Z D_tau).  Each entry is one C-level dot product."""
    d, adj = ctx.cone_gram_inverse(tau)
    vals = [zz[t] for t in tau]
    c = [sum(map(mul, row, vals)) for row in adj]
    return d, c, [sum(map(mul, c, col)) for col in cols]


# -- polytopes --------------------------------------------------------------


def _checked_faces(
    ctx: Context, sigma: Cone, z: Mapping[str, Fraction]
) -> tuple[int, dict[Cone, tuple[int, list[int]]]]:
    """(Z, faces): Z scales z to integers on sigma's rays, and faces maps each nonzero face
    tau of sigma to (D_tau, p) of ``_face_pairings`` on sigma's rays, read off sigma's
    integer pairing block, built once.  Ray ids that are not a sorted tuple of strings are
    refused first, then a z not indexed by the fan's rays; then faces come by size, then
    sorted, each refused as it comes: DimensionMismatch if it is not a cone,
    NotPseudocubical if w_tau(z) has a negative coefficient."""
    check_sorted(sigma)
    check_keys(ctx.fan, z)
    rids = [rid for rid in sigma if rid in z]  # any other id fails its face's check
    scale, zz = scaled_to_int({rid: z[rid] for rid in rids})
    block = {a: [ctx.ray_pair(a, b) for b in rids] for a in rids}
    faces = {}
    for k in range(1, len(sigma) + 1):
        for tau in combinations(sigma, k):
            ctx.fan.link(tau)  # refuses a non-cone
            d, c, p = _face_pairings(ctx, tau, zz, zip(*(block[t] for t in tau)))
            if min(c) < 0:
                raise NotPseudocubical(f"z is outside the pseudocubical cone at {list(tau)}")
            faces[tau] = (d, p)
    return scale, faces


def polytope_vertices(
    ctx: Context, sigma: Cone, z: Mapping[str, Fraction]
) -> dict[Cone, Vec]:
    """The vertices w_tau(z) of the truncation polytope P_sigma(z), one per face tau of sigma.

    Duplicates are kept on the boundary.  Raises NotPseudocubical when the
    w-vector of a face of sigma has a negative barycentric coefficient; no
    other cone is read.
    """
    faces = [ZERO_CONE, *_checked_faces(ctx, sigma, z)[1]]
    return {tau: w_vector(ctx, tau, z).coords for tau in faces}


# -- volumes: one dynamic program over the cones ------------------------------

T = TypeVar("T", int, MultiPoly)


def _climb(
    layer: Mapping[Cone, T], rows: Mapping[Cone, Sequence[T]], zero: T, rep: Mapping[Cone, Cone]
) -> dict[Cone, T]:
    """Forward: F(sigma) = sum_{rho in sigma} layer(sigma - rho) * rows[sigma][rho], over the
    k-cones sigma of ``rows``, with sigma - rho the face without rho, read at its
    representative ``rep.get(face, face)`` (``MarkedFan.orbits``).

    A row holds (z_k)^{sigma - rho}_rho in the cone's ray order, as the integers
    num_rho = (z_k)^{sigma - rho}_rho Z_k D_{sigma - rho} of ``_Table``, climbed from a layer
    already multiplied by Lambda_{k-1} // D (``Context._forward_layer``), or as linear forms
    (``vol_polynomial``); a cone with no row has no nonzero factor.  Zero values of F are
    not stored.
    """
    nxt: dict[Cone, T] = {}
    for cone, row in rows.items():
        total = zero
        for i, f in enumerate(row):
            if f:
                face = cone[:i] + cone[i + 1 :]
                prev = layer.get(rep.get(face, face))
                if prev is not None:
                    total = total + prev * f
        if total:
            nxt[cone] = total
    return nxt


class _Table(dict):
    """One truncation's classification, and its rows: ``self[k]`` maps each k-cone with a
    nonzero num to its row, whose i-th entry is the num of the cone's i-th ray rho, over
    the face ``cone[:i] + cone[i + 1:]`` = sigma - rho.

    One pass over the representatives in the fan's cone order (``MarkedFan.orbits``; every
    cone for the trivial group) builds both; the zero cone, first, has no ray and so no
    row, and a cone with z = 0 on all its rays has every num 0, so it reads no adjugate.
    The first negative (or zero) num of the pass is that of the whole fan, since the
    first cone with one is the least of its orbit.  With Z z the truncation scaled to
    integers, the integers num = adj_sigma (Z z)_sigma have the signs of c_sigma(z): the
    report is the first negative num, else the first zero, in that order, else cubical.
    A row holds the nums themselves, and the factor of (sigma, rho) is
    z^{sigma - rho}_rho = c_sigma(z)_rho / (G_sigma^-1)_{rho rho} = num_rho / (Z D_{sigma - rho}),
    as adj_{rho rho} = D_{sigma - rho} > 0; the layers, not the rows, clear the
    D_{sigma - rho} (``Context._forward_layer``).  So the pass divides nothing and reads no Lambda.
    It stops at a negative num, which refuses z for every volume.  Each num is one
    C-level dot product of an adjugate row with the cone's values.  It takes zz = Z z,
    checked and scaled by the batch's ``fan.Truncations``.
    """

    def __init__(self, ctx: Context, zz: Mapping[str, int]):
        super().__init__((k, {}) for k in range(1, ctx.fan.d + 1))
        boundary: tuple[Cone, str] | None = None
        for cone in ctx.fan.orbits()[0]:
            nums = vals = [zz[rid] for rid in cone]  # the nums, all 0, where every value is 0
            if any(vals):
                nums = [sum(map(mul, row, vals)) for row in ctx.cone_gram_inverse(cone)[1]]
                if min(nums) > 0:
                    self[len(cone)][cone] = nums
                    continue
            if min(nums, default=0) < 0:
                self.report = CubReport(OUTSIDE, cone, next(r for r, v in zip(cone, nums) if v < 0))
                return
            if boundary is None and 0 in nums:
                boundary = (cone, cone[nums.index(0)])
            if any(nums):
                self[len(cone)][cone] = nums
        self.report = (
            CubReport(PSEUDOCUBICAL_BOUNDARY, *boundary) if boundary else CubReport(CUBICAL)
        )


def mixed_volumes(
    ctx: Context, tuples: Sequence[Sequence[Mapping[str, Fraction]]]
) -> list[Fraction]:
    """MVol of each tuple by the dynamic program, in the context's batch: shared
    truncations share a table, with each other and with earlier calls."""
    ctx.open_batch()
    return [ctx.mvol(zs) for zs in tuples]


def vol_recursive(ctx: Context, z: Mapping[str, Fraction]) -> Fraction:
    """Weighted volume of the normal complex: MVol(z, ..., z), one table for all d slots."""
    return mixed_volumes(ctx, [[z] * ctx.fan.d])[0]


def mvol_recursive(ctx: Context, zs: Sequence[Mapping[str, Fraction]]) -> Fraction:
    """Mixed volume by the dynamic program; symmetric and multilinear."""
    return mixed_volumes(ctx, [zs])[0]


def mvol_polarization_oracle(
    ctx: Context, zs: Sequence[Mapping[str, Fraction]]
) -> Fraction:
    """Mixed volume by inclusion-exclusion polarization of plain volumes.

    The plain volumes come from the dynamic program, so this checks its
    multilinearity and symmetry, not its factors.
    """
    d = ctx.fan.d
    if len(zs) != d:
        raise ArityMismatch(f"need exactly {d} arguments, got {len(zs)}")
    ctx.open_batch()
    for z in zs:
        require_pseudocubical(ctx.classify(z))
    rays = ctx.fan.ray_ids()
    total = ZERO
    for r in range(1, d + 1):
        for subset in combinations(range(d), r):
            zsum = {rid: sum((zs[i][rid] for i in subset), ZERO) for rid in rays}
            total += Fraction((-1) ** (d - r)) * ctx.mvol([zsum] * d)
    return total / factorial(d)


def vol_polynomial(ctx: Context) -> MultiPoly:
    """The volume polynomial of the fan, in the variables of its rays.

    Homogeneous of degree d: the dynamic program over ``MultiPoly``, where the
    factor of (sigma, rho) is the linear form
    sum_{theta in sigma} (G_sigma^-1)_{rho theta} / (G_sigma^-1)_{rho rho} x_theta,
    whose ratios are read off the adjugate, adj_{rho theta} / adj_{rho rho}.
    Cached on the context.
    """
    if ctx._vol_poly is None:
        forms: dict[int, dict[Cone, tuple[MultiPoly, ...]]] = {}
        for cone in ctx.fan.cones:
            forms.setdefault(len(cone), {})[cone] = tuple(
                MultiPoly.linear({t: Fraction(v, row[i]) for t, v in zip(cone, row)})
                for i, row in enumerate(ctx.cone_gram_inverse(cone)[1])
            )
        zero = MultiPoly.zero()
        layer = {ZERO_CONE: MultiPoly.constant(ONE)}
        for k in range(1, ctx.fan.d + 1):
            layer = _climb(layer, forms[k], zero, {})
        weights = ctx.fan.weights
        ctx._vol_poly = sum((weights[s] * layer[s] for s in ctx.fan.max_cones if s in layer), zero)
    return ctx._vol_poly


def star_hessians(ctx: Context) -> dict[Cone, Mat]:
    """The Hessian of the volume quadratic of the star at each cone tau of
    dimension d - 2, rows and columns in ``fan.link(tau)`` order.

    Each pair a < b of rays of a maximal cone sigma adds 2 w_sigma to H_ab
    and H_ba, 2 w_sigma adj_ab / adj_bb to H_aa and 2 w_sigma adj_ab / adj_aa
    to H_bb at tau, sigma without a and b, adj the adjugate of sigma's Gram block:
    the dynamic program above tau has two layers (``af.check_reduce_conditions``).
    No polynomial and no star fan is built.
    """
    fan = ctx.fan
    sums: dict[Cone, list[list[Fraction]]] = {}
    for sigma in fan.max_cones:
        adj = ctx.cone_gram_inverse(sigma)[1]
        w2 = 2 * fan.weights[sigma]
        for i, j in combinations(range(len(sigma)), 2):
            tau = sigma[:i] + sigma[i + 1 : j] + sigma[j + 1 :]
            link = fan.link(tau)
            h = sums.get(tau)
            if h is None:
                h = sums[tau] = [[ZERO] * len(link) for _ in link]
            a, b = link.index(sigma[i]), link.index(sigma[j])
            h[a][b] += w2
            h[b][a] += w2
            h[a][a] += w2 * Fraction(adj[i][j], adj[j][j])
            h[b][b] += w2 * Fraction(adj[i][j], adj[i][i])
    return {tau: tuple(map(tuple, h)) for tau, h in sums.items()}


# -- the low-dimensional geometric oracle -----------------------------------


def geometric_volume_oracle(
    ctx: Context, sigma: Cone, z: Mapping[str, Fraction]
) -> Fraction:
    """Normalized volume of one truncation polytope P_sigma(z), computed geometrically.

    w_0 = 0 is a vertex, so coning from 0, and then from w_rho within each
    facet <w, u_rho> = z_rho, tiles P_sigma(z) by the chain simplices
    conv(0, w_{rho_1}, w_{rho_1 rho_2}, ..., w_sigma), one per ordering of the
    rays of sigma.  In the coordinates <w, u_rho>, rho in sigma (the *-dual
    basis of the marked generators, where the fundamental simplex is the
    standard simplex), a simplex's normalized volume is the |det| of its
    chain vertices.  In integers, with no w-vector: vertex w_tau is
    p_tau / (Z D_tau) (``_checked_faces``; p is computed even where it must give
    z_rho, so the w-vectors are checked too), and a chain's |det| is
    |p_rho_1 . v| / (Z^k D_rho_1 ... D_sigma), v the ``cofactors`` of the rows
    above p_rho_1 (at k <= 3 a few products, cheaper to redo than to share).  Every chain
    has the factor Z^k D_sigma, so the chains are summed as integers over the lcm
    L of their other factors D_rho_1 ... D_{sigma - rho_k}, and the volume builds
    one Fraction: sum |det| (L / D_rho_1 ... D_{sigma - rho_k}) / (Z^k D_sigma L).
    Limited to cones of dimension <= 3; ray ids that are not a sorted tuple of
    strings are refused before that limit is checked.
    """
    check_sorted(sigma)
    if len(sigma) > 3:
        raise DimTooLarge("geometric oracle supports dimension <= 3 only")
    scale, faces = _checked_faces(ctx, sigma, z)
    if not sigma:
        return ONE  # the empty chain
    chains = []  # (|det|, the chain's determinants below sigma)
    for order in permutations(sigma):
        chain = [tuple(sorted(order[:i])) for i in range(1, len(order) + 1)]
        det = sum(map(mul, faces[chain[0]][1], cofactors([faces[tau][1] for tau in chain[1:]])))
        chains.append((abs(det), prod(faces[tau][0] for tau in chain[:-1])))
    den = lcm(*(q for _, q in chains))
    num = sum(a * (den // q) for a, q in chains)
    return Fraction(num, scale ** len(sigma) * faces[sigma][0] * den)
