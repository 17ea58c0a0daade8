"""Alexandrov-Fenchel and log-concavity verification.

This module checks the sufficient conditions for the AF inequality on a
normal complex (connectivity of small stars and the signature of the
2-dimensional star volume quadratics), evaluates sampled AF margins
exactly, and runs the full characteristic-polynomial log-concavity
pipeline for matroids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import chow
from .errors import ArityMismatch, MismatchError, NotCubical
from .fan import Cone, MarkedFan, star_connected_minus_origin
from .linalg import Signature, signature
from .matroid import (
    Matroid,
    alpha_beta_z,
    bergman_fan,
    bergman_symmetries,
    char_poly,
    e0_inner_product,
    require_bergman_input,
)
from .normalcx import (
    Context,
    ZValues,
    classify_z,
    find_cubical,
    star_hessians,
)

PASS = "pass"
FAIL = "fail"
UNDEFINED = "undefined"


# -- Theorem-reduce style sufficient conditions ------------------------------


@dataclass(frozen=True)
class ReduceReport:
    condition_i_pass: bool
    condition_i_failing: tuple[Cone, ...]
    condition_ii_pass: bool
    condition_ii_signatures: tuple[tuple[Cone, Signature], ...]
    cub_nonempty: bool
    cubical_witness: ZValues | None

    @property
    def verdict(self) -> str:
        if not self.cub_nonempty:
            return UNDEFINED
        return PASS if self.condition_i_pass and self.condition_ii_pass else FAIL


def check_reduce_conditions(ctx: Context) -> ReduceReport:
    """Sufficient conditions for the AF inequality on the normal complex.

    Condition (i): for every cone of dimension at most d-3 (the zero cone
    included), the star minus the origin is connected; it is read off the
    link of each cone in the face poset.  Condition (ii) of the paper's main
    theorem: the volume quadratic of the star at every cone tau of dimension
    d - 2 has exactly one positive eigenvalue.  Above tau the volume dynamic
    program has two layers, F(tau | a) = x_a and, for each maximal cone
    sigma = tau | {a, b}, F(sigma) = 2 x_a x_b + adj_ba / adj_bb x_a^2 +
    adj_ab / adj_aa x_b^2 with adj the adjugate of sigma's Gram block, so the
    quadratic's Hessian is a sum over the maximal cones above tau
    (``normalcx.star_hessians``) and its ``signature`` gives the count.  The
    cubical cone must also be nonempty for AF to be about anything.  No star
    fan and no polynomial is built.
    """
    fan = ctx.fan
    failing: list[Cone] = []
    for k in range(0, fan.d - 2):
        for tau in fan.cones_of_dim(k):
            if not star_connected_minus_origin(fan, tau):
                failing.append(tau)
    hessians = star_hessians(ctx)
    signatures = [(tau, signature(hessians[tau])) for tau in fan.cones_of_dim(fan.d - 2)]
    ii_pass = all(sig.n_plus == 1 for _, sig in signatures)
    witness = find_cubical(ctx)
    return ReduceReport(
        condition_i_pass=not failing,
        condition_i_failing=tuple(failing),
        condition_ii_pass=ii_pass,
        condition_ii_signatures=tuple(signatures),
        cub_nonempty=witness is not None,
        cubical_witness=witness[0] if witness else None,
    )


# -- the AF inequality itself -------------------------------------------------


def _require_af_dimension(fan: MarkedFan) -> None:
    """Refuse a fan on which the AF inequality says nothing, before any work."""
    if fan.d < 2:
        raise ArityMismatch("the AF inequality needs a fan of dimension >= 2")


def af_check(ctx: Context, zs: Sequence[Mapping[str, Fraction]]) -> Fraction:
    """Exact AF margin MVol(z1,z2,rest)^2 - MVol(z1,z1,rest)*MVol(z2,z2,rest).

    All arguments must be cubical; a nonnegative margin is the inequality.  The
    arguments are numbered in the context's batch, opened once, so the numbers hold
    for the three mixed volumes.
    """
    _require_af_dimension(ctx.fan)
    if len(zs) != ctx.fan.d:
        raise ArityMismatch(f"need {ctx.fan.d} cubical arguments, got {len(zs)}")
    ctx.open_batch()
    if not all(ctx.classify(z).is_cubical for z in zs):
        raise NotCubical("every AF argument must be strictly cubical")
    t1, t2, *rest = map(ctx.index, zs)
    m12, m11, m22 = (ctx.mvol_at((a, b, *rest)) for a, b in [(t1, t2), (t1, t1), (t2, t2)])
    return m12 * m12 - m11 * m22


# -- seeded sampling of the cubical cone ---------------------------------------


def sample_cubical(ctx: Context, count: int, seed: int) -> list[ZValues]:
    """Reproducible interior samples: perturbations of the LP witness.

    Each perturbation is re-classified exactly before acceptance, and the
    perturbation size is halved until the sample is strictly cubical (the
    witness is interior, so this terminates).
    """
    found = find_cubical(ctx)
    if found is None:
        return []
    witness, _ = found
    rng = random.Random(seed)
    rays = ctx.fan.ray_ids()
    samples: list[ZValues] = []
    for _ in range(count):
        direction = {rid: Fraction(rng.randint(-100, 100), 100) for rid in rays}
        eps = Fraction(1, 4)
        while True:
            z = {rid: witness[rid] + eps * direction[rid] for rid in rays}
            if classify_z(ctx, z).is_cubical:
                samples.append(z)
                break
            eps /= 2
    return samples


# -- the Heron-Rota-Welsh pipeline ------------------------------------------------


def _log_concave(seq: Sequence[int]) -> bool:
    return all(seq[k] * seq[k] >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1))


def _unimodal(seq: Sequence[int]) -> bool:
    rises = [i for i in range(1, len(seq)) if seq[i] < seq[i - 1]]
    return all(seq[i] <= seq[i - 1] for i in range(rises[0], len(seq))) if rises else True


@dataclass(frozen=True)
class HRWReport:
    mubar_char: tuple[int, ...]
    mu: tuple[int, ...]
    log_concave: bool
    unimodal: bool
    mu_log_concave: bool
    mu_unimodal: bool
    fan: MarkedFan = field(repr=False, compare=False)  # the Bergman fan the check ran on

    @property
    def verdict(self) -> str:
        ok = self.log_concave and self.unimodal and self.mu_log_concave and self.mu_unimodal
        return PASS if ok else FAIL


def hrw_verify(m: Matroid, e0: str) -> HRWReport:
    """Coefficients of the reduced characteristic polynomial, three ways.

    The subset-expansion coefficients must equal the Chow degrees of
    alpha^(d-a) beta^a and the mixed volumes of the corresponding
    (z_alpha, z_beta) tuples, or MismatchError is raised, and the resulting
    sequence must be log-concave and unimodal (as must the unreduced one).
    The Bergman fan carries the matroid's transposition classes
    (``bergman_symmetries``), so its balancing walk, the Chow degrees and the
    mixed volumes all run over orbit representatives; ``char_poly`` never reads
    the fan, so it checks them independently.  The context's index of truncations
    (``Context.truncations``) numbers alpha and beta once, and both engines read the
    d + 1 tuples as those numbers.  A rank below 2 or an e0 outside
    the ground set is refused before ``char_poly``'s pass over the 2^|E| subsets.
    """
    require_bergman_input(m, e0)
    cp = char_poly(m)
    mubar_char = cp.mubar
    fan = bergman_fan(m, e0, bergman_symmetries(m, e0))
    ctx = Context(fan, e0_inner_product(m, e0))
    alpha, beta = map(ctx.index, alpha_beta_z(m, e0))
    keys = [(alpha,) * (fan.d - a) + (beta,) * a for a in range(fan.d + 1)]
    mvols = list(map(ctx.mvol_at, keys))
    degs = chow.deg_products_at(fan, ctx.truncations, keys)
    if any(v.denominator != 1 for v in degs + mvols):
        raise MismatchError("matroid degrees must be integers")
    mubar_deg, mubar_mvol = (tuple(map(int, vs)) for vs in (degs, mvols))
    if not mubar_char == mubar_deg == mubar_mvol:
        raise MismatchError(f"mubar paths disagree: {mubar_char} vs {mubar_deg} vs {mubar_mvol}")
    return HRWReport(
        mubar_char=mubar_char,
        mu=cp.mu,
        log_concave=_log_concave(mubar_char),
        unimodal=_unimodal(mubar_char),
        mu_log_concave=_log_concave(cp.mu),
        mu_unimodal=_unimodal(cp.mu),
        fan=fan,
    )
