"""Chow ring degree computations for tropical fans.

Classes of grade k are rational combinations of the squarefree cone
monomials X_sigma with dim(sigma) = k, keyed by the fan's cones, the sorted
tuples of their ray ids.  Multiplying X_sigma by a divisor
D(z) = sum z_rho x_rho first subtracts (sum_eta <v, u_eta> x_eta) X_sigma = 0,
for one covector v per cone with <v, u_rho> = z_rho on the rays of sigma.
The terms of sigma's own rays then cancel, and x_eta X_sigma = 0
unless join(sigma, eta) is a cone, so D(z) X_sigma is the sum over eta in
link(sigma) of (z_eta - <v, u_eta>) X_{join(sigma, eta)}: products stay in the
X_sigma basis at one linear solve per (cone, divisor).  This path never
touches volumes, which makes it an independent check of the volume algorithms.

On a fan with symmetries (``MarkedFan.orbits``) the divisors must be constant
on the orbits of the rays (refused otherwise).  The symmetries are linear, so
every class is constant on orbits of cones, and a class is held by its orbit
sums C~(O) = |O| C(rep O) on the representatives: each cone of O pushes the
same terms into the same orbits, so the representative's products, times
C~(O), folded into the representative of join(sigma, eta), give the orbit sums
of the next grade.  So there is one covector per (representative, divisor),
and the top grade pairs the representatives with their certificates.  The
mixed volumes (``normalcx.Context``'s batch) hold forward values, constant on
orbits, instead, and pair their top layer with each orbit's sum of weights.
The trivial group is the same code.

The pairings are taken in integers.  A divisor is scaled once to zz = Z z,
Z the lcm of its denominators, by the batch's ``fan.Truncations``, which also
tells the batch's divisors apart; each covector is an integer vector v over
one denominator p on the fan's integer rays u~ = M u, so the
coefficient of X_{join(sigma, eta)} is (p zz_eta - <v, u~_eta>) / (Z p).  A
class is integer numerators over one denominator: a step takes the lcm L
of its covectors' p and multiplies the denominator by Z L.

The last divisor needs no covector.  The degree of D(z) X_tau, for a cone
tau of dimension d - 1, is sum_eta w_{tau eta} (z_eta - <v, u_eta>), with
w_{tau eta} the weight of join(tau, eta), and the balancing check, run
once when the fan is built and read through ``fan.is_tropical``, leaves
integers (a, p) with
p s_tau + sum_i a_i u~_i = 0, s_tau = sum_eta w~_{tau eta} u~_eta and
w~ = W w the weights over the lcm W of their denominators.  Since
<v, u~_i> = p_v zz_i on tau's rays, the v-terms sum to -a . zz_tau / p, and
the degree is (p sum_eta w~_{tau eta} zz_eta + a . zz_tau) / (Z W p)
whatever covector was chosen: the top grade is a pairing of the grade
d - 1 class with the certificates, and each degree builds one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Mapping, Sequence

from .errors import GradeOverflow, NotTropical, WrongGrade
from .fan import Cone, MarkedFan, Truncations, ZERO_CONE, is_tropical, join
from .linalg import solve

# sum_sigma nums[sigma] X_sigma / den, zero numerators pruned
Numerators = dict[Cone, int]
Covector = tuple[tuple[int, ...], int]


def covector(fan: MarkedFan, sigma: Cone, zz: Mapping[str, int]) -> Covector:
    """(v, p), integers with p != 0 and <v, u~_rho> = p zz_rho for every ray rho of sigma.

    Here u~ are the fan's ``int_rays`` and zz = Z z is a divisor scaled to
    integers, so v / p is a covector of zz on the integer rays.  The system
    is underdetermined when dim(sigma) < ambient_dim; ``solve`` takes the
    solution whose free coordinates are zero, and degrees do not depend on
    that choice.
    """
    return solve(tuple(fan.int_rays[rid] for rid in sigma), tuple(zz[rid] for rid in sigma))


def _multiply(
    fan: MarkedFan, nums: Numerators, zz: Mapping[str, int], solved: dict[Cone, Covector]
) -> tuple[Numerators, int]:
    """(N, L): nums * D(zz) is N / (Z L) times the class's denominator.

    ``solved`` holds zz's covectors by cone, and gains one for each cone of
    nums on which zz is not zero and which it lacks.  L is the lcm of the p
    of those cones' covectors; a cone where zz is zero takes v = 0, p = 1.
    nums and N are orbit sums on representatives (module docstring).
    """
    rep = fan.orbits()[1]
    vs = {}
    for sigma in nums:
        if any(zz[rho] for rho in sigma):
            if sigma not in solved:
                solved[sigma] = covector(fan, sigma, zz)
            vs[sigma] = solved[sigma]
    big = lcm(*(p for _, p in vs.values()))
    out: Numerators = {}
    for sigma, c in nums.items():
        v, p = vs.get(sigma, ((), 1))
        c *= big // p
        for eta in fan.link(sigma):
            num = p * zz[eta] - sum(map(mul, v, fan.int_rays[eta]))
            if num:
                bigger = join(sigma, eta)
                bigger = rep.get(bigger, bigger)
                out[bigger] = out.get(bigger, 0) + c * num
    return {cone: c for cone, c in out.items() if c}, big


def _pairings(
    fan: MarkedFan,
    classes: Mapping[tuple[int, ...], Numerators],
    pairs: Sequence[tuple[tuple[int, ...], int]],
    zzs: Sequence[Mapping[str, int]],
) -> tuple[dict[tuple[tuple[int, ...], int], int], int]:
    """(T, W P): deg(classes[c] * D(zzs[t])) is T[c, t] / (Z_t W P) over c's denominator.

    Each cone tau of the classes, a representative, pairs once with each divisor, as
    P sum_eta w~_{tau eta} zz_eta + (P / p) a . zz_tau, P the lcm of the p
    and w~ the fan's ``int_weights``, over W = ``weight_scale``.
    """
    certificates = is_tropical(fan).certificates
    lasts = dict.fromkeys(t for _, t in pairs)
    cones = dict.fromkeys(tau for nums in classes.values() for tau in nums)
    big = lcm(*(certificates[tau][1] for tau in cones))
    totals = dict.fromkeys(pairs, 0)
    for tau in cones:
        a, p = certificates[tau]
        link = [(eta, fan.int_weights[join(tau, eta)]) for eta in fan.link(tau)]
        rays = list(zip(tau, a))
        values = {
            t: big * sum(w * zzs[t][eta] for eta, w in link)
            + big // p * sum(x * zzs[t][rho] for rho, x in rays)
            for t in lasts
        }
        for c, t in pairs:
            num = classes[c].get(tau)
            if num:
                totals[c, t] += num * values[t]
    return totals, fan.weight_scale * big


def deg_products(
    fan: MarkedFan, tuples: Sequence[Sequence[Mapping[str, Fraction]]]
) -> list[Fraction]:
    """deg(D(z_1) ... D(z_d)) for each tuple; the z_i need not be cubical.

    The count of divisors of every tuple, then the balancing condition, then
    the keys of each truncation and, once per distinct value, its invariance
    under the fan's symmetries are checked before any product.  Truncations are
    told apart, and scaled to integers, by the fan (``fan.Truncations``), and
    the class of each prefix of length k < d is built once, from the class
    of its own prefix, all of length k before any of length k + 1; a step
    solves for one covector per (representative, truncation) of its layer.  The
    last divisor is paired with the representatives' certificates (module docstring).
    """
    d = fan.d
    for zs in tuples:
        if len(zs) < d:
            raise WrongGrade(f"degree needs grade {d}, got {len(zs)}")
        if len(zs) > d:
            raise GradeOverflow(f"cannot raise grade {d} on a {d}-dimensional fan")
    if not is_tropical(fan).is_tropical:
        raise NotTropical("degree is only well defined on tropical fans")
    truncations = Truncations(fan)
    keys = [tuple(map(truncations.index, zs)) for zs in tuples]
    return deg_products_at(fan, truncations, keys)


def deg_products_at(fan: MarkedFan, batch: Truncations, keys: Sequence[tuple]) -> list[Fraction]:
    """``deg_products`` of the tuples ``keys`` of truncation numbers in ``batch``, a
    ``fan.Truncations`` of the fan, which must be tropical, each tuple of length d.

    ``deg_products`` takes this path once it has checked and numbered its tuples;
    ``af.hrw_verify`` takes it with the one index its mixed volumes also read
    (``normalcx.Context.truncations``).
    """
    if not fan.d:
        return [fan.weights[ZERO_CONE]] * len(keys)
    scaled = batch.scaled
    layer: dict[tuple[int, ...], tuple[Numerators, int]] = {(): ({ZERO_CONE: 1}, 1)}
    for k in range(1, fan.d):
        solved: list[dict[Cone, Covector]] = [{} for _ in scaled]  # the covectors of this layer
        below, layer = layer, {}
        for prefix in dict.fromkeys(key[:k] for key in keys):
            t = prefix[-1]
            nums, den = below[prefix[:-1]]
            nums, big = _multiply(fan, nums, scaled[t][1], solved[t])
            layer[prefix] = nums, den * scaled[t][0] * big
    pairs = [(key[:-1], key[-1]) for key in keys]
    classes = {c: nums for c, (nums, _) in layer.items()}
    totals, big = _pairings(fan, classes, list(dict.fromkeys(pairs)), [zz for _, zz in scaled])
    return [Fraction(totals[c, t], layer[c][1] * scaled[t][0] * big) for c, t in pairs]


def deg_product(fan: MarkedFan, zs: Sequence[Mapping[str, Fraction]]) -> Fraction:
    """deg(D(z_1) ... D(z_d)); the z_i need not be cubical.

    The count of divisors, then the balancing condition, then the keys of each
    truncation and its invariance are checked before any product.
    """
    return deg_products(fan, [zs])[0]
