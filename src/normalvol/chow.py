"""Chow ring degree computations for tropical fans.

Classes of grade k are rational combinations of the squarefree cone
monomials X_sigma with dim(sigma) = k.  Multiplying X_sigma by a divisor
D(z) = sum z_rho x_rho first subtracts (sum_eta <v, u_eta> x_eta) X_sigma = 0,
for one covector v per cone with <v, u_rho> = z_rho on the rays of sigma.
The terms of sigma's own rays then cancel, and x_eta X_sigma = 0
unless sigma | {eta} is a cone, so D(z) X_sigma is the sum over eta in
link(sigma) of (z_eta - <v, u_eta>) X_{sigma | eta}: products stay in the
X_sigma basis at one linear solve per (cone, divisor).  This path never
touches volumes, which makes it an independent check of the volume algorithms.

The pairings are taken in integers.  A divisor is scaled once to zz = Z z,
Z the lcm of its denominators, and each covector is an integer vector v
over one denominator p on the fan's integer rays u~ = M u, so the
coefficient of X_{sigma | eta} is (p zz_eta - <v, u~_eta>) / (Z p): an
integer sum, and one Fraction for each nonzero coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

from .errors import GradeOverflow, NotTropical, WrongGrade
from .fan import Cone, MarkedFan, ZERO_CONE, is_tropical
from .linalg import ZERO, ONE, scaled_to_int, solve


@dataclass(frozen=True)
class ChowClass:
    """A grade-k element written in the X_sigma basis, zero weights pruned."""

    grade: int
    weights: tuple[tuple[Cone, Fraction], ...]

    @classmethod
    def build(cls, grade: int, weights: Mapping[Cone, Fraction]) -> "ChowClass":
        items = [(c, v) for c, v in weights.items() if v != 0]
        for cone, _ in items:
            if len(cone) != grade:
                raise WrongGrade(f"cone {sorted(cone)} has dimension {len(cone)}, not {grade}")
        items.sort(key=lambda cv: sorted(cv[0]))
        return cls(grade, tuple(items))

    @classmethod
    def unit(cls) -> "ChowClass":
        return cls.build(0, {ZERO_CONE: ONE})


def covector(fan: MarkedFan, sigma: Cone, zz: Mapping[str, int]) -> tuple[tuple[int, ...], int]:
    """(v, p), integers with p != 0 and <v, u~_rho> = p zz_rho for every ray rho of sigma.

    Here u~ are the fan's ``int_rays`` and zz = Z z is a divisor scaled to
    integers, so v / p is a covector of zz on the integer rays.  The system
    is underdetermined when dim(sigma) < ambient_dim; ``solve`` takes the
    solution whose free coordinates are zero, and degrees do not depend on
    that choice.
    """
    rids = sorted(sigma)
    return solve(tuple(fan.int_rays[rid] for rid in rids), tuple(zz[rid] for rid in rids))


def multiply_divisor(fan: MarkedFan, cls: ChowClass, z: Mapping[str, Fraction]) -> ChowClass:
    """The product cls * D(z) written back in the X_sigma basis."""
    if cls.grade >= fan.d:
        raise GradeOverflow(f"cannot raise grade {cls.grade} on a {fan.d}-dimensional fan")
    scale, zz = scaled_to_int(z)
    out: dict[Cone, Fraction] = {}
    for sigma, c in cls.weights:
        v, p = covector(fan, sigma, zz) if any(zz[rho] for rho in sigma) else (None, 1)
        for eta in fan.link(sigma):
            num = p * zz[eta]
            if v is not None:
                num -= sum(map(mul, v, fan.int_rays[eta]))
            if num:
                bigger = sigma | {eta}
                out[bigger] = out.get(bigger, ZERO) + c * Fraction(num, scale * p)
    return ChowClass.build(cls.grade + 1, out)


def degree(fan: MarkedFan, cls: ChowClass) -> Fraction:
    """The degree map: weighted sum of top-cone coefficients."""
    if cls.grade != fan.d:
        raise WrongGrade(f"degree needs grade {fan.d}, got {cls.grade}")
    _require_tropical(fan)
    return sum((c * fan.weights[sigma] for sigma, c in cls.weights), ZERO)


def _require_tropical(fan: MarkedFan) -> None:
    if not is_tropical(fan).is_tropical:
        raise NotTropical("degree is only well defined on tropical fans")


def deg_product(fan: MarkedFan, zs: Sequence[Mapping[str, Fraction]]) -> Fraction:
    """deg(D(z_1) ... D(z_d)); the z_i need not be cubical.

    The count of divisors, then the balancing condition, are checked before any product.
    """
    if len(zs) < fan.d:
        raise WrongGrade(f"degree needs grade {fan.d}, got {len(zs)}")
    if len(zs) > fan.d:
        raise GradeOverflow(f"cannot raise grade {fan.d} on a {fan.d}-dimensional fan")
    _require_tropical(fan)
    cls = ChowClass.unit()
    for z in zs:
        cls = multiply_divisor(fan, cls, z)
    return degree(fan, cls)
