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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import GradeOverflow, NotTropical, WrongGrade
from .fan import Cone, MarkedFan, ZERO_CONE, is_tropical
from .linalg import Vec, ZERO, ONE, dot, qvec, solve


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


def covector(fan: MarkedFan, sigma: Cone, z: Mapping[str, Fraction]) -> Vec:
    """A linear functional v with <v, u_rho> = z_rho for every ray rho of sigma.

    The system is underdetermined when dim(sigma) < ambient_dim; ``solve``
    takes the solution whose free coordinates are zero, and degrees do not
    depend on that choice.
    """
    rids = sorted(sigma)
    return solve(tuple(fan.rays[rid] for rid in rids), qvec([z[rid] for rid in rids]))


def multiply_divisor(fan: MarkedFan, cls: ChowClass, z: Mapping[str, Fraction]) -> ChowClass:
    """The product cls * D(z) written back in the X_sigma basis."""
    if cls.grade >= fan.d:
        raise GradeOverflow(f"cannot raise grade {cls.grade} on a {fan.d}-dimensional fan")
    out: dict[Cone, Fraction] = {}
    for sigma, c in cls.weights:
        v = covector(fan, sigma, z) if any(z[rho] for rho in sigma) else None
        for eta in fan.link(sigma):
            coeff = Fraction(z[eta])
            if v is not None:
                coeff -= dot(v, fan.rays[eta])
            if coeff:
                bigger = sigma | {eta}
                out[bigger] = out.get(bigger, ZERO) + c * coeff
    return ChowClass.build(cls.grade + 1, out)


def degree(fan: MarkedFan, cls: ChowClass) -> Fraction:
    """The degree map: weighted sum of top-cone coefficients."""
    if cls.grade != fan.d:
        raise WrongGrade(f"degree needs grade {fan.d}, got {cls.grade}")
    report = is_tropical(fan)
    if not report.is_tropical:
        raise NotTropical("degree is only well defined on tropical fans")
    return sum((c * fan.weights[sigma] for sigma, c in cls.weights), ZERO)


def deg_product(fan: MarkedFan, zs: Sequence[Mapping[str, Fraction]]) -> Fraction:
    """deg(D(z_1) ... D(z_d)); the z_i need not be cubical."""
    cls = ChowClass.unit()
    for z in zs:
        cls = multiply_divisor(fan, cls, z)
    return degree(fan, cls)
