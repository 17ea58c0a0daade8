"""Chow ring degree computations for tropical fans.

Classes of grade k are rational combinations of the squarefree cone
monomials X_sigma with dim(sigma) = k.  Multiplying by a divisor
D(z) = sum z_rho x_rho uses the linear relations of the ray variables to
rewrite x_rho * X_sigma when rho already lies in sigma, so products stay in
the X_sigma basis at every step.  This path never touches volumes, which
makes it an independent check of the volume algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import GradeOverflow, NotTropical, WrongGrade
from .fan import Cone, MarkedFan, ZERO_CONE, is_tropical
from .linalg import Vec, ZERO, ONE, dot, qvec, solve
from .serialize import format_rat

LEX = "lex"  # covector supported on the earliest independent coordinates
REVLEX = "revlex"  # covector preferring the last coordinates
PIVOT_STRATEGIES = (LEX, REVLEX)


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

    def as_dict(self) -> dict[Cone, Fraction]:
        return dict(self.weights)


def covector(fan: MarkedFan, sigma: Cone, rho: str, strategy: str = LEX) -> Vec:
    """A linear functional with <v, u_rho> = 1 and <v, u_eta> = 0 for eta in sigma - rho.

    The system is underdetermined when dim(sigma) < ambient_dim; the pivot
    strategy fixes which solution is taken (free coordinates are zero), and
    degrees must not depend on it.
    """
    cache = fan.covector_cache
    key = (sigma, rho, strategy)
    if key in cache:
        return cache[key]
    rids = sorted(sigma)
    a = tuple(fan.rays[rid] for rid in rids)
    b = qvec([ONE if rid == rho else ZERO for rid in rids])
    if strategy == LEX:
        order = list(range(fan.ambient_dim))
    elif strategy == REVLEX:
        order = list(range(fan.ambient_dim - 1, -1, -1))
    else:
        raise ValueError(f"unknown pivot strategy {strategy!r}")
    v = solve(a, b, col_order=order).x
    cache[key] = v
    return v


def multiply_divisor(
    fan: MarkedFan,
    cls: ChowClass,
    z: Mapping[str, Fraction],
    strategy: str = LEX,
) -> ChowClass:
    """The product cls * D(z) written back in the X_sigma basis."""
    if cls.grade >= fan.d:
        raise GradeOverflow(f"cannot raise grade {cls.grade} on a {fan.d}-dimensional fan")
    out: dict[Cone, Fraction] = {}
    for sigma, c in cls.weights:
        link = fan.link(sigma)
        for rho in link:
            factor = c * Fraction(z[rho])
            if factor:
                bigger = sigma | {rho}
                out[bigger] = out.get(bigger, ZERO) + factor
        for rho in sorted(sigma):
            factor = c * Fraction(z[rho])
            if factor == 0:
                continue
            v = covector(fan, sigma, rho, strategy)
            for eta in link:
                coeff = dot(v, fan.rays[eta])
                if coeff:
                    bigger = sigma | {eta}
                    out[bigger] = out.get(bigger, ZERO) - factor * coeff
    return ChowClass.build(cls.grade + 1, out)


def degree(fan: MarkedFan, cls: ChowClass) -> Fraction:
    """The degree map: weighted sum of top-cone coefficients."""
    if cls.grade != fan.d:
        raise WrongGrade(f"degree needs grade {fan.d}, got {cls.grade}")
    report = is_tropical(fan)
    if not report.is_tropical:
        raise NotTropical("degree is only well defined on tropical fans")
    return sum((c * fan.weights[sigma] for sigma, c in cls.weights), ZERO)


def deg_product(
    fan: MarkedFan,
    zs: Sequence[Mapping[str, Fraction]],
    strategy: str = LEX,
) -> Fraction:
    """deg(D(z_1) ... D(z_d)); the z_i need not be cubical."""
    cls = ChowClass.unit()
    for z in zs:
        cls = multiply_divisor(fan, cls, z, strategy)
    return degree(fan, cls)


def class_to_json(cls: ChowClass) -> dict:
    return {
        "grade": cls.grade,
        "weights": [
            {"cone": sorted(cone), "coefficient": format_rat(c)} for cone, c in cls.weights
        ],
    }
