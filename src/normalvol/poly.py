"""Sparse multivariate polynomials with rational coefficients.

Variables are ray ids (strings).  A monomial is a tuple of (variable,
exponent) pairs sorted by variable, coefficients are Fractions, and zero
coefficients are never stored, so structural equality of two polynomials is
mathematical equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import DimensionMismatch
from .linalg import ZERO

Mono = tuple[tuple[str, int], ...]


def _mono_mul(a: Mono, b: Mono) -> Mono:
    exps: dict[str, int] = dict(a)
    for var, e in b:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


class MultiPoly:
    """Immutable sparse polynomial over ray-id variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, Fraction] | None = None):
        """Keeps the nonzero terms as given: monomials sorted, coefficients Fractions."""
        self.terms: dict[Mono, Fraction] = {m: c for m, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "MultiPoly":
        return cls({(): Fraction(c)})

    @classmethod
    def linear(cls, coeffs: Mapping[str, Fraction]) -> "MultiPoly":
        return cls({((v, 1),): Fraction(c) for v, c in coeffs.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        parts = []
        for mono, coeff in sorted(self.terms.items()):
            body = "*".join(f"{v}^{e}" if e > 1 else v for v, e in mono) or "1"
            parts.append(f"{coeff}*{body}")
        return "MultiPoly(" + " + ".join(parts) + ")"

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, ZERO) + coeff
        return MultiPoly(terms)

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = Fraction(other)
            return MultiPoly({m: c * v for m, v in self.terms.items()})
        terms: dict[Mono, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                terms[m] = terms.get(m, ZERO) + ca * cb
        return MultiPoly(terms)

    __rmul__ = __mul__

    def eval_at(self, values: Mapping[str, Fraction]) -> Fraction:
        total = ZERO
        for mono, coeff in self.terms.items():
            term = coeff
            for var, e in mono:
                if var not in values:
                    raise DimensionMismatch(f"no value for variable {var!r}")
                term *= Fraction(values[var]) ** e
            total += term
        return total
