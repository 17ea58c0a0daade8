"""Seeded inputs and reference answers, computed without the library.

Matroids are given by labelled ground sets; their flats, Bergman fans and
reduced characteristic polynomials are enumerated here from first
principles, so that every expected answer the benchmark checks comes from
a closed form or from this file, never from an earlier run of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

K4_EDGES = [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")]
K5_EDGES = [(str(a), str(b)) for a, b in combinations(range(1, 6), 2)]


@dataclass(frozen=True)
class MatroidInput:
    """A uniform or graphic matroid on a labelled ground set; e0 is its first label."""

    name: str
    ground: tuple[str, ...]
    rank: int
    edges: tuple[tuple[str, str], ...] | None  # None for a uniform matroid

    @property
    def e0(self) -> str:
        return self.ground[0]

    def to_json(self) -> dict:
        if self.edges is None:
            return {"kind": "uniform", "ground_set": list(self.ground), "rank": self.rank}
        return {
            "kind": "graphic",
            "ground_set": list(self.ground),
            "edges": [list(e) for e in self.edges],
        }

    def rank_of(self, subset: frozenset[str]) -> int:
        if self.edges is None:
            return min(len(subset), self.rank)
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            while parent.setdefault(x, x) != x:
                x = parent[x]
            return x

        r = 0
        for label, (u, v) in zip(self.ground, self.edges):
            if label in subset and find(u) != find(v):
                parent[find(u)] = find(v)
                r += 1
        return r

    def proper_flats(self) -> list[frozenset[str]]:
        """Closed sets of rank 1 .. rank-1: adding any element raises the rank."""
        out = []
        for k in range(1, len(self.ground)):
            for sub in combinations(self.ground, k):
                s = frozenset(sub)
                r = self.rank_of(s)
                if r < self.rank and all(
                    self.rank_of(s | {e}) > r for e in self.ground if e not in s
                ):
                    out.append(s)
        return out

    def ray_id(self, flat: frozenset[str]) -> str:
        return ",".join(e for e in self.ground if e in flat)

    def max_flags(self) -> list[list[frozenset[str]]]:
        flats = self.proper_flats()
        by_rank = {k: [f for f in flats if self.rank_of(f) == k] for k in range(1, self.rank)}
        flags: list[list[frozenset[str]]] = [[]]
        for k in range(1, self.rank):
            flags = [c + [f] for c in flags for f in by_rank[k] if not c or c[-1] < f]
        return flags

    def bergman_fan_json(self, transform=None) -> dict:
        """The Bergman fan in R^(E minus e0), rays optionally mapped by a matrix."""
        coords = [e for e in self.ground if e != self.e0]
        rays = []
        for flat in self.proper_flats():
            shift = 1 if self.e0 in flat else 0
            u = [Fraction((1 if e in flat else 0) - shift) for e in coords]
            if transform is not None:
                u = mat_vec(transform, u)
            rays.append({"id": self.ray_id(flat), "u": [rat(x) for x in u]})
        cones = [
            {"rays": [self.ray_id(f) for f in flag], "weight": "1"} for flag in self.max_flags()
        ]
        return {"ambient_dim": len(coords), "rays": rays, "max_cones": cones}

    def structure(self) -> dict:
        """Structural counts of the Bergman fan: rays, cones per dimension, flats."""
        flags = self.max_flags()
        cones = {frozenset()} | {frozenset(s) for f in flags for k in range(1, len(f) + 1)
                                 for s in combinations(f, k)}
        per_dim = [sum(1 for c in cones if len(c) == k) for k in range(self.rank)]
        return {
            "flats": len(self.proper_flats()) + 2,
            "rays": per_dim[1],
            "cones": len(cones),
            "cones_per_dim": per_dim,
            "max_cones": len(flags),
        }

    def mubar(self) -> list[int]:
        """|coefficients| of the reduced characteristic polynomial, leading first."""
        if self.edges is None:
            # Moebius sum over the flats: the k-subsets (k < r) and the ground set.
            n, r = len(self.ground), self.rank
            chi = [(-1) ** k * comb(n, k) for k in range(r)]  # coefficient of l^(r-k)
            chi.append(-sum(chi))
        else:
            # chromatic polynomial of K_v divided by lambda: prod_{i=1}^{v-1} (l - i)
            vertices = {x for e in self.edges for x in e}
            chi = [1]
            for i in range(1, len(vertices)):
                chi = [a - i * b for a, b in zip(chi + [0], [0] + chi)]
        quotient, carry = [], 0  # divide by (l - 1), highest power first
        for c in chi[:-1]:
            carry += c
            quotient.append(carry)
        if carry + chi[-1] != 0:
            raise ValueError("chi(1) != 0")
        return [abs(c) for c in quotient]


def renamed_labels(n: int, rng: random.Random) -> tuple[str, ...]:
    """n seeded names of equal length, in increasing order.

    Ray ids joined from equal-length names in increasing ground-set order sort
    exactly as the ids of the labels a, b, c, ... do.  So every seed gives the
    library the same order of coordinates, rays and LP columns, and the same
    eliminations and simplex pivots.  A permutation of the labels would change
    these, and with them the cost of a job: up to threefold for the LP on
    U(3,5).
    """
    letters = "abcdefghijklmnopqrstuvwxyz"
    names: set[str] = set()
    while len(names) < n:
        names.add("".join(rng.choice(letters) for _ in range(4)))
    return tuple(sorted(names))


def uniform(name: str, r: int, labels: tuple[str, ...]) -> MatroidInput:
    return MatroidInput(name, labels, r, None)


def graphic(name: str, edges: list[tuple[str, str]], labels: tuple[str, ...]) -> MatroidInput:
    vertices = {x for e in edges for x in e}
    return MatroidInput(name, labels, len(vertices) - 1, tuple(edges))


# -- exact rational matrices -------------------------------------------------


def rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def mat_vec(m, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]


def mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(m):
    return [list(col) for col in zip(*m)]


def dense_matrix(n: int) -> tuple[list, list]:
    """A fixed dense rational A = L D U and its exact inverse U^-1 D^-1 L^-1.

    L and U are unit triangular with off-diagonal entries in {-2,-1,1,2}, and
    D is diagonal with entries p/q, 1 <= p, q <= 3; all are drawn from
    random.Random(0), not from the benchmark seed, because the cost of the
    library's eliminations can depend on A and the benchmark's figures must
    not depend on the seed.
    """
    rng = random.Random(0)

    def unit_triangular(lower: bool):
        return [[Fraction(1) if i == j else
                 Fraction(rng.choice((-2, -1, 1, 2))) if (i > j) == lower else Fraction(0)
                 for j in range(n)] for i in range(n)]

    def triangular_inverse(t, lower: bool):
        inv = [[Fraction(0)] * n for _ in range(n)]
        order = range(n) if lower else range(n - 1, -1, -1)
        for col in range(n):
            for i in order:
                s = Fraction(1 if i == col else 0)
                s -= sum((t[i][k] * inv[k][col] for k in range(n) if k != i), Fraction(0))
                inv[i][col] = s
        return inv

    low, up = unit_triangular(True), unit_triangular(False)
    diag = [Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)]
    d = [[diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    d_inv = [[1 / diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    a = mat_mul(mat_mul(low, d), up)
    a_inv = mat_mul(mat_mul(triangular_inverse(up, False), d_inv), triangular_inverse(low, True))
    if mat_mul(a, a_inv) != [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]:
        raise ValueError("dense_matrix: inverse check failed")
    return a, a_inv
