from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normalvol as nv
from normalvol import linalg, matroid
from normalvol.errors import (
    AxiomViolation,
    GroundSetTooLarge,
    LoopDetected,
    RankTooSmall,
    UnknownElement,
)
from normalvol.linalg import dot, mat_vec, qvec, zeros
from normalvol.matroid import char_poly, flat_ray_id, matroid_from_json

from conftest import K4_EDGES, MATROID_NAMES, bergman, make_matroid


# -- axioms and constructors ------------------------------------------------


def test_missing_empty_flat():
    with pytest.raises(AxiomViolation) as exc:
        nv.from_flats(["a", "b"], [["a"], ["b"], ["a", "b"]])
    assert exc.value.axiom == "F1"


def test_intersection_not_closed():
    with pytest.raises(AxiomViolation) as exc:
        nv.from_flats(
            ["a", "b", "c"],
            [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]],
        )
    assert exc.value.axiom in {"F2", "F3"}


def test_partition_axiom_violated():
    # above the empty flat, the singletons {a} and {b} miss c entirely
    with pytest.raises(AxiomViolation) as exc:
        nv.from_flats(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]])
    assert exc.value.axiom == "F3"


def test_graphic_loop_rejected():
    with pytest.raises(LoopDetected):
        nv.graphic([("1", "1")])


def test_linear_zero_column_rejected():
    with pytest.raises(LoopDetected):
        nv.linear([[1, 0], [0, 0]], ["a", "b"])


def test_unknown_element_in_flats():
    with pytest.raises(UnknownElement):
        nv.from_flats(["a"], [[], ["z"]])


def test_uniform_rank_bounds():
    with pytest.raises(RankTooSmall):
        nv.uniform(0, 3)
    with pytest.raises(RankTooSmall):
        nv.uniform(4, 3)


def test_u23_flats():
    m = make_matroid("U23")
    assert m.ground == ("a", "b", "c")
    assert m.rank == 2
    proper = {m.labels(f) for f in m.proper_flats()}
    assert proper == {("a",), ("b",), ("c",)}


def test_k4_shape():
    m = make_matroid("K4")
    assert m.n == 6 and m.rank == 3
    assert len(m.flats_of_rank(1)) == 6
    assert len(m.flats_of_rank(2)) == 7  # 4 triangles + 3 perfect matchings


def test_closure_and_rank_queries():
    m = make_matroid("K4")
    bit = {e: 1 << m.index[e] for e in m.ground}
    triangle = bit["0"] | bit["1"] | bit["3"]  # edges 12, 13, 23 span a triangle
    assert m.rank_of_flat(m.closure(triangle)) == 2
    assert m.closure(bit["0"] | bit["1"]) == triangle


def test_linear_matches_uniform():
    # four generic columns in rank 3 give U(3, 4)
    m = nv.linear([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], ["a", "b", "c", "d"])
    u = make_matroid("U34")
    assert {m.labels(f) for f in m.flats} == {u.labels(f) for f in u.flats}


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))))
def test_uniform_flats_are_the_small_subsets_and_the_ground_set(rn):
    # the direct enumeration: the subsets of size < r, then E, in Matroid.flats order
    r, n = rn
    size = lambda mask: bin(mask).count("1")
    direct = {mask for mask in range(1 << n) if size(mask) < r} | {(1 << n) - 1}
    assert nv.uniform(r, n).flats == tuple(sorted(direct, key=lambda mask: (size(mask), mask)))


def test_matroid_from_json_kinds():
    u = matroid_from_json({"kind": "uniform", "ground_set": ["a", "b", "c"], "rank": 2})
    assert u.rank == 2 and u.n == 3
    g = matroid_from_json({"kind": "graphic", "ground_set": [str(i) for i in range(6)], "edges": K4_EDGES})
    assert g.rank == 3
    f = matroid_from_json({"kind": "flats", "ground_set": ["a"], "flats": [[], ["a"]]})
    assert f.rank == 1
    lin = matroid_from_json(
        {"kind": "linear", "ground_set": ["a", "b"], "matrix": [["1", "0"], ["0", "1"]]}
    )
    assert lin.rank == 2
    with pytest.raises(UnknownElement):
        matroid_from_json({"kind": "mystery", "ground_set": ["a"]})


# -- the cover map against scans of the flats -----------------------------------


def _scan_ranks(m):
    """rank(f): the length of the longest chain of flats below f."""
    rank = {}
    for f in m.flats:  # by size, so every flat below f comes first
        rank[f] = max((rank[g] for g in rank if g & f == g), default=-1) + 1
    return rank


def _scan_closure(m, mask):
    """The intersection of the flats that contain mask."""
    out = m.full_mask
    for f in m.flats:
        if f & mask == mask:
            out &= f
    return out


def _scan_flags(m, rank):
    """Flags of proper flats, one of each rank, by the by-rank subset filter."""
    flags = [[]]
    for k in range(1, m.rank):
        by_rank = [f for f in m.flats if rank[f] == k]
        flags = [c + [f] for c in flags for f in by_rank if not c or c[-1] & f == c[-1]]
    return flags


def _assert_cover_map_matches_scans(m):
    rank = _scan_ranks(m)
    assert {f: m.rank_of_flat(f) for f in m.flats} == rank
    assert [m.closure(mask) for mask in range(1 << m.n)] == [
        _scan_closure(m, mask) for mask in range(1 << m.n)
    ]
    if m.rank >= 2:
        flags = _scan_flags(m, rank)
        cones = [frozenset(flat_ray_id(m, f) for f in chain) for chain in flags]
        assert list(nv.bergman_fan(m, m.ground[0]).max_cones) == cones


@pytest.mark.parametrize("name", MATROID_NAMES)
def test_cover_map_matches_scans(name):
    _assert_cover_map_matches_scans(make_matroid(name))


_COLUMNS = st.integers(1, 4).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any), min_size=1, max_size=7
    )
)


@settings(max_examples=60, deadline=None)
@given(_COLUMNS)
def test_cover_map_matches_scans_on_linear_matroids(columns):
    _assert_cover_map_matches_scans(nv.linear(columns))


def test_flat_search_makes_one_closure_per_cover(monkeypatch):
    # the 212 flats of a linear U(3,20); n closures per flat took 69202 rank-oracle calls
    calls = 0

    def counting_rank(rows):
        nonlocal calls
        calls += 1
        return linalg.rank(rows)

    monkeypatch.setattr(matroid, "matrix_rank", counting_rank)
    m = nv.linear([[1, i, i * i] for i in range(20)])
    assert len(m.flats) == 212 and m.rank == 3
    assert calls <= 12000


def test_ground_set_cap():
    with pytest.raises(GroundSetTooLarge):
        matroid_from_json({"kind": "uniform", "ground_set": [f"e{i}" for i in range(21)], "rank": 2})


# -- characteristic polynomials -----------------------------------------------


CHAR_FIXTURES = {
    # name: (chi ascending, mubar)
    "U23": ((2, -3, 1), (1, 2)),
    "U34": ((-3, 6, -4, 1), (1, 3, 3)),
    "U35": ((-6, 10, -5, 1), None),
    "K4": ((-6, 11, -6, 1), (1, 5, 6)),
    "K4e": (None, (1, 4, 4)),
    "U45": (None, (1, 4, 6, 4)),
}

MUBAR = {
    "U23": (1, 2),
    "U34": (1, 3, 3),
    "U35": (1, 4, 6),
    "U45": (1, 4, 6, 4),
    "K4": (1, 5, 6),
    "K4e": (1, 4, 4),
}


@pytest.mark.parametrize("name", MATROID_NAMES)
def test_char_poly_fixture_values(name):
    cp = char_poly(make_matroid(name))
    chi, _ = CHAR_FIXTURES[name]
    if chi is not None:
        assert cp.chi == chi
    assert cp.mubar == MUBAR[name]
    # chi(1) = 0 and the reduced polynomial reconstructs chi
    assert sum(cp.chi) == 0
    r = len(cp.chi) - 1
    rebuilt = [0] * (r + 1)
    for k, c in enumerate(cp.chibar):
        rebuilt[k + 1] += c
        rebuilt[k] -= c
    assert tuple(rebuilt) == cp.chi


def test_mu_property():
    cp = char_poly(make_matroid("K4"))
    assert cp.mu == (1, 6, 11, 6)


# -- Bergman fans --------------------------------------------------------------


def test_bergman_rank_too_small():
    with pytest.raises(RankTooSmall):
        nv.bergman_fan(nv.uniform(1, 2), "a")


def test_bergman_unknown_e0():
    with pytest.raises(UnknownElement):
        nv.bergman_fan(make_matroid("U23"), "zz")
    with pytest.raises(UnknownElement):
        nv.e0_inner_product(make_matroid("U23"), "zz")
    with pytest.raises(UnknownElement):
        nv.alpha_beta_z(make_matroid("U23"), "zz")


def test_bergman_u23_geometry():
    fx = bergman("U23")
    fan = fx.fan
    assert fan.d == 1 and fan.ambient_dim == 2
    assert sorted(fan.rays) == ["a", "b", "c"]
    assert fan.rays["a"] == qvec([-1, -1])
    assert fan.rays["b"] == qvec([1, 0])
    assert fan.rays["c"] == qvec([0, 1])
    # tropical: the three rays sum to zero
    total = zeros(2)
    for u in fan.rays.values():
        total = tuple(a + b for a, b in zip(total, u))
    assert total == zeros(2)


def test_bergman_k4_flags():
    fx = bergman("K4")
    fan = fx.fan
    assert fan.d == 2
    assert len(fan.cones_of_dim(1)) == 13  # 6 rank-1 + 7 rank-2 flats
    # each maximal cone is a flag: a rank-1 flat inside a rank-2 flat
    m = fx.matroid
    rank = {flat_ray_id(m, f): m.rank_of_flat(f) for f in m.proper_flats()}
    for cone in fan.cones_of_dim(2):
        ranks = sorted(rank[r] for r in cone)
        assert ranks == [1, 2]


@pytest.mark.parametrize("name", MATROID_NAMES)
def test_bergman_is_tropical(name):
    assert nv.is_tropical(bergman(name).fan).is_tropical


def test_e0_pairing_table():
    # with the e0 inner product, <u_F, u_G> depends only on how F, G meet e0:
    #   both contain e0:      |F^c  cap G^c|
    #   neither contains e0:  |F    cap G|
    #   exactly one does:    -|F    cap G^c| (F the one without e0)
    fx = bergman("K4")
    m, ctx, e0 = fx.matroid, fx.ctx, fx.e0
    e0_bit = 1 << m.index[e0]
    flats = m.proper_flats()
    for f in flats:
        for g in flats:
            uf = ctx.fan.rays[flat_ray_id(m, f)]
            ug = ctx.fan.rays[flat_ray_id(m, g)]
            got = dot(uf, mat_vec(ctx.gram, ug))
            if f & e0_bit and g & e0_bit:
                expected = bin(~f & ~g & m.full_mask).count("1")
            elif not f & e0_bit and not g & e0_bit:
                expected = bin(f & g).count("1")
            elif f & e0_bit:
                expected = -bin(g & ~f & m.full_mask).count("1")
            else:
                expected = -bin(f & ~g & m.full_mask).count("1")
            assert got == expected


def test_e0_gram_is_identity():
    fx = bergman("U34")
    gram = nv.e0_inner_product(fx.matroid, fx.e0)
    n = fx.matroid.n - 1
    assert all(gram[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))
    coords = [e for e in fx.matroid.ground if e != fx.e0]
    for i, e in enumerate(coords):
        u = fx.fan.rays[e]  # singleton flats of a uniform matroid
        assert dot(u, u) == 1 or u[i] == 1


def test_alpha_beta_u23():
    fx = bergman("U23")
    assert fx.z_alpha == {"a": Fraction(1), "b": Fraction(0), "c": Fraction(0)}
    assert fx.z_beta == {"a": Fraction(0), "b": Fraction(1), "c": Fraction(1)}


@pytest.mark.parametrize("name", MATROID_NAMES)
def test_bergman_dimension(name):
    fx = bergman(name)
    assert fx.fan.d == fx.matroid.rank - 1
    assert all(w == 1 for w in fx.fan.weights.values())
