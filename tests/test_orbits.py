"""Fans over a group of ray permutations: the matroid's generators, the checks of a
generator (by the fan, and of its Gram by the context) and of a truncation, the orbits,
and the grouped volume program, balancing walk and Chow degrees against the trivial
group's."""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import normalvol as nv
from normalvol import chow, normalcx
from normalvol.chow import covector, deg_products
from normalvol.errors import NormalVolError, NotInvariant
from normalvol.linalg import identity, qmat
from normalvol.matroid import bergman_symmetries
from normalvol.normalcx import (
    OUTSIDE,
    PSEUDOCUBICAL_BOUNDARY,
    Context,
    CubReport,
    classify_z,
    mvol_recursive,
    vol_polynomial,
)

from conftest import (
    VAMOS_FLATS,
    VAMOS_GROUND,
    make_pm1_fan,
    make_quadrant_fan,
    product_fan,
    reference_check_symmetry,
    reference_orbits,
    sparse_paving_flats,
    sparse_paving_matroids,
    with_symmetries,
)

K5_EDGES = [(str(a), str(b)) for a, b in combinations(range(1, 6), 2)]
UNIFORM = [(r, n) for n in range(3, 7) for r in range(2, min(n, 5) + 1)]
ROTATION = {"r1": "r2", "r2": "r3", "r3": "r4", "r4": "r1"}  # a quarter turn of the quadrant


def grouped(m, e0):
    gram = nv.e0_inner_product(m, e0)
    fans = nv.bergman_fan(m, e0), nv.bergman_fan(m, e0, bergman_symmetries(m, e0))
    return tuple(Context(fan, gram) for fan in fans)


def ray_orbits(fan, perms):
    """The orbits of the rays under the permutations, by closure."""
    orbits, seen = [], set()
    for rid in fan.ray_ids():
        if rid not in seen:
            orbit, todo = {rid}, [rid]
            while todo:
                r = todo.pop()
                for perm in perms:
                    if perm[r] not in orbit:
                        orbit.add(perm[r])
                        todo.append(perm[r])
            seen |= orbit
            orbits.append(sorted(orbit))
    return orbits


def outcome(f, *args):
    try:
        return f(*args)
    except NormalVolError as exc:
        return type(exc), str(exc)


# -- the matroid's generators ---------------------------------------------------------


@pytest.mark.parametrize("r, cones, orbits", [(3, 23, 8), (4, 166, 20), (5, 1437, 48)])
def test_uniform_matroids_get_the_symmetric_group_of_the_other_elements(r, cones, orbits):
    m = nv.uniform(r, r + 1)
    perms = bergman_symmetries(m, "a")
    assert len(perms) == 2  # a transposition and a cycle of b, c, ...
    ctx = Context(nv.bergman_fan(m, "a", perms), nv.e0_inner_product(m, "a"))
    order, rep, weights = ctx.fan.orbits()
    assert (len(ctx.fan.cones), len(order)) == (cones, orbits)
    assert list(order) == [c for c in ctx.fan.cones if c not in rep]
    assert sum(weights.values()) == len(ctx.fan.max_cones)
    # the ray orbits: the flats by their size and by whether they hold e0
    assert len(ray_orbits(ctx.fan, perms)) == 2 * (r - 1)


def test_orbits_match_the_whole_group_on_u45():
    m = nv.uniform(4, 5)
    _, ctx = grouped(m, "c")
    unit = {rid: rid for rid in ctx.fan.rays}
    group, todo = {tuple(sorted(unit.items())): unit}, [unit]
    while todo:  # the closure of the generators under composition
        g = todo.pop()
        for perm in ctx.fan.symmetries:
            h = {rid: perm[g[rid]] for rid in g}
            if group.setdefault(tuple(sorted(h.items())), h) is h:
                todo.append(h)
    assert len(group) == 24  # Sym of the four elements other than e0
    _, rep, weights = ctx.fan.orbits()
    for cone in ctx.fan.cones:
        orbit = {tuple(sorted(g[rid] for rid in cone)) for g in group.values()}
        assert rep.get(cone, cone) == min(orbit)
        if cone in weights:
            assert weights[cone] == len(orbit)


def test_k5_gets_no_generator_and_vamos_one_per_pair():
    # no swap of two edges of K5 maps flats to flats
    assert bergman_symmetries(nv.graphic(K5_EDGES), "0") == []
    # the swaps of Vamos that fix a are those within bB, cC and dD; a class of two
    # elements gives its transposition once
    perms = bergman_symmetries(nv.from_flats(VAMOS_GROUND, VAMOS_FLATS), "a")
    assert [perm["b"] for perm in perms] == ["B", "b", "b"]
    assert [perm["c"] for perm in perms] == ["c", "C", "c"]


# -- the checks of a generator and of a truncation --------------------------------------


def test_a_symmetry_must_be_a_bijection_of_the_rays():
    for perm in ({"r1": "r2", "r2": "r2", "r3": "r3", "r4": "r4"}, {"r1": "r1"},
                 {**ROTATION, "r5": "r5"}):
        with pytest.raises(NotInvariant, match="bijection"):
            make_quadrant_fan([perm])


def test_a_symmetry_must_map_a_maximal_cone_to_a_cone():
    # r1 r2 goes to itself, and r1 r4, the next maximal cone the search meets, to r2 r4
    swap = {"r1": "r2", "r2": "r1", "r3": "r3", "r4": "r4"}
    with pytest.raises(NotInvariant, match=r"\['r1', 'r4'\] to \['r2', 'r4'\], which is not"):
        make_quadrant_fan([swap])


def test_a_symmetry_must_keep_the_weights():
    flip = {"p": "m", "m": "p"}
    make_pm1_fan(symmetries=[flip])
    with pytest.raises(NotInvariant, match="same weight"):
        make_pm1_fan(weights=(1, 2), symmetries=[flip])


def test_a_symmetry_must_be_induced_by_a_linear_map():
    rays = {"r1": (1, 0), "r2": (1, 1), "r3": (0, 1), "r4": (-1, 0), "r5": (0, -1)}
    ids = sorted(rays)
    cones = [((a, b), 1) for a, b in zip(ids, ids[1:] + ids[:1])]
    cycle = dict(zip(ids, ids[1:] + ids[:1]))
    assert nv.is_tropical(nv.MarkedFan(2, rays, cones)).is_tropical  # a complete fan
    # the 5-cycle maps each cone to the next, of equal weight, but the linear map that
    # takes r1, r2 to r2, r3 takes r4 = -r1 to -r2 = (-1, -1), which is not r5
    with pytest.raises(NotInvariant, match="ray 'r4' to 'r5', but the linear map"):
        nv.MarkedFan(2, rays, cones, symmetries=[cycle])


def test_a_symmetry_must_keep_the_pairing_of_each_two_cone():
    Context(make_quadrant_fan([ROTATION]), identity(2))
    # every ray keeps its length 1, but <e1, e2> = 1/2 goes to <e2, -e1> = -1/2
    gram = qmat([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    with pytest.raises(NotInvariant, match="pairing of 'r1' and 'r2'"):
        Context(make_quadrant_fan([ROTATION]), gram)
    # the reflection in the diagonal keeps every 2-cone's pairing 0, but not |e1|^2 = 2
    reflection = {"r1": "r2", "r2": "r1", "r3": "r4", "r4": "r3"}
    with pytest.raises(NotInvariant, match="pairing of 'r1' and 'r1'"):
        Context(make_quadrant_fan([reflection]), qmat([[2, 0], [0, 1]]))


def test_a_grouped_context_refuses_a_truncation_not_constant_on_orbits():
    m = nv.uniform(4, 5)
    _, ctx = grouped(m, "a")
    z_alpha, z_beta = nv.alpha_beta_z(m, "a")
    z = dict(z_alpha, b=Fraction(1))  # the flat {b} and the flat {c} are in one orbit
    for refuse in (
        lambda: classify_z(ctx, z),
        lambda: mvol_recursive(ctx, [z_alpha, z_beta, z]),
        lambda: ctx.classify(z),
        lambda: deg_products(ctx.fan, [[z_alpha, z_beta, z_alpha], [z_beta, z_alpha, z]]),
    ):
        with pytest.raises(NotInvariant, match="constant on the orbits"):
            refuse()
    for _ in range(2):  # a refused truncation leaves the batch usable
        with pytest.raises(NotInvariant):
            ctx.mvol([z] * 3)
    assert ctx.mvol([z_alpha, z_alpha, z_beta]) == 4


def test_the_quadrant_under_its_rotation_gives_the_trivial_group_values():
    trivial = Context(make_quadrant_fan(), identity(2))
    turned = Context(make_quadrant_fan([ROTATION]), identity(2))
    assert len(turned.fan.orbits()[0]) == 3  # the zero cone, the rays, the quadrants
    zs = [{rid: Fraction(value) for rid in ROTATION} for value in (1, 2, 0, -1)]
    for z in zs:
        assert classify_z(turned, z) == classify_z(trivial, z)
    # each tuple climbs from the ray r1 to the quadrant r1 r2, whose face r2 is read at
    # its representative r1
    for tuple_ in ([zs[0], zs[0]], [zs[0], zs[1]], [zs[1], zs[2]], [zs[3], zs[0]]):
        assert outcome(mvol_recursive, turned, tuple_) == outcome(mvol_recursive, trivial, tuple_)


# -- the one pass that finds the orbits and checks the generators -------------------------


def signed_permutations(fan):
    """The ray permutations of the signed permutations of the coordinates, on a fan whose
    rays are the vectors +-e_i: symmetries of its cones, whatever its weights and Gram."""
    ids = {u: rid for rid, u in fan.rays.items()}
    n = fan.ambient_dim
    return [
        {rid: ids[tuple(signs[i] * u[order[i]] for i in range(n))] for rid, u in fan.rays.items()}
        for order in permutations(range(n))
        for signs in product((1, -1), repeat=n)
    ]


@cache
def bergman_group(name):
    """(fan, e0 Gram, bergman_symmetries) of U(3,4), U(4,5) or Vamos."""
    m = nv.from_flats(VAMOS_GROUND, VAMOS_FLATS) if name == "vamos" else nv.uniform(*name)
    e0 = m.ground[0]
    return nv.bergman_fan(m, e0), nv.e0_inner_product(m, e0), bergman_symmetries(m, e0)


@st.composite
def fans_with_generators(draw):
    """(fan, Gram, generators): true symmetries mixed with drawn ray permutations.

    The fans are the quadrant and products of pm1 factors with drawn weights, under their
    signed coordinate permutations and a drawn Gram L L^T, and U(3,4), U(4,5) and Vamos
    under ``bergman_symmetries`` and the e0 Gram."""
    kind = draw(st.sampled_from(["quadrant", "pm1^k", "bergman"]))
    if kind == "bergman":
        fan, gram, symmetries = bergman_group(draw(st.sampled_from([(3, 4), (4, 5), "vamos"])))
    else:
        if kind == "quadrant":
            fan = make_quadrant_fan()
        else:
            factors = [make_pm1_fan(draw(st.sampled_from([(1, 1), (1, 2), (2, 2)])))
                       for _ in range(draw(st.integers(1, 3)))]
            fan = factors[0]
            for factor in factors[1:]:
                fan = product_fan(fan, factor)
        n, off = fan.ambient_dim, st.integers(-1, 1) if draw(st.booleans()) else st.just(0)
        low = [[Fraction(int(i == k)) if k >= i else Fraction(draw(off)) for k in range(n)]
               for i in range(n)]
        gram = qmat([[sum(a * b for a, b in zip(low[i], low[j])) for j in range(n)]
                     for i in range(n)])
        symmetries = signed_permutations(fan)
    ids = fan.ray_ids()
    drawn = st.permutations(ids).map(lambda image: dict(zip(ids, image)))
    swaps = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).map(
        lambda ab: {**{rid: rid for rid in ids}, ab[0]: ab[1], ab[1]: ab[0]}
    )
    choices = [st.sampled_from(symmetries)] * 2 + [drawn, swaps]  # half are true symmetries
    return fan, gram, draw(st.lists(st.one_of(choices), min_size=1, max_size=3))


# the flip of the left factor keeps every weight, and the swap of the factors keeps the
# representative L.m R.m but takes L.p R.m, of weight 2, to L.m R.p, of weight 1
_UNEQUAL = product_fan(make_pm1_fan(), make_pm1_fan((1, 2)))
_FLIP = {"L.p": "L.m", "L.m": "L.p", "R.p": "R.p", "R.m": "R.m"}
_SWAP = {"L.p": "R.p", "R.p": "L.p", "L.m": "R.m", "R.m": "L.m"}


@settings(max_examples=150, deadline=None)
@example((_UNEQUAL, identity(2), [_FLIP, _SWAP]))
@given(fans_with_generators())
def test_the_one_pass_refuses_and_finds_what_the_separate_check_and_search_do(case):
    fan, gram, perms = case
    try:
        checker = Context(fan, gram)
        for perm in perms:
            reference_check_symmetry(checker, perm)
    except NotInvariant:
        event("refused")
        with pytest.raises(NotInvariant):
            Context(with_symmetries(fan, perms), gram)
        return
    order, rep, weights = Context(with_symmetries(fan, perms), gram).fan.orbits()
    event("accepted, trivial group" if len(order) == len(fan.cones) else "accepted, orbits merge")
    assert (list(order), rep, weights) == reference_orbits(fan, perms)


# -- the table pass: one adjugate before a refusal, and none for an all-zero cone ------------


@pytest.mark.parametrize("symmetric", [False, True], ids=["trivial", "grouped"])
def test_a_truncation_refused_at_its_first_cone_borders_one_adjugate(symmetric, monkeypatch):
    m = nv.uniform(5, 6)
    ctx = grouped(m, "a")[symmetric]
    z = dict(nv.alpha_beta_z(m, "a")[0])
    first = ctx.fan.ray_ids()[0]
    z[first] = Fraction(-1)
    calls = []

    def counted(*args):
        calls.append(args)
        return border(*args)

    border = normalcx.border_adjugate
    monkeypatch.setattr(normalcx, "border_adjugate", counted)
    assert classify_z(ctx, z) == CubReport(OUTSIDE, (first,), first)
    assert len(calls) == 1


def test_a_cone_with_no_nonzero_truncation_value_reads_no_adjugate():
    m = nv.uniform(4, 5)
    ctx, _ = grouped(m, "a")
    read = []
    cone_gram_inverse = ctx.cone_gram_inverse

    def recorded(cone):
        read.append(cone)
        return cone_gram_inverse(cone)

    ctx.cone_gram_inverse = recorded  # the bordering's own recursion reads it too
    zero = {rid: Fraction(0) for rid in ctx.fan.rays}
    first = ctx.fan.ray_ids()[0]
    assert classify_z(ctx, zero) == CubReport(PSEUDOCUBICAL_BOUNDARY, (first,), first)
    assert read == []
    z_alpha = nv.alpha_beta_z(m, "a")[0]
    classify_z(ctx, z_alpha)
    some = {s for s in ctx.fan.max_cones if any(z_alpha[rid] for rid in s)}
    assert 0 < len(some) < len(ctx.fan.max_cones)
    assert set(read) & set(ctx.fan.max_cones) == some


# -- the grouped program against the trivial group ------------------------------------------


@st.composite
def bergman_with_symmetries(draw):
    """(matroid, e0): uniform U(r, n) with n <= 6, or a drawn sparse paving matroid."""
    if draw(st.booleans()):
        m = nv.uniform(*draw(st.sampled_from(UNIFORM)))
    else:
        ground, r, hyperplanes = draw(sparse_paving_matroids(sizes=[5, 6], ranks=[3, 4]))
        m = nv.from_flats(ground, sparse_paving_flats(ground, r, hyperplanes))
    return m, draw(st.sampled_from(m.ground))


@settings(max_examples=60, deadline=None)
@given(bergman_with_symmetries(), st.data())
def test_the_grouped_program_gives_the_trivial_groups_values(case, data):
    m, e0 = case
    fan, perms = nv.bergman_fan(m, e0), bergman_symmetries(m, e0)
    z_alpha, z_beta = nv.alpha_beta_z(m, e0)
    if data.draw(st.booleans()):  # other ray ids, so that a representative's face need not be one
        name = dict(zip(fan.ray_ids(), data.draw(st.permutations(fan.ray_ids()))))
        rays = {name[rid]: u for rid, u in fan.rays.items()}
        cones = [([name[rid] for rid in s], w) for s, w in fan.weights.items()]
        fan = nv.MarkedFan(fan.ambient_dim, rays, cones, validate_geometry=False)
        perms = [{name[a]: name[b] for a, b in perm.items()} for perm in perms]
        z_alpha, z_beta = ({name[rid]: v for rid, v in z.items()} for z in (z_alpha, z_beta))
    gram = nv.e0_inner_product(m, e0)
    trivial, ctx = Context(fan, gram), Context(with_symmetries(fan, perms), gram)
    order, rep, _ = ctx.fan.orbits()
    off = any(c[:i] + c[i + 1 :] in rep for c in order for i in range(len(c)))
    assert not any(c[:-1] in rep for c in order if c)  # the face the balancing walk reads
    event(f"{len(perms)} generators, d = {fan.d}, a face of a representative is not one: {off}")
    orbits = ray_orbits(ctx.fan, ctx.fan.symmetries)
    zs = []
    for _ in range(data.draw(st.integers(1, 3))):
        low = data.draw(st.sampled_from([None, 0, -1]))
        if low is None:  # a pseudocubical a alpha + b beta
            a, b = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
            zs.append({rid: a * z_alpha[rid] + b * z_beta[rid] for rid in z_alpha})
        else:  # constant on each ray orbit, of any sign when low = -1
            value = st.fractions(min_value=low, max_value=3, max_denominator=3)
            zs.append({rid: v for orbit in orbits for v in [data.draw(value)] for rid in orbit})
    reports = [classify_z(ctx, z) for z in zs]
    assert reports == [classify_z(trivial, z) for z in zs]
    for report in reports:
        event(report.classification)
    d = ctx.fan.d
    picks = st.lists(st.integers(0, len(zs) - 1), min_size=d, max_size=d)
    tuples = [[zs[i] for i in data.draw(picks)] for _ in range(3)]
    tuples.append([z_alpha] * (d - 1) + [z_beta])
    grouped_values, trivial_values = (
        [outcome(c.mvol, zs) for zs in tuples] for c in (ctx, trivial)
    )
    assert grouped_values == trivial_values  # the values themselves, not their ratios
    assert not any(c in rep for table in ctx._tables for k in table for c in table[k])
    if d <= 3:
        assert vol_polynomial(ctx) == vol_polynomial(trivial)


# -- the balancing walk and the Chow degrees over orbits -------------------------------------


@settings(max_examples=100, deadline=None)
@given(fans_with_generators(), st.data())
def test_the_grouped_walk_and_degrees_give_the_trivial_groups(case, data):
    fan, _, perms = case
    perms = [perm for perm in perms if not isinstance(outcome(with_symmetries, fan, [perm]), tuple)]
    grouped_fan = with_symmetries(fan, perms)
    order, rep, _ = grouped_fan.orbits()
    off = any(c[:i] + c[i + 1 :] in rep for c in order for i in range(len(c)))
    # a representative's face without its last ray is one, so the walk's stack holds it
    assert not any(c[:-1] in rep for c in order if c)
    report, trivial = nv.is_tropical(grouped_fan), nv.is_tropical(fan)
    event(f"{len(perms)} generators, tropical: {trivial.is_tropical}, a face of a "
          f"representative is not one: {off}")
    assert (report.is_tropical, report.failing) == (trivial.is_tropical, trivial.failing)
    top = [tau for tau in order if len(tau) == fan.d - 1 and tau not in report.failing]
    assert report.certificates == {tau: trivial.certificates[tau] for tau in top}
    orbits = ray_orbits(fan, perms)
    value = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    zs = [{rid: v for orbit in orbits for v in [data.draw(value)] for rid in orbit}
          for _ in range(data.draw(st.integers(1, 3)))]
    picks = st.lists(st.sampled_from(zs), min_size=fan.d, max_size=fan.d)
    tuples = [data.draw(picks) for _ in range(3)]
    degrees = outcome(deg_products, grouped_fan, tuples)
    assert degrees == outcome(deg_products, fan, tuples)
    event("degrees" if isinstance(degrees, list) else degrees[0].__name__)


def test_every_cone_of_a_failing_orbit_fails():
    # R.p and R.m each see L.p and L.m with weights 1 and 2, so both fail; the flip of the
    # right factor puts them in one orbit, and the walk reads only its representative R.m
    fan = product_fan(make_pm1_fan((1, 2)), make_pm1_fan())
    flip = {"L.p": "L.p", "L.m": "L.m", "R.p": "R.m", "R.m": "R.p"}
    report = nv.is_tropical(with_symmetries(fan, [flip]))
    assert report == nv.is_tropical(fan) and report.failing == (("R.m",), ("R.p",))
    assert report.certificates == nv.is_tropical(fan).certificates  # L.m and L.p, both fixed


def test_u67_grouped_fan_gives_the_trivial_walk_and_degrees(monkeypatch):
    m = nv.uniform(6, 7)
    trivial = nv.bergman_fan(m, "a")
    grouped_fan = nv.bergman_fan(m, "a", bergman_symmetries(m, "a"))
    order, _, _ = grouped_fan.orbits()
    report = nv.is_tropical(grouped_fan)
    assert report == nv.is_tropical(trivial) and report.is_tropical
    assert report.certificates == {
        tau: c for tau, c in nv.is_tropical(trivial).certificates.items() if tau in set(order)
    }
    z_alpha, z_beta = nv.alpha_beta_z(m, "a")
    z_mixed = {rid: z_alpha[rid] + 2 * z_beta[rid] for rid in z_alpha}
    d = trivial.d
    tuples = [[z_alpha] * (d - a) + [z_beta] * a for a in range(d + 1)]
    tuples.append([z_mixed, z_alpha, z_beta, z_mixed, z_beta])
    solved = []
    monkeypatch.setattr(chow, "covector", lambda *args: solved.append(args) or covector(*args))
    grouped_degrees = deg_products(grouped_fan, tuples)
    grouped_solves = len(solved)
    assert grouped_degrees == deg_products(trivial, tuples)
    assert grouped_degrees[: d + 1] == [1, 6, 15, 20, 15, 6]  # mubar of U(6,7)
    assert grouped_solves < len(solved) - grouped_solves
