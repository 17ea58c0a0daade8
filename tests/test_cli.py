import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from normalvol import af, cli, lp, matroid, normalcx
from normalvol.fan import fan_to_json
from normalvol.linalg import inverse, qmat
from normalvol.serialize import format_rat

from conftest import (
    QUADRANT_JSON,
    VAMOS_FLATS,
    VAMOS_GROUND,
    bergman,
    dense_gram,
    make_pm1_fan,
    mapped,
    mat_mul,
    product_fan,
    transpose,
)

GRAM2 = {"gram": [["1", "0"], ["0", "1"]]}


@pytest.fixture
def quadrant_files(tmp_path):
    paths = {}
    paths["fan"] = tmp_path / "fan.json"
    paths["fan"].write_text(json.dumps(QUADRANT_JSON))
    paths["gram"] = tmp_path / "gram.json"
    paths["gram"].write_text(json.dumps(GRAM2))
    paths["z"] = tmp_path / "z.json"
    paths["z"].write_text(json.dumps({"z": {"r1": "1", "r2": "2", "r3": "3", "r4": "4"}}))
    paths["z2"] = tmp_path / "z2.json"
    paths["z2"].write_text(json.dumps({"z": {"r1": "2", "r2": "1", "r3": "1", "r4": "2"}}))
    paths["z0"] = tmp_path / "z0.json"
    paths["z0"].write_text(json.dumps({"z": {"r1": "0", "r2": "0", "r3": "0", "r4": "0"}}))
    return {k: str(v) for k, v in paths.items()}


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fan_validate_pass(quadrant_files, capsys):
    code, out, _ = run(capsys, ["fan-validate", "--fan", quadrant_files["fan"]])
    assert code == 0
    report = json.loads(out)
    assert report["valid"] and report["tropical"]


def test_fan_validate_nontropical(tmp_path, capsys):
    raw = {
        "ambient_dim": 1,
        "rays": [{"id": "p", "u": ["1"]}, {"id": "m", "u": ["-1"]}],
        "max_cones": [{"rays": ["p"], "weight": "1"}, {"rays": ["m"], "weight": "2"}],
    }
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, ["fan-validate", "--fan", str(path)])
    assert code == 2
    report = json.loads(out)
    assert report["valid"] and not report["tropical"]
    assert report["failing_cones"] == [[]]


def _cross_polytope_fan_json(d):
    """Rays +-e_i and one orthant cone per sign pattern: complete and tropical."""
    unit = {"p": "1", "m": "-1"}
    rays = [
        {"id": f"{s}{i}", "u": [unit[s] if j == i else "0" for j in range(d)]}
        for i in range(d)
        for s in "pm"
    ]
    cones = [
        {"rays": [f"{s}{i}" for i, s in enumerate(signs)], "weight": "1"}
        for signs in itertools.product("pm", repeat=d)
    ]
    return {"ambient_dim": d, "rays": rays, "max_cones": cones}


@pytest.mark.parametrize("d, checked", [(3, True), (4, False)])
def test_fan_validate_reports_whether_faces_meet_was_checked(tmp_path, capsys, d, checked):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(_cross_polytope_fan_json(d)))
    code, out, _ = run(capsys, ["fan-validate", "--fan", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["valid"] and report["tropical"]
    assert report["faces_meet_checked"] is checked


def test_fan_validate_invalid_json_fan(tmp_path, capsys):
    raw = dict(QUADRANT_JSON, max_cones=[{"rays": ["r1", "r2"], "weight": "1"}])
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, ["fan-validate", "--fan", str(path)])
    assert code == 2
    assert not json.loads(out)["valid"]


def test_volume_single_method(quadrant_files, capsys):
    code, out, _ = run(
        capsys,
        [
            "volume",
            "--fan",
            quadrant_files["fan"],
            "--gram",
            quadrant_files["gram"],
            "--z",
            quadrant_files["z"],
        ],
    )
    assert code == 0
    assert out.strip() == "48"


def test_volume_all_methods_agree(quadrant_files, capsys):
    code, out, _ = run(
        capsys,
        [
            "volume",
            "--fan",
            quadrant_files["fan"],
            "--gram",
            quadrant_files["gram"],
            "--z",
            quadrant_files["z"],
            "--all",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["agree"]
    assert set(report["values"]) == {"recursive", "poly", "geom", "chow"}
    assert set(report["values"].values()) == {"48"}


def test_volume_zero(quadrant_files, capsys):
    code, out, _ = run(
        capsys,
        [
            "volume",
            "--fan",
            quadrant_files["fan"],
            "--gram",
            quadrant_files["gram"],
            "--z",
            quadrant_files["z0"],
        ],
    )
    assert code == 0 and out.strip() == "0"


def test_mixed_volume(quadrant_files, capsys):
    argv = [
        "mixed-volume",
        "--fan",
        quadrant_files["fan"],
        "--gram",
        quadrant_files["gram"],
        "--z",
        quadrant_files["z"],
        "--z",
        quadrant_files["z2"],
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.strip() == "30"
    code, out, _ = run(capsys, argv + ["--all"])
    assert code == 0
    report = json.loads(out)
    assert report["agree"] and set(report["values"].values()) == {"30"}


def test_deg(quadrant_files, capsys):
    code, out, _ = run(
        capsys,
        [
            "deg",
            "--fan",
            quadrant_files["fan"],
            "--z",
            quadrant_files["z"],
            "--z",
            quadrant_files["z2"],
        ],
    )
    assert code == 0 and out.strip() == "30"


def test_cubical_find(quadrant_files, capsys):
    code, out, _ = run(
        capsys,
        ["cubical-find", "--fan", quadrant_files["fan"], "--gram", quadrant_files["gram"]],
    )
    assert code == 0
    report = json.loads(out)
    assert report["cubical_nonempty"]
    assert report["z"] == {"r1": "1/4", "r2": "1/4", "r3": "1/4", "r4": "1/4"}
    assert report["slack"] == "1/4"


def test_cubical_find_empty_exits_3(quadrant_files, capsys, monkeypatch):
    monkeypatch.setattr(normalcx, "find_cubical", lambda ctx: None)
    code, out, _ = run(
        capsys,
        ["cubical-find", "--fan", quadrant_files["fan"], "--gram", quadrant_files["gram"]],
    )
    assert code == 3
    assert not json.loads(out)["cubical_nonempty"]


def test_af_check_explicit(quadrant_files, capsys):
    code, out, _ = run(
        capsys,
        [
            "af-check",
            "--fan",
            quadrant_files["fan"],
            "--gram",
            quadrant_files["gram"],
            "--z",
            quadrant_files["z"],
            "--z",
            quadrant_files["z2"],
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass" and not report["sampled"]
    assert len(report["margins"]) == 1


def test_af_check_sampled_deterministic(quadrant_files, capsys):
    argv = [
        "af-check",
        "--fan",
        quadrant_files["fan"],
        "--gram",
        quadrant_files["gram"],
        "--samples",
        "5",
        "--seed",
        "7",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["sampled"] and report["seed"] == 7 and len(report["margins"]) == 5


def test_af_check_undefined_exits_3(quadrant_files, capsys, monkeypatch):
    monkeypatch.setattr(cli.af, "sample_cubical", lambda ctx, count, seed: [])
    code, out, _ = run(
        capsys,
        ["af-check", "--fan", quadrant_files["fan"], "--gram", quadrant_files["gram"]],
    )
    assert code == 3
    assert json.loads(out)["verdict"] == "undefined"


# SHA-256 of `reduce-check`'s stdout on U(4,5)'s Bergman fan (e0 = a) under the dense Gram
# of `conftest.dense_gram(4)`, whose cubical cone is empty; recorded before the validation
# LP ran both phases on one tableau.
REDUCE_UNDEFINED_DIGEST = "a6cf712c9fe2ab8a4e166519c2830c0945637b690d3b4e57069e482640b670be"


def test_an_empty_cubical_cone_exits_3_from_every_command_that_needs_one(tmp_path, capsys):
    # a real input, no patched search: conditions (i) and (ii) pass, the cubical LP is empty
    gram = [[format_rat(x) for x in row] for row in dense_gram(4)]
    (tmp_path / "fan.json").write_text(json.dumps(fan_to_json(bergman("U45").fan)))
    (tmp_path / "gram.json").write_text(json.dumps({"gram": gram}))
    files = ["--fan", str(tmp_path / "fan.json"), "--gram", str(tmp_path / "gram.json")]
    code, out, err = run(capsys, ["reduce-check", *files])
    assert (code, err) == (3, "")
    report = json.loads(out)
    assert report["verdict"] == "undefined" and not report["cubical_nonempty"]
    assert report["condition_i"]["pass"] and report["condition_ii"]["pass"]
    assert hashlib.sha256(out.encode()).hexdigest() == REDUCE_UNDEFINED_DIGEST
    code, out, err = run(capsys, ["cubical-find", *files])
    assert (code, err) == (3, "") and not json.loads(out)["cubical_nonempty"]
    code, out, err = run(capsys, ["af-check", *files, "--samples", "2"])
    assert (code, err) == (3, "") and json.loads(out)["verdict"] == "undefined"


def test_af_check_refuses_dimension_one_before_sampling(tmp_path, capsys, monkeypatch):
    def refuse(ctx, count, seed):
        raise AssertionError("sampled a fan of dimension 1")

    monkeypatch.setattr(cli.af, "sample_cubical", refuse)
    fan = tmp_path / "fan.json"
    fan.write_text(
        json.dumps(
            {
                "ambient_dim": 1,
                "rays": [{"id": "p", "u": ["1"]}, {"id": "m", "u": ["-1"]}],
                "max_cones": [{"rays": ["p"], "weight": "1"}, {"rays": ["m"], "weight": "1"}],
            }
        )
    )
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"gram": [["1"]]}))
    code, out, err = run(capsys, ["af-check", "--fan", str(fan), "--gram", str(gram)])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "the AF inequality needs a fan of dimension >= 2"}


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_af_check_rejects_fewer_than_one_sample(samples, quadrant_files, capsys):
    argv = ["af-check", "--fan", quadrant_files["fan"], "--gram", quadrant_files["gram"]]
    code, out, err = run(capsys, argv + ["--samples", samples])
    assert code == 2 and out == ""
    assert "--samples" in json.loads(err)["error"]


def test_reduce_check(quadrant_files, capsys):
    code, out, _ = run(
        capsys,
        ["reduce-check", "--fan", quadrant_files["fan"], "--gram", quadrant_files["gram"]],
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["condition_i"]["pass"] and report["condition_ii"]["pass"]
    sig = report["condition_ii"]["signatures"][0]
    assert (sig["n_plus"], sig["n_minus"]) == (1, 1)
    assert report["cubical_witness"] is not None


def test_hrw(tmp_path, capsys):
    matroid = tmp_path / "m.json"
    matroid.write_text(json.dumps({"kind": "uniform", "ground_set": ["a", "b", "c"], "rank": 2}))
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["hrw", "--matroid", str(matroid), "--out", str(out_path)])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["mubar"] == [1, 2] and report["mu"] == [1, 3, 2]
    assert report["e0"] == "a"
    # the embedded fan JSON re-parses to a valid fan
    from normalvol.fan import build_fan

    fan = build_fan(report["bergman_fan"])
    assert fan.d == 1 and sorted(fan.rays) == ["a", "b", "c"]
    assert json.loads(out_path.read_text()) == report


# SHA-256 of the whole `hrw` stdout (the report and the Bergman fan).  U(4,5), K5
# and U(5,6) were recorded before the Chow path and the balancing check moved to
# integer arithmetic, U(6,7) before the volume DP met forward and backward layers.
HRW_GOLDEN = {
    "U45": (
        {"kind": "uniform", "ground_set": [str(i) for i in range(5)], "rank": 4},
        "09b4017d267e23291ea4d9c3ef4f7f0eebd0eb49860767013543155f3d11abd8",
    ),
    "K5": (
        {
            "kind": "graphic",
            "ground_set": [f"e{i}" for i in range(10)],
            "edges": [[str(a), str(b)] for a, b in itertools.combinations(range(1, 6), 2)],
        },
        "5fd0569e1ed54065aee14ccddc3fb2d160e9d0d33bf7f168e606604291fdcb42",
    ),
    "U56": (
        {"kind": "uniform", "ground_set": [str(i) for i in range(6)], "rank": 5},
        "c17bad2db28a9978c8d4361c811c3a098f42f9c0ecc126b67e17104974b66f08",
    ),
    "U67": (
        {"kind": "uniform", "ground_set": [str(i) for i in range(7)], "rank": 6},
        "c78153e16586e90d9bc7b9187bcd6ee317f7fd61d3e678b704f705300d5c9968",
    ),
}


@pytest.mark.parametrize("name", list(HRW_GOLDEN))
def test_hrw_output_is_byte_identical_to_the_recorded_one(name, tmp_path, capsys):
    raw, digest = HRW_GOLDEN[name]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, ["hrw", "--matroid", str(path)])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the whole `hrw` stdout on the Vamos matroid, a `flats` file, by e0.
VAMOS_GOLDEN = {
    "a": "b41eabd1fef2a0637367925b4d5b4cb117ce2ae86ec05ee6919af45a16e282da",
    "c": "6cdb04df4ffa2ed07df71f315ae69bccc0079f1b660749981d5d462ec02959d4",
}


@pytest.mark.parametrize("e0", list(VAMOS_GOLDEN))
def test_hrw_on_the_vamos_matroid(e0, tmp_path, capsys):
    # no vector configuration realizes it: the HRW theorem beyond representable matroids
    path = tmp_path / "vamos.json"
    path.write_text(json.dumps({"kind": "flats", "ground_set": VAMOS_GROUND, "flats": VAMOS_FLATS}))
    code, out, err = run(capsys, ["hrw", "--matroid", str(path), "--e0", e0])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["verdict"], report["e0"]) == ("pass", e0)
    assert report["mubar"] == [1, 7, 21, 30] and report["mu"] == [1, 8, 28, 51, 30]
    fan = report["bergman_fan"]
    assert (len(fan["rays"]), len(fan["max_cones"])) == (77, 276)
    assert hashlib.sha256(out.encode()).hexdigest() == VAMOS_GOLDEN[e0]


# SHA-256 of the whole `reduce-check` stdout on a Bergman fan with the e0 Gram,
# e0 the first ground element.  U(4,5) and U(5,6) were recorded while condition
# (ii) still built the volume polynomial of each star, K5 before fan validation
# cleared pairs of cones by sign certificates.
REDUCE_GOLDEN = {
    "U45": (
        lambda: matroid.uniform(4, 5),
        "2e7328b924d4fcd675cdef705b424a16603564c13eaa8ce9252171c30d984c28",
    ),
    "U56": (
        lambda: matroid.uniform(5, 6),
        "b474e52b4475b11f33c76da4014e3c51d35119a9ee1c7dbb671040f566172b9d",
    ),
    "K5": (
        lambda: matroid.graphic(list(itertools.combinations("12345", 2))),
        "d95fe44eed2078f92ddeab2612a2dcb223522b11c96c3e93e1584aa27f36be35",
    ),
}


@pytest.mark.parametrize("name", list(REDUCE_GOLDEN))
def test_reduce_check_output_is_byte_identical_to_the_recorded_one(name, tmp_path, capsys):
    build, digest = REDUCE_GOLDEN[name]
    m = build()
    e0 = m.ground[0]
    gram = [[format_rat(x) for x in row] for row in matroid.e0_inner_product(m, e0)]
    (tmp_path / "fan.json").write_text(json.dumps(fan_to_json(matroid.bergman_fan(m, e0))))
    (tmp_path / "gram.json").write_text(json.dumps({"gram": gram}))
    argv = ["reduce-check", "--fan", str(tmp_path / "fan.json"), "--gram", str(tmp_path / "gram.json")]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the whole `cubical-find` stdout on a Bergman fan with the identity Gram,
# e0 the first ground element.  Recorded while the LP still pivoted a Fraction tableau.
CUBICAL_GOLDEN = {
    "U45": (
        lambda: matroid.uniform(4, 5),
        "56b15bd0a43eb0f70d060148929abf165f36a303257abb18129ce4e5a8361b66",
    ),
    "K5": (
        lambda: matroid.graphic(list(itertools.combinations("12345", 2))),
        "0bb96b9fcf0bf6cdabfbee0f255887c2ed40e13e2077ebb9b231c31dafc1f60b",
    ),
    "U56": (
        lambda: matroid.uniform(5, 6),
        "c729c6870f7e6e3ce06408fea954c862810a9964729d352f657959b8a71f7c5c",
    ),
}


@pytest.mark.parametrize("name", list(CUBICAL_GOLDEN))
def test_cubical_find_output_is_byte_identical_to_the_recorded_one(name, tmp_path, capsys):
    build, digest = CUBICAL_GOLDEN[name]
    m = build()
    fan = matroid.bergman_fan(m, m.ground[0])
    n = fan.ambient_dim
    gram = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    (tmp_path / "fan.json").write_text(json.dumps(fan_to_json(fan)))
    (tmp_path / "gram.json").write_text(json.dumps({"gram": gram}))
    argv = ["cubical-find", "--fan", str(tmp_path / "fan.json"), "--gram", str(tmp_path / "gram.json")]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def two_cones_files(tmp_path, d, truncations=()):
    """argv of the fan of two d-cones {e_1..e_d} and {e_d+1..e_2d} on R^2d, meeting
    only at the origin, with weight 1 and the identity Gram, and of each truncation
    (values in ray order).  The rays are a, b, c, ... in that order."""
    n = 2 * d
    ids = "abcdef"[:n]
    rays = [{"id": r, "u": [str(int(i == j)) for j in range(n)]} for i, r in enumerate(ids)]
    cones = [{"rays": list(ids[:d]), "weight": "1"}, {"rays": list(ids[d:]), "weight": "1"}]
    (tmp_path / "fan.json").write_text(json.dumps({"ambient_dim": n, "rays": rays, "max_cones": cones}))
    gram = [[str(int(i == j)) for j in range(n)] for i in range(n)]
    (tmp_path / "gram.json").write_text(json.dumps({"gram": gram}))
    argv = ["--fan", str(tmp_path / "fan.json"), "--gram", str(tmp_path / "gram.json")]
    for t, values in enumerate(truncations):
        path = tmp_path / f"z{t}.json"
        path.write_text(json.dumps({"z": dict(zip(ids, values))}))
        argv += ["--z", str(path)]
    return argv


# Two cones meeting at the origin break the main theorem's hypotheses, and AF fails
# there.  SHA-256 of each run's stdout, all exit 2, recorded before `lp`, `signature`
# and the cone adjugates shared one fraction-free row step.
FAIL_GOLDEN = {
    "d2-reduce-check": (
        2, "reduce-check", [], (),
        "87b5fb6480115122fc630755c27be5412b90e8c8e19e5ac608497721eed64c43",
    ),
    "d2-af-check-z": (
        2, "af-check", [], (("2", "2", "1", "1"), ("1", "1", "3", "3")),
        "61c05c2df03af93dbc5e19e8c1fcbc25c78d19866f70f43fa7500005383149ea",
    ),
    "d2-af-check-samples": (
        2, "af-check", ["--samples", "5"], (),
        "9f11ffe15e1ba5613ba2575777180789bea6b7375c22efed4f5bb3793c09395b",
    ),
    "d3-reduce-check": (
        3, "reduce-check", [], (),
        "c9019491bf4690d6a57905c1088aca2f7fc3cb0b9b891cf4d7362cc5954b1264",
    ),
    "d3-af-check-z": (
        3, "af-check", [], (("4", "4", "4", "1", "1", "1"), ("1", "1", "1", "4", "4", "4"), ("1",) * 6),
        "f960cd3c54a7966b7391132fc2bed5b6d35f66f0d89e5a7fc70a6d147274d591",
    ),
}


def run_two_cones(capsys, tmp_path, name):
    d, command, extra, truncations, _ = FAIL_GOLDEN[name]
    return run(capsys, [command, *two_cones_files(tmp_path, d, truncations), *extra])


@pytest.mark.parametrize("name", list(FAIL_GOLDEN))
def test_fail_verdicts_are_byte_identical_to_the_recorded_ones(name, tmp_path, capsys):
    code, out, err = run_two_cones(capsys, tmp_path, name)
    assert (code, err) == (2, "")
    assert json.loads(out)["verdict"] == "fail"
    assert hashlib.sha256(out.encode()).hexdigest() == FAIL_GOLDEN[name][-1]


def test_reduce_check_fails_condition_ii_on_two_2_cones(tmp_path, capsys):
    report = json.loads(run_two_cones(capsys, tmp_path, "d2-reduce-check")[1])
    assert report["condition_i"] == {"failing_cones": [], "pass": True}
    assert report["condition_ii"] == {
        "pass": False,
        "signatures": [{"cone": [], "n_plus": 2, "n_minus": 2, "n_zero": 0}],
    }
    assert report["cubical_witness"] == dict.fromkeys("abcd", "1/4")


def test_af_check_fails_on_two_2_cones(tmp_path, capsys):
    report = json.loads(run_two_cones(capsys, tmp_path, "d2-af-check-z")[1])
    assert report["margins"] == ["-100"] and not report["sampled"]
    report = json.loads(run_two_cones(capsys, tmp_path, "d2-af-check-samples")[1])
    assert report["sampled"] and report["seed"] == 0
    assert sum(Fraction(m) < 0 for m in report["margins"]) == 3 and len(report["margins"]) == 5


def test_fan_validate_fails_the_balancing_of_two_2_cones(tmp_path, capsys):
    two_cones_files(tmp_path, 2)
    code, out, err = run(capsys, ["fan-validate", "--fan", str(tmp_path / "fan.json")])
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["valid"] and report["tropical"] is False
    assert report["failing_cones"] == [["a"], ["b"], ["c"], ["d"]]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "67b1735ab74eea32fb38035d55567b8526b87c7eab67f425f67cfe6e7269f4a1"
    )


def test_reduce_check_fails_condition_i_on_two_3_cones(tmp_path, capsys):
    report = json.loads(run_two_cones(capsys, tmp_path, "d3-reduce-check")[1])
    assert report["condition_i"] == {"failing_cones": [[]], "pass": False}
    assert report["condition_ii"]["pass"]
    assert report["condition_ii"]["signatures"] == [
        {"cone": [r], "n_plus": 1, "n_minus": 1, "n_zero": 0} for r in "abcdef"
    ]


def test_af_check_fails_on_two_3_cones_at_an_explicit_tuple(tmp_path, capsys):
    report = json.loads(run_two_cones(capsys, tmp_path, "d3-af-check-z")[1])
    assert report["margins"] == ["-8100"] and not report["sampled"]


@pytest.mark.xfail(
    strict=True,
    reason="sampled af-check reads pass on two 3-cones, where an explicit tuple gives margin "
    "-8100; ROADMAP item 13's deterministic Hodge-Riemann part must make this a plain test",
)
def test_af_check_samples_fail_on_two_3_cones(tmp_path, capsys):
    argv = ["af-check", *two_cones_files(tmp_path, 3), "--samples", "5", "--seed", "0"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (2, "")
    assert json.loads(out)["verdict"] == "fail"


def _k4_e0():
    """K4's Bergman fan with the e0 Gram and its ``find_cubical`` witness."""
    fx = bergman("K4")
    return fx.fan, fx.gram, fx.cubical_witness()


# A dense rational A and the cubical witness of U(4,5) under the identity Gram, by
# the class (|F|, e0 in F) of the flat F behind each ray.
DENSE_A = qmat([[1, 1, 2, 1], [2, "7/2", "5/2", "1/2"], [2, -1, 8, 6], [1, 4, 1, 3]])
U45_WITNESS_CLASSES = {
    (1, False): Fraction(3, 37),
    (1, True): Fraction(9, 37),
    (2, False): Fraction(5, 37),
    (2, True): Fraction(8, 37),
    (3, False): Fraction(6, 37),
    (3, True): Fraction(6, 37),
}


def _u45_dense():
    """U(4,5) with rays A u and the Gram A^-T A^-1, which keeps every pairing of the
    identity Gram, so the identity Gram's witness stays cubical."""
    fx = bergman("U45")
    a_inv = inverse(DENSE_A)
    witness = {
        rid: U45_WITNESS_CLASSES[(len(rid.split(",")), fx.e0 in rid.split(","))]
        for rid in fx.fan.ray_ids()
    }
    return mapped(fx.fan, DENSE_A), mat_mul(transpose(a_inv), a_inv), witness


# SHA-256 of the whole `volume --all` stdout (which runs the geometric oracle) and
# `mixed-volume --all` stdout; the second and later truncations of `mixed-volume`
# are the witness with each ray moved by -1/64, 0 or +1/64 of its value.  Recorded
# before the geometric oracle moved to integer arithmetic.
VOLUME_GOLDEN = {
    ("K4 e0", "volume"): (
        _k4_e0,
        "c8a439fbfe7ac7c5416354b1ed3dfae8bfa1bb4f8b4c44d29250daa52fd6fe1a",
    ),
    ("K4 e0", "mixed-volume"): (
        _k4_e0,
        "268a8040e96b9d46a366e3e28d41504656b03446821448af6db6b784d46e9840",
    ),
    ("U45 dense", "volume"): (
        _u45_dense,
        "af107ece7322658a0b8899b1175d135ff96def9c1627a84f975b4a5c0781d86c",
    ),
    ("U45 dense", "mixed-volume"): (
        _u45_dense,
        "72a66fb441035d7bc553fbe5d8ac6f612b3485f7e86f23bcd368a97ae4bd6671",
    ),
}


def _volume_golden_argv(build, command, tmp_path):
    fan, gram, witness = build()
    rays = fan.ray_ids()
    moved = [
        {rid: v * (1 + Fraction((k + j) % 3 - 1, 64)) for j, (rid, v) in enumerate(witness.items())}
        for k in range(fan.d)
    ]
    zs = [witness] if command == "volume" else moved
    gram_json = {"gram": [[format_rat(x) for x in row] for row in gram]}
    (tmp_path / "fan.json").write_text(json.dumps(fan_to_json(fan)))
    (tmp_path / "gram.json").write_text(json.dumps(gram_json))
    argv = [command, "--fan", str(tmp_path / "fan.json"), "--gram", str(tmp_path / "gram.json")]
    for k, z in enumerate(zs):
        path = tmp_path / f"z{k}.json"
        path.write_text(json.dumps({"z": {rid: format_rat(z[rid]) for rid in rays}}))
        argv += ["--z", str(path)]
    return argv + ["--all"]


@pytest.mark.parametrize("case", list(VOLUME_GOLDEN))
def test_volume_and_mixed_volume_outputs_are_byte_identical_to_the_recorded_ones(
    case, tmp_path, capsys
):
    build, digest = VOLUME_GOLDEN[case]
    code, out, err = run(capsys, _volume_golden_argv(build, case[1], tmp_path))
    assert (code, err) == (0, "")
    assert json.loads(out)["agree"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("case", list(VOLUME_GOLDEN))
def test_volume_and_mixed_volume_all_table_each_truncation_once(
    case, tmp_path, capsys, monkeypatch
):
    # loading a z tables it in the context's batch, and every method after the load reads
    # that table; the polarization adds one table for each sum of two or more z
    build, _ = VOLUME_GOLDEN[case]
    argv = _volume_golden_argv(build, case[1], tmp_path)
    built, table = [], normalcx._Table
    monkeypatch.setattr(normalcx, "_Table", lambda *args: built.append(args[1]) or table(*args))
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["agree"]
    keys = [tuple(sorted(zz.items())) for zz in built]
    d = build()[0].d
    assert len(set(keys)) == len(keys) == (1 if case[1] == "volume" else 2**d - 1)


@pytest.mark.parametrize("e0", ["zz", ""])
def test_hrw_refuses_an_e0_outside_the_ground_set(e0, tmp_path, capsys):
    matroid = tmp_path / "m.json"
    matroid.write_text(json.dumps({"kind": "uniform", "ground_set": ["a", "b", "c"], "rank": 2}))
    code, out, err = run(capsys, ["hrw", "--matroid", str(matroid), "--e0", e0])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"{e0!r} is not a ground set element"}


@pytest.mark.parametrize(
    "rank, e0, message",
    [
        (2, "zz", "'zz' is not a ground set element"),
        (1, None, "Bergman fan needs rank >= 2, got 1"),
    ],
)
def test_hrw_refuses_bad_input_before_char_poly(
    rank, e0, message, tmp_path, capsys, monkeypatch
):
    # on |E| = 20, char_poly's pass over the 2^20 subsets would come first
    def refuse(m):
        raise AssertionError("char_poly ran before the input was checked")

    monkeypatch.setattr(af, "char_poly", refuse)
    matroid = tmp_path / "m.json"
    ground = [f"e{i}" for i in range(20)]
    matroid.write_text(json.dumps({"kind": "uniform", "ground_set": ground, "rank": rank}))
    argv = ["hrw", "--matroid", str(matroid)] + (["--e0", e0] if e0 else [])
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": message}


def test_export_mesh(quadrant_files, tmp_path, capsys):
    out_path = tmp_path / "mesh.obj"
    code, out, _ = run(
        capsys,
        [
            "export-mesh",
            "--fan",
            quadrant_files["fan"],
            "--gram",
            quadrant_files["gram"],
            "--z",
            quadrant_files["z"],
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["cones"] == 4 and report["vertices"] == 16
    text = out_path.read_text()
    assert text.count("g cone_") == 4
    assert sum(1 for line in text.splitlines() if line.startswith("v ")) == 16
    assert sum(1 for line in text.splitlines() if line.startswith("f ")) == 8


def pm1_power(k):
    """The fan of the 2^k orthants of R^k, weight 1: the product of k copies of pm1."""
    fan = make_pm1_fan()
    for _ in range(k - 1):
        fan = product_fan(fan, make_pm1_fan())
    return fan


def fan_files(tmp_path, fan):
    """argv of a fan, the identity Gram and the truncation with every value 1."""
    n = fan.ambient_dim
    (tmp_path / "fan.json").write_text(json.dumps(fan_to_json(fan)))
    (tmp_path / "gram.json").write_text(
        json.dumps({"gram": [[str(int(i == j)) for j in range(n)] for i in range(n)]})
    )
    (tmp_path / "z.json").write_text(json.dumps({"z": dict.fromkeys(fan.rays, "1")}))
    return [f"--{name}={tmp_path / name}.json" for name in ("fan", "gram", "z")]


def test_volume_all_skips_the_geometric_oracle_when_d_exceeds_3(tmp_path, capsys):
    code, out, _ = run(capsys, ["volume", *fan_files(tmp_path, pm1_power(4)), "--all"])
    assert code == 0
    # 16 unit cubes, each of volume 4! in the Chow ring's normalization
    values = dict.fromkeys(["recursive", "poly", "chow"], "384")
    assert json.loads(out) == {"values": values, "agree": True}


def test_volume_all_skips_the_chow_degree_on_a_fan_that_is_not_balanced(tmp_path, capsys):
    argv = two_cones_files(tmp_path, 2, [("1",) * 4])
    code, out, _ = run(capsys, ["volume", *argv, "--all"])
    assert code == 0
    values = dict.fromkeys(["recursive", "poly", "geom"], "4")  # two unit squares, 2! each
    assert json.loads(out) == {"values": values, "agree": True}


@pytest.mark.parametrize("k, vertices, kind, per_cone", [(1, 2, "l", 1), (3, 8, "f", 12)])
def test_export_mesh_draws_a_segment_or_a_cube_per_cone(
    k, vertices, kind, per_cone, tmp_path, capsys
):
    fan, out_path = pm1_power(k), tmp_path / "mesh.obj"
    code, out, _ = run(capsys, ["export-mesh", *fan_files(tmp_path, fan), "--out", str(out_path)])
    assert code == 0
    cones = 2**k
    assert json.loads(out)["vertices"] == cones * vertices
    lines = out_path.read_text().splitlines()
    assert sum(line.startswith("v ") for line in lines) == cones * vertices
    assert sum(line.startswith(f"{kind} ") for line in lines) == cones * per_cone
    assert sum(line.startswith("g cone_") for line in lines) == cones


def test_caps_env(quadrant_files, capsys, monkeypatch):
    monkeypatch.setenv("NORMALVOL_CAPS", "max_dim=1")
    code, _, err = run(capsys, ["fan-validate", "--fan", quadrant_files["fan"]])
    assert code == 2
    monkeypatch.setenv("NORMALVOL_CAPS", "max_widgets=1")
    code, _, err = run(capsys, ["fan-validate", "--fan", quadrant_files["fan"]])
    assert code == 2
    assert "unknown cap" in json.loads(err)["error"]


class ValidationRan(Exception):
    pass


@pytest.mark.parametrize("cap", ["max_rays=3", "max_dim=1"])
def test_caps_checked_before_validation(cap, quadrant_files, capsys, monkeypatch):
    def refuse(*args):
        raise ValidationRan

    monkeypatch.setattr(lp, "feasible_nonneg", refuse)
    argv = ["fan-validate", "--fan", quadrant_files["fan"]]
    with pytest.raises(ValidationRan):  # without a cap, the quadrant is validated by LP
        run(capsys, argv)
    monkeypatch.setenv("NORMALVOL_CAPS", cap)
    code, out, _ = run(capsys, argv)
    assert code == 2
    assert "cap" in json.loads(out)["error"]


class WorkStarted(Exception):
    pass


def _refuse(*args, **kwargs):
    raise WorkStarted


@pytest.mark.parametrize(
    "r, n, caps",
    [(8, 9, ""), (8, 12, ""), (10, 20, ""), (4, 5, "max_dim=2"), (4, 5, "max_rays=20")],
)
def test_hrw_caps_a_uniform_bergman_fan_before_any_flat(r, n, caps, tmp_path, capsys, monkeypatch):
    # U(8,9) has 501 proper flats and d = 7; U(10,20) has 431909 proper flats.
    monkeypatch.setattr(matroid, "_flats_from_closure", _refuse)
    monkeypatch.setattr(matroid, "Matroid", _refuse)
    monkeypatch.setenv("NORMALVOL_CAPS", caps)
    path = tmp_path / "matroid.json"
    path.write_text(
        json.dumps({"kind": "uniform", "ground_set": [f"e{i}" for i in range(n)], "rank": r})
    )
    code, out, err = run(capsys, ["hrw", "--matroid", str(path)])
    assert code == 2 and out == ""
    assert "cap" in json.loads(err)["error"]


@pytest.mark.parametrize("caps", ["max_dim=2", "max_rays=20"])
def test_hrw_caps_a_graphic_bergman_fan_before_building_it(caps, tmp_path, capsys, monkeypatch):
    # K5: rank 4, so d = 3, and 50 proper flats.
    edges = [[str(a), str(b)] for a, b in itertools.combinations(range(1, 6), 2)]
    path = tmp_path / "k5.json"
    path.write_text(
        json.dumps({"kind": "graphic", "ground_set": [str(i) for i in range(10)], "edges": edges})
    )
    monkeypatch.setattr(af, "bergman_fan", _refuse)
    monkeypatch.setenv("NORMALVOL_CAPS", caps)
    code, out, err = run(capsys, ["hrw", "--matroid", str(path)])
    assert code == 2 and out == ""
    assert "cap" in json.loads(err)["error"]


@pytest.mark.parametrize("caps", ["", "max_dim=1", "max_rays=20"])
def test_hrw_caps_a_linear_bergman_fan_during_the_flat_search(caps, tmp_path, capsys, monkeypatch):
    # Columns (1, i, i^2) give U(3,20): d = 2 and 210 proper flats, over the default 200.
    monkeypatch.setattr(matroid, "Matroid", _refuse)
    monkeypatch.setenv("NORMALVOL_CAPS", caps)
    path = tmp_path / "u320.json"
    path.write_text(
        json.dumps(
            {
                "kind": "linear",
                "ground_set": [f"e{i}" for i in range(20)],
                "matrix": [[1, i, i * i] for i in range(1, 21)],
            }
        )
    )
    code, out, err = run(capsys, ["hrw", "--matroid", str(path)])
    assert code == 2 and out == ""
    assert "cap" in json.loads(err)["error"]


def test_hrw_caps_flats_before_the_axiom_check(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(matroid, "Matroid", _refuse)
    monkeypatch.setenv("NORMALVOL_CAPS", "max_rays=2")
    path = tmp_path / "m.json"
    flats = [[], ["a"], ["b"], ["c"], ["a", "b", "c"]]
    path.write_text(json.dumps({"kind": "flats", "ground_set": ["a", "b", "c"], "flats": flats}))
    code, out, err = run(capsys, ["hrw", "--matroid", str(path)])
    assert code == 2 and out == ""
    assert "cap" in json.loads(err)["error"]


def test_max_ground_cap_cannot_be_raised(quadrant_files, capsys, monkeypatch):
    monkeypatch.setenv("NORMALVOL_CAPS", "max_ground=21")
    code, out, err = run(capsys, ["fan-validate", "--fan", quadrant_files["fan"]])
    assert code == 2 and out == ""
    assert "max_ground" in json.loads(err)["error"]
    monkeypatch.setenv("NORMALVOL_CAPS", "max_ground=20")
    assert run(capsys, ["fan-validate", "--fan", quadrant_files["fan"]])[0] == 0


# Fan files that parse but describe no fan; each error names what is wrong.
NO_RAY_FAN = {"ambient_dim": 1, "rays": [], "max_cones": [{"rays": [], "weight": "1"}]}
DEGENERATE_FANS = {
    "no rays": (NO_RAY_FAN, "no rays"),
    "ambient_dim -1": (
        {**NO_RAY_FAN, "ambient_dim": "-1", "rays": [{"id": "a", "u": ["1"]}]},
        "ambient_dim",
    ),
    # a count that parses, refused by the fan's own bound
    "ambient_dim 0": (
        {**NO_RAY_FAN, "ambient_dim": 0, "rays": [{"id": "a", "u": ["1"]}]},
        "ambient_dim",
    ),
    "a cone repeating a ray": (
        {
            "ambient_dim": 1,
            "rays": [{"id": "a", "u": ["1"]}, {"id": "b", "u": ["-1"]}],
            "max_cones": [{"rays": ["a", "a"], "weight": "1"}, {"rays": ["b"], "weight": "1"}],
        },
        "repeats",
    ),
}


@pytest.mark.parametrize("fan", list(DEGENERATE_FANS))
@pytest.mark.parametrize(
    "command", ["cubical-find", "reduce-check", "af-check", "export-mesh", "fan-validate"]
)
def test_a_degenerate_fan_file_is_an_input_error(command, fan, tmp_path, capsys):
    raw, words = DEGENERATE_FANS[fan]
    paths = {"fan": raw, "gram": {"gram": [["1"]]}, "z": {"z": {}}}
    for key, doc in paths.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(doc))
    argv = [command, "--fan", str(tmp_path / "fan.json")]
    if command != "fan-validate":
        argv += ["--gram", str(tmp_path / "gram.json")]
    if command == "export-mesh":
        argv += ["--z", str(tmp_path / "z.json"), "--out", str(tmp_path / "mesh.obj")]
    code, out, err = run(capsys, argv)
    assert code == 2
    if command == "fan-validate":
        report = json.loads(out)
        assert not report["valid"] and words in report["error"]
    else:
        assert out == "" and words in json.loads(err)["error"]


def test_a_count_may_be_a_string_of_digits(tmp_path, capsys):
    # a matroid's rank and a fan's ambient_dim read "3" as 3, as the file format promises
    outputs = []
    for rank, ambient_dim in ((3, 2), ("3", "2")):
        matroid_path, fan_path = tmp_path / "m.json", tmp_path / "fan.json"
        ground = ["a", "b", "c", "d"]
        matroid_path.write_text(json.dumps({"kind": "uniform", "ground_set": ground, "rank": rank}))
        fan_path.write_text(json.dumps({**QUADRANT_JSON, "ambient_dim": ambient_dim}))
        hrw = run(capsys, ["hrw", "--matroid", str(matroid_path)])
        validate = run(capsys, ["fan-validate", "--fan", str(fan_path)])
        assert hrw[0] == validate[0] == 0
        outputs.append((hrw, validate))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1][0][1])["mubar"] == [1, 3, 3]


@pytest.mark.parametrize("fan", ["d = 4", "ambient dimension 4"])
def test_export_mesh_refuses_a_fan_past_dimension_3(fan, tmp_path, capsys):
    if fan == "d = 4":
        argv = fan_files(tmp_path, pm1_power(4))
    else:  # two 2-cones in R^4
        argv = two_cones_files(tmp_path, 2, [("1",) * 4])
    out_path = tmp_path / "mesh.obj"
    code, out, err = run(capsys, ["export-mesh", *argv, "--out", str(out_path)])
    assert code == 2 and out == ""
    assert "mesh export needs fan and ambient dimension <= 3" in json.loads(err)["error"]
    assert not out_path.exists()


@pytest.mark.parametrize(
    "command, method", [("volume", "poly"), ("volume", "chow"), ("mixed-volume", "chow")]
)
def test_every_method_refuses_a_z_outside_the_pseudocubical_cone(
    command, method, quadrant_files, capsys, tmp_path
):
    zneg = tmp_path / "zneg.json"
    zneg.write_text(json.dumps({"z": {"r1": "-1", "r2": "2", "r3": "3", "r4": "4"}}))
    argv = [command, "--fan", quadrant_files["fan"], "--gram", quadrant_files["gram"]]
    argv += ["--z", str(zneg)] + (["--z", quadrant_files["z"]] if command == "mixed-volume" else [])
    expected = run(capsys, argv + ["--method", "recursive"])
    assert expected[0] == 2 and expected[1] == ""
    assert run(capsys, argv + ["--method", method]) == expected
    assert json.loads(expected[2]) == {"error": "z is outside the pseudocubical cone"}


@pytest.mark.parametrize("command", ["volume", "export-mesh"])
def test_a_second_z_is_refused(command, quadrant_files, capsys, tmp_path):
    argv = [command, "--fan", quadrant_files["fan"], "--gram", quadrant_files["gram"]]
    argv += ["--z", quadrant_files["z"], "--z", quadrant_files["z2"]]
    if command == "export-mesh":
        argv += ["--out", str(tmp_path / "mesh.obj")]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "one --z" in json.loads(err)["error"]
    assert not (tmp_path / "mesh.obj").exists()


def test_error_reported_on_stderr(quadrant_files, capsys, tmp_path):
    bad_gram = tmp_path / "bad.json"
    bad_gram.write_text(json.dumps({"gram": [["1", "2"], ["0", "1"]]}))
    code, out, err = run(
        capsys,
        [
            "volume",
            "--fan",
            quadrant_files["fan"],
            "--gram",
            str(bad_gram),
            "--z",
            quadrant_files["z"],
        ],
    )
    assert code == 2 and out == ""
    assert "error" in json.loads(err)


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_exit_codes_across_a_process_boundary(quadrant_files, tmp_path):
    """``python -m normalvol.cli`` as a shell runs it: exit code, stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("NORMALVOL_CAPS", None)

    def shell(*argv):
        return subprocess.run(
            [sys.executable, "-m", "normalvol.cli", *argv], env=env, capture_output=True, text=True
        )

    files = [quadrant_files[key] for key in ("fan", "gram", "z")]
    done = shell("volume", "--fan", files[0], "--gram", files[1], "--z", files[2])
    assert (done.returncode, done.stdout, done.stderr) == (0, "48\n", "")
    no_rays, gram1 = tmp_path / "no_rays.json", tmp_path / "gram1.json"
    no_rays.write_text(json.dumps(NO_RAY_FAN))
    gram1.write_text(json.dumps({"gram": [["1"]]}))
    done = shell("cubical-find", "--fan", str(no_rays), "--gram", str(gram1))
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert isinstance(json.loads(done.stderr)["error"], str)


def test_closed_stdout_is_a_json_error(tmp_path):
    """A reader that has gone before the report is written: exit 2, one JSON error, no traceback."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("NORMALVOL_CAPS", None)
    path = tmp_path / "u56.json"
    path.write_text(json.dumps({"kind": "uniform", "ground_set": list("abcdef"), "rank": 5}))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so its first write fails
    try:
        done = subprocess.run(
            [sys.executable, "-m", "normalvol.cli", "hrw", "--matroid", str(path)],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    assert isinstance(json.loads(done.stderr)["error"], str)


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """``hrw`` on U(4,5) and ``volume --all`` on K4, byte for byte under two hash seeds."""
    path = tmp_path / "u45.json"
    path.write_text(json.dumps(HRW_GOLDEN["U45"][0]))
    commands = [["hrw", "--matroid", str(path)], _volume_golden_argv(_k4_e0, "volume", tmp_path)]
    for argv in commands:
        outs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
            env.pop("NORMALVOL_CAPS", None)
            command = [sys.executable, "-m", "normalvol.cli", *argv]
            done = subprocess.run(command, env=env, capture_output=True, text=True)
            assert (done.returncode, done.stderr) == (0, "")
            outs.append(done.stdout)
        assert outs[0] == outs[1]


# Run with ``python -S``: no site-packages, only the standard library and ``src``.
STDLIB_ONLY_HRW = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import normalvol
from normalvol import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["hrw", "--matroid", sys.argv[2]])
foreign = [
    name
    for name in sys.modules
    if name != "__main__"
    and name.partition(".")[0] not in sys.stdlib_module_names | {"normalvol"}
]
print(json.dumps({"code": code, "foreign": sorted(foreign)}))
"""


def test_library_and_cli_run_on_the_standard_library_alone(tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "NORMALVOL_CAPS")}
    path = tmp_path / "u34.json"
    path.write_text(json.dumps({"kind": "uniform", "ground_set": list("abcd"), "rank": 3}))
    done = subprocess.run(
        [sys.executable, "-S", "-c", STDLIB_ONLY_HRW, str(SRC), str(path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.stderr == ""
    assert json.loads(done.stdout) == {"code": 0, "foreign": []}


# Matroid files each lacking one key that their kind needs, or giving it a
# value of the wrong shape; "hrw" must name the key, where one is given.
BAD_MATROIDS = {
    "matroid without kind": ({"ground_set": ["a", "b", "c"], "rank": 2}, "kind"),
    "matroid without ground_set": ({"kind": "uniform", "rank": 2}, "ground_set"),
    "uniform matroid without rank": ({"kind": "uniform", "ground_set": ["a", "b"]}, "rank"),
    "graphic matroid without edges": ({"kind": "graphic", "ground_set": ["a"]}, "edges"),
    "matroid from flats without flats": ({"kind": "flats", "ground_set": ["a"]}, "flats"),
    "linear matroid without matrix": ({"kind": "linear", "ground_set": ["a"]}, "matrix"),
    "uniform matroid with rank x": ({"kind": "uniform", "ground_set": ["a"], "rank": "x"}, "rank"),
    "graphic matroid with a one-vertex edge": (
        {"kind": "graphic", "ground_set": ["a"], "edges": [["1"]]},
        "edges",
    ),
    "matroid from flats with flats 5": (
        {"kind": "flats", "ground_set": ["a"], "flats": 5},
        "flats",
    ),
    "uniform matroid with rank 2.9": (
        {"kind": "uniform", "ground_set": ["a", "b", "c"], "rank": 2.9},
        "rank",
    ),
    "uniform matroid with rank true": (
        {"kind": "uniform", "ground_set": ["a", "b", "c"], "rank": True},
        "rank",
    ),
    "linear matroid with an empty ground set": (
        {"kind": "linear", "ground_set": "", "matrix": [[1, 0], [0, 1], [1, 1]]},
        "ground_set",
    ),
    "linear matroid with ragged columns": (
        {"kind": "linear", "ground_set": ["a", "b", "c"], "matrix": [[1, 0], [0, 1], [1]]},
        None,
    ),
    "linear matroid with 2 labels for 3 columns": (
        {"kind": "linear", "ground_set": ["a", "b"], "matrix": [[1, 0], [0, 1], [1, 1]]},
        None,
    ),
    # A string is not an array, though iterating it gives one entry per character.
    "matroid with ground_set abc": (
        {"kind": "uniform", "ground_set": "abc", "rank": 2},
        "ground_set",
    ),
    "matroid with flats as strings": (
        {"kind": "flats", "ground_set": ["a", "b", "c"], "flats": ["", "a", "b", "c", "abc"]},
        "flats",
    ),
    "graphic matroid with edges as strings": (
        {"kind": "graphic", "ground_set": ["a", "b", "c"], "edges": ["12", "23", "13"]},
        "edges",
    ),
    "linear matroid with columns as strings": (
        {"kind": "linear", "ground_set": ["a", "b", "c"], "matrix": ["10", "01", "11"]},
        "matrix",
    ),
    "uniform matroid with rank 0_2": (
        {"kind": "uniform", "ground_set": ["a", "b", "c"], "rank": "0_2"},
        "rank",
    ),
}

# Fan files with one malformed key, which the error must name.
BAD_FANS = {
    "fan with ambient_dim x": ({**QUADRANT_JSON, "ambient_dim": "x"}, "ambient_dim"),
    "fan with ambient_dim 2.7": ({**QUADRANT_JSON, "ambient_dim": 2.7}, "ambient_dim"),
    "fan with ambient_dim true": ({**QUADRANT_JSON, "ambient_dim": True}, "ambient_dim"),
    "fan with a list as a cone's ray id": (
        {**QUADRANT_JSON, "max_cones": [{"rays": [[1]], "weight": "1"}]},
        "max_cones",
    ),
    "fan with a ray's u as a string": (
        {**QUADRANT_JSON, "rays": [{"id": "r1", "u": "10"}, *QUADRANT_JSON["rays"][1:]]},
        "rays",
    ),
    "fan with a cone's rays as a string": (
        {
            "ambient_dim": 2,
            "rays": [{"id": "a", "u": ["1", "0"]}, {"id": "b", "u": ["0", "1"]}],
            "max_cones": [{"rays": "ab", "weight": "1"}],
        },
        "max_cones",
    ),
}

# Gram files with no "gram" key, or with rows or entries that are not arrays.
BAD_GRAMS = {
    "Gram without gram key": ([["1", "0"], ["0", "1"]], None),
    "Gram with rows as strings": ({"gram": ["21", "12"]}, "gram"),
    "Gram as a string": ({"gram": "1"}, "gram"),
}


def test_hrw_out_holds_the_printed_report_serialized_once(tmp_path, capsys, monkeypatch):
    matroid = tmp_path / "m.json"
    matroid.write_text(json.dumps({"kind": "uniform", "ground_set": ["a", "b", "c", "d"], "rank": 3}))
    out_path = tmp_path / "report.json"
    dumps, serialized = json.dumps, []
    monkeypatch.setattr(json, "dumps", lambda *a, **k: serialized.append(a) or dumps(*a, **k))
    code, out, err = run(capsys, ["hrw", "--matroid", str(matroid), "--out", str(out_path)])
    assert (code, err, len(serialized)) == (0, "", 1)
    # the file has no trailing newline, and stdout is the file and one
    assert out_path.read_bytes() + b"\n" == out.encode()
    assert json.loads(out)["mubar"] == [1, 3, 3]


@pytest.mark.parametrize(
    "case",
    [
        "missing file",
        "malformed JSON",
        "deeply nested fan JSON",
        "deeply nested matroid JSON",
        "truncation without z",
        "bad cap",
        "hrw --out in a missing directory",
        "export-mesh --out in a missing directory",
    ]
    + list(BAD_GRAMS)
    + list(BAD_FANS)
    + list(BAD_MATROIDS),
)
def test_unreadable_input_is_a_json_error(case, quadrant_files, capsys, monkeypatch, tmp_path):
    files = dict(quadrant_files)
    bad = tmp_path / "bad.json"
    argv = None
    key = None
    if case == "missing file":
        files["fan"] = str(tmp_path / "missing.json")
    elif case == "malformed JSON":
        bad.write_text('{"ambient_dim": 2,')
        files["fan"] = str(bad)
    elif case == "deeply nested fan JSON":
        bad.write_text("[" * 200000)
        files["fan"] = str(bad)
    elif case == "deeply nested matroid JSON":
        bad.write_text("[" * 200000)
        argv = ["hrw", "--matroid", str(bad)]
    elif case == "truncation without z":
        bad.write_text(json.dumps({"r1": "1"}))
        files["z"] = str(bad)
    elif case in BAD_GRAMS:
        raw, key = BAD_GRAMS[case]
        bad.write_text(json.dumps(raw))
        files["gram"] = str(bad)
    elif case == "bad cap":
        monkeypatch.setenv("NORMALVOL_CAPS", "max_rays=abc")
    elif case == "hrw --out in a missing directory":
        bad.write_text(json.dumps(GOOD_FILES["uniform"]))
        argv = ["hrw", "--matroid", str(bad), "--out", str(tmp_path / "missing" / "report.json")]
    elif case == "export-mesh --out in a missing directory":
        argv = ["export-mesh", "--fan", files["fan"], "--gram", files["gram"], "--z", files["z"]]
        argv += ["--out", str(tmp_path / "missing" / "mesh.obj")]
    elif case in BAD_FANS:
        raw, key = BAD_FANS[case]
        bad.write_text(json.dumps(raw))
        files["fan"] = str(bad)
    else:
        raw, key = BAD_MATROIDS[case]
        bad.write_text(json.dumps(raw))
        argv = ["hrw", "--matroid", str(bad)]
    if argv is None:
        argv = ["volume", "--fan", files["fan"], "--gram", files["gram"], "--z", files["z"]]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert isinstance(json.loads(err)["error"], str)
    if key is not None:
        assert repr(key) in json.loads(err)["error"]


# -- fuzzing the file boundary ----------------------------------------------------

GOOD_FILES = {
    "fan": QUADRANT_JSON,
    "gram": GRAM2,
    "z": {"z": {"r1": "1", "r2": "2", "r3": "3", "r4": "4"}},
    "uniform": {"kind": "uniform", "ground_set": ["a", "b", "c"], "rank": 2},
    "graphic": {
        "kind": "graphic",
        "ground_set": ["a", "b", "c"],
        "edges": [[1, 2], [2, 3], [3, 1]],
    },
    "linear": {"kind": "linear", "ground_set": ["a", "b", "c"], "matrix": [[1, 0], [0, 1], [1, 1]]},
    "flats": {"kind": "flats", "ground_set": ["a", "b"], "flats": [[], ["a"], ["b"], ["a", "b"]]},
}
WRONG_VALUES = [None, True, 2.5, "", "x", [], {}, [1], [[None]]]


def _paths(node, prefix=()):
    """The path of every value inside a JSON document, the root excluded."""
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


FIELDS = [(name, path) for name, doc in GOOD_FILES.items() for path in _paths(doc)]


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# Each example runs the CLI in process (about 4 ms); the whole space has about 940 points.
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.sampled_from(FIELDS), st.sampled_from(WRONG_VALUES))
@example(("fan", ("max_cones", 0, "rays")), [[None]])
@example(("linear", ("matrix", 2)), [1])
@example(("linear", ("ground_set",)), "")
@example(("linear", ("ground_set",)), [1])
def test_wrong_typed_field_is_never_a_traceback(tmp_path, field, value):
    name, path = field
    files = {}
    for key, doc in GOOD_FILES.items():
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(_replaced(doc, path, value) if key == name else doc))
    if name in ("fan", "gram", "z"):
        argv = ["volume", "--fan", str(files["fan"]), "--gram", str(files["gram"])]
        argv += ["--z", str(files["z"])]
    else:
        argv = ["hrw", "--matroid", str(files[name])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        assert code in (2, 3)
        assert isinstance(json.loads(err.getvalue())["error"], str)
