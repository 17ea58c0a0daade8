import contextlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from normalvol import af, cli, lp, matroid, normalcx

from conftest import QUADRANT_JSON

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


@pytest.mark.parametrize("e0", ["zz", ""])
def test_hrw_refuses_an_e0_outside_the_ground_set(e0, tmp_path, capsys):
    matroid = tmp_path / "m.json"
    matroid.write_text(json.dumps({"kind": "uniform", "ground_set": ["a", "b", "c"], "rank": 2}))
    code, out, err = run(capsys, ["hrw", "--matroid", str(matroid), "--e0", e0])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"{e0!r} is not a ground set element"}


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
    monkeypatch.setattr(matroid, "_flats_from_rank_oracle", _refuse)
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


@pytest.mark.parametrize(
    "case",
    [
        "missing file",
        "malformed JSON",
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
