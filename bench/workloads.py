"""The three workloads: seeded inputs, the timed job list, and answer checks.

``hrw-ladder`` and ``cubical-lp`` enter through ``normalvol.cli.main`` in
process, with its output captured; ``crosscheck-dense`` is a session on the
public library API.  Each workload function does the set-up (input
generation, loading, and what is kept across jobs) and returns the jobs.
A job's ``run`` is timed; its ``check`` is not, and returns None when the
answer is right or a description of what is wrong.

Library functions are looked up through module attributes at call time, so
that the wrappers of a traced run see every call.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import inputs


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Session:
    jobs: list[Job]
    structure: dict[str, dict] = field(default_factory=dict)  # per input


def _write_json(workdir: str, name: str, payload: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path


def _cli(nv, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = nv.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _identity_gram(n: int) -> dict:
    return {"gram": [["1" if i == j else "0" for j in range(n)] for i in range(n)]}


# -- hrw-ladder ----------------------------------------------------------------


def hrw_ladder(nv, seed: int, workdir: str) -> Session:
    """`normalvol hrw` on U(4,5), K5 and U(5,6), each job from a cold start."""
    rng = random.Random(seed)
    ladder = [
        inputs.uniform("U45", 4, inputs.renamed_labels(5, rng)),
        inputs.graphic("K5", inputs.K5_EDGES, inputs.renamed_labels(10, rng)),
        inputs.uniform("U56", 5, inputs.renamed_labels(6, rng)),
    ]
    session = Session([])
    for m in ladder:
        path = _write_json(workdir, f"{m.name}.json", m.to_json())
        structure = m.structure()
        session.structure[m.name] = structure
        session.jobs.append(Job(
            f"hrw:{m.name}",
            lambda path=path, e0=m.e0: _cli(nv, ["hrw", "--matroid", path, "--e0", e0]),
            lambda answer, mubar=m.mubar(), s=structure: _check_hrw(answer, mubar, s),
        ))
    return session


def _check_hrw(answer, mubar: list[int], structure: dict) -> str | None:
    code, out, err = answer
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    report = json.loads(out)
    if report["mubar"] != mubar:
        return f"mubar {report['mubar']} != closed form {mubar}"
    if report["verdict"] != "pass":
        return f"verdict {report['verdict']}"
    fan = report["bergman_fan"]
    if (len(fan["rays"]), len(fan["max_cones"])) != (structure["rays"], structure["max_cones"]):
        return "Bergman fan has the wrong number of rays or maximal cones"
    return None


# -- cubical-lp ------------------------------------------------------------------

# Optimal slack of find_cubical's LP on the e0 Bergman fan, identity Gram.
# It is the LP's unique optimum value, which relabelling does not change.
LP_OPTIMUM = {"U34": Fraction(1, 32), "K4": Fraction(5, 271), "U35": Fraction(1, 57)}


def cubical_lp(nv, seed: int, workdir: str) -> Session:
    """`normalvol cubical-find` on the Bergman fans of U(3,4), K4 and U(3,5)."""
    rng = random.Random(seed)
    ladder = [
        inputs.uniform("U34", 3, inputs.renamed_labels(4, rng)),
        inputs.graphic("K4", inputs.K4_EDGES, inputs.renamed_labels(6, rng)),
        inputs.uniform("U35", 3, inputs.renamed_labels(5, rng)),
    ]
    session = Session([])
    for m in ladder:
        fan_json = m.bergman_fan_json()
        gram_json = _identity_gram(fan_json["ambient_dim"])
        fan_path = _write_json(workdir, f"{m.name}.fan.json", fan_json)
        gram_path = _write_json(workdir, f"{m.name}.gram.json", gram_json)
        session.structure[m.name] = m.structure()
        session.jobs.append(Job(
            f"cubical-find:{m.name}",
            lambda f=fan_path, g=gram_path: _cli(nv, ["cubical-find", "--fan", f, "--gram", g]),
            _cubical_checker(nv, fan_json, LP_OPTIMUM[m.name]),
        ))
    return session


def _cubical_checker(nv, fan_json: dict, optimum: Fraction):
    contexts = []  # built on first use, outside every timed region

    def check(answer) -> str | None:
        code, out, err = answer
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        report = json.loads(out)
        if not report["cubical_nonempty"]:
            return "cubical cone reported empty"
        if Fraction(report["slack"]) != optimum:
            return f"slack {report['slack']} != LP optimum {optimum}"
        if not contexts:
            fan = nv.build_fan(fan_json)
            contexts.append(nv.Context(fan, nv.linalg.identity(fan.ambient_dim)))
        z = {rid: Fraction(v) for rid, v in report["z"].items()}
        if set(z) != set(contexts[0].fan.rays):
            return "witness is not indexed by the fan's rays"
        if not nv.classify_z(contexts[0], z).is_cubical:
            return "witness is not cubical"
        return None

    return check


# -- crosscheck-dense ---------------------------------------------------------------

# Cubical witness of the U(4,5) Bergman fan (identity Gram), by the
# class (|F|, e0 in F) of the flat F.  Found by the symmetry-reduced LP; the
# same values are the U45 witness of the test suite.
U45_WITNESS_CLASSES = {
    (1, False): Fraction(3, 37),
    (1, True): Fraction(9, 37),
    (2, False): Fraction(5, 37),
    (2, True): Fraction(8, 37),
    (3, False): Fraction(6, 37),
    (3, True): Fraction(6, 37),
}
CROSSCHECK_JOBS = 3


def crosscheck_dense(nv, seed: int, workdir: str) -> Session:
    """Every volume and mixed-volume route on U(4,5) with a dense rational Gram.

    Rays u become A u and the Gram becomes A^-T A^-1, which keeps every
    pairing, so cubicality and every exact value stay those of the identity
    Gram while the numbers the library handles become dense rationals.  The
    seed picks the label names and the job tuples.
    """
    rng = random.Random(seed)
    m = inputs.uniform("U45", 4, inputs.renamed_labels(5, rng))
    a, a_inv = inputs.dense_matrix(4)
    gram = inputs.mat_mul(inputs.transpose(a_inv), a_inv)
    fan = nv.build_fan(m.bergman_fan_json(a))
    ctx = nv.Context(fan, tuple(tuple(row) for row in gram))
    witness = {
        m.ray_id(f): U45_WITNESS_CLASSES[(len(f), m.e0 in f)] for f in m.proper_flats()
    }
    if not nv.classify_z(ctx, witness).is_cubical:
        raise RuntimeError("the U(4,5) witness is not cubical in the dense realisation")
    rays = sorted(witness)

    def perturbed() -> dict[str, Fraction]:
        # A fixed step keeps every job's denominators the same size; at this
        # step nearly every direction stays cubical, the rest are redrawn.
        while True:
            z = {rid: witness[rid] + Fraction(rng.randint(-100, 100), 25600) for rid in rays}
            if nv.classify_z(ctx, z).is_cubical:
                return z

    tuples = [[perturbed() for _ in range(3)] for _ in range(CROSSCHECK_JOBS + 1)]
    # Warm-up: fill the star-context, covector and volume-polynomial caches.
    nv.vol_recursive(ctx, tuples[0][0])
    nv.vol_polynomial(ctx)
    nv.deg_product(fan, tuples[0])
    session = Session([], {m.name: m.structure()})
    for i, zs in enumerate(tuples[1:]):
        session.jobs.append(Job(
            f"crosscheck:{i}", lambda zs=zs: _crosscheck_job(nv, ctx, zs), _check_crosscheck
        ))
    return session


def _crosscheck_job(nv, ctx, zs) -> dict:
    fan, z1 = ctx.fan, zs[0]
    geometric = Fraction(0)
    for sigma in fan.max_cones:
        geometric += fan.weights[sigma] * nv.normalcx.geometric_volume_oracle(ctx, sigma, z1)
    return {
        "vol": [
            nv.vol_recursive(ctx, z1),
            nv.vol_polynomial(ctx).eval_at(z1),
            geometric,
            nv.deg_product(fan, [z1] * fan.d),
        ],
        "mvol": [
            nv.mvol_recursive(ctx, zs),
            nv.mvol_polarization_oracle(ctx, zs),
            nv.deg_product(fan, zs),
        ],
        "af_margin": nv.af_check(ctx, zs),
    }


def _check_crosscheck(answer: dict) -> str | None:
    for key in ("vol", "mvol"):
        if len(set(answer[key])) != 1:
            return f"{key} routes disagree: {[str(v) for v in answer[key]]}"
    if answer["vol"][0] <= 0:
        return "volume is not positive"
    if answer["af_margin"] < 0:
        return f"AF margin {answer['af_margin']} < 0"
    return None


WORKLOADS: dict[str, Callable[..., Session]] = {
    "hrw-ladder": hrw_ladder,
    "cubical-lp": cubical_lp,
    "crosscheck-dense": crosscheck_dense,
}
