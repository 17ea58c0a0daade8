"""Command-line interface.

All numeric I/O is exact: rationals travel as strings in JSON and reports
are deterministic for identical inputs and seed.  Exit codes: 0 all
verdicts pass, 2 a verdict fails (or an input is invalid), 3 the cubical
cone is empty and the requested check is undefined.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from . import af, chow, normalcx
from .errors import DimTooLarge, InputError, NormalVolError
from .fan import MarkedFan, fan_to_json, is_tropical, parse_fan
from .linalg import Mat, qmat
from .matroid import GROUND_SET_CAP, matroid_from_json
from .normalcx import Context, ZValues
from .serialize import format_rat, parse_list, parse_rat, read_field

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_UNDEFINED = 3


@dataclass
class Caps:
    max_ground: int = GROUND_SET_CAP
    max_rays: int = 200
    max_dim: int = 6


def _caps_from_env() -> Caps:
    caps = Caps()
    raw = os.environ.get("NORMALVOL_CAPS", "")
    for part in raw.split(","):
        if not part.strip():
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("max_ground", "max_rays", "max_dim") or not value.strip().isdecimal():
            raise InputError(f"unknown cap or non-integer value {part!r} in NORMALVOL_CAPS")
        setattr(caps, key, int(value))
    if caps.max_ground > GROUND_SET_CAP:
        raise InputError(
            f"max_ground={caps.max_ground} in NORMALVOL_CAPS exceeds the hard cap {GROUND_SET_CAP}"
        )
    return caps


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:  # unreadable file or malformed JSON
        raise InputError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:  # missing directory, no permission
        raise InputError(f"cannot write {path}: {exc}") from None


def _check_fan_caps(rays: int, d: int, caps: Caps) -> None:
    """Refuse a fan over the caps; ``rays`` and ``d`` may be lower bounds."""
    if rays > caps.max_rays:
        raise NormalVolError(f"fan has at least {rays} rays, cap is {caps.max_rays}")
    if d > caps.max_dim:
        raise DimTooLarge(f"fan dimension {d} exceeds the cap {caps.max_dim}")


def _load_fan(path: str, caps: Caps) -> MarkedFan:
    """The fan of a file, its caps checked before ``MarkedFan`` validates anything."""
    ambient_dim, rays, max_cones = parse_fan(_load_json(path))
    d = max((len(ray_ids) for ray_ids, _ in max_cones), default=0)
    _check_fan_caps(len(rays), d, caps)
    return MarkedFan(ambient_dim, rays, max_cones)


def _load_gram(path: str) -> Mat:
    rows = partial(parse_list, convert=partial(parse_list, convert=parse_rat))
    return qmat(read_field(_load_json(path), "the Gram file", "gram", rows))


def _load_z(path: str, fan: MarkedFan) -> ZValues:
    return normalcx.zvalues_from_json(_load_json(path), fan)


def _one_z_path(args) -> str:
    if len(args.z) != 1:
        raise InputError(f"{args.command} takes one --z, got {len(args.z)}")
    return args.z[0]


def _load_pseudocubical(paths: list[str], ctx: Context) -> list[ZValues]:
    """The z of each path, classified once, so that every method refuses the same z."""
    zs = [_load_z(path, ctx.fan) for path in paths]
    for z in zs:
        normalcx.require_pseudocubical(normalcx.classify_z(ctx, z))
    return zs


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _rat_map(z: ZValues) -> dict:
    return {rid: format_rat(v) for rid, v in sorted(z.items())}


# -- subcommands -------------------------------------------------------------


def cmd_fan_validate(args, caps: Caps) -> int:
    try:
        fan = _load_fan(args.fan, caps)
    except NormalVolError as exc:
        _emit({"valid": False, "error": str(exc)})
        return EXIT_FAIL
    report = is_tropical(fan)
    _emit(
        {
            "valid": True,
            "simplicial": True,
            "pure": True,
            "faces_meet_checked": fan.faces_meet_checked,
            "tropical": report.is_tropical,
            "failing_cones": [sorted(c) for c in report.failing],
        }
    )
    return EXIT_PASS if report.is_tropical else EXIT_FAIL


def _geom_volume(ctx: Context, z: ZValues) -> Fraction:
    total = Fraction(0)
    for sigma in ctx.fan.max_cones:
        total += ctx.fan.weights[sigma] * normalcx.geometric_volume_oracle(ctx, sigma, z)
    return total


def _run_methods(args, fan: MarkedFan, methods: dict[str, Callable[[], Fraction]]) -> int:
    """Print the value of ``--method``, or with ``--all`` every value and whether they agree.

    ``--all`` skips "geom" when d > 3 and "chow" on a fan that is not tropical.
    """
    if not args.all:
        print(format_rat(methods[args.method]()))
        return EXIT_PASS
    values = {}
    for name, compute in methods.items():
        if name == "geom" and fan.d > 3:
            continue
        if name == "chow" and not is_tropical(fan).is_tropical:
            continue
        values[name] = compute()
    agree = len(set(values.values())) == 1
    _emit({"values": {k: format_rat(v) for k, v in values.items()}, "agree": agree})
    return EXIT_PASS if agree else EXIT_FAIL


def cmd_volume(args, caps: Caps) -> int:
    path = _one_z_path(args)
    fan = _load_fan(args.fan, caps)
    ctx = Context(fan, _load_gram(args.gram))
    (z,) = _load_pseudocubical([path], ctx)
    methods = {
        "recursive": lambda: normalcx.vol_recursive(ctx, z),
        "poly": lambda: normalcx.vol_polynomial(ctx).eval_at(z),
        "geom": lambda: _geom_volume(ctx, z),
        "chow": lambda: chow.deg_product(fan, [z] * fan.d),
    }
    return _run_methods(args, fan, methods)


def cmd_mixed_volume(args, caps: Caps) -> int:
    fan = _load_fan(args.fan, caps)
    ctx = Context(fan, _load_gram(args.gram))
    zs = _load_pseudocubical(args.z, ctx)
    methods = {
        "recursive": lambda: normalcx.mvol_recursive(ctx, zs),
        "polarization": lambda: normalcx.mvol_polarization_oracle(ctx, zs),
        "chow": lambda: chow.deg_product(fan, zs),
    }
    return _run_methods(args, fan, methods)


def cmd_cubical_find(args, caps: Caps) -> int:
    fan = _load_fan(args.fan, caps)
    ctx = Context(fan, _load_gram(args.gram))
    found = normalcx.find_cubical(ctx)
    if found is None:
        _emit({"cubical_nonempty": False})
        return EXIT_UNDEFINED
    z, slack = found
    _emit({"cubical_nonempty": True, "z": _rat_map(z), "slack": format_rat(slack)})
    return EXIT_PASS


def cmd_af_check(args, caps: Caps) -> int:
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    fan = _load_fan(args.fan, caps)
    ctx = Context(fan, _load_gram(args.gram))
    if args.z:
        tuples = [[_load_z(path, fan) for path in args.z]]
        sampled = False
    else:
        flat = af.sample_cubical(ctx, args.samples * fan.d, args.seed)
        if not flat:
            _emit({"verdict": "undefined", "reason": "empty cubical cone"})
            return EXIT_UNDEFINED
        tuples = [flat[i * fan.d : (i + 1) * fan.d] for i in range(args.samples)]
        sampled = True
    margins = [af.af_check(ctx, zs) for zs in tuples]
    all_ok = all(m >= 0 for m in margins)
    _emit(
        {
            "verdict": "pass" if all_ok else "fail",
            "sampled": sampled,
            "seed": args.seed if sampled else None,
            "margins": [format_rat(m) for m in margins],
        }
    )
    return EXIT_PASS if all_ok else EXIT_FAIL


def cmd_reduce_check(args, caps: Caps) -> int:
    fan = _load_fan(args.fan, caps)
    ctx = Context(fan, _load_gram(args.gram))
    report = af.check_reduce_conditions(ctx)
    _emit(
        {
            "verdict": report.verdict,
            "condition_i": {
                "pass": report.condition_i_pass,
                "failing_cones": [sorted(c) for c in report.condition_i_failing],
            },
            "condition_ii": {
                "pass": report.condition_ii_pass,
                "signatures": [
                    {
                        "cone": sorted(cone),
                        "n_plus": sig.n_plus,
                        "n_minus": sig.n_minus,
                        "n_zero": sig.n_zero,
                    }
                    for cone, sig in report.condition_ii_signatures
                ],
            },
            "cubical_nonempty": report.cub_nonempty,
            "cubical_witness": _rat_map(report.cubical_witness)
            if report.cubical_witness
            else None,
        }
    )
    if report.verdict == "undefined":
        return EXIT_UNDEFINED
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


def cmd_hrw(args, caps: Caps) -> int:
    m = matroid_from_json(
        _load_json(args.matroid), caps.max_ground, partial(_check_fan_caps, caps=caps)
    )
    e0 = m.ground[0] if args.e0 is None else args.e0
    report = af.hrw_verify(m, e0)
    payload = {
        "verdict": report.verdict,
        "e0": e0,
        "mubar": list(report.mubar_char),
        "mu": list(report.mu),
        "log_concave": report.log_concave,
        "unimodal": report.unimodal,
        "mu_log_concave": report.mu_log_concave,
        "mu_unimodal": report.mu_unimodal,
        "bergman_fan": fan_to_json(report.fan),
    }
    if args.out:
        _write(args.out, json.dumps(payload, indent=2, sort_keys=True))
    _emit(payload)
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


def cmd_deg(args, caps: Caps) -> int:
    fan = _load_fan(args.fan, caps)
    zs = [_load_z(path, fan) for path in args.z]
    print(format_rat(chow.deg_product(fan, zs)))
    return EXIT_PASS


def cmd_export_mesh(args, caps: Caps) -> int:
    path = _one_z_path(args)
    fan = _load_fan(args.fan, caps)
    if fan.d > 3 or fan.ambient_dim > 3:
        raise DimTooLarge("mesh export needs fan and ambient dimension <= 3")
    ctx = Context(fan, _load_gram(args.gram))
    z = _load_z(path, fan)
    lines = ["# normal complex mesh"]
    vertex_count = 0
    for sigma in sorted(fan.max_cones, key=sorted):
        rids = sorted(sigma)
        vertices = normalcx.polytope_vertices(ctx, sigma, z)
        local = {}
        for face in sorted(vertices, key=sorted):
            coords = vertices[face]
            padded = tuple(float(c) for c in coords) + (0.0,) * (3 - len(coords))
            vertex_count += 1
            local[face] = vertex_count
            lines.append("v {:.12g} {:.12g} {:.12g}".format(*padded))
        lines.append(f"g cone_{'_'.join(rids)}")
        lines.extend(_obj_faces(rids, local))
    _write(args.out, "\n".join(lines) + "\n")
    _emit({"out": args.out, "vertices": vertex_count, "cones": len(fan.max_cones)})
    return EXIT_PASS


def _obj_faces(rids: list[str], local: dict) -> list[str]:
    """Faces of one combinatorial-cube polytope, triangulated fan-wise."""

    def quad(cycle) -> list[str]:
        ids = [local[frozenset(f)] for f in cycle]
        return [f"f {ids[0]} {ids[i]} {ids[i + 1]}" for i in range(1, 3)]

    if len(rids) == 1:
        return [f"l {local[frozenset()]} {local[frozenset(rids)]}"]
    if len(rids) == 2:
        a, b = rids
        return quad([(), (a,), (a, b), (b,)])
    a, b, c = rids
    out: list[str] = []
    for axis, (u, v) in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
        for present in (False, True):
            base: tuple = (axis,) if present else ()
            out.extend(quad([base, base + (u,), base + (u, v), base + (v,)]))
    return out


# -- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normalvol",
        description="Exact volumes, mixed volumes, and log-concavity checks for normal complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *, fan=False, gram=False, z=0, matroid=False, out=False, method=None):
        p = sub.add_parser(name)
        if fan:
            p.add_argument("--fan", required=True)
        if gram:
            p.add_argument("--gram", required=True)
        if z:
            p.add_argument("--z", action="append", default=[], required=z == 2)
        if matroid:
            p.add_argument("--matroid", required=True)
            p.add_argument("--e0", default=None)
        if out:
            p.add_argument("--out", required=out == 2, default=None)
        if method:
            p.add_argument("--method", choices=method, default=method[0])
            p.add_argument("--all", action="store_true")
        p.set_defaults(func=func)
        return p

    add("fan-validate", cmd_fan_validate, fan=True)
    add("volume", cmd_volume, fan=True, gram=True, z=2, method=("recursive", "poly", "geom", "chow"))
    add(
        "mixed-volume",
        cmd_mixed_volume,
        fan=True,
        gram=True,
        z=2,
        method=("recursive", "polarization", "chow"),
    )
    add("cubical-find", cmd_cubical_find, fan=True, gram=True)
    af_check = add("af-check", cmd_af_check, fan=True, gram=True, z=1)
    af_check.add_argument("--samples", type=int, default=25)
    af_check.add_argument("--seed", type=int, default=0)
    add("reduce-check", cmd_reduce_check, fan=True, gram=True)
    add("hrw", cmd_hrw, matroid=True, out=True)
    add("export-mesh", cmd_export_mesh, fan=True, gram=True, z=2, out=2)
    add("deg", cmd_deg, fan=True, z=2)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        caps = _caps_from_env()
        code = args.func(args, caps)
        sys.stdout.flush()  # so that a closed reader shows here, not at interpreter exit
        return code
    except NormalVolError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        # The reader is gone; send what is still buffered to devnull so the exit flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(json.dumps({"error": "standard output was closed by its reader"}), file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
