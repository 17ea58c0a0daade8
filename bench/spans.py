"""Per-layer spans, installed from outside the library by wrapping functions.

A layer is a module of ``normalvol``.  ``TRACED`` lists the functions that
are wrapped: the public entry points of each module that the workloads
reach.  Helpers they call (``dot``, ``mat_vec``, ``Fraction``,
``multiply_divisor``, ...) are left unwrapped on purpose, so their cost stays
in the self time of the traced function that called them.

Every span records its name, start, end, parent span and job id.  Spans are
kept in memory and written out at the end of the run.  A span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute or Class.attribute, span name)
TRACED = [
    ("cli", "main", "cli"),
    ("af", "af_check", "af.af_check"),
    ("af", "hrw_verify", "af.hrw_verify"),
    ("normalcx", "Context.cone_gram_inverse", "normalcx.cone_gram_inverse"),
    ("normalcx", "Context.star_context", "normalcx.star_context"),
    ("normalcx", "w_vector", "normalcx.w_vector"),
    ("normalcx", "classify_z", "normalcx.classify_z"),
    ("normalcx", "find_cubical", "normalcx.find_cubical"),
    ("normalcx", "restrict_z", "normalcx.restrict_z"),
    ("normalcx", "vol_recursive", "normalcx.vol_recursive"),
    ("normalcx", "mvol_recursive", "normalcx.mvol_recursive"),
    ("normalcx", "mvol_polarization_oracle", "normalcx.mvol_polarization_oracle"),
    ("normalcx", "vol_polynomial", "normalcx.vol_polynomial"),
    ("normalcx", "geometric_volume_oracle", "normalcx.geometric_volume_oracle"),
    ("fan", "build_fan", "fan.build_fan"),
    ("fan", "is_tropical", "fan.is_tropical"),
    ("fan", "star", "fan.star"),
    ("lp", "simplex_max", "lp.simplex_max"),
    ("lp", "feasible_nonneg", "lp.feasible_nonneg"),
    ("lp", "max_min_slack", "lp.max_min_slack"),
    ("chow", "deg_product", "chow.deg_product"),
    ("chow", "covector", "chow.covector"),
    ("matroid", "matroid_from_json", "matroid.build"),
    ("matroid", "uniform", "matroid.build"),
    ("matroid", "graphic", "matroid.build"),
    ("matroid", "char_poly", "matroid.char_poly"),
    ("matroid", "bergman_fan", "matroid.bergman_fan"),
    ("poly", "MultiPoly.eval_at", "poly.eval_at"),
    ("poly", "MultiPoly.__mul__", "poly.mul"),
    ("linalg", "inverse", "linalg.inverse"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "det", "linalg.det"),
]

# Per-layer metrics reported by a traced run: (metric, unit).
CALLS = [
    "normalcx.restrict_z", "normalcx.star_context", "fan.star", "normalcx.classify_z",
    "normalcx.geometric_volume_oracle", "normalcx.cone_gram_inverse", "normalcx.w_vector",
    "lp.simplex_max", "lp.feasible_nonneg", "fan.build_fan", "chow.deg_product",
    "chow.covector", "fan.is_tropical", "matroid.bergman_fan", "linalg.inverse",
    "linalg.solve", "linalg.rank", "linalg.det",
]
SELF = [
    "normalcx.restrict_z", "fan.star", "normalcx.mvol_recursive", "normalcx.classify_z",
    "normalcx.geometric_volume_oracle", "normalcx.mvol_polarization_oracle", "af.af_check",
    "normalcx.cone_gram_inverse", "lp.simplex_max", "normalcx.find_cubical", "fan.build_fan",
    "chow.deg_product", "fan.is_tropical", "matroid.build", "matroid.char_poly",
    "matroid.bergman_fan", "poly.eval_at", "poly.mul", "linalg.inverse", "linalg.solve",
    "linalg.rank", "linalg.det", "cli",
]
COUNTERS = [
    "normalcx.max_bits", "lp.rows.max", "lp.cols.max", "lp.max_bits", "matroid.flats",
    "poly.vol_polynomial.terms",
]


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    return (
        [(f"{n}.calls", "count") for n in CALLS]
        + [(f"{n}.self_s", "s") for n in SELF]
        + [(n, "bits" if n.endswith("bits") else "count") for n in COUNTERS]
        + [("trace.overhead_s", "s")]
    )


def _bits(values) -> int:
    return max(
        (max(q.numerator.bit_length(), q.denominator.bit_length())
         for q in values if isinstance(q, Fraction)),
        default=0,
    )


def _flatten(obj):
    """The Fractions inside a returned value: matrices, dicts, dataclasses."""
    if isinstance(obj, Fraction):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _flatten(v)
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from _flatten(v)
    elif hasattr(obj, "coefficients"):  # normalcx.WVector
        yield from (c for _, c in obj.coefficients)


class Tracer:
    """Records spans while ``active``; ``job`` labels the spans of one job."""

    def __init__(self):
        self.active = False
        self.job = "setup"
        self.spans: list[list] = []  # [name, parent, job, start_ns, end_ns, observe_ns]
        self.stack: list[int] = []
        self.counters: dict[tuple[str, str], int] = defaultdict(int)
        self._seen_inverses: set[int] = set()

    # -- observers: counts taken at the layer boundary --------------------

    def _max(self, key: str, value: int) -> None:
        slot = (self.job, key)
        if value > self.counters[slot]:
            self.counters[slot] = value

    def _observe(self, name: str, args, result) -> None:
        if name == "lp.simplex_max":
            a, b, c = args
            self._max("lp.rows.max", len(a))
            self._max("lp.cols.max", len(c))
            self._max("lp.max_bits", _bits(_flatten([a, b, c, result])))
        elif name == "normalcx.cone_gram_inverse":
            if id(result) not in self._seen_inverses:  # cached matrices repeat
                self._seen_inverses.add(id(result))
                self._max("normalcx.max_bits", _bits(_flatten(result)))
        elif name in ("normalcx.w_vector", "normalcx.restrict_z", "normalcx.vol_recursive",
                      "normalcx.mvol_recursive", "normalcx.mvol_polarization_oracle",
                      "normalcx.geometric_volume_oracle"):
            self._max("normalcx.max_bits", _bits(_flatten(result)))
        elif name == "normalcx.vol_polynomial":
            self._max("poly.vol_polynomial.terms", len(result.terms))
        elif name == "matroid.build":
            parent = self.stack[-1] if self.stack else -1
            if parent < 0 or self.spans[parent][0] != "matroid.build":
                self.counters[(self.job, "matroid.flats")] += len(result.flats)

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, self.job, clock(), 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            self._observe(name, args, result)
            rec[5] = clock() - rec[4]  # observer time is excluded from the parent's self time
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, nv) -> None:
        """Replace every attribute that refers to a traced function.

        The package ``nv`` and its traced modules, and every class defined in
        them, are scanned, so re-exports (``af.mvol_recursive``,
        ``normalvol.classify_z``, ``matroid.matrix_rank``) are wrapped too.
        """
        modules = {mod: getattr(nv, mod) for mod, _, _ in TRACED}
        modules["normalvol"] = nv
        wrappers = {}
        for mod, attr, name in TRACED:
            owner = modules[mod]
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            fn = vars(owner)[attr.split(".")[-1]]
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        scopes = []
        for module in modules.values():
            scopes.append(module)
            scopes.extend(v for v in vars(module).values()
                          if isinstance(v, type) and v.__module__ == module.__name__)
        for scope in scopes:
            for key, value in list(vars(scope).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(scope, key, hit[1])

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of every span in ns: duration minus child durations."""
        child = [0] * len(self.spans)
        for name, parent, job, start, end, observe in self.spans:
            if parent >= 0:
                child[parent] += end - start + observe
        return [s[4] - s[3] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_ns[span[0]] += own
        out: dict[str, float] = {}
        for n in CALLS:
            out[f"{n}.calls"] = calls[n]
        for n in SELF:
            out[f"{n}.self_s"] = self_ns[n] / 1e9
        for n in COUNTERS:
            values = [v for (job, key), v in self.counters.items() if key == n]
            out[n] = sum(values) if n == "matroid.flats" else max(values, default=0)
        return out

    def job_counts(self) -> dict[str, dict[str, int]]:
        """Calls per span name and counters, per job: the determinism fingerprint."""
        out: dict[str, dict[str, int]] = defaultdict(dict)
        for span in self.spans:
            row = out[span[2]]
            row[f"{span[0]}.calls"] = row.get(f"{span[0]}.calls", 0) + 1
        for (job, key), v in self.counters.items():
            out[job][key] = v
        return {job: dict(sorted(row.items())) for job, row in out.items()}

    def write(self, path: str, header: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        jobs = sorted({s[2] for s in self.spans})
        jindex = {j: i for i, j in enumerate(jobs)}
        payload = dict(header)
        payload.update({
            "span_fields": ["name", "parent", "job", "start_ns", "end_ns", "self_ns"],
            "names": names,
            "jobs": jobs,
            "spans": [
                [index[s[0]], s[1], jindex[s[2]], s[3], s[4], own]
                for s, own in zip(self.spans, self.self_times())
            ],
            "job_counts": self.job_counts(),
        })
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
