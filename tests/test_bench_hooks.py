"""The benchmark's span wrappers must find every function they trace.

``Tracer.install`` in ``bench/spans.py`` looks each (module, attribute) of
``TRACED`` up in the module's or class's ``vars`` and raises KeyError for a
missing name, so a function deleted or renamed in the library would break
``bench/run.py --trace 1``.  This test does the same lookup, on the same
imports as ``bench/run.py``, without installing anything.
"""

import importlib.util
from pathlib import Path

import normalvol as nv
import normalvol.cli  # noqa: F401  (imported by bench/run.py before the tracer is installed)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    missing = []
    for mod, attr, _ in _traced():
        owner = getattr(nv, mod, None)
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(vars(owner).get(last) if owner is not None else None):
            missing.append(f"{mod}.{attr}")
    assert missing == []
