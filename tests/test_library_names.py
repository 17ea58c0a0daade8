"""No library name that only tests read.

A function, class or method of ``src/normalvol`` that is not exported in
``normalvol.__all__`` and whose name appears nowhere else in the library's
source is code that only a test runs; it belongs in ``tests/conftest.py``.
The search is textual: a name mentioned in another docstring counts as read.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import normalvol as nv

SRC = Path(nv.__file__).resolve().parent

# Helpers of the acceptance suite, kept in the library next to the code they exercise.
ALLOWED = {
    "boundary_limit_margins": "acceptance 11 compares boundary values with cubical limits",
    "flats_of_rank": "acceptance 6 reads the rank-1 and rank-2 flats for its degrees",
}


def test_every_library_name_is_exported_or_read_by_the_library():
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    words = Counter(w for text in texts.values() for w in re.findall(r"\w+", text))
    unread = {}
    for module, text in texts.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in nv.__all__:
                continue
            if words[name] == 1:
                unread[name] = module
    # an allowed name that the library starts to read leaves the list too
    assert sorted(unread) == sorted(ALLOWED), unread
