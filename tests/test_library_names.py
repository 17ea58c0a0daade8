"""No library name that only tests read.

A function, class or method of ``src/normalvol`` that is not exported in
``normalvol.__all__`` and whose name appears nowhere else in the library's
source is code that only a test runs; it belongs in ``tests/conftest.py``.
The search is textual: a name mentioned in another docstring counts as read.
Every name that a module other than ``__init__`` imports must be read in it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import normalvol as nv

SRC = Path(nv.__file__).resolve().parent

# Names that only tests read, kept in the library on purpose: none.
ALLOWED: dict[str, str] = {}


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


def _imported_names(tree):
    """(name bound, line) for every import of a module, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).partition(".")[0], node.lineno


def test_every_library_import_is_read_in_its_module():
    # __init__ imports to re-export; every other module reads what it imports
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [
            f"{path.name}:{line} {name}" for name, line in _imported_names(tree) if name not in read
        ]
    assert unread == []
