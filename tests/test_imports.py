"""The import graph: no Python file under `src/` or `tests/` imports a name
it never reads, and the fake REPL child loads the standard library alone.

A stdlib `ast` scan, so it needs no linter: a name bound by an `import` must
be read somewhere in its file, or be listed in the file's `__all__`.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport re as regex\nfrom a.b import c, d\n"
                          "__all__ = ['d']\nprint(os.sep)\n") == ["c", "regex"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# `python -m apollo.testing.fake_repl` runs both package `__init__` files
# before the module itself
FAKE_REPL_CHAIN = ("src/apollo/__init__.py", "src/apollo/testing/__init__.py",
                   "src/apollo/testing/fake_repl.py")


def modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after `statement`, run with the
    environment the fake REPL fixtures start their children with."""
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    return set(json.loads(out))


def apollo_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name.split(".")[0] == "apollo"}


def test_fake_repl_child_loads_only_its_own_modules_and_no_requests():
    loaded = modules_after("import apollo.testing.fake_repl")
    assert apollo_modules(loaded) == {"apollo", "apollo.testing", "apollo.testing.fake_repl"}
    assert "requests" not in loaded


def test_bare_package_import_loads_no_submodule():
    assert apollo_modules(modules_after("import apollo")) == {"apollo"}


def test_fake_repl_chain_imports_the_standard_library_alone():
    imported = []
    for rel in FAKE_REPL_CHAIN:
        for node in ast.walk(ast.parse((ROOT / rel).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(rel, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported.append((rel, "." * node.level + (node.module or "")))
    assert [(rel, name) for rel, name in imported
            if name.split(".")[0] not in sys.stdlib_module_names] == []
