"""Two entry points held by a stdlib `ast` scan, so they need no linter.

Only three functions in `src/apollo/` lex text with `mask_regions`.
`parse_script` masks a script once and keeps the mask on it; `check_script`
masks a compile text, which is no parsed script; the refiner masks the raw
candidate it rewrites.  Every other reader takes a line's mask from its
script.

Only `check_script` compiles: no other function of `src/apollo/` outside
`testing/` calls `.check(`.  It has one mode, because the pp options live in
the session's environment, so no call anywhere passes `pp=`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "apollo"
ALLOWED = {("proofscript.py", "parse_script"), ("sorrifier.py", "check_script"),
           ("refiner.py", "_cut_masked_segments")}


def callers(source: str, callee: str, keyword: str | None = None) -> set[str]:
    """The names of the functions that call `callee`, as a name or an
    attribute, or with `keyword` given, that make any call passing that
    keyword; a call outside every function counts as `<module>`."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if (keyword is None and name == callee) or (
                    keyword is not None and any(k.arg == keyword for k in node.keywords)):
                found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_the_scan_finds_every_caller():
    source = ("from .proofscript import mask_regions\n"
              "import apollo.proofscript as ps\n"
              "def a(x):\n    return mask_regions(x)\n"
              "def b(x):\n    def inner():\n        return ps.mask_regions(x)\n"
              "    return inner\n"
              "def c(x, session):\n    return session.check(x, pp=True)\n"
              "MASKED = mask_regions('')\n")
    assert callers(source, "mask_regions") == {"a", "inner", "<module>"}
    assert callers(source, "check") == {"c"}
    assert callers(source, "", keyword="pp") == {"c"}


def test_only_parse_script_check_script_and_the_refiner_mask():
    found = {(path.name, caller)
             for path in PACKAGE.rglob("*.py")
             for caller in callers(path.read_text(encoding="utf-8"), "mask_regions")}
    assert found == ALLOWED


def test_check_script_alone_compiles_and_in_one_mode():
    found = {(path.name, caller)
             for path in PACKAGE.rglob("*.py") if "testing" not in path.parts
             for caller in callers(path.read_text(encoding="utf-8"), "check")}
    assert found == {("sorrifier.py", "check_script")}
    with_pp = {(str(path.relative_to(ROOT)), caller)
               for folder in ("src", "tests", "bench")
               for path in (ROOT / folder).rglob("*.py")
               for caller in callers(path.read_text(encoding="utf-8"), "", keyword="pp")}
    assert with_pp == set()
