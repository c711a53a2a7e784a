"""Only three functions in `src/apollo/` lex text with `mask_regions`.

`parse_script` masks a script once and keeps the mask on it; `check_script`
masks a compile text, which is no parsed script; the refiner masks the raw
candidate it rewrites.  Every other reader takes a line's mask from its
script.  A stdlib `ast` scan, so it needs no linter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "apollo"
ALLOWED = {("proofscript.py", "parse_script"), ("sorrifier.py", "check_script"),
           ("refiner.py", "_cut_masked_segments")}


def mask_callers(source: str) -> set[str]:
    """The names of the functions that call `mask_regions`; a call outside
    every function counts as `<module>`."""
    callers = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name == "mask_regions":
                callers.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return callers


def test_the_scan_finds_every_caller():
    source = ("from .proofscript import mask_regions\n"
              "import apollo.proofscript as ps\n"
              "def a(x):\n    return mask_regions(x)\n"
              "def b(x):\n    def inner():\n        return ps.mask_regions(x)\n"
              "    return inner\n"
              "def c(x):\n    return x\n"
              "MASKED = mask_regions('')\n")
    assert mask_callers(source) == {"a", "inner", "<module>"}


def test_only_parse_script_check_script_and_the_refiner_mask():
    found = {(path.name, caller)
             for path in PACKAGE.rglob("*.py")
             for caller in mask_callers(path.read_text(encoding="utf-8"))}
    assert found == ALLOWED
