"""Output checks that do not rely on the program's own helpers.

Each check recomputes its verdict from the dataset, the final proof text and
the fake Lean REPL: the sorry scan is this file's own lexer rather than
`count_sorries`, and the final text is compiled on a `FakeRepl` instance
created for that one check, so no declaration proved earlier in a run can
leak into it.  `claim_holds` re-evaluates generated have-claims with Python
integers; the generator in inputs.py applies it to its own input.
"""

from __future__ import annotations

import ast
import json
import operator
import re

_SORRY_RE = re.compile(r"(?<![\w.'])(sorry|admit)(?![\w'])")
_RELATION_RE = re.compile(r"^(.*?)\s*(=|≤|<)\s*(\d+)$")
_RELATIONS = {"=": operator.eq, "≤": operator.le, "<": operator.lt}


def code_only(text: str) -> str:
    """`text` with Lean comments (`--`, nested `/- -/`) and string literals
    blanked to spaces; newlines survive, so positions do not move."""
    out = []
    i, n = 0, len(text)
    while i < n:
        if text.startswith("--", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
        elif text.startswith("/-", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/-", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("-/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
        elif text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
        else:
            out.append(text[i])
            i += 1
            continue
        out.append("".join(c if c == "\n" else " " for c in text[i:j]))
        i = j
    return "".join(out)


def sorry_tokens(text: str) -> list[str]:
    """Every `sorry` or `admit` outside comments and strings."""
    return _SORRY_RE.findall(code_only(text))


def dataset_statements(path) -> dict[str, str]:
    """name -> statement through `:= by`, read from the dataset JSONL."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                formal = rec["formal_statement"]
                out[rec["name"]] = formal[: formal.rindex(":= by") + len(":= by")]
    return out


def statement_kept(final_text: str, statement: str) -> bool:
    """The dataset statement opens exactly one line of the final text."""
    return ("\n" + final_text).count("\n" + statement) == 1


def fresh_compile_problems(final_text: str, rules_path) -> list[str]:
    """Compile the whole final text on a fake REPL that has seen nothing else."""
    from apollo.testing.fake_repl import FakeRepl, RuleTable

    response = FakeRepl(RuleTable.load(str(rules_path))).handle(final_text)
    problems = []
    if "env" not in response:
        problems.append(f"REPL error reply: {response}")
    for msg in response.get("messages", []):
        if msg.get("severity") == "error":
            problems.append(f"compile error: {msg.get('data', '')[:80]}")
        elif "declaration uses 'sorry'" in msg.get("data", ""):
            problems.append("compiler reports a sorry")
    if response.get("sorries"):
        problems.append("compiler reports open sorries")
    return problems


def _int_value(node) -> int:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mult)):
        left, right = _int_value(node.left), _int_value(node.right)
        return left + right if isinstance(node.op, ast.Add) else left * right
    raise ValueError(f"not closed + and * arithmetic: {ast.dump(node)}")


def claim_holds(claim: str) -> bool:
    """Evaluate `<expr> <rel> <n>` over naturals with + and * only."""
    m = _RELATION_RE.match(claim.strip())
    if not m:
        raise ValueError(f"unrecognised claim {claim!r}")
    expr, relation, value = m.groups()
    return _RELATIONS[relation](_int_value(ast.parse(expr, mode="eval").body),
                                int(value))


def claim_problems(final_text: str, claims: list[str]) -> list[str]:
    """Every generated `have h<i> : <claim>` is still there.  (The generator
    checks with `claim_holds` that each claim is true.)"""
    code = code_only(final_text)
    return [f"have h{i} lost its statement"
            for i, claim in enumerate(claims, start=1)
            if f"have h{i} : {claim} :=" not in code]


class Repetitions:
    """The first `Outcome.canonical()` of each theorem in a run; every later
    repetition of that theorem must reproduce it byte for byte."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def same(self, name: str, canonical: str) -> bool:
        return self.first.setdefault(name, canonical) == canonical


def outcome_problems(workload, statements: dict[str, str], name: str,
                     status: str, final_text: str | None) -> list[str]:
    """Every way this theorem's result disagrees with the workload's design."""
    if name in workload.expect_unproved:
        return [f"{name} is proved but the design has no proof"] \
            if status == "proved" else []
    if name not in workload.expect_proved:
        return [f"{name} is not an item of {workload.name}"]
    if status != "proved" or final_text is None:
        return [f"{name} ended {status}, expected proved"]
    problems = []
    if not statement_kept(final_text, statements[name]):
        problems.append(f"{name}: the dataset statement is not kept verbatim")
    tokens = sorry_tokens(final_text)
    if tokens:
        problems.append(f"{name}: proof contains {', '.join(tokens)}")
    problems += fresh_compile_problems(final_text, workload.rules)
    if name in workload.claims:
        problems += claim_problems(final_text, workload.claims[name])
    return problems
