"""A simulated Lean REPL for tests and offline runs.

Speaks the same wire protocol as the real REPL: one JSON request per
blank-line-terminated block on stdin, one JSON response per blank-line
terminated block on stdout.  Requests carry {"cmd": source, "env": id};
responses carry {"env": id, "messages": [...], "sorries": [...]} with
1-based lines and 0-based columns.

The "kernel" is a tiny tactic interpreter:

* `sorry`/`admit` close any goal and record it, rendering the hypotheses
  in scope followed by a `⊢ target` line (numerals get explicit type
  ascriptions when the pp set_options are present in the submitted code);
* `rfl`, `trivial`, `assumption`, `exact <hyp>` behave structurally;
  `exact <name>` also sees a theorem proved earlier in the same command,
  never one from another command, since each is sent against the header
  environment alone;
* `norm_num`, `omega` and `decide` evaluate closed rational arithmetic;
* `hint` emits a "Try these:" info message from a suggestion table;
* everything else is resolved against a rule table loaded with --rules:
  entries either close a goal, or step it to a new goal, optionally
  requiring named hypotheses to be in scope.

Directives for failure-mode tests, anywhere in the submitted code:
`--#fake_sleep=SECONDS` delays the reply; `--#fake_crash` kills the
process without replying.

This module is intentionally self-contained (stdlib only) so that it can
serve as an independent oracle for the rest of the package.

Usage: python3 -m apollo.testing.fake_repl [--rules rules.json]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

KNOWN_IMPORTS = {"Mathlib", "Aesop", "Init", "Lean"}

KNOWN_TACTICS = {
    "norm_num", "simp", "simp_all", "ring", "ring_nf", "norm_cast",
    "nlinarith", "linarith", "positivity", "omega", "field_simp",
    "decide", "rfl", "trivial", "exact", "apply", "rw", "rwa", "intro",
    "intros", "constructor", "gcongr", "aesop", "hint", "sorry", "admit",
    "assumption", "calc", "unfold", "push_neg", "bound", "simp_rw",
    "norm_fin", "positivity!", "polyrith",
}

_ANNOT_RE = re.compile(r"\(\s*(\d+(?:\.\d+)?)\s*:\s*[^()]*\)")
# exponents stay bare: `x ^ 2` keeps its numeral unannotated
_NUM_RE = re.compile(r"(?<![\w.₀-₉])(?<!\^)(?<!\^ )(\d+)(?![\w.₀-₉])")
_DECL_RE = re.compile(r"^(theorem|lemma|example)\b")
_HAVE_RE = re.compile(r"^have\s+([^\s:]+)\s*:\s*(.*?):=\s*by\b(.*)$")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_'.!?₀-₉]*")

_COMPARERS = ["≤", "≥", "≠", "<=", ">=", "!=", "=", "<", ">"]


def norm_text(s: str) -> str:
    """Whitespace-collapsed text with numeral type ascriptions removed."""
    prev = None
    while prev != s:
        prev = s
        s = _ANNOT_RE.sub(r"\1", s)
    return " ".join(s.split())


# --- closed rational arithmetic -------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+\.\d+|\d+|\*\*|[-+*/^()])")


def _tokenize_arith(expr: str):
    tokens = []
    pos = 0
    while pos < len(expr):
        if expr[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(expr, pos)
        if not m:
            return None
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _eval_arith(expr: str) -> Fraction | None:
    tokens = _tokenize_arith(expr)
    if tokens is None or not tokens:
        return None
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def atom():
        tok = peek()
        if tok == "(":
            take()
            val = add()
            if peek() != ")":
                raise ValueError
            take()
            return val
        if tok == "-":
            take()
            return -atom()
        if tok is None or tok in "+*/^)":
            raise ValueError
        take()
        return Fraction(tok)

    def power():
        base = atom()
        if peek() in ("^", "**"):
            take()
            exp = power()
            if exp.denominator != 1:
                raise ValueError
            return base ** int(exp)
        return base

    def mul():
        val = power()
        while peek() in ("*", "/"):
            if take() == "*":
                val = val * power()
            else:
                val = val / power()
        return val

    def add():
        val = mul()
        while peek() in ("+", "-"):
            if take() == "+":
                val = val + mul()
            else:
                val = val - mul()
        return val

    try:
        result = add()
    except (ValueError, ZeroDivisionError, ArithmeticError):
        return None
    return result if pos == len(tokens) else None


def check_numeric_goal(goal: str) -> bool | None:
    """True/False for a decidable closed comparison, None if not numeric."""
    goal = norm_text(goal)
    for op in _COMPARERS:
        if op in goal:
            lhs, _, rhs = goal.partition(op)
            lv, rv = _eval_arith(lhs), _eval_arith(rhs)
            if lv is None or rv is None:
                return None
            return {
                "=": lv == rv, "≠": lv != rv, "!=": lv != rv,
                "<": lv < rv, ">": lv > rv,
                "≤": lv <= rv, "<=": lv <= rv,
                "≥": lv >= rv, ">=": lv >= rv,
            }[op]
    return None


# --- rule table ------------------------------------------------------------

@dataclass
class RuleTable:
    closes: list[dict] = field(default_factory=list)
    steps: list[dict] = field(default_factory=list)
    hints: dict[str, list[str]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | None) -> "RuleTable":
        if not path:
            return cls()
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        table = cls()
        for rec in raw.get("closes", []):
            table.closes.append({
                "goal": norm_text(rec["goal"]),
                "tactic": norm_text(rec["tactic"]),
                "requires": rec.get("requires", []),
            })
        for rec in raw.get("steps", []):
            table.steps.append({
                "goal": norm_text(rec["goal"]),
                "tactic": norm_text(rec["tactic"]),
                "becomes": rec["becomes"],
                "requires": rec.get("requires", []),
            })
        for rec in raw.get("hints", []):
            table.hints[norm_text(rec["goal"])] = list(rec["suggest"])
        return table


# --- theorem evaluation ----------------------------------------------------

@dataclass
class EvalLine:
    no: int       # 1-based line in the submitted code
    col: int      # column of the first content character
    text: str     # content (stripped)
    raw: str      # full original line


@dataclass
class Context:
    binder_groups: list[tuple[list[str], str]]
    haves: list[tuple[str, str]] = field(default_factory=list)

    def names(self) -> set[str]:
        out = set()
        for names, _ in self.binder_groups:
            out.update(names)
        out.update(n for n, _ in self.haves)
        return out

    def type_of(self, name: str) -> str | None:
        for names, ty in self.binder_groups:
            if name in names:
                return ty
        for n, ty in self.haves:
            if n == name:
                return ty
        return None

    def child(self) -> "Context":
        return Context(list(self.binder_groups), list(self.haves))


class Checker:
    def __init__(self, table: RuleTable):
        self.table = table

    # -- statement parsing --

    @staticmethod
    def split_binders(binder_text: str) -> list[tuple[list[str], str]]:
        groups = []
        depth = 0
        start = None
        openers, closers = "([{⦃⟨", ")]}⦄⟩"
        for i, ch in enumerate(binder_text):
            if ch in openers:
                if depth == 0:
                    start = i
                depth += 1
            elif ch in closers:
                depth -= 1
                if depth == 0 and start is not None:
                    inner = binder_text[start + 1 : i]
                    names_part, _, type_part = inner.partition(":")
                    names = names_part.split()
                    if names and type_part.strip():
                        groups.append((names, type_part.strip()))
                    start = None
        return groups

    @staticmethod
    def split_statement(stmt: str):
        """-> (name, binder_text, goal) for `<kw> name binders : goal`."""
        stmt = re.sub(r":=\s*by\s*$", "", stmt).strip()
        m = re.match(r"(theorem|lemma|example)\s*", stmt)
        rest = stmt[m.end():]
        nm = re.match(r"[^\s:({\[⦃]+", rest)
        name = nm.group(0) if nm else "_example"
        rest = rest[nm.end():] if nm else rest
        depth = 0
        for i, ch in enumerate(rest):
            if ch in "([{⦃⟨":
                depth += 1
            elif ch in ")]}⦄⟩":
                depth -= 1
            elif ch == ":" and depth == 0 and not rest.startswith(":=", i):
                return name, rest[:i], rest[i + 1 :].strip()
        return name, rest, ""

    def bad_identifier(self, text: str, bound: set[str]) -> str | None:
        """A single-letter lowercase identifier not bound yet, if any."""
        for tok in _IDENT_RE.findall(text):
            if len(tok) == 1 and tok.islower() and tok.isascii() and tok not in bound:
                return tok
        return None

    # -- tactic evaluation --

    def try_table(self, goal: str, tactic: str, ctx: Context):
        g, t = norm_text(goal), norm_text(tactic)
        for rec in self.table.closes:
            if rec["goal"] == g and rec["tactic"] == t:
                missing = [r for r in rec["requires"] if r not in ctx.names()]
                if missing:
                    return ("fail", f"unknown identifier '{missing[0]}'")
                return ("closed", None)
        for rec in self.steps_for(g, t):
            missing = [r for r in rec["requires"] if r not in ctx.names()]
            if missing:
                return ("fail", f"unknown identifier '{missing[0]}'")
            return ("step", rec["becomes"])
        return None

    def steps_for(self, g: str, t: str):
        return [r for r in self.table.steps if r["goal"] == g and r["tactic"] == t]

    def eval_tactic(self, goal: str, tactic: str, ctx: Context, state: "TheoremState"):
        text = tactic.strip()
        head_m = re.match(r"[A-Za-z_][A-Za-z0-9_'!?]*", text)
        head = head_m.group(0) if head_m else text[:1]

        if head in ("sorry", "admit"):
            return ("sorry", None)
        if head == "hint":
            suggestions = self.table.hints.get(norm_text(goal), [])
            if suggestions:
                msg = "Try these:\n" + "\n".join("• " + s for s in suggestions)
            else:
                msg = "hint found no applicable tactics"
            state.infos.append(msg)
            return ("sorry", None)

        hit = self.try_table(goal, text, ctx)
        if hit:
            return hit

        if head == "rfl":
            lhs, _, rhs = norm_text(goal).partition("=")
            if rhs and lhs.strip() == rhs.strip():
                return ("closed", None)
            return ("fail", "the rfl tactic failed")
        if head == "trivial":
            if norm_text(goal) == "True":
                return ("closed", None)
            return ("fail", "trivial failed to close the goal")
        if head == "assumption":
            for name in ctx.names():
                ty = ctx.type_of(name)
                if ty and norm_text(ty) == norm_text(goal):
                    return ("closed", None)
            return ("fail", "no assumption matches the goal")
        if head == "exact":
            arg = text[len("exact"):].strip()
            arg_head = arg.split()[0] if arg.split() else ""
            ty = ctx.type_of(arg_head)
            if ty is not None and norm_text(ty) == norm_text(goal):
                return ("closed", None)
            decl = state.checker_decls.get(arg_head)
            if decl is not None:
                if norm_text(decl) == norm_text(goal):
                    return ("closed", None)
                return ("fail", "type mismatch in exact")
            if arg_head and arg_head not in ctx.names():
                return ("fail", f"unknown identifier '{arg_head}'")
            return ("fail", "type mismatch in exact")
        if head in ("norm_num", "omega", "decide"):
            verdict = check_numeric_goal(goal)
            if verdict is True:
                return ("closed", None)
            if verdict is False:
                return ("fail", f"{head} evaluated the goal to False")
            return ("fail", f"tactic '{head}' failed to close the goal")
        if head == "linarith" or head == "nlinarith":
            return ("fail", f"{head} failed to find a contradiction")
        if head in KNOWN_TACTICS:
            return ("fail", f"tactic '{head}' failed to close the goal")
        return ("unknown", f"unknown tactic '{head}'")


@dataclass
class TheoremState:
    pp_types: bool
    numeral_type: str | None
    checker_decls: dict[str, str]
    errors: list = field(default_factory=list)
    sorries: list = field(default_factory=list)
    infos: list = field(default_factory=list)


class FakeRepl:
    def __init__(self, table: RuleTable):
        self.checker = Checker(table)
        self.env_counter = 0
        self.proof_state_counter = 0

    # -- rendering --

    @staticmethod
    def _ambient_type(texts: list[str]) -> str | None:
        joined = " ".join(texts)
        for ty in ("ℝ", "ℚ", "ℤ", "ℕ"):
            if ty in joined:
                return ty
        return None

    def _annotate(self, text: str, state: TheoremState) -> str:
        if not state.pp_types or not state.numeral_type:
            return text
        stripped = norm_text(text)
        return _NUM_RE.sub(rf"(\1 : {state.numeral_type})", stripped)

    def render_goal(self, goal: str, ctx: Context, state: TheoremState) -> str:
        lines = []
        for names, ty in ctx.binder_groups:
            lines.append(f"{' '.join(names)} : {self._annotate(ty, state)}")
        for name, ty in ctx.haves:
            lines.append(f"{name} : {self._annotate(ty, state)}")
        lines.append("⊢ " + self._annotate(goal, state))
        return "\n".join(lines)

    # -- block evaluation --

    def eval_block(
        self,
        goal: str,
        lines: list[EvalLine],
        ctx: Context,
        state: TheoremState,
        by_line: int,
        by_col: int,
    ) -> bool:
        """Evaluate one tactic block; returns True if the goal was closed
        (possibly by sorry).  Errors are appended to the state."""
        closed = False
        i = 0
        while i < len(lines):
            ln = lines[i]
            stripped = ln.text.strip()
            if not stripped or stripped.startswith("--"):
                i += 1
                continue
            if closed:
                state.errors.append((ln.no, ln.col, "no goals to be solved"))
                return False
            have = _HAVE_RE.match(stripped)
            if have:
                name, htype, tail = have.group(1), have.group(2).strip(), have.group(3)
                sub: list[EvalLine] = []
                if tail.strip():
                    tail_col = ln.raw.index(tail.strip(), ln.col)
                    sub.append(EvalLine(ln.no, tail_col, tail.strip(), ln.raw))
                j = i + 1
                while j < len(lines) and (
                    not lines[j].text.strip() or lines[j].col > ln.col
                ):
                    sub.append(lines[j])
                    j += 1
                bad = self.checker.bad_identifier(htype, ctx.names() | {name})
                if bad is not None:
                    state.errors.append((ln.no, ln.col, f"unknown identifier '{bad}'"))
                else:
                    by_at = ln.raw.find(":= by", ln.col)
                    by_at = ln.col if by_at == -1 else by_at + 3
                    self.eval_block(htype, sub, ctx.child(), state, ln.no, by_at)
                ctx.haves.append((name, htype))
                i = j
                continue
            # continuation lines deepen the current tactic invocation
            j = i + 1
            text = stripped
            while j < len(lines) and lines[j].text.strip() and lines[j].col > ln.col:
                text += " " + lines[j].text.strip()
                j += 1
            verdict, detail = self.checker.eval_tactic(goal, text, ctx, state)
            if verdict == "closed":
                closed = True
            elif verdict == "sorry":
                closed = True
                tok = "admit" if text.startswith("admit") else "sorry"
                tok_col = ln.raw.find(tok, ln.col)
                tok_col = ln.col if tok_col == -1 else tok_col
                self.proof_state_counter += 1
                state.sorries.append({
                    "pos": {"line": ln.no, "column": tok_col},
                    "endPos": {"line": ln.no, "column": tok_col + len(tok)},
                    "goal": self.render_goal(goal, ctx, state),
                    "proofState": self.proof_state_counter,
                })
            elif verdict == "step":
                goal = detail
            else:
                state.errors.append((ln.no, ln.col, detail))
                return False
            i = j
        if not closed:
            rendered = self.render_goal(goal, ctx, state)
            state.errors.append((by_line, by_col, "unsolved goals\n" + rendered))
            return False
        return True

    def eval_theorem(self, stmt_text: str, stmt_line: int, body: list[EvalLine],
                     inline_tail: str, by_line: int, by_col: int, raw_by_line: str,
                     state: TheoremState) -> None:
        name, binder_text, goal = self.checker.split_statement(stmt_text)
        groups = self.checker.split_binders(binder_text)
        ctx = Context(groups)
        state.numeral_type = self._ambient_type(
            [goal] + [ty for _, ty in groups]
        )

        bound: set[str] = set()
        for names, ty in groups:
            bad = self.checker.bad_identifier(ty, bound | set(names))
            if bad is not None:
                state.errors.append(
                    (stmt_line, 0, f"unknown identifier '{bad}'"))
                return
            bound.update(names)
        bad = self.checker.bad_identifier(goal, bound)
        if bad is not None:
            state.errors.append((stmt_line, 0, f"unknown identifier '{bad}'"))
            return

        lines = list(body)
        if inline_tail.strip():
            tail_col = raw_by_line.index(inline_tail.strip(), by_col)
            lines.insert(0, EvalLine(by_line, tail_col, inline_tail.strip(), raw_by_line))

        before = len(state.errors)
        ok = self.eval_block(goal, lines, ctx, state, by_line, by_col)
        if ok and len(state.errors) == before and name != "_example":
            state.checker_decls[name] = goal

    # -- command handling --

    def handle(self, cmd: str) -> dict:
        m = re.search(r"--#fake_sleep=([0-9.]+)", cmd)
        if m:
            time.sleep(float(m.group(1)))
        if "--#fake_crash" in cmd:
            os._exit(1)

        raw_lines = cmd.split("\n")
        pp_types = "set_option pp." in cmd
        state = TheoremState(pp_types, None, {})
        messages = []

        i = 0
        n = len(raw_lines)
        while i < n:
            raw = raw_lines[i]
            stripped = raw.strip()
            line_no = i + 1
            if not stripped or stripped.startswith("--") or stripped.startswith("/-"):
                i += 1
                continue
            if re.match(r"import\s", stripped):
                mod = stripped.split(None, 1)[1].strip()
                if mod.split(".")[0] not in KNOWN_IMPORTS:
                    messages.append(_err(line_no, 0, f"unknown module prefix '{mod}'"))
                i += 1
                continue
            if re.match(r"(open|set_option|section|end|namespace|variable)\b", stripped):
                i += 1
                continue
            if _DECL_RE.match(stripped):
                stmt_parts = []
                stmt_line = line_no
                by_line = by_col = None
                inline_tail = ""
                while i < n:
                    cur = raw_lines[i]
                    at = cur.find(":= by")
                    if at != -1 and _top_level(cur, at):
                        stmt_parts.append(cur[: at + 5])
                        by_line, by_col = i + 1, at + 3
                        inline_tail = cur[at + 5 :]
                        raw_by = cur
                        i += 1
                        break
                    stmt_parts.append(cur)
                    i += 1
                if by_line is None:
                    messages.append(_err(stmt_line, 0, "unexpected token; expected ':= by'"))
                    break
                body: list[EvalLine] = []
                while i < n:
                    cur = raw_lines[i]
                    cs = cur.strip()
                    if cs and not cur[0].isspace() and re.match(
                        r"(theorem|lemma|example|import|open|set_option)\b", cs
                    ):
                        break
                    if cs:
                        col = len(cur) - len(cur.lstrip())
                        body.append(EvalLine(i + 1, col, cur.strip(), cur))
                    i += 1
                stmt_text = " ".join(p.strip() for p in stmt_parts)
                self.eval_theorem(stmt_text, stmt_line, body, inline_tail,
                                  by_line, by_col, raw_by, state)
                continue
            messages.append(_err(line_no, 0, f"unexpected token '{stripped.split()[0]}'"))
            i += 1

        for line_no, col, msg in state.errors:
            messages.append(_err(line_no, col, msg))
        for msg in state.infos:
            messages.append({
                "severity": "info",
                "pos": {"line": 1, "column": 0},
                "endPos": None,
                "data": msg,
            })
        if state.sorries:
            messages.append({
                "severity": "warning",
                "pos": {"line": 1, "column": 0},
                "endPos": None,
                "data": "declaration uses 'sorry'",
            })

        self.env_counter += 1
        return {"env": self.env_counter - 1, "messages": messages,
                "sorries": state.sorries}


def _top_level(line: str, at: int) -> bool:
    depth = 0
    for ch in line[:at]:
        if ch in "([{⦃⟨":
            depth += 1
        elif ch in ")]}⦄⟩":
            depth -= 1
    return depth == 0


def _err(line: int, col: int, msg: str) -> dict:
    return {
        "severity": "error",
        "pos": {"line": line, "column": col},
        "endPos": {"line": line, "column": col + 1},
        "data": msg,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rules", default=None, help="rule table JSON")
    args = parser.parse_args(argv)

    repl = FakeRepl(RuleTable.load(args.rules))
    buf: list[str] = []
    stdin = sys.stdin
    while True:
        line = stdin.readline()
        if not line:
            break
        if line.strip():
            buf.append(line)
            continue
        if not buf:
            continue
        try:
            request = json.loads("".join(buf))
        except json.JSONDecodeError:
            sys.stdout.write(json.dumps({"message": "malformed request"}) + "\n\n")
            sys.stdout.flush()
            buf = []
            continue
        buf = []
        response = repl.handle(request.get("cmd", ""))
        sys.stdout.write(json.dumps(response, ensure_ascii=False) + "\n\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
