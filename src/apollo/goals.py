"""Restate an open goal as a standalone lemma and splice its proof back.

The pretty-printed goal state of a sorry carries the full local context, so
every hypothesis becomes an explicit binder of the generated statement; the
statement is then compiled with a sorry body as the correctness oracle for
the extraction itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .config import RepairConfig
from .errors import SiteVanished, StatementMalformed, StatementRejected, UnparseableGoal
from .proofscript import ProofScript, TheoremStatement, body_lines
from .repl import SorryInfo
from .sorrifier import validate_statement

_IDENT_RE = re.compile(r"^[^\s:(){}\[\]⟨⟩,]+$")
_MVAR_RE = re.compile(r"\?\w")
_INACCESSIBLE = "✝"
# Lean's superscript disambiguators (`h✝¹`) are not identifier characters
_NOT_IN_FRESH = str.maketrans("", "", "✝⁰¹²³⁴⁵⁶⁷⁸⁹")


@dataclass(frozen=True)
class GoalContext:
    hypotheses: tuple[tuple[str, str], ...]  # (name, type) in context order
    target: str
    fresh_name: str
    header: str


def _fresh_name(base: str, ordinal: int, taken: set[str]) -> str:
    name = f"{base}_sub{ordinal}"
    if name not in taken:
        return name
    n = 1
    while f"{name}_{n}" in taken:
        n += 1
    return f"{name}_{n}"


def _split_hypothesis(line: str) -> tuple[list[str], str]:
    depth = 0
    for i, ch in enumerate(line):
        if ch in "([{⟨⦃":
            depth += 1
        elif ch in ")]}⟩⦄":
            depth -= 1
        elif ch == ":" and depth == 0:
            names = line[:i].split()
            return names, line[i + 1 :].strip()
    raise UnparseableGoal(f"hypothesis line without a top-level colon: {line!r}")


def extract_goal(sorry_info, script: ProofScript, ordinal: int) -> GoalContext:
    """Parse a pretty-printed goal state into hypotheses and target.

    Multi-binder lines (`a b : ℕ`) yield one entry per name; inaccessible
    `✝`-marked names are renamed to fresh accessible ones; goal states with
    metavariables or more than one `⊢` are rejected.
    """
    goal_text = sorry_info.goal
    if _MVAR_RE.search(goal_text):
        raise UnparseableGoal("goal state contains metavariables")
    if goal_text.count("⊢") != 1:
        raise UnparseableGoal("expected exactly one ⊢ in the goal state")

    raw_lines = goal_text.split("\n")
    hyp_lines: list[str] = []
    target: str | None = None
    for line in raw_lines:
        if target is not None:
            target += " " + line.strip()
            continue
        stripped = line.rstrip()
        if not stripped.strip():
            continue
        if stripped.lstrip().startswith("⊢"):
            target = stripped.lstrip()[1:].strip()
            continue
        if stripped[:1].isspace() and hyp_lines:
            hyp_lines[-1] += " " + stripped.strip()
        elif stripped.lstrip().startswith("case "):
            continue
        else:
            hyp_lines.append(stripped.strip())
    if target is None or not target:
        raise UnparseableGoal("goal state has no ⊢ target")

    renames: dict[str, str] = {}
    hypotheses: list[tuple[str, str]] = []
    for line in hyp_lines:
        names, type_text = _split_hypothesis(line)
        for name in names:
            if _INACCESSIBLE in name:
                base = name.translate(_NOT_IN_FRESH) or "h"
                fresh = f"{base}_inacc{len(renames)}"
                renames[name] = fresh
                name = fresh
            if not _IDENT_RE.match(name):
                raise UnparseableGoal(f"bad hypothesis name {name!r}")
            hypotheses.append((name, type_text))
    seen: set[str] = set()
    for name, _ in hypotheses:
        if name in seen:
            raise UnparseableGoal(f"duplicate hypothesis name {name!r}")
        seen.add(name)

    if renames:
        # whole names in one pass: `h✝` is not renamed inside `h✝¹` or `ha✝`
        names_re = re.compile(r"(?<![\w'])(?:{})(?![\w'])".format(
            "|".join(map(re.escape, sorted(renames, key=len, reverse=True)))))

        def rename(text: str) -> str:
            return names_re.sub(lambda m: renames[m.group()], text)

        hypotheses = [(n, rename(t)) for n, t in hypotheses]
        target = rename(target)

    taken = set(re.findall(r"[\w'₀-₉]+", script.masked))
    fresh = _fresh_name(script.statement.name, ordinal, taken)
    return GoalContext(tuple(hypotheses), target, fresh, script.statement.header)


def transform_goal(ctx: GoalContext, session,
                   config: RepairConfig | None = None) -> TheoremStatement:
    """Render the context as `theorem <fresh> <binders> : <target> := by`.

    The statement is compiled with a sorry body, its one probe; rejection
    means the sub-lemma cannot be expressed standalone and the site must
    stay sorried.
    """
    binders = " ".join(f"({name} : {ty})" for name, ty in ctx.hypotheses)
    binders = f" {binders}" if binders else ""
    statement_text = f"theorem {ctx.fresh_name}{binders} : {ctx.target} := by"
    statement = TheoremStatement(ctx.fresh_name, ctx.header, statement_text)
    try:
        validate_statement(statement, session, config)
    except StatementMalformed as exc:
        raise StatementRejected(exc.diagnostics) from exc
    return statement


def _reindent(lines: list[str], target_indent: int) -> list[str]:
    content = [ln for ln in lines if ln.strip()]
    if not content:
        return lines
    base = min(len(ln) - len(ln.lstrip()) for ln in content)
    shift = target_indent - base
    out = []
    for ln in lines:
        if not ln.strip():
            out.append("")
        elif shift >= 0:
            out.append(" " * shift + ln)
        else:
            out.append(ln[min(-shift, len(ln) - len(ln.lstrip())):])
    return out


def splice_subproof(parent: str, site: SorryInfo,
                    sub: ProofScript) -> tuple[int, int, list[str]]:
    """The edit of the script text `parent` that replaces the sorry at
    `site` with the proof body of `sub`, re-indented under the site: a
    `replace_lines` range over the site's line.  SiteVanished when no
    lone sorry ends that line of `parent`."""
    no, start, end = site.pos.line, site.pos.column, site.end_pos.column
    lines = parent.split("\n")
    if not 0 < no <= len(lines):
        raise SiteVanished(f"line {no} out of range")
    line = lines[no - 1]
    token = line[start:end]
    if token not in ("sorry", "admit"):
        raise SiteVanished(f"expected a sorry at line {no}, column {start}, found {token!r}")
    prefix, suffix = line[:start], line[end:]
    if suffix.strip():
        raise SiteVanished(f"trailing text after the sorry at line {no}: {suffix!r}")

    sub_body = body_lines(sub)
    line_indent = len(line) - len(line.lstrip()) if line.strip() else start
    if prefix.strip():
        # `... := by sorry` becomes `... := by` with the body underneath
        new_lines = [prefix.rstrip()] + _reindent(sub_body, line_indent + 2)
    else:
        new_lines = _reindent(sub_body, start)
    return no, no, new_lines
