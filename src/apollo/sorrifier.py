"""Turn a failing proof into one that compiles with sorry placeholders.

The loop: compile with the pp-option preamble, take the first error by
position, map it to the smallest enclosing block, apply one repair, repeat.
Three repairs exist: drop a single bad line, collapse a block to
`:= by sorry`, or insert a `sorry` where goals were left open.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace

from .config import RepairConfig
from .errors import NoEnclosingNode, Nonterminating, SorrifyError, StatementMalformed
from .proofscript import (
    KIND_HAVE,
    KIND_TACTIC,
    ProofScript,
    SourceSpan,
    TheoremStatement,
    insert_sorry_after,
    mask_regions,
    remove_block,
    remove_line,
    replace_block_with_sorry,
    replace_line_with_sorry,
    serialize,
)
from .repl import FAIL, CompileResult, Diagnostic, Position, SorryInfo

log = logging.getLogger(__name__)

REMOVE_LINE = "remove_line"
REMOVE_BLOCK = "remove_block"
REPLACE_BLOCK_WITH_SORRY = "replace_block_with_sorry"
INSERT_SORRY = "insert_sorry"

_UNSOLVED_MARKERS = ("unsolved goals",)

_PP_OPTIONS = (
    "pp.instanceTypes",
    "pp.numericTypes",
    "pp.coercions.types",
    "pp.letVarTypes",
    "pp.structureInstanceTypes",
    "pp.mvars.withType",
    "pp.coercions",
    "pp.funBinderTypes",
    "pp.piBinderTypes",
)


def pp_preamble() -> str:
    """The set_option block prepended to goal-extraction compiles so the
    printer reports explicit types; never part of assembled output."""
    return "\n".join(f"set_option {opt} true" for opt in _PP_OPTIONS)


@dataclass
class RepairAction:
    kind: str
    target: tuple[int, ...] | SourceSpan
    triggering_diagnostic: Diagnostic | None = None
    indent: int | None = None  # for insert_sorry


@dataclass
class SorrifiedScript:
    """`compile_result` holds positions in script lines (`check_script`)."""

    script: ProofScript
    actions: list[RepairAction]
    compile_result: CompileResult
    commits: list = field(default_factory=list)  # tactics the solver landed


def apply_action(script: ProofScript, action: RepairAction) -> ProofScript:
    if action.kind == REMOVE_LINE:
        return remove_line(script, action.target)
    if action.kind == REMOVE_BLOCK:
        return remove_block(script, action.target)
    if action.kind == REPLACE_BLOCK_WITH_SORRY:
        if isinstance(action.target, SourceSpan):
            return replace_line_with_sorry(script, action.target)
        return replace_block_with_sorry(script, action.target)
    if action.kind == INSERT_SORRY:
        return insert_sorry_after(script, action.target, action.indent)
    raise SorrifyError(f"unknown repair action {action.kind!r}")


def replay_actions(script: ProofScript, actions: list[RepairAction]) -> ProofScript:
    for action in actions:
        script = apply_action(script, action)
    return script


def _is_unsolved(diag: Diagnostic) -> bool:
    return any(marker in diag.message for marker in _UNSOLVED_MARKERS)


def _node_key(script: ProofScript, path: tuple[int, ...]):
    """Identity for a block that survives line edits inside it: the header
    text, its indent, and its occurrence index among identical headers."""
    if path == ():
        return ("<root>", -1, 0)
    node = script.node(path)
    header = node.lines[0].strip() if node.lines else ""
    occurrence = 0
    for p, other in script.walk():
        if p == path:
            break
        if other.lines and other.lines[0].strip() == header and other.indent == node.indent:
            occurrence += 1
    return (header, node.indent, occurrence)


def _enclosing_block(script: ProofScript, path: tuple[int, ...]) -> tuple[int, ...]:
    """Nearest ancestor (or self) that is an opener block; root otherwise."""
    while path:
        if script.node(path).kind != KIND_TACTIC:
            return path
        path = path[:-1]
    return ()


def _has_stated_goal(node) -> bool:
    if not node.lines:
        return False
    masked = mask_regions(node.lines[0])
    return node.kind == KIND_HAVE and ":" in masked and ":=" in masked


_HAVE_LINE_RE = re.compile(r"have\s+\S+\s*:.*:=")


def _is_sorryable_have_line(script: ProofScript, line: int) -> bool:
    lines = serialize(script).split("\n")
    if line - 1 >= len(lines):
        return False
    masked = mask_regions(lines[line - 1]).strip()
    return bool(_HAVE_LINE_RE.match(masked)) and not masked.endswith("sorry")


def _block_action(script, block_path, diag, history) -> RepairAction:
    if block_path == ():
        return RepairAction(REPLACE_BLOCK_WITH_SORRY, (), diag)
    node = script.node(block_path)
    done = history.get(_node_key(script, block_path), [])
    if REPLACE_BLOCK_WITH_SORRY in done or not _has_stated_goal(node):
        return RepairAction(REMOVE_BLOCK, block_path, diag)
    return RepairAction(REPLACE_BLOCK_WITH_SORRY, block_path, diag)


def _insert_action(script: ProofScript, diag: Diagnostic) -> RepairAction:
    """Place a `sorry` that closes the goals a block left open."""
    line = diag.pos.line
    if line >= script.body_start_line:
        hit = script.node_at_line(line)
        if hit is not None:
            path, node = hit
            text_lines = serialize(script).split("\n")
            line_text = text_lines[line - 1] if line - 1 < len(text_lines) else ""
            if node.kind == KIND_TACTIC and ":= by" in mask_regions(line_text):
                # an inline `have ... := by tac` left its goal open: the
                # sorry continues that block on the next, deeper line
                span = SourceSpan(line, 0, line, 0)
                return RepairAction(INSERT_SORRY, span, diag, node.indent + 2)
            path = _enclosing_block(script, path)
            block = script.node(path) if path else script.root
            indent = block.children[-1].indent if block.children else block.indent + 2
            return RepairAction(INSERT_SORRY, block.span, diag, indent)
    # the statement's own `by` line: goals open at the end of the root block
    root = script.root
    return RepairAction(INSERT_SORRY, root.span, diag, root.children[-1].indent)


def choose_repair(diag: Diagnostic, script: ProofScript, attempt_history: dict) -> RepairAction:
    """Deterministic repair policy.

    Unsolved-goal messages insert a sorry at the end of the enclosing block.
    Other errors drop the offending line when its block can survive that,
    and otherwise collapse the block: `have`-style blocks with a stated goal
    become `:= by sorry` so later references stay valid, anonymous blocks
    are removed outright.  A block that was already line-repaired escalates
    straight to collapse.
    """
    line = diag.pos.line

    if _is_unsolved(diag):
        return _insert_action(script, diag)

    if line < script.body_start_line:
        raise NoEnclosingNode(f"diagnostic at line {line} precedes the proof body")

    hit = script.node_at_line(line)
    if hit is None:
        raise NoEnclosingNode(f"no tree node covers line {line}")
    path, node = hit

    if diag.end_pos is not None and diag.end_pos.line != line:
        # multi-line span: repair the smallest node containing all of it
        best: tuple[int, ...] | None = None
        for p, n in script.walk():
            if p and n.span.contains_line(line) and n.span.contains_line(diag.end_pos.line):
                if best is None or len(p) > len(best):
                    best = p
        if best is not None:
            path, node = best, script.node(best)

    block_path = _enclosing_block(script, path)
    done = attempt_history.get(_node_key(script, block_path), [])

    if node.kind == KIND_TACTIC:
        if _is_sorryable_have_line(script, line):
            # a one-line `have ... := by tac` binds a name later lines may
            # use: sorry its body rather than dropping the hypothesis
            return RepairAction(REPLACE_BLOCK_WITH_SORRY,
                                SourceSpan(line, 0, line, 0), diag)
        if block_path == ():
            # lines directly under the root are dropped one at a time; an
            # emptied body parses back as a lone sorry
            return RepairAction(REMOVE_LINE, SourceSpan(line, 0, line, 0), diag)
        block = script.node(block_path)
        survives = block.line_count() - 1 >= 2  # header plus one tactic
        if survives and REMOVE_LINE not in done:
            return RepairAction(REMOVE_LINE, SourceSpan(line, 0, line, 0), diag)
        return _block_action(script, block_path, diag, attempt_history)

    return _block_action(script, block_path, diag, attempt_history)


_IMPORT_RE = re.compile(r"^\s*import\s")


def check_script(text: str, session, timeout: float,
                 pp: bool = False) -> CompileResult:
    """Compile the script `text`, with the pp preamble when `pp`, and
    return the result with every diagnostic and sorry position in lines of
    `text`.

    The session's environment already holds the imports, so the leading
    `import` lines are dropped.  As in Lean, imports come only at the top:
    blank and comment lines may precede them, and an `import` after any
    other line is sent as is.  Raises UnterminatedComment when a block
    comment never closes.

    A position on no line of `text` (a preamble line, or one past the end
    of the code) gets line 0, and a diagnostic's end position there becomes
    None.  Such diagnostics are kept: the `hint` suggestions arrive in an
    info message that need not sit on a script line.
    """
    code = pp_preamble().split("\n") if pp else []
    mapping: list[int | None] = [None] * len(code)  # compile line -> text line
    leading = True
    masked = mask_regions(text).split("\n")
    for no, (line, mline) in enumerate(zip(text.split("\n"), masked), start=1):
        if leading and _IMPORT_RE.match(mline):
            continue
        leading = leading and not mline.strip()
        code.append(line)
        mapping.append(no)
    result = session.check("\n".join(code), timeout)

    def at(pos: Position | None) -> Position | None:
        if pos is None or not 0 < pos.line <= len(mapping) or not mapping[pos.line - 1]:
            return None
        return Position(mapping[pos.line - 1], pos.column)

    def placed(pos: Position) -> Position:
        return at(pos) or Position(0, pos.column)

    diagnostics = [Diagnostic(d.severity, placed(d.pos), at(d.end_pos), d.message)
                   for d in result.diagnostics]
    sorries = [SorryInfo(placed(s.pos), placed(s.end_pos), s.goal, s.proof_state_id)
               for s in result.sorries]
    return replace(result, diagnostics=diagnostics, sorries=sorries)


def validate_statement(statement: TheoremStatement, session,
                       config: RepairConfig | None = None) -> CompileResult:
    """Compile `statement := by sorry`; errors anywhere mean the statement
    itself is unusable and the caller must request a fresh generation."""
    config = config or RepairConfig()
    probe = statement.header + statement.statement_text + "\n  sorry"
    result = check_script(probe, session, config.compile_timeout)
    if result.status == FAIL:
        raise StatementMalformed(result.errors)
    if not result.ok:
        raise SorrifyError(f"statement probe ended with status {result.status}")
    return result


def sorrify(script: ProofScript, session, config: RepairConfig | None = None) -> SorrifiedScript:
    """Repair until the script compiles Pass or PassWithSorries.

    Raises StatementMalformed when errors pin the statement itself, and
    Nonterminating if the iteration cap (twice the line count plus eight)
    is ever reached.
    """
    config = config or RepairConfig()
    actions: list[RepairAction] = []
    history: dict = {}
    cap = 2 * script.root.line_count() + 8

    for _ in range(cap):
        result = check_script(serialize(script), session, config.compile_timeout,
                              pp=True)
        if result.ok:
            return SorrifiedScript(script, actions, result)
        if result.status != FAIL:
            raise SorrifyError(f"compile ended with status {result.status}")

        placed = [d for d in result.errors if d.pos.line > 0]
        if not placed:
            raise SorrifyError("compile failed with no mappable diagnostics")
        diag = min(placed, key=lambda d: (d.pos.line, d.pos.column))
        try:
            action = choose_repair(diag, script, history)
        except NoEnclosingNode:
            raise StatementMalformed([diag]) from None
        if isinstance(action.target, tuple):
            key = _node_key(script, action.target)
        else:
            hit = script.node_at_line(diag.pos.line)
            key = _node_key(script, _enclosing_block(script, hit[0]) if hit else ())
        history.setdefault(key, []).append(action.kind)
        log.debug("sorrify: %s at %s for %r", action.kind, action.target,
                  diag.message.splitlines()[0])
        script = apply_action(script, action)
        actions.append(action)

    raise Nonterminating(f"no fixpoint after {cap} repairs")
