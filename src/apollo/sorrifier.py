"""Turn a failing proof into one that compiles with sorry placeholders.

The loop runs in rounds: compile, map each error in position order to its
enclosing block and repair while the repairs leave what later lines see,
apply them bottom-up, repeat.  Four repairs exist: drop a single bad line,
drop a block, collapse a block to `:= by sorry`, or insert a `sorry` where
goals were left open.  Each is a replacement of a range of script lines,
and this module decides the text it writes.
"""

from __future__ import annotations

import logging
import re
import time
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

from .config import RepairConfig
from .errors import (
    BudgetExhausted,
    NoEnclosingNode,
    Nonterminating,
    SorrifyError,
    StatementMalformed,
)
from .proofscript import (
    KIND_HAVE,
    KIND_TACTIC,
    ProofScript,
    TheoremStatement,
    mask_regions,
    parse_script,
    replace_lines,
    serialize,
)
from .repl import FAIL, CompileResult, Diagnostic, Position, SorryInfo

log = logging.getLogger(__name__)

REMOVE_LINE = "remove_line"
REMOVE_BLOCK = "remove_block"
REPLACE_BLOCK_WITH_SORRY = "replace_block_with_sorry"
INSERT_SORRY = "insert_sorry"

# the monotonic time past which `check_script` compiles nothing more
DEADLINE: ContextVar[float | None] = ContextVar("deadline", default=None)

@dataclass
class RepairAction:
    """One repair: the `replace_lines` edit `(first, last, lines)` of the
    script text.  `block` is the `_node_key` of the block the repair is
    charged to in the attempt history."""

    kind: str
    first: int
    last: int
    lines: list[str]
    block: tuple


@dataclass
class SorrifiedScript:
    """`compile_result` is the last compile of `script`, from `check_script`:
    positions in script lines, and its sorries the script's sorry sites in
    position order.  `commits` are the tactics the auto-solver landed."""

    script: ProofScript
    actions: list[RepairAction]
    compile_result: CompileResult
    commits: list = field(default_factory=list)


def apply_action(script: ProofScript, action: RepairAction) -> ProofScript:
    edit = (action.first, action.last, action.lines)
    return parse_script(replace_lines(script.text, [edit]), script.statement)


def replay_actions(script: ProofScript, actions: list[RepairAction]) -> ProofScript:
    for action in actions:
        script = apply_action(script, action)
    return script


def _node_key(script: ProofScript, path: tuple[int, ...]):
    """Identity for a block that survives line edits inside it: the header
    text, its indent, and its occurrence index among identical headers."""
    if path == ():
        return ("<root>", -1, 0)
    node = script.node(path)
    header = script.line(node.first)[0].strip()
    occurrence = 0
    for p, other in script.walk():
        if p == path:
            break
        if other.indent == node.indent and script.line(other.first)[0].strip() == header:
            occurrence += 1
    return (header, node.indent, occurrence)


def _enclosing_block(script: ProofScript, path: tuple[int, ...]) -> tuple[int, ...]:
    """Nearest ancestor (or self) that is an opener block; root otherwise."""
    while path:
        if script.node(path).kind != KIND_TACTIC:
            return path
        path = path[:-1]
    return ()


def _has_stated_goal(script: ProofScript, node) -> bool:
    masked = script.line(node.first)[1]
    return node.kind == KIND_HAVE and ":" in masked and ":=" in masked


_HAVE_LINE_RE = re.compile(r"have\s+\S+\s*:.*:=")


def _is_sorryable_have_line(masked: str) -> bool:
    masked = masked.strip()
    return bool(_HAVE_LINE_RE.match(masked)) and not masked.endswith("sorry")


_BY_TAIL_RE = re.compile(r"(:=\s*by)\b")


def _sorried_block(header: str, masked: str) -> str:
    """The one line a collapsed block becomes: a header carrying `:= by`
    keeps everything through `by` and gains ` sorry`, a `=>`-style header
    gains ` sorry`, and anything else becomes a bare `sorry`."""
    m = _BY_TAIL_RE.search(masked)
    if m:
        return header[: m.end(1)] + " sorry"
    if masked.rstrip().endswith("=>"):
        return header.rstrip() + " sorry"
    return " " * (len(header) - len(header.lstrip())) + "sorry"


def _sorried_have(line: str, masked: str) -> str:
    """A one-line `have` with its proof sorried, through `:= by` or else
    through `:=`, so the hypothesis it binds stays."""
    m = _BY_TAIL_RE.search(masked)
    if m:
        return line[: m.end(1)] + " sorry"
    return line[: masked.index(":=") + 2] + " by sorry"


def _remove_line(script, line, block) -> RepairAction:
    """Drop one line; on the statement's own `by` line (an inline first
    tactic) only the tactic after `by` goes."""
    stmt = script.statement
    kept = []
    if line == (stmt.header + stmt.statement_text).count("\n") + 1:
        kept = [stmt.statement_text.split("\n")[-1]]
    return RepairAction(REMOVE_LINE, line, line, kept, block)


def _insertion(after: int, indent: int, block) -> RepairAction:
    """A `sorry` line at `indent`, inserted after line `after`."""
    return RepairAction(INSERT_SORRY, after + 1, after, [" " * indent + "sorry"], block)


def _insert_action(script: ProofScript, diag: Diagnostic) -> RepairAction:
    """Place a `sorry` that closes the goals a block left open."""
    line = diag.pos.line
    if line >= script.body_start_line:
        hit = script.node_at_line(line)
        if hit is not None:
            path, node = hit
            block_path = _enclosing_block(script, path)
            block = _node_key(script, block_path)
            if (node.kind == KIND_TACTIC and ":= by" in script.line(line)[1]
                    and diag.pos.column >= node.indent):
                # an inline `have ... := by tac` left its goal open: the
                # sorry continues that block on the next, deeper line.  Goals
                # reported left of the tactic (the statement's own `by`, on
                # its line) are the root block's.
                return _insertion(line, node.indent + 2, block)
            opener = script.node(block_path) if block_path else script.root
            indent = opener.children[-1].indent if opener.children else opener.indent + 2
            return _insertion(opener.last, indent, block)
    # the statement's own `by` line: goals open at the end of the root block
    root = script.root
    return _insertion(root.last, root.children[-1].indent,
                      _node_key(script, ()))


def choose_repair(diag: Diagnostic, script: ProofScript, attempt_history: dict) -> RepairAction:
    """Deterministic repair policy: the lines to replace and the text that
    replaces them, charged to the block that encloses the error.

    Unsolved-goal messages insert a sorry at the end of the enclosing block.
    Other errors drop the offending line when its block can survive that,
    and otherwise collapse the block: `have`-style blocks with a stated goal
    become `:= by sorry` so later references stay valid, anonymous blocks
    are removed outright.  A block that was already line-repaired escalates
    straight to collapse.  A one-line `have` is sorried in place rather
    than dropped.
    """
    line = diag.pos.line

    if "unsolved goals" in diag.message:
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
            if p and n.contains_line(line) and n.contains_line(diag.end_pos.line):
                if best is None or len(p) > len(best):
                    best = p
        if best is not None:
            path, node = best, script.node(best)

    block_path = _enclosing_block(script, path)
    block = _node_key(script, block_path)
    done = attempt_history.get(block, [])

    if node.kind == KIND_TACTIC:
        text, masked = script.line(line)
        if not node.inline and _is_sorryable_have_line(masked):
            # a one-line `have ... := by tac` off the statement's line binds a
            # name later lines may use: sorry its body rather than drop it
            return RepairAction(REPLACE_BLOCK_WITH_SORRY, line, line,
                                [_sorried_have(text, masked)], block)
        if block_path == ():
            # lines directly under the root are dropped one at a time; an
            # emptied body parses back as a lone sorry
            return _remove_line(script, line, block)
        survives = script.node(block_path).line_count(script.text) - 1 >= 2  # header plus one tactic
        if survives and REMOVE_LINE not in done:
            return _remove_line(script, line, block)

    opener = script.node(block_path)
    if REPLACE_BLOCK_WITH_SORRY in done or not _has_stated_goal(script, opener):
        return RepairAction(REMOVE_BLOCK, opener.first, opener.last, [], block)
    return RepairAction(REPLACE_BLOCK_WITH_SORRY, opener.first, opener.last,
                        [_sorried_block(*script.line(opener.first))], block)


_IMPORT_RE = re.compile(r"^\s*import\s")


def check_deadline():
    """Raise BudgetExhausted once the deadline in DEADLINE has passed."""
    deadline = DEADLINE.get()
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExhausted("per-theorem wall clock limit reached")


def check_script(text: str, session, timeout: float) -> CompileResult:
    """Compile the script `text` and return the result with every
    diagnostic and sorry position in lines of `text`.

    The session's environment already holds the imports and the pp
    options, so the leading `import` lines are dropped and nothing is
    added: every compile line is a line of `text`.  As in Lean, imports come
    only at the top: blank and comment lines may precede them, and an
    `import` after any other line is sent as is.  Raises UnterminatedComment
    when a block comment never closes.

    A diagnostic on no line of `text` (one past the end of the code) gets
    line 0, and its end position there becomes None.  Such diagnostics are
    kept, so that a message placed past the end still reaches the caller.
    The sorries are the script's sorry sites in position order: a sorry
    whose start or end is on no line of `text` can be neither swapped nor
    spliced, so it is dropped.  The status is the REPL's, so it still
    counts every sorry.

    Once the deadline that `apollo()` sets in DEADLINE has passed, raises
    BudgetExhausted before sending anything.  The compile's own timeout is
    not clamped to the time left: a compile that times out kills the REPL,
    which under real Lean re-imports Mathlib on respawn, so an overrun is
    bounded by one compile timeout instead.  The auto-solver's waves (the
    `hint` wave, every trial wave and the precheck), one candidate's time
    per candidate tried, are capped at `compile_timeout` by `_wave_timeout`
    to keep that bound.
    """
    check_deadline()
    code: list[str] = []
    mapping: list[int] = []  # compile line -> text line
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
        if pos is None or not 0 < pos.line <= len(mapping):
            return None
        return Position(mapping[pos.line - 1], pos.column)

    diagnostics = [Diagnostic(d.severity, at(d.pos) or Position(0, d.pos.column),
                              at(d.end_pos), d.message)
                   for d in result.diagnostics]
    sites = [SorryInfo(at(s.pos), at(s.end_pos), s.goal) for s in result.sorries]
    sorries = sorted((s for s in sites if s.pos and s.end_pos),
                     key=lambda s: (s.pos.line, s.pos.column))
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


def _keeps_names(action: RepairAction, diag: Diagnostic, script: ProofScript) -> bool:
    """An inserted `sorry`, or a block collapsed to its header through `:=`
    for an error after that `:=`: later lines still see the same names."""
    if action.kind == INSERT_SORRY:
        return True
    text, masked = script.line(action.first)
    cut = masked.find(":=") + 2
    return (action.kind == REPLACE_BLOCK_WITH_SORRY and cut > 1
            and action.lines[0][:cut] == text[:cut]
            and (diag.pos.line, diag.pos.column) >= (action.first, cut))


def sorrify(script: ProofScript, session, config: RepairConfig | None = None,
            first: CompileResult | None = None) -> SorrifiedScript:
    """Repair in rounds until the script compiles Pass or PassWithSorries.

    A round takes one compile's errors in position order and skips one on a
    line it rewrites.  It ends before a repair that meets or starts where an
    earlier one does, or whose error has no enclosing block, and after one
    that `_keeps_names` rejects.  `actions` keeps each round bottom-up.
    `first`, when given, is a `check_script` compile of `script.text` made
    by the caller, and stands for the first round's compile.  Raises
    StatementMalformed when a round's first error pins the statement, and
    Nonterminating at the cap on repairs (twice the line count plus eight).
    """
    config = config or RepairConfig()
    actions: list[RepairAction] = []
    history: dict = {}
    cap = 2 * script.root.line_count(script.text) + 8

    while len(actions) < cap:
        result = first or check_script(serialize(script), session, config.compile_timeout)
        first = None
        if result.ok:
            return SorrifiedScript(script, actions, result)
        if result.status != FAIL:
            raise SorrifyError(f"compile ended with status {result.status}")

        placed = sorted((d for d in result.errors if d.pos.line > 0),
                        key=lambda d: (d.pos.line, d.pos.column))
        if not placed:
            raise SorrifyError("compile failed with no mappable diagnostics")
        repairs: list[RepairAction] = []
        for diag in placed:
            if any(a.first <= diag.pos.line <= a.last for a in repairs):
                continue
            try:
                action = choose_repair(diag, script, history)
            except NoEnclosingNode:
                if repairs:
                    break
                raise StatementMalformed([diag]) from None
            if any(action.first <= a.last and a.first <= action.last
                   or action.first == a.first for a in repairs):
                break
            history.setdefault(action.block, []).append(action.kind)
            log.debug("sorrify: %s at lines %d..%d for %r", action.kind, action.first,
                      action.last, diag.message.splitlines()[0])
            repairs.append(action)
            if len(actions) + len(repairs) == cap or not _keeps_names(action, diag, script):
                break
        repairs.sort(key=lambda a: (a.first, a.last), reverse=True)
        script = replay_actions(script, repairs)
        actions += repairs

    raise Nonterminating(f"no fixpoint after {cap} repairs")
