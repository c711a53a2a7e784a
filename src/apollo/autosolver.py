"""Close sorry placeholders with Lean's own automation.

The sites are the sorries of `check_script`, in position order.  One `hint`
wave asks Lean for every site's suggestions at once: `hint` in place of
each sorry, one compile, and each site's suggestions read from the info
message at its own `hint` token.  Each site's ladder is its suggestions,
then a fixed suite of finishing tactics, then two-step combinations.

Then the trials run in waves.  A wave is one compile of an edited text,
never parsed: every open site holds the next untried candidate of its own
ladder.  Under Lean a failing nested `by` block is logged and recovered,
so a site's verdict is read from the errors inside its own tactic
sequence: the inline `have … := by` line it sits on, or the `have` or
`case` block around it, or else the proof body.  The first candidate that
closes a site is committed.  A site whose sequence an earlier error cut
short, or that shares its sequence with an earlier open site, tries the
same candidate again.  Anything a wave cannot pin on one site (a timeout,
a crash, a `maxHeartbeats` error, a site `hint` left unanswered, a wave
that decides nothing) narrows the waves to width one: only the earliest
open site is swapped, and every error is its own.  A failing or timed-out
candidate is never committed, so it cannot damage the script.

Most sites that survive their first candidate survive them all, so after
the first wave in which a candidate fails, one precheck compile asks
whether anything is left that closes each site: every site the waves
would swap holds `first | (c₁; done) | … | (cₙ; done)` over the untried
rest of its ladder, and is read like a wave.  A site it fails keeps its
sorry and leaves the waves; the others go on as before, so the candidate
committed at each is the same.  Nothing is committed from the precheck,
and one that cannot be read (a timeout, a crash, a `maxHeartbeats` error,
a reply that decides nothing) drops no site and does not narrow.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .config import RepairConfig
from .proofscript import (
    KIND_CASE,
    KIND_HAVE,
    KIND_TACTIC,
    ProofBlock,
    ProofScript,
    parse_script,
    replace_lines,
)
from .repl import REPL_CRASH, TIMEOUT, CompileResult, Diagnostic, Position, SorryInfo
from .sorrifier import SorrifiedScript, check_script

log = logging.getLogger(__name__)

DEFAULT_SUITE = [
    "norm_num",
    "simp",
    "simp_all",
    "ring_nf",
    "norm_cast",
    "nlinarith",
    "linarith",
    "positivity",
    "omega",
    "field_simp",
]

_COMBO_SECONDS = ["linarith", "nlinarith", "ring_nf"]

_TRY_THESE_RE = re.compile(r"Try (?:these:|this:)\s*(.*)", re.DOTALL)


@dataclass(frozen=True)
class CommittedTactic:
    site: SorryInfo  # the sorry token replaced, in script lines
    tactic: str


def load_suite(path) -> list[str]:
    """One tactic invocation per line; blank lines and # comments skipped."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line)
    return out


def suite_candidates(config: RepairConfig | None = None) -> list[str]:
    """The finishing-tactic ladder: singles in suite order, then the
    `first <;> second` combinations of the first four singles with each of
    linarith, nlinarith and ring_nf (at most 12)."""
    config = config or RepairConfig()
    singles = load_suite(config.suite_path) if config.suite_path else list(DEFAULT_SUITE)
    return singles + [f"{first} <;> {second}"
                      for first in singles[:4] for second in _COMBO_SECONDS]


def parse_hint_suggestions(diagnostics: list[Diagnostic]) -> list[str]:
    """Pull tactic texts out of the `Try these:` info messages."""
    suggestions: list[str] = []
    for diag in diagnostics:
        if diag.severity != "info":
            continue
        m = _TRY_THESE_RE.search(diag.message)
        if not m:
            continue
        for line in m.group(1).splitlines():
            line = line.strip().lstrip("•").strip()
            if line:
                suggestions.append(line)
    return suggestions


def _swap(text: str, swaps) -> tuple[str, list[tuple[int, int]]]:
    """`text` with each `(site, tactic)` of `swaps`, in position order, put
    in place of the sorry token at `site`, and the `(line, column)` where
    each tactic starts in the new text.  A site's token lies on one line;
    sites that share a line are swapped left to right, each at its position
    in `text`."""
    lines = text.split("\n")
    edited: dict[int, tuple[str, int]] = {}  # line -> (new line, column shift)
    starts: list[tuple[int, int]] = []
    for site, tactic in swaps:
        no = site.pos.line
        line, shift = edited.get(no, (lines[no - 1], 0))
        column = site.pos.column + shift
        edited[no] = (line[:column] + tactic + line[site.end_pos.column + shift:],
                      shift + len(tactic) - (site.end_pos.column - site.pos.column))
        starts.append((no, column))
    edits = [(no, no, [line]) for no, (line, _) in edited.items()]
    return replace_lines(text, edits), starts


def _wave_timeout(config: RepairConfig, trials: int) -> float:
    """One candidate's time per candidate tried (one per site swapped, or
    every alternative of a precheck), but never more than one
    `compile_timeout`."""
    return min(config.candidate_timeout * trials, config.compile_timeout)


def hint_candidates(text: str, sites: list[SorryInfo], session,
                    config: RepairConfig | None = None) -> list[list[str] | None]:
    """Run `hint` at every site of the script `text`, one compile, and
    return each site's suggestions in order, read from the messages at that
    site's position.  The sites are in position order, as `check_script`
    gives them.  A site no message answers gets None: under Lean a failed
    `hint` aborts the rest of its block, a timed-out or crashed compile
    answers none, and a `hint` that shares its line with an earlier site
    sits left of its sorry.  A lone site's probe is its own answer, so it
    gets `[]`.  The compile has the time of a wave over the same sites.
    The suggestions are not validated here: `solve_sorries` trials each
    like any other candidate, so a suggestion that only makes progress is
    never committed."""
    config = config or RepairConfig()
    wave, _ = _swap(text, [(site, "hint") for site in sites])
    probe = check_script(wave, session, _wave_timeout(config, len(sites)))
    answers: list[list[str] | None] = []
    for site in sites:
        messages = [d for d in probe.diagnostics if d.pos == site.pos]
        answers.append(parse_hint_suggestions(messages)
                       if messages or len(sites) == 1 else None)
    return answers


@dataclass(frozen=True, eq=False)
class _Sequence:
    """A tactic sequence that Lean runs on its own: it stops at its first
    error, which is logged and recovered where the sequence is opened, so
    the sequences around and after it go on.  `start` is the opener (the
    `by`, or the `case` keyword), where Lean reports `unsolved goals`;
    `last` is its last line."""

    start: tuple[int, int]
    last: int
    parent: _Sequence | None

    def holds(self, pos: Position) -> bool:
        return self.start <= (pos.line, pos.column) and pos.line <= self.last


_HAVE_BY_RE = re.compile(r"\s*have\b.*?:=\s*(by)\b")


def _sequences(script: ProofScript) -> list[_Sequence]:
    """The tactic sequences of `script`, from its block tree: the whole
    text (which holds what lies outside the proof, as lemmas before it or
    messages past its end), the proof body from the statement's `by`, every
    `have … := by` block and inline `have … := by` line, and every `case`
    block.  Other blocks belong to the sequence around them."""
    stmt = script.statement
    by_line = (stmt.header + stmt.statement_text).count("\n") + 1
    by_column = len(stmt.statement_text.rsplit("\n", 1)[-1]) - len("by")
    whole = _Sequence((0, -1), len(script.text), None)
    body = _Sequence((by_line, by_column), script.root.last, whole)
    found = [whole, body]

    def visit(node: ProofBlock, around: _Sequence):
        for child in node.children:
            if child.kind == KIND_TACTIC:
                for no in range(child.first, child.last + 1):
                    m = _HAVE_BY_RE.match(script.line(no)[1])
                    if m:
                        found.append(_Sequence((no, m.start(1)), no, around))
                continue
            m = _HAVE_BY_RE.match(script.line(child.first)[1])
            inner = around
            if child.kind == KIND_CASE:
                inner = _Sequence((child.first, child.indent), child.last, around)
            elif child.kind == KIND_HAVE and m:
                inner = _Sequence((child.first, m.start(1)), child.last, around)
            if inner is not around:
                found.append(inner)
            visit(child, inner)

    visit(script.root, body)
    return found


def _innermost(sequences: list[_Sequence], pos: Position) -> _Sequence:
    return max((q for q in sequences if q.holds(pos)), key=lambda q: q.start)


def _read_wave(compiled: CompileResult, swapped: list[int], starts: list[tuple[int, int]],
               tactics: list[str], within: list[_Sequence],
               sequences: list[_Sequence]) -> tuple[str | None, dict[int, bool]]:
    """The verdict of each decided site of a wave, True when it closed, and
    the reason the compile cannot be read as a whole, if any.  `swapped`
    are the open sites in position order; `starts[k]` and `tactics[k]` are
    where and what the k-th holds in the wave, and `within[i]` is site i's
    sequence.

    With one site swapped, every error is its own (`ok` means none), so
    its verdict stands even in a compile that timed out, crashed or ran
    out of heartbeats, which is still named as the reason.  With more, such
    a compile decides nothing.  Otherwise a site is undecided when an
    earlier open site shares its sequence, or when an error in a sequence
    around its own stands between the two openers (the outer sequence
    stopped before the inner one ran).  A decided site closes when its
    sequence has no error and no sorry stands where its candidate sits; it
    fails on an error in its sequence before the next open site there.  An
    error only at the opener or past that next site could be either's, so
    the site waits.  A wave of several sites that decides none is named as
    the reason too."""
    reason = None
    if compiled.status in (TIMEOUT, REPL_CRASH):
        reason = f"a {'timeout' if compiled.status == TIMEOUT else 'crash'}"
    elif any("maxHeartbeats" in e.message for e in compiled.errors):
        reason = "a maxHeartbeats error"
    if len(swapped) == 1:
        return reason, {swapped[0]: compiled.ok and not _sorry_at(compiled, starts[0],
                                                                   tactics[0])}
    if reason is not None:
        return reason, {}
    errors: dict[_Sequence, list[tuple[int, int]]] = {}
    for e in compiled.errors:
        errors.setdefault(_innermost(sequences, e.pos), []).append(
            (e.pos.line, e.pos.column))
    peers: dict[_Sequence, list[int]] = {}  # the open sites of each sequence
    for k, i in enumerate(swapped):
        peers.setdefault(within[i], []).append(k)
    verdicts: dict[int, bool] = {}
    for seq, (k, *later) in peers.items():  # the later ones wait
        outer, cut = seq.parent, False
        while outer is not None and not cut:
            cut = any(outer.start < at < seq.start for at in errors.get(outer, []))
            outer = outer.parent
        if cut:
            continue
        mine = errors.get(seq, [])
        if mine:
            following = starts[later[0]] if later else None
            if following is None or any(seq.start < at < following for at in mine):
                verdicts[swapped[k]] = False
            continue
        verdicts[swapped[k]] = not _sorry_at(compiled, starts[k], tactics[k])
    return (None if verdicts else "a wave that decides nothing"), verdicts


def _first(candidates: list[str]) -> str:
    """One tactic that closes its goal when any of `candidates` does: each
    must close it alone (`done`), and a failed one is rolled back."""
    return "first " + " ".join(f"| ({c}; done)" for c in candidates)


def _sorry_at(compiled: CompileResult, start: tuple[int, int], tactic: str) -> bool:
    """Whether a sorry stands where `tactic`, swapped in at `start`, sits."""
    line, column = start
    return any(s.pos.line == line and column <= s.pos.column < column + len(tactic)
               for s in compiled.sorries)


def _waves(s: SorrifiedScript, answers: list[list[str] | None], wide: bool,
           session, config: RepairConfig):
    """The trial waves of `solve_sorries` over the sites of `s`, from the
    `hint` answers given, at full width or, with `wide` False, at width
    one, and the precheck after the first wave in which a candidate fails.
    Returns the committed text, its compile and the commits made, or None
    when the last check of the committed text disagrees with the waves."""
    text, result = s.script.text, s.compile_result
    verified = text  # the text that `result` compiled
    sites = list(result.sorries)
    suite = suite_candidates(config)
    # each site's candidates; None until `hint` has answered the site
    ladders = [None if answer is None else answer + suite for answer in answers]
    tried = [0] * len(sites)
    live = list(range(len(sites)))  # the open sites, in position order
    commits: dict[int, CommittedTactic] = {}
    sequences = _sequences(s.script) if len(sites) > 1 else []
    within = [_innermost(sequences, site.pos) for site in sites] if sequences else []
    precheck = None  # True when the next compile is the precheck, False once made

    def narrow(reason: str) -> bool:
        log.debug("autosolver: width one after %s", reason)
        return False

    while live:
        if wide and len(live) > 1 and any(ladders[i] is None for i in live):
            wide = narrow("a site the hint wave left unanswered")
        swapped = live[:] if wide else live[:1]
        for i in swapped:
            if ladders[i] is None:
                ladders[i] = hint_candidates(text, [sites[i]], session, config)[0] + suite
        spent = [i for i in swapped if tried[i] == len(ladders[i])]
        if spent:  # out of candidates: the site keeps its sorry
            live = [i for i in live if i not in spent]
            continue
        if precheck:  # does anything left on its ladder close each site?
            tactics = [_first(ladders[i][tried[i]:]) for i in swapped]
            trials = sum(len(ladders[i]) - tried[i] for i in swapped)
        else:
            tactics = [ladders[i][tried[i]] for i in swapped]
            trials = len(swapped)
        swaps = [(sites[i], tactic) for i, tactic in zip(swapped, tactics)]
        wave, starts = _swap(text, swaps)
        compiled = check_script(wave, session, _wave_timeout(config, trials))
        reason, verdicts = _read_wave(compiled, swapped, starts, tactics, within, sequences)
        if precheck:
            precheck = False
            dropped = [] if reason else [i for i in swapped if verdicts.get(i) is False]
            for i in dropped:  # nothing left closes it: it keeps its sorry
                tried[i] = len(ladders[i])
            log.debug("autosolver: precheck over %d open sites: %d dropped, %d kept%s",
                      len(swapped), len(dropped), len(swapped) - len(dropped),
                      f" (unread after {reason})" if reason else "")
            continue
        if not verdicts:
            wide = narrow(reason)
            continue
        if precheck is None and False in verdicts.values():
            precheck = True
        closed = sum(verdicts.values())
        log.debug("autosolver: wave over %d open sites: %d closed, %d undecided",
                  len(swapped), closed, len(swapped) - len(verdicts))
        for i, (site, tactic) in zip(swapped, swaps):
            verdict = verdicts.get(i)
            if verdict is None:
                continue
            if not verdict:
                tried[i] += 1
                continue
            text, _ = _swap(text, [(site, tactic)])
            commits[i] = CommittedTactic(site, tactic)
            live.remove(i)
            shift = len(tactic) - (site.end_pos.column - site.pos.column)
            for j in range(i + 1, len(sites)):
                if sites[j].pos.line == site.pos.line:
                    other = sites[j]
                    sites[j] = SorryInfo(Position(other.pos.line, other.pos.column + shift),
                                         Position(other.end_pos.line,
                                                  other.end_pos.column + shift),
                                         other.goal)
                    ladders[j] = None
        if compiled.ok and closed == len(swapped):
            result, verified = compiled, text

    if verified != text:
        final = check_script(text, session, config.compile_timeout)
        unclosed = {(site.pos, site.end_pos) for i, site in enumerate(sites)
                    if i not in commits}
        if not (final.ok and {(x.pos, x.end_pos) for x in final.sorries} == unclosed):
            narrow("the last check of the committed text disagrees")
            return None
        result = final
    return text, result, [commits[i] for i in sorted(commits)]


def solve_sorries(s: SorrifiedScript, session,
                  config: RepairConfig | None = None) -> SorrifiedScript:
    """Try to discharge every sorry: one `hint` wave over all sites, then
    the trial waves, each one compile that tries every open site's next
    candidate, and commit the first that closes each site.  After the
    first wave in which a candidate fails, one precheck compile drops every
    site that nothing left on its ladder closes, so the waves go on only
    where a candidate will land.  A commit edits one line, so line ranges
    never move.  The wave that closes the last open site is the result;
    otherwise one more compile of the committed text must pass with a
    sorry at exactly the sites left open, or the waves run again from the
    start at width one.  With nothing committed, no compile is added and
    the input's compile stands.  Sites that resist all candidates stay
    sorried.  The text is parsed once, at the end, and only when something
    was committed.  The result still compiles Pass or PassWithSorries."""
    config = config or RepairConfig()
    if not s.compile_result.sorries:
        return s
    answers = hint_candidates(s.script.text, s.compile_result.sorries, session, config)
    text, result, commits = (_waves(s, answers, True, session, config)
                             or _waves(s, answers, False, session, config))
    script = parse_script(text, s.script.statement) if commits else s.script
    return SorrifiedScript(script, s.actions, result, s.commits + commits)


def replay_commits(script: ProofScript, commits: list[CommittedTactic]) -> ProofScript:
    text = script.text
    for commit in commits:
        text, _ = _swap(text, [(commit.site, commit.tactic)])
    return parse_script(text, script.statement)
