"""Close sorry placeholders with Lean's own automation.

Each sorry site is attacked in position order: one `hint` probe, then a
trial of each suggestion it returns in order, then a fixed suite of
finishing tactics, then two-step combinations.  Each trial is one compile
of an edited text, never parsed, and the first candidate that closes the
site is committed: its trial compile shows strictly fewer sorries and no
new errors, so a failing or timed-out candidate can never damage the script.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .config import RepairConfig
from .proofscript import ProofScript, SourceSpan, parse_script, replace_lines
from .repl import CompileResult
from .sorrifier import SorrifiedScript, check_script

log = logging.getLogger(__name__)

SOURCE_HINT = "hint"
SOURCE_SUITE = "suite"
SOURCE_COMBINATION = "combination"

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
class TacticCandidate:
    text: str
    source: str


@dataclass(frozen=True)
class CommittedTactic:
    span: SourceSpan  # the sorry token replaced, in script coordinates
    candidate: TacticCandidate


def load_suite(path) -> list[str]:
    """One tactic invocation per line; blank lines and # comments skipped."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line)
    return out


def suite_candidates(config: RepairConfig | None = None) -> list[TacticCandidate]:
    """The finishing-tactic ladder: singles in suite order, then the
    `first <;> second` combinations of the first four singles with each of
    linarith, nlinarith and ring_nf (at most 12)."""
    config = config or RepairConfig()
    singles = load_suite(config.suite_path) if config.suite_path else list(DEFAULT_SUITE)
    candidates = [TacticCandidate(text, SOURCE_SUITE) for text in singles]
    candidates.extend(TacticCandidate(f"{first} <;> {second}", SOURCE_COMBINATION)
                      for first in singles[:4] for second in _COMBO_SECONDS)
    return candidates


def parse_hint_suggestions(result: CompileResult) -> list[str]:
    """Pull tactic texts out of the `Try these:` info messages."""
    suggestions: list[str] = []
    for diag in result.diagnostics:
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


def _swap(text: str, span: SourceSpan, tactic: str) -> str:
    """`text` with the sorry token at the one-line `span` replaced by `tactic`."""
    line = text.split("\n")[span.start_line - 1]
    new_line = line[: span.start_col] + tactic + line[span.end_col :]
    return replace_lines(text, [(span.start_line, span.start_line, [new_line])])


def _trial(text: str, span: SourceSpan, tactic: str, session,
           config: RepairConfig) -> tuple[str, CompileResult]:
    trial = _swap(text, span, tactic)
    return trial, check_script(trial, session, config.candidate_timeout, pp=True)


def _closes(result: CompileResult, baseline_sorries: int) -> bool:
    return result.ok and not result.errors and len(result.sorries) < baseline_sorries


def hint_candidates(text: str, span: SourceSpan, session,
                    config: RepairConfig | None = None) -> list[TacticCandidate]:
    """Run `hint` at the site of the script `text`, one compile, and return
    its suggestions in order.  They are not validated here: `solve_sorries`
    trials each like any other candidate, so a suggestion that only makes
    progress is never committed."""
    config = config or RepairConfig()
    _, probe = _trial(text, span, "hint", session, config)
    return [TacticCandidate(suggestion, SOURCE_HINT)
            for suggestion in parse_hint_suggestions(probe)]


def solve_sorries(s: SorrifiedScript, session,
                  config: RepairConfig | None = None) -> SorrifiedScript:
    """Try to discharge every sorry: at each site, trial the `hint`
    suggestions and then the suite, one compile each, and commit the first
    that closes it.  Sites that resist all candidates stay sorried.  The
    text is parsed once, at the end, and only when something was committed.
    The result still compiles Pass or PassWithSorries."""
    config = config or RepairConfig()
    text = s.script.text
    result = s.compile_result
    commits: list[CommittedTactic] = list(s.commits)
    skipped = 0

    while True:
        sorries = sorted(result.sorries, key=lambda x: (x.pos.line, x.pos.column))
        if skipped >= len(sorries):
            break
        site = sorries[skipped]
        if site.pos.line == 0:
            skipped += 1
            continue
        span = SourceSpan(site.pos.line, site.pos.column,
                          site.pos.line, site.end_pos.column)

        candidates = hint_candidates(text, span, session, config)
        for cand in candidates + suite_candidates(config):
            trial, trial_result = _trial(text, span, cand.text, session, config)
            if _closes(trial_result, len(sorries)):
                log.debug("autosolver: %r closed site at line %d", cand.text, span.start_line)
                text, result = trial, trial_result
                commits.append(CommittedTactic(span, cand))
                break
        else:
            skipped += 1

    script = (parse_script(text, s.script.statement) if len(commits) > len(s.commits)
              else s.script)
    return SorrifiedScript(script, s.actions, result, commits)


def replay_commits(script: ProofScript, commits: list[CommittedTactic]) -> ProofScript:
    text = script.text
    for commit in commits:
        text = _swap(text, commit.span, commit.candidate.text)
    return parse_script(text, script.statement)
