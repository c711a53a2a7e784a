"""Close sorry placeholders with Lean's own automation.

Each sorry site is attacked in position order: suggestions harvested from
the `hint` tactic first, then a fixed suite of finishing tactics, then
two-step combinations.  A candidate is committed only when the trial
compile shows strictly fewer sorries and no new errors, so a failing or
timed-out candidate can never damage the script.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .config import RepairConfig
from .proofscript import ProofScript, SourceSpan, compile_lines, replace_span_text
from .repl import CompileResult, SorryInfo
from .sorrifier import SorrifiedScript, pp_preamble

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
    rank: int


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
    candidates = [
        TacticCandidate(text, SOURCE_SUITE, rank)
        for rank, text in enumerate(singles)
    ]
    combos = [f"{first} <;> {second}"
              for first in singles[:4] for second in _COMBO_SECONDS]
    candidates.extend(
        TacticCandidate(text, SOURCE_COMBINATION, len(singles) + i)
        for i, text in enumerate(combos)
    )
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


def _sorry_span(site: SorryInfo, mapping: list[int | None]) -> SourceSpan | None:
    idx = site.pos.line - 1
    if idx < 0 or idx >= len(mapping) or mapping[idx] is None:
        return None
    line = mapping[idx]
    return SourceSpan(line, site.pos.column, line, site.end_pos.column)


def _trial(script: ProofScript, span: SourceSpan, text: str, session,
           config: RepairConfig) -> tuple[ProofScript, CompileResult]:
    candidate_script = replace_span_text(script, span, text)
    code, _ = compile_lines(candidate_script, pp_preamble())
    result = session.check(code, config.candidate_timeout)
    return candidate_script, result


def _closes(result: CompileResult, baseline_sorries: int) -> bool:
    return result.ok and not result.errors and len(result.sorries) < baseline_sorries


def hint_candidates(script: ProofScript, span: SourceSpan, session,
                    baseline_sorries: int,
                    config: RepairConfig | None = None) -> list[TacticCandidate]:
    """Ask `hint` at the site and keep only suggestions that fully discharge
    the goal, that is leave fewer than `baseline_sorries` sorries in the
    script; suggestions that merely make progress are filtered out by a
    trial compile each."""
    config = config or RepairConfig()
    _, probe = _trial(script, span, "hint", session, config)
    suggestions = parse_hint_suggestions(probe)
    validated: list[TacticCandidate] = []
    for rank, text in enumerate(suggestions):
        _, result = _trial(script, span, text, session, config)
        if _closes(result, baseline_sorries):
            validated.append(TacticCandidate(text, SOURCE_HINT, rank))
    return validated


def solve_sorries(s: SorrifiedScript, session,
                  config: RepairConfig | None = None) -> SorrifiedScript:
    """Try to discharge every sorry; sites that resist all candidates stay
    sorried.  The result still compiles Pass or PassWithSorries."""
    config = config or RepairConfig()
    if not s.compile_result.sorries:
        return SorrifiedScript(s.script, s.actions, s.compile_result, list(s.commits))

    script = s.script
    result = s.compile_result
    commits: list[CommittedTactic] = list(s.commits)
    skipped = 0

    while True:
        _, mapping = compile_lines(script, pp_preamble())
        sorries = sorted(result.sorries, key=lambda x: (x.pos.line, x.pos.column))
        if skipped >= len(sorries):
            break
        site = sorries[skipped]
        span = _sorry_span(site, mapping)
        if span is None:
            skipped += 1
            continue

        committed = False
        candidates = hint_candidates(script, span, session, len(sorries), config)
        candidates.extend(suite_candidates(config))
        for cand in candidates:
            trial_script, trial_result = _trial(script, span, cand.text, session, config)
            if _closes(trial_result, len(sorries)):
                log.debug("autosolver: %r closed site at line %d", cand.text, span.start_line)
                script, result = trial_script, trial_result
                commits.append(CommittedTactic(span, cand))
                committed = True
                break
        if not committed:
            skipped += 1

    return SorrifiedScript(script, s.actions, result, commits)


def replay_commits(script: ProofScript, commits: list[CommittedTactic]) -> ProofScript:
    for commit in commits:
        script = replace_span_text(script, commit.span, commit.candidate.text)
    return script
