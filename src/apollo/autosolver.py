"""Close sorry placeholders with Lean's own automation.

The sites are the sorries of `check_script`, in position order, and each is
attacked in turn: one `hint` probe, then a trial of each suggestion it
returns in order, then a fixed suite of finishing tactics, then two-step
combinations.  Each trial is one compile of an edited text, never parsed,
and the first candidate that closes the site is committed: its trial compile
shows strictly fewer sorries and no new errors, so a failing or timed-out
candidate can never damage the script.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .config import RepairConfig
from .proofscript import ProofScript, parse_script, replace_lines
from .repl import CompileResult, SorryInfo
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


def _swap(text: str, site: SorryInfo, tactic: str) -> str:
    """`text` with the sorry token at `site`, on one line, replaced by `tactic`."""
    line = text.split("\n")[site.pos.line - 1]
    new_line = line[: site.pos.column] + tactic + line[site.end_pos.column :]
    return replace_lines(text, [(site.pos.line, site.pos.line, [new_line])])


def _trial(text: str, site: SorryInfo, tactic: str, session,
           config: RepairConfig) -> tuple[str, CompileResult]:
    trial = _swap(text, site, tactic)
    return trial, check_script(trial, session, config.candidate_timeout, pp=True)


def _closes(result: CompileResult, baseline_sorries: int) -> bool:
    return result.ok and not result.errors and len(result.sorries) < baseline_sorries


def hint_candidates(text: str, site: SorryInfo, session,
                    config: RepairConfig | None = None) -> list[str]:
    """Run `hint` at the site of the script `text`, one compile, and return
    its suggestions in order.  They are not validated here: `solve_sorries`
    trials each like any other candidate, so a suggestion that only makes
    progress is never committed."""
    config = config or RepairConfig()
    _, probe = _trial(text, site, "hint", session, config)
    return parse_hint_suggestions(probe)


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

    while skipped < len(result.sorries):
        site = result.sorries[skipped]
        for tactic in hint_candidates(text, site, session, config) + suite_candidates(config):
            trial, trial_result = _trial(text, site, tactic, session, config)
            if _closes(trial_result, len(result.sorries)):
                log.debug("autosolver: %r closed site at line %d", tactic, site.pos.line)
                text, result = trial, trial_result
                commits.append(CommittedTactic(site, tactic))
                break
        else:
            skipped += 1

    script = (parse_script(text, s.script.statement) if len(commits) > len(s.commits)
              else s.script)
    return SorrifiedScript(script, s.actions, result, commits)


def replay_commits(script: ProofScript, commits: list[CommittedTactic]) -> ProofScript:
    text = script.text
    for commit in commits:
        text = _swap(text, commit.site, commit.tactic)
    return parse_script(text, script.statement)
