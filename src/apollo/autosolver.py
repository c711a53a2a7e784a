"""Close sorry placeholders with Lean's own automation.

The sites are the sorries of `check_script`, in position order.  One `hint`
wave asks Lean for every site's suggestions at once: `hint` in place of
each sorry, one compile, and each site's suggestions read from the info
message at its own `hint` token.  Then each site is attacked in turn: a
trial of each suggestion in order, then a fixed suite of finishing tactics,
then two-step combinations.  A site the wave left unanswered gets its own
`hint` probe first.  Each trial is one compile of an edited text, never
parsed, and the first candidate that closes the site is committed: its
trial compile shows strictly fewer sorries and no new errors, so a failing
or timed-out candidate can never damage the script.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .config import RepairConfig
from .proofscript import ProofScript, parse_script, replace_lines
from .repl import CompileResult, Diagnostic, SorryInfo
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


def _swap(text: str, site: SorryInfo, tactic: str) -> str:
    """`text` with the sorry token at `site`, on one line, replaced by `tactic`."""
    line = text.split("\n")[site.pos.line - 1]
    new_line = line[: site.pos.column] + tactic + line[site.end_pos.column :]
    return replace_lines(text, [(site.pos.line, site.pos.line, [new_line])])


def _trial(text: str, site: SorryInfo, tactic: str, session,
           config: RepairConfig) -> tuple[str, CompileResult]:
    trial = _swap(text, site, tactic)
    return trial, check_script(trial, session, config.candidate_timeout)


def _closes(result: CompileResult, baseline_sorries: int) -> bool:
    return result.ok and not result.errors and len(result.sorries) < baseline_sorries


def hint_candidates(text: str, sites: list[SorryInfo], session,
                    config: RepairConfig | None = None) -> list[list[str] | None]:
    """Run `hint` at every site of the script `text`, one compile, and
    return each site's suggestions in order, read from the messages at that
    site's position.  The sites are in position order, as `check_script`
    gives them, and are swapped right to left.  A site no message answers
    gets None: under Lean a failed `hint` aborts the rest of its block, a
    timed-out or crashed compile answers none, and a `hint` that shares its
    line with an earlier site sits left of its sorry.  A lone site's probe
    is its own answer, so it gets `[]`.  The compile may take as long as
    one probe per site, but no longer than one `compile_timeout`.  The
    suggestions are not validated here: `solve_sorries` trials each like
    any other candidate, so a suggestion that only makes progress is never
    committed."""
    config = config or RepairConfig()
    wave = text
    for site in reversed(sites):
        wave = _swap(wave, site, "hint")
    timeout = min(config.candidate_timeout * len(sites), config.compile_timeout)
    probe = check_script(wave, session, timeout)
    answers: list[list[str] | None] = []
    for site in sites:
        messages = [d for d in probe.diagnostics if d.pos == site.pos]
        answers.append(parse_hint_suggestions(messages)
                       if messages or len(sites) == 1 else None)
    return answers


def solve_sorries(s: SorrifiedScript, session,
                  config: RepairConfig | None = None) -> SorrifiedScript:
    """Try to discharge every sorry: one `hint` wave over all sites, then at
    each site, trial its `hint` suggestions and then the suite, one compile
    each, and commit the first that closes it.  A commit edits one line, so
    the wave answers of the other lines stay with their sites; a site the
    wave left unanswered, or whose line a commit edited, is probed alone
    when its turn comes.  Sites that resist all candidates stay
    sorried.  The text is parsed once, at the end, and only when something
    was committed.  The result still compiles Pass or PassWithSorries."""
    config = config or RepairConfig()
    text = s.script.text
    result = s.compile_result
    commits: list[CommittedTactic] = list(s.commits)
    hints = (dict(zip(result.sorries, hint_candidates(text, result.sorries, session, config)))
             if result.sorries else {})
    skipped = 0

    while skipped < len(result.sorries):
        site = result.sorries[skipped]
        suggestions = hints.get(site)
        if suggestions is None:
            suggestions = hint_candidates(text, [site], session, config)[0]
        for tactic in suggestions + suite_candidates(config):
            trial, trial_result = _trial(text, site, tactic, session, config)
            if _closes(trial_result, len(result.sorries)):
                log.debug("autosolver: %r closed site at line %d", tactic, site.pos.line)
                text, result = trial, trial_result
                commits.append(CommittedTactic(site, tactic))
                hints = {other: answer for other, answer in hints.items()
                         if other.pos.line != site.pos.line}
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
