"""Rule-based cleanup of superficial Lean syntax mistakes in model output.

Rules are plain regex rewrites applied in table order, each to a fixpoint,
over the code regions of the text only: comments and string literals are
cut out before matching and re-inserted verbatim afterwards.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import RefineError, RuleBudgetExceeded
from .proofscript import mask_regions

SCOPE_FILE = "whole-file"
SCOPE_LINE = "per-line"

_MAX_PASSES_PER_RULE = 100
_MAX_TABLE_SWEEPS = 3

# ASCII control chars never occur in Lean source; used to stand in for the
# masked comment/string segments while rules run.
_TOKEN = "\x00{}\x01"
_TOKEN_RE = re.compile("\x00(\\d+)\x01")


@dataclass(frozen=True)
class RewriteRule:
    id: str
    pattern: str
    replacement: str
    scope: str
    description: str

    def compiled(self) -> re.Pattern:
        flags = re.MULTILINE
        if self.scope == SCOPE_FILE:
            flags |= re.DOTALL
        return re.compile(self.pattern, flags)


_DEFAULT_RULES = [
    RewriteRule(
        "from-by",
        r"\bfrom\s+by\b",
        ":= by",
        SCOPE_LINE,
        "replace the Lean 3 `from by` proof introducer with `:= by`",
    ),
    RewriteRule(
        "begin-end",
        r"(:=\s*)?\bbegin\b(.*?)(?:\n[ \t]*)?\bend\b",
        r"\1by\2",
        SCOPE_FILE,
        "rewrite a Lean 3 begin...end block as a by block",
    ),
    RewriteRule(
        "rw-brackets",
        r"\b(rw|rwa)\s+(?!\[)(←\s*)?([A-Za-z_][A-Za-z0-9_'.₀-₉]*)",
        r"\1 [\2\3]",
        SCOPE_LINE,
        "wrap a bare rewrite argument in square brackets",
    ),
    RewriteRule(
        "obtain-trailing-comma",
        r"^(\s*obtain\b.*?:=.*?),\s*$",
        r"\1",
        SCOPE_LINE,
        "strip the Lean 3 trailing comma after an obtain destructuring",
    ),
    RewriteRule(
        "assume-intro",
        r"\bassume\b",
        "intro",
        SCOPE_LINE,
        "replace the Lean 3 `assume` keyword with `intro`",
    ),
    RewriteRule(
        "nat-namespace",
        r"\bnat\.(\w)",
        r"Nat.\1",
        SCOPE_LINE,
        "capitalize the Lean 3 nat.* namespace",
    ),
    RewriteRule(
        "int-namespace",
        r"\bint\.(\w)",
        r"Int.\1",
        SCOPE_LINE,
        "capitalize the Lean 3 int.* namespace",
    ),
]


def default_ruleset() -> list[RewriteRule]:
    """The shipped rewrite table, in application order."""
    return list(_DEFAULT_RULES)


def load_rules(path) -> list[RewriteRule]:
    """Load a rule table from a JSON-lines file (one rule object per line)."""
    rules = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rec = json.loads(line)
                rule = RewriteRule(
                    rec["id"], rec["pattern"], rec["replacement"],
                    rec.get("scope", SCOPE_LINE), rec.get("description", ""),
                )
                rule.compiled()
            except (json.JSONDecodeError, KeyError, re.error) as exc:
                raise RefineError(f"{path}:{line_no}: bad rule record: {exc}") from exc
            rules.append(rule)
    return rules


def _cut_masked_segments(source: str) -> tuple[str, list[str]]:
    """Replace each comment/string segment with an indexed placeholder."""
    masked = mask_regions(source)
    pieces: list[str] = []
    segments: list[str] = []
    i = 0
    n = len(source)
    while i < n:
        if masked[i] != source[i]:
            j = i
            while j < n and masked[j] != source[j]:
                j += 1
            pieces.append(_TOKEN.format(len(segments)))
            segments.append(source[i:j])
            i = j
        else:
            pieces.append(source[i])
            i += 1
    return "".join(pieces), segments


def _restore_segments(text: str, segments: list[str]) -> str:
    seen = [int(m.group(1)) for m in _TOKEN_RE.finditer(text)]
    if sorted(seen) != list(range(len(segments))):
        raise RefineError("a rewrite rule destroyed a comment or string region")
    return _TOKEN_RE.sub(lambda m: segments[int(m.group(1))], text)


def refine(source: str, rules: list[RewriteRule] | None = None) -> tuple[str, list[str]]:
    """Apply the rule table to the code regions of `source`.

    Returns the rewritten text and the ids of every rule that changed it.
    Rules run in table order, each to a fixpoint capped at 100 passes; the
    whole table is swept at most 3 times so later rules can enable earlier
    ones without risking divergence.
    """
    if rules is None:
        rules = default_ruleset()
    work, segments = _cut_masked_segments(source)
    size_cap = 4 * len(work) + 4096  # runaway-replacement guard
    applied: list[str] = []
    for _ in range(_MAX_TABLE_SWEEPS):
        sweep_changed = False
        for rule in rules:
            pat = rule.compiled()
            for _pass in range(_MAX_PASSES_PER_RULE + 1):
                new = pat.sub(rule.replacement, work)
                if new == work:
                    break
                if _pass == _MAX_PASSES_PER_RULE or len(new) > size_cap:
                    raise RuleBudgetExceeded(
                        f"rule {rule.id!r} did not reach a fixpoint in "
                        f"{_MAX_PASSES_PER_RULE} passes"
                    )
                work = new
                sweep_changed = True
                if rule.id not in applied:
                    applied.append(rule.id)
        if not sweep_changed:
            break
    return _restore_segments(work, segments), applied
