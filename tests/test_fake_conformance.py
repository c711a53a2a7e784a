"""The fake REPL held to Lean, one row per construct.

Each row is a construct that Apollo writes or meets, the code that shows
it, the reply Lean gives to it, and where in the Lean 4 or Mathlib source
that reply comes from.  A row pins only what it cites: the other messages
of the same reply (for example the position of `declaration uses 'sorry'`)
are left to rows of their own.
"""

from dataclasses import dataclass

import pytest

from apollo.testing.fake_repl import FakeRepl, RuleTable


@dataclass(frozen=True)
class Row:
    construct: str
    code: str
    # the message Lean gives: its text starts with `starts`, at the 1-based
    # line and 0-based columns `pos` and `end_pos`
    starts: str
    severity: str
    pos: tuple[int, int]
    end_pos: tuple[int, int]
    source: str


HINT_SOURCE = (
    "Mathlib/Tactic/Hint.lean: `hint` passes its own syntax to "
    "`addSuggestions`; Lean/Meta/Tactic/TryThis.lean: `addSuggestions` logs "
    "the `Try these:` message with `logInfoAt` at that syntax, so it spans "
    "the `hint` token")

ROWS = [
    Row("hint suggestions, on a line of their own",
        "theorem t : G2 := by\n  hint\n",
        "Try these:\n• gcongr", "info", (2, 2), (2, 6), HINT_SOURCE),
    Row("hint suggestions, after an inline `have … := by`",
        "theorem t : 1 = 1 := by\n  have h : G2 := by hint\n  rfl\n",
        "Try these:\n• gcongr", "info", (2, 20), (2, 24), HINT_SOURCE),
    # where no tactic applies, the fake's wording is its own; the row pins
    # only where the message sits
    Row("hint with nothing to suggest",
        "theorem t : 1 = 1 := by\n  have h : G3 := by\n    hint\n  rfl\n",
        "hint found no applicable tactics", "info", (3, 4), (3, 8), HINT_SOURCE),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.construct for row in ROWS])
def test_fake_replies_as_lean(row):
    repl = FakeRepl(RuleTable(hints={"G2": ["gcongr"]}))
    reply = repl.handle(row.code)
    (message,) = [m for m in reply["messages"] if m["data"].startswith(row.starts)]
    assert message["severity"] == row.severity
    assert (message["pos"]["line"], message["pos"]["column"]) == row.pos
    assert (message["endPos"]["line"], message["endPos"]["column"]) == row.end_pos
