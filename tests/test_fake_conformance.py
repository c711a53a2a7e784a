"""The fake REPL held to Lean, one row per construct.

Each row is a construct that Apollo writes or meets, the code that shows
it, the reply Lean gives to it, and where in the Lean 4 or Mathlib source
that reply comes from.  A row pins only what it cites: the other messages
of the same reply are left to rows of their own.
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

SORRY_SOURCE = (
    "Lean/AddDecl.lean: `addDecl` logs `declaration uses 'sorry'` with "
    "`logWarning` at the current ref, which the declaration's elaboration "
    "has set to its name; the leanprover-community/repl README shows it "
    "for `def f : Nat := by sorry` at line 1, columns 4 to 5")

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
    Row("a sorry, warned at the declaration's name",
        "theorem t : 1 = 1 := by\n  sorry\n",
        "declaration uses 'sorry'", "warning", (1, 8), (1, 9), SORRY_SOURCE),
    Row("a sorry in a declaration after a comment line",
        "-- the first line\ntheorem two_eq (x : ℕ) : x = x := by\n"
        "  have h : 1 = 1 := by sorry\n  rfl\n",
        "declaration uses 'sorry'", "warning", (2, 8), (2, 14), SORRY_SOURCE),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.construct for row in ROWS])
def test_fake_replies_as_lean(row):
    repl = FakeRepl(RuleTable(hints={"G2": ["gcongr"]}))
    reply = repl.handle(row.code)
    (message,) = [m for m in reply["messages"] if m["data"].startswith(row.starts)]
    assert message["severity"] == row.severity
    assert (message["pos"]["line"], message["pos"]["column"]) == row.pos
    assert (message["endPos"]["line"], message["endPos"]["column"]) == row.end_pos


def test_options_hold_in_commands_sent_with_their_env():
    """Row: options set by one command hold in a later command sent with
    its env, and not in a command sent without one.

    leanprover-community/repl `REPL/Snapshots.lean`: a command sent with
    `env` runs from that env's `CommandSnapshot.cmdState`;
    `Lean/Elab/Command.lean`: `set_option` writes `Scope.opts` of that
    state."""
    repl = FakeRepl(RuleTable())
    primed = repl.handle("import Mathlib\nset_option pp.numericTypes true")["env"]
    code = "theorem t (x : ℝ) : x + 2 = 2 + x := by\n  sorry"
    (typed,) = repl.handle(code, primed)["sorries"]
    assert typed["goal"] == "x : ℝ\n⊢ x + (2 : ℝ) = (2 : ℝ) + x"
    # and in a command sent against that command's own env
    later = repl.handle("theorem u : 1 = 1 := by rfl", primed)["env"]
    (again,) = repl.handle(code, later)["sorries"]
    assert again["goal"] == typed["goal"]
    (bare,) = repl.handle(code)["sorries"]
    assert bare["goal"] == "x : ℝ\n⊢ x + 2 = 2 + x"


NESTED_BY_SOURCE = (
    "Lean/Elab/Term.lean: a term whose elaboration throws, the nested "
    "`by` block of a `have` among them, is logged and replaced by `sorry` "
    "under `errToSorry` (`exceptionToSorry`), so the enclosing tactic block "
    "goes on with the `have`'s hypothesis bound; a tactic sequence throws at "
    "its first failing tactic and runs none after it.  Unverified here "
    "against Lean, which is not installed")


def _errors(reply):
    return [((m["pos"]["line"], m["pos"]["column"]), m["data"])
            for m in reply["messages"] if m["severity"] == "error"]


def test_errors_in_independent_have_blocks_come_from_one_compile():
    """Row: a failed nested `have … := by` block is logged and closed, and
    the proof goes on with its hypothesis bound: one compile reports the
    error of each block, and the second block's `exact p` sees `p`
    (a type mismatch, not an unknown identifier).  Sorrify's rounds repair
    every such block from one compile.  Source: NESTED_BY_SOURCE."""
    reply = FakeRepl(RuleTable()).handle(
        "theorem t : 2 + 2 = 4 := by\n"
        "  have p : 1 = 1 := by\n    exact h_missing\n"
        "  have q : 2 = 2 := by\n    exact p\n"
        "  norm_num\n")
    assert _errors(reply) == [((3, 4), "unknown identifier 'h_missing'"),
                              ((5, 4), "type mismatch in exact")]


def test_a_tactic_block_reports_only_its_first_error():
    """Row: a tactic sequence stops at its first error, and the block's
    goal is closed by the recovery above, so neither the later tactic nor
    `unsolved goals` is reported.  Source: NESTED_BY_SOURCE."""
    reply = FakeRepl(RuleTable()).handle(
        "theorem t : 1 = 1 := by\n"
        "  have h : 2 = 2 := by\n    exact h_one\n    exact h_two\n"
        "  rfl\n")
    assert _errors(reply) == [((3, 4), "unknown identifier 'h_one'")]


# Row 2(e): constructs the fake already answers as Lean does, cited.  Each
# test pins only the message text and its start, which the citation covers.

BLOCK_COMMENT_SOURCE = (
    "Lean/Parser/Basic.lean: `finishCommentBlock` counts `/-` against `-/` "
    "in a nesting depth, so block comments nest and span lines, and at the "
    "end of the input it fails with `unterminated comment` where the input "
    "ends.  Unverified here against Lean, which is not installed")

IMPORT_SOURCE = (
    "Lean/Parser/Command.lean keeps an `import` command parser only so that "
    "its elaborator in Lean/Elab/BuiltinCommand.lean can reject it: it "
    "throws `invalid 'import' command, it must be used in the beginning of "
    "the file` at the command.  Unverified here against Lean, which is not "
    "installed")

OTHER_COMMAND_SOURCE = (
    "leanprover-community/repl `REPL/Main.lean`: a command sent with `env` "
    "is elaborated from that env's snapshot, so a theorem that another "
    "command added to another env is not in scope, and name resolution in "
    "Lean/Elab/Term.lean reports it as an `unknown identifier`.  Unverified "
    "here against Lean, which is not installed")


def _starts(reply):
    return [((m["pos"]["line"], m["pos"]["column"]), m["data"])
            for m in reply["messages"]]


def test_a_nested_block_comment_hides_what_it_holds():
    """Row: a block comment nests and spans lines, and what it holds is no
    code: neither the `sorry` nor the text after the inner `-/`.  Source:
    BLOCK_COMMENT_SOURCE."""
    reply = FakeRepl(RuleTable()).handle(
        "theorem t : 1 = 1 := by\n"
        "  /- a /- nested -/ sorry\n"
        "     still a comment -/\n"
        "  rfl\n")
    assert reply["messages"] == [] and reply["sorries"] == []


def test_an_unterminated_block_comment_fails_at_the_end_of_the_input():
    """Row: a block comment that never closes is an error where the input
    ends.  Source: BLOCK_COMMENT_SOURCE."""
    reply = FakeRepl(RuleTable()).handle(
        "theorem t : 1 = 1 := by\n  rfl\n/- never closed")
    assert _starts(reply) == [((3, 15), "unterminated comment")]


def test_an_import_after_code_is_an_error_at_the_command():
    """Row: `import` after any command is rejected at its keyword.
    Source: IMPORT_SOURCE."""
    reply = FakeRepl(RuleTable()).handle(
        "theorem t : 1 = 1 := by\n  rfl\nimport Mathlib\n")
    assert _starts(reply) == [
        ((3, 0), "invalid 'import' command, it must be used in the beginning of the file")]


def test_exact_does_not_see_a_theorem_of_another_command():
    """Row: a theorem proved by one command is not in scope in a command
    sent without that command's env, so `exact` of it names an unknown
    identifier on its line; in the same command it is in scope.  The fake
    puts the error at the tactic, where Lean puts it at the identifier: the
    column is not pinned.  Source: OTHER_COMMAND_SOURCE."""
    repl = FakeRepl(RuleTable())
    assert repl.handle("theorem foo : 1 = 1 := by\n  rfl\n")["messages"] == []
    reply = repl.handle("theorem t : 1 = 1 := by\n  exact foo\n")
    [((line, _), message)] = _starts(reply)
    assert (line, message) == (2, "unknown identifier 'foo'")
    same = repl.handle("theorem foo : 1 = 1 := by\n  rfl\n"
                       "theorem t : 1 = 1 := by\n  exact foo\n")
    assert same["messages"] == []


# Row 2(c): `first | …`, parenthesised `;` sequences and `done`, which the
# auto-solver's precheck writes at every open site.  Where every
# alternative fails, the fake puts the one error at the tactic's first
# column, the `first` keyword, where Lean puts it at the last alternative's
# failing tactic: those rows pin only the line, as row 2(e) does.

FIRST_SOURCE = (
    "Lean/Elab/Tactic/BuiltinTactic.lean: `evalFirst` tries each "
    "alternative with `<|>` and, past the last, rethrows that one's "
    "exception; `evalParen` runs the tactic sequence inside the "
    "parentheses, one tactic after another; `evalDone` reports `unsolved "
    "goals` and fails while a goal is open.  Lean/Elab/Tactic/Basic.lean: "
    "the `<|>` of `TacticM` catches by restoring the state saved before "
    "the alternative, and that `SavedState.restore` puts back the message "
    "log (Lean/CoreM.lean), so a failed alternative leaves no message.  "
    "Init/Tactics.lean: `t <;> s` is a macro for `focus (t; all_goals s)`, "
    "one tactic inside a sequence.  Unverified here against Lean, which is "
    "not installed")

FIRST_TABLE = RuleTable(
    closes=[{"goal": "G1", "tactic": "ring_nf", "requires": []}],
    steps=[{"goal": "G4", "tactic": "constructor", "becomes": "G1", "requires": []}])


def _first_reply(goal, tactic):
    return FakeRepl(FIRST_TABLE).handle(
        f"theorem t : 1 = 1 := by\n  have h : {goal} := by\n    {tactic}\n  rfl\n")


def test_first_closes_with_a_later_alternative_and_the_failed_ones_leave_nothing():
    """Row: the first alternative that closes the goal is kept, and the
    alternatives that failed before it leave no message.  Source:
    FIRST_SOURCE."""
    reply = _first_reply("2 + 2 = 4", "first | (exact h_missing; done) | (norm_num; done)")
    assert reply["messages"] == [] and reply["sorries"] == []


def test_an_alternative_that_only_makes_progress_fails_under_done():
    """Row: `done` fails while a goal is open, so an alternative that only
    makes progress fails; without `done` the same sequence is kept, and the
    tactics of a parenthesised sequence run in order.  Source:
    FIRST_SOURCE."""
    [((line, _), message)] = _errors(_first_reply("G4", "first | (constructor; done)"))
    assert line == 3 and message.startswith("unsolved goals")
    assert _first_reply("G4", "first | (constructor; done) | (constructor; ring_nf; done)")[
        "messages"] == []
    assert _first_reply("G4", "(constructor; ring_nf)")["messages"] == []


def test_when_every_alternative_fails_one_error_is_reported_the_last_ones():
    """Row: with every alternative failed, `first` reports one error, the
    last alternative's, on the tactic's line.  The message's wording is the
    fake's own.  Source: FIRST_SOURCE."""
    reply = _first_reply("3 * 3 = 10", "first | (exact h_missing; done) | (norm_num; done)")
    [((line, _), message)] = _errors(reply)
    assert line == 3 and message == "norm_num evaluated the goal to False"


def test_a_combinator_inside_parentheses_runs_as_one_tactic():
    """Row: `t <;> s` inside a parenthesised alternative is one tactic of
    its sequence.  Source: FIRST_SOURCE."""
    reply = _first_reply("2 + 2 = 4",
                         "first | (exact h_missing; done) | (norm_num <;> linarith; done)")
    assert reply["messages"] == []


def test_the_fake_counts_leaf_tactics_and_not_first():
    """Not a row: the fake's second cost figure, beside the compile count.
    Here `exact`, `norm_num` and `done` run inside `first`, then `rfl`."""
    repl = FakeRepl(FIRST_TABLE)
    repl.handle("theorem t : 1 = 1 := by\n  have h : 2 + 2 = 4 := by\n"
                "    first | (exact h_missing; done) | (norm_num; done)\n  rfl\n")
    assert repl.evaluated == 4
