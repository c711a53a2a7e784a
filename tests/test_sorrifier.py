import pytest

from apollo import sorrifier
from apollo.errors import (
    NoEnclosingNode,
    Nonterminating,
    StatementMalformed,
    UnterminatedComment,
)
from apollo.proofscript import count_sorries, parse_script, serialize
from apollo.repl import (
    FAIL,
    PASS,
    PASS_WITH_SORRIES,
    Diagnostic,
    Position,
    classify,
    start_session,
)
from apollo.sorrifier import (
    INSERT_SORRY,
    REMOVE_BLOCK,
    REMOVE_LINE,
    REPLACE_BLOCK_WITH_SORRY,
    apply_action,
    check_script,
    choose_repair,
    replay_actions,
    sorrify,
    validate_statement,
)
from conftest import CORPUS, SUITE_CANDIDATES, corpus_scripts, fake_repl_cmd

# Broken proofs the loop must always land in Pass / PassWithSorries.
ADVERSARIAL = {
    "unknown_root_tactic": (
        "theorem a1 : 2 + 2 = 4 := by\n"
        "  frobnicate\n"
        "  norm_num\n"
    ),
    "unknown_in_single_line_have": (
        "theorem a2 : 2 + 2 = 4 := by\n"
        "  have h : 1 + 1 = 2 := by\n"
        "    frob\n"
        "  norm_num\n"
    ),
    "two_errors_same_have": (
        "theorem a3 : 2 + 2 = 4 := by\n"
        "  have h : 1 + 1 = 2 := by\n"
        "    frob_one\n"
        "    frob_two\n"
        "  norm_num\n"
    ),
    "every_block_malformed": (
        "theorem a4 : 2 + 2 = 4 := by\n"
        "  mystery_tactic_a\n"
    ),
    "unsolved_goals_at_root": (
        "theorem a5 : 2 + 2 = 4 := by\n"
        "  have h : 1 = 1 := by\n"
        "    rfl\n"
    ),
    "unsolved_goals_in_have": (
        "theorem a6 : 2 + 2 = 4 := by\n"
        "  have h : 1 + 1 = 2 := by\n"
        "    -- only commentary here\n"
        "  norm_num\n"
    ),
    "tactic_after_close": (
        "theorem a7 : 2 + 2 = 4 := by\n"
        "  norm_num\n"
        "  linarith\n"
    ),
    "nested_have_inner_broken": (
        "theorem a8 : 2 + 2 = 4 := by\n"
        "  have outer : 1 + 1 = 2 := by\n"
        "    have inner : 1 = 1 := by\n"
        "      frob\n"
        "    norm_num\n"
        "  norm_num\n"
    ),
    "three_levels_middle_broken": (
        "theorem a9 : 2 + 2 = 4 := by\n"
        "  have l1 : 3 + 3 = 6 := by\n"
        "    have l2 : 2 + 1 = 3 := by\n"
        "      have l3 : 1 = 1 := by\n"
        "        rfl\n"
        "      frob_mid\n"
        "    norm_num\n"
        "  norm_num\n"
    ),
    "empty_body": "theorem a10 : 2 + 2 = 4 := by\n",
    "comments_only_body": (
        "theorem a11 : 2 + 2 = 4 := by\n"
        "  -- no tactics at all\n"
    ),
    "inline_unknown": "theorem a12 : 2 + 2 = 4 := by frobnicate\n",
    "false_numeric_goal_tactic": (
        "theorem a13 : 2 + 2 = 4 := by\n"
        "  have bad : 2 + 2 = 5 := by\n"
        "    norm_num\n"
        "  norm_num\n"
    ),
    "three_broken_haves": (
        "theorem a14 : 2 + 2 = 4 := by\n"
        "  have p : 1 = 1 := by\n"
        "    frob_p\n"
        "  have q : 2 = 2 := by\n"
        "    frob_q\n"
        "  have r : 3 = 3 := by\n"
        "    frob_r\n"
        "  norm_num\n"
    ),
    "broken_then_valid_finisher": (
        "theorem a15 : 9 - 3 = 6 := by\n"
        "  bad_setup_step\n"
        "  norm_num\n"
    ),
    "unicode_arguments": (
        "theorem a16 (h₀ : 1 = 1) : 2 + 2 = 4 := by\n"
        "  smash h₀ ⟨one, two⟩\n"
        "  norm_num\n"
    ),
    "rw_unknown_lemma": (
        "theorem a17 : 2 + 2 = 4 := by\n"
        "  rw [no_such_lemma]\n"
        "  norm_num\n"
    ),
    "rcases_unsupported": (
        "theorem a18 : 2 + 2 = 4 := by\n"
        "  rcases trivial with ⟨a, b⟩\n"
        "  norm_num\n"
    ),
    "valid_haves_root_open": (
        "theorem a19 : 2 + 2 = 4 := by\n"
        "  have w : 5 = 5 := by\n"
        "    rfl\n"
        "  have v : 6 = 6 := by\n"
        "    rfl\n"
    ),
    "have_with_unbound_variable": (
        "theorem a20 (x : ℝ) : 2 + 2 = 4 := by\n"
        "  have hz : z > 0 := by\n"
        "    positivity\n"
        "  norm_num\n"
    ),
    "all_root_lines_broken": (
        "theorem a21 : 2 + 2 = 4 := by\n"
        "  frob_one\n"
        "  frob_two\n"
        "  frob_three\n"
        "  norm_num\n"
    ),
    "noise_between_tactics": (
        "theorem a22 : 2 + 2 = 4 := by\n"
        "  -- first step\n"
        "\n"
        "  frob_step\n"
        "  -- second step\n"
        "  norm_num\n"
    ),
    "admit_already_partial": (
        "theorem a23 : 2 + 2 = 4 := by\n"
        "  admit\n"
    ),
    "already_valid": (
        "theorem a24 : 2 + 2 = 4 := by\n"
        "  norm_num\n"
    ),
    "have_line_block_comment": (
        "theorem a25 : 1 = 1 := by\n"
        "  have h : 1 = 1 := by frob /- a\n"
        "    b -/\n"
        "  rfl\n"
    ),
    "inline_have_on_statement_line": (
        "theorem a26 : 2 + 2 = 4 := by have h : 1 = 1 := by frob"
    ),
}


# corpus files whose statement the fake REPL rejects: sorrify must refuse them
CORPUS_MALFORMED = {"016_decide.lean", "018_obtain.lean", "029_use_tactic.lean",
                    "041_specialize.lean", "042_push_neg.lean",
                    "043_have_with_binder_types.lean"}

POSTCONDITION_INPUTS = (
    [pytest.param(ADVERSARIAL[name], False, id=name) for name in sorted(ADVERSARIAL)]
    + [pytest.param(path.read_text(encoding="utf-8"), path.name in CORPUS_MALFORMED,
                    id=path.name) for path in corpus_scripts()])


def sequential_sorrify(script, session):
    """The loop that rounds replaced, kept as the reference: compile, repair
    the first error by position, repeat.  Returns the script, the actions,
    the last compile's status and the compiles made."""
    before = session.checks_issued
    actions, history = [], {}
    for _ in range(2 * script.root.line_count(script.text) + 8):
        result = check_script(serialize(script), session, 300.0)
        if result.ok:
            return script, actions, result.status, session.checks_issued - before
        diag = min((d for d in result.errors if d.pos.line > 0),
                   key=lambda d: (d.pos.line, d.pos.column))
        try:
            action = choose_repair(diag, script, history)
        except NoEnclosingNode:
            raise StatementMalformed([diag]) from None
        history.setdefault(action.block, []).append(action.kind)
        script = apply_action(script, action)
        actions.append(action)
    raise Nonterminating("no fixpoint")


def _summary(script, actions, status, compiles):
    return serialize(script), sorted(a.kind for a in actions), status, compiles


def _rounds_and_reference(script, session):
    """`sorrify(script, session)`, and it and the reference loop each summed
    up as `(text, sorted kinds, status, compiles)`."""
    reference = _summary(*sequential_sorrify(script, session))
    before = session.checks_issued
    out = sorrify(script, session)
    return out, _summary(out.script, out.actions, out.compile_result.status,
                         session.checks_issued - before), reference

@pytest.fixture(scope="module")
def module_session():
    session = start_session(fake_repl_cmd())
    yield session
    session.close()


@pytest.mark.parametrize("source,malformed", POSTCONDITION_INPUTS)
def test_sorrify_postcondition(source, malformed, module_session):
    script = parse_script(source)
    if malformed:
        for repair in (sorrify, sequential_sorrify):
            with pytest.raises(StatementMalformed):
                repair(script, module_session)
        return
    node_count = sum(1 for _ in script.walk())
    cap = 2 * script.root.line_count(script.text) + 8

    out, rounds, reference = _rounds_and_reference(script, module_session)

    assert out.compile_result.status in (PASS, PASS_WITH_SORRIES)
    assert len(out.actions) <= cap
    assert count_sorries(out.script) <= node_count
    replayed = replay_actions(script, out.actions)
    assert serialize(replayed) == serialize(out.script)
    # the repairs of one repair per compile, in no more compiles
    assert rounds[:3] == reference[:3] and rounds[3] <= reference[3]


def test_already_valid_proof_zero_actions(plain_session):
    out = sorrify(parse_script(ADVERSARIAL["already_valid"]), plain_session)
    assert out.actions == [] and out.compile_result.status == PASS


def test_fully_malformed_reduces_to_single_sorry(plain_session):
    out = sorrify(parse_script(ADVERSARIAL["every_block_malformed"]), plain_session)
    assert count_sorries(out.script) == 1
    assert out.compile_result.status == PASS_WITH_SORRIES
    body = serialize(out.script).split(":= by\n")[1]
    assert body.strip() == "sorry"


def test_escalation_chain_on_persistent_header_error(plain_session):
    out = sorrify(parse_script(ADVERSARIAL["have_with_unbound_variable"]),
                  plain_session)
    kinds = [a.kind for a in out.actions]
    # collapse keeps the bad header, which still fails, so the line then goes
    assert kinds == [REPLACE_BLOCK_WITH_SORRY, REMOVE_LINE]
    assert out.compile_result.status == PASS
    assert "hz" not in serialize(out.script)


def _diag(line, message, col=2):
    return Diagnostic("error", Position(line, col), None, message)


def test_choose_repair_line_first_then_block():
    script = parse_script(
        "theorem p : 1 = 1 := by\n"
        "  have h : 2 = 2 := by\n"
        "    step_one\n"
        "    step_two\n"
        "    step_three\n"
        "  rfl\n"
    )
    history = {}
    first = choose_repair(_diag(3, "unknown tactic 'step_one'"), script, history)
    assert first.kind == REMOVE_LINE
    assert (first.first, first.last, first.lines) == (3, 3, [])
    assert first.block == ("have h : 2 = 2 := by", 2, 0)

    history[first.block] = [REMOVE_LINE]
    second = choose_repair(_diag(4, "unknown tactic 'step_two'"), script, history)
    assert second.kind == REPLACE_BLOCK_WITH_SORRY
    assert (second.first, second.last) == (2, 5)  # the whole `have` block
    assert second.lines == ["  have h : 2 = 2 := by sorry"]
    assert second.block == first.block


def test_inline_have_on_the_statement_line_sorrifies(plain_session):
    # the root's `unsolved goals` sits at the statement's `by`, left of the
    # inline `have`: its sorry ends the root block, and the `have`'s own
    # error drops the tactic from the statement's line in the same round
    before = plain_session.checks_issued
    out = sorrify(parse_script(ADVERSARIAL["inline_have_on_statement_line"]),
                  plain_session)
    assert out.compile_result.status == PASS_WITH_SORRIES
    assert [a.kind for a in out.actions] == [INSERT_SORRY, REMOVE_LINE]
    assert plain_session.checks_issued - before == 2


def test_choose_repair_unsolved_inserts_sorry():
    script = parse_script(
        "theorem p : 1 = 1 := by\n"
        "  have h : 2 = 2 := by\n"
        "    norm_num\n"
        "  rfl\n"
    )
    action = choose_repair(
        Diagnostic("error", Position(2, 22), None, "unsolved goals\n⊢ 2 = 2"),
        script, {})
    assert action.kind == INSERT_SORRY
    # inserted after line 3, the block's end, at its tactics' indent
    assert (action.first, action.last, action.lines) == (4, 3, ["    sorry"])
    assert action.block == ("have h : 2 = 2 := by", 2, 0)


def test_replace_block_with_sorry_keeps_stated_goal():
    script = parse_script(
        "theorem demo (x : ℝ) (hx : 0 < x) : x ^ 2 + 1 > 0 := by\n"
        "  have h4 : x ^ 2 >= 0 := by\n"
        "    apply sq_nonneg\n"
        "    all_goals norm_num\n"
        "  nlinarith [h4]\n")
    action = choose_repair(_diag(2, "type mismatch"), script, {})
    out = apply_action(script, action)
    assert action.kind == REPLACE_BLOCK_WITH_SORRY
    assert serialize(out).split("\n")[1:3] == ["  have h4 : x ^ 2 >= 0 := by sorry",
                                               "  nlinarith [h4]"]
    assert count_sorries(out) == count_sorries(script) + 1


# (text after the statement's `by`, error line, repair kind, and the lines
# that replace the repaired range)
SORRIED_FORMS = {
    "block_by_tail": ("\n  have h : 1 = 1 := by  -- why\n    frob\n  rfl\n", 2,
                      REPLACE_BLOCK_WITH_SORRY, ["  have h : 1 = 1 := by sorry"]),
    "block_arrow": ("\n  have h : ∀ n : ℕ, n = n := fun n =>\n    frob\n  rfl\n", 2,
                    REPLACE_BLOCK_WITH_SORRY,
                    ["  have h : ∀ n : ℕ, n = n := fun n => sorry"]),
    "block_bare": ("\n  have h : 1 = 1 := calc\n    frob\n  rfl\n", 2,
                   REPLACE_BLOCK_WITH_SORRY, ["  sorry"]),
    "block_without_goal": ("\n  constructor\n  case left =>\n    frob\n  rfl\n", 3,
                           REMOVE_BLOCK, []),
    "have_line_by": ("\n  have h : 1 = 1 := by frob\n  rfl\n", 2,
                     REPLACE_BLOCK_WITH_SORRY, ["  have h : 1 = 1 := by sorry"]),
    "have_line_term": ("\n  have h : 1 = 1 := frob  -- a := b\n  rfl\n", 2,
                       REPLACE_BLOCK_WITH_SORRY, ["  have h : 1 = 1 := by sorry"]),
    # the comment closes on the next, deeper line: masked out of its script,
    # the `have` line alone holds an unterminated comment
    "have_line_block_comment": ("\n  have h : 1 = 1 := by frob /- a\n    b -/\n  rfl\n", 2,
                                REPLACE_BLOCK_WITH_SORRY, ["  have h : 1 = 1 := by sorry"]),
    "root_line": ("\n  frob\n  rfl\n", 2, REMOVE_LINE, []),
    "inline_tactic": (" frob\n", 1, REMOVE_LINE, ["theorem t : 1 = 1 := by"]),
}


@pytest.mark.parametrize("name", sorted(SORRIED_FORMS), ids=str)
def test_repair_writes_its_sorried_form(name):
    body, line, kind, lines = SORRIED_FORMS[name]
    script = parse_script("theorem t : 1 = 1 := by" + body)
    action = choose_repair(_diag(line, "boom"), script, {})
    assert (action.kind, action.lines) == (kind, lines)
    assert action.first == line


def test_choose_repair_statement_error_escalates(plain_session):
    bad = parse_script(
        "theorem broken (x : ℝ) (hz : z > 0) : x = x := by\n  rfl\n")
    with pytest.raises(StatementMalformed):
        sorrify(bad, plain_session)


def test_validate_statement_accepts_and_rejects(plain_session):
    from apollo.proofscript import TheoremStatement

    good = TheoremStatement(
        "ok", "import Mathlib\n",
        "theorem ok (x : ℝ) (hx : 0 < x) : x + 0 = x := by")
    result = validate_statement(good, plain_session)
    assert result.status == PASS_WITH_SORRIES

    bad = TheoremStatement(
        "bad", "import Mathlib\n",
        "theorem bad (x : ℝ) (hz : z > 0) : x = x := by")
    with pytest.raises(StatementMalformed):
        validate_statement(bad, plain_session)


class _CannedReplySession:
    """Answers every request with one fixed REPL reply."""

    def __init__(self, reply):
        self.reply = reply
        self.sent = []

    def check(self, code, timeout=None):
        self.sent.append(code)
        return classify(self.reply)


def _message(severity, line, column, end=None, data="boom"):
    return {"severity": severity, "pos": {"line": line, "column": column},
            "endPos": {"line": end[0], "column": end[1]} if end else None,
            "data": data}


def test_check_script_reports_script_lines():
    # script lines 1-2 are imports, never sent, and nothing is added: script
    # lines 3..6 are compile lines 1..4
    text = ("import Mathlib\nimport Aesop\n\n"
            "theorem t : 2 + 2 = 4 := by\n"
            "  have h : 1 + 1 = 2 := by sorry\n"
            "  bogus_tactic\n")
    col = text.split("\n")[4].index("sorry")
    reply = {
        "env": 1,
        "messages": [
            _message("warning", 2, 8, end=(2, 9), data="declaration uses 'sorry'"),
            _message("error", 4, 2, end=(4, 14)),
            _message("info", 20, 0, end=(21, 0), data="past the end"),
        ],
        "sorries": [{"pos": {"line": 3, "column": col},
                     "endPos": {"line": 3, "column": col + 5},
                     "goal": "⊢ 1 + 1 = 2", "proofState": 0},
                    {"pos": {"line": 12, "column": col},
                     "endPos": {"line": 12, "column": col + 5},
                     "goal": "past the end", "proofState": 1}],
    }
    session = _CannedReplySession(reply)
    result = check_script(text, session, 5.0)

    assert session.sent == ["\ntheorem t : 2 + 2 = 4 := by\n"
                            "  have h : 1 + 1 = 2 := by sorry\n"
                            "  bogus_tactic\n"]
    warning, tactic, past_end = result.diagnostics
    assert (warning.pos, warning.end_pos) == (Position(4, 8), Position(4, 9))
    assert (tactic.pos, tactic.end_pos) == (Position(6, 2), Position(6, 14))
    assert (past_end.pos, past_end.end_pos) == (Position(0, 0), None)
    (sorry,) = result.sorries  # the one past the end is no site
    assert (sorry.pos, sorry.end_pos) == (Position(5, col), Position(5, col + 5))
    assert result.status == FAIL


def test_check_script_returns_sites_in_position_order():
    # the REPL lists the sorries in reverse, with one past the end of the code
    text = ("theorem t : 2 + 2 = 4 := by\n"
            "  have a : 1 + 1 = 2 := by sorry\n"
            "  have b : 3 + 3 = 6 := by sorry\n"
            "  norm_num\n")
    col = text.split("\n")[1].index("sorry")

    def sorry(line, goal):
        return {"pos": {"line": line, "column": col},
                "endPos": {"line": line, "column": col + 5}, "goal": goal}

    reply = {"env": 1, "messages": [], "sorries": [
        sorry(9, "past the end"), sorry(3, "⊢ 3 + 3 = 6"), sorry(2, "⊢ 1 + 1 = 2")]}
    result = check_script(text, _CannedReplySession(reply), 5.0)
    assert [(s.pos, s.end_pos, s.goal) for s in result.sorries] == [
        (Position(2, col), Position(2, col + 5), "⊢ 1 + 1 = 2"),
        (Position(3, col), Position(3, col + 5), "⊢ 3 + 3 = 6")]
    assert result.status == PASS_WITH_SORRIES


def test_check_script_drops_only_leading_imports():
    # as in Lean, imports come first, after blank and comment lines only;
    # a later `import` is sent as written
    text = ("/- a file comment -/\n-- a line comment\n\n"
            "import Mathlib\nimport Aesop -- tactics\n\n"
            "open Real\nimport Extra\n"
            "theorem t : 1 = 1 := by\n  rfl\n")
    reply = {"env": 1, "messages": [_message("error", 6, 0)], "sorries": []}
    session = _CannedReplySession(reply)
    result = check_script(text, session, 5.0)
    assert session.sent == [
        "/- a file comment -/\n-- a line comment\n\n"
        "\nopen Real\nimport Extra\n"
        "theorem t : 1 = 1 := by\n  rfl\n"]
    assert result.diagnostics[0].pos.line == 8  # `import Extra`


def test_check_script_raises_on_unterminated_comment_before_compiling():
    session = _CannedReplySession({"env": 1, "messages": [], "sorries": []})
    with pytest.raises(UnterminatedComment):
        check_script("theorem t : 1 = 1 := by\n  rfl\n/- unclosed\n",
                     session, 5.0)
    assert session.sent == []


def test_sorrify_iterations_strictly_progress(plain_session):
    script = parse_script(ADVERSARIAL["three_broken_haves"])
    out, rounds, reference = _rounds_and_reference(script, plain_session)
    # each broken have takes exactly one action: straight to block collapse,
    # all three from the first compile where one repair per compile needs three
    assert len(out.actions) == 3
    assert all(a.kind == REPLACE_BLOCK_WITH_SORRY for a in out.actions)
    assert count_sorries(out.script) == 3
    assert rounds[:3] == reference[:3] and (rounds[3], reference[3]) == (2, 4)


@pytest.fixture(scope="module")
def suite_session(mock_suite):
    session = start_session(fake_repl_cmd(mock_suite["rules"]))
    yield session
    session.close()


@pytest.mark.parametrize("name", sorted(SUITE_CANDIDATES))
def test_rounds_repair_the_mock_suite_as_the_sequential_loop(name, suite_session):
    script = parse_script(SUITE_CANDIDATES[name].replace(" from by", " := by"))
    _, rounds, reference = _rounds_and_reference(script, suite_session)
    assert rounds[:3] == reference[:3] and rounds[3] <= reference[3]


def test_a_have_with_a_broken_statement_ends_its_round(plain_session):
    # the collapse keeps the header whose own error stays, so the `exact`
    # that uses the `have` waits for the next compile: no extra repair
    source = (CORPUS / "014_unsolved_sorry.lean").read_text(encoding="utf-8")
    _, rounds, reference = _rounds_and_reference(parse_script(source), plain_session)
    assert rounds == reference
    assert rounds[1] == sorted([REPLACE_BLOCK_WITH_SORRY, REMOVE_LINE, REMOVE_LINE])


class _ErrorLineSession:
    """Fails a compile with an error at the end of each code line that
    `broken(line_no, line)` picks, and passes one where it picks none."""

    def __init__(self, broken):
        self.broken = broken
        self.checks_issued = 0

    def check(self, code, timeout=None):
        self.checks_issued += 1
        messages = [_message("error", no, max(len(line) - 1, 0))
                    for no, line in enumerate(code.split("\n"), start=1)
                    if self.broken(no, line)]
        return classify({"env": 1, "messages": messages, "sorries": []})


def test_a_removed_block_ends_its_round():
    # both `case` blocks fail in the first compile, but the second waits
    # for the next compile: a removed block may hold what later lines use
    session = _ErrorLineSession(lambda no, line: "frob" in line)
    out = sorrify(parse_script("theorem t : 1 = 1 := by\n  constructor\n"
                               "  case left =>\n    frob\n"
                               "  case right =>\n    frob\n  rfl\n"), session)
    assert [a.kind for a in out.actions] == [REMOVE_BLOCK, REMOVE_BLOCK]
    assert session.checks_issued == 3
    assert out.compile_result.status == PASS


def test_sorrify_raises_nonterminating_at_the_repair_cap(monkeypatch):
    # every body line fails in every compile, so no round ever passes; the
    # errors sit after each `:=`, so some rounds take several repairs
    repairs = []

    def counting_apply(script, action):
        repairs.append(action)
        return apply_action(script, action)

    monkeypatch.setattr(sorrifier, "apply_action", counting_apply)
    session = _ErrorLineSession(lambda no, line: no > 1 and line.strip())
    script = parse_script(ADVERSARIAL["three_broken_haves"])
    cap = 2 * script.root.line_count(script.text) + 8
    with pytest.raises(Nonterminating):
        sorrify(script, session)
    assert len(repairs) == cap and session.checks_issued <= cap
    assert len(repairs) > session.checks_issued  # rounds of more than one
