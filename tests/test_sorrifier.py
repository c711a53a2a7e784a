import pytest

from apollo.errors import StatementMalformed
from apollo.proofscript import count_sorries, parse_script, serialize
from apollo.repl import PASS, PASS_WITH_SORRIES, Diagnostic, Position
from apollo.sorrifier import (
    INSERT_SORRY,
    REMOVE_LINE,
    REPLACE_BLOCK_WITH_SORRY,
    choose_repair,
    pp_preamble,
    replay_actions,
    sorrify,
    validate_statement,
)

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
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL), ids=str)
def test_sorrify_postcondition(name, plain_session):
    source = ADVERSARIAL[name]
    script = parse_script(source)
    node_count = sum(1 for _ in script.walk())
    cap = 2 * script.root.line_count() + 8

    out = sorrify(script, plain_session)

    assert out.compile_result.status in (PASS, PASS_WITH_SORRIES)
    assert len(out.actions) <= cap
    assert count_sorries(out.script) <= node_count
    replayed = replay_actions(script, out.actions)
    assert serialize(replayed) == serialize(out.script)


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
    assert first.kind == REMOVE_LINE and first.target.start_line == 3

    history[("have h : 2 = 2 := by", 2, 0)] = [REMOVE_LINE]
    second = choose_repair(_diag(4, "unknown tactic 'step_two'"), script, history)
    assert second.kind == REPLACE_BLOCK_WITH_SORRY and second.target == (0,)


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
    assert action.target.end_line == 3  # appended at the block's end


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


def test_pp_preamble_has_nine_distinct_options():
    lines = pp_preamble().split("\n")
    assert len(lines) == 9
    assert len(set(lines)) == 9
    assert all(ln.startswith("set_option pp.") and ln.endswith(" true")
               for ln in lines)


def test_goal_text_annotated_only_under_preamble(plain_session):
    code = "theorem t (x : ℝ) : x + 2 = 2 + x := by\n  sorry"
    bare = plain_session.check(code)
    assert "(2 : ℝ)" not in bare.sorries[0].goal
    annotated = plain_session.check(pp_preamble() + "\n" + code)
    assert "(2 : ℝ)" in annotated.sorries[0].goal


def test_sorrify_iterations_strictly_progress(plain_session):
    script = parse_script(ADVERSARIAL["three_broken_haves"])
    out = sorrify(script, plain_session)
    # each broken have takes exactly one action: straight to block collapse
    assert len(out.actions) == 3
    assert all(a.kind == REPLACE_BLOCK_WITH_SORRY for a in out.actions)
    assert count_sorries(out.script) == 3
