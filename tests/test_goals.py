import re

import pytest

from apollo.errors import SiteVanished, StatementRejected, UnparseableGoal
from apollo.goals import extract_goal, splice_subproof, transform_goal
from apollo.proofscript import count_sorries, parse_script, replace_lines, serialize
from apollo.repl import PASS, Position, SorryInfo
from apollo.sorrifier import sorrify


def _info(goal, line=2, col=2):
    return SorryInfo(Position(line, col), Position(line, col + 5), goal)


PARENT = parse_script(
    "theorem foo (x y : ℝ) (hx : 0 < x) : x ≠ 0 := by\n  sorry\n")


def test_extract_basic_goal():
    ctx = extract_goal(_info("x : ℝ\nhx : 0 < x\n⊢ x ≠ 0"), PARENT, 1)
    assert ctx.hypotheses == (("x", "ℝ"), ("hx", "0 < x"))
    assert ctx.target == "x ≠ 0"
    assert ctx.fresh_name == "foo_sub1"


def test_extract_goal_with_no_hypotheses():
    ctx = extract_goal(_info("⊢ True"), PARENT, 1)
    assert ctx.hypotheses == ()
    assert ctx.target == "True"


def test_extract_multi_binder_line_shares_type():
    ctx = extract_goal(_info("a b : ℕ\n⊢ a + b = b + a"), PARENT, 1)
    assert ctx.hypotheses == (("a", "ℕ"), ("b", "ℕ"))


def test_extract_wrapped_hypothesis_type_joined():
    goal = "h : 0 <\n  x\n⊢ x ≠ 0"
    ctx = extract_goal(_info(goal), PARENT, 1)
    assert ctx.hypotheses == (("h", "0 < x"),)


def test_extract_rejects_metavariables():
    with pytest.raises(UnparseableGoal):
        extract_goal(_info("x : ?α\n⊢ x = x"), PARENT, 1)


def test_extract_rejects_multiple_turnstiles():
    with pytest.raises(UnparseableGoal):
        extract_goal(_info("⊢ A\n⊢ B"), PARENT, 1)


def test_extract_renames_inaccessible_names():
    ctx = extract_goal(_info("x✝ : ℝ\nh : x✝ > 0\n⊢ x✝ ≠ 0"), PARENT, 1)
    names = [n for n, _ in ctx.hypotheses]
    assert all("✝" not in n for n in names)
    renamed = names[0]
    assert ctx.hypotheses[1][1] == f"{renamed} > 0"
    assert ctx.target == f"{renamed} ≠ 0"


def test_extract_renames_whole_inaccessible_names_only():
    # `h✝` must not be rewritten inside `h✝¹`, nor `a✝` inside `ha✝`, and
    # the superscript digit Lean adds is not an identifier character
    goal = "a✝ : ℕ\nha✝ : a✝ > 0\nh✝ : 0 < a✝\nh✝¹ : a✝ ≠ 1\n⊢ a✝ + h✝¹.elim = 2"
    ctx = extract_goal(_info(goal), PARENT, 1)
    bound = {n for n, _ in ctx.hypotheses}
    texts = [t for _, t in ctx.hypotheses] + [ctx.target]
    assert len(bound) == 4
    for text in [*bound, *texts]:
        assert not re.search("[✝⁰¹²³⁴⁵⁶⁷⁸⁹]", text), text
    for text in texts:
        assert set(re.findall(r"(?<![\w'.])[^\W\d][\w']*", text)) <= bound | {"ℕ"}, text
    assert ctx.target == "a_inacc0 + h_inacc3.elim = 2"


def test_fresh_name_avoids_collisions():
    parent = parse_script(
        "theorem foo : True := by\n  have foo_sub1 : True := trivial\n  sorry\n")
    ctx = extract_goal(_info("⊢ True", line=3), parent, 1)
    assert ctx.fresh_name == "foo_sub1_1"


def test_transform_renders_explicit_binders(plain_session):
    ctx = extract_goal(_info("x : ℝ\nhx : 0 < x\n⊢ x ≠ 0"), PARENT, 1)
    statement = transform_goal(ctx, plain_session)
    assert statement.statement_text == (
        "theorem foo_sub1 (x : ℝ) (hx : 0 < x) : x ≠ 0 := by")


def test_transform_empty_context_closable(plain_session):
    ctx = extract_goal(_info("⊢ True"), PARENT, 1)
    statement = transform_goal(ctx, plain_session)
    assert statement.statement_text == "theorem foo_sub1 : True := by"
    result = plain_session.check(statement.statement_text + "\n  trivial")
    assert result.status == PASS


def test_transform_reproduces_annotated_types_verbatim(plain_session):
    ctx = extract_goal(
        _info("x : ℝ\nh : x = (2 : ℝ)\n⊢ x + (2 : ℝ) = (4 : ℝ)"),
        PARENT, 1)
    statement = transform_goal(ctx, plain_session)
    assert "(h : x = (2 : ℝ))" in statement.statement_text
    assert statement.statement_text.endswith(": x + (2 : ℝ) = (4 : ℝ) := by")


def test_transform_rejected_when_statement_malformed(plain_session):
    ctx = extract_goal(_info("hz : z > 0\n⊢ True"), PARENT, 1)
    with pytest.raises(StatementRejected):
        transform_goal(ctx, plain_session)


def test_extraction_round_trip_on_sorried_fixtures(plain_session):
    sources = [
        "theorem f1 (x : ℝ) (hx : 0 < x) : 2 + 2 = 4 := by\n"
        "  have h : 1 + 1 = 2 := by\n    broken_tac\n  norm_num\n",
        "theorem f2 (a b : ℕ) (hab : a = b) : 3 * 3 = 9 := by\n"
        "  have k : 5 = 5 := by\n    broken_two\n  norm_num\n",
    ]
    for source in sources:
        sorrified = sorrify(parse_script(source), plain_session)
        for ordinal, info in enumerate(sorrified.compile_result.sorries, 1):
            ctx = extract_goal(info, sorrified.script, ordinal)
            transform_goal(ctx, plain_session)  # validation is the oracle


def _splice(parent, site, sub):
    return replace_lines(parent.text, [splice_subproof(parent.text, site, sub)])


def test_splice_inline_reindents_under_assignment():
    parent = parse_script(
        "theorem t : 1 = 1 := by\n"
        "  have h : 2 + 2 = 4 := by sorry\n"
        "  rfl\n")
    sub = parse_script("theorem t_sub1 : 2 + 2 = 4 := by\n  norm_num\n")
    col = serialize(parent).split("\n")[1].index("sorry")
    edit = splice_subproof(parent.text, _info("", 2, col), sub)
    assert edit == (2, 2, ["  have h : 2 + 2 = 4 := by", "    norm_num"])
    assert _splice(parent, _info("", 2, col), sub) == (
        "theorem t : 1 = 1 := by\n"
        "  have h : 2 + 2 = 4 := by\n"
        "    norm_num\n"
        "  rfl\n")


def test_splice_changes_nothing_outside_site():
    parent = parse_script(
        "theorem t : 1 = 1 := by\n"
        "  have a : 2 = 2 := by\n    rfl\n"
        "  have h : 2 + 2 = 4 := by sorry\n"
        "  rfl\n")
    sub = parse_script("theorem t_sub1 : 2 + 2 = 4 := by\n  norm_num\n")
    before = serialize(parent).split("\n")
    col = before[3].index("sorry")
    after = _splice(parent, _info("", 4, col), sub).split("\n")
    assert after[:3] == before[:3]
    assert after[-2:] == before[-2:]


def test_splice_into_zero_sorry_parent_raises():
    parent = parse_script("theorem t : 1 = 1 := by\n  rfl\n")
    sub = parse_script("theorem t_sub1 : 1 = 1 := by\n  rfl\n")
    with pytest.raises(SiteVanished):
        splice_subproof(parent.text, _info("", 2, 2), sub)


def test_two_sorries_spliced_in_position_order(plain_session):
    parent = parse_script(
        "theorem t : 2 + 2 = 4 := by\n"
        "  have a : 1 + 1 = 2 := by sorry\n"
        "  have b : 3 + 3 = 6 := by sorry\n"
        "  norm_num\n")
    sub_a = parse_script("theorem t_sub1 : 1 + 1 = 2 := by\n  norm_num\n")
    sub_b = parse_script("theorem t_sub2 : 3 + 3 = 6 := by\n  norm_num\n")
    lines = serialize(parent).split("\n")
    col_b = lines[2].index("sorry")
    col_a = lines[1].index("sorry")
    edits = [splice_subproof(parent.text, _info("", 2, col_a), sub_a),
             splice_subproof(parent.text, _info("", 3, col_b), sub_b)]
    out = replace_lines(parent.text, edits)
    assert replace_lines(parent.text, edits[::-1]) == out
    assert count_sorries(parse_script(out)) == 0
    assert plain_session.check(out).status == PASS
