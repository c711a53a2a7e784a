import json

import pytest

from apollo.config import RepairConfig
from apollo.autosolver import (
    DEFAULT_SUITE,
    CommittedTactic,
    hint_candidates,
    load_suite,
    parse_hint_suggestions,
    replay_commits,
    solve_sorries,
    suite_candidates,
)
from apollo.proofscript import (
    SourceSpan,
    count_sorries,
    parse_script,
    serialize,
)
from apollo.repl import PASS, PASS_WITH_SORRIES, start_session
from apollo.sorrifier import SorrifiedScript, sorrify
from conftest import fake_repl_cmd

RULES = {
    "closes": [
        {"goal": "G1", "tactic": "ring_nf"},
        {"goal": "G1", "tactic": "nlinarith"},
        {"goal": "G2", "tactic": "gcongr"},
        {"goal": "GMAIN", "tactic": "exact main_wit h"},
    ],
    "hints": [
        {"goal": "G2", "suggest": ["simp only [foo]", "gcongr"]},
        {"goal": "GSLOW", "suggest": ["decide --#fake_sleep=2"]},
    ],
}


@pytest.fixture(scope="module")
def rules_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("autosolver") / "rules.json"
    path.write_text(json.dumps(RULES, ensure_ascii=False))
    return path


@pytest.fixture
def session(rules_path):
    s = start_session(fake_repl_cmd(rules_path))
    yield s
    s.close()


def _sorrified(source, session):
    return sorrify(parse_script(source), session)


def _first_site(sorrified):
    info = sorrified.compile_result.sorries[0]  # in script lines
    return SourceSpan(info.pos.line, info.pos.column,
                      info.pos.line, info.end_pos.column)


def test_suite_order_and_shape():
    candidates = suite_candidates()
    singles = [c for c in candidates if c.source == "suite"]
    combos = [c for c in candidates if c.source == "combination"]
    assert [c.text for c in singles] == DEFAULT_SUITE
    assert len(singles) >= 10
    assert len(combos) <= 12
    assert all("<;>" in c.text for c in combos)
    assert suite_candidates() == candidates  # stable across calls


def test_suite_overridable_from_file(tmp_path):
    path = tmp_path / "suite.txt"
    path.write_text("# finishers\nnorm_num\naesop\n")
    assert load_suite(path) == ["norm_num", "aesop"]
    config = RepairConfig(suite_path=str(path))
    texts = [c.text for c in suite_candidates(config) if c.source == "suite"]
    assert texts == ["norm_num", "aesop"]


def test_numeric_goal_closed_by_norm_num(session):
    src = "theorem t : 1 = 1 := by\n  have h : 2 + 2 = 4 := by\n    sorry\n  rfl\n"
    out = solve_sorries(_sorrified(src, session), session)
    assert count_sorries(out.script) == 0
    assert out.commits[0].candidate.text == "norm_num"
    assert out.commits[0].candidate.source == "suite"


def test_order_matters_ring_nf_before_nlinarith(session):
    src = "theorem t : 1 = 1 := by\n  have h : G1 := by\n    sorry\n  rfl\n"
    out = solve_sorries(_sorrified(src, session), session)
    assert [c.candidate.text for c in out.commits] == ["ring_nf"]


def test_hint_suggestion_validated_and_filtered(session):
    src = "theorem t : 1 = 1 := by\n  have h : G2 := by\n    sorry\n  rfl\n"
    sorrified = _sorrified(src, session)
    span = _first_site(sorrified)
    baseline = len(sorrified.compile_result.sorries)
    validated = hint_candidates(sorrified.script, span, session, baseline)
    assert [c.text for c in validated] == ["gcongr"]  # progress-only filtered

    out = solve_sorries(sorrified, session)
    assert out.commits[0].candidate.source == "hint"
    assert out.commits[0].candidate.text == "gcongr"


def test_hint_failure_yields_empty_list(session):
    src = "theorem t : 1 = 1 := by\n  have h : G3 := by\n    sorry\n  rfl\n"
    sorrified = _sorrified(src, session)
    span = _first_site(sorrified)
    baseline = len(sorrified.compile_result.sorries)
    assert hint_candidates(sorrified.script, span, session, baseline) == []


def test_unclosable_sorry_remains(session):
    src = "theorem t : 1 = 1 := by\n  have h : G3 := by\n    sorry\n  rfl\n"
    before = _sorrified(src, session)
    out = solve_sorries(before, session)
    assert count_sorries(out.script) == 1
    assert out.commits == []
    assert serialize(out.script) == serialize(before.script)
    assert out.compile_result.status == PASS_WITH_SORRIES


def test_zero_sorries_returned_unchanged(session):
    src = "theorem t : 2 + 2 = 4 := by\n  norm_num\n"
    before = _sorrified(src, session)
    out = solve_sorries(before, session)
    assert serialize(out.script) == serialize(before.script)
    assert out.commits == []


def test_never_increases_sorries_never_fails(session):
    src = (
        "theorem t : GMAIN := by\n"
        "  have h : G1 := by\n"
        "    sorry\n"
        "  have h2 : G3 := by\n"
        "    sorry\n"
        "  exact main_wit h\n"
    )
    before = _sorrified(src, session)
    out = solve_sorries(before, session)
    assert count_sorries(out.script) <= count_sorries(before.script)
    assert out.compile_result.status in (PASS, PASS_WITH_SORRIES)


def test_timeout_candidate_is_skipped(session):
    src = "theorem t : 1 = 1 := by\n  have h : GSLOW := by\n    sorry\n  rfl\n"
    config = RepairConfig(candidate_timeout=0.4)
    before = _sorrified(src, session)
    out = solve_sorries(before, session, config)
    # the hinted candidate sleeps past the per-candidate timeout and the
    # suite has no closer, so the site must survive untouched
    assert count_sorries(out.script) == 1
    assert serialize(out.script) == serialize(before.script)


def test_commit_replay_reproduces_output(session):
    src = (
        "theorem t : 1 = 1 := by\n"
        "  have a : 2 + 2 = 4 := by\n"
        "    sorry\n"
        "  have b : G1 := by\n"
        "    sorry\n"
        "  rfl\n"
    )
    before = _sorrified(src, session)
    out = solve_sorries(before, session)
    assert len(out.commits) == 2
    replayed = replay_commits(before.script, out.commits)
    assert serialize(replayed) == serialize(out.script)


def test_parse_hint_suggestions_formats():
    from apollo.repl import classify

    raw = {
        "env": 0,
        "messages": [
            {"severity": "info", "pos": {"line": 1, "column": 0}, "endPos": None,
             "data": "Try these:\n• positivity\n• nlinarith [sq_nonneg x]"},
            {"severity": "info", "pos": {"line": 1, "column": 0}, "endPos": None,
             "data": "Try this: omega"},
            {"severity": "warning", "pos": {"line": 1, "column": 0},
             "endPos": None, "data": "declaration uses 'sorry'"},
        ],
        "sorries": [],
    }
    assert parse_hint_suggestions(classify(raw)) == [
        "positivity", "nlinarith [sq_nonneg x]", "omega"]
