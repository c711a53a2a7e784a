import json
import sys

import pytest

from apollo.config import RepairConfig
from apollo.autosolver import (
    DEFAULT_SUITE,
    hint_candidates,
    load_suite,
    parse_hint_suggestions,
    replay_commits,
    solve_sorries,
    suite_candidates,
)
from apollo import proofscript
from apollo.proofscript import count_sorries, parse_script, serialize
from apollo.repl import PASS, PASS_WITH_SORRIES, start_session
from apollo.sorrifier import sorrify
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


def test_suite_order_and_shape():
    candidates = suite_candidates()
    singles, combos = candidates[:len(DEFAULT_SUITE)], candidates[len(DEFAULT_SUITE):]
    assert singles == DEFAULT_SUITE
    assert len(singles) >= 10
    assert 0 < len(combos) <= 12
    assert all("<;>" in c for c in combos)
    assert suite_candidates() == candidates  # stable across calls


def test_suite_overridable_from_file(tmp_path):
    path = tmp_path / "suite.txt"
    path.write_text("# finishers\nnorm_num\naesop\n")
    assert load_suite(path) == ["norm_num", "aesop"]
    config = RepairConfig(suite_path=str(path))
    assert suite_candidates(config)[:2] == ["norm_num", "aesop"]


def test_numeric_goal_closed_by_norm_num(session):
    src = "theorem t : 1 = 1 := by\n  have h : 2 + 2 = 4 := by\n    sorry\n  rfl\n"
    out = solve_sorries(_sorrified(src, session), session)
    assert count_sorries(out.script) == 0
    assert out.commits[0].tactic == "norm_num"


def test_order_matters_ring_nf_before_nlinarith(session):
    src = "theorem t : 1 = 1 := by\n  have h : G1 := by\n    sorry\n  rfl\n"
    out = solve_sorries(_sorrified(src, session), session)
    assert [c.tactic for c in out.commits] == ["ring_nf"]


def test_hint_suggestion_validated_and_filtered(session):
    src = "theorem t : 1 = 1 := by\n  have h : G2 := by\n    sorry\n  rfl\n"
    sorrified = _sorrified(src, session)
    site = sorrified.compile_result.sorries[0]
    suggestions = hint_candidates(sorrified.script.text, site, session)
    assert suggestions == ["simp only [foo]", "gcongr"]  # as returned, unvalidated

    before = session.checks_issued
    out = solve_sorries(sorrified, session)
    # the hint suggestion that closes, past the one that only makes progress
    assert out.commits[0].tactic == suggestions[1]
    assert suggestions[1] not in suite_candidates()
    # the hint probe, then one trial per suggestion up to the one that closes
    assert session.checks_issued - before == 3


def test_hint_failure_yields_empty_list(session):
    src = "theorem t : 1 = 1 := by\n  have h : G3 := by\n    sorry\n  rfl\n"
    sorrified = _sorrified(src, session)
    site = sorrified.compile_result.sorries[0]
    before = session.checks_issued
    assert hint_candidates(sorrified.script.text, site, session) == []
    assert session.checks_issued - before == 1


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


@pytest.fixture
def parse_calls(monkeypatch):
    """Every `parse_script` call made through any `apollo` module that
    bound the name, appended as it happens."""
    calls = []
    original = proofscript.parse_script

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "apollo":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


@pytest.mark.parametrize("src,commits,parses", [
    ("theorem t : 1 = 1 := by\n  have a : 2 + 2 = 4 := by\n    sorry\n"
     "  have b : G1 := by\n    sorry\n  rfl\n", 2, 1),
    ("theorem t : 1 = 1 := by\n  have h : G3 := by\n    sorry\n  rfl\n", 0, 0),
], ids=["commits", "nothing_closes"])
def test_only_the_kept_text_is_parsed(session, parse_calls, src, commits, parses):
    before = _sorrified(src, session)
    del parse_calls[:]
    out = solve_sorries(before, session)
    assert len(out.commits) == commits
    assert len(parse_calls) == parses  # never a trial, once for a commit


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
