import json
import re
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
from apollo.refiner import refine
from apollo.repl import PASS, PASS_WITH_SORRIES, TIMEOUT, CompileResult, classify, start_session
from apollo.sorrifier import SorrifiedScript, check_script, sorrify
from conftest import FIXTURES, fake_repl_cmd

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
    sites = sorrified.compile_result.sorries
    (suggestions,) = hint_candidates(sorrified.script.text, sites, session)
    assert suggestions == ["simp only [foo]", "gcongr"]  # as returned, unvalidated

    before = session.checks_issued
    out = solve_sorries(sorrified, session)
    # the hint suggestion that closes, past the one that only makes progress
    assert out.commits[0].tactic == suggestions[1]
    assert suggestions[1] not in suite_candidates()
    # the hint wave, then one trial per suggestion up to the one that closes
    assert session.checks_issued - before == 3


def test_hint_failure_yields_empty_list(session):
    src = "theorem t : 1 = 1 := by\n  have h : G3 := by\n    sorry\n  rfl\n"
    sorrified = _sorrified(src, session)
    sites = sorrified.compile_result.sorries
    before = session.checks_issued
    assert hint_candidates(sorrified.script.text, sites, session) == [[]]
    assert session.checks_issued - before == 1


MULTI_HAVE = (
    "theorem t : GMAIN := by\n"
    "  have a : 2 + 2 = 4 := by sorry\n"
    "  have b : G2 := by\n"
    "    sorry\n"
    "  have c : G3 := by sorry\n"
    "  have h : G1 := by\n"
    "    sorry\n"
    "  have d : G2 := by sorry\n"
    "  exact main_wit h\n"
)


def _wave_and_probes(sorrified, session):
    text, sites = sorrified.script.text, sorrified.compile_result.sorries
    before = session.checks_issued
    wave = hint_candidates(text, sites, session)
    assert session.checks_issued - before == 1
    return wave, [hint_candidates(text, [site], session)[0] for site in sites]


def test_wave_answers_each_site_as_its_own_probe(session_332, session):
    source = (FIXTURES / "llm_332" / "mathd_algebra_332" / "000.lean").read_text(
        encoding="utf-8")
    worked = _sorrified(refine(source)[0], session_332)
    wave, probes = _wave_and_probes(worked, session_332)
    assert len(wave) == 6 and wave == probes
    assert ["nlinarith [sq_nonneg (x + y)]", "positivity"] in wave

    wave, probes = _wave_and_probes(_sorrified(MULTI_HAVE, session), session)
    assert wave == probes == [[], ["simp only [foo]", "gcongr"], [], [],
                              ["simp only [foo]", "gcongr"]]


class _HintRepl:
    """A session that stands in for Lean on `hint`.  Each `sorry` or `hint`
    token is a sorry site with goal `⊢ G`.  Each `hint` token, in position
    order and up to `answered` of them in one compile, gets an info
    message at its own position offering `suggest(column)` (under Lean a
    failed `hint` aborts the rest of its block, so a later one says
    nothing); with `wave_times_out`, a compile with more than one `hint`
    times out.  A suite tactic anywhere in the code is an error."""

    def __init__(self, suggest=lambda column: "rfl", answered=None,
                 wave_times_out=False):
        self.suggest, self.answered = suggest, answered
        self.wave_times_out = wave_times_out
        self.sent = []  # (number of `hint` tokens, timeout) per compile

    def check(self, code, timeout=None):
        lines = code.split("\n")
        tokens = [(no, m) for no, line in enumerate(lines, start=1)
                  for m in re.finditer(r"\b(?:sorry|hint)\b", line)]
        hints = [(no, m.start()) for no, m in tokens if m.group() == "hint"]
        self.sent.append((len(hints), timeout))
        if self.wave_times_out and len(hints) > 1:
            return CompileResult(TIMEOUT)
        messages = [{"severity": "info", "pos": {"line": no, "column": col},
                     "endPos": {"line": no, "column": col + 4},
                     "data": "Try these:\n• " + self.suggest(col)}
                    for no, col in hints[:self.answered]]
        if any(re.search(rf"\b{tactic}\b", code) for tactic in DEFAULT_SUITE):
            messages.append({"severity": "error", "pos": {"line": 1, "column": 0},
                             "endPos": None, "data": "tactic failed"})
        sorries = [{"pos": {"line": no, "column": m.start()},
                    "endPos": {"line": no, "column": m.end()}, "goal": "⊢ G"}
                   for no, m in tokens]
        return classify({"env": 0, "messages": messages, "sorries": sorries})


def _stub_sorrified(text, stub):
    result = check_script(text, stub, 1.0)
    stub.sent.clear()
    return SorrifiedScript(parse_script(text), [], result)


def test_site_sharing_a_line_with_an_earlier_one_is_probed_alone():
    text = "theorem t : G := by\n  exact ⟨sorry, sorry⟩\n"
    stub = _HintRepl(suggest=lambda column: f"exact c{column}")
    sorrified = _stub_sorrified(text, stub)
    first, second = sites = sorrified.compile_result.sorries
    assert first.pos.line == second.pos.line
    # the second `hint` sits one column left of its sorry, so the wave
    # leaves that site unanswered
    assert hint_candidates(text, sites, stub, RepairConfig(candidate_timeout=0.5)) == [
        [f"exact c{first.pos.column}"], None]
    assert stub.sent == [(2, 1.0)]  # one compile, as long as two probes

    # the commit at the first site edits the second's line: that site is
    # probed alone, at its new column
    stub = _HintRepl()
    out = solve_sorries(_stub_sorrified(text, stub), stub)
    assert stub.sent == [(2, 120.0), (0, 60.0), (1, 60.0), (0, 60.0)]
    assert [(c.site.pos.column, c.tactic) for c in out.commits] == [
        (first.pos.column, "rfl"), (second.pos.column - 2, "rfl")]
    assert serialize(out.script) == "theorem t : G := by\n  exact ⟨rfl, rfl⟩\n"


def test_wave_timeout_is_capped_at_one_compile_timeout():
    text = "theorem t : G := by\n" + "".join(
        f"  have h{i} : A := by sorry\n" for i in range(8)) + "  exact c\n"
    stub = _HintRepl()
    sites = _stub_sorrified(text, stub).compile_result.sorries
    assert len(sites) == 8
    config = RepairConfig(candidate_timeout=60.0, compile_timeout=300.0)
    assert hint_candidates(text, sites, stub, config) == [["rfl"]] * 8
    assert stub.sent == [(8, 300.0)]  # not 8 x 60 s


TWO_HAVES = ("theorem t : G := by\n"
             "  have a : A := by sorry\n"
             "  have b : B := by sorry\n"
             "  exact c\n")


def test_site_the_wave_leaves_unanswered_is_probed_alone():
    stub = _HintRepl(answered=1)
    out = solve_sorries(_stub_sorrified(TWO_HAVES, stub), stub)
    # the wave, the first site's trial, then the second site's own probe
    # and trial
    assert [hints for hints, _ in stub.sent] == [2, 0, 1, 0]
    assert [c.tactic for c in out.commits] == ["rfl", "rfl"]


def test_timed_out_wave_falls_back_to_one_probe_per_site():
    stub = _HintRepl(wave_times_out=True)
    config = RepairConfig(candidate_timeout=0.5)
    out = solve_sorries(_stub_sorrified(TWO_HAVES, stub), stub, config)
    assert stub.sent == [(2, 1.0), (1, 0.5), (0, 0.5), (1, 0.5), (0, 0.5)]
    assert [c.tactic for c in out.commits] == ["rfl", "rfl"]


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
    assert parse_hint_suggestions(classify(raw).diagnostics) == [
        "positivity", "nlinarith [sq_nonneg x]", "omega"]
