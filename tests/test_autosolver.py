import importlib.util
import json
import logging
import random
import re
import sys
from pathlib import Path
from unittest import mock

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
from apollo import engine, proofscript
from apollo.proofscript import (
    TheoremStatement,
    count_sorries,
    parse_script,
    replace_lines,
    serialize,
)
from apollo.refiner import refine
from apollo.repl import (
    PASS,
    PASS_WITH_SORRIES,
    REPL_CRASH,
    TIMEOUT,
    CompileResult,
    classify,
    start_session,
)
from apollo.sorrifier import SorrifiedScript, check_script, sorrify
from apollo.testing.fake_repl import FakeRepl, RuleTable
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
    # the hint wave, the first suggestion's trial, the precheck (something
    # left on the ladder closes the site), then the trial that closes
    assert session.checks_issued - before == 4


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
    times out.  A suite tactic anywhere in the code is an error, except in
    a `first | (c; done) | …` that some alternative without one closes."""

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
        judged = _FIRST.sub(lambda m: "" if any(not _suite_in(alt) for alt in _alternatives(
            m.group())) else m.group(), code)
        if _suite_in(judged):
            messages.append({"severity": "error", "pos": {"line": 1, "column": 0},
                             "endPos": None, "data": "tactic failed"})
        sorries = [{"pos": {"line": no, "column": m.start()},
                    "endPos": {"line": no, "column": m.end()}, "goal": "⊢ G"}
                   for no, m in tokens]
        return classify({"env": 0, "messages": messages, "sorries": sorries})


_FIRST = re.compile(r"first(?: \| \(.*?; done\))+")


def _alternatives(first):
    """The candidates of a `first | (c; done) | …` tactic, in order."""
    return re.findall(r"\((.*?); done\)", first)


def _suite_in(code):
    return any(re.search(rf"\b{tactic}\b", code) for tactic in DEFAULT_SUITE)


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


# --- the trial waves against the per-site loop they replaced -----------------


def _swap_one(text, site, tactic):
    line = text.split("\n")[site.pos.line - 1]
    new_line = line[: site.pos.column] + tactic + line[site.end_pos.column :]
    return replace_lines(text, [(site.pos.line, site.pos.line, [new_line])])


def reference_solve(s, session, config=None):
    """The per-site loop that the trial waves replaced, kept as the
    reference: one `hint` wave, then each site in turn, one compile per
    candidate of its ladder, committing the first whose compile passes with
    fewer sorries.  A site the wave left unanswered, or whose line a commit
    edited, gets its own `hint` probe when its turn comes."""
    config = config or RepairConfig()
    text, result = s.script.text, s.compile_result
    commits = list(s.commits)
    hints = (dict(zip(result.sorries, hint_candidates(text, result.sorries, session, config)))
             if result.sorries else {})
    skipped = 0
    while skipped < len(result.sorries):
        site = result.sorries[skipped]
        suggestions = hints.get(site)
        if suggestions is None:
            suggestions = hint_candidates(text, [site], session, config)[0]
        for tactic in suggestions + suite_candidates(config):
            trial = _swap_one(text, site, tactic)
            trial_result = check_script(trial, session, config.candidate_timeout)
            if (trial_result.ok and not trial_result.errors
                    and len(trial_result.sorries) < len(result.sorries)):
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


class _Recording:
    """A session that passes every compile on and keeps its code and
    timeout."""

    def __init__(self, session):
        self.session, self.sent = session, []

    def check(self, code, timeout=None):
        self.sent.append((code, timeout))
        return self.session.check(code, timeout)


def _against_reference(s, session, config=None):
    """Run the waves and the reference on `s`; both must commit the same
    tactic at each site and give the same text and sites.  An input of
    several sites must take the waves no more compiles.  On a one-site
    input the first two compiles (`hint`, the first candidate) are the
    reference's; a site that nothing closes then costs one more, the
    precheck, and a site that a later candidate closes costs the
    reference's count plus the precheck.  Returns the two compile counts."""
    waves, reference = _Recording(session), _Recording(session)
    out = solve_sorries(s, waves, config)
    expected = reference_solve(s, reference, config)
    assert out.commits == expected.commits
    assert serialize(out.script) == serialize(expected.script)
    assert out.compile_result.sorries == expected.compile_result.sorries
    assert out.compile_result.ok
    if len(s.compile_result.sorries) > 1:
        assert len(waves.sent) <= len(reference.sent)
    elif not out.commits:
        assert waves.sent[:2] == reference.sent[:2] and len(waves.sent) == 3
    elif len(reference.sent) > 2:
        assert waves.sent[:2] == reference.sent[:2]
        assert len(waves.sent) == len(reference.sent) + 1
    else:  # the first candidate closes: no precheck
        assert waves.sent == reference.sent
    return len(waves.sent), len(reference.sent)


def test_waves_match_the_reference_on_the_worked_example(session_332):
    source = (FIXTURES / "llm_332" / "mathd_algebra_332" / "000.lean").read_text(
        encoding="utf-8")
    worked = _sorrified(refine(source)[0], session_332)
    assert len(worked.compile_result.sorries) == 6
    # the precheck after the first wave drops the two sites that nothing
    # closes, and the last of the four that close wins at ladder place 6:
    # `hint`, seven waves and the precheck, the last wave being the result
    assert _against_reference(worked, session_332) == (1 + 7 + 1, 1 + 57)


def test_waves_match_the_reference_on_multi_have(session):
    waves, reference = _against_reference(_sorrified(MULTI_HAVE, session), session)
    assert waves < reference


def _leaf_tactics(sent, rules):
    """The leaf tactics an in-process fake REPL runs over the compiles
    `sent`, the second cost figure beside their number."""
    repl = FakeRepl(RuleTable.load(str(rules)))
    for code, _ in sent:
        repl.handle(code)
    return repl.evaluated


def test_the_precheck_runs_no_more_leaf_tactics_than_the_reference(
        session_332, session, rules_path):
    """The precheck puts a whole ladder into one compile, but each compile
    the reference makes runs the whole proof again: replayed, the waves
    with the precheck run fewer leaf tactics than the per-site loop."""
    source = (FIXTURES / "llm_332" / "mathd_algebra_332" / "000.lean").read_text(
        encoding="utf-8")
    inputs = [(_sorrified(refine(source)[0], session_332), session_332,
               FIXTURES / "rules_332.json"),
              (_sorrified(MULTI_HAVE, session), session, rules_path)]
    for s, on, rules in inputs:
        waves, reference = _Recording(on), _Recording(on)
        solve_sorries(s, waves)
        reference_solve(s, reference)
        assert any(code.count("first |") > 1 for code, _ in waves.sent)  # a precheck
        assert _leaf_tactics(waves.sent, rules) <= _leaf_tactics(reference.sent, rules)


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    """Every `solve_sorries` input of the 48 golden runs, each with the
    command of the session it ran on."""
    import test_golden

    seen = []
    original = engine.solve_sorries

    def capture(s, session, config=None):
        seen.append((tuple(session.command), s, config))
        return original(s, session, config)

    with mock.patch.object(engine, "solve_sorries", capture):
        test_golden.documents(tmp_path_factory.mktemp("golden"))
    return seen


def test_waves_match_the_reference_on_every_golden_input(golden_inputs):
    assert len(golden_inputs) == 21
    sessions = {}
    try:
        for command, s, config in golden_inputs:
            if command not in sessions:
                sessions[command] = start_session(list(command))
            _against_reference(s, sessions[command], config)
    finally:
        for session in sessions.values():
            session.close()
    assert sum(len(s.compile_result.sorries) > 1 for _, s, _ in golden_inputs) == 1


def _bench_inputs():
    """`bench/inputs.py`, loaded read-only and kept out of `sys.modules`;
    its `import checks` is served from `bench/checks.py`."""
    bench = Path(__file__).resolve().parent.parent / "bench"

    def load(name, **modules):
        spec = importlib.util.spec_from_file_location(f"bench_{name}", bench / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        with mock.patch.dict(sys.modules, {spec.name: module, **modules}):
            spec.loader.exec_module(module)
        return module

    return load("inputs", checks=load("checks"))


@pytest.mark.parametrize("seed", [3, 11])
def test_waves_match_the_reference_on_broken_haves(plain_session, seed):
    inputs = _bench_inputs()
    name = f"bh_{seed}_0"
    statement, proof, _ = inputs.broken_haves_theorem(random.Random(seed), name)
    s = sorrify(parse_script("import Mathlib\n\n" + proof,
                             TheoremStatement(name, "import Mathlib\n", statement)),
                plain_session)
    assert len(s.compile_result.sorries) == inputs.BH_HAVES
    # every claim is closed arithmetic: one wave commits `norm_num` at all
    # 60 sites, where the reference made one trial per site
    assert _against_reference(s, plain_session) == (2, 1 + inputs.BH_HAVES)


_GOALS = ("2 + 2 = 4", "3 * 3 = 10", "G1", "G2", "G3")


def _seeded_theorem(rng):
    """A theorem shaped like `broken_haves`: broken `have`s, one a line,
    in a block, or in a block inside another, each on a goal that
    `norm_num`, `ring_nf`, the `hint` suggestion `gcongr` or nothing
    closes."""
    lines = ["theorem t : 1 = 1 := by"]
    for i in range(rng.randint(2, 6)):
        goal, shape = rng.choice(_GOALS), rng.randrange(3)
        if shape == 0:
            lines.append(f"  have h{i} : {goal} := by frob")
        elif shape == 1:
            lines += [f"  have h{i} : {goal} := by", "    frob"]
        else:
            lines += [f"  have h{i} : {goal} := by",
                      f"    have k{i} : {rng.choice(_GOALS)} := by", "      frob", "    frob"]
    return "\n".join(lines + ["  rfl"]) + "\n"


@pytest.mark.parametrize("seed", range(8))
def test_waves_match_the_reference_on_seeded_theorems(session, seed):
    s = _sorrified(_seeded_theorem(random.Random(seed)), session)
    assert s.compile_result.sorries
    _against_reference(s, session)


# --- width one: each trigger, against a stub of Lean -------------------------

_SITE_LINE = re.compile(r"  (?:have (\w+) : \w+ := by|show (\w+) by) (.*)$")


class _WaveRepl:
    """A session that stands in for Lean on trial waves.  Each line
    `  have hN : A := by TAC` is a site in a sequence of its own, and each
    line `  show pN by TAC` a site in the proof body's sequence: TAC
    `sorry` is a sorry, `hint` is a sorry that, for the first `answered` of
    them in a compile, suggests `simp only [foo]`, the site's closer in
    `closers` closes it, and so does a `first | (c; done) | …` with the
    closer among its alternatives; anything else is an error at TAC.
    `react(tactics)`, given every site line's TAC in order, may return a
    status for the whole reply or messages to add to it."""

    def __init__(self, closers, answered=None, react=lambda tactics: None):
        self.closers, self.answered, self.react = closers, answered, react
        self.sent = []  # the timeout of each compile

    def check(self, code, timeout=None):
        self.sent.append(timeout)
        rows = [(no, m) for no, line in enumerate(code.split("\n"), start=1)
                if (m := _SITE_LINE.match(line))]
        reaction = self.react([m.group(3) for _, m in rows])
        if isinstance(reaction, str):
            return CompileResult(reaction)
        messages, sorries, hints = list(reaction or []), [], 0
        for no, m in rows:
            column, tactic = m.start(3), m.group(3)
            if tactic in ("sorry", "hint"):
                sorries.append({"pos": {"line": no, "column": column},
                                "endPos": {"line": no, "column": m.end(3)}, "goal": "⊢ A"})
                if tactic == "hint" and (self.answered is None or hints < self.answered):
                    messages.append(_message("info", no, column, "Try these:\n• simp only [foo]"))
                hints += tactic == "hint"
            elif self.closers.get(m.group(1) or m.group(2)) not in (
                    _alternatives(tactic) if tactic.startswith("first ") else [tactic]):
                messages.append(_message("error", no, column, "tactic failed"))
        return classify({"env": 0, "messages": messages, "sorries": sorries})


def _message(severity, line, column, data):
    return {"severity": severity, "pos": {"line": line, "column": column},
            "endPos": {"line": line, "column": column + 1}, "data": data}


THREE_HAVES = ("theorem t : G := by\n"
               "  intro x\n"
               "  have h1 : A := by sorry\n"
               "  have h2 : B := by sorry\n"
               "  have h3 : C := by sorry\n"
               "  exact c\n")

# `h1` closes at ladder place 2 and `h2` at 4; nothing closes `h3`
CLOSERS = {"h1": "simp", "h2": "ring_nf"}

_HEARTBEATS = ("(deterministic) timeout at `whnf`, maximum number of heartbeats "
               "(400000) has been reached\nUse `set_option maxHeartbeats <num>` "
               "to set the limit.")


# `norm_num` comes second on every ladder, in the second wave, while `h1`
# and `h2` are open: the precheck after the first wave dropped `h3`


def _slow(status):
    return lambda tactics: status if "norm_num" in tactics else None


def _heavy(tactics):
    if "norm_num" in tactics:
        return [_message("error", 3 + tactics.index("norm_num"), 20, _HEARTBEATS)]
    return None


def _unread_precheck(react, reply=TIMEOUT):
    """`react`, but `reply` (a status or messages) to the precheck."""
    return lambda tactics: (reply if any(t.startswith("first ") for t in tactics)
                            else react(tactics))


def _broken_together(tactics):
    # an error on the last line once `h1` and `h2` are committed and `h3`
    # is a sorry: the waves see it only in the check of the committed text,
    # which they make when `h3` spent its ladder in them, that is when the
    # precheck could not be read
    return [_message("error", 6, 2, "type mismatch")] if tactics == [
        "simp", "ring_nf", "sorry"] else None


def _cut_short(tactics):
    # an error on `intro x`, before every site's sequence, while no site
    # holds a sorry: each site waits, so the first wave decides nothing
    if all(t not in ("sorry", "hint") for t in tactics):
        return [_message("error", 2, 2, "intro failed")]
    return None


@pytest.mark.parametrize("stub,trigger", [
    (dict(react=_slow(TIMEOUT)), "a timeout"),
    (dict(react=_slow(REPL_CRASH)), "a crash"),
    (dict(react=_heavy), "a maxHeartbeats error"),
    (dict(react=_unread_precheck(_broken_together)),
     "the last check of the committed text disagrees"),
    (dict(react=_cut_short), "a wave that decides nothing"),
    (dict(answered=1), "a site the hint wave left unanswered"),
], ids=["timeout", "crash", "heartbeats", "final_check", "decides_nothing", "unanswered"])
def test_width_one_takes_over(caplog, stub, trigger):
    s = _stub_sorrified(THREE_HAVES, _WaveRepl(CLOSERS, **stub))
    with caplog.at_level(logging.DEBUG, logger="apollo.autosolver"):
        out = solve_sorries(s, _WaveRepl(CLOSERS, **stub))
    assert f"autosolver: width one after {trigger}" in caplog.messages
    expected = reference_solve(s, _WaveRepl(CLOSERS, **stub))
    assert out.commits == expected.commits
    assert serialize(out.script) == serialize(expected.script)
    assert out.compile_result.sorries == expected.compile_result.sorries


def test_waves_without_a_trigger_stay_wide(caplog):
    s = _stub_sorrified(THREE_HAVES, _WaveRepl(CLOSERS))
    with caplog.at_level(logging.DEBUG, logger="apollo.autosolver"):
        out = solve_sorries(s, _WaveRepl(CLOSERS))
    # the precheck after the first wave drops h3, which nothing closes; h1
    # closes in the third wave and h2 in the fifth, which is the result
    assert caplog.messages == [
        "autosolver: wave over 3 open sites: 0 closed, 0 undecided",
        "autosolver: precheck over 3 open sites: 1 dropped, 2 kept",
        "autosolver: wave over 2 open sites: 0 closed, 0 undecided",
        "autosolver: wave over 2 open sites: 1 closed, 0 undecided",
        "autosolver: wave over 1 open sites: 0 closed, 0 undecided",
        "autosolver: wave over 1 open sites: 1 closed, 0 undecided"]
    assert [(c.site.pos.line, c.tactic) for c in out.commits] == [(3, "simp"), (4, "ring_nf")]
    assert out.compile_result.sorries[0].pos.line == 5


@pytest.mark.parametrize("reply,reason", [
    (TIMEOUT, "a timeout"),
    (REPL_CRASH, "a crash"),
    ([_message("error", 3, 20, _HEARTBEATS)], "a maxHeartbeats error"),
], ids=["timeout", "crash", "heartbeats"])
def test_a_precheck_that_cannot_be_read_drops_no_site(caplog, reply, reason):
    """The waves then run as without a precheck: they stay wide, h3 spends
    its 23 candidates in them, and the commits are the reference's."""
    stub = dict(react=_unread_precheck(lambda tactics: None, reply))
    s = _stub_sorrified(THREE_HAVES, _WaveRepl(CLOSERS, **stub))
    with caplog.at_level(logging.DEBUG, logger="apollo.autosolver"):
        out = solve_sorries(s, _WaveRepl(CLOSERS, **stub))
    assert caplog.messages[1] == (
        f"autosolver: precheck over 3 open sites: 0 dropped, 3 kept (unread after {reason})")
    assert not any("width one" in m for m in caplog.messages)
    waves = [m for m in caplog.messages if m.startswith("autosolver: wave")]
    assert waves[:3] == ["autosolver: wave over 3 open sites: 0 closed, 0 undecided"] * 2 + [
        "autosolver: wave over 3 open sites: 1 closed, 0 undecided"]
    assert len(waves) == 23
    expected = reference_solve(s, _WaveRepl(CLOSERS, **stub))
    assert out.commits == expected.commits
    assert [(c.site.pos.line, c.tactic) for c in out.commits] == [(3, "simp"), (4, "ring_nf")]
    assert serialize(out.script) == serialize(expected.script)


def test_a_site_waits_for_an_earlier_one_in_its_sequence(caplog):
    """Two sites in the proof body's sequence: the later one waits while
    the earlier is open, in the waves and in the precheck, which keeps
    both.  The earlier fails on an error before the later site, and waits
    when the only error stands at the later site, which either candidate
    could have caused: that wave decides nothing."""
    text = ("theorem t : G := by\n"
            "  show p1 by sorry\n"
            "  show p2 by sorry\n"
            "  exact c\n")
    closers = {"p1": "simp", "p2": "ring_nf"}
    s = _stub_sorrified(text, _WaveRepl(closers))
    with caplog.at_level(logging.DEBUG, logger="apollo.autosolver"):
        out = solve_sorries(s, _WaveRepl(closers))
    assert caplog.messages[:4] == [
        "autosolver: wave over 2 open sites: 0 closed, 1 undecided",
        "autosolver: precheck over 2 open sites: 0 dropped, 2 kept",
        "autosolver: wave over 2 open sites: 0 closed, 1 undecided",
        "autosolver: width one after a wave that decides nothing"]
    expected = reference_solve(s, _WaveRepl(closers))
    assert out.commits == expected.commits
    assert [c.tactic for c in out.commits] == ["simp", "ring_nf"]
    assert serialize(out.script) == serialize(expected.script)


def test_slow_site_beside_a_closable_one(session, caplog):
    """The `GSLOW` suggestion sleeps past the wave's timeout: the call
    narrows to width one, the slow candidate fails alone, and the `G1`
    site is still closed."""
    src = ("theorem t : 1 = 1 := by\n"
           "  have a : GSLOW := by sorry\n"
           "  have b : G1 := by sorry\n"
           "  rfl\n")
    before = _sorrified(src, session)
    with caplog.at_level(logging.DEBUG, logger="apollo.autosolver"):
        out = solve_sorries(before, session, RepairConfig(candidate_timeout=0.4))
    assert "autosolver: width one after a timeout" in caplog.messages
    assert [(c.site.pos.line, c.tactic) for c in out.commits] == [(3, "ring_nf")]
    assert serialize(out.script) == src.replace("G1 := by sorry", "G1 := by ring_nf")
