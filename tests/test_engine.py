import json

import pytest

from apollo import engine
from apollo.config import RepairConfig
from apollo.engine import (
    FAILED,
    PARTIAL_WITH_SORRIES,
    PROVED,
    apollo,
    assemble,
    proof_length,
    verify_final,
)
from apollo.llm import GenerationRequest, MockBackend
from apollo.proofscript import TheoremStatement, count_sorries, parse_script, serialize
from apollo.repl import (
    PASS,
    PASS_WITH_SORRIES,
    REPL_CRASH,
    TIMEOUT,
    SessionPool,
    classify,
    start_session,
)
from apollo.sorrifier import check_script
from conftest import (
    FIXTURES,
    HEADER_332,
    STATEMENT_332,
    SUITE_CANDIDATES,
    SUITE_ITEMS,
    fake_repl_cmd,
    suite_statement,
    write_llm_fixtures,
)

STATEMENT = TheoremStatement("mathd_algebra_332", HEADER_332, STATEMENT_332)


def run_suite_theorem(name, pool, mock_suite, r, **config_kwargs):
    backend = MockBackend(mock_suite["llm"])
    config = RepairConfig(max_depth_r=r, k_per_goal=4, **config_kwargs)
    return apollo(suite_statement(name), 0, config, backend, pool)


# --- worked example ---------------------------------------------------------

def test_worked_example_full_repair(pool_332):
    backend = MockBackend(FIXTURES / "llm_332")
    config = RepairConfig(max_depth_r=1, k_per_goal=32)
    outcome = apollo(STATEMENT, 0, config, backend, pool_332)

    assert outcome.status == PROVED
    assert outcome.assisted
    assert count_sorries(outcome.final_script) == 0
    assert outcome.ledger.module_triggers["syntax_refiner"] == 1
    assert outcome.ledger.module_triggers["auto_solver"] == 1
    assert outcome.ledger.module_triggers["llm_reinvoker"] == 2
    assert outcome.ledger.samples_used == 3  # one candidate per generation
    assert max(e.depth for e in outcome.audit.events) == 1
    text = serialize(outcome.final_script)
    assert "set_option pp." not in text
    assert "sorry" not in text


def test_worked_example_deterministic_across_runs(pool_332):
    def one_run():
        backend = MockBackend(FIXTURES / "llm_332")
        config = RepairConfig(max_depth_r=1, k_per_goal=32)
        return apollo(STATEMENT, 0, config, backend, pool_332)

    first, second = one_run(), one_run()
    assert serialize(first.final_script) == serialize(second.final_script)
    assert first.canonical() == second.canonical()


def test_worked_example_depth_zero_is_partial(pool_332):
    backend = MockBackend(FIXTURES / "llm_332")
    config = RepairConfig(max_depth_r=0, k_per_goal=32)
    outcome = apollo(STATEMENT, 0, config, backend, pool_332)
    assert outcome.status == PARTIAL_WITH_SORRIES
    assert count_sorries(outcome.final_script) == 2  # autosolver closed four


# --- algorithm base case and monotonicity -----------------------------------

def test_r0_no_passing_candidate_yields_partial(suite_pool, mock_suite):
    outcome = run_suite_theorem("thm_r1", suite_pool, mock_suite, r=0,
                                enable_auto_solver=False)
    assert outcome.status == PARTIAL_WITH_SORRIES
    assert count_sorries(outcome.final_script) == 1


def test_depth_cap_never_exceeded(suite_pool, mock_suite):
    outcome = run_suite_theorem("thm_r3", suite_pool, mock_suite, r=2)
    assert outcome.status == PARTIAL_WITH_SORRIES
    over_cap = [e for e in outcome.audit.events if e.depth > 2]
    assert over_cap and all(e.action == "depth_cap" for e in over_cap)


def test_proved_set_monotone_in_r(suite_pool, mock_suite):
    names = ["thm_r0", "thm_refine", "thm_auto", "thm_r1", "thm_r2",
             "thm_r3", "thm_fail"]
    proved_at = {}
    for r in range(4):
        proved_at[r] = {
            name for name in names
            if run_suite_theorem(name, suite_pool, mock_suite, r=r).status == PROVED
        }
    assert proved_at[0] == {"thm_r0", "thm_refine", "thm_auto"}
    assert proved_at[1] == proved_at[0] | {"thm_r1"}
    assert proved_at[2] == proved_at[1] | {"thm_r2"}
    assert proved_at[3] == proved_at[2] | {"thm_r3"}
    for r in range(3):
        assert proved_at[r] <= proved_at[r + 1]


# --- ledger exactness --------------------------------------------------------

LEDGER_CANDIDATES = {
    "thmL": (
        "theorem thmL : PL := by\n"
        "  have qa : QA := by\n"
        "    bad_qa\n"
        "  have qb : QB := by\n"
        "    bad_qb\n"
        "  exact pl_of qa qb\n"
    ),
    "thmL_sub1": "theorem thmL_sub1 : QA := by\n  exact qa_witness\n",
    "thmL_sub2": "theorem thmL_sub2 (qa : QA) : QB := by\n  exact qb_witness\n",
}


@pytest.fixture(scope="module")
def ledger_fixture(tmp_path_factory, request):
    root = tmp_path_factory.mktemp("ledger")
    write_llm_fixtures(root / "llm", LEDGER_CANDIDATES, copies=32,
                       tokens_per_candidate=10)
    write_llm_fixtures(root / "llm_single",
                       {"thm_r0": SUITE_CANDIDATES["thm_r0"]},
                       copies=32, tokens_per_candidate=10)
    return root


def test_ledger_root_plus_two_sublemmas_is_96(ledger_fixture, mock_suite):
    pool = SessionPool.build(
        lambda: start_session(fake_repl_cmd(mock_suite["rules"])), 1)
    try:
        backend = MockBackend(ledger_fixture / "llm")
        config = RepairConfig(max_depth_r=1, k_per_goal=32,
                              enable_auto_solver=False)
        statement = TheoremStatement(
            "thmL", "import Mathlib\n", "theorem thmL : PL := by")
        outcome = apollo(statement, 0, config, backend, pool)
        assert outcome.status == PROVED
        assert outcome.ledger.samples_used == 32 * 3  # root + two sub-lemmas
        assert outcome.ledger.tokens_generated == 10 * 32 * 3
        assert outcome.ledger.module_triggers["llm_reinvoker"] == 2
    finally:
        pool.close()


def test_ledger_base_solved_counts_only_root(ledger_fixture, mock_suite):
    pool = SessionPool.build(
        lambda: start_session(fake_repl_cmd(mock_suite["rules"])), 1)
    try:
        backend = MockBackend(ledger_fixture / "llm_single")
        config = RepairConfig(max_depth_r=1, k_per_goal=32)
        outcome = apollo(suite_statement("thm_r0"), 0, config, backend, pool)
        assert outcome.status == PROVED
        assert outcome.ledger.samples_used == 32
        assert outcome.ledger.tokens_generated == 320
        assert not outcome.assisted
        assert outcome.ledger.module_triggers == {
            "syntax_refiner": 0, "auto_solver": 0, "llm_reinvoker": 0}
    finally:
        pool.close()


def test_ledger_partial_at_r0_counts_root_only(ledger_fixture, mock_suite):
    pool = SessionPool.build(
        lambda: start_session(fake_repl_cmd(mock_suite["rules"])), 1)
    try:
        backend = MockBackend(ledger_fixture / "llm")
        config = RepairConfig(max_depth_r=0, k_per_goal=32,
                              enable_auto_solver=False)
        statement = TheoremStatement(
            "thmL", "import Mathlib\n", "theorem thmL : PL := by")
        outcome = apollo(statement, 0, config, backend, pool)
        # recursion is depth-capped at r=0 and the feedback retry finds the
        # fixture exhausted, so only the root generation is ever counted
        assert outcome.status == PARTIAL_WITH_SORRIES
        assert outcome.ledger.samples_used == 32
        assert outcome.assisted
    finally:
        pool.close()


def test_sample_cap_aborts_runaway(ledger_fixture, mock_suite):
    pool = SessionPool.build(
        lambda: start_session(fake_repl_cmd(mock_suite["rules"])), 1)
    try:
        backend = MockBackend(ledger_fixture / "llm")
        config = RepairConfig(max_depth_r=1, k_per_goal=32, sample_cap=40,
                              enable_auto_solver=False)
        statement = TheoremStatement(
            "thmL", "import Mathlib\n", "theorem thmL : PL := by")
        outcome = apollo(statement, 0, config, backend, pool)
        # root takes 32, the first sub-lemma is clamped to the remaining 8,
        # and the second sub-lemma request aborts on the exhausted budget
        assert outcome.ledger.samples_used == 40
        assert outcome.status == PARTIAL_WITH_SORRIES
        assert count_sorries(outcome.final_script) == 1
    finally:
        pool.close()


# --- ablation matrix ---------------------------------------------------------

def plain_at_k(names, mock_suite, k=4):
    """Reference semantics: generate k, accept the first candidate that
    passes as generated; no repair machinery at all."""
    results = {}
    pool = SessionPool.build(
        lambda: start_session(fake_repl_cmd(mock_suite["rules"])), 1)
    try:
        with pool.lease() as session:
            for name in names:
                backend = MockBackend(mock_suite["llm"])
                stmt = suite_statement(name)
                try:
                    generated = backend.generate(
                        GenerationRequest(stmt, k=k)).candidates
                except Exception:
                    results[name] = (FAILED, None)
                    continue
                verdict = (FAILED, None)
                for text in generated:
                    stripped = "\n".join(
                        ln for ln in text.split("\n")
                        if not ln.startswith("import "))
                    result = session.check(stripped)
                    if result.status == PASS and "sorry" not in text:
                        verdict = (PROVED, text)
                        break
                results[name] = verdict
    finally:
        pool.close()
    return results


@pytest.mark.parametrize("refiner,solver,reinvoker", [
    (False, False, False), (True, False, False), (False, True, False),
    (False, False, True), (True, True, False), (True, False, True),
    (False, True, True), (True, True, True),
])
def test_ablation_matrix(refiner, solver, reinvoker, suite_pool, mock_suite):
    names = ["thm_r0", "thm_refine", "thm_auto", "thm_r1", "thm_fail"]
    outcomes = {
        name: run_suite_theorem(name, suite_pool, mock_suite, r=1,
                                enable_syntax_refiner=refiner,
                                enable_auto_solver=solver,
                                enable_llm_reinvoker=reinvoker)
        for name in names
    }
    proved = {n for n, o in outcomes.items() if o.status == PROVED}

    expected = {"thm_r0"}
    if refiner:
        expected.add("thm_refine")
    if solver:
        expected.add("thm_auto")
    if reinvoker:
        expected.add("thm_r1")
        expected.add("thm_auto")  # sub-lemma fixture closes it too
    assert proved == expected

    for name, outcome in outcomes.items():
        triggers = outcome.ledger.module_triggers
        if not refiner:
            assert triggers["syntax_refiner"] == 0
        if not solver:
            assert triggers["auto_solver"] == 0
        if not reinvoker:
            assert triggers["llm_reinvoker"] == 0


def test_all_off_equals_plain_at_k(suite_pool, mock_suite):
    names = ["thm_r0", "thm_refine", "thm_auto", "thm_r1", "thm_fail"]
    reference = plain_at_k(names, mock_suite)
    for name in names:
        outcome = run_suite_theorem(name, suite_pool, mock_suite, r=1,
                                    enable_syntax_refiner=False,
                                    enable_auto_solver=False,
                                    enable_llm_reinvoker=False)
        ref_status, ref_text = reference[name]
        assert outcome.status == ref_status, name
        if ref_status == PROVED:
            assert serialize(outcome.final_script) == serialize(
                parse_script(ref_text)), name
        assert outcome.ledger.samples_used == 1  # one fixture candidate each


# --- outcome classification --------------------------------------------------

def test_statement_malformed_fails_immediately(suite_pool, mock_suite):
    backend = MockBackend(mock_suite["llm"])
    config = RepairConfig(max_depth_r=1)
    bad = TheoremStatement(
        "thm_bad", "import Mathlib\n",
        "theorem thm_bad (x : ℝ) (hz : z > 0) : P0 := by")
    outcome = apollo(bad, 0, config, backend, suite_pool)
    assert outcome.status == FAILED
    assert outcome.failure_reason == "statement_malformed"
    assert outcome.ledger.samples_used == 0


def test_verify_final_classification(plain_session):
    proved, _ = verify_final(
        parse_script("theorem t : 1 = 1 := by rfl"), plain_session)
    assert proved == PROVED
    partial, _ = verify_final(
        parse_script("theorem t : 1 = 1 := by\n  sorry"), plain_session)
    assert partial == PARTIAL_WITH_SORRIES
    admitted, _ = verify_final(
        parse_script("theorem t : 1 = 1 := by\n  admit"), plain_session)
    assert admitted == PARTIAL_WITH_SORRIES  # admit is never a proof


def test_verify_final_reports_errors_in_script_lines(plain_session):
    # the import lines are not sent to the REPL, but the feedback prompt
    # shows the script with them: line 6 is the bad tactic
    script = parse_script(
        "import Mathlib\nimport Aesop\n\n"
        "theorem t : (2:ℕ) + 2 = 4 := by\n"
        "  norm_num\n"
        "  bogus_tactic")
    status, result = verify_final(script, plain_session)
    assert status == FAILED
    assert [d.pos.line for d in result.errors] == [6]
    assert serialize(script).split("\n")[5].strip() == "bogus_tactic"


def test_assemble_keeps_sorry_for_failed_subs(plain_session):
    parent = parse_script(
        "theorem t : 2 + 2 = 4 := by\n"
        "  have a : 1 + 1 = 2 := by sorry\n"
        "  have b : 3 + 3 = 6 := by sorry\n"
        "  norm_num\n")
    site_a, site_b = check_script(serialize(parent), plain_session,
                                  RepairConfig().compile_timeout).sorries
    sub_a = parse_script("theorem t_sub1 : 1 + 1 = 2 := by\n  norm_num\n")
    sub_b = parse_script("theorem t_sub2 : 3 + 3 = 6 := by\n  norm_num\n")

    both = assemble(parent, [(site_a, sub_a), (site_b, sub_b)])
    assert count_sorries(both) == 0

    # the sub-lemma at site b was not proved: it is not passed, and b keeps its sorry
    partial = assemble(parent, [(site_a, sub_a)])
    assert count_sorries(partial) == 1
    assert "have b : 3 + 3 = 6 := by sorry" in serialize(partial)
    assert assemble(parent, []) is parent


def test_proof_length_examples(pool_332):
    assert proof_length(parse_script("theorem t : 1 = 1 := by rfl")) == 1
    assert proof_length(parse_script("theorem t : 1 = 1 := by\n  sorry")) == 1
    assert proof_length(parse_script("theorem t : 1 = 1 := by")) == 1
    # a block comment over several lines counts for nothing
    assert proof_length(parse_script(
        "theorem t : 1 = 1 := by\n  /- a\n  b -/\n  rfl\n")) == 1

    initial = parse_script(
        (FIXTURES / "llm_332/mathd_algebra_332/000.lean")
        .read_text().replace(" from by", " := by"))
    backend = MockBackend(FIXTURES / "llm_332")
    config = RepairConfig(max_depth_r=1, k_per_goal=32)
    outcome = apollo(STATEMENT, 0, config, backend, pool_332)
    assert outcome.proof_length == proof_length(outcome.final_script)
    assert outcome.proof_length > proof_length(initial)


def test_feedback_reentry_consumes_second_candidate(mock_suite, tmp_path):
    # first candidate stays partial, the feedback retry proves it
    candidates = {
        "thm_r1": SUITE_CANDIDATES["thm_r1"],
    }
    write_llm_fixtures(tmp_path / "llm", candidates)
    with open(tmp_path / "llm/thm_r1/001.lean", "w") as fh:
        fh.write("theorem thm_r1 : P1 := by\n"
                 "  have a1 : Q1 := by\n"
                 "    exact q1_witness\n"
                 "  exact p1_of_q1 a1\n")
    (tmp_path / "llm/thm_r1/meta.json").write_text(
        json.dumps({"tokens": [10, 10]}))

    pool = SessionPool.build(
        lambda: start_session(fake_repl_cmd(mock_suite["rules"])), 1)
    try:
        backend = MockBackend(tmp_path / "llm")
        config = RepairConfig(max_depth_r=0, k_per_goal=1,
                              enable_auto_solver=False)
        outcome = apollo(suite_statement("thm_r1"), 0, config, backend, pool)
        assert outcome.status == PROVED
        assert outcome.ledger.samples_used == 2
        actions = [e.action for e in outcome.audit.events]
        assert "feedback_reentry" in actions
    finally:
        pool.close()


class _ErrorReplySession:
    """Answers every request the way the REPL answers a command it could
    not run at all: no env, only a message."""

    def check(self, code, timeout=None):
        return classify({"message": "Unknown environment."})


def test_verify_final_never_proves_on_error_reply():
    status, result = verify_final(
        parse_script("theorem t : 1 = 1 := by rfl"), _ErrorReplySession())
    assert status == FAILED
    assert result.errors[0].message == "Unknown environment."


def test_unterminated_comment_candidate_is_skipped(mock_suite, tmp_path):
    # candidate 0 cannot be masked; it must not abort the theorem
    write_llm_fixtures(tmp_path / "llm", {
        "thm_r0": SUITE_CANDIDATES["thm_r0"] + "/- unclosed\n"})
    (tmp_path / "llm/thm_r0/001.lean").write_text(SUITE_CANDIDATES["thm_r0"])
    (tmp_path / "llm/thm_r0/meta.json").write_text(
        json.dumps({"tokens": [10, 10]}))

    pool = SessionPool.build(
        lambda: start_session(fake_repl_cmd(mock_suite["rules"])), 1)
    try:
        backend = MockBackend(tmp_path / "llm")
        config = RepairConfig(max_depth_r=0, k_per_goal=2)
        outcome = apollo(suite_statement("thm_r0"), 0, config, backend, pool)
        assert outcome.status == PROVED
        assert "via candidate 1" in outcome.audit.events[-1].detail
    finally:
        pool.close()


def test_block_comment_in_a_candidate_body_is_proved_as_generated(mock_suite, tmp_path):
    candidate = ("theorem thm_r1 : P1 := by\n"
                 "  have a1 : Q1 := by\n"
                 "    /- the witness\n"
                 "       from the rule table -/\n"
                 "    exact q1_witness\n"
                 "  exact p1_of_q1 a1\n")
    write_llm_fixtures(tmp_path / "llm", {"thm_r1": candidate})
    pool = SessionPool.build(
        lambda: start_session(fake_repl_cmd(mock_suite["rules"])), 1)
    try:
        outcome = apollo(suite_statement("thm_r1"), 0,
                         RepairConfig(max_depth_r=0, k_per_goal=1),
                         MockBackend(tmp_path / "llm"), pool)
    finally:
        pool.close()
    assert outcome.status == PROVED and not outcome.assisted
    assert "candidate_pass" in [e.action for e in outcome.audit.events]
    assert serialize(outcome.final_script) == candidate
    assert outcome.proof_length == 3  # the have and two exacts; the comment counts for nothing
    assert outcome.ledger.repl_calls == 2  # the statement probe and the candidate


def test_block_comment_closing_on_a_deeper_line_is_repaired(tmp_path):
    # the `have` line opens a comment that its child line closes; the
    # sorrifier must read that line in the context of its script
    candidate = ("theorem t : 1 = 1 := by\n"
                 "  have h : 1 = 1 := by frob /- a\n"
                 "    b -/\n"
                 "  rfl\n")
    write_llm_fixtures(tmp_path / "llm", {"t": candidate})
    pool = SessionPool.build(lambda: start_session(fake_repl_cmd()), 1)
    try:
        outcome = apollo(TheoremStatement("t", "", "theorem t : 1 = 1 := by"), 0,
                         RepairConfig(max_depth_r=0, k_per_goal=1),
                         MockBackend(tmp_path / "llm"), pool)
    finally:
        pool.close()
    assert outcome.status == PROVED
    assert "frob" not in serialize(outcome.final_script)
    assert outcome.ledger.repl_calls == 5  # as with a `--` comment in its place


def test_runaway_refiner_rule_leaves_the_candidate_unrefined(mock_suite, tmp_path):
    # candidate 0 fails and the one rule never reaches a fixpoint on it; the
    # theorem must not fail with it, since candidate 1 proves it as generated
    rules = tmp_path / "rules.jsonl"
    rules.write_text(json.dumps({"id": "grow", "pattern": "foo",
                                 "replacement": "foofoo"}) + "\n")
    write_llm_fixtures(tmp_path / "llm", {"thm_r0": "theorem thm_r0 : P0 := by\n  foo\n"})
    (tmp_path / "llm/thm_r0/001.lean").write_text(SUITE_CANDIDATES["thm_r0"])
    (tmp_path / "llm/thm_r0/meta.json").write_text(
        json.dumps({"tokens": [10, 10]}))

    pool = SessionPool.build(
        lambda: start_session(fake_repl_cmd(mock_suite["rules"])), 1)
    try:
        config = RepairConfig(max_depth_r=0, k_per_goal=2, rules_path=str(rules))
        outcome = apollo(suite_statement("thm_r0"), 0, config,
                         MockBackend(tmp_path / "llm"), pool)
    finally:
        pool.close()
    assert outcome.status == PROVED
    assert "via candidate 1" in outcome.audit.events[-1].detail
    refiner = [e for e in outcome.audit.events if e.module == "syntax_refiner"]
    assert [(e.action, e.detail.split(":")[0]) for e in refiner] == [
        ("rule_error", "candidate 0")]
    assert "'grow'" in refiner[0].detail
    assert outcome.ledger.module_triggers["syntax_refiner"] == 0


def test_candidate_accepted_as_generated_is_not_compiled_again(
        suite_pool, mock_suite, monkeypatch):
    def no_second_compile(*args, **kwargs):
        raise AssertionError("verify_final compiled an accepted candidate")

    monkeypatch.setattr(engine, "verify_final", no_second_compile)
    outcome = apollo(suite_statement("thm_r0"), 0,
                     RepairConfig(max_depth_r=0, k_per_goal=1),
                     MockBackend(mock_suite["llm"]), suite_pool)
    assert outcome.status == PROVED
    assert [e.action for e in outcome.audit.events][-2:] == ["candidate_pass",
                                                             "proved"]
    assert outcome.ledger.repl_calls == 2  # the statement probe and the candidate


class _ErrorReplyFor:
    """A session that answers any code holding `marker` the way the REPL
    answers a command it could not run (no env), and passes the rest on."""

    def __init__(self, inner, marker):
        self.inner = inner
        self.marker = marker
        self.checks_issued = 0
        self.error_replies = 0

    def check(self, code, timeout=None):
        self.checks_issued += 1
        if self.marker in code:
            self.error_replies += 1
            return classify({"message": "Unknown environment."})
        return self.inner.check(code, timeout)


def test_error_reply_to_a_candidate_as_generated_is_never_proved(mock_suite):
    # each candidate is proved when the REPL answers it
    for name, marker, modes in [
        ("thm_r0", "exact p0_witness", {}),
        # the error reply answers the refined text, in plain mode and in full
        ("thm_refine", ":= by\n  exact p4_witness",
         {"enable_auto_solver": False, "enable_llm_reinvoker": False}),
        ("thm_refine", ":= by\n  exact p4_witness", {}),
    ]:
        inner = start_session(fake_repl_cmd(mock_suite["rules"]))
        session = _ErrorReplyFor(inner, marker)
        try:
            outcome = apollo(suite_statement(name), 0,
                             RepairConfig(max_depth_r=0, k_per_goal=1, **modes),
                             MockBackend(mock_suite["llm"]), SessionPool([session]))
        finally:
            inner.close()
        assert session.error_replies == 1, name  # the candidate, never the probe
        assert outcome.status != PROVED, (name, modes)
        assert "candidate_pass" not in [e.action for e in outcome.audit.events]


def test_item_time_limit_holds_past_the_last_generation(mock_suite, tmp_path):
    # every compile of this candidate sleeps 50 ms, so the limit passes in
    # the sorrify and auto-solver loops, after the only generation
    write_llm_fixtures(tmp_path / "llm", {
        "thm_auto": "--#fake_sleep=0.05\n" + SUITE_CANDIDATES["thm_auto"]})
    pool = SessionPool.build(
        lambda: start_session(fake_repl_cmd(mock_suite["rules"])), 1)
    try:
        with pool.lease() as session:
            before = session.checks_issued
        outcome = apollo(suite_statement("thm_auto"), 0,
                         RepairConfig(max_depth_r=0, k_per_goal=1,
                                      item_time_limit=0.1),
                         MockBackend(tmp_path / "llm"), pool)
        with pool.lease() as session:
            spent = session.checks_issued - before
    finally:
        pool.close()
    assert outcome.status == FAILED
    assert outcome.failure_reason == "budget_exhausted"
    assert [(e.module, e.action) for e in outcome.audit.events].count(
        ("orchestrator", "budget_exhausted")) == 1
    # without the limit this theorem is proved in 5 compiles
    assert 0 < outcome.ledger.repl_calls == spent < 5


def test_deadline_in_feedback_reentry_keeps_the_first_attempt(mock_suite, tmp_path):
    # the first attempt verifies partial; every compile of the retry's
    # candidate sleeps 0.3 s, so the limit passes during the retry
    write_llm_fixtures(tmp_path / "llm", {"thm_fail": SUITE_CANDIDATES["thm_fail"]})
    (tmp_path / "llm/thm_fail/001.lean").write_text(
        "--#fake_sleep=0.3\n" + SUITE_CANDIDATES["thm_fail"])
    (tmp_path / "llm/thm_fail/meta.json").write_text(
        json.dumps({"tokens": [10, 10]}))
    pool = SessionPool.build(
        lambda: start_session(fake_repl_cmd(mock_suite["rules"])), 1)
    try:
        outcome = apollo(suite_statement("thm_fail"), 0,
                         RepairConfig(max_depth_r=0, k_per_goal=1,
                                      item_time_limit=0.5),
                         MockBackend(tmp_path / "llm"), pool)
    finally:
        pool.close()
    assert outcome.status == PARTIAL_WITH_SORRIES
    assert outcome.failure_reason is None
    assert serialize(outcome.final_script) == (
        "theorem thm_fail : PF := by\n"
        "  have g1 : QF := by sorry\n"
        "  exact pf_of g1\n")
    actions = [(e.module, e.action) for e in outcome.audit.events]
    assert actions.index(("orchestrator", "feedback_reentry")) < actions.index(
        ("orchestrator", "budget_exhausted"))
    assert actions.count(("orchestrator", "budget_exhausted")) == 1


def test_every_reused_compile_equals_a_fresh_compile(mock_suite, monkeypatch):
    """A compile stands for another only where it compiled the same text:
    sorrify's first round taken from the candidate compile, and a verdict
    taken from a SorrifiedScript's compile_result.  Each is compiled again
    on a fresh session and must answer the same."""
    reused = []  # (text, result) of every compile that stood for another
    fresh_verdicts = []  # the results of verify_final's own compiles
    sorrify, frame, verify = engine.sorrify, engine._frame, engine.verify_final

    def recording_sorrify(script, session, config=None, first=None):
        if first is not None:
            reused.append((script.text, first))
        return sorrify(script, session, config, first)

    def recording_verify(*args, **kwargs):
        status, result = verify(*args, **kwargs)
        fresh_verdicts.append(result)
        return status, result

    def recording_frame(*args, **kwargs):
        out = frame(*args, **kwargs)
        if out.verify_result is not None and not any(
                out.verify_result is fresh for fresh in fresh_verdicts):
            reused.append((out.script.text, out.verify_result))
        return out

    monkeypatch.setattr(engine, "sorrify", recording_sorrify)
    monkeypatch.setattr(engine, "verify_final", recording_verify)
    monkeypatch.setattr(engine, "_frame", recording_frame)

    runs = [(FIXTURES / "rules_332.json", [(STATEMENT, MockBackend(FIXTURES / "llm_332"),
                                             RepairConfig(max_depth_r=1, k_per_goal=32))]),
            (mock_suite["rules"], [(suite_statement(name), MockBackend(mock_suite["llm"]),
                                    RepairConfig(max_depth_r=3, k_per_goal=4))
                                   for name in SUITE_ITEMS])]
    for rules, theorems in runs:
        reused.clear()
        pool = SessionPool.build(lambda: start_session(fake_repl_cmd(rules)), 1)
        try:
            for statement, backend, config in theorems:
                apollo(statement, 0, config, backend, pool)
        finally:
            pool.close()
        assert reused
        session = start_session(fake_repl_cmd(rules))
        try:
            for text, result in reused:
                again = check_script(text, session, 60.0)
                assert (again.status, again.diagnostics, again.sorries) == (
                    result.status, result.diagnostics, result.sorries), text
        finally:
            session.close()


class _Recording:
    """Passes every compile on to `inner` and keeps the code and status."""

    def __init__(self, inner):
        self.inner = inner
        self.sent = []

    @property
    def checks_issued(self):
        return self.inner.checks_issued

    def check(self, code, timeout=None):
        result = self.inner.check(code, timeout)
        self.sent.append((code, result.status))
        return result


@pytest.mark.parametrize("directive,status", [("--#fake_sleep=5", TIMEOUT),
                                              ("--#fake_crash", REPL_CRASH)])
def test_candidate_compile_without_an_answer_is_compiled_again_by_sorrify(
        directive, status, mock_suite, tmp_path):
    # the candidate compile times out or crashes; sorrify does not take it
    # for its first round, but sends the same code once more
    write_llm_fixtures(tmp_path / "llm", {
        "thm_auto": directive + "\n" + SUITE_CANDIDATES["thm_auto"]})
    session = start_session(fake_repl_cmd(mock_suite["rules"]))
    recording = _Recording(session)
    try:
        outcome = apollo(suite_statement("thm_auto"), 0,
                         RepairConfig(max_depth_r=0, k_per_goal=1, compile_timeout=0.3),
                         MockBackend(tmp_path / "llm"), SessionPool([recording]))
    finally:
        session.close()
    assert outcome.failure_reason == "all_candidates_malformed"
    (_, probed), (candidate, first), (again, second) = recording.sent
    assert (probed, first, second) == (PASS_WITH_SORRIES, status, status)
    assert again == candidate
    assert outcome.ledger.repl_calls == 3  # the probe, the candidate, sorrify


def _one_candidate(name, text, mock_suite, tmp_path, **config_kwargs):
    """apollo() at depth cap 0 on suite theorem `name`, whose one candidate
    is `text`, and the code of every compile it sent."""
    write_llm_fixtures(tmp_path / "llm", {name: text})
    session = start_session(fake_repl_cmd(mock_suite["rules"]))
    recording = _Recording(session)
    try:
        outcome = apollo(suite_statement(name), 0,
                         RepairConfig(max_depth_r=0, k_per_goal=1, **config_kwargs),
                         MockBackend(tmp_path / "llm"), SessionPool([recording]))
    finally:
        session.close()
    assert outcome.ledger.repl_calls == len(recording.sent)
    return outcome, [code for code, _ in recording.sent]


def test_a_candidate_that_does_not_parse_is_not_compiled(mock_suite, tmp_path):
    # `from by` leaves no `:= by` body, and with the refiner off nothing mends it
    outcome, sent = _one_candidate("thm_refine", SUITE_CANDIDATES["thm_refine"],
                                   mock_suite, tmp_path, enable_syntax_refiner=False)
    assert outcome.failure_reason == "all_candidates_malformed"
    assert len(sent) == 1  # the statement probe


def test_a_candidate_that_changes_the_statement_is_not_compiled(mock_suite, tmp_path):
    # Lean would pass it, but it proves P4 where the dataset states P0
    outcome, sent = _one_candidate("thm_r0", "theorem thm_r0 : P4 := by\n  exact p4_witness\n",
                                   mock_suite, tmp_path)
    assert outcome.failure_reason == "all_candidates_malformed"
    assert len(sent) == 1  # the statement probe


def test_an_empty_body_is_compiled_once_with_its_sorry(mock_suite, tmp_path):
    outcome, sent = _one_candidate("thm_fail", "theorem thm_fail : PF := by\n",
                                   mock_suite, tmp_path)
    assert outcome.status == PARTIAL_WITH_SORRIES
    # the probe; the candidate, which is also sorrify's first round; the
    # `hint` wave, the first trial wave and the precheck; the sub-lemma probe
    assert len(sent) == 6
    assert sent[1] == "theorem thm_fail : PF := by\n  sorry\n"
    assert not any(code.rstrip().endswith(":= by") for code in sent)
