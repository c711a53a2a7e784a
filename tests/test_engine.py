import json

import pytest

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
from apollo.repl import PASS, SessionPool, classify, start_session
from apollo.sorrifier import SorrifiedScript, check_script
from conftest import (
    FIXTURES,
    HEADER_332,
    STATEMENT_332,
    SUITE_CANDIDATES,
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
    from apollo.engine import _FrameResult
    from apollo.proofscript import SourceSpan

    parent_script = parse_script(
        "theorem t : 2 + 2 = 4 := by\n"
        "  have a : 1 + 1 = 2 := by sorry\n"
        "  have b : 3 + 3 = 6 := by sorry\n"
        "  norm_num\n")
    result = check_script(serialize(parent_script), plain_session,
                          RepairConfig().compile_timeout)
    parent = SorrifiedScript(parent_script, [], result)
    lines = serialize(parent_script).split("\n")
    spans = [
        (2, lines[1].index("sorry")),
        (3, lines[2].index("sorry")),
    ]
    sub_ok = _FrameResult(PROVED, parse_script(
        "theorem t_sub1 : 1 + 1 = 2 := by\n  norm_num\n"))
    sub_bad = _FrameResult(FAILED, None)

    both = assemble(parent, [
        (SourceSpan(2, spans[0][1], 2, spans[0][1] + 5), sub_ok),
        (SourceSpan(3, spans[1][1], 3, spans[1][1] + 5),
         _FrameResult(PROVED, parse_script(
             "theorem t_sub2 : 3 + 3 = 6 := by\n  norm_num\n"))),
    ])
    assert count_sorries(both) == 0

    partial = assemble(parent, [
        (SourceSpan(2, spans[0][1], 2, spans[0][1] + 5), sub_ok),
        (SourceSpan(3, spans[1][1], 3, spans[1][1] + 5), sub_bad),
    ])
    assert count_sorries(partial) == 1
    assert "have b : 3 + 3 = 6 := by sorry" in serialize(partial)


def test_proof_length_examples(pool_332):
    assert proof_length(parse_script("theorem t : 1 = 1 := by rfl")) == 1
    assert proof_length(parse_script("theorem t : 1 = 1 := by\n  sorry")) == 1
    assert proof_length(parse_script("theorem t : 1 = 1 := by")) == 1

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
