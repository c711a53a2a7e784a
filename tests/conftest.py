import json
import sys
from pathlib import Path

import pytest

from apollo.proofscript import TheoremStatement
from apollo.repl import SessionPool, start_session

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = Path(__file__).parent / "corpus"

HEADER_332 = (
    "import Mathlib\n"
    "set_option maxHeartbeats 400000\n"
    "open BigOperators Real Nat Topology Rat\n\n"
)
STATEMENT_332 = (
    "theorem mathd_algebra_332 (x y : ℝ) (h₀ : (x + y) / 2 = 7) "
    "(h₁ : Real.sqrt (x * y) = Real.sqrt 19) : x ^ 2 + y ^ 2 = 158 := by"
)


def fake_repl_cmd(rules=None):
    cmd = [sys.executable, "-m", "apollo.testing.fake_repl"]
    if rules is not None:
        cmd += ["--rules", str(rules)]
    return cmd


@pytest.fixture
def plain_session():
    session = start_session(fake_repl_cmd())
    yield session
    session.close()


@pytest.fixture
def session_332():
    session = start_session(fake_repl_cmd(FIXTURES / "rules_332.json"))
    yield session
    session.close()


@pytest.fixture
def pool_332():
    pool = SessionPool.build(
        lambda: start_session(fake_repl_cmd(FIXTURES / "rules_332.json")), 1)
    yield pool
    pool.close()


def corpus_scripts():
    return sorted(CORPUS.glob("*.lean"))


# --- deterministic mock suite for orchestrator-level tests -----------------
#
# Six theorems with known repair trajectories against the fake REPL:
#   thm_r0      provable by the raw candidate (base model alone)
#   thm_refine  provable once the syntax refiner fixes `from by`
#   thm_auto    provable once the auto solver closes one numeric goal
#   thm_r1/2/3  need 1/2/3 levels of sub-lemma generation
#   thm_fail    never provable (its sub-goal has no fixture and no rule)

SUITE_RULES = {
    "closes": [
        {"goal": "P0", "tactic": "exact p0_witness"},
        {"goal": "P4", "tactic": "exact p4_witness"},
        {"goal": "P1", "tactic": "exact p1_of_q1 a1", "requires": ["a1"]},
        {"goal": "Q1", "tactic": "exact q1_witness"},
        {"goal": "P2", "tactic": "exact p2_of_q2 b1", "requires": ["b1"]},
        {"goal": "Q2", "tactic": "exact q2_of_r2 c1", "requires": ["c1"]},
        {"goal": "R2", "tactic": "exact r2_witness"},
        {"goal": "P3", "tactic": "exact p3_of_q3 d1", "requires": ["d1"]},
        {"goal": "Q3", "tactic": "exact q3_of_r3 e1", "requires": ["e1"]},
        {"goal": "R3", "tactic": "exact r3_of_s3 f1", "requires": ["f1"]},
        {"goal": "S3", "tactic": "exact s3_witness"},
        {"goal": "PA", "tactic": "exact pa_of c1", "requires": ["c1"]},
        {"goal": "PF", "tactic": "exact pf_of g1", "requires": ["g1"]},
        {"goal": "PL", "tactic": "exact pl_of qa qb", "requires": ["qa", "qb"]},
        {"goal": "QA", "tactic": "exact qa_witness"},
        {"goal": "QB", "tactic": "exact qb_witness"},
    ],
    "hints": [],
}

SUITE_CANDIDATES = {
    "thm_r0": "theorem thm_r0 : P0 := by\n  exact p0_witness\n",
    "thm_refine": "theorem thm_refine : P4 from by\n  exact p4_witness\n",
    "thm_auto": (
        "theorem thm_auto : PA := by\n"
        "  have c1 : 2 + 2 = 4 := by\n"
        "    bad_arith\n"
        "  exact pa_of c1\n"
    ),
    "thm_auto_sub1": "theorem thm_auto_sub1 : 2 + 2 = 4 := by\n  norm_num\n",
    "thm_r1": (
        "theorem thm_r1 : P1 := by\n"
        "  have a1 : Q1 := by\n"
        "    bad_q1\n"
        "  exact p1_of_q1 a1\n"
    ),
    "thm_r1_sub1": "theorem thm_r1_sub1 : Q1 := by\n  exact q1_witness\n",
    "thm_r2": (
        "theorem thm_r2 : P2 := by\n"
        "  have b1 : Q2 := by\n"
        "    bad_q2\n"
        "  exact p2_of_q2 b1\n"
    ),
    "thm_r2_sub1": (
        "theorem thm_r2_sub1 : Q2 := by\n"
        "  have c1 : R2 := by\n"
        "    bad_r2\n"
        "  exact q2_of_r2 c1\n"
    ),
    "thm_r2_sub1_sub1": "theorem thm_r2_sub1_sub1 : R2 := by\n  exact r2_witness\n",
    "thm_r3": (
        "theorem thm_r3 : P3 := by\n"
        "  have d1 : Q3 := by\n"
        "    bad_q3\n"
        "  exact p3_of_q3 d1\n"
    ),
    "thm_r3_sub1": (
        "theorem thm_r3_sub1 : Q3 := by\n"
        "  have e1 : R3 := by\n"
        "    bad_r3\n"
        "  exact q3_of_r3 e1\n"
    ),
    "thm_r3_sub1_sub1": (
        "theorem thm_r3_sub1_sub1 : R3 := by\n"
        "  have f1 : S3 := by\n"
        "    bad_s3\n"
        "  exact r3_of_s3 f1\n"
    ),
    "thm_r3_sub1_sub1_sub1": (
        "theorem thm_r3_sub1_sub1_sub1 : S3 := by\n  exact s3_witness\n"
    ),
    "thm_fail": (
        "theorem thm_fail : PF := by\n"
        "  have g1 : QF := by\n"
        "    bad_qf\n"
        "  exact pf_of g1\n"
    ),
}

SUITE_ITEMS = ["thm_r0", "thm_refine", "thm_auto", "thm_r1", "thm_r2",
               "thm_r3", "thm_fail"]


def suite_statement(name):
    first = SUITE_CANDIDATES[name].split("\n")[0].replace(" from by", " := by")
    return TheoremStatement(name, "import Mathlib\n", first)


def write_llm_fixtures(root: Path, candidates: dict, copies: int = 1,
                       tokens_per_candidate: int = 10):
    for key, text in candidates.items():
        directory = root / key
        directory.mkdir(parents=True, exist_ok=True)
        for i in range(copies):
            (directory / f"{i:03d}.lean").write_text(text, encoding="utf-8")
        (directory / "meta.json").write_text(json.dumps(
            {"tokens": [tokens_per_candidate] * copies, "model_id": "mock"}))


@pytest.fixture(scope="session")
def mock_suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("mock_suite")
    rules_path = root / "fake_rules.json"
    rules_path.write_text(json.dumps(SUITE_RULES, ensure_ascii=False))
    llm_dir = root / "llm"
    write_llm_fixtures(llm_dir, SUITE_CANDIDATES)
    dataset = root / "dataset.jsonl"
    with open(dataset, "w", encoding="utf-8") as fh:
        for name in SUITE_ITEMS:
            fh.write(json.dumps({
                "name": name,
                "header": "import Mathlib\n",
                "informal_prefix": None,
                "formal_statement": SUITE_CANDIDATES[name]
                .replace(" from by", " := by")
                .split(" := by")[0] + " := by sorry",
                "split": "test",
            }, ensure_ascii=False) + "\n")
    return {"root": root, "rules": rules_path, "llm": llm_dir, "dataset": dataset}


@pytest.fixture
def suite_pool(mock_suite):
    pool = SessionPool.build(
        lambda: start_session(fake_repl_cmd(mock_suite["rules"])), 1)
    yield pool
    pool.close()
