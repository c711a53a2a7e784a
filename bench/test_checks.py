"""Each output check rejects a planted bad result and accepts a good one.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

SUITE_R1 = ("theorem thm_r1 : P1 := by\n"
            "  have a1 : Q1 := by\n"
            "    exact q1_witness\n"
            "  exact p1_of_q1 a1\n")


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    workload = inputs.prepare("suite_mix", 1, tmp_path_factory.mktemp("s") / "in")
    return workload, checks.dataset_statements(workload.dataset)


@pytest.fixture(scope="module")
def broken(tmp_path_factory):
    workload = inputs.prepare("broken_haves", 5, tmp_path_factory.mktemp("b") / "in")
    return workload, checks.dataset_statements(workload.dataset)


def problems(workload_and_statements, name, status, text):
    workload, statements = workload_and_statements
    return checks.outcome_problems(workload, statements, name, status, text)


def test_good_suite_proof_passes(suite):
    assert problems(suite, "thm_r1", "proved", SUITE_R1) == []


def test_changed_statement_is_rejected(suite):
    text = SUITE_R1.replace("thm_r1 : P1", "thm_r1 : Q1")
    assert any("statement" in p for p in problems(suite, "thm_r1", "proved", text))


def test_sorry_outside_comments_is_rejected(suite):
    text = SUITE_R1.replace("exact q1_witness", "sorry")
    found = problems(suite, "thm_r1", "proved", text)
    assert any("contains sorry" in p for p in found)
    assert any("sorry" in p for p in found if p.startswith("compiler"))


def test_sorry_in_comments_and_strings_is_ignored():
    text = ('theorem t : P := by\n  -- sorry\n  /- admit /- sorry -/ -/\n'
            '  exact "sorry"\n  exact sorry_free\n')
    assert checks.sorry_tokens(text) == []
    assert checks.sorry_tokens(text + "  admit\n") == ["admit"]


def test_proof_that_needs_a_leaked_declaration_is_rejected(suite):
    # `exact thm_r1_sub1` passes only on a REPL that proved thm_r1_sub1 before
    text = SUITE_R1.replace("exact q1_witness", "exact thm_r1_sub1")
    assert any("compile error" in p for p in problems(suite, "thm_r1", "proved", text))


def test_verdicts_follow_the_suite_design(suite):
    assert problems(suite, "thm_r1", "partial_with_sorries", SUITE_R1)
    assert problems(suite, "thm_fail", "proved", SUITE_R1)
    assert problems(suite, "thm_fail", "partial_with_sorries", None) == []
    assert problems(suite, "thm_unknown", "proved", SUITE_R1)


def broken_haves_proof(broken, name):
    """The proof the pipeline should end with: every body closed by norm_num."""
    workload, statements = broken
    lines = [statements[name]]
    for i, claim in enumerate(workload.claims[name], start=1):
        lines.append(f"  have h{i} : {claim} := by norm_num")
    lines.append("  norm_num")
    return "\n".join(lines) + "\n"


def test_good_broken_haves_proof_passes(broken):
    name = broken[0].expect_proved[0]
    assert problems(broken, name, "proved", broken_haves_proof(broken, name)) == []


def test_dropped_have_is_rejected(broken):
    name = broken[0].expect_proved[0]
    text = broken_haves_proof(broken, name)
    dropped = "\n".join(ln for ln in text.split("\n") if "have h7 :" not in ln)
    assert "have h7 lost its statement" in problems(broken, name, "proved", dropped)


def test_generator_rejects_a_false_claim(monkeypatch):
    monkeypatch.setattr(inputs, "arithmetic_claim", lambda rng: "2 * 3 + 4 = 11")
    with pytest.raises(ValueError, match="false claim"):
        inputs.broken_haves_theorem(random.Random(1), "t")


def test_claims_are_evaluated_with_integers():
    assert checks.claim_holds("(3 + 4) * 5 = 35")
    assert checks.claim_holds("3 + 4 * 5 < 24")
    assert not checks.claim_holds("3 * 4 + 5 ≤ 16")
    with pytest.raises(ValueError):
        checks.claim_holds("2 ^ 3 = 8")


def test_changed_canonical_is_rejected():
    repetitions = checks.Repetitions()
    assert repetitions.same("thm_r1", '{"status": "proved"}')
    assert repetitions.same("thm_r1", '{"status": "proved"}')
    assert not repetitions.same("thm_r1", '{"status": "failed"}')


def test_generator_is_seeded():
    def theorem(seed):
        return inputs.broken_haves_theorem(random.Random(seed), "t")

    assert theorem(3) == theorem(3)
    assert theorem(3) != theorem(4)
    statement, proof, claims = theorem(3)
    assert len(claims) == inputs.BH_HAVES == proof.count("  have h")
    assert all(checks.claim_holds(c) for c in claims)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
