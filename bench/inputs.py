"""Benchmark inputs: the worked example, the mock suite and the seeded
broken-haves generator.

Every input is built from files under `bench/data/` or from the seed, never
from `tests/`, so an edit to the test suite cannot change what is measured.
`prepare` writes one workload's dataset JSONL, LLM fixture directory and fake
REPL rule table into a work directory and returns their paths.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import checks

DATA = Path(__file__).resolve().parent / "data"

SUITE_PROVED = ("thm_r0", "thm_refine", "thm_auto", "thm_r1", "thm_r2", "thm_r3")
SUITE_UNPROVED = ("thm_fail",)

# broken_haves: theorems per cli.run pass and broken `have` blocks per theorem
BH_THEOREMS = 8
BH_HAVES = 60

# Tactics that real Lean rejects on a closed arithmetic goal: unknown tactic
# names and a reference to a hypothesis that does not exist.
_BROKEN_TACTICS = ("arith_step", "compute_closed", "exact h_missing",
                   "norm_arith_fast")
_RELATIONS = ("=", "≤", "<")


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: Path
    llm_dir: Path
    rules: Path
    max_depth_r: int
    k_per_goal: int
    # names the design says must end proved, and must not
    expect_proved: tuple[str, ...]
    expect_unproved: tuple[str, ...]
    # name -> every `have` claim the proof must keep (broken_haves only)
    claims: dict


def _record(name: str, header: str, statement: str) -> dict:
    return {"name": name, "header": header, "informal_prefix": None,
            "formal_statement": statement + " sorry", "split": "bench"}


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _write_fixture(llm_dir: Path, name: str, text: str, tokens: int) -> None:
    directory = llm_dir / name
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "000.lean").write_text(text, encoding="utf-8")
    (directory / "meta.json").write_text(
        json.dumps({"tokens": [tokens], "model_id": "mock"}), encoding="utf-8")


def _worked_332(work: Path, seed: int) -> Workload:
    # one fixed fixture: the seed does not change this input
    src = DATA / "worked_332"
    shutil.copytree(src / "llm", work / "llm")
    shutil.copy(src / "rules.json", work / "rules.json")
    shutil.copy(src / "dataset.jsonl", work / "dataset.jsonl")
    return Workload("worked_332", work / "dataset.jsonl", work / "llm",
                    work / "rules.json", max_depth_r=1, k_per_goal=32,
                    expect_proved=("mathd_algebra_332",),
                    expect_unproved=(), claims={})


def _suite_mix(work: Path, seed: int) -> Workload:
    src = DATA / "suite_mix"
    doc = json.loads((src / "candidates.json").read_text(encoding="utf-8"))
    shutil.copy(src / "rules.json", work / "rules.json")
    for name, text in doc["candidates"].items():
        _write_fixture(work / "llm", name, text, doc["tokens_per_candidate"])
    items = list(doc["items"])
    random.Random(seed).shuffle(items)  # the seed sets the pass order
    records = []
    for name in items:
        first = doc["candidates"][name].split("\n")[0]
        statement = first.replace(" from by", " := by")
        records.append(_record(name, "import Mathlib\n", statement))
    _write_jsonl(work / "dataset.jsonl", records)
    return Workload("suite_mix", work / "dataset.jsonl", work / "llm",
                    work / "rules.json", max_depth_r=3, k_per_goal=4,
                    expect_proved=SUITE_PROVED,
                    expect_unproved=SUITE_UNPROVED, claims={})


def arithmetic_claim(rng: random.Random) -> str:
    """One true closed claim over natural numbers, such as `37 * 12 + 5 = 449`."""
    a, b, c = rng.randint(2, 99), rng.randint(2, 99), rng.randint(2, 99)
    shape = rng.randrange(3)
    if shape == 0:
        expr, value = f"{a} * {b} + {c}", a * b + c
    elif shape == 1:
        expr, value = f"{a} + {b} * {c}", a + b * c
    else:
        expr, value = f"({a} + {b}) * {c}", (a + b) * c
    relation = rng.choice(_RELATIONS)
    if relation == "≤":
        value += rng.randint(0, 9)
    elif relation == "<":
        value += rng.randint(1, 9)
    return f"{expr} {relation} {value}"


def broken_haves_theorem(rng: random.Random, name: str) -> tuple[str, str, list[str]]:
    """(statement, candidate proof, have claims) for one generated theorem:
    BH_HAVES independent `have` blocks, each with a true claim and a body that
    does not prove it, then `norm_num` on a true closed goal."""
    statement = f"theorem {name} : {arithmetic_claim(rng)} := by"
    lines = [statement]
    claims = []
    for i in range(1, BH_HAVES + 1):
        claim = arithmetic_claim(rng)
        # an input check: the claim the proof must keep is true, by integer
        # arithmetic made apart from the generator's own
        if not checks.claim_holds(claim):
            raise ValueError(f"generated a false claim: {claim}")
        claims.append(claim)
        lines.append(f"  have h{i} : {claim} := by")
        lines.append(f"    {rng.choice(_BROKEN_TACTICS)}")
    lines.append("  norm_num")
    return statement, "\n".join(lines) + "\n", claims


def _broken_haves(work: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    (work / "rules.json").write_text('{"closes": [], "hints": []}\n',
                                     encoding="utf-8")
    records, claims = [], {}
    for t in range(BH_THEOREMS):
        name = f"bh_{seed}_{t}"
        statement, proof, have_claims = broken_haves_theorem(rng, name)
        _write_fixture(work / "llm", name, "import Mathlib\n\n" + proof,
                       len(proof.split()))
        records.append(_record(name, "import Mathlib\n", statement))
        claims[name] = have_claims
    _write_jsonl(work / "dataset.jsonl", records)
    return Workload("broken_haves", work / "dataset.jsonl", work / "llm",
                    work / "rules.json", max_depth_r=1, k_per_goal=1,
                    expect_proved=tuple(r["name"] for r in records),
                    expect_unproved=(), claims=claims)


WORKLOADS = {
    "worked_332": _worked_332,
    "suite_mix": _suite_mix,
    "broken_haves": _broken_haves,
}


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Write workload `name` for `seed` into the new directory `work`."""
    work.mkdir(parents=True)
    return WORKLOADS[name](work, seed)
