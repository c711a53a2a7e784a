"""Pinned `Outcome.canonical()` documents for the worked example, the mock
suite and the ablation matrix.

`canonical()` holds the final text, the status, the audit trail and the
ledger, including `repl_calls`, so a byte-equal match pins behaviour and
compile count alike.  Each group runs on one fresh session in a fixed order.
`wire.sha256` pins the code itself: the digest of every compile's code, as
the REPL receives it, in the order sent.

After a deliberate change of behaviour, regenerate both files with
    PYTHONPATH=src:tests python tests/test_golden.py
which first prints each run whose `repl_calls` moved and names each run in
which any other field moved.
"""

import hashlib
import json
from pathlib import Path

from apollo.config import RepairConfig
from apollo.engine import apollo
from apollo.llm import MockBackend
from apollo.proofscript import TheoremStatement
from apollo.repl import Session, SessionPool, normalize_code, start_session
from conftest import (
    FIXTURES,
    HEADER_332,
    STATEMENT_332,
    SUITE_CANDIDATES,
    SUITE_ITEMS,
    SUITE_RULES,
    fake_repl_cmd,
    suite_statement,
    write_llm_fixtures,
)

GOLDEN = Path(__file__).parent / "golden" / "canonical.json"
WIRE = GOLDEN.parent / "wire.sha256"

ABLATION_ITEMS = ["thm_r0", "thm_refine", "thm_auto", "thm_r1", "thm_fail"]


def _pool(rules):
    return SessionPool.build(lambda: start_session(fake_repl_cmd(rules)), 1)


def documents(root: Path) -> dict[str, str]:
    """Label -> canonical() for all 48 runs; `root` is a scratch directory."""
    docs = {}

    pool = _pool(FIXTURES / "rules_332.json")
    try:
        config = RepairConfig(max_depth_r=1, k_per_goal=32)
        statement = TheoremStatement("mathd_algebra_332", HEADER_332, STATEMENT_332)
        docs["worked_332"] = apollo(statement, 0, config,
                                    MockBackend(FIXTURES / "llm_332"),
                                    pool).canonical()
    finally:
        pool.close()

    rules = root / "fake_rules.json"
    rules.write_text(json.dumps(SUITE_RULES, ensure_ascii=False))
    llm = root / "llm"
    write_llm_fixtures(llm, SUITE_CANDIDATES)

    def run_group(prefix, names, **config_kwargs):
        pool = _pool(rules)
        try:
            for name in names:
                config = RepairConfig(k_per_goal=4, **config_kwargs)
                docs[f"{prefix}/{name}"] = apollo(
                    suite_statement(name), 0, config, MockBackend(llm),
                    pool).canonical()
        finally:
            pool.close()

    run_group("suite_r3", SUITE_ITEMS, max_depth_r=3)
    for refiner in (False, True):
        for solver in (False, True):
            for reinvoker in (False, True):
                run_group(f"ablation_r1_{int(refiner)}{int(solver)}{int(reinvoker)}",
                          ABLATION_ITEMS, max_depth_r=1,
                          enable_syntax_refiner=refiner,
                          enable_auto_solver=solver,
                          enable_llm_reinvoker=reinvoker)
    return docs


def recorded_documents(root: Path) -> tuple[dict[str, str], list[list[str]]]:
    """`documents(root)` and the code of every compile, as the REPL receives
    it, listed per apollo() call."""
    sent: list[list[str]] = []
    check, run = Session.check, apollo

    def recording_check(self, code, *args, **kwargs):
        sent[-1].append(normalize_code(code))
        return check(self, code, *args, **kwargs)

    def recording_apollo(*args, **kwargs):
        sent.append([])
        return run(*args, **kwargs)

    Session.check = recording_check
    globals()["apollo"] = recording_apollo
    try:
        return documents(root), sent
    finally:
        Session.check = check
        globals()["apollo"] = run


def wire_digest(sent: list[list[str]]) -> str:
    """sha256 over every compiled code in order, each ended by a NUL."""
    digest = hashlib.sha256()
    for codes in sent:
        for code in codes:
            digest.update(code.encode("utf-8") + b"\0")
    return digest.hexdigest()


def changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per run whose `ledger.repl_calls` moved (old -> new), one
    per run in which any other field moved, and the total of `repl_calls`."""
    lines = []
    for label in dict.fromkeys([*old, *new]):
        if label not in old or label not in new:
            lines.append(f"{label}: {'added' if label in new else 'removed'}")
            continue
        before, after = json.loads(old[label]), json.loads(new[label])
        calls = before["ledger"].pop("repl_calls"), after["ledger"].pop("repl_calls")
        if calls[0] != calls[1]:
            lines.append(f"{label}: repl_calls {calls[0]} -> {calls[1]}")
        moved = sorted(k for k in before.keys() | after.keys()
                       if before.get(k) != after.get(k))
        if moved:
            lines.append(f"{label}: other fields moved: {', '.join(moved)}")
    totals = [sum(json.loads(doc)["ledger"]["repl_calls"] for doc in docs.values())
              for docs in (old, new)]
    lines.append(f"total repl_calls {totals[0]} -> {totals[1]}")
    return lines


def render(docs: dict[str, str]) -> str:
    return json.dumps(docs, ensure_ascii=False, indent=1) + "\n"


def test_canonical_outcomes_byte_identical(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    docs = documents(tmp_path)
    assert len(docs) == 48
    assert list(docs) == list(expected)
    for label, doc in docs.items():
        assert doc == expected[label], label
    assert render(docs) == GOLDEN.read_text(encoding="utf-8")


def test_changes_name_every_run_that_moved():
    def doc(calls, status="proved", samples=1):
        return json.dumps({"status": status, "ledger": {
            "repl_calls": calls, "samples_used": samples}})

    old = {"a": doc(5), "b": doc(3), "c": doc(2), "d": doc(1)}
    new = {"a": doc(5), "b": doc(2), "c": doc(1, status="failed", samples=2),
           "e": doc(4)}
    assert changes(old, new) == [
        "b: repl_calls 3 -> 2",
        "c: repl_calls 2 -> 1",
        "c: other fields moved: ledger, status",
        "d: removed",
        "e: added",
        "total repl_calls 11 -> 12",
    ]


def test_no_apollo_call_compiles_the_same_code_twice(tmp_path):
    """Every compile happens once, at the one place that owns it: over the
    48 runs no theorem sends the same code to the REPL twice, and the code
    sent is the pinned code."""
    docs, sent = recorded_documents(tmp_path)
    assert len(sent) == len(docs) == 48
    repeats = {label: len(codes) - len(set(codes))
               for label, codes in zip(docs, sent)}
    assert {label: n for label, n in repeats.items() if n} == {}
    assert sum(map(len, sent)) == sum(
        json.loads(doc)["ledger"]["repl_calls"] for doc in docs.values())
    assert wire_digest(sent) == WIRE.read_text(encoding="utf-8").strip()


if __name__ == "__main__":
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        docs, sent = recorded_documents(Path(scratch))
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for line in changes(old, docs):
        print(line, file=sys.stderr)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(docs), encoding="utf-8")
    WIRE.write_text(wire_digest(sent) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} and {WIRE}", file=sys.stderr)
