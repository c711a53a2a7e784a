import gc
import json
import sys
import threading
import time
import warnings

import pytest

from apollo.errors import HeaderFailed, MalformedResponse, SpawnFailed
from apollo.repl import (
    FAIL,
    PASS,
    PASS_WITH_SORRIES,
    REPL_CRASH,
    TIMEOUT,
    TIMEOUT_GRACE,
    SessionPool,
    classify,
    normalize_code,
    start_session,
)
from conftest import fake_repl_cmd


def test_simple_pass(plain_session):
    result = plain_session.check("theorem t : 1 = 1 := by rfl")
    assert result.status == PASS
    assert result.env_id is not None
    assert result.diagnostics == [] and result.sorries == []


def test_sorry_body_reports_goal(plain_session):
    result = plain_session.check("theorem t : 1 = 1 := by\n  sorry")
    assert result.status == PASS_WITH_SORRIES
    assert len(result.sorries) == 1
    info = result.sorries[0]
    assert info.goal.endswith("⊢ 1 = 1")
    assert info.pos.line == 2 and info.pos.column == 2
    assert info.end_pos.column == 7


def test_unknown_tactic_fails_with_position(plain_session):
    result = plain_session.check("theorem t : 1 = 1 := by\n  foo_bar")
    assert result.status == FAIL
    err = result.errors[0]
    assert "unknown" in err.message
    assert err.pos.line == 2


def test_proved_theorem_visible_only_in_its_own_command(plain_session):
    helper = "theorem helper : 2 + 2 = 4 := by norm_num\n"
    user = "theorem t : 2 + 2 = 4 := by exact helper\n"
    assert plain_session.check(helper).status == PASS
    assert plain_session.check(user).status == FAIL
    assert plain_session.check(helper + user).status == PASS


def test_unknown_import_header():
    with pytest.raises(HeaderFailed) as excinfo:
        start_session(fake_repl_cmd(), import_header="import NoSuchModule")
    assert "unknown module" in str(excinfo.value)


def test_spawn_failure():
    with pytest.raises(SpawnFailed):
        start_session("/nonexistent/lean-repl-binary")


def test_classify_pass():
    result = classify({"env": 3, "messages": [], "sorries": []})
    assert result.status == PASS and result.env_id == 3


def test_classify_sorry_warning_and_entry():
    raw = {
        "env": 1,
        "messages": [{
            "severity": "warning",
            "pos": {"line": 1, "column": 0},
            "endPos": None,
            "data": "declaration uses 'sorry'",
        }],
        "sorries": [{
            "pos": {"line": 2, "column": 2},
            "endPos": {"line": 2, "column": 7},
            "goal": "⊢ True",
            "proofState": 4,
        }],
    }
    result = classify(raw)
    assert result.status == PASS_WITH_SORRIES
    assert result.sorries[0].proof_state_id == 4


def test_classify_error_beats_sorries():
    raw = {
        "env": 1,
        "messages": [{
            "severity": "error",
            "pos": {"line": 1, "column": 0},
            "endPos": None,
            "data": "boom",
        }],
        "sorries": [{
            "pos": {"line": 2, "column": 2},
            "endPos": {"line": 2, "column": 7},
            "goal": "⊢ True",
            "proofState": 1,
        }],
    }
    assert classify(raw).status == FAIL


def test_classify_malformed():
    with pytest.raises(MalformedResponse):
        classify({"messages": [{"severity": "error"}]})
    with pytest.raises(MalformedResponse):
        classify("not a dict")


def test_classify_error_reply_is_fail():
    result = classify({"message": "Unknown environment."})
    assert result.status == FAIL
    assert [d.message for d in result.errors] == ["Unknown environment."]
    assert result.env_id is None
    empty = classify({})
    assert empty.status == FAIL and len(empty.errors) == 1


def test_classify_idempotent_over_transcript(plain_session):
    codes = ["theorem t : 1 = 1 := by rfl",
             "theorem t : 1 = 1 := by\n  sorry",
             "theorem t : 1 = 1 := by\n  nope_tac"]
    for code in codes:
        live = plain_session.check(code)
        first = classify(live.raw)
        second = classify(live.raw)
        assert first.status == second.status == live.status
        assert first.diagnostics == second.diagnostics == live.diagnostics


def test_timeout_contract_and_recovery():
    session = start_session(fake_repl_cmd())
    try:
        started = time.monotonic()
        result = session.check("--#fake_sleep=10\ntheorem t : 1 = 1 := by rfl",
                               timeout=0.5)
        elapsed = time.monotonic() - started
        assert result.status == TIMEOUT
        assert elapsed < 0.5 + TIMEOUT_GRACE
        again = session.check("theorem t : 1 = 1 := by rfl")
        assert again.status == PASS
    finally:
        session.close()


def test_crash_is_retried_then_surfaced_and_recovered():
    session = start_session(fake_repl_cmd())
    try:
        result = session.check("--#fake_crash\ntheorem t : 1 = 1 := by rfl")
        assert result.status == REPL_CRASH
        again = session.check("theorem t : 1 = 1 := by rfl")
        assert again.status == PASS
    finally:
        session.close()


def test_killed_repl_leaves_no_unclosed_pipes():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        session = start_session(fake_repl_cmd())
        timed_out = session.check("--#fake_sleep=10\ntheorem t : 1 = 1 := by rfl",
                                  timeout=0.2)
        assert timed_out.status == TIMEOUT
        assert session.check("theorem t : 1 = 1 := by rfl").status == PASS
        session.close()
        del session
        gc.collect()
    unclosed = [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)]
    assert unclosed == []


def test_one_in_flight_request_per_session(plain_session):
    outcomes = []

    def worker():
        outcomes.append(plain_session.check(
            "--#fake_sleep=0.2\ntheorem t : 1 = 1 := by rfl", timeout=5))

    threads = [threading.Thread(target=worker) for _ in range(3)]
    started = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - started
    assert all(r.status == PASS for r in outcomes)
    assert elapsed >= 0.6  # serialized, not interleaved


# answers every request with a line that is not JSON
NOT_JSON_REPL = [sys.executable, "-c", (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    if not line.strip():\n"
    "        sys.stdout.write('not json\\n\\n')\n"
    "        sys.stdout.flush()\n"
)]


def test_undecodable_reply_is_repl_crash():
    session = start_session(NOT_JSON_REPL, import_header="")
    try:
        result = session.check("theorem t : 1 = 1 := by rfl", timeout=10)
        assert result.status == REPL_CRASH
    finally:
        session.close()


def test_repl_dying_while_priming_is_spawn_failure():
    with pytest.raises(SpawnFailed) as excinfo:
        start_session(["false"])
    assert "repl_crash" in str(excinfo.value)
    assert "false" in str(excinfo.value)


def test_normalize_code_trims_trailing_whitespace():
    assert normalize_code("a  \nb\t\n\n\n") == "a\nb"


def test_session_pool_exclusive_leases():
    pool = SessionPool.build(lambda: start_session(fake_repl_cmd()), 2)
    try:
        seen = set()
        with pool.lease() as first:
            seen.add(id(first))
            with pool.lease() as second:
                seen.add(id(second))
        assert len(seen) == 2
        with pool.lease() as again:
            assert id(again) in seen
    finally:
        pool.close()
