import json
import logging

from apollo.cli import load_dataset, run
from apollo.config import RepairConfig
from apollo.engine import FAILED, PROVED
from apollo.llm import MockBackend


class _RaisesFor:
    """A backend that raises a non-package error for one statement."""

    def __init__(self, inner, name):
        self.inner = inner
        self.name = name

    def generate(self, request):
        if request.statement.name == self.name:
            raise RuntimeError("backend blew up")
        return self.inner.generate(request)


def test_unexpected_error_fails_one_item_and_batch_goes_on(
        mock_suite, suite_pool, tmp_path, caplog):
    by_name = {item.name: item for item in load_dataset(mock_suite["dataset"])}
    items = [by_name["thm_refine"], by_name["thm_r0"]]
    backend = _RaisesFor(MockBackend(mock_suite["llm"]), "thm_refine")
    out = tmp_path / "results.jsonl"
    with caplog.at_level(logging.ERROR, logger="apollo"):
        report = run(items, RepairConfig(max_depth_r=1, k_per_goal=4),
                     backend, suite_pool, out)

    first, second = report.records
    assert first["name"] == "thm_refine" and first["status"] == FAILED
    assert "backend blew up" in first["failure_reason"]
    assert first["compiles"] == 1  # the statement probe
    assert second["name"] == "thm_r0" and second["status"] == PROVED
    written = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["name"] for r in written] == ["thm_refine", "thm_r0"]
    logged = [r for r in caplog.records if "thm_refine" in r.getMessage()]
    assert logged and logged[0].exc_info is not None  # with its traceback


def test_compiles_are_recorded_and_reported_next_to_other_budgets(
        mock_suite, suite_pool, tmp_path):
    by_name = {item.name: item for item in load_dataset(mock_suite["dataset"])}
    out = tmp_path / "results.jsonl"
    # a record written before compiles were counted, skipped on resume
    out.write_text(json.dumps({
        "name": "thm_refine", "status": PROVED, "samples": 4, "tokens": 40,
        "proof_length": 1, "wall_time": 0.1, "audit_path": None,
        "assisted": True, "module_triggers": {}, "failure_reason": None}) + "\n")
    report = run([by_name["thm_refine"], by_name["thm_r0"]],
                 RepairConfig(max_depth_r=1, k_per_goal=4),
                 MockBackend(mock_suite["llm"]), suite_pool, out, resume=True)

    old, new = report.records
    assert "compiles" not in old
    assert new["compiles"] == 2  # the statement probe and the candidate
    written = json.loads(out.read_text().splitlines()[-1])
    assert written["name"] == "thm_r0" and written["compiles"] == 2
    agg = report.aggregates()
    assert (agg["avg_compiles"], agg["max_compiles"]) == (2, 2)
    assert agg["avg_samples"] == 2.5  # the other budgets still count both
    rendered = report.render()
    assert "compile budget" in rendered.splitlines()[0]
    assert "max compile budget: 2" in rendered
