"""The benchmark wraps and calls program names by string; a rename or
deletion there would only show when `bench/run.py` runs.  These checks read
the benchmark's own tables and fail as soon as one of its names is gone,
and one traced run checks that its hooks still count what they name."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from conftest import FIXTURES, HEADER_332, STATEMENT_332

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module,name", [(m, n) for m, n, _, _ in tracing.BOUND_CALLS])
def test_bound_calls_resolve(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module,cls,method", [(m, c, f) for m, c, f, _ in tracing.METHODS])
def test_methods_resolve(module, cls, method):
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))


@pytest.mark.parametrize("name", tracing.SHARED)
def test_shared_proofscript_helpers_resolve(name):
    assert callable(getattr(importlib.import_module("apollo.proofscript"), name))


def test_run_py_bindings_resolve():
    from apollo import cli, repl
    from apollo.config import RepairConfig
    from apollo.llm import MockBackend
    from apollo.testing.fake_repl import FakeRepl, RuleTable

    assert callable(repl.normalize_code)
    assert callable(cli.apollo) and callable(cli.run) and callable(cli.load_dataset)
    assert callable(repl.SessionPool.build) and callable(repl.start_session)
    assert callable(repl.Session.check)
    inspect.signature(MockBackend).bind("fixture_dir")
    inspect.signature(RepairConfig).bind(max_depth_r=1, k_per_goal=4)
    assert callable(FakeRepl) and callable(RuleTable.load)


def test_traced_worked_example_counts(pool_332, tmp_path):
    from apollo import cli
    from apollo.config import RepairConfig
    from apollo.llm import MockBackend
    from apollo.proofscript import TheoremStatement

    statement = TheoremStatement("mathd_algebra_332", HEADER_332, STATEMENT_332)
    tracer = tracing.Tracer(tmp_path / "trace.jsonl")
    with pool_332.lease() as session:
        before = session.checks_issued
    tracer.install()
    try:
        outcome = cli.apollo(statement, 0, RepairConfig(max_depth_r=1, k_per_goal=32),
                             MockBackend(FIXTURES / "llm_332"), pool_332)
    finally:
        tracer.uninstall()
    with pool_332.lease() as session:
        compiles = session.checks_issued - before

    assert outcome.status == "proved" and outcome.ledger.repl_calls == compiles
    metrics = tracer.metrics()
    assert sum(v for k, v in metrics.items() if k.startswith("repl.compiles.")) == compiles
    assert metrics["autosolver.sites"] == metrics["repl.compiles.hint"]
    # one `hint` wave answers all six sites; the first trial wave, the
    # precheck, which drops the two sites that nothing closes and names the
    # winners of the other three, and the check of the committed text
    assert metrics["repl.compiles.hint"] == 1
    assert metrics["repl.compiles.suite"] == 3
    assert metrics["goals.splices"] == 2
    assert metrics["sorrifier.repairs"] == 6
