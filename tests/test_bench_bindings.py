"""The benchmark wraps and calls program names by string; a rename or
deletion there would only show when `bench/run.py` runs.  These checks read
the benchmark's own tables and fail as soon as one of its names is gone."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
