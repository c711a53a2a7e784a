"""Repair benchmark: Apollo against the fake Lean REPL.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One workload runs in repeated `cli.run` passes over its dataset, with one
session (one fake REPL child) and parallelism 1, until `--seconds` have passed
and at least MIN_THEOREMS theorems are done; a pass always finishes.  The
harness and its REPL child are pinned to one CPU: the protocol is strictly
request/response, so they never run at once.

With --trace 0 the last stdout line is the end-to-end result; with --trace 1
untraced and traced passes alternate and it carries the per-layer figures of
the traced passes (see tracing.py).  Every theorem's result is checked by
checks.py; an attempt fails when `apollo` raises or a check rejects it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUPS = 9  # set-ups per run; setup_s is their median
MIN_THEOREMS = 40  # the tail percentile needs 10 samples beyond it
TAIL_BEYOND = 10
MAX_MEASURE_S = 100.0  # stop starting passes after this, whatever the count

END_TO_END = {
    "compiles_per_theorem": "count",
    "compiled_kb_per_theorem": "KB",
    "samples_per_theorem": "count",
    "tokens_per_theorem": "count",
    "theorems_per_s": "1/s",
    "theorem_s_p50": "s",
    "theorem_s_tail": "s",
    "python_cpu_s_per_theorem": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    **{f"repl.compiles.{p}": "count" for p in
       ("validate", "candidate", "sorrify", "hint", "suite", "extract", "verify")},
    "repl.repeat_compiles": "count",
    "repl.wait_s": "s",
    "repl.compile_ms_p50": "ms",
    "autosolver.sites": "count",
    "autosolver.closed": "count",
    "autosolver.trials_per_close": "count",
    "autosolver.self_s": "s",
    "sorrifier.repairs": "count",
    "sorrifier.self_s": "s",
    "proofscript.parse_calls": "count",
    "proofscript.parse_s": "s",
    "proofscript.mask_calls": "count",
    "proofscript.mask_kb": "KB",
    "proofscript.mask_s": "s",
    "proofscript.serialize_calls": "count",
    "goals.sub_lemmas": "count",
    "goals.splices": "count",
    "refiner.calls": "count",
    "refiner.rewrites": "count",
    "refiner.s": "s",
    "llm.generate_calls": "count",
    "llm.generate_s": "s",
    "engine.self_s": "s",
    "cli.load_s": "s",
    "cli.item_overhead_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Tally:
    """What a set of passes measured."""
    passes: int = 0
    theorems: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    item_s: dict = field(default_factory=dict)  # theorem name -> item times
    compiles: int = 0
    compiled_bytes: int = 0
    samples: int = 0
    tokens: int = 0


def tail_beyond(n: int) -> int:
    """Item times beyond the tail percentile: TAIL_BEYOND, or a quarter of
    them in a run cut short by MAX_MEASURE_S, which then reports the p75."""
    return min(TAIL_BEYOND, n // 4)


class Meter:
    """The two hooks that stay on in every pass: compiles and bytes at
    `Session.check`, and the wall time and outcome of each `apollo` call as
    `cli.run` bound it."""

    def __init__(self, cli_module, session_cls):
        self.compiles = 0
        self.compiled_bytes = 0
        self.pending: list[tuple] = []  # (name, outcome or exception, s)
        self._cli = cli_module
        self._session_cls = session_cls
        self._originals = (cli_module.apollo, session_cls.check)

    def install(self):
        apollo, check = self._originals
        clock = time.perf_counter

        def timed_apollo(statement, *args, **kwargs):
            started = clock()
            try:
                outcome = apollo(statement, *args, **kwargs)
            except Exception as exc:
                self.pending.append((statement.name, exc, clock() - started))
                raise
            self.pending.append((statement.name, outcome, clock() - started))
            return outcome

        def counted_check(session, code, *args, **kwargs):
            self.compiles += 1
            self.compiled_bytes += len(code.encode("utf-8"))
            return check(session, code, *args, **kwargs)

        self._cli.apollo = timed_apollo
        self._session_cls.check = counted_check

    def uninstall(self):
        self._cli.apollo, self._session_cls.check = self._originals


def pin_to_one_cpu() -> int | None:
    """Pin this process, and the REPL children it will start, to one CPU."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


class Bench:
    def __init__(self, args, work: Path):
        from apollo import cli
        from apollo.config import RepairConfig
        from apollo.llm import MockBackend
        from apollo.repl import Session, SessionPool, start_session

        self.cli = cli
        self.MockBackend = MockBackend
        self.SessionPool = SessionPool
        self.start_session = start_session
        self.args = args
        self.workload = inputs.prepare(args.workload, args.seed, work / "in")
        self.statements = checks.dataset_statements(self.workload.dataset)
        self.config = RepairConfig(max_depth_r=self.workload.max_depth_r,
                                   k_per_goal=self.workload.k_per_goal)
        self.out = work / "out" / "results.jsonl"
        self.meter = Meter(cli, Session)
        self.pool = None
        self.items = None
        self.setup_s: list[float] = []
        self.load_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self._repetitions = checks.Repetitions()
        self._passed: dict[str, bool] = {}

    # -- set-up: start and prime the session pool, load the dataset --

    def setup(self):
        command = [sys.executable, "-m", "apollo.testing.fake_repl",
                   "--rules", str(self.workload.rules)]
        for _ in range(SETUPS):
            if self.pool is not None:
                self.pool.close()
                self.pool = None
            started = time.perf_counter()
            self.pool = self.SessionPool.build(
                lambda: self.start_session(command), 1)
            loading = time.perf_counter()
            self.items = self.cli.load_dataset(self.workload.dataset)
            done = time.perf_counter()
            self.setup_s.append(done - started)
            self.load_s.append(done - loading)

    def close(self):
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    # -- one cli.run pass, then its checks outside the timed region --

    def one_pass(self, tally: Tally, tracer: Tracer | None = None):
        meter = self.meter
        run = self.cli.run if tracer is None else tracer.wrap_run(self.cli.run)
        backend = self.MockBackend(self.workload.llm_dir)
        compiles, compiled_bytes = meter.compiles, meter.compiled_bytes
        cpu_started = time.process_time()
        started = time.perf_counter()
        try:
            run(self.items, self.config, backend, self.pool, self.out,
                parallelism=1)
        except Exception as exc:  # the batch aborted: its missing items fail
            self.problems.append(f"cli.run aborted: {exc!r}")
        tally.wall_s += time.perf_counter() - started
        tally.cpu_s += time.process_time() - cpu_started
        tally.passes += 1
        tally.compiles += meter.compiles - compiles
        tally.compiled_bytes += meter.compiled_bytes - compiled_bytes
        self._settle(tally)

    def _settle(self, tally: Tally):
        pending, self.meter.pending = self.meter.pending, []
        self.attempted += len(self.items)
        self.failed += len(self.items) - len(pending)
        for name, outcome, seconds in pending:
            tally.theorems += 1
            tally.item_s.setdefault(name, []).append(seconds)
            if isinstance(outcome, Exception):
                self.failed += 1
                self.problems.append(f"{name}: apollo raised {outcome!r}")
                continue
            tally.samples += outcome.ledger.samples_used
            tally.tokens += outcome.ledger.tokens_generated
            if self._rejects(name, outcome):
                self.failed += 1
                self.correct = False

    def _rejects(self, name: str, outcome) -> bool:
        canonical = outcome.canonical()
        if not self._repetitions.same(name, canonical):
            self.problems.append(f"{name}: canonical() differs between repetitions")
            return True
        if name not in self._passed:  # identical canonical, identical verdict
            final = json.loads(canonical)["final_text"]
            problems = checks.outcome_problems(self.workload, self.statements,
                                               name, outcome.status, final)
            self.problems += problems
            self._passed[name] = not problems
        return not self._passed[name]

    # -- runs --

    def measure(self) -> Tally:
        tally = Tally()
        self.meter.install()
        try:
            started = time.perf_counter()
            while True:
                self.one_pass(tally)
                elapsed = time.perf_counter() - started
                if elapsed >= MAX_MEASURE_S or (
                        elapsed >= self.args.seconds
                        and tally.theorems >= MIN_THEOREMS):
                    break
        finally:
            self.meter.uninstall()
        if tally.theorems == 0:
            raise RuntimeError("no theorem attempt returned")
        return tally

    def measure_traced(self, trace_path: Path) -> tuple[Tally, Tally, Tracer]:
        trace_path.parent.mkdir(exist_ok=True)
        plain, traced, tracer = Tally(), Tally(), Tracer(trace_path)
        self.meter.install()
        try:
            started = time.perf_counter()
            while True:
                self.one_pass(plain)
                tracer.install()
                try:
                    self.one_pass(traced, tracer)
                finally:
                    tracer.uninstall()
                tracer.flush()
                elapsed = time.perf_counter() - started
                if elapsed >= min(self.args.seconds, MAX_MEASURE_S):
                    break
        finally:
            self.meter.uninstall()
        return plain, traced, tracer

    # -- figures --

    def end_to_end(self, tally: Tally) -> dict[str, float]:
        n = tally.theorems
        times = sorted(t for ts in tally.item_s.values() for t in ts)
        return {
            "compiles_per_theorem": tally.compiles / n,
            "compiled_kb_per_theorem": tally.compiled_bytes / 1024 / n,
            "samples_per_theorem": tally.samples / n,
            "tokens_per_theorem": tally.tokens / n,
            "theorems_per_s": n / tally.wall_s,
            # The median over distinct theorems of each theorem's median time;
            # on a one-theorem workload, the median of all item times.  On a
            # mixed workload the median of all item times falls inside the
            # cluster of one theorem, at a quantile that moves with the host.
            "theorem_s_p50": statistics.median(
                statistics.median(ts) for ts in tally.item_s.values()),
            "theorem_s_tail": times[-(tail_beyond(n) + 1)],
            "python_cpu_s_per_theorem": tally.cpu_s / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(self.setup_s),
        }

    def per_layer(self, plain: Tally, traced: Tally, tracer: Tracer) -> dict[str, float]:
        figures = tracer.metrics()
        figures["cli.load_s"] = statistics.median(self.load_s) / len(self.items)
        figures["cli.item_overhead_s"] = (
            (plain.wall_s - sum(map(sum, plain.item_s.values()))) / plain.theorems)
        figures["trace.overhead_s"] = (traced.wall_s / traced.theorems
                                       - plain.wall_s / plain.theorems)
        return figures


def _report(metrics: dict[str, float], units: dict[str, str]) -> dict:
    for name, unit in units.items():
        print(f"  {name:<32}{metrics[name]:>14.6g} {unit}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, work: Path) -> dict:
    bench = Bench(args, work)
    try:
        bench.setup()
        if args.trace:
            trace_path = BENCH / "_out" / f"trace-{args.workload}-{args.seed}.jsonl"
            plain, traced, tracer = bench.measure_traced(trace_path)
            units = PER_LAYER
            figures = bench.per_layer(plain, traced, tracer)
            other = tracer.compiles.get("other", 0)
            print(f"traced {traced.theorems} theorems in {traced.passes} passes, "
                  f"untraced {plain.theorems} in {plain.passes}; compiles "
                  f"with no purpose: {other}; spans in {trace_path.relative_to(ROOT)}")
            print("compiles by theorem: " + ", ".join(
                f"{name} {n}" for name, n in tracer.compiles_by_theorem.items()))
        else:
            tally, units = bench.measure(), END_TO_END
            figures = bench.end_to_end(tally)
            n = tally.theorems
            beyond = tail_beyond(n)
            print(f"{n} theorems in {tally.passes} passes, {tally.wall_s:.2f} s "
                  f"timed; tail is the p{100 - 100 * beyond / n:.1f} of {n} "
                  f"item times; setup_s is the median of {SETUPS} set-ups")
            if n < MIN_THEOREMS:
                print(f"warning: only {n} theorems when {MAX_MEASURE_S:.0f} s had passed, "
                      f"so the tail has {beyond} item times beyond it, not "
                      f"{TAIL_BEYOND}")
    finally:
        bench.close()
    print(f"workload {args.workload} seed {args.seed}: "
          f"attempted {bench.attempted}, failed {bench.failed}")
    metrics = _report(figures, units)
    for problem in bench.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    return {"correct": bench.correct, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "apollo" / "__init__.py").is_file():
        print(f"bench: no apollo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the fake REPL child imports apollo too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    cpu = pin_to_one_cpu()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"pinned to cpu {cpu}")
    work_root = BENCH / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                 dir=work_root))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
