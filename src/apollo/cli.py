"""Batch runner: ingest a benchmark file, repair every item across a worker
pool with checkpointed, resumable results, and report aggregate budgets."""

from __future__ import annotations

import argparse
import json
import logging
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .config import RepairConfig
from .engine import FAILED, PROVED, apollo
from .errors import ApolloError, IngestError, NoProofBody
from .llm import HttpBackend, MockBackend
from .proofscript import TheoremStatement, parse_script
from .repl import SessionPool, start_session

log = logging.getLogger(__name__)

_SKIP_ON_RESUME = (PROVED, FAILED)


@dataclass(frozen=True)
class BenchmarkItem:
    name: str
    header: str
    informal_prefix: str | None
    formal_statement: str

    def statement(self) -> TheoremStatement:
        """Derive the statement contract, dropping any placeholder body the
        dataset carries after `:= by`."""
        text = self.formal_statement
        try:
            parsed = parse_script(self.header + text)
        except NoProofBody:
            parsed = parse_script(self.header + text.rstrip() + " := by")
        return TheoremStatement(self.name, self.header,
                                parsed.statement.statement_text,
                                self.informal_prefix)


def load_dataset(path) -> list[BenchmarkItem]:
    """Line-delimited JSON records with name/header/informal_prefix/
    formal_statement fields, other keys (such as `split`) ignored;
    duplicate names are rejected."""
    items: list[BenchmarkItem] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"bad record: {exc}", line_no) from exc
            name = rec.get("name")
            formal = rec.get("formal_statement")
            if not name or not isinstance(name, str):
                raise IngestError("missing or invalid 'name'", line_no)
            if not formal or not isinstance(formal, str):
                raise IngestError("missing or invalid 'formal_statement'", line_no)
            if name in seen:
                raise IngestError(f"duplicate name {name!r}", line_no)
            seen.add(name)
            header = rec.get("header") or "import Mathlib\n"
            if not header.endswith("\n"):
                header += "\n"
            items.append(BenchmarkItem(
                name=name,
                header=header,
                informal_prefix=rec.get("informal_prefix") or None,
                formal_statement=formal,
            ))
    if not items:
        log.warning("dataset %s is empty", path)
    try:
        for item in items:
            item.statement()
    except ApolloError as exc:
        raise IngestError(f"unusable formal_statement for {item.name!r}: {exc}")
    return items


@dataclass
class RunReport:
    records: list[dict]
    mode: str = "all"

    def _population(self) -> list[dict]:
        if self.mode == "assisted":
            return [r for r in self.records if r.get("assisted")]
        return list(self.records)

    def aggregates(self) -> dict:
        pop = self._population()
        proved = [r for r in self.records if r["status"] == PROVED]
        samples = [r["samples"] for r in pop]
        tokens = [r["tokens"] for r in pop]
        # records written before compiles were counted have no such key
        compiles = [r["compiles"] for r in pop if r.get("compiles") is not None]
        lengths = [r["proof_length"] for r in proved if r.get("proof_length")]
        trigger_rates = {}
        for module in ("syntax_refiner", "auto_solver", "llm_reinvoker"):
            hits = sum(1 for r in pop if r.get("module_triggers", {}).get(module, 0) > 0)
            trigger_rates[module] = hits / len(pop) if pop else 0.0
        return {
            "items": len(self.records),
            "population": len(pop),
            "accuracy": len(proved) / len(self.records) if self.records else 0.0,
            "avg_samples": statistics.mean(samples) if samples else 0.0,
            "max_samples": max(samples) if samples else 0,
            "avg_tokens": statistics.mean(tokens) if tokens else 0.0,
            "max_tokens": max(tokens) if tokens else 0,
            "avg_compiles": statistics.mean(compiles) if compiles else 0.0,
            "max_compiles": max(compiles) if compiles else 0,
            "proof_lengths": sorted(lengths),
            "avg_proof_length": statistics.mean(lengths) if lengths else 0.0,
            "median_proof_length": statistics.median(lengths) if lengths else 0.0,
            "trigger_rates": trigger_rates,
        }

    def render(self, method: str = "apollo") -> str:
        agg = self.aggregates()
        lines = [
            f"{'method':<28}{'sample budget':>16}{'token budget':>16}"
            f"{'compile budget':>16}{'accuracy':>10}",
            f"{method:<28}{agg['avg_samples']:>16.1f}{agg['avg_tokens']:>16.1f}"
            f"{agg['avg_compiles']:>16.1f}{agg['accuracy']:>9.1%}",
            "",
            f"population: {agg['population']}/{agg['items']} items "
            f"(accounting mode: {self.mode})",
            f"max sample budget: {agg['max_samples']}   "
            f"max token budget: {agg['max_tokens']}   "
            f"max compile budget: {agg['max_compiles']}",
        ]
        if agg["proof_lengths"]:
            lines.append(
                f"proof length: mean {agg['avg_proof_length']:.1f}, "
                f"median {agg['median_proof_length']:.1f}, "
                f"min {agg['proof_lengths'][0]}, max {agg['proof_lengths'][-1]}"
            )
        rates = agg["trigger_rates"]
        lines.append(
            "module triggers: "
            + "  ".join(f"{m} {rates[m]:.1%}" for m in sorted(rates))
        )
        return "\n".join(lines)


def report(records: list[dict], mode: str = "all") -> RunReport:
    if mode not in ("all", "assisted"):
        raise ValueError(f"unknown accounting mode {mode!r}")
    return RunReport(list(records), mode)


def _load_existing(path: Path) -> dict[str, dict]:
    existing: dict[str, dict] = {}
    if not path.exists():
        return existing
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from a killed run
            if "name" in rec:
                existing[rec["name"]] = rec
    return existing


def _outcome_record(name: str, outcome, wall_time: float,
                    audit_path: str | None) -> dict:
    return {
        "name": name,
        "status": outcome.status,
        "samples": outcome.ledger.samples_used,
        "tokens": outcome.ledger.tokens_generated,
        "compiles": outcome.ledger.repl_calls,
        "proof_length": outcome.proof_length,
        "wall_time": round(wall_time, 3),
        "audit_path": audit_path,
        "assisted": outcome.assisted,
        "module_triggers": dict(outcome.ledger.module_triggers),
        "failure_reason": outcome.failure_reason,
    }


def run(items: list[BenchmarkItem], config: RepairConfig, backend,
        session_pool: SessionPool, output_path, parallelism: int = 1,
        resume: bool = False, accounting: str = "all") -> RunReport:
    """Repair every item, checkpointing each outcome as soon as it lands.

    With resume=True, items already Proved or Failed in the results file are
    skipped; partial items run again.  Per-item errors are recorded in the
    report and never abort the batch.
    """
    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    audit_dir = output_path.parent / (output_path.stem + "_audit")
    audit_dir.mkdir(exist_ok=True)

    existing = _load_existing(output_path) if resume else {}
    results: dict[str, dict] = {}
    write_lock = threading.Lock()
    out_fh = open(output_path, "a" if resume else "w", encoding="utf-8")

    def checkpoint(record: dict):
        with write_lock:
            out_fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            out_fh.flush()
            results[record["name"]] = record

    def run_item(item: BenchmarkItem):
        prior = existing.get(item.name)
        if prior and prior.get("status") in _SKIP_ON_RESUME:
            with write_lock:
                results[item.name] = prior
            return
        started = time.monotonic()
        audit_path = audit_dir / f"{item.name}.jsonl"
        try:
            outcome = apollo(item.statement(), 0, config, backend, session_pool)
            outcome.audit.write_jsonl(audit_path)
            record = _outcome_record(item.name, outcome,
                                     time.monotonic() - started, str(audit_path))
        except Exception as exc:  # outside apollo(), which fails an item itself
            log.exception("item %s errored: %s", item.name, exc)
            record = {
                "name": item.name, "status": FAILED, "samples": 0, "tokens": 0,
                "proof_length": None, "wall_time": round(time.monotonic() - started, 3),
                "audit_path": None, "assisted": False, "module_triggers": {},
                "failure_reason": f"error: {exc}",
            }
        checkpoint(record)

    try:
        if parallelism <= 1:
            for item in items:
                run_item(item)
        else:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                list(pool.map(run_item, items))
    finally:
        out_fh.close()

    ordered = [results[item.name] for item in items if item.name in results]
    return report(ordered, accounting)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apollo",
        description="Compiler-guided repair of LLM-generated Lean 4 proofs.",
    )
    parser.add_argument("--dataset", required=True, help="benchmark JSONL file")
    parser.add_argument("--output", required=True, help="results JSONL file")
    parser.add_argument("--max-depth", type=int, default=2, metavar="R")
    parser.add_argument("--samples-per-goal", type=int, default=32, metavar="K")
    parser.add_argument("--compile-timeout", type=float, default=300.0, metavar="SECS")
    parser.add_argument("--parallelism", type=int, default=1, metavar="N")
    parser.add_argument("--backend", choices=("http", "mock"), default="http")
    parser.add_argument("--endpoint", help="chat-completions base URL")
    parser.add_argument("--model", default="", help="model name for the endpoint")
    parser.add_argument("--mock-fixtures", help="fixture dir for --backend mock")
    parser.add_argument("--repl-path", default="repl",
                        help="REPL executable or command line")
    parser.add_argument("--project-root", default=None)
    parser.add_argument("--import-header", default="import Mathlib")
    parser.add_argument("--rules", default=None, help="rewrite rule table file")
    parser.add_argument("--suite", default=None, help="solver tactic list file")
    parser.add_argument("--disable-syntax-refiner", action="store_true")
    parser.add_argument("--disable-auto-solver", action="store_true")
    parser.add_argument("--disable-llm-reinvoker", action="store_true")
    parser.add_argument("--accounting", choices=("all", "assisted"), default="all")
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--plot-data", default=None,
                        help="write proof-length distribution JSON here")
    parser.add_argument("--sample-cap", type=int, default=1100)
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )

    try:
        config = RepairConfig(
            max_depth_r=args.max_depth,
            k_per_goal=args.samples_per_goal,
            compile_timeout=args.compile_timeout,
            enable_syntax_refiner=not args.disable_syntax_refiner,
            enable_auto_solver=not args.disable_auto_solver,
            enable_llm_reinvoker=not args.disable_llm_reinvoker,
            rules_path=args.rules,
            suite_path=args.suite,
            sample_cap=args.sample_cap,
        )
        items = load_dataset(args.dataset)
        if args.backend == "mock":
            if not args.mock_fixtures:
                raise ApolloError("--backend mock requires --mock-fixtures")
            backend = MockBackend(args.mock_fixtures)
        else:
            if not args.endpoint:
                raise ApolloError("--backend http requires --endpoint")
            backend = HttpBackend(args.endpoint, args.model)
        session_pool = SessionPool.build(
            lambda: start_session(args.repl_path, args.project_root,
                                  args.import_header),
            max(args.parallelism, 1),
        )
    except (ApolloError, OSError, ValueError) as exc:
        log.error("configuration error: %s", exc)
        return 2

    try:
        run_report = run(items, config, backend, session_pool, args.output,
                         parallelism=args.parallelism, resume=args.resume,
                         accounting=args.accounting)
    finally:
        session_pool.close()

    print(run_report.render(method=args.model or args.backend))
    if args.plot_data:
        agg = run_report.aggregates()
        with open(args.plot_data, "w", encoding="utf-8") as fh:
            json.dump({"proof_lengths": agg["proof_lengths"]}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
