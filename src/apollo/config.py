"""Run parameters and budget accounting shared across the pipeline."""

from __future__ import annotations

import threading
from dataclasses import dataclass

MODULE_SYNTAX_REFINER = "syntax_refiner"
MODULE_AUTO_SOLVER = "auto_solver"
MODULE_LLM_REINVOKER = "llm_reinvoker"


@dataclass
class RepairConfig:
    max_depth_r: int = 2
    k_per_goal: int = 32
    compile_timeout: float = 300.0
    candidate_timeout: float = 60.0  # per-tactic trial compiles
    enable_syntax_refiner: bool = True
    enable_auto_solver: bool = True
    enable_llm_reinvoker: bool = True
    rules_path: str | None = None
    suite_path: str | None = None
    sample_cap: int = 1100  # per-theorem generation budget
    item_time_limit: float = 7200.0

    def __post_init__(self):
        if self.max_depth_r < 0:
            raise ValueError("max_depth_r must be >= 0")
        if self.k_per_goal < 1:
            raise ValueError("k_per_goal must be >= 1")


class BudgetLedger:
    """Monotone counters for samples, tokens, module triggers and REPL
    calls.  Increments are lock-protected so concurrent generate calls never
    lose counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self.samples_used = 0
        self.tokens_generated = 0
        self.repl_calls = 0
        self.module_triggers = {
            MODULE_SYNTAX_REFINER: 0,
            MODULE_AUTO_SOLVER: 0,
            MODULE_LLM_REINVOKER: 0,
        }

    def add_samples(self, n: int):
        with self._lock:
            self.samples_used += n

    def add_tokens(self, n: int):
        with self._lock:
            self.tokens_generated += n

    def add_repl_calls(self, n: int):
        with self._lock:
            self.repl_calls += n

    def trigger(self, module: str):
        with self._lock:
            self.module_triggers[module] += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "samples_used": self.samples_used,
                "tokens_generated": self.tokens_generated,
                "repl_calls": self.repl_calls,
                "module_triggers": dict(self.module_triggers),
            }
