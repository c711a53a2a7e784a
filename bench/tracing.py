"""Out-of-program tracing for the benchmark's traced run.

The tracer times calls into the public functions of each `apollo` module from
outside the program.  Modules import names directly (`from .sorrifier import
sorrify`), so a wrapper is installed at every place a caller bound the name,
not only in the defining module.  Each compile (`Session.check`) is assigned
the purpose of the innermost open span that carries one.

Spans are kept in memory while a cli.run pass runs and appended to a JSONL
file between passes, outside the timed region.  A span is one JSON array:
[id, parent id, theorem index, name, purpose, start s, end s]; after the
spans of each theorem comes one object {"theorem", "name", "status"}.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict

PURPOSES = ("validate", "candidate", "sorrify", "hint", "suite", "extract", "verify")

# (module, bound name, layer, purpose).  The same function can be bound in
# several modules with different purposes: `validate_statement` validates a
# statement when the engine calls it and checks an extracted sub-lemma when
# `goals.transform_goal` calls it.
BOUND_CALLS = (
    ("apollo.cli", "apollo", "engine", None),
    ("apollo.engine", "_frame", "engine", None),
    ("apollo.engine", "_process_candidate", "engine", "candidate"),
    ("apollo.engine", "verify_final", "engine", "verify"),
    ("apollo.engine", "validate_statement", "sorrifier", "validate"),
    ("apollo.goals", "validate_statement", "sorrifier", "extract"),
    ("apollo.engine", "sorrify", "sorrifier", "sorrify"),
    ("apollo.sorrifier", "apply_action", "sorrifier", None),
    ("apollo.engine", "solve_sorries", "autosolver", "suite"),
    ("apollo.autosolver", "hint_candidates", "autosolver", "hint"),
    ("apollo.engine", "refine", "refiner", None),
    ("apollo.engine", "extract_goal", "goals", None),
    ("apollo.engine", "transform_goal", "goals", "extract"),
    ("apollo.engine", "splice_subproof", "goals", None),
)

# proofscript helpers that every layer calls: wrapped wherever they are bound
SHARED = ("parse_script", "mask_regions", "serialize")

# (module, class, method, layer)
METHODS = (
    ("apollo.repl", "Session", "check", "repl"),
    ("apollo.llm", "MockBackend", "generate", "llm"),
)

SPAN_FIELDS = ["id", "parent", "theorem", "name", "purpose", "start", "end"]


class Tracer:
    def __init__(self, path):
        """Spans go to the JSONL file `path`, which starts with SPAN_FIELDS."""
        self.path = path
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
        self.spans: list = []
        self.theorems = 0
        self.calls: Counter = Counter()  # span name -> calls
        self.inclusive: defaultdict = defaultdict(float)  # span name -> s
        self.self_time: defaultdict = defaultdict(float)  # layer -> s
        self.compiles: Counter = Counter()  # purpose -> compiles
        self.compile_s: list[float] = []
        self.repeats = 0
        self.mask_chars = 0
        self.closed = 0
        self.rewrites = 0
        self.sub_lemmas = 0
        self.compiles_by_theorem: dict[str, int] = {}  # first attempt of each
        self._stack: list[list] = []
        self._next_id = 0
        self._seen_code: set[str] = set()
        self._theorem_compiles = 0
        self._restore: list[tuple] = []

    # -- spans --

    def _wrap(self, fn, layer: str, name: str, purpose: str | None, after=None):
        stack = self._stack
        clock = time.perf_counter
        label = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            effective = purpose or (parent[2] if parent else None)
            frame = [self._next_id, 0.0, effective, clock()]
            self._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[3]
                if parent is not None:
                    parent[1] += duration
                self.calls[label] += 1
                self.inclusive[label] += duration
                self.self_time[layer] += duration - frame[1]
                self.spans.append([frame[0], parent[0] if parent else None,
                                   self.theorems, label, effective,
                                   frame[3], end])
            if after is not None:
                after(args, result, duration, effective)
            return result

        return wrapper

    def wrap_run(self, fn):
        """A root span around one cli.run pass."""
        return self._wrap(fn, "cli", "run", None)

    # -- per-call counts --

    def _on_theorem(self, args, result, duration, purpose):
        self.spans.append({"theorem": self.theorems, "name": args[0].name,
                           "status": result.status})
        self.compiles_by_theorem.setdefault(args[0].name, self._theorem_compiles)
        self.theorems += 1
        self._seen_code.clear()
        self._theorem_compiles = 0

    def _on_compile(self, args, result, duration, purpose):
        code = self._normalize(args[1])  # the code as the REPL receives it
        self.compiles[purpose or "other"] += 1
        self.compile_s.append(duration)
        self._theorem_compiles += 1
        if code in self._seen_code:
            self.repeats += 1
        else:
            self._seen_code.add(code)

    def _on_solve(self, args, result, duration, purpose):
        self.closed += len(result.commits) - len(args[0].commits)

    def _on_refine(self, args, result, duration, purpose):
        self.rewrites += len(result[1])

    def _on_transform(self, args, result, duration, purpose):
        self.sub_lemmas += 1

    def _on_mask(self, args, result, duration, purpose):
        self.mask_chars += len(args[0])

    # -- installation --

    def install(self):
        self._normalize = sys.modules["apollo.repl"].normalize_code
        afters = {
            ("apollo.cli", "apollo"): self._on_theorem,
            ("apollo.engine", "solve_sorries"): self._on_solve,
            ("apollo.engine", "refine"): self._on_refine,
            ("apollo.engine", "transform_goal"): self._on_transform,
        }
        for module, name, layer, purpose in BOUND_CALLS:
            mod = sys.modules[module]
            self._patch(mod, name, self._wrap(getattr(mod, name), layer, name,
                                              purpose, afters.get((module, name))))
        proofscript = sys.modules["apollo.proofscript"]
        for name in SHARED:
            original = getattr(proofscript, name)
            after = self._on_mask if name == "mask_regions" else None
            wrapper = self._wrap(original, "proofscript", name, None, after)
            for modname, mod in list(sys.modules.items()):
                if modname.split(".")[0] != "apollo":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for module, cls_name, method, layer in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            after = self._on_compile if method == "check" else None
            self._patch(cls, method, self._wrap(getattr(cls, method), layer,
                                                method, None, after))

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def flush(self):
        """Append the spans held in memory to the file and drop them."""
        with open(self.path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans.clear()

    # -- per-layer metrics --

    def metrics(self) -> dict[str, float]:
        """Per-layer figures per traced theorem."""
        n = self.theorems or 1
        calls, inc, own = self.calls, self.inclusive, self.self_time
        out = {f"repl.compiles.{p}": self.compiles[p] / n for p in PURPOSES}
        tactic_trials = self.compiles["hint"] + self.compiles["suite"]
        out.update({
            "repl.repeat_compiles": self.repeats / n,
            "repl.wait_s": inc["repl.check"] / n,
            "repl.compile_ms_p50": (1000 * statistics.median(self.compile_s)
                                    if self.compile_s else 0.0),
            "autosolver.sites": calls["autosolver.hint_candidates"] / n,
            "autosolver.closed": self.closed / n,
            "autosolver.trials_per_close": (tactic_trials / self.closed
                                            if self.closed else 0.0),
            "autosolver.self_s": own["autosolver"] / n,
            "sorrifier.repairs": calls["sorrifier.apply_action"] / n,
            "sorrifier.self_s": own["sorrifier"] / n,
            "proofscript.parse_calls": calls["proofscript.parse_script"] / n,
            "proofscript.parse_s": inc["proofscript.parse_script"] / n,
            "proofscript.mask_calls": calls["proofscript.mask_regions"] / n,
            "proofscript.mask_kb": self.mask_chars / 1024 / n,
            "proofscript.mask_s": inc["proofscript.mask_regions"] / n,
            "proofscript.serialize_calls": calls["proofscript.serialize"] / n,
            "goals.sub_lemmas": self.sub_lemmas / n,
            "goals.splices": calls["goals.splice_subproof"] / n,
            "refiner.calls": calls["refiner.refine"] / n,
            "refiner.rewrites": self.rewrites / n,
            "refiner.s": inc["refiner.refine"] / n,
            "llm.generate_calls": calls["llm.generate"] / n,
            "llm.generate_s": inc["llm.generate"] / n,
            "engine.self_s": own["engine"] / n,
        })
        return out
