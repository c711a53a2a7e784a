"""The recursive repair loop: generate, refine, sorrify, auto-solve, then
re-invoke the model on each surviving sorry up to the depth cap, splice the
sub-proofs back and verify the assembled file."""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field

from .autosolver import solve_sorries
from .config import (
    MODULE_AUTO_SOLVER,
    MODULE_LLM_REINVOKER,
    MODULE_SYNTAX_REFINER,
    BudgetLedger,
    RepairConfig,
)
from .errors import (
    ApolloError,
    BackendError,
    ExtractError,
    ParseError,
    SorrifyError,
    SpliceError,
    StatementMalformed,
    TransformError,
)
from .goals import extract_goal, splice_subproof, transform_goal
from .llm import (
    MODE_FEEDBACK_REPAIR,
    MODE_INITIAL,
    MODE_SUB_LEMMA,
    Decoding,
    GenerationRequest,
)
from .proofscript import (
    ProofScript,
    SourceSpan,
    TheoremStatement,
    count_sorries,
    mask_regions,
    parse_script,
    serialize,
    statement_matches,
)
from .refiner import default_ruleset, load_rules, refine
from .repl import FAIL, PASS, PASS_WITH_SORRIES, CompileResult
from .sorrifier import SorrifiedScript, check_script, sorrify, validate_statement

log = logging.getLogger(__name__)

PROVED = "proved"
PARTIAL_WITH_SORRIES = "partial_with_sorries"
FAILED = "failed"

REASON_STATEMENT_MALFORMED = "statement_malformed"
REASON_ALL_CANDIDATES_MALFORMED = "all_candidates_malformed"
REASON_BUDGET_EXHAUSTED = "budget_exhausted"
REASON_BACKEND = "backend_error"


class _BudgetExhausted(ApolloError):
    pass


@dataclass
class AuditEvent:
    seq: int
    depth: int
    module: str
    action: str
    detail: str
    timestamp: float

    def record(self, with_timestamp: bool = True) -> dict:
        rec = {
            "seq": self.seq,
            "depth": self.depth,
            "module": self.module,
            "action": self.action,
            "detail": self.detail,
        }
        if with_timestamp:
            rec["timestamp"] = self.timestamp
        return rec


class AuditLog:
    def __init__(self):
        self.events: list[AuditEvent] = []

    def append(self, depth: int, module: str, action: str, detail: str = ""):
        self.events.append(AuditEvent(
            len(self.events), depth, module, action, detail, time.time()))

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event.record(), ensure_ascii=False) + "\n")


@dataclass
class Outcome:
    status: str
    final_script: ProofScript | None
    ledger: BudgetLedger
    audit: AuditLog
    proof_length: int | None = None
    failure_reason: str | None = None
    assisted: bool = False

    def canonical(self) -> str:
        """Deterministic serialization: volatile fields (wall clock,
        timestamps) excluded, so two runs over the same mocks compare
        byte-identical."""
        ledger = self.ledger.snapshot()
        ledger.pop("wall_time", None)
        doc = {
            "status": self.status,
            "final_text": serialize(self.final_script) if self.final_script else None,
            "proof_length": self.proof_length,
            "failure_reason": self.failure_reason,
            "assisted": self.assisted,
            "ledger": ledger,
            "audit": [e.record(with_timestamp=False) for e in self.audit.events],
        }
        return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=0)


def proof_length(script: ProofScript) -> int:
    """Total tactic count: non-blank, non-comment lines of the proof body;
    combinator-joined tactics on one line count once."""
    total = 0
    for _, node in script.walk():
        for line in node.lines:
            if line.strip() and mask_regions(line).strip():
                total += 1
    if total == 0:
        total = 1 if " sorry" in serialize(script) or count_sorries(script) else 0
    return total


def verify_final(script: ProofScript, session,
                 config: RepairConfig | None = None) -> tuple[str, CompileResult]:
    """Full compile without the pp preamble plus a token scan; a proof is
    Proved only when the compiler passes and no sorry/admit token remains."""
    config = config or RepairConfig()
    result = check_script(serialize(script), session, config.compile_timeout)
    if result.status == PASS and count_sorries(script) == 0:
        return PROVED, result
    if result.status in (PASS, PASS_WITH_SORRIES):
        return PARTIAL_WITH_SORRIES, result
    return FAILED, result


@dataclass
class _Run:
    config: RepairConfig
    backend: object
    ledger: BudgetLedger
    audit: AuditLog
    rules: list
    started: float
    assisted: bool = False


@dataclass
class _FrameResult:
    status: str
    script: ProofScript | None
    reason: str | None = None
    verify_result: CompileResult | None = None


@dataclass
class _CandidateState:
    index: int
    sorrified: SorrifiedScript | None
    sorries: int
    touched: bool
    reason: str | None = None

    @property
    def usable(self) -> bool:
        return self.sorrified is not None


def _generate(run: _Run, statement: TheoremStatement, mode: str, depth: int,
              prior=None):
    config = run.config
    remaining = config.sample_cap - run.ledger.samples_used
    if remaining <= 0:
        raise _BudgetExhausted(f"sample cap {config.sample_cap} reached")
    if time.monotonic() - run.started > config.item_time_limit:
        raise _BudgetExhausted("per-theorem wall clock limit reached")
    if mode != MODE_INITIAL:
        run.ledger.trigger(MODULE_LLM_REINVOKER)
    request = GenerationRequest(
        statement=statement,
        mode=mode,
        k=min(config.k_per_goal, remaining),
        prior_attempt=prior,
        decoding=Decoding(config.temperature, config.max_tokens),
    )
    result = run.backend.generate(request)
    run.ledger.add_samples(len(result.candidates))
    run.ledger.add_tokens(result.tokens_generated)
    run.audit.append(depth, "llm", "generate",
                     f"mode={mode} k={request.k} "
                     f"returned={len(result.candidates)}")
    return result.candidates


def _compile_as_generated(session, statement: TheoremStatement, text: str,
                          config: RepairConfig
                          ) -> tuple[CompileResult, SorrifiedScript | None]:
    """Compile `text` as written.  It is accepted when the compile passes,
    the text parses, the statement is unchanged and no sorry is left.
    Raises ParseError for an unterminated block comment, or for a text that
    passes but does not parse."""
    result = check_script(text, session, config.compile_timeout)
    if result.status != PASS:
        return result, None
    script = parse_script(text, statement)
    if not statement_matches(script, statement) or count_sorries(script):
        return result, None
    return result, SorrifiedScript(script, [], result)


def _process_candidate(run: _Run, session, statement: TheoremStatement,
                       text: str, index: int, depth: int) -> _CandidateState:
    config = run.config
    touched = False
    plain_mode = not (config.enable_auto_solver or config.enable_llm_reinvoker)

    try:
        initial, accepted = _compile_as_generated(session, statement, text, config)
        if accepted is not None:
            run.audit.append(depth, "orchestrator", "candidate_pass",
                             f"candidate {index} verified as generated")
            return _CandidateState(index, accepted, 0, touched)

        if initial.status == FAIL and config.enable_syntax_refiner:
            refined, applied = refine(text, run.rules)
            if applied:
                run.ledger.trigger(MODULE_SYNTAX_REFINER)
                run.audit.append(depth, "syntax_refiner", "applied", ",".join(applied))
                text = refined
                touched = True
                if plain_mode:
                    _, accepted = _compile_as_generated(session, statement, text,
                                                        config)
                    if accepted is not None:
                        return _CandidateState(index, accepted, 0, touched)

        if plain_mode:
            return _CandidateState(index, None, -1, touched, "no_pass_plain_mode")
        script = parse_script(text, statement)
    except ParseError as exc:
        return _CandidateState(index, None, -1, touched, f"parse_error: {exc}")
    if not statement_matches(script, statement):
        return _CandidateState(index, None, -1, touched, "statement_mismatch")

    try:
        sorrified = sorrify(script, session, config)
    except StatementMalformed:
        return _CandidateState(index, None, -1, touched, "statement_malformed")
    except SorrifyError as exc:
        return _CandidateState(index, None, -1, touched, f"sorrify: {exc}")
    if sorrified.actions:
        touched = True
        run.audit.append(depth, "sorrifier", "repaired",
                         f"candidate {index}: {len(sorrified.actions)} actions, "
                         f"{len(sorrified.compile_result.sorries)} sorries")

    if config.enable_auto_solver and sorrified.compile_result.sorries:
        run.ledger.trigger(MODULE_AUTO_SOLVER)
        solved = solve_sorries(sorrified, session, config)
        if solved.commits:
            touched = True
            run.audit.append(depth, "auto_solver", "closed",
                             f"candidate {index}: {len(solved.commits)} of "
                             f"{len(sorrified.compile_result.sorries)} sites")
        sorrified = solved

    return _CandidateState(index, sorrified, count_sorries(sorrified.script), touched)


def _recurse_and_assemble(run: _Run, session, best: _CandidateState,
                          depth: int) -> ProofScript:
    config = run.config
    sorrified = best.sorrified
    script = sorrified.script
    sites = sorted(sorrified.compile_result.sorries,
                   key=lambda s: (s.pos.line, s.pos.column))

    sub_results: list[tuple[SourceSpan | None, _FrameResult | None]] = []
    for ordinal, info in enumerate(sites, start=1):
        if info.pos.line == 0:
            sub_results.append((None, None))
            continue
        span = SourceSpan(info.pos.line, info.pos.column,
                          info.pos.line, info.end_pos.column)
        try:
            ctx = extract_goal(info, script, span, ordinal)
            sub_statement = transform_goal(ctx, session, config)
        except (ExtractError, TransformError) as exc:
            run.audit.append(depth, "goal_extraction", "rejected",
                             f"site {ordinal}: {exc}")
            sub_results.append((span, None))
            continue
        run.audit.append(depth, "goal_extraction", "sub_lemma",
                         f"site {ordinal} -> {sub_statement.name}")
        sub = _frame(run, session, sub_statement, depth + 1, MODE_SUB_LEMMA)
        sub_results.append((span, sub))

    return assemble(sorrified, sub_results, config)


def assemble(parent: SorrifiedScript,
             sub_outcomes: list[tuple[SourceSpan | None, _FrameResult | None]],
             config: RepairConfig | None = None) -> ProofScript:
    """Splice proved sub-proofs back in; unproved sites keep their sorry.
    Splicing runs in reverse position order so earlier spans stay valid."""
    config = config or RepairConfig()
    script = parent.script
    for span, sub in reversed(sub_outcomes):
        if span is None or sub is None or sub.status != PROVED or sub.script is None:
            continue
        script = splice_subproof(script, span, sub.script, config.splice_mode)
    return script


def _frame(run: _Run, session, statement: TheoremStatement, depth: int,
           mode: str, prior=None) -> _FrameResult:
    config = run.config
    if depth > config.max_depth_r:
        run.audit.append(depth, "orchestrator", "depth_cap",
                         f"{statement.name}: returning sorry at depth {depth}")
        return _FrameResult(PARTIAL_WITH_SORRIES, None)

    try:
        validate_statement(statement, session, config)
    except StatementMalformed as exc:
        run.audit.append(depth, "orchestrator", "statement_malformed",
                         str(exc))
        return _FrameResult(FAILED, None, REASON_STATEMENT_MALFORMED)
    except SorrifyError as exc:
        return _FrameResult(FAILED, None, f"statement_probe: {exc}")

    try:
        candidates = _generate(run, statement, mode, depth, prior)
    except BackendError as exc:
        run.audit.append(depth, "llm", "backend_error", f"{exc.kind}: {exc}")
        return _FrameResult(FAILED, None, REASON_BACKEND)
    except _BudgetExhausted as exc:
        run.audit.append(depth, "orchestrator", "budget_exhausted", str(exc))
        return _FrameResult(FAILED, None, REASON_BUDGET_EXHAUSTED)

    processed: list[_CandidateState] = []
    for index, text in enumerate(candidates):
        state = _process_candidate(run, session, statement, text, index, depth)
        if state.usable and state.sorries == 0:
            status, result = verify_final(state.sorrified.script, session, config)
            if status == PROVED:
                if state.touched:
                    run.assisted = True
                run.audit.append(depth, "orchestrator", "proved",
                                 f"{statement.name} via candidate {index}")
                return _FrameResult(PROVED, state.sorrified.script,
                                    verify_result=result)
        processed.append(state)

    if any(s.touched for s in processed):
        run.assisted = True
    usable = [s for s in processed if s.usable]
    if not usable:
        run.audit.append(depth, "orchestrator", "all_candidates_malformed",
                         statement.name)
        return _FrameResult(FAILED, None, REASON_ALL_CANDIDATES_MALFORMED)

    best = min(usable, key=lambda s: (s.sorries, len(serialize(s.sorrified.script)),
                                      s.index))
    run.audit.append(depth, "orchestrator", "selected",
                     f"candidate {best.index} with {best.sorries} sorries")

    if config.enable_llm_reinvoker and best.sorries > 0:
        try:
            script = _recurse_and_assemble(run, session, best, depth)
        except (SpliceError, _BudgetExhausted) as exc:
            run.audit.append(depth, "orchestrator", "assembly_error", str(exc))
            script = best.sorrified.script
        run.assisted = True
    else:
        script = best.sorrified.script

    status, result = verify_final(script, session, config)
    run.audit.append(depth, "orchestrator", "verified",
                     f"{statement.name}: {status}")
    return _FrameResult(status, script, verify_result=result)


def apollo(statement: TheoremStatement, depth: int, config: RepairConfig,
           backend, session_pool) -> Outcome:
    """Run the full repair pipeline for one theorem and return its Outcome.

    A partial result at the top level re-enters once in feedback mode when
    re-invocation is enabled and budget remains; the better of the two
    attempts wins.
    """
    ledger = BudgetLedger()
    audit = AuditLog()
    rules = load_rules(config.rules_path) if config.rules_path else default_ruleset()
    run = _Run(config, backend, ledger, audit, rules, time.monotonic())

    with session_pool.lease() as session:
        calls_before = session.checks_issued
        frame = _frame(run, session, statement, depth, MODE_INITIAL)

        if (frame.status == PARTIAL_WITH_SORRIES and depth == 0
                and config.enable_llm_reinvoker and frame.script is not None
                and ledger.samples_used < config.sample_cap):
            audit.append(0, "orchestrator", "feedback_reentry", statement.name)
            diags = frame.verify_result.diagnostics if frame.verify_result else []
            retry = _frame(run, session, statement, 0, MODE_FEEDBACK_REPAIR,
                           prior=(serialize(frame.script), diags))
            rank = {PROVED: 0, PARTIAL_WITH_SORRIES: 1, FAILED: 2}
            if rank[retry.status] < rank[frame.status]:
                frame = retry

        ledger.add_repl_calls(session.checks_issued - calls_before)

    ledger.add_wall_time(time.monotonic() - run.started)
    length = proof_length(frame.script) if frame.status == PROVED else None
    return Outcome(
        status=frame.status,
        final_script=frame.script,
        ledger=ledger,
        audit=audit,
        proof_length=length,
        failure_reason=frame.reason,
        assisted=run.assisted,
    )
