"""The recursive repair loop: generate, refine, sorrify, auto-solve, then
re-invoke the model on each surviving sorry up to the depth cap, splice the
sub-proofs back and verify the assembled file."""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass

from .autosolver import solve_sorries
from .config import (
    MODULE_AUTO_SOLVER,
    MODULE_LLM_REINVOKER,
    MODULE_SYNTAX_REFINER,
    BudgetLedger,
    RepairConfig,
)
from .errors import (
    BackendError,
    BudgetExhausted,
    ExtractError,
    NoProofBody,
    ParseError,
    RefineError,
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
    GenerationRequest,
)
from .proofscript import (
    ProofScript,
    TheoremStatement,
    count_sorries,
    parse_script,
    replace_lines,
    serialize,
    statement_matches,
)
from .refiner import default_ruleset, load_rules, refine
from .repl import FAIL, PASS, REPL_CRASH, TIMEOUT, CompileResult, SorryInfo
from .sorrifier import (
    DEADLINE,
    SorrifiedScript,
    check_deadline,
    check_script,
    sorrify,
    validate_statement,
)

log = logging.getLogger(__name__)

PROVED = "proved"
PARTIAL_WITH_SORRIES = "partial_with_sorries"
FAILED = "failed"

REASON_STATEMENT_MALFORMED = "statement_malformed"
REASON_ALL_CANDIDATES_MALFORMED = "all_candidates_malformed"
REASON_BUDGET_EXHAUSTED = "budget_exhausted"
REASON_BACKEND = "backend_error"


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
        """Deterministic serialization: audit timestamps excluded, so two
        runs over the same mocks compare byte-identical."""
        doc = {
            "status": self.status,
            "final_text": serialize(self.final_script) if self.final_script else None,
            "proof_length": self.proof_length,
            "failure_reason": self.failure_reason,
            "assisted": self.assisted,
            "ledger": self.ledger.snapshot(),
            "audit": [e.record(with_timestamp=False) for e in self.audit.events],
        }
        return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=0)


def proof_length(script: ProofScript) -> int:
    """Total tactic count: non-blank, non-comment lines of the proof body;
    combinator-joined tactics on one line count once."""
    root = script.root
    return sum(1 for no in range(root.first, root.last + 1) if script.line(no)[1].strip())


def _verdict(script: ProofScript, result: CompileResult) -> tuple[str, CompileResult]:
    """(status, `result`) for `script`, given `result`, a compile of its
    text: Proved only when it passes and no sorry/admit token remains."""
    if result.status == PASS and count_sorries(script) == 0:
        return PROVED, result
    return (PARTIAL_WITH_SORRIES if result.ok else FAILED), result


def verify_final(script: ProofScript, session,
                 config: RepairConfig | None = None) -> tuple[str, CompileResult]:
    """Full compile plus a token scan: the `_verdict` of a fresh compile."""
    timeout = (config or RepairConfig()).compile_timeout
    return _verdict(script, check_script(serialize(script), session, timeout))


@dataclass
class _Run:
    config: RepairConfig
    backend: object
    ledger: BudgetLedger
    audit: AuditLog
    rules: list
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

    @property
    def usable(self) -> bool:
        return self.sorrified is not None


def _generate(run: _Run, statement: TheoremStatement, mode: str, depth: int,
              prior=None):
    config = run.config
    remaining = config.sample_cap - run.ledger.samples_used
    if remaining <= 0:
        raise BudgetExhausted(f"sample cap {config.sample_cap} reached")
    check_deadline()
    if mode != MODE_INITIAL:
        run.ledger.trigger(MODULE_LLM_REINVOKER)
    request = GenerationRequest(
        statement=statement,
        mode=mode,
        k=min(config.k_per_goal, remaining),
        prior_attempt=prior,
    )
    result = run.backend.generate(request)
    run.ledger.add_samples(len(result.candidates))
    run.ledger.add_tokens(result.tokens_generated)
    run.audit.append(depth, "llm", "generate",
                     f"mode={mode} k={request.k} "
                     f"returned={len(result.candidates)}")
    return result.candidates


def _process_candidate(run: _Run, session, statement: TheoremStatement,
                       text: str, index: int, depth: int) -> _CandidateState:
    """Parse the candidate and compile the parsed text; refine it when it
    does not parse or its compile fails, and compile the refined text once.
    A Proved candidate is kept as it is.  Otherwise it is dropped when
    neither the auto-solver nor the re-invoker is on, and sorrified when
    one is, its compile standing for sorrify's first round unless it timed
    out or crashed."""
    config = run.config
    touched = False

    def parse_and_compile(text):
        # (None, None) for a text with no `:= by` body or another statement
        try:
            script = parse_script(text, statement)
        except NoProofBody:
            return None, None
        if not statement_matches(script, statement):
            return None, None
        return script, check_script(script.text, session, config.compile_timeout)

    try:
        script, result = parse_and_compile(text)
        if config.enable_syntax_refiner and (script is None or result.status == FAIL):
            try:
                refined, applied = refine(text, run.rules)
            except RefineError as exc:
                run.audit.append(depth, "syntax_refiner", "rule_error",
                                 f"candidate {index}: {exc}")
                applied = []
            if applied:
                run.ledger.trigger(MODULE_SYNTAX_REFINER)
                run.audit.append(depth, "syntax_refiner", "applied", ",".join(applied))
                touched = True
                script, result = parse_and_compile(refined)
        if script is None:
            return _CandidateState(index, None, -1, touched)
        if _verdict(script, result)[0] == PROVED:
            if not touched:
                run.audit.append(depth, "orchestrator", "candidate_pass",
                                 f"candidate {index} verified as generated")
            return _CandidateState(index, SorrifiedScript(script, [], result), 0, touched)
        if not (config.enable_auto_solver or config.enable_llm_reinvoker):
            return _CandidateState(index, None, -1, touched)
        sorrified = sorrify(script, session, config,
                            None if result.status in (TIMEOUT, REPL_CRASH) else result)
    except (ParseError, SorrifyError):
        return _CandidateState(index, None, -1, touched)
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
    script = best.sorrified.script
    proved: list[tuple[SorryInfo, ProofScript]] = []
    for ordinal, site in enumerate(best.sorrified.compile_result.sorries, start=1):
        try:
            ctx = extract_goal(site, script, ordinal)
            sub_statement = transform_goal(ctx, session, config)
        except (ExtractError, TransformError) as exc:
            run.audit.append(depth, "goal_extraction", "rejected",
                             f"site {ordinal}: {exc}")
            continue
        run.audit.append(depth, "goal_extraction", "sub_lemma",
                         f"site {ordinal} -> {sub_statement.name}")
        sub = _frame(run, session, sub_statement, depth + 1, MODE_SUB_LEMMA)
        if sub.status == PROVED:
            proved.append((site, sub.script))

    return assemble(script, proved)


def assemble(script: ProofScript,
             proved: list[tuple[SorryInfo, ProofScript]]) -> ProofScript:
    """Splice each proved sub-proof in at its site; every other site keeps
    its sorry.  Every site's edit is taken against the text of `script`,
    and the edits apply as one `replace_lines` call, parsed once; with
    nothing proved, `script` comes back as is."""
    if not proved:
        return script
    edits = [splice_subproof(script.text, site, sub) for site, sub in proved]
    return parse_script(replace_lines(script.text, edits), script.statement)


def _frame(run: _Run, session, statement: TheoremStatement, depth: int,
           mode: str, prior=None) -> _FrameResult:
    config = run.config
    if depth > config.max_depth_r:
        run.audit.append(depth, "orchestrator", "depth_cap",
                         f"{statement.name}: returning sorry at depth {depth}")
        return _FrameResult(PARTIAL_WITH_SORRIES, None)

    if mode == MODE_INITIAL:
        # the one probe of the input statement; a sub-lemma was probed by
        # `transform_goal`, and feedback re-entry repeats a probed statement
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
    except BudgetExhausted as exc:
        run.audit.append(depth, "orchestrator", "budget_exhausted", str(exc))
        return _FrameResult(FAILED, None, REASON_BUDGET_EXHAUSTED)

    processed: list[_CandidateState] = []
    for index, text in enumerate(candidates):
        state = _process_candidate(run, session, statement, text, index, depth)
        processed.append(state)
        if not state.usable:
            continue
        # a SorrifiedScript's compile_result is the compile of its text
        status, result = _verdict(state.sorrified.script, state.sorrified.compile_result)
        if status == PROVED:
            if state.touched:
                run.assisted = True
            run.audit.append(depth, "orchestrator", "proved",
                             f"{statement.name} via candidate {index}")
            return _FrameResult(status, state.sorrified.script, verify_result=result)

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
        except SpliceError as exc:
            run.audit.append(depth, "orchestrator", "assembly_error", str(exc))
            script = best.sorrified.script
        run.assisted = True
    else:
        script = best.sorrified.script

    status, result = (_verdict(script, best.sorrified.compile_result)
                      if script.text == best.sorrified.script.text  # nothing spliced in
                      else verify_final(script, session, config))
    run.audit.append(depth, "orchestrator", "verified",
                     f"{statement.name}: {status}")
    return _FrameResult(status, script, verify_result=result)


def apollo(statement: TheoremStatement, depth: int, config: RepairConfig,
           backend, session_pool) -> Outcome:
    """Run the full repair pipeline for one theorem and return its Outcome.

    A partial result at the top level re-enters once in feedback mode when
    re-invocation is enabled and budget remains; the better of the two
    attempts wins.  Once `config.item_time_limit` has passed, the next
    compile or generation fails the theorem as budget_exhausted, or in the
    feedback retry keeps the first attempt.  An unexpected error fails the
    theorem with the budget it had spent, and is logged with its traceback.
    """
    ledger = BudgetLedger()
    audit = AuditLog()
    rules = load_rules(config.rules_path) if config.rules_path else default_ruleset()
    run = _Run(config, backend, ledger, audit, rules)

    with session_pool.lease() as session:
        calls_before = session.checks_issued
        token = DEADLINE.set(time.monotonic() + config.item_time_limit)
        try:
            frame = _frame(run, session, statement, depth, MODE_INITIAL)

            if (frame.status == PARTIAL_WITH_SORRIES and depth == 0
                    and config.enable_llm_reinvoker and frame.script is not None
                    and ledger.samples_used < config.sample_cap):
                audit.append(0, "orchestrator", "feedback_reentry", statement.name)
                diags = frame.verify_result.diagnostics if frame.verify_result else []
                try:
                    retry = _frame(run, session, statement, 0, MODE_FEEDBACK_REPAIR,
                                   prior=(serialize(frame.script), diags))
                except BudgetExhausted as exc:  # the first attempt stands
                    audit.append(0, "orchestrator", "budget_exhausted", str(exc))
                    retry = frame
                rank = {PROVED: 0, PARTIAL_WITH_SORRIES: 1, FAILED: 2}
                if rank[retry.status] < rank[frame.status]:
                    frame = retry
        except BudgetExhausted as exc:
            audit.append(0, "orchestrator", "budget_exhausted", str(exc))
            frame = _FrameResult(FAILED, None, REASON_BUDGET_EXHAUSTED)
        except Exception as exc:
            log.exception("theorem %s errored: %s", statement.name, exc)
            audit.append(0, "orchestrator", "error", f"{type(exc).__name__}: {exc}")
            frame = _FrameResult(FAILED, None, f"error: {exc}")
        finally:
            DEADLINE.reset(token)

        ledger.add_repl_calls(session.checks_issued - calls_before)

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
