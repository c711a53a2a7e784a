"""Exception hierarchy shared across the repair pipeline."""

from __future__ import annotations


class ApolloError(Exception):
    """Base class for all errors raised by this package."""


# --- proof script parsing / editing ---

class ParseError(ApolloError):
    pass


class UnterminatedComment(ParseError):
    pass


class NoProofBody(ParseError):
    """No `:= by` introducing a tactic proof was found; the text is unusable."""


class NodeNotFound(ApolloError):
    pass


# --- REPL client ---

class SpawnFailed(ApolloError):
    pass


class HeaderFailed(ApolloError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        detail = "; ".join(d.message.splitlines()[0] for d in self.diagnostics[:3])
        super().__init__(f"import header failed to compile: {detail}")


class MalformedResponse(ApolloError):
    pass


# --- syntax refiner ---

class RefineError(ApolloError):
    pass


class RuleBudgetExceeded(RefineError):
    pass


# --- sorrifier ---

class SorrifyError(ApolloError):
    pass


class Nonterminating(SorrifyError):
    pass


class StatementMalformed(SorrifyError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        detail = "; ".join(d.message.splitlines()[0] for d in self.diagnostics[:3])
        super().__init__(f"theorem statement is malformed: {detail}")


class NoEnclosingNode(ApolloError):
    pass


# --- goal extraction / splicing ---

class ExtractError(ApolloError):
    pass


class UnparseableGoal(ExtractError):
    pass


class TransformError(ApolloError):
    pass


class StatementRejected(TransformError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("sub-lemma statement rejected by the compiler")


class SpliceError(ApolloError):
    pass


class SiteVanished(SpliceError):
    pass


# --- LLM backend ---

class BackendError(ApolloError):
    """Raised by generation backends. `kind` is one of transport,
    rate_limited, empty_completion."""

    def __init__(self, kind: str, message: str = "", retry_after: float | None = None):
        self.kind = kind
        self.retry_after = retry_after
        super().__init__(message or kind)


# --- budget ---

class BudgetExhausted(ApolloError):
    """The theorem's sample cap or wall-clock limit is spent."""


# --- dataset ingestion ---

class IngestError(ApolloError):
    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
