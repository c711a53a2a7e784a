"""Candidate-proof generation over chat-completion endpoints or fixtures.

Backends are shareable across workers; sample and token accounting happens
in the caller's ledger from the returned result, so transport retries can
never double-count.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import requests

from .errors import BackendError
from .proofscript import TheoremStatement

MODE_INITIAL = "initial"
MODE_SUB_LEMMA = "sub_lemma"
MODE_FEEDBACK_REPAIR = "feedback_repair"

_FENCE_RE = re.compile(r"```(?:lean4|lean)?\s*\n(.*?)```", re.DOTALL)

_MAX_RETRIES = 3
_BACKOFF_BASE = 0.5

DEFAULT_TOKEN_ENV = "APOLLO_API_TOKEN"


@dataclass(frozen=True)
class Decoding:
    temperature: float = 1.0
    max_tokens: int = 16384


@dataclass(frozen=True)
class GenerationRequest:
    statement: TheoremStatement
    mode: str = MODE_INITIAL
    k: int = 1
    prior_attempt: tuple[str, list] | None = None  # (proof text, diagnostics)
    decoding: Decoding = field(default_factory=Decoding)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.mode == MODE_FEEDBACK_REPAIR and self.prior_attempt is None:
            raise ValueError("feedback_repair requires a prior attempt")


@dataclass
class GenerationResult:
    candidates: list[str]
    tokens_generated: int


def extract_lean_code(completion: str) -> str:
    """The first fenced code block, or the whole text when none exists."""
    m = _FENCE_RE.search(completion)
    if m:
        return m.group(1).strip("\n")
    return completion.strip()


def _format_diagnostics(diagnostics) -> str:
    return "\n".join(f"line {d.pos.line}, column {d.pos.column}: "
                     f"{d.severity}: {d.message}" for d in diagnostics)


def render_prompt(request: GenerationRequest) -> str:
    """Deterministic prompt text for a request.

    Plain generation shows header, informal prefix and formal statement;
    feedback repair wraps them in the incorrect-proof / compilation-errors
    schema.  Empty sections are omitted without placeholder blanks.
    """
    stmt = request.statement
    sections = []
    if request.mode == MODE_FEEDBACK_REPAIR:
        proof_text, diagnostics = request.prior_attempt
        sections.append("This is an incorrect proof:")
        sections.append(proof_text.rstrip())
        sections.append("Compilation errors are as follows:")
        sections.append(_format_diagnostics(diagnostics))
        sections.append("Based on this feedback, produce a correct raw Lean "
                        "code for the following problem:")
    if stmt.header.strip():
        sections.append(stmt.header.strip())
    if stmt.informal_prefix and stmt.informal_prefix.strip():
        sections.append(stmt.informal_prefix.strip())
    sections.append(stmt.statement_text.strip())
    return "\n\n".join(s for s in sections if s)


class HttpBackend:
    """Chat-completion-style endpoint client.

    Sends n=k where the endpoint supports it, otherwise issues k sequential
    single-sample calls.  Transport failures retry up to three times with
    exponential backoff; a 429 honors a Retry-After in seconds before
    counting as a try, and backs off exponentially when it is an HTTP-date.
    """

    def __init__(self, base_url: str, model: str,
                 token_env: str = DEFAULT_TOKEN_ENV,
                 supports_n: bool = True, request_timeout: float = 120.0):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.token_env = token_env
        self.supports_n = supports_n
        self.request_timeout = request_timeout

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _post(self, payload: dict) -> dict:
        url = self.base_url + "/chat/completions"
        last_exc: Exception | None = None
        for attempt in range(_MAX_RETRIES + 1):
            try:
                response = requests.post(url, json=payload,
                                         headers=self._headers(),
                                         timeout=self.request_timeout)
            except requests.RequestException as exc:
                last_exc = exc
                time.sleep(_BACKOFF_BASE * (2 ** attempt))
                continue
            if response.status_code == 429:
                try:
                    retry_after = float(response.headers.get("Retry-After", 1.0))
                except ValueError:
                    retry_after = -1.0
                if not retry_after >= 0:  # an HTTP-date, a negative or a NaN
                    retry_after = _BACKOFF_BASE * (2 ** attempt)
                if attempt == _MAX_RETRIES:
                    raise BackendError("rate_limited", "rate limited",
                                       retry_after=retry_after)
                time.sleep(min(retry_after, 30.0))
                continue
            if response.status_code >= 500:
                last_exc = BackendError("transport",
                                        f"server error {response.status_code}")
                time.sleep(_BACKOFF_BASE * (2 ** attempt))
                continue
            if response.status_code != 200:
                raise BackendError("transport",
                                   f"unexpected status {response.status_code}: "
                                   f"{response.text[:200]}")
            try:
                return response.json()
            except ValueError as exc:
                raise BackendError("transport",
                                   f"response body is not JSON: "
                                   f"{response.text[:200]!r}") from exc
        raise BackendError("transport", f"gave up after retries: {last_exc}")

    def generate(self, request: GenerationRequest) -> GenerationResult:
        prompt = render_prompt(request)
        base_payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": request.decoding.temperature,
            "max_tokens": request.decoding.max_tokens,
        }
        calls = [dict(base_payload, n=request.k)] if self.supports_n else [
            dict(base_payload) for _ in range(request.k)
        ]
        candidates: list[str] = []
        tokens = 0
        for payload in calls:
            data = self._post(payload)
            choices = data.get("choices", [])
            texts = [c.get("message", {}).get("content", "") for c in choices]
            texts = [t for t in texts if t]
            usage = data.get("usage", {})
            if "completion_tokens" in usage:
                tokens += int(usage["completion_tokens"])
            else:  # no usage reported: count words
                tokens += sum(len(t.split()) for t in texts)
            candidates.extend(extract_lean_code(t) for t in texts)
        if not candidates:
            raise BackendError("empty_completion", "endpoint returned no text")
        return GenerationResult(candidates[: request.k], tokens)


class MockBackend:
    """Deterministic fixture-backed backend.

    The fixture directory has one subdirectory per statement name holding
    numbered candidate files plus a meta.json with per-candidate token
    counts.  Candidates are consumed in order across calls; exhaustion, or
    no directory for the name, surfaces as an empty_completion error.
    """

    def __init__(self, fixture_dir):
        self.fixture_dir = Path(fixture_dir)
        self._cursor: dict[str, int] = {}
        self._lock = threading.Lock()

    def _load_key(self, key: str) -> tuple[list[str], list[int]]:
        directory = self.fixture_dir / key
        if not directory.is_dir():
            return [], []
        files = sorted(p for p in directory.iterdir()
                       if p.suffix == ".lean" and p.stem.isdigit())
        candidates = [p.read_text(encoding="utf-8") for p in files]
        tokens = [len(c.split()) for c in candidates]
        meta_path = directory / "meta.json"
        if meta_path.exists():
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            recorded = meta.get("tokens", [])
            for i, count in enumerate(recorded[: len(tokens)]):
                tokens[i] = int(count)
        return candidates, tokens

    def generate(self, request: GenerationRequest) -> GenerationResult:
        key = request.statement.name
        candidates, tokens = self._load_key(key)
        with self._lock:
            start = self._cursor.get(key, 0)
            chosen = candidates[start : start + request.k]
            used_tokens = tokens[start : start + request.k]
            self._cursor[key] = start + len(chosen)
        if not chosen:
            raise BackendError("empty_completion",
                               f"mock backend exhausted for {key!r}")
        return GenerationResult([extract_lean_code(c) for c in chosen],
                                sum(used_tokens))
