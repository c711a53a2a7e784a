"""Client for the Lean REPL JSON protocol.

One request/response pair per check; requests are a JSON object followed by
a blank line on the subprocess stdin, responses a JSON object followed by a
blank line on stdout.  Timeouts and crashes are returned as result values
rather than raised, so the repair loop can count them.
"""

from __future__ import annotations

import json
import queue
import shlex
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import HeaderFailed, MalformedResponse, SpawnFailed

PASS = "pass"
PASS_WITH_SORRIES = "pass_with_sorries"
FAIL = "fail"
TIMEOUT = "timeout"
REPL_CRASH = "repl_crash"

SORRY_MARKER = "declaration uses 'sorry'"

DEFAULT_TIMEOUT = 300.0
TIMEOUT_GRACE = 2.0


@dataclass(frozen=True)
class Position:
    line: int  # 1-based
    column: int  # 0-based


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # error | warning | info
    pos: Position
    end_pos: Position | None
    message: str

    @property
    def is_error(self) -> bool:
        return self.severity == "error"


@dataclass(frozen=True)
class SorryInfo:
    pos: Position
    end_pos: Position
    goal: str
    proof_state_id: int | None


@dataclass
class CompileResult:
    status: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    sorries: list[SorryInfo] = field(default_factory=list)
    env_id: int | None = None
    wall_time: float = 0.0
    raw: dict | None = field(default=None, repr=False)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def ok(self) -> bool:
        return self.status in (PASS, PASS_WITH_SORRIES)


def normalize_code(code: str) -> str:
    """Trim trailing whitespace per line and trailing blank lines; this is
    the form sent to the REPL."""
    lines = [ln.rstrip() for ln in code.split("\n")]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def _position(obj) -> Position:
    return Position(int(obj["line"]), int(obj["column"]))


def classify(raw: dict) -> CompileResult:
    """Deterministically map one protocol response to a CompileResult."""
    if not isinstance(raw, dict):
        raise MalformedResponse(f"expected an object, got {type(raw).__name__}")
    try:
        diagnostics = []
        for msg in raw.get("messages", []) or []:
            end = msg.get("endPos")
            diagnostics.append(Diagnostic(
                msg["severity"],
                _position(msg["pos"]),
                _position(end) if end else None,
                msg.get("data", ""),
            ))
        sorries = []
        for s in raw.get("sorries", []) or []:
            sorries.append(SorryInfo(
                _position(s["pos"]),
                _position(s["endPos"]),
                s.get("goal", ""),
                s.get("proofState"),
            ))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedResponse(f"bad protocol message: {exc}") from exc

    env = raw.get("env")
    if env is None:
        # a command-level error ({"message": ...}): nothing was compiled
        diagnostics.append(Diagnostic(
            "error", Position(1, 0), None,
            raw.get("message") or "REPL reply carries no environment"))
    has_error = any(d.is_error for d in diagnostics)
    has_sorry_marker = any(
        SORRY_MARKER in d.message for d in diagnostics if d.severity == "warning"
    )
    if has_error:
        status = FAIL
    elif sorries or has_sorry_marker:
        status = PASS_WITH_SORRIES
    else:
        status = PASS
    return CompileResult(status, diagnostics, sorries,
                         int(env) if env is not None else None, raw=raw)


class _Proc:
    """One subprocess with a background reader thread."""

    def __init__(self, command: list[str], cwd: str | None):
        try:
            self.popen = subprocess.Popen(
                command,
                cwd=cwd,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
        except OSError as exc:
            raise SpawnFailed(f"could not start {command[0]!r}: {exc}") from exc
        self.responses: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_loop(self):
        buf: list[str] = []
        stream = self.popen.stdout
        for line in stream:
            if line.strip():
                buf.append(line)
            elif buf:
                self.responses.put("".join(buf))
                buf = []
        if buf:
            self.responses.put("".join(buf))
        self.responses.put(None)  # EOF sentinel

    def send(self, payload: str) -> bool:
        try:
            self.popen.stdin.write(payload)
            self.popen.stdin.flush()
            return True
        except (BrokenPipeError, OSError, ValueError):
            return False

    def kill(self):
        try:
            self.popen.kill()
            self.popen.wait(timeout=5)
        except Exception:
            pass
        try:
            self.popen.stdin.close()
        except OSError:
            pass  # unsent bytes to a dead child: the pipe is closed anyway
        # stdout is the reader's until it has seen EOF; if it is still
        # blocked a second later, the daemon thread keeps the pipe
        self._reader.join(timeout=1.0)
        if not self._reader.is_alive():
            self.popen.stdout.close()


class Session:
    """Exclusive-owner handle on one REPL subprocess.

    The import header is compiled once into a cached environment whose id is
    threaded into every later check, so Mathlib elaboration is paid once per
    (re)spawn.  After a Timeout the subprocess is killed and respawned lazily
    on the next check; a crash mid-check, or a reply that is not JSON, is
    respawned and retried once.
    """

    def __init__(self, command: list[str], project_root: str | None,
                 import_header: str):
        self.command = command
        self.project_root = project_root
        self.import_header = import_header
        self._proc: _Proc | None = None
        self._env: int | None = None
        self._lock = threading.Lock()
        self.checks_issued = 0
        self._spawn_and_prime()

    def _spawn_and_prime(self):
        self._proc = _Proc(self.command, self.project_root)
        self._env = None
        if not self.import_header.strip():
            return
        result = self._roundtrip(self.import_header, DEFAULT_TIMEOUT)
        if result.status != PASS:
            self._drop()
            if result.status in (REPL_CRASH, TIMEOUT):
                raise SpawnFailed(f"{shlex.join(self.command)}: {result.status} "
                                  f"on the import header")
            raise HeaderFailed(result.errors or result.diagnostics)
        self._env = result.env_id

    def _drop(self):
        if self._proc is not None:
            self._proc.kill()
            self._proc = None

    def _roundtrip(self, code: str, timeout: float) -> CompileResult:
        """Send one request and wait for its response; no retry logic."""
        started = time.monotonic()
        request = {"cmd": normalize_code(code)}
        if self._env is not None:
            request["env"] = self._env
        if not self._proc.send(json.dumps(request, ensure_ascii=False) + "\n\n"):
            return CompileResult(REPL_CRASH, wall_time=time.monotonic() - started)
        try:
            payload = self._proc.responses.get(timeout=timeout)
        except queue.Empty:
            self._drop()
            return CompileResult(TIMEOUT, wall_time=time.monotonic() - started)
        try:
            reply = None if payload is None else json.loads(payload)
        except ValueError:
            reply = None  # undecodable: the caller kills the process
        if reply is None:
            return CompileResult(REPL_CRASH, wall_time=time.monotonic() - started)
        result = classify(reply)
        result.wall_time = time.monotonic() - started
        return result

    def check(self, code: str, timeout: float = DEFAULT_TIMEOUT) -> CompileResult:
        """Compile `code` against the cached environment.

        Timeout and ReplCrash come back as statuses, never exceptions; both
        leave the session ready for the next check.
        """
        with self._lock:
            self.checks_issued += 1
            if self._proc is None:
                self._spawn_and_prime()
            result = self._roundtrip(code, timeout)
            if result.status == REPL_CRASH:
                # one retry on a fresh subprocess
                self._drop()
                self._spawn_and_prime()
                result = self._roundtrip(code, timeout)
                if result.status == REPL_CRASH:
                    self._drop()
            return result

    def close(self):
        with self._lock:
            self._drop()


def start_session(repl_executable, project_root=None,
                  import_header: str = "import Mathlib") -> Session:
    """Spawn a REPL subprocess and prime its import header environment.

    `repl_executable` may be a path, a shell-style command string, or an
    argv list.
    """
    if isinstance(repl_executable, (list, tuple)):
        command = list(repl_executable)
    else:
        command = shlex.split(str(repl_executable))
    return Session(command, project_root, import_header)


class SessionPool:
    """Hands out sessions under exclusive leases, one per worker."""

    def __init__(self, sessions: list):
        self._queue: queue.Queue = queue.Queue()
        self._all = list(sessions)
        for s in self._all:
            self._queue.put(s)

    @classmethod
    def build(cls, factory, size: int) -> "SessionPool":
        return cls([factory() for _ in range(size)])

    @contextmanager
    def lease(self):
        session = self._queue.get()
        try:
            yield session
        finally:
            self._queue.put(session)

    def close(self):
        for s in self._all:
            s.close()
