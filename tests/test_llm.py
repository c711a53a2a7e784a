import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from apollo.errors import BackendError
from apollo.llm import (
    Decoding,
    GenerationRequest,
    HttpBackend,
    MockBackend,
    extract_lean_code,
    render_prompt,
)
from apollo.proofscript import TheoremStatement
from apollo.repl import Diagnostic, Position

STMT = TheoremStatement(
    "demo", "import Mathlib\n", "theorem demo : 1 = 1 := by",
    informal_prefix="/-- One equals one. -/")
STMT_NO_PREFIX = TheoremStatement("demo", "import Mathlib\n",
                                  "theorem demo : 1 = 1 := by")


def test_render_initial_prompt_sections():
    prompt = render_prompt(GenerationRequest(STMT))
    assert prompt == (
        "import Mathlib\n\n/-- One equals one. -/\n\ntheorem demo : 1 = 1 := by")


def test_render_omits_empty_informal_prefix():
    prompt = render_prompt(GenerationRequest(STMT_NO_PREFIX))
    assert prompt == "import Mathlib\n\ntheorem demo : 1 = 1 := by"
    assert "\n\n\n" not in prompt


def test_render_feedback_schema_markers_in_order():
    diags = [Diagnostic("error", Position(3, 2), None, "unknown tactic 'frob'")]
    request = GenerationRequest(
        STMT, mode="feedback_repair", prior_attempt=("bad proof text", diags))
    prompt = render_prompt(request)
    markers = [
        "This is an incorrect proof:",
        "bad proof text",
        "Compilation errors are as follows:",
        "unknown tactic 'frob'",
        "Based on this feedback, produce a correct raw Lean code for the "
        "following problem:",
        "import Mathlib",
        "theorem demo : 1 = 1 := by",
    ]
    positions = [prompt.index(m) for m in markers]
    assert positions == sorted(positions)


def test_render_sub_lemma_has_no_diagnostics_section():
    prompt = render_prompt(GenerationRequest(STMT, mode="sub_lemma"))
    assert "Compilation errors" not in prompt
    assert "incorrect proof" not in prompt


def test_prompt_injective_in_diagnostics():
    def prompt_for(msg):
        diags = [Diagnostic("error", Position(3, 2), None, msg)]
        return render_prompt(GenerationRequest(
            STMT, mode="feedback_repair", prior_attempt=("p", diags)))

    assert prompt_for("unknown tactic 'a'") != prompt_for("unknown tactic 'b'")


def test_feedback_requires_prior_attempt():
    with pytest.raises(ValueError):
        GenerationRequest(STMT, mode="feedback_repair")
    with pytest.raises(ValueError):
        GenerationRequest(STMT, k=0)


def test_extract_lean_code_variants():
    fenced = "Reasoning here.\n```lean\ntheorem t : 1 = 1 := by rfl\n```\nDone."
    assert extract_lean_code(fenced) == "theorem t : 1 = 1 := by rfl"
    fenced4 = "```lean4\nfoo\n```"
    assert extract_lean_code(fenced4) == "foo"
    bare = "```\nbar\n```"
    assert extract_lean_code(bare) == "bar"
    assert extract_lean_code("  raw proof text  ") == "raw proof text"


# --- mock backend -----------------------------------------------------------

def _write_fixture(root, key, texts, tokens=None):
    d = root / key
    d.mkdir(parents=True)
    for i, text in enumerate(texts):
        (d / f"{i:03d}.lean").write_text(text)
    if tokens is not None:
        (d / "meta.json").write_text(json.dumps({"tokens": tokens}))


def test_mock_backend_pops_in_order(tmp_path):
    _write_fixture(tmp_path, "demo", ["cand0", "cand1", "cand2"], [5, 7, 9])
    backend = MockBackend(tmp_path)
    first = backend.generate(GenerationRequest(STMT, k=2))
    assert first.candidates == ["cand0", "cand1"]
    assert first.tokens_generated == 12
    second = backend.generate(GenerationRequest(STMT, k=2))
    assert second.candidates == ["cand2"]
    with pytest.raises(BackendError) as excinfo:
        backend.generate(GenerationRequest(STMT, k=2))
    assert excinfo.value.kind == "empty_completion"


def test_mock_backend_extracts_fenced_code(tmp_path):
    _write_fixture(tmp_path, "demo", ["```lean\ninner proof\n```"])
    backend = MockBackend(tmp_path)
    assert backend.generate(GenerationRequest(STMT, k=1)).candidates == ["inner proof"]


# --- http backend -----------------------------------------------------------

class _Endpoint(BaseHTTPRequestHandler):
    calls = []
    behavior = []  # queue of ("ok"|"500"|"429"|"429-date"|"text", payload) entries

    def do_POST(self):  # noqa: N802
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        _Endpoint.calls.append({
            "body": body, "auth": self.headers.get("Authorization")})
        kind, payload = (_Endpoint.behavior.pop(0) if _Endpoint.behavior
                         else ("ok", None))
        if kind == "500":
            self.send_response(500)
            self.end_headers()
            return
        if kind in ("429", "429-date"):
            self.send_response(429)
            self.send_header("Retry-After", "0.05" if kind == "429" else
                             "Wed, 21 Oct 2015 07:28:00 GMT")
            self.end_headers()
            return
        if kind == "text":
            data = payload.encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return
        n = body.get("n", 1)
        response = payload or {
            "choices": [{"message": {"content": f"```lean\nproof {i}\n```"}}
                        for i in range(n)],
            "usage": {"completion_tokens": 42 * n},
        }
        data = json.dumps(response).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint():
    _Endpoint.calls = []
    _Endpoint.behavior = []
    server = HTTPServer(("127.0.0.1", 0), _Endpoint)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_http_backend_sends_n_and_counts_usage(endpoint, monkeypatch):
    monkeypatch.setenv("APOLLO_API_TOKEN", "secret-token")
    backend = HttpBackend(endpoint, "test-model")
    request = GenerationRequest(STMT, k=3, decoding=Decoding(0.7, 512))
    result = backend.generate(request)
    assert result.candidates == ["proof 0", "proof 1", "proof 2"]
    assert result.tokens_generated == 126
    assert not result.tokens_estimated
    call = _Endpoint.calls[0]
    assert call["body"]["n"] == 3
    assert call["body"]["model"] == "test-model"
    assert call["body"]["temperature"] == 0.7
    assert call["body"]["max_tokens"] == 512
    assert call["auth"] == "Bearer secret-token"


def test_http_backend_sequential_when_n_unsupported(endpoint):
    backend = HttpBackend(endpoint, "m", supports_n=False)
    result = backend.generate(GenerationRequest(STMT, k=3))
    assert len(result.candidates) == 3
    assert len(_Endpoint.calls) == 3
    assert all("n" not in c["body"] for c in _Endpoint.calls)


def test_http_backend_retries_on_500_without_double_count(endpoint):
    _Endpoint.behavior = [("500", None)]
    backend = HttpBackend(endpoint, "m")
    result = backend.generate(GenerationRequest(STMT, k=2))
    assert len(result.candidates) == 2
    assert result.tokens_generated == 84  # one successful call only


def test_http_backend_honors_retry_after(endpoint):
    _Endpoint.behavior = [("429", None)]
    backend = HttpBackend(endpoint, "m")
    result = backend.generate(GenerationRequest(STMT, k=1))
    assert len(result.candidates) == 1


def test_http_backend_backs_off_on_retry_after_date(endpoint, monkeypatch):
    # RFC 9110 allows Retry-After as an HTTP-date; it gets the backoff
    sleeps = []
    monkeypatch.setattr("apollo.llm.time.sleep", sleeps.append)
    _Endpoint.behavior = [("429-date", None)]
    backend = HttpBackend(endpoint, "m")
    result = backend.generate(GenerationRequest(STMT, k=1))
    assert len(result.candidates) == 1
    assert sleeps == [0.5]


def test_http_backend_estimates_tokens_without_usage(endpoint):
    _Endpoint.behavior = [("ok", {
        "choices": [{"message": {"content": "alpha beta gamma"}}]})]
    backend = HttpBackend(endpoint, "m")
    result = backend.generate(GenerationRequest(STMT, k=1))
    assert result.tokens_generated == 3
    assert result.tokens_estimated


def test_http_backend_empty_completion(endpoint):
    _Endpoint.behavior = [("ok", {"choices": [], "usage": {}})]
    backend = HttpBackend(endpoint, "m")
    with pytest.raises(BackendError) as excinfo:
        backend.generate(GenerationRequest(STMT, k=1))
    assert excinfo.value.kind == "empty_completion"


def test_http_backend_non_json_body_is_transport_error(endpoint):
    _Endpoint.behavior = [("text", "<html>gateway says hello</html>")]
    backend = HttpBackend(endpoint, "m")
    with pytest.raises(BackendError) as excinfo:
        backend.generate(GenerationRequest(STMT, k=1))
    assert excinfo.value.kind == "transport"
