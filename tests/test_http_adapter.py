import json
import shutil
import socket
import ssl
import subprocess
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from dossier.cli import EXIT_OK, main
from dossier.collect.adapters import (
    MAX_BODY_BYTES,
    BadStatusError,
    MissingCredentialError,
    NetworkError,
    ResponseMappingError,
    _DeadlineReader,
    fetch_http,
)
from dossier.collect.executor import execute_stack, make_fetcher
from dossier.collect.corpus import Corpus
from dossier.collect.records import ExecutionConfig, OutcomeStatus
from dossier.inputs import InputKind, QueryInput
from dossier.routing import CollectorDescriptor, HttpCollectorConfig, accepts

import conftest

QUERY = QueryInput(InputKind.EMAIL, "Probe@X.io", "probe@x.io")


class StubHandler(BaseHTTPRequestHandler):
    redirect_hits: list = []

    def log_message(self, *args):
        pass  # keep test output clean

    def _reply(self, payload, status=200, raw=None):
        body = raw if raw is not None else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path.startswith("/person"):
            self._reply(
                {
                    "name": "Ada Lovelace",
                    "emails": ["ada@calc.example", "countess@calc.example"],
                    "details": {"city": "London"},
                    "jobs": [{"title": "mathematician"}],
                    "mixed": ["ok", {"bad": 1}],
                    "height": 1.69,
                    "verified": True,
                }
            )
        elif self.path.startswith("/fail"):
            self._reply({"error": "nope"}, status=500)
        elif self.path.startswith("/notjson"):
            self._reply(None, raw=b"this is not json")
        elif self.path.startswith("/nested"):
            self._reply(None, raw=b"[" * 100_000)
        elif self.path.startswith("/auth"):
            self._reply({"granted": self.headers.get("Authorization", "")})
        elif self.path.startswith("/redirected"):
            self.redirect_hits.append(self.headers.get("Authorization", ""))
            self._reply({"granted": "followed"})
        elif self.path.startswith("/redirect"):
            self.send_response(302)
            self.send_header("Location", "/redirected")
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif self.path in ("/drip-status", "/drip-headers"):
            # The status line or the headers one byte every 100 ms, the rest
            # at once: every socket read succeeds, and the dripped part takes
            # 1.7 s (status line) or 5.3 s (headers).
            status = b"HTTP/1.0 200 OK\r\n"
            headers = b"Content-Type: application/json\r\nContent-Length: 2\r\n\r\n"
            dripped = status if self.path == "/drip-status" else headers
            try:
                for part in (status, headers, b"{}"):
                    if part is dripped:
                        for i in range(len(part)):
                            self.wfile.write(part[i : i + 1])
                            time.sleep(0.1)
                    else:
                        self.wfile.write(part)
            except OSError:
                pass  # the client gave up
        elif self.path.startswith("/drip"):
            # One byte every 100 ms: every socket read succeeds, the body takes 5 s.
            self.send_response(200)
            self.send_header("Content-Length", "50")
            self.end_headers()
            try:
                for _ in range(50):
                    self.wfile.write(b" ")
                    time.sleep(0.1)
            except OSError:
                pass  # the client gave up
        elif self.path.startswith("/big"):
            # a JSON document of exactly the requested number of bytes;
            # /bigclose sends no Content-Length and ends it by closing
            size = int(self.path.split("=", 1)[1])
            padding = "a" * (size - len(json.dumps({"name": ""})))
            if self.path.startswith("/bigclose"):
                self.send_response(200)
                self.end_headers()
                self.wfile.write(json.dumps({"name": padding}).encode("utf-8"))
            else:
                self._reply({"name": padding})
        elif self.path.startswith("/surrogate"):
            # json.dumps escapes the lone surrogate as \ud800
            self._reply({"name": "Ann \ud800 Smith", "tags": ["ok", "\udfff"]})
        else:
            self._reply({}, status=404)

    def do_POST(self):
        self._reply({"name": "Posted Person"})


def serve(server: ThreadingHTTPServer, scheme: str):
    # A short poll interval, so that shutdown returns at once.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"{scheme}://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def stub_server():
    yield from serve(ThreadingHTTPServer(("127.0.0.1", 0), StubHandler), "http")


@pytest.fixture(scope="module")
def tls_stub_server(tmp_path_factory):
    """The stub over TLS, with a throwaway self-signed certificate for
    127.0.0.1 that the client trusts through ``SSL_CERT_FILE``."""
    if shutil.which("openssl") is None:
        pytest.skip("the openssl command is not installed")
    directory = tmp_path_factory.mktemp("tls")
    cert, key = directory / "cert.pem", directory / "key.pem"
    command = (
        "openssl req -x509 -nodes -days 1 -subj /CN=127.0.0.1"
        " -newkey ec -pkeyopt ec_paramgen_curve:P-256"
        " -addext subjectAltName=IP:127.0.0.1"
        " -addext keyUsage=critical,digitalSignature,keyCertSign"
    ).split()
    subprocess.run(
        [*command, "-keyout", str(key), "-out", str(cert)],
        check=True,
        capture_output=True,
        timeout=60,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))
        yield from serve(server, "https")


@pytest.fixture()
def closed_port() -> int:
    return conftest.closed_port()


def config(base: str, **kwargs) -> HttpCollectorConfig:
    return HttpCollectorConfig(base=base, **kwargs)


class TestFetchHttp:
    def test_maps_scalars_lists_and_nested_paths(self, stub_server):
        cfg = config(
            stub_server,
            query_template="/person?q={value}",
            response_mapping={
                "name": "full_name",
                "emails": "email",
                "details.city": "location",
                "jobs.0.title": "job_title",
                "height": "height_m",
                "missing.path": "alias",
            },
        )
        records = fetch_http("svc", cfg, QUERY)
        assert [(r.attribute, r.value) for r in records] == [
            ("email", "ada@calc.example"),
            ("email", "countess@calc.example"),
            ("full_name", "Ada Lovelace"),
            ("height_m", "1.69"),
            ("job_title", "mathematician"),
            ("location", "London"),
        ]
        url = f"{stub_server}/person?q=probe%40x.io"
        assert all(r.provenance == url for r in records)
        assert all(r.confidence == 1.0 for r in records)

    def test_empty_mapping_yields_no_records(self, stub_server):
        cfg = config(stub_server, query_template="/person?q={value}")
        assert fetch_http("svc", cfg, QUERY, timeout_ms=2000) == []

    def test_url_encoding_in_provenance(self, stub_server):
        cfg = config(
            stub_server,
            query_template="/person?q={value}&kind={kind}",
            response_mapping={"name": "full_name"},
        )
        query = QueryInput(InputKind.KEYWORD, "a b+c", "a b+c")
        (record,) = fetch_http("svc", cfg, query)
        assert record.provenance.endswith("/person?q=a%20b%2Bc&kind=keyword")

    def test_non_scalar_mapping_target_rejected(self, stub_server):
        cfg = config(
            stub_server,
            query_template="/person",
            response_mapping={"details": "location"},
        )
        with pytest.raises(
            ResponseMappingError, match=r"^field 'details' is not a scalar or list of scalars$"
        ):
            fetch_http("svc", cfg, QUERY)
        cfg = config(
            stub_server,
            query_template="/person",
            response_mapping={"mixed": "interest"},
        )
        with pytest.raises(
            ResponseMappingError, match=r"^field 'mixed' contains a non-scalar list element$"
        ):
            fetch_http("svc", cfg, QUERY)

    @pytest.mark.parametrize("path", ["name", "tags"])
    def test_a_mapped_lone_surrogate_is_a_mapping_error(self, stub_server, path):
        cfg = config(stub_server, query_template="/surrogate", response_mapping={path: "alias"})
        with pytest.raises(
            ResponseMappingError,
            match=rf"^field '{path}' is not UTF-8 text \(it holds a lone surrogate\)$",
        ):
            fetch_http("svc", cfg, QUERY)

    def test_boolean_leaf_renders_lowercase(self, stub_server):
        cfg = config(
            stub_server,
            query_template="/person",
            response_mapping={"verified": "habit"},
        )
        (record,) = fetch_http("svc", cfg, QUERY)
        assert record.value == "true"

    def test_non_2xx_status(self, stub_server):
        cfg = config(stub_server, query_template="/fail")
        with pytest.raises(BadStatusError) as exc_info:
            fetch_http("svc", cfg, QUERY)
        assert exc_info.value.status_code == 500
        assert "HTTP 500" in str(exc_info.value)

    def test_non_json_body(self, stub_server):
        cfg = config(stub_server, query_template="/notjson")
        with pytest.raises(ResponseMappingError):
            fetch_http("svc", cfg, QUERY)

    def test_body_nested_past_the_recursion_limit_is_not_json(self, stub_server):
        cfg = config(stub_server, query_template="/nested")
        with pytest.raises(ResponseMappingError, match="is not JSON"):
            fetch_http("svc", cfg, QUERY)

    def test_connection_refused_is_deterministic_network_error(self, closed_port):
        base = f"http://127.0.0.1:{closed_port}"
        cfg = config(base, query_template="/x")
        with pytest.raises(NetworkError) as exc_info:
            fetch_http("svc", cfg, QUERY, timeout_ms=2000)
        assert str(exc_info.value) == f"GET {base}/x failed: ConnectionError"

    @pytest.mark.parametrize("base", ["file:///etc", "ftp://127.0.0.1", "127.0.0.1"])
    def test_non_http_url_is_a_network_error(self, base):
        cfg = config(base, query_template="/hosts")
        with pytest.raises(NetworkError):
            fetch_http("svc", cfg, QUERY, timeout_ms=2000)

    def test_missing_credential_blocks_request(self, closed_port, monkeypatch):
        monkeypatch.delenv("SVC_TOKEN", raising=False)
        # pointing at a closed port proves no request is attempted: the
        # credential check must fire first
        cfg = config(
            f"http://127.0.0.1:{closed_port}",
            query_template="/x",
            credential_env="SVC_TOKEN",
        )
        with pytest.raises(MissingCredentialError):
            fetch_http("svc", cfg, QUERY)

    @pytest.mark.parametrize("credential", ["s3cr3t-token\n", "", "s3cr3t token", "s3cr3t=x"])
    def test_credential_that_is_no_bearer_token_blocks_request(
        self, closed_port, monkeypatch, credential
    ):
        # http.client would refuse the first as a header and quote it in its error.
        monkeypatch.setenv("SVC_TOKEN", credential)
        cfg = config(
            f"http://127.0.0.1:{closed_port}",
            query_template="/x",
            credential_env="SVC_TOKEN",
        )
        with pytest.raises(MissingCredentialError, match=r"\$SVC_TOKEN is not"):
            fetch_http("svc", cfg, QUERY)
        svc = CollectorDescriptor(name="svc", accepts=accepts("email"), http=cfg)
        (outcome,) = execute_stack(QUERY, [svc], make_fetcher(Corpus([])))
        assert "s3cr3t" not in outcome.error_detail
        assert "Bearer" not in outcome.error_detail

    def test_padded_bearer_token_sent(self, stub_server, monkeypatch):
        monkeypatch.setenv("SVC_TOKEN", "a-Z.0_9~+/b==")
        cfg = config(
            stub_server,
            query_template="/auth",
            response_mapping={"granted": "breach"},
            credential_env="SVC_TOKEN",
        )
        (record,) = fetch_http("svc", cfg, QUERY)
        assert record.value == "Bearer a-Z.0_9~+/b=="

    def test_bearer_credential_sent(self, stub_server, monkeypatch):
        monkeypatch.setenv("SVC_TOKEN", "sekrit")
        cfg = config(
            stub_server,
            query_template="/auth",
            response_mapping={"granted": "breach"},
            credential_env="SVC_TOKEN",
        )
        (record,) = fetch_http("svc", cfg, QUERY)
        assert record.value == "Bearer sekrit"

    def test_redirect_is_refused_and_never_followed(self, stub_server, monkeypatch):
        monkeypatch.setenv("SVC_TOKEN", "sekrit")
        cfg = config(
            stub_server,
            query_template="/redirect",
            response_mapping={"granted": "breach"},
            credential_env="SVC_TOKEN",
        )
        StubHandler.redirect_hits.clear()
        with pytest.raises(BadStatusError) as exc_info:
            fetch_http("svc", cfg, QUERY)
        assert exc_info.value.status_code == 302
        assert StubHandler.redirect_hits == []

    def test_body_size_is_capped(self, stub_server):
        cfg = config(
            stub_server,
            query_template=f"/big?size={MAX_BODY_BYTES}",
            response_mapping={"name": "full_name"},
        )
        (record,) = fetch_http("svc", cfg, QUERY)
        assert len(record.value) == MAX_BODY_BYTES - len('{"name": ""}')
        cfg = config(stub_server, query_template=f"/big?size={MAX_BODY_BYTES + 1}")
        with pytest.raises(ResponseMappingError, match="exceeds"):
            fetch_http("svc", cfg, QUERY)
        # Without a Content-Length the body ends when the server closes.
        cfg = config(
            stub_server,
            query_template=f"/bigclose?size={MAX_BODY_BYTES}",
            response_mapping={"name": "full_name"},
        )
        (record,) = fetch_http("svc", cfg, QUERY)
        assert len(record.value) == MAX_BODY_BYTES - len('{"name": ""}')
        cfg = config(stub_server, query_template=f"/bigclose?size={MAX_BODY_BYTES + 1}")
        with pytest.raises(ResponseMappingError, match="exceeds"):
            fetch_http("svc", cfg, QUERY)

    def test_post_method(self, stub_server):
        cfg = config(
            stub_server,
            method="POST",
            query_template="/submit",
            response_mapping={"name": "full_name"},
        )
        (record,) = fetch_http("svc", cfg, QUERY)
        assert record.value == "Posted Person"


def test_executor_absorbs_http_failures(closed_port):
    dead = CollectorDescriptor(
        name="deadsvc",
        accepts=accepts("email"),
        http=config(f"http://127.0.0.1:{closed_port}", query_template="/q"),
    )
    fetch = make_fetcher(Corpus([]), timeout_ms=2000)
    (outcome,) = execute_stack(QUERY, [dead], fetch)
    assert outcome.status is OutcomeStatus.ERROR
    assert outcome.error_detail.startswith("NetworkError:")


def test_a_lone_surrogate_in_a_reply_fails_its_collector_not_the_run(stub_server, tmp_path):
    surrogate = {
        "name": "surrogate",
        "accepts": ["email"],
        "backend": "http",
        "http": {
            "base": stub_server,
            "query_template": "/surrogate?q={value}",
            "response_mapping": {"name": "full_name"},
        },
    }
    overlay = tmp_path / "ov.json"
    overlay.write_text(json.dumps({"add": [surrogate]}))
    out = tmp_path / "r.md"
    argv = ["run", "--input", "raj.reddy@example.edu", "--corpus", "builtin"]
    argv += ["--registry", str(overlay), "--out", str(out)]
    assert main(argv) == EXIT_OK
    failures = out.read_text(encoding="utf-8").split("\n## Collection failures\n", 1)[1]
    assert (
        "- surrogate: error (ResponseMappingError: "
        "field 'name' is not UTF-8 text (it holds a lone surrogate))"
    ) in failures


def test_a_dripping_response_ends_its_thread_at_the_timeout(stub_server):
    drip = CollectorDescriptor(
        name="drip", accepts=accepts("email"), http=config(stub_server, query_template="/drip")
    )
    fetch = make_fetcher(Corpus([]), timeout_ms=300)

    def collect_threads() -> int:
        return sum(t.name == "collect-drip" for t in threading.enumerate())

    before = collect_threads()
    for _ in range(3):
        (outcome,) = execute_stack(
            QUERY, [drip], fetch, ExecutionConfig(per_collector_timeout_ms=300)
        )
        assert outcome.status is OutcomeStatus.TIMEOUT
        assert outcome.error_detail == "no response within 300 ms"
    deadline = time.monotonic() + 0.6  # twice the timeout
    while collect_threads() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert collect_threads() == before


@pytest.mark.parametrize("part", ["status", "headers"])
def test_a_dripping_status_line_or_header_block_ends_the_fetch_at_its_timeout(stub_server, part):
    """Each receive waits only for the time left, so the fetch ends within
    its timeout plus one 100 ms receive (and slack for a slow host), not
    when the dripped part is complete."""
    cfg = config(stub_server, query_template=f"/drip-{part}")
    start = time.monotonic()
    with pytest.raises(NetworkError) as exc_info:
        fetch_http("svc", cfg, QUERY, timeout_ms=300)
    elapsed = time.monotonic() - start
    assert str(exc_info.value) == f"GET {stub_server}/drip-{part} failed: Timeout"
    assert elapsed < 0.3 + 0.1 + 0.2


def test_https_fetch_maps_its_record(tls_stub_server):
    cfg = config(tls_stub_server, query_template="/person", response_mapping={"name": "full_name"})
    (record,) = fetch_http("svc", cfg, QUERY)
    assert (record.value, record.provenance) == ("Ada Lovelace", f"{tls_stub_server}/person")


def test_a_dripping_https_status_line_ends_the_fetch_at_its_timeout(tls_stub_server):
    cfg = config(tls_stub_server, query_template="/drip-status")
    start = time.monotonic()
    with pytest.raises(NetworkError) as exc_info:
        fetch_http("svc", cfg, QUERY, timeout_ms=300)
    elapsed = time.monotonic() - start
    assert str(exc_info.value) == f"GET {tls_stub_server}/drip-status failed: Timeout"
    assert elapsed < 0.3 + 0.1 + 0.2


def test_a_reader_past_its_deadline_raises_without_receiving():
    left, right = socket.socketpair()
    with left, right:
        right.sendall(b"x")
        with _DeadlineReader(left, time.perf_counter() - 1) as reader:
            with pytest.raises(TimeoutError):
                reader.readinto(bytearray(1))
        assert left.recv(1) == b"x"


def test_a_reader_waits_only_for_the_time_left():
    left, right = socket.socketpair()
    left.settimeout(5)
    with left, right, _DeadlineReader(left, time.perf_counter() + 0.2) as reader:
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            reader.readinto(bytearray(1))
        assert time.monotonic() - start < 0.2 + 0.3


def test_a_reader_reads_after_its_socket_is_closed_until_its_deadline():
    """urllib closes the socket once the headers are read; the body is
    still read through the reader, within the same deadline."""
    left, right = socket.socketpair()
    left.settimeout(1)  # so that a reader that ignores its deadline does not hang
    deadline = time.perf_counter() + 0.25
    with right, _DeadlineReader(left, deadline) as reader:
        left.close()
        right.sendall(b"hi")
        buffer = bytearray(2)
        assert reader.readinto(buffer) == 2
        assert buffer == b"hi"
        time.sleep(max(0.0, deadline - time.perf_counter()))
        with pytest.raises(TimeoutError):
            reader.readinto(buffer)


def test_cli_import_pulls_in_no_http_library():
    probe = (
        "import sys, dossier.cli; "
        "print(sorted({'requests', 'urllib3', 'http.client'} & sys.modules.keys()))"
    )
    assert conftest.run_probe(probe) == "[]"
