import http.client
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
import zlib
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bulletsum
from bulletsum import kernels, pipeline, services
from bulletsum.config import PipelineConfig
from bulletsum.errors import MalformedResponse, ServiceUnavailable
from bulletsum.qbank import generate_questions_external
from bulletsum.retrieval import build_context
from bulletsum.services import EmbeddingClient, GenerationClient, QGClient
from conftest import needs_cc

BOW_WIDTH = 16
SLOW_REPLY_S = 0.5
HTTP_MODULES = ("requests", "urllib3", "http.client", "ssl")
# Bodies of the /<name>/v1/embed routes: two vectors that are not finite numbers.
BAD_VECTORS = {
    "strings": '{"vectors": [["1", "2"], ["3", "4"]]}',
    "bools": '{"vectors": [[true, false], [false, true]]}',
    "nonfinite": '{"vectors": [[NaN, 1.0], [Infinity, 2]]}',
    "nulls": '{"vectors": [[null, 1.0], [2.0, 3.0]]}',
    "objects": '{"vectors": [{"a": 1}, {"b": 2}]}',
    "hugeint": '{"vectors": [[1%s, 1], [2, 3]]}' % ("0" * 400),
}
# Bodies of the /mixed/v1/embed route for a batch that starts with the key.
BAD_BODIES = {"garbage": "this is not json", "nonfinite": BAD_VECTORS["nonfinite"]}


def bow_vector(text: str) -> list[float]:
    """Word counts hashed into ``BOW_WIDTH`` buckets: the ``/bow`` route's vectors."""
    vector = [0.0] * BOW_WIDTH
    for word in re.findall(r"\w+", text.lower()):
        vector[zlib.crc32(word.encode("utf-8")) % BOW_WIDTH] += 1.0
    return vector


# JSON numbers that are finite doubles, as the decoder must read them.
FINITE_NUMBERS = st.one_of(
    st.sampled_from([
        "0", "-0", "-0.0", "0e0", "-0e-0", "1e308", "-1.2e-05", "1E+2", "4.9e-324", "1e-400",
        "0.1", "1.7976931348623157e308", "123456789012345", "1234567890123456",
        str(2**53 + 1), str(2**63 + 1), str(2**64 + 1), str(-(2**64) - 1), "1" + "0" * 308,
    ]),
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"-?(0|[1-9][0-9]{0,20})(\.[0-9]{1,20})?([eE][+-]?[0-9]{1,2})?", fullmatch=True),
)
# Literals that are not a finite JSON number.
BAD_NUMBERS = [
    "1e400", "-1e400", "1" + "0" * 400, "01", "-01", "00", "1.", ".5", "+1", "-", "1e", "1e+",
    "0x1", "NaN", "Infinity", "-Infinity", "true", "false", '"1"', "null", "[1]", "[]", "{}",
    "1 2", "\u0661", "1\f",
]
# Embed bodies for one text that the decoder must leave to the reference.
NOT_CANONICAL = [
    *('{"vectors": [[1, %s]]}' % number for number in BAD_NUMBERS),
    '{"vectors": [[1, 2]]}x', '{"vectors": [[1, 2]]}}', '{"vectors": [[1, 2]]}\0',
    '{"vectors": [[1, 2]] 1}', '{"vectors": [[1, 2]]', '{"vectors": [[1, 2', '{"vectors": [[1, 2],',
    '{"vectors": [[1, 2]], "model": "x"}', '{"vectors": [[1]], "vectors": [[1, 2]]}',
    '{"vect\\u006frs": [[1, 2]]}', '{"vectors": [[[1, 2]]]}', '{"vectors": [[]]}',
    '{"vectors": []}', '{"vectors": [[1, 2], [3]]}', '\ufeff{"vectors": [[1, 2]]}',
]
WHITESPACE = st.sampled_from(["", "", " ", "\t", "\n", "\r\n", "  "])


@st.composite
def embed_bodies(draw):
    """An embed response body and the number of texts it answers, and whether it is canonical."""

    def ws():
        return draw(WHITESPACE)

    width = draw(st.integers(1, 4))
    rows = [[draw(FINITE_NUMBERS) for _ in range(width)] for _ in range(draw(st.integers(1, 4)))]
    n_texts = draw(st.sampled_from([len(rows)] * 4 + [len(rows) - 1, len(rows) + 1]))
    row = draw(st.integers(0, len(rows) - 1))
    fault = draw(st.sampled_from(
        ["none"] * 6 + ["number", "ragged", "empty row", "deeper", "no rows", "key", "escaped key",
                        "extra key", "duplicate key", "trailing", "truncated", "utf-16", "bom"]
    ))
    if fault == "number":
        rows[row][draw(st.integers(0, width - 1))] = draw(st.sampled_from(BAD_NUMBERS))
    elif fault == "ragged":
        rows[row] = rows[row][:-1] if width > 1 else rows[row] * 2
    elif fault == "empty row":
        rows[row] = []
    elif fault == "deeper":
        rows[row] = ["[" + ",".join(rows[row]) + "]"]
    elif fault == "no rows":
        rows = []
    vectors = ",".join(
        ws() + "[" + ",".join(ws() + number + ws() for number in numbers) + "]" + ws()
        for numbers in rows
    )
    key = {"key": '"vector"', "escaped key": '"vect\\u006frs"'}.get(fault, '"vectors"')
    members = [f"{ws()}{key}{ws()}:{ws()}[{vectors}]{ws()}"]
    if fault == "extra key":
        members.append(f'{ws()}"model"{ws()}:{ws()}"x"{ws()}')
    if fault == "duplicate key":
        members.append(members[0])
    text = ws() + "{" + ",".join(members) + "}" + ws()
    if fault == "trailing":
        text += draw(st.sampled_from(["x", "}", "\0", " 1", "\f"]))
    body = text.encode({"utf-16": "utf-16", "bom": "utf-8-sig"}.get(fault, "utf-8"))
    if fault == "truncated":
        body = body[: draw(st.integers(0, len(body) - 1))]
    canonical = fault == "none" and n_texts == len(rows)
    return body, n_texts, canonical


def decoded(body: bytes, n_texts: int):
    """What ``_decode`` gives for ``body``: dtype, shape and bytes, or the error message."""
    client = EmbeddingClient("http://127.0.0.1:9")  # never contacted
    try:
        matrix = client._decode(["text"] * n_texts, body)
    except MalformedResponse as exc:
        return str(exc)
    return matrix.dtype, matrix.shape, matrix.tobytes()


def reference_decoded(body: bytes, n_texts: int):
    """``decoded`` with the compiled decoder unavailable."""
    with mock.patch.object(kernels, "load", lambda *kernel: None):
        return decoded(body, n_texts)


class _Handler(BaseHTTPRequestHandler):
    """Implements the three wire protocols plus failure routes, and refuses to proxy."""

    def log_message(self, fmt, *args):
        pass

    def _read_payload(self):
        length = int(self.headers.get("Content-Length", 0))
        return json.loads(self.rfile.read(length))

    def _reply(self, status, body, raw=False):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        data = body if raw else json.dumps(body)
        self.wfile.write(data.encode("utf-8"))

    def _proxy_refused(self):
        line = f"{self.command} {self.path}"
        self.server.proxy_log.append((line, self.headers.get("Proxy-Authorization")))
        self._reply(502, {"detail": "no proxying"})

    do_CONNECT = _proxy_refused

    def do_POST(self):
        self.server.connection_log.append(self.headers.get("Connection"))
        payload = self._read_payload()
        if self.path.startswith("http://"):
            self._proxy_refused()
        elif self.path == "/v1/question":
            sentence = payload["sentence"]
            self._reply(200, {"question": f"what is {sentence.rstrip('.?!')}?"})
        elif self.path == "/v1/embed":
            texts = payload["texts"]
            # deterministic 3-dim vectors derived from text length
            vectors = [[len(t), len(t.split()), 1.0] for t in texts]
            self._reply(200, {"vectors": vectors})
        elif self.path == "/v1/generate":
            self._reply(200, {"text": "bullet one\nbullet two"})
        elif self.path.startswith("/down"):
            self._reply(503, {"detail": "overloaded"})
        elif self.path.startswith("/garbage"):
            self._reply(200, "this is not json", raw=True)
        elif self.path.startswith("/badschema/v1/embed"):
            self._reply(200, {"vectors": [[1.0, 2.0], [3.0]]})
        elif self.path == "/zerowidth/v1/embed":
            self._reply(200, {"vectors": [[] for _ in payload["texts"]]})
        elif self.path == "/widening/v1/embed":
            # every vector of a response is one wider than the batch is long
            width = len(payload["texts"]) + 1
            self._reply(200, {"vectors": [[1.0] * width for _ in payload["texts"]]})
        elif self.path in ("/bow/v1/embed", "/mixed/v1/embed"):
            texts = payload["texts"]
            self.server.embed_log.append(texts)
            if self.path == "/mixed/v1/embed" and texts[0] in BAD_BODIES:
                self._reply(200, BAD_BODIES[texts[0]], raw=True)
            else:
                self._reply(200, {"vectors": [bow_vector(t) for t in texts]})
        elif self.path.startswith("/badschema"):
            self._reply(200, {"unexpected": "keys"})
        elif self.path == "/created/v1/question":
            self._reply(201, {"question": "what is created?"})
        elif self.path.startswith("/slow"):
            time.sleep(SLOW_REPLY_S)
            self._reply(200, {"question": "what is late?"})
        elif self.path.startswith("/truncated"):
            # promises more bytes than it sends, then closes the connection
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"question"')
        elif self.path.endswith("/v1/embed") and self.path.split("/")[1] in BAD_VECTORS:
            self._reply(200, BAD_VECTORS[self.path.split("/")[1]], raw=True)
        else:
            self._reply(404, {"detail": "not found"})


class _Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # A client that stops early closes a connection before reading its reply.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


@pytest.fixture(scope="module")
def server():
    server = _Server(("127.0.0.1", 0), _Handler)
    server.embed_log = []  # the texts of each /bow embed request, in arrival order
    server.connection_log = []  # the Connection header of each request
    server.proxy_log = []  # (request line, Proxy-Authorization) of each proxied request
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def server_url(server):
    return f"http://127.0.0.1:{server.server_port}"


@pytest.fixture
def sockets(monkeypatch):
    """The client sockets: where each connects, how many are open, the most ever open at once.

    A socket counts as open until its descriptor is closed, which waits for a
    response reading from it to be closed too.
    """
    state = SimpleNamespace(addresses=[], made=[], peak=0)
    state.open = lambda: sum(sock.fileno() != -1 for sock in state.made)
    create = socket.create_connection

    def tracked(address, *args, **kwargs):
        state.addresses.append(address)
        sock = create(address, *args, **kwargs)
        state.made.append(sock)
        state.peak = max(state.peak, state.open())
        return sock

    monkeypatch.setattr(socket, "create_connection", tracked)
    return state


def dead_port() -> int:
    """A local port that nothing listens on."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        return listener.getsockname()[1]


class TestQGClient:
    def test_question_round_trip(self, server_url):
        client = QGClient(server_url)
        assert client.question("q2 revenue rose.") == "what is q2 revenue rose?"

    def test_non_200_is_service_error(self, server_url):
        with pytest.raises(ServiceUnavailable):
            QGClient(f"{server_url}/down").question("x")

    def test_non_json_body(self, server_url):
        with pytest.raises(MalformedResponse):
            QGClient(f"{server_url}/garbage").question("x")

    def test_missing_question_key(self, server_url):
        with pytest.raises(MalformedResponse):
            QGClient(f"{server_url}/badschema").question("x")

    def test_unreachable_host(self):
        client = QGClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceUnavailable):
            client.question("x")


class TestTransport:
    def test_201_is_service_error(self, server_url):
        with pytest.raises(ServiceUnavailable, match="returned 201"):
            QGClient(f"{server_url}/created").question("x")

    def test_timeout_is_service_error(self, server_url):
        client = QGClient(f"{server_url}/slow", timeout=0.2)
        started = time.perf_counter()
        with pytest.raises(ServiceUnavailable):
            client.question("x")
        assert time.perf_counter() - started < SLOW_REPLY_S

    def test_body_shorter_than_its_length_is_service_error(self, server_url):
        with pytest.raises(ServiceUnavailable):
            QGClient(f"{server_url}/truncated").question("x")

    @pytest.mark.parametrize("base_url", ["localhost:1", "http://[::1"])
    def test_malformed_url_is_service_error(self, base_url):
        with pytest.raises(ServiceUnavailable):
            QGClient(base_url).question("x")

    def test_file_url_refused_before_opening(self, tmp_path, monkeypatch):
        (tmp_path / "v1").mkdir()
        (tmp_path / "v1" / "question").write_text('{"question": "what is local?"}')

        def no_open(*args, **kwargs):
            raise AssertionError("a file URL was opened")

        monkeypatch.setattr(http.client.HTTPConnection, "connect", no_open)
        # With a host, the transport would otherwise connect to it.
        url = tmp_path.as_uri().replace("file://", "file://localhost", 1)
        with pytest.raises(ServiceUnavailable, match="only http and https"):
            QGClient(url).question("x")

    def test_every_request_closes_its_connection(self, server, server_url):
        server.connection_log.clear()
        client = QGClient(server_url)
        for sentence in ("a.", "b.", "c."):
            client.question(sentence)
        assert server.connection_log == ["close"] * 3

    def test_proxy_from_environment(self, server, server_url, monkeypatch, sockets):
        for name in ("http_proxy", "https_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        port = dead_port()
        for scheme, proxied in (
            ("http", f"POST http://127.0.0.1:{port}/v1/question"),
            ("https", f"CONNECT 127.0.0.1:{port}"),  # a tunnel
        ):
            url = f"{scheme}://127.0.0.1:{port}"
            monkeypatch.delenv("no_proxy", raising=False)
            monkeypatch.setenv(f"{scheme}_proxy", "http://127.0.0.1:9")
            with pytest.raises(ServiceUnavailable):
                QGClient(url, timeout=0.5).question("x")  # sent to the dead proxy
            assert sockets.addresses[-1] == ("127.0.0.1", 9)
            monkeypatch.setenv(f"{scheme}_proxy", f"http://user:pw@127.0.0.1:{server.server_port}")
            server.proxy_log.clear()
            with pytest.raises(ServiceUnavailable, match="502"):
                QGClient(url, timeout=0.5).question("x")
            assert server.proxy_log == [(proxied, "Basic dXNlcjpwdw==")]
            monkeypatch.setenv("no_proxy", "127.0.0.1")
            with pytest.raises(ServiceUnavailable):
                QGClient(url, timeout=0.5).question("x")  # sent directly
            assert sockets.addresses[-1] == ("127.0.0.1", port)
        assert QGClient(server_url).question("x.") == "what is x?"
        assert sockets.open() == 0

    def test_offline_run_loads_no_http_modules(self, tmp_path):
        code = (
            "import json, sys\n"
            "from bulletsum import kernels, synthetic_data_dirs\n"
            "from bulletsum.config import PipelineConfig\n"
            "from bulletsum.pipeline import run_stage\n"
            "loaded, load = [], kernels.load\n"
            "kernels.load = lambda name, *args: loaded.append(name) or load(name, *args)\n"
            "run_stage('run', PipelineConfig(lda_iters=20), sys.argv[1], *synthetic_data_dirs())\n"
            f"print(json.dumps([m for m in {HTTP_MODULES!r} if m in sys.modules]))\n"
            "print(json.dumps(sorted(set(loaded))))\n"
        )
        src = str(Path(bulletsum.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "ws")],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "ws" / "eval" / "report.json").is_file()
        assert json.loads(done.stdout.splitlines()[-2]) == []
        assert json.loads(done.stdout.splitlines()[-1]) == ["lda_sweep", "tokenize"]


class TestEmbeddingClient:
    def test_one_vector_per_text_shared_dim(self, server_url):
        client = EmbeddingClient(server_url)
        matrix = client.embed(["short", "a bit longer text"])
        assert matrix.shape == (2, 3)
        assert matrix.dtype == np.float64

    def test_empty_batch_short_circuits(self, server_url):
        assert EmbeddingClient(server_url).embed([]).shape == (0, 0)

    def test_ragged_vectors_rejected(self, server_url):
        with pytest.raises(MalformedResponse):
            EmbeddingClient(f"{server_url}/badschema").embed(["a", "b"])

    def test_non_200(self, server_url):
        with pytest.raises(ServiceUnavailable):
            EmbeddingClient(f"{server_url}/down").embed(["a"])

    @pytest.mark.parametrize("route", sorted(BAD_VECTORS))
    def test_entries_that_are_not_finite_numbers_rejected(self, server_url, route):
        with pytest.raises(MalformedResponse, match="not finite numbers"):
            EmbeddingClient(f"{server_url}/{route}").embed(["a", "b"])

    def test_width_differing_from_the_first_response_rejected(self, server_url):
        client = EmbeddingClient(f"{server_url}/widening")
        assert client.embed(["a"]).shape == (1, 2)
        with pytest.raises(MalformedResponse, match="width 3"):
            client.embed(["a", "b"])
        assert client.embed(["c"]).shape == (1, 2)


class TestDecoder:
    """The compiled decoder, with its fallback, against the Python reference."""

    @needs_cc
    @settings(max_examples=200, deadline=None)
    @given(case=embed_bodies())
    @example(case=(b'{"vectors": [[-0, -0.0, 1e308, -1.2e-05]]}', 1, True))
    @example(case=(b'{"vectors":[[%d,%d,%d]]}' % (2**53 + 1, 2**63 + 1, 2**64 + 1), 1, True))
    @example(case=(b'\t{ "vectors" :\n[ [1] ,\r\n[2] ] }  ', 2, True))
    @example(case=(b'{"vectors": [[1e400]]}', 1, False))
    @example(case=(b'{"vectors": [[%s]]}' % b",".join([b"-1.5e-7"] * 5000), 1, True))
    @example(case=(b'{"vectors": [%s]}' % b",".join([b"[0.25,1]"] * 3000), 3000, True))
    @example(case=(b'{"vectors": %s1%s}' % (b"[" * 100000, b"]" * 100000), 1, False))
    @example(case=(b'{"vectors": [[1, 2.5e', 1, False))
    @example(case=(b'{"vectors": [[12345678901234567890123', 1, False))
    def test_kernel_matches_the_reference(self, case):
        body, n_texts, canonical = case
        assert kernels.load(*services._DECODE) is not None
        assert decoded(body, n_texts) == reference_decoded(body, n_texts)
        if canonical:
            assert services._decode_vectors(body) is not None

    @needs_cc
    @pytest.mark.parametrize("text", NOT_CANONICAL)
    @pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
    def test_body_that_is_not_canonical_goes_to_the_reference(self, text, encoding):
        body = text.encode(encoding)
        assert kernels.load(*services._DECODE) is not None
        assert services._decode_vectors(body) is None
        assert decoded(body, 1) == reference_decoded(body, 1)

    @needs_cc
    def test_reference_path_gives_the_same_matrices_and_errors(self, server_url, monkeypatch):
        def outcomes():
            results = []
            for route in ["bow", "widening", "zerowidth", "badschema", "garbage", *BAD_VECTORS]:
                client = EmbeddingClient(f"{server_url}/{route}")
                try:
                    for texts in (["revenue rose"], [], ["cash fell", "margin"]):
                        results.append(client.embed(texts).tobytes())
                except MalformedResponse as exc:
                    results.append(str(exc))
            return results

        assert kernels.load(*services._DECODE) is not None
        with_kernel = outcomes()
        monkeypatch.setattr(kernels, "load", lambda *kernel: None)
        assert outcomes() == with_kernel

    @pytest.mark.parametrize("kernel", [True, False])
    def test_zero_width_vectors_rejected(self, server_url, monkeypatch, kernel):
        if not kernel:
            monkeypatch.setattr(kernels, "load", lambda *kernel: None)
        with pytest.raises(MalformedResponse, match="width 0"):
            EmbeddingClient(f"{server_url}/zerowidth").embed(["a"])


class TestEmbedMany:
    """Requests go out one ahead; errors and cleanup keep batch order."""

    def test_next_request_is_sent_before_this_response_is_decoded(
        self, server, server_url, monkeypatch, sockets
    ):
        batches = [["one"], ["one two"], ["one two three"]]  # batch i has i + 1 words
        events = []
        sent = {}
        request, getresponse = http.client.HTTPConnection.request, http.client.HTTPConnection.getresponse
        decode = EmbeddingClient._decode

        def recorded_request(connection, method, url, body, *args, **kwargs):
            sent[connection] = len(json.loads(body)["texts"][0].split()) - 1
            events.append(("send", sent[connection]))
            return request(connection, method, url, body, *args, **kwargs)

        def recorded_getresponse(connection):
            events.append(("read", sent[connection]))
            return getresponse(connection)

        def recorded_decode(client, texts, data):
            matrix = decode(client, texts, data)
            events.append(("decode", int(matrix[0].sum()) - 1))
            return matrix

        monkeypatch.setattr(http.client.HTTPConnection, "request", recorded_request)
        monkeypatch.setattr(http.client.HTTPConnection, "getresponse", recorded_getresponse)
        monkeypatch.setattr(EmbeddingClient, "_decode", recorded_decode)
        server.embed_log.clear()

        matrices = list(EmbeddingClient(f"{server_url}/bow").embed_many(batches))

        assert events == [
            ("send", 0), ("read", 0), ("send", 1), ("decode", 0),
            ("read", 1), ("send", 2), ("decode", 1), ("read", 2), ("decode", 2),
        ]
        for matrix, texts in zip(matrices, batches, strict=True):
            assert matrix.tolist() == [bow_vector(t) for t in texts]
        assert server.embed_log == batches
        assert (len(sockets.made), sockets.peak, sockets.open()) == (3, 1, 0)

    def test_empty_batches_yield_in_place_and_send_nothing(self, server, server_url):
        server.embed_log.clear()
        client = EmbeddingClient(f"{server_url}/bow")
        shapes = [m.shape for m in client.embed_many([[], ["a"], [], ["b c"], []])]
        assert shapes == [(0, 0), (1, BOW_WIDTH), (0, 0), (1, BOW_WIDTH), (0, 0)]
        assert server.embed_log == [["a"], ["b c"]]

    @pytest.mark.parametrize(
        ("bad", "message"), [("garbage", "non-JSON"), ("nonfinite", "not finite numbers")]
    )
    def test_malformed_response_raises_for_its_own_batch(self, server_url, sockets, bad, message):
        matrices = EmbeddingClient(f"{server_url}/mixed").embed_many([["a"], [bad, "x"], ["c"]])
        assert next(matrices).shape == (1, BOW_WIDTH)
        with pytest.raises(MalformedResponse, match=message):
            next(matrices)
        # Request 2 was in flight; its connection is closed.
        assert (len(sockets.made), sockets.open()) == (3, 0)

    def test_failure_to_send_is_raised_when_its_batch_is_due(self, server_url, monkeypatch):
        create = socket.create_connection
        attempts = []

        def second_refused(address, *args, **kwargs):
            attempts.append(address)
            if len(attempts) == 2:
                raise ConnectionRefusedError("refused")
            return create(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", second_refused)
        matrices = EmbeddingClient(f"{server_url}/bow").embed_many([["a"], ["b"], ["c"]])
        assert next(matrices).tolist() == [bow_vector("a")]
        assert len(attempts) == 2  # the second request already failed
        with pytest.raises(ServiceUnavailable, match="refused"):
            next(matrices)
        assert len(attempts) == 2

    def test_closing_early_closes_the_request_in_flight(self, server_url, sockets):
        client = EmbeddingClient(f"{server_url}/bow")
        with pytest.raises(RuntimeError, match="consumer"):
            with closing(client.embed_many([["a"], ["b"], ["c"]])) as matrices:
                for _ in matrices:
                    assert sockets.open() == 1  # the request for ["b"]
                    raise RuntimeError("consumer failed")
        assert (len(sockets.made), sockets.open()) == (2, 0)


class TestRouteWithEmbeddingService:
    def test_master_list_once_per_stage_sentences_once_per_document(
        self, server, server_url, tmp_path, synthetic_dirs
    ):
        config = PipelineConfig(num_topics=6, lda_iters=60, keywords_per_topic=4)
        workspace = tmp_path / "ws"
        for stage in ("ingest", "qgen", "topics"):
            pipeline.run_stage(stage, config, workspace, *synthetic_dirs)
        server.embed_log.clear()
        config = PipelineConfig.from_dict({**config.to_dict(), "embed_url": f"{server_url}/bow"})
        pipeline.run_stage("route", config, workspace)

        master = json.loads((workspace / "topics" / "question_bank.json").read_text())["master"]
        transcripts = json.loads((workspace / "ingest" / "corpus.json").read_text())["transcripts"]
        test_ids = json.loads((workspace / "ingest" / "split.json").read_text())["test"]
        requests = server.embed_log
        assert test_ids
        assert requests.count([q["text"] for q in master]) == 1
        for doc_id in test_ids:
            assert requests.count(transcripts[doc_id]) == 1
        assert len(requests) == 1 + len(test_ids)

        lines = (workspace / "route" / "contexts.jsonl").read_text().splitlines()
        assert sorted(json.loads(line)["doc_id"] for line in lines) == sorted(test_ids)
        for line in lines:
            record = json.loads(line)
            sentences = transcripts[record["doc_id"]]
            for selection in record["selections"]:
                u = np.array(bow_vector(selection["question"]))
                v = np.array(bow_vector(sentences[selection["position"]]))
                expected = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
                assert abs(selection["score"] - expected) <= 1e-9

    def test_no_topic_detected_falls_back_to_the_service_master_vectors(
        self, server_url, tmp_path, synthetic_dirs
    ):
        config = PipelineConfig(num_topics=6, lda_iters=60, keywords_per_topic=4)
        workspace = tmp_path / "ws"
        for stage in ("ingest", "qgen", "topics"):
            pipeline.run_stage(stage, config, workspace, *synthetic_dirs)
        corpus = pipeline.read_artifact(workspace, "ingest/corpus.json")
        doc_id = pipeline.read_artifact(workspace, "ingest/split.json").test[0]
        sentences = ["Good morning and welcome to the call.", "Operator, please go ahead."]
        corpus.transcripts[doc_id] = sentences
        pipeline._write_json(workspace / "ingest" / "corpus.json", corpus)
        config = PipelineConfig.from_dict({
            **config.to_dict(), "embed_url": f"{server_url}/bow", "fallback_on_empty_detection": True
        })
        pipeline.run_stage("route", config, workspace)

        lines = (workspace / "route" / "detections.jsonl").read_text().splitlines()
        detections = {record["doc_id"]: record for record in map(json.loads, lines)}
        assert detections[doc_id]["detected"] == []
        master = [q.text for q in pipeline.read_artifact(workspace, "topics/question_bank.json").master]
        expected = build_context(
            doc_id, sentences, master, np.array([bow_vector(q) for q in master]),
            np.array([bow_vector(s) for s in sentences]), config.k,
        )
        contexts = pipeline.read_artifact(workspace, "route/contexts.jsonl")
        assert next(c for c in contexts if c.doc_id == doc_id) == expected


class TestExtractWithEmbeddingService:
    def test_one_request_per_train_document_sentences_then_questions(
        self, server, server_url, tmp_path, synthetic_dirs
    ):
        config = PipelineConfig(num_topics=6, lda_iters=60, keywords_per_topic=4)
        workspace = tmp_path / "ws"
        for stage in ("ingest", "qgen", "topics"):
            pipeline.run_stage(stage, config, workspace, *synthetic_dirs)
        server.embed_log.clear()
        config = PipelineConfig.from_dict({**config.to_dict(), "embed_url": f"{server_url}/bow"})
        pipeline.run_stage("extract", config, workspace)

        per_doc = json.loads((workspace / "qgen" / "question_bank.json").read_text())["per_doc"]
        transcripts = json.loads((workspace / "ingest" / "corpus.json").read_text())["transcripts"]
        train_ids = json.loads((workspace / "ingest" / "split.json").read_text())["train"]
        expected = [
            transcripts[doc_id] + [q["text"] for q in per_doc[doc_id]]
            for doc_id in sorted(train_ids)
            if per_doc.get(doc_id)
        ]
        assert expected
        assert server.embed_log == expected


class TestGenerationClient:
    def test_text_returned(self, server_url):
        client = GenerationClient(server_url)
        assert client.generate("prompt", 60) == "bullet one\nbullet two"

    def test_503_maps_to_service_unavailable(self, server_url):
        with pytest.raises(ServiceUnavailable):
            GenerationClient(f"{server_url}/down").generate("prompt", 60)

    def test_missing_text_key(self, server_url):
        with pytest.raises(MalformedResponse):
            GenerationClient(f"{server_url}/badschema").generate("prompt", 60)


class TestExternalQGIntegration:
    def test_service_generates_questions(self, server_url):
        questions = generate_questions_external(
            ["q2 revenue $5 million."], QGClient(server_url)
        )
        assert questions[0].text == "what is q2 revenue $5 million?"

    def test_down_service_with_fallback_uses_template(self, server_url):
        questions = generate_questions_external(
            ["q2 net profit 64 million usd."],
            QGClient(f"{server_url}/down"),
            fallback=True,
        )
        assert questions[0].text == "what is q2 net profit?"

    def test_down_service_without_fallback_raises(self, server_url):
        with pytest.raises(ServiceUnavailable):
            generate_questions_external(
                ["any bullet"], QGClient(f"{server_url}/down"), fallback=False
            )
