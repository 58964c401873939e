"""HTTP clients for the three external services (QG, embedding, generation).

Wire formats:
  POST {base}/v1/question  {"sentence": str}        -> {"question": str}
  POST {base}/v1/embed     {"texts": [str, ...]}    -> {"vectors": [[float, ...], ...]}
  POST {base}/v1/generate  {"prompt": str,
                            "max_new_tokens": int}  -> {"text": str}

Any non-200 status or transport failure raises ServiceUnavailable; a 200
response that does not match the schema raises MalformedResponse, as does an
embed response whose vectors have width 0 or another width than the client's
first response. A canonical embed response body (strict JSON, the one key
"vectors" holding equal-length rows of numbers) is decoded by a small C kernel
(``vectors_json.c``, loaded by ``kernels.load``) straight into its float64
matrix. Any other body goes through ``json.loads``, which gives the same
matrix bit for bit, or the error.

Requests go through the standard library's ``http.client``, loaded on a
client's first request, so a run without a service URL never imports it (nor
``ssl``). Each request opens its own connection and sends ``Connection:
close``. A run of requests goes out one ahead: response n is read to its end
and its connection closed, request n+1 is sent, and only then is response n
decoded, so the service works on n+1 while this process decodes n. The
service still sees one connection and one request at a time, in order. Only
http and https URLs are opened. Proxies come from ``http_proxy``,
``https_proxy`` and ``no_proxy``, read once per client; an https request
reaches its proxy through a CONNECT tunnel. HTTPS certificates are verified
against the system CA store.
"""

from __future__ import annotations

import ctypes
import json
from collections.abc import Iterable, Iterator, Sequence
from contextlib import closing
from itertools import chain

import numpy as np

from . import kernels
from .errors import MalformedResponse, ServiceUnavailable

DEFAULT_TIMEOUT = 30.0

# ``kernels.load``'s arguments for the compiled decoder of ``vectors_json.c``.
_DECODE = ("vectors_json", "decode_vectors", (
    ctypes.c_char_p, ctypes.c_ssize_t, np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
    ctypes.c_ssize_t, np.ctypeslib.ndpointer(np.intp, flags="C_CONTIGUOUS"),
))


def _route_for(base_url: str, timeout: float):
    """How to reach ``base_url``: a connection maker, the target prefix and the headers.

    The maker returns a connection not yet opened. Reads the proxy settings
    from the environment.
    """
    import http.client
    import urllib.parse
    import urllib.request

    url = urllib.parse.urlsplit(base_url)
    if not url.hostname:
        raise ValueError(f"{base_url!r} names no host")
    https = url.scheme == "https"
    host, port = url.hostname, url.port or (443 if https else 80)
    headers = {"Content-Type": "application/json", "Connection": "close"}
    address, proxy_headers, prefix = (host, port), {}, url.path
    proxy = urllib.request.getproxies().get(url.scheme)
    if proxy and urllib.request.proxy_bypass(host):
        proxy = None
    if proxy:
        proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        address = (proxy_url.hostname, proxy_url.port or (443 if https else 80))
        if proxy_url.username:
            import base64

            user = urllib.parse.unquote(proxy_url.username)
            password = urllib.parse.unquote(proxy_url.password or "")
            token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
            proxy_headers["Proxy-Authorization"] = f"Basic {token}"
        if not https:
            prefix = base_url  # an http request names its whole URL to the proxy

    if not https:
        headers.update(proxy_headers)
        return lambda: http.client.HTTPConnection(*address, timeout=timeout), prefix, headers

    import ssl

    context = ssl.create_default_context()

    def connect():
        connection = http.client.HTTPSConnection(*address, timeout=timeout, context=context)
        if proxy:
            connection.set_tunnel(host, port, proxy_headers)
        return connection

    return connect, prefix, headers


class _JsonServiceClient:
    def __init__(self, base_url: str, timeout: float = DEFAULT_TIMEOUT):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._route = None  # ``_route_for(base_url)``, worked out on the first request

    def _post(self, endpoint: str, payload: dict) -> dict:
        (data,) = self._post_many(endpoint, [payload])
        return self._object(endpoint, data)

    def _object(self, endpoint: str, data: bytes) -> dict:
        """The JSON object a response body from ``endpoint`` holds."""
        url = f"{self.base_url}{endpoint}"
        try:
            body = json.loads(data)
        except (ValueError, RecursionError) as exc:  # a body nested too deeply to read
            raise MalformedResponse(f"POST {url} returned non-JSON body") from exc
        if not isinstance(body, dict):
            raise MalformedResponse(f"POST {url} returned non-object JSON")
        return body

    def _post_many(self, endpoint: str, payloads: Iterable[dict]) -> Iterator[bytes]:
        """The body each payload's POST returns, in order, one request ahead.

        Response n is read to its end and its connection closed, request n+1
        is sent, and only then is body n yielded, for the caller to decode. A
        failure to send request n+1 is raised when its response is asked for,
        after response n. Closing the generator closes the connection of a
        request in flight.
        """
        # Imported here: a run without a service URL never loads them (nor ssl).
        import http.client

        url = f"{self.base_url}{endpoint}"
        if url.partition("://")[0].lower() not in ("http", "https"):
            raise ServiceUnavailable(f"POST {url} refused: only http and https URLs are served")

        def send(payload: dict) -> http.client.HTTPConnection:
            connection = None
            try:
                if self._route is None:
                    self._route = _route_for(self.base_url, self.timeout)
                connect, prefix, headers = self._route
                connection = connect()
                data = json.dumps(payload).encode("utf-8")
                connection.request("POST", prefix + endpoint, body=data, headers=headers)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                if connection is not None:
                    connection.close()
                raise ServiceUnavailable(f"POST {url} failed: {exc}") from exc
            return connection

        def receive(connection: http.client.HTTPConnection) -> bytes:
            try:
                with connection.getresponse() as response:
                    status, data = response.status, response.read()
            except (OSError, http.client.HTTPException, ValueError) as exc:
                raise ServiceUnavailable(f"POST {url} failed: {exc}") from exc
            finally:
                connection.close()
            if status != 200:
                raise ServiceUnavailable(f"POST {url} returned {status}")
            return data

        connection = None  # the request in flight
        try:
            for payload in chain(payloads, [None]):
                data = None if connection is None else receive(connection)
                connection = failure = None
                if payload is not None:
                    try:
                        connection = send(payload)
                    except ServiceUnavailable as exc:
                        failure = exc
                if data is not None:
                    yield data
                if failure is not None:
                    raise failure
        finally:
            if connection is not None:
                connection.close()


class QGClient(_JsonServiceClient):
    """Question-generation service client."""

    def question(self, sentence: str) -> str:
        body = self._post("/v1/question", {"sentence": sentence})
        question = body.get("question")
        if not isinstance(question, str) or not question.strip():
            raise MalformedResponse("QG response missing a 'question' string")
        return question


class EmbeddingClient(_JsonServiceClient):
    """Sentence-embedding service client; one request embeds a batch of texts.

    Vectors from different calls are compared with each other, so every
    response must have the width of the first one.
    """

    def __init__(self, base_url: str, timeout: float = DEFAULT_TIMEOUT):
        super().__init__(base_url, timeout)
        self._width: int | None = None

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        (matrix,) = self.embed_many([texts])
        return matrix

    def embed_many(self, batches: Iterable[Sequence[str]]) -> Iterator[np.ndarray]:
        """The matrix of each batch of texts, in order, from one request per batch.

        The requests go out one ahead (``_post_many``), so the service embeds
        batch n+1 while this process decodes and checks batch n. Every matrix
        is checked before it is yielded, so errors arrive in batch order. An
        empty batch is a 0 x 0 matrix and sends nothing. Closing the generator
        closes the connection of a request in flight.
        """
        batches = list(batches)
        payloads = ({"texts": list(texts)} for texts in batches if texts)
        with closing(self._post_many("/v1/embed", payloads)) as bodies:
            for texts in batches:
                yield self._decode(texts, next(bodies)) if texts else np.zeros((0, 0))

    def _decode(self, texts: Sequence[str], data: bytes) -> np.ndarray:
        """The checked matrix of one response body to an embed request for ``texts``.

        The compiled decoder (``vectors_json.c``, loaded by ``kernels.load``)
        reads a canonical body straight into the matrix. Any other body, one
        with a vector count other than ``len(texts)``, and every body when the
        kernel is unavailable, goes to the Python reference: ``json.loads``,
        the object check and ``_matrix``, which also give every error. Both
        give the same float64 bits. Either way, the width must be nonzero and
        that of the client's first response.
        """
        matrix = _decode_vectors(data)
        if matrix is None or len(matrix) != len(texts):
            matrix = self._matrix(texts, self._object("/v1/embed", data))
        width = matrix.shape[1]
        if width == 0:
            raise MalformedResponse("embed vectors have width 0")
        if self._width is None:
            self._width = width
        elif width != self._width:
            raise MalformedResponse(f"embed vectors have width {width}, earlier ones {self._width}")
        return matrix

    def _matrix(self, texts: Sequence[str], body: dict) -> np.ndarray:
        """The reference decoding of the vectors in ``body``, one per text."""
        vectors = body.get("vectors")
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise MalformedResponse("embed response missing one vector per text")
        try:
            matrix = np.array(vectors, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedResponse("embed vectors are ragged or not finite numbers") from exc
        # numpy would read "1" and true as numbers; JSON NaN and Infinity parse as floats.
        if (
            matrix.ndim != 2
            or not set(map(type, chain.from_iterable(vectors))) <= {int, float}
            or not np.isfinite(matrix).all()
        ):
            raise MalformedResponse("embed vectors are ragged or not finite numbers")
        return matrix


def _decode_vectors(data: bytes) -> np.ndarray | None:
    """The matrix of a canonical embed response body, by the compiled decoder.

    None if the body is not canonical (see ``vectors_json.c``) or the kernel
    is unavailable. In a canonical body every comma separates two numbers, so
    the buffer the decoder fills is exactly the matrix.
    """
    kernel = kernels.load(*_DECODE)
    if kernel is None:
        return None
    values = np.empty(data.count(b",") + 1)
    shape = np.zeros(2, dtype=np.intp)
    kernel(data, len(data), values, len(values), shape)
    rows, width = shape.tolist()
    return values.reshape(rows, width) if rows else None


class GenerationClient(_JsonServiceClient):
    """Text-generation service client."""

    def generate(self, prompt: str, max_new_tokens: int) -> str:
        body = self._post(
            "/v1/generate", {"prompt": prompt, "max_new_tokens": max_new_tokens}
        )
        text = body.get("text")
        if not isinstance(text, str):
            raise MalformedResponse("generate response missing a 'text' string")
        return text
