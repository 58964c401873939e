"""HTTP clients for the three external services (QG, embedding, generation).

Wire formats:
  POST {base}/v1/question  {"sentence": str}        -> {"question": str}
  POST {base}/v1/embed     {"texts": [str, ...]}    -> {"vectors": [[float, ...], ...]}
  POST {base}/v1/generate  {"prompt": str,
                            "max_new_tokens": int}  -> {"text": str}

Any non-200 status or transport failure raises ServiceUnavailable; a 200
response that does not match the schema raises MalformedResponse.

Requests go through the standard library's ``urllib``, loaded on a client's
first request, so a run without a service URL never imports it. Each request
opens its own connection (``urllib`` sends ``Connection: close``). Only http
and https URLs are opened; proxies come from ``http_proxy``, ``https_proxy``
and ``no_proxy``, read once per client.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import chain

import numpy as np

from .errors import MalformedResponse, ServiceUnavailable

DEFAULT_TIMEOUT = 30.0


class _JsonServiceClient:
    def __init__(self, base_url: str, timeout: float = DEFAULT_TIMEOUT):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._opener = None

    def _post(self, endpoint: str, payload: dict) -> dict:
        # Imported here: a run without a service URL never loads them (nor ssl).
        import http.client
        import urllib.error
        import urllib.request

        url = f"{self.base_url}{endpoint}"
        if url.partition("://")[0].lower() not in ("http", "https"):
            raise ServiceUnavailable(f"POST {url} refused: only http and https URLs are served")
        if self._opener is None:
            # One per client, not urllib's process-wide one, so proxy settings
            # are read from the environment of the client's first request.
            self._opener = urllib.request.build_opener()
        try:
            request = urllib.request.Request(
                url,
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with self._opener.open(request, timeout=self.timeout) as response:
                status, data = response.status, response.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            raise ServiceUnavailable(f"POST {url} returned {exc.code}") from exc
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise ServiceUnavailable(f"POST {url} failed: {exc}") from exc
        if status != 200:
            raise ServiceUnavailable(f"POST {url} returned {status}")
        try:
            body = json.loads(data)
        except ValueError as exc:
            raise MalformedResponse(f"POST {url} returned non-JSON body") from exc
        if not isinstance(body, dict):
            raise MalformedResponse(f"POST {url} returned non-object JSON")
        return body


class QGClient(_JsonServiceClient):
    """Question-generation service client."""

    def question(self, sentence: str) -> str:
        body = self._post("/v1/question", {"sentence": sentence})
        question = body.get("question")
        if not isinstance(question, str) or not question.strip():
            raise MalformedResponse("QG response missing a 'question' string")
        return question


class EmbeddingClient(_JsonServiceClient):
    """Sentence-embedding service client; batches all texts in one call.

    Vectors from different calls are compared with each other, so every
    response must have the width of the first one.
    """

    def __init__(self, base_url: str, timeout: float = DEFAULT_TIMEOUT):
        super().__init__(base_url, timeout)
        self._width: int | None = None

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, 0))
        body = self._post("/v1/embed", {"texts": list(texts)})
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
        if self._width is None:
            self._width = matrix.shape[1]
        elif matrix.shape[1] != self._width:
            raise MalformedResponse(
                f"embed vectors have width {matrix.shape[1]}, earlier ones {self._width}"
            )
        return matrix


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
