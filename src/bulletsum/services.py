"""HTTP clients for the three external services (QG, embedding, generation).

Wire formats:
  POST {base}/v1/question  {"sentence": str}        -> {"question": str}
  POST {base}/v1/embed     {"texts": [str, ...]}    -> {"vectors": [[float, ...], ...]}
  POST {base}/v1/generate  {"prompt": str,
                            "max_new_tokens": int}  -> {"text": str}

Any non-200 status or transport failure raises ServiceUnavailable; a 200
response that does not match the schema raises MalformedResponse.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import requests

from .errors import MalformedResponse, ServiceUnavailable

DEFAULT_TIMEOUT = 30.0


class _JsonServiceClient:
    def __init__(self, base_url: str, timeout: float = DEFAULT_TIMEOUT):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _post(self, endpoint: str, payload: dict) -> dict:
        url = f"{self.base_url}{endpoint}"
        try:
            response = requests.post(url, json=payload, timeout=self.timeout)
        except requests.RequestException as exc:
            raise ServiceUnavailable(f"POST {url} failed: {exc}") from exc
        if response.status_code != 200:
            raise ServiceUnavailable(f"POST {url} returned {response.status_code}")
        try:
            body = response.json()
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
        except ValueError as exc:
            raise MalformedResponse("embed vectors are ragged or non-numeric") from exc
        if matrix.ndim != 2:
            raise MalformedResponse("embed vectors are ragged or non-numeric")
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
