"""Local stand-in for the QG, embedding and generation services.

It serves the wire formats of ``bulletsum.services`` from one
single-threaded ``socketserver`` process, on a port the OS picks:

- ``/v1/question`` turns a bullet into a question deterministically;
- ``/v1/embed`` returns bag-of-words count vectors, memoised per text as
  their JSON encoding, so the stub does little work per request. Every word
  of the bundled corpus and every segment word of the load corpus has a
  dimension of its own; other words share the rest by CRC-32. Numbers are
  left out, so the vectors of a load corpus do not depend on its seed
  beyond a renaming of dimensions;
- ``/v1/generate`` mirrors ``MockGenClient``: the first four context
  sentences after the default separator, each clipped to twelve tokens.

It counts accepted connections, requests per endpoint, request and response
body bytes, and its own busy time (from a parsed request to the flushed
response). Run it as ``python3 bench/stub.py``: it prints ``port <n>`` on
its first line, serves until its standard input closes, then prints its
counters as one JSON line and exits.
"""

from __future__ import annotations

import functools
import http.server
import json
import re
import socketserver
import sys
import threading
import time
import zlib
from pathlib import Path

from corpus_gen import SEGMENT_WORDS, bundled_dir

DIM = 512
SEPARATOR = "\n\n"
MAX_BULLETS = 4
BULLET_TOKENS = 12

_WORD_RE = re.compile(r"[a-z][a-z0-9]*")
_SENTENCE_END_RE = re.compile(r"(?<=[.?!])\s+")
_QUARTER_RE = re.compile(r"q[1-4]")


@functools.cache
def _known_words() -> dict[str, int]:
    words = set(SEGMENT_WORDS) | {"what", "about"}
    for path in bundled_dir(Path(__file__).resolve().parents[1]).rglob("*.txt"):
        words.update(_WORD_RE.findall(path.read_text(encoding="utf-8").lower()))
    if len(words) >= DIM:
        raise ValueError(f"{len(words)} known words do not fit in {DIM} dimensions")
    return {word: i for i, word in enumerate(sorted(words))}


def embed_text(text: str) -> list[int]:
    """Word counts: one dimension per known word, CRC-32 buckets for the rest."""
    known = _known_words()
    vector = [0] * DIM
    for word in _WORD_RE.findall(text.lower()):
        index = known.get(word)
        if index is None:
            index = len(known) + zlib.crc32(word.encode("utf-8")) % (DIM - len(known))
        vector[index] += 1
    return vector


def question_for(sentence: str) -> str:
    """The bullet's words without numbers, asked as a question."""
    words = [
        w
        for w in sentence.lower().rstrip(".").split()
        if _QUARTER_RE.fullmatch(w) or not any(c.isdigit() for c in w)
    ]
    return "what about " + " ".join(words) + "?"


def generate_text(prompt: str) -> str:
    context = prompt.split(SEPARATOR, 1)[1] if SEPARATOR in prompt else prompt
    sentences = [s.strip() for s in _SENTENCE_END_RE.split(context) if s.strip()]
    return "\n".join(" ".join(s.split()[:BULLET_TOKENS]) for s in sentences[:MAX_BULLETS])


class StubServer(socketserver.TCPServer):
    allow_reuse_address = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.vectors: dict[str, str] = {}
        self.stats = {
            "connections": 0,
            "qg_requests": 0,
            "embed_requests": 0,
            "generate_requests": 0,
            "request_bytes": 0,
            "response_bytes": 0,
            "busy_s": 0.0,
        }

    def get_request(self):
        request = super().get_request()
        self.stats["connections"] += 1
        return request

    def vector_json(self, text: str) -> str:
        encoded = self.vectors.get(text)
        if encoded is None:
            encoded = json.dumps(embed_text(text), separators=(",", ":"))
            self.vectors[text] = encoded
        return encoded


class StubHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        started = time.perf_counter()
        server = self.server
        stats = server.stats
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        stats["request_bytes"] += len(body)
        payload = json.loads(body)
        if self.path == "/v1/question":
            stats["qg_requests"] += 1
            reply = json.dumps({"question": question_for(payload["sentence"])})
        elif self.path == "/v1/embed":
            stats["embed_requests"] += 1
            reply = '{"vectors":[' + ",".join(server.vector_json(t) for t in payload["texts"]) + "]}"
        elif self.path == "/v1/generate":
            stats["generate_requests"] += 1
            reply = json.dumps({"text": generate_text(payload["prompt"])})
        else:
            self.send_error(404)
            return
        data = reply.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.wfile.flush()
        stats["response_bytes"] += len(data)
        stats["busy_s"] += time.perf_counter() - started


def main() -> int:
    with StubServer() as server:
        print(f"port {server.server_address[1]}", flush=True)

        def stop_on_eof():
            sys.stdin.read()
            server.shutdown()

        threading.Thread(target=stop_on_eof, daemon=True).start()
        server.serve_forever()
        print(json.dumps(server.stats, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
