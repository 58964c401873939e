"""Sentence/question embedding and top-k extractive selection.

The built-in embedder is per-document TF-IDF: the vocabulary and IDF are fit
on one transcript's sentences, which sharpens discrimination inside that
document. ``encode`` gives texts token ids local to the call in one call of a
small C kernel (``tokenize.c``, built and loaded by ``kernels.load``), with
the text of each id, so a count vector is a scatter of token ids into the
document's columns. A sentence-transformer service can be substituted
through the embedding client (``services.EmbeddingClient``). Ranking takes
vectors, which a caller embeds once per document. ``embed_counts`` weighs a
text list counted once per stage (``Encoded.counts``) on the columns of its
tokens only.
"""

from __future__ import annotations

import ctypes
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import NoQuestions
from .records import reader
from .text import tokenize

# Decimals kept in every similarity score before ranking.
SCORE_DECIMALS = 12


class Encoded(NamedTuple):
    """Texts as token ids local to one ``encode`` call, flat and in order.

    ``ids[i]`` came from text ``rows[i]``. Ids are handed out in first-seen
    order, and ``tokens[j]`` is the text of id j, each distinct token once.
    """

    ids: np.ndarray
    rows: np.ndarray
    n_texts: int
    tokens: list[str]

    def counts(self) -> np.ndarray:
        """Raw term counts: a row per text, a column per id."""
        return _scatter_counts(self.n_texts, len(self.tokens), self.rows, self.ids)


# ``kernels.load``'s arguments for the compiled tokenizer of ``tokenize.c``.
_INTP = np.ctypeslib.ndpointer(np.intp, flags="C_CONTIGUOUS")
_TOKENIZE = ("tokenize", "tokenize_texts", (
    ctypes.c_char_p, _INTP, ctypes.c_ssize_t, _INTP, ctypes.c_ssize_t,
    _INTP, _INTP, _INTP, _INTP, _INTP,
))


def encode(texts: Sequence[str]) -> Encoded:
    """The ids of ``tokenize``'s tokens of every text, in one call of the compiled tokenizer.

    The texts are lowercased and passed to the kernel (``tokenize.c``, loaded
    by ``kernels.load``) as one ASCII buffer with the offset of each text.
    Each character that is not ASCII becomes one ``?``, which no token holds,
    so the tokens are ``tokenize``'s and a byte offset is a character offset.
    Where the kernel is unavailable, the Python reference (``_python_encode``)
    runs, with the same result.
    """
    lowered = [text.lower() for text in texts]
    joined = "".join(lowered)
    kernel = kernels.load(*_TOKENIZE)
    if kernel is None:
        return _python_encode(texts)
    starts = np.cumsum([0, *map(len, lowered)], dtype=np.intp)
    # A decimal token spans three bytes or more, and any other token but a
    # text's last is followed by a byte that no token holds, so a text of n
    # bytes holds at most (n + 1) // 2 tokens. The table keeps at least half
    # its slots free.
    room = (len(joined) + len(texts)) // 2
    table = np.full(1 << (2 * room).bit_length(), -1, dtype=np.intp)
    local, rows, first, length = np.empty((4, room), dtype=np.intp)
    found = np.zeros(2, dtype=np.intp)
    kernel(
        joined.encode("ascii", "replace"), starts, len(texts), table, len(table),
        local, rows, first, length, found,
    )
    n_tokens, n_distinct = found.tolist()
    ends = (first[:n_distinct] + length[:n_distinct]).tolist()
    tokens = [joined[a:b] for a, b in zip(first[:n_distinct].tolist(), ends)]
    return Encoded(local[:n_tokens].copy(), rows[:n_tokens].copy(), len(texts), tokens)


def _python_encode(texts: Sequence[str]) -> Encoded:
    """The reference for ``encode``: ``tokenize`` per text, ids from a first-seen dict."""
    tokens = [tokenize(text) for text in texts]
    first_seen: dict[str, int] = {}
    ids = [first_seen.setdefault(token, len(first_seen)) for toks in tokens for token in toks]
    rows = np.repeat(np.arange(len(texts), dtype=np.intp), [len(toks) for toks in tokens])
    return Encoded(np.array(ids, dtype=np.intp), rows, len(texts), list(first_seen))


def _scatter_counts(n_rows: int, width: int, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """An ``n_rows`` x ``width`` matrix counting each (row, column) pair."""
    counts = np.zeros((n_rows, width))
    np.add.at(counts.reshape(-1), rows * width + columns, 1.0)
    return counts


class TfidfEmbedder:
    """TF-IDF vectors over a fixed fit corpus (typically one document).

    IDF = ln((1+N)/(1+df)) + 1, TF = raw count, vectors L2-normalized. The
    columns are the fit corpus's tokens sorted as strings. Text sharing no
    terms with the fit corpus embeds to the zero vector. ``fit`` holds the fit
    texts' encoding and ``fit_vectors`` their vectors, the rows
    ``embed(fit_corpus)`` gives, counted once for the fit's document
    frequencies.
    """

    def __init__(self, fit_corpus: Sequence[str]):
        if not fit_corpus:
            raise ValueError("fit_corpus must be non-empty")
        self.fit = encode(fit_corpus)
        vocab = sorted(self.fit.tokens)
        self._column_of = dict(zip(vocab, range(len(vocab))))
        columns = self._columns(self.fit.tokens)[self.fit.ids]
        counts = _scatter_counts(len(fit_corpus), len(vocab), self.fit.rows, columns)
        df = np.count_nonzero(counts, axis=0)
        self.idf = np.log((1.0 + len(fit_corpus)) / (1.0 + df)) + 1.0
        self.fit_vectors = _weigh(counts, self.idf)

    def _columns(self, tokens: list[str]) -> np.ndarray:
        """The column of each token; -1 for a token outside the vocabulary."""
        return np.fromiter(
            map(self._column_of.get, tokens, repeat(-1)), dtype=np.intp, count=len(tokens)
        )

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        ids, rows, _, tokens = encode(texts)
        columns = self._columns(tokens)[ids]
        known = columns >= 0
        counts = _scatter_counts(len(texts), len(self._column_of), rows[known], columns[known])
        return _weigh(counts, self.idf)

    def embed_counts(self, counts: np.ndarray, tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """TF-IDF rows of texts given as term counts, on their tokens' columns only.

        Column j of ``counts`` counts ``tokens[j]``, as ``Encoded.counts``
        gives them. Returns the ascending columns of this embedder's
        vocabulary that hold one of ``tokens``, and the rows weighed and
        L2-normalized on those columns. ``embed`` of such a text is zero
        outside them, so a row is ``embed``'s row restricted to the columns,
        up to the rounding of its norm.
        """
        columns = self._columns(tokens)
        held = np.flatnonzero(columns >= 0)
        held = held[np.argsort(columns[held])]
        columns = columns[held]
        return columns, _weigh(counts[:, held], self.idf[columns])


def _weigh(counts: np.ndarray, idf: np.ndarray) -> np.ndarray:
    """Term counts times ``idf``, each row L2-normalized, in place; a zero row stays zero."""
    counts *= idf
    norms = np.linalg.norm(counts, axis=1, keepdims=True)
    np.divide(counts, norms, out=counts, where=norms > 0)
    return counts


def cosine_matrix(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Cosine of every query row to every candidate row, rounded.

    One matrix product divided by the outer product of the row norms; a zero
    row scores 0. Scores are rounded to ``SCORE_DECIMALS`` so that noise in
    the last bits, which differs between summation orders and embedders,
    cannot decide a ranking.
    """
    scores = queries @ candidates.T
    norms = np.outer(np.linalg.norm(queries, axis=1), np.linalg.norm(candidates, axis=1))
    np.divide(scores, norms, out=scores, where=norms > 0)
    return np.round(scores, SCORE_DECIMALS, out=scores)


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores along the last axis, best first.

    A matrix gives a row of indices per row of scores. Scores are compared
    rounded to ``SCORE_DECIMALS``; equal scores go to the lower index.
    """
    return np.argsort(-np.round(scores, SCORE_DECIMALS), axis=-1, kind="stable")[..., :k]


@dataclass(frozen=True)
class Sentence:
    """A context sentence: its text and its index in the transcript."""

    position: int
    text: str


@dataclass(frozen=True)
class Selection:
    question: str
    position: int
    score: float
    rank: int


@dataclass
class ExtractiveContext:
    doc_id: str
    selections: list[Selection]
    context_sentences: list[Sentence]
    context_text: str = field(init=False)

    def __post_init__(self):
        self.context_text = " ".join(s.text for s in self.context_sentences)

    @classmethod
    def from_dict(cls, data: dict) -> "ExtractiveContext":
        """Read a context back through ``reader``, checking it against itself.

        Raises ``TypeError`` for a value that does not match its field, and
        ``ValueError`` when the stored ``context_text`` is not the context
        sentences joined or a selection names a position that is not among them.
        """
        context = reader(cls)(data)
        if data["context_text"] != context.context_text:
            raise ValueError(f"context_text of {context.doc_id!r} is not its sentences joined")
        positions = {s.position for s in context.context_sentences}
        stray = sorted({s.position for s in context.selections} - positions)
        if stray:
            raise ValueError(
                f"selections of {context.doc_id!r} name positions {stray} outside the context"
            )
        return context


def build_context(
    doc_id: str,
    sentences: Sequence[str],
    questions: list[str],
    question_vectors: np.ndarray,
    sentence_vectors: np.ndarray,
    k: int,
) -> ExtractiveContext:
    """Union of per-question top-k selections, deduplicated by position.

    Row i of ``question_vectors`` embeds ``questions[i]`` and row j of
    ``sentence_vectors`` embeds ``sentences[j]``. Each question takes the
    min(k, |sentences|) sentences of highest cosine (``top_k``), so ties
    break toward the earlier document position. Context sentences keep
    document order; the per-question selections are retained for audit. At
    most k * len(questions) sentences survive.
    """
    if not questions:
        raise NoQuestions(f"no questions supplied for document {doc_id!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = cosine_matrix(question_vectors, sentence_vectors)

    selections = [
        Selection(
            question=question,
            position=p,
            score=float(row[p]),
            rank=rank,
        )
        for question, row, best in zip(questions, scores, top_k(scores, k).tolist())
        for rank, p in enumerate(best, start=1)
    ]
    positions = {s.position for s in selections}
    context_sentences = [Sentence(p, sentences[p]) for p in sorted(positions)]
    return ExtractiveContext(
        doc_id=doc_id, selections=selections, context_sentences=context_sentences
    )
