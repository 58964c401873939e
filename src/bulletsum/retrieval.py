"""Sentence/question embedding and top-k extractive selection.

The built-in embedder is per-document TF-IDF: the vocabulary and IDF are fit
on one transcript's sentences, which sharpens discrimination inside that
document. Fit and embed share a ``TokenIndex``, so a text is tokenized once
per stage and a count vector is a scatter of token ids into the document's
columns. A sentence-transformer service can be substituted through the
embedding client (``services.EmbeddingClient``). Ranking takes vectors, which
a caller embeds once per document. ``embed_counts`` weighs a text list counted
once per stage (``TokenIndex.counts``) on the columns of its tokens only.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .corpus import Transcript
from .errors import NoQuestions
from .records import reader
from .text import tokenize

# Decimals kept in every similarity score before ranking.
SCORE_DECIMALS = 12


class TokenIndex:
    """Tokens interned as ints, shared by the embedders of one stage.

    Ids are handed out in first-seen order. ``encode`` tokenizes a text with
    ``tokenize`` and interns its tokens, except for the texts the index was
    made with: their ids are computed once and kept for the index's lifetime.
    """

    def __init__(self, kept: Iterable[str] = ()):
        self.tokens: list[str] = []
        self._ids: dict[str, int] = {}
        self._kept: dict[str, np.ndarray] = {}  # empty while ``kept`` is encoded
        self._kept = {text: self.encode(text) for text in kept}

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int | None:
        return self._ids.get(token)

    def encode(self, text: str) -> np.ndarray:
        kept = self._kept.get(text)
        if kept is not None:
            return kept
        ids = self._ids
        encoded = []
        for token in tokenize(text):
            token_id = ids.get(token)
            if token_id is None:
                token_id = ids[token] = len(self.tokens)
                self.tokens.append(token)
            encoded.append(token_id)
        return np.array(encoded, dtype=np.intp)

    def counts(self, texts: Sequence[str]) -> np.ndarray:
        """Raw term counts: a row per text, a column per id handed out so far."""
        ids, rows = _flatten([self.encode(text) for text in texts])
        return _scatter_counts(len(texts), len(self), rows, ids)


def _flatten(id_arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """All ids in one array, and the row each came from."""
    rows = np.repeat(np.arange(len(id_arrays)), [len(ids) for ids in id_arrays])
    ids = np.concatenate(id_arrays) if id_arrays else np.zeros(0, dtype=np.intp)
    return ids, rows


def _scatter_counts(n_rows: int, width: int, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """An ``n_rows`` x ``width`` matrix counting each (row, column) pair."""
    counts = np.zeros((n_rows, width))
    np.add.at(counts.reshape(-1), rows * width + columns, 1.0)
    return counts


class TfidfEmbedder:
    """TF-IDF vectors over a fixed fit corpus (typically one document).

    IDF = ln((1+N)/(1+df)) + 1, TF = raw count, vectors L2-normalized. The
    columns are the fit corpus's tokens sorted as strings. Text sharing no
    terms with the fit corpus embeds to the zero vector. The fit texts are
    tokenized once, into ``index`` (a fresh one by default); embedding them
    again reuses those ids.
    """

    def __init__(self, fit_corpus: Sequence[str], index: TokenIndex | None = None):
        if not fit_corpus:
            raise ValueError("fit_corpus must be non-empty")
        self.index = TokenIndex() if index is None else index
        self.fit_ids = [self.index.encode(text) for text in fit_corpus]
        self._fit = dict(zip(fit_corpus, self.fit_ids))
        ids, rows = _flatten(self.fit_ids)
        present = np.zeros(len(self.index), dtype=bool)
        present[ids] = True
        self._vocab_ids = np.array(
            sorted(np.flatnonzero(present).tolist(), key=self.index.tokens.__getitem__),
            dtype=np.intp,
        )
        in_text = np.zeros((len(fit_corpus), len(self._vocab_ids)), dtype=bool)
        in_text[rows, self._columns(ids)] = True
        df = in_text.sum(axis=0)
        self.idf = np.log((1.0 + len(fit_corpus)) / (1.0 + df)) + 1.0

    def _columns(self, ids: np.ndarray) -> np.ndarray:
        """The column of each token id; -1 for a token outside the vocabulary."""
        columns = np.full(len(self.index), -1, dtype=np.intp)
        columns[self._vocab_ids] = np.arange(len(self._vocab_ids))
        return columns[ids]

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        ids, rows = _flatten(
            [self._fit[text] if text in self._fit else self.index.encode(text) for text in texts]
        )
        columns = self._columns(ids)
        known = columns >= 0
        counts = _scatter_counts(len(texts), len(self._vocab_ids), rows[known], columns[known])
        return _weigh(counts, self.idf)

    def embed_counts(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """TF-IDF rows of texts given as ``TokenIndex.counts`` rows, on their columns only.

        ``counts`` has a column for each of the index's first
        ``counts.shape[1]`` token ids. Returns the ascending columns of this
        embedder's vocabulary that hold one of those tokens, and the rows
        weighed and L2-normalized on those columns. ``embed`` of such a text
        is zero outside them, so a row is ``embed``'s row restricted to the
        columns, up to the rounding of its norm.
        """
        columns = np.flatnonzero(self._vocab_ids < counts.shape[1])
        return columns, _weigh(counts[:, self._vocab_ids[columns]], self.idf[columns])


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
    doc: Transcript,
    questions: list[str],
    question_vectors: np.ndarray,
    sentence_vectors: np.ndarray,
    k: int,
) -> ExtractiveContext:
    """Union of per-question top-k selections, deduplicated by position.

    Row i of ``question_vectors`` embeds ``questions[i]`` and row j of
    ``sentence_vectors`` embeds ``doc.sentences[j]``. Each question takes the
    min(k, |sentences|) sentences of highest cosine (``top_k``), so ties
    break toward the earlier document position. Context sentences keep
    document order; the per-question selections are retained for audit. At
    most k * len(questions) sentences survive.
    """
    if not questions:
        raise NoQuestions(f"no questions supplied for document {doc.id!r}")
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
    context_sentences = [Sentence(p, doc.sentences[p]) for p in sorted(positions)]
    return ExtractiveContext(
        doc_id=doc.id, selections=selections, context_sentences=context_sentences
    )
