"""Sentence/question embedding and top-k extractive selection.

The built-in embedder is per-document TF-IDF: the vocabulary and IDF are fit
on one transcript's sentences, which sharpens discrimination inside that
document and needs no global state. A sentence-transformer service can be
substituted through the embedding client; both sides expose ``embed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .corpus import Sentence, Transcript
from .errors import NoQuestions
from .qbank import Question
from .text import tokenize

# Decimals kept in every similarity score before ranking.
SCORE_DECIMALS = 12


class Embedder(Protocol):
    def embed(self, texts: list[str]) -> np.ndarray: ...


class TfidfEmbedder:
    """TF-IDF vectors over a fixed fit corpus (typically one document).

    IDF = ln((1+N)/(1+df)) + 1, TF = raw count, vectors L2-normalized.
    Text sharing no terms with the fit corpus embeds to the zero vector.
    """

    def __init__(self, fit_corpus: list[str]):
        if not fit_corpus:
            raise ValueError("fit_corpus must be non-empty")
        docs = [tokenize(text) for text in fit_corpus]
        self.vocab = sorted({tok for doc in docs for tok in doc})
        self._index = {tok: i for i, tok in enumerate(self.vocab)}
        n_docs = len(docs)
        df = np.zeros(len(self.vocab))
        for doc in docs:
            for tok in set(doc):
                df[self._index[tok]] += 1
        self.idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0

    def embed(self, texts: list[str]) -> np.ndarray:
        vectors = np.zeros((len(texts), len(self.vocab)))
        for row, text in enumerate(texts):
            for tok in tokenize(text):
                col = self._index.get(tok)
                if col is not None:
                    vectors[row, col] += 1.0
        vectors *= self.idf
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        np.divide(vectors, norms, out=vectors, where=norms > 0)
        return vectors


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
    """Indices of the k highest scores in a row, best first.

    Scores are compared rounded to ``SCORE_DECIMALS``; equal scores go to the
    lower index.
    """
    return np.argsort(-np.round(scores, SCORE_DECIMALS), kind="stable")[:k]


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
        return cls(
            doc_id=data["doc_id"],
            selections=[Selection(**item) for item in data["selections"]],
            context_sentences=[Sentence(**item) for item in data["context_sentences"]],
        )


def build_context(
    doc: Transcript, questions: list[Question], k: int, embedder: Embedder
) -> ExtractiveContext:
    """Union of per-question top-k selections, deduplicated by position.

    Each question takes the min(k, |sentences|) sentences of highest cosine
    (``top_k``), so ties break toward the earlier document position. Context
    sentences keep document order; the per-question selections are
    retained for audit. At most k * len(questions) sentences survive.
    """
    if not questions:
        raise NoQuestions(f"no questions supplied for document {doc.id!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    sentence_vectors = embedder.embed([s.text for s in doc.sentences])
    question_vectors = embedder.embed([q.text for q in questions])
    scores = cosine_matrix(question_vectors, sentence_vectors)

    selections = [
        Selection(
            question=question.text,
            position=doc.sentences[i].position,
            score=float(row[i]),
            rank=rank,
        )
        for question, row in zip(questions, scores)
        for rank, i in enumerate(top_k(row, k), start=1)
    ]
    positions = {s.position for s in selections}
    context_sentences = [s for s in doc.sentences if s.position in positions]
    return ExtractiveContext(
        doc_id=doc.id, selections=selections, context_sentences=context_sentences
    )
