"""Sentence/question embedding and top-k extractive selection.

The built-in embedder is per-document TF-IDF: the vocabulary and IDF are fit
on one transcript's sentences, which sharpens discrimination inside that
document. ``encode`` gives texts token ids local to the call in one call of a
small C kernel (``tokenize.c``, built and loaded by ``kernels.load``), with
the text of each id. A TF-IDF cosine comes from token counts, not from a
dense texts x vocabulary matrix: ``TfidfEmbedder`` keeps a document's counts
as one entry per distinct (sentence, token) pair, takes each vector's norm
from them, and fills rows only on the columns the queries hold. Texts counted
once per stage (``CountedTexts``) are scored on any document's fit through
its IDF (``TfidfEmbedder.fold``), at the (query, text) pairs asked for only:
a second small C kernel (``pair_products.c``) sums each pair's products over
the text's entries. A sentence-transformer service can be substituted
through the embedding client (``services.EmbeddingClient``). Its vectors,
and the TF-IDF rows with the norms of their whole vectors, are ranked by the
one scoring routine, ``cosine_matrix``; a fold's cosines (``Fold.scores``)
are divided and rounded by the same rule (``cosines``).
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

    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw term counts: text ``rows[i]`` holds id ``ids[i]`` ``counts[i]`` times.

        Returns ``(rows, ids, counts)``, one entry per distinct (text, id)
        pair, ordered by text and then id.
        """
        width = max(len(self.tokens), 1)
        keys, counts = np.unique(self.rows * width + self.ids, return_counts=True)
        return keys // width, keys % width, counts.astype(float)


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


class TfidfEmbedder:
    """TF-IDF over a fixed fit corpus (typically one document), scored from token counts.

    IDF = ln((1+N)/(1+df)) + 1 and TF = raw count; a text's vector is its
    counts times the IDF, L2-normalized. The columns are the fit texts' token
    ids: ``encode`` runs on the fit texts and then ``queries`` in one call,
    and ids are handed out in first-seen order, so the ids below the fit's
    vocabulary size are exactly the fit's tokens and a query token at or
    above it is outside the vocabulary. Text sharing no terms with the fit
    corpus has the zero vector. ``fit`` is the fit texts' encoding.

    No texts x vocabulary matrix is built. The fit keeps its counts as one
    entry per distinct (text, token) pair, from one ``np.unique``; one
    ``bincount`` of them gives the document frequencies and another the norm
    of each fit text's vector. ``embed`` and ``vectors`` fill rows on the
    columns that queries hold only, and ``cosine_matrix`` divides by the norms
    of the whole vectors.
    """

    def __init__(self, fit_corpus: Sequence[str], queries: Sequence[str] = ()):
        if not fit_corpus:
            raise ValueError("fit_corpus must be non-empty")
        n = len(fit_corpus)
        encoded = encode([*fit_corpus, *queries])
        split = int(np.searchsorted(encoded.rows, n))
        width = int(encoded.ids[:split].max(initial=-1)) + 1
        self.fit = Encoded(encoded.ids[:split], encoded.rows[:split], n, encoded.tokens[:width])
        self._rows, self._ids, counts = self.fit.terms()
        self.idf = np.log((1.0 + n) / (1.0 + np.bincount(self._ids, minlength=width))) + 1.0
        self._weights = counts * self.idf[self._ids]
        self._norms = np.sqrt(np.bincount(self._rows, self._weights**2, minlength=n))
        # The queries' counts on the columns they hold.
        ids, rows = encoded.ids[split:], encoded.rows[split:] - n
        known = ids < width
        columns, local = np.unique(ids[known], return_inverse=True)
        cells = np.bincount(
            rows[known] * len(columns) + local, minlength=len(queries) * len(columns)
        )
        self._queries = list(queries)
        self._query_counts = (cells.reshape(len(queries), len(columns)).astype(float), columns)

    def _on(self, columns: np.ndarray) -> np.ndarray:
        """The fit texts' counts times the IDF on ``columns``: a row per fit text."""
        position = np.full(len(self.idf), -1, dtype=np.intp)
        position[columns] = np.arange(len(columns))
        at = position[self._ids]
        held = at >= 0
        rows = np.zeros((self.fit.n_texts, len(columns)))
        rows[self._rows[held], at[held]] = self._weights[held]
        return rows

    def vectors(self, columns: np.ndarray) -> np.ndarray:
        """The fit texts' vectors on ``columns``, each L2-normalized as the whole vector."""
        rows, norms = self._on(columns), self._norms[:, None]
        return np.divide(rows, norms, out=rows, where=norms > 0)

    def embed(
        self, texts: Sequence[str], counts: tuple[np.ndarray, np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """``texts`` against the fit texts: ``cosine_matrix``'s arguments.

        Returns the texts' and the fit texts' counts times the IDF, on the
        columns the texts hold, and the norms of their whole vectors.
        ``counts`` is a texts x columns count matrix and the fit columns it is
        on, which hold every token of the texts that the fit holds. Without
        it, ``texts`` are the ``queries`` this embedder was built with,
        counted by the fit's ``encode`` call.
        """
        if counts is None:
            if list(texts) != self._queries:
                raise ValueError("texts other than the queries need their counts")
            counts = self._query_counts
        matrix, columns = counts
        weights = matrix * self.idf[columns]
        return weights, self._on(columns), (np.linalg.norm(weights, axis=1), self._norms)

    def fold(self, counted: CountedTexts) -> Fold:
        """Texts counted once (``CountedTexts``) on this fit: its IDF on their counts.

        A counted text's TF-IDF vector on this fit is zero outside the fit
        columns that hold one of the counted tokens, so it is its counts of
        those tokens times the IDF, and its norm comes from them in one
        ``bincount``.
        """
        master = counted.columns_of(self.fit.tokens)
        fit_columns = np.flatnonzero(master >= 0)
        columns = master[fit_columns]
        position = np.full(counted.matrix.shape[1], -1, dtype=np.intp)
        position[columns] = np.arange(len(columns))
        rows, ids, counts = counted.terms
        at = position[ids]
        held = at >= 0
        rows, at = rows[held], at[held]
        weights = counts[held] * self.idf[fit_columns][at]
        norms = np.sqrt(np.bincount(rows, weights**2, minlength=len(counted.matrix)))
        return Fold(fit_columns, columns, rows, at, weights, norms)


class CountedTexts:
    """Texts encoded and counted once, to be scored on any document's fit.

    ``terms`` holds an entry per distinct (text, token) pair
    (``Encoded.terms``) and ``matrix`` the same counts as a texts x tokens
    matrix. The columns are the texts' own token ids, so neither depends on a
    document.
    """

    def __init__(self, texts: Sequence[str]):
        encoded = encode(texts)
        self.terms = rows, ids, counts = encoded.terms()
        self.matrix = np.zeros((len(texts), len(encoded.tokens)))
        self.matrix[rows, ids] = counts
        self._column_of = dict(zip(encoded.tokens, range(len(encoded.tokens))))

    def columns_of(self, tokens: list[str]) -> np.ndarray:
        """The column of each token; -1 for a token these texts do not hold."""
        return np.fromiter(
            map(self._column_of.get, tokens, repeat(-1)), dtype=np.intp, count=len(tokens)
        )


class Fold(NamedTuple):
    """A fit's TF-IDF weights on the counts of ``CountedTexts``.

    Fit column ``fit_columns[j]`` holds the token of counted column
    ``columns[j]``. Entry i is a counted (text, token) pair the fit holds:
    text ``rows[i]`` has weight ``weights[i]``, its count times the IDF, on
    fit column ``fit_columns[at[i]]``. The entries are ordered by text, so
    each text's entries are one run. ``norms`` are the counted texts' TF-IDF
    norms on the fit. ``scores`` gives the cosines of query rows on
    ``fit_columns`` to counted texts, at the (query, text) pairs asked for;
    the route stage scores its topic centroids against the master questions
    in their buckets with it.
    """

    fit_columns: np.ndarray
    columns: np.ndarray
    rows: np.ndarray
    at: np.ndarray
    weights: np.ndarray
    norms: np.ndarray

    def scores(self, queries: np.ndarray, topics: np.ndarray, texts: np.ndarray) -> np.ndarray:
        """The cosine of query row ``topics[p]``, on ``fit_columns``, to counted text ``texts[p]``.

        One score per pair p. A query's norm is that of its row as given, on
        ``fit_columns`` only; the counted texts' norms are ``norms``. The
        products come from ``products`` and ``cosines`` divides and rounds
        them.
        """
        topics = np.asarray(topics, dtype=np.intp)
        texts = np.asarray(texts, dtype=np.intp)
        # Gathered first, so an index out of range raises before the kernel runs.
        norms = np.linalg.norm(queries, axis=1)[topics] * self.norms[texts]
        return cosines(self.products(queries, topics, texts), norms)

    def products(self, queries: np.ndarray, topics: np.ndarray, texts: np.ndarray) -> np.ndarray:
        """The product of query row ``topics[p]`` with counted text ``texts[p]``'s weights.

        One product per pair p, on the calling thread, from the compiled loop
        over each text's entries (``pair_products.c``, loaded by
        ``kernels.load``), which sums in entry order from 0.0 as ``bincount``
        does. Where the kernel is unavailable, the Python reference
        (``_python_products``) runs, with the same bits. ``topics`` and
        ``texts`` are ``intp`` arrays of indices in range.
        """
        kernel = kernels.load(*_PAIR_PRODUCTS)
        if kernel is None:
            return _python_products(self, queries, topics, texts)
        queries = np.ascontiguousarray(queries, dtype=float)
        starts = np.searchsorted(self.rows, np.arange(len(self.norms) + 1))
        out = np.empty(len(topics))
        width = queries.shape[1]
        kernel(queries, width, self.at, self.weights, starts, topics, texts, len(topics), out)
        return out


# ``kernels.load``'s arguments for the compiled loop of ``pair_products.c``.
_DOUBLES = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_PAIR_PRODUCTS = ("pair_products", "pair_products", (
    _DOUBLES, ctypes.c_ssize_t, _INTP, _DOUBLES, _INTP, _INTP, _INTP, ctypes.c_ssize_t, _DOUBLES,
))


def _python_products(
    fold: Fold, queries: np.ndarray, topics: np.ndarray, texts: np.ndarray
) -> np.ndarray:
    """The reference for ``Fold.products``: every query x text cell, gathered at the pairs.

    One ``bincount`` over the entries for every query at once, which adds
    each cell's terms in entry order from 0.0.
    """
    n, width = len(queries), len(fold.norms)
    cells = np.arange(n)[:, None] * width + fold.rows
    terms = queries[:, fold.at] * fold.weights
    # With no entries, bincount counts in integers.
    products = np.bincount(cells.ravel(), terms.ravel(), minlength=n * width)
    return products.astype(float, copy=False).reshape(n, width)[topics, texts]


def cosine_matrix(
    queries: np.ndarray,
    candidates: np.ndarray,
    norms: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Cosine of every query row to every candidate row, rounded.

    One matrix product divided by the outer product of the row norms; a zero
    row scores 0. ``norms`` are the query and candidate norms when the rows
    are vectors on some of their columns only, every column where both can
    be nonzero; by default they are the rows' own. Scores are rounded to
    ``SCORE_DECIMALS`` so that noise in the last bits, which differs between
    summation orders and embedders, cannot decide a ranking.
    """
    if norms is None:
        norms = (np.linalg.norm(queries, axis=1), np.linalg.norm(candidates, axis=1))
    return cosines(queries @ candidates.T, np.outer(*norms))


def cosines(products: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Cosines from the products of vector pairs and of their norms, in place.

    Each product is divided by its pair's ``norms`` and rounded to
    ``SCORE_DECIMALS``; a pair with a zero norm scores 0.
    """
    np.divide(products, norms, out=products, where=norms > 0)
    return np.round(products, SCORE_DECIMALS, out=products)


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
    norms: tuple[np.ndarray, np.ndarray] | None = None,
) -> ExtractiveContext:
    """Union of per-question top-k selections, deduplicated by position.

    Row i of ``question_vectors`` embeds ``questions[i]`` and row j of
    ``sentence_vectors`` embeds ``sentences[j]``, scored by ``cosine_matrix``
    with ``norms`` (as ``TfidfEmbedder.embed`` gives all three). Each question takes the
    min(k, |sentences|) sentences of highest cosine (``top_k``), so ties
    break toward the earlier document position. Context sentences keep
    document order; the per-question selections are retained for audit. At
    most k * len(questions) sentences survive.
    """
    if not questions:
        raise NoQuestions(f"no questions supplied for document {doc_id!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = cosine_matrix(question_vectors, sentence_vectors, norms)

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
