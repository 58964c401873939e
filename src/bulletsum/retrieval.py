"""Sentence/question embedding and top-k extractive selection.

The built-in embedder is per-document TF-IDF: the vocabulary and IDF are fit
on one transcript's sentences, which sharpens discrimination inside that
document. ``encode`` gives texts token ids local to the call in one call of a
small C kernel (``tokenize.c``, built and loaded by ``kernels.load``), with
the text of each id. A TF-IDF cosine comes from token counts, not from a
dense texts x vocabulary matrix: every sparse count is one ``Entries``
record, a row per text in CSR form with an entry per distinct token.
``TfidfEmbedder`` keeps a document's counts times the IDF in one, takes each
vector's norm from them, and fills rows only on the columns the queries hold.
Texts counted once per stage (``Encoded.terms``) are scored on any document's
fit through its IDF (``TfidfEmbedder.fold``), at the (query, text) pairs
asked for only: a second small C kernel (``pair_products.c``) sums each
pair's products over the text's entries. A sentence-transformer service can
be substituted through the embedding client (``services.EmbeddingClient``).
Its vectors, and the TF-IDF rows with the norms of their whole vectors, are
ranked by the one scoring routine, ``cosine_matrix``, and a fold's cosines
(``Fold.scores``) are divided and rounded alike (``cosines``).
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


class Entries(NamedTuple):
    """Sparse rows in CSR form: row r holds ``values[e]`` on column ``columns[e]``.

    Row r's entries are e from ``starts[r]`` up to ``starts[r + 1]``, so the
    rows are ``len(starts) - 1``. ``starts`` and ``columns`` are ``intp``.
    """

    starts: np.ndarray
    columns: np.ndarray
    values: np.ndarray

    def rows(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(len(self.starts) - 1), self.starts[1:] - self.starts[:-1])

    def on(self, columns: np.ndarray, width: int) -> Entries:
        """The entries on ``columns`` (of ``width``), each now on its column's index in them.

        Every other entry is dropped; the rest keep their order.
        """
        position = np.full(width, -1, dtype=np.intp)
        position[columns] = np.arange(len(columns))
        at = position[self.columns]
        held = np.flatnonzero(at >= 0)
        # A row's run now starts after the held entries of the rows before it.
        return Entries(np.searchsorted(held, self.starts), at[held], self.values[held])


class Encoded(NamedTuple):
    """Texts as token ids local to one ``encode`` call, flat and in order.

    ``ids[i]`` came from text ``rows[i]``. Ids are handed out in first-seen
    order, and ``tokens[j]`` is the text of id j, each distinct token once.
    """

    ids: np.ndarray
    rows: np.ndarray
    n_texts: int
    tokens: list[str]

    def terms(self) -> Entries:
        """Raw term counts: a row per text, with its count of each id it holds.

        One entry per distinct (text, id) pair, ordered by text and then id.
        """
        width = max(len(self.tokens), 1)
        keys, counts = np.unique(self.rows * width + self.ids, return_counts=True)
        rows = keys // width
        # ``keys - rows * width`` is ``keys % width``, in a third of the time.
        starts = np.searchsorted(rows, np.arange(self.n_texts + 1))
        return Entries(starts, keys - rows * width, counts.astype(float))


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

    No texts x vocabulary matrix is built. One ``Encoded.terms`` counts the
    fit texts and the queries, kept times the IDF (the queries' on the fit
    columns only); one ``bincount`` gives the document frequencies and another
    the norm of each fit text's vector. ``embed`` and ``vectors`` fill rows on
    the columns that queries hold only, and ``cosine_matrix`` divides by the
    norms of the whole vectors.
    """

    def __init__(self, fit_corpus: Sequence[str], queries: Sequence[str] = ()):
        if not fit_corpus:
            raise ValueError("fit_corpus must be non-empty")
        n = len(fit_corpus)
        encoded = encode([*fit_corpus, *queries])
        split = int(np.searchsorted(encoded.rows, n))
        width = int(encoded.ids[:split].max(initial=-1)) + 1
        self.fit = Encoded(encoded.ids[:split], encoded.rows[:split], n, encoded.tokens[:width])
        starts, ids, counts = encoded.terms()
        end, fit_ids = starts[n], ids[: starts[n]]
        self.idf = np.log((1.0 + n) / (1.0 + np.bincount(fit_ids, minlength=width))) + 1.0
        fit = self._weights = Entries(starts[: n + 1], fit_ids, counts[:end] * self.idf[fit_ids])
        self._norms = np.sqrt(np.bincount(fit.rows(), fit.values**2, minlength=n))
        # The queries' counts times the IDF, on the fit's columns only.
        asked = Entries(starts[n:] - end, ids[end:], counts[end:])
        asked = asked.on(np.arange(width), len(encoded.tokens))
        self._queries = list(queries)
        self._query_weights = asked._replace(values=asked.values * self.idf[asked.columns])

    def _on(self, weights: Entries, columns: np.ndarray) -> np.ndarray:
        """``weights`` on fit columns as a matrix on ``columns``: a row per text."""
        held = weights.on(columns, len(self.idf))
        rows = np.zeros((len(held.starts) - 1, len(columns)))
        rows[held.rows(), held.columns] = held.values
        return rows

    def vectors(self, columns: np.ndarray) -> np.ndarray:
        """The fit texts' vectors on ``columns``, each L2-normalized as the whole vector."""
        rows, norms = self._on(self._weights, columns), self._norms[:, None]
        return np.divide(rows, norms, out=rows, where=norms > 0)

    def embed(
        self, texts: Sequence[str], weights: Entries | None = None
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """``texts`` against the fit texts: ``cosine_matrix``'s arguments.

        Returns the texts' and the fit texts' counts times the IDF, on the
        fit columns the texts hold, in ascending order, and the norms of
        their whole vectors. ``weights`` are the texts' counts times the IDF
        on fit columns, a row per text, and hold every token of the texts
        that the fit holds. Without them, ``texts`` are the ``queries`` this
        embedder was built with, counted by the fit's ``encode`` call.
        """
        if weights is None:
            if list(texts) != self._queries:
                raise ValueError("texts other than the queries need their counts")
            weights = self._query_weights
        # The columns the texts hold, ascending (``np.unique`` imports ``numpy.ma``).
        columns = np.flatnonzero(np.bincount(weights.columns, minlength=len(self.idf)))
        rows = self._on(weights, columns)
        return rows, self._on(self._weights, columns), (np.linalg.norm(rows, axis=1), self._norms)

    def fold(self, tokens: list[str], counts: Entries) -> Fold:
        """Texts counted apart, ``counts`` (``Encoded.terms``) of ``tokens``, on this fit.

        A text's TF-IDF vector on this fit is zero outside the fit columns
        that hold one of its tokens, so it is its counts of those tokens times
        the IDF, and its norm comes from them in one ``bincount``.
        """
        column_of = dict(zip(tokens, range(len(tokens))))
        counted = np.fromiter(map(column_of.get, self.fit.tokens, repeat(-1)), np.intp)
        fit_columns = np.flatnonzero(counted >= 0)
        held = counts.on(counted[fit_columns], len(tokens))
        weights = held._replace(values=held.values * self.idf[fit_columns][held.columns])
        norms = np.bincount(weights.rows(), weights.values**2, minlength=len(counts.starts) - 1)
        return Fold(fit_columns, weights, np.sqrt(norms))


class Fold(NamedTuple):
    """A fit's TF-IDF weights on the counts of texts counted apart (``TfidfEmbedder.fold``).

    ``entries`` holds a row per counted text: its count times the IDF of
    each token the fit holds, on column j for fit column ``fit_columns[j]``.
    ``entries.starts`` are made once, with the fold. ``norms`` are the
    counted texts' TF-IDF norms on the fit. ``scores`` gives the cosines of
    query rows on ``fit_columns`` to counted texts, at the (query, text)
    pairs asked for; the route stage scores its topic centroids against the
    master questions in their buckets with it, and ``weights_of`` gives
    the chosen questions' rows.
    """

    fit_columns: np.ndarray
    entries: Entries
    norms: np.ndarray

    def weights_of(self, texts: Sequence[int]) -> Entries:
        """Counted texts ``texts``' rows, in that order, on fit columns: ``embed``'s ``weights``."""
        starts, columns, weights = self.entries
        lengths = (starts[1:] - starts[:-1])[texts]
        taken = np.concatenate(([0], np.cumsum(lengths)))
        picked = np.repeat(starts[texts] - taken[:-1], lengths) + np.arange(taken[-1])
        return Entries(taken, self.fit_columns[columns[picked]], weights[picked])

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
        starts, columns, weights = self.entries
        out = np.empty(len(topics))
        kernel(queries, queries.shape[1], columns, weights, starts, topics, texts, len(topics), out)
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
    cells = np.arange(n)[:, None] * width + fold.entries.rows()
    terms = queries[:, fold.entries.columns] * fold.entries.values
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
