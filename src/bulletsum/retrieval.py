"""Sentence/question embedding and top-k extractive selection.

The built-in embedder is per-document TF-IDF: the vocabulary and IDF are fit
on one transcript's sentences, which sharpens discrimination inside that
document. ``encode`` counts the tokens of texts, which may form several
documents with ids local to each, in one call of a small C kernel
(``tokenize.c``, built and loaded by ``kernels.load``); the text of an id is
sliced only when asked for. A TF-IDF cosine comes from token counts, not
from a dense texts x vocabulary matrix: every sparse count is one
``Entries`` record, a row per text in CSR form with an entry per distinct
token. ``TfidfEmbedder`` fits a batch of documents, each with its own
vocabulary and IDF, in one encoding and one numpy call per step of the fit;
``embed`` gives one document's queries as dense rows against its sentences'
entries. Texts counted once per stage (``Encoded.terms``) are scored on any
document's fit through its IDF (``TfidfEmbedder.fold``). Every TF-IDF
product is summed over a sparse row's entries by a second small C kernel
(``pair_products.c``), at the (query, row) pairs asked for, off BLAS:
``entry_cosines`` for a document's questions and sentences, ``Fold.scores``
for route's topic centroids and master questions. A sentence-transformer
service can be substituted through the embedding client
(``services.EmbeddingClient``); its vectors are scored by ``cosine_matrix``.
Every cosine is divided and rounded alike (``cosines``). The embedders score;
``build_context`` only ranks the question x sentence scores it is given and
builds the records.
"""

from __future__ import annotations

import ctypes
from collections import Counter
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
    """Texts' term counts from one ``encode`` call, with ids local to each document.

    Each document hands out its own ids, from 0 in first-seen order.
    ``terms`` holds a row per text: the ids it holds, ascending, with how
    often it holds each. ``seen[i]`` is the number of ids text i's document
    has handed out through text i. The call's distinct tokens are document
    d's ids in order, from ``bases[d]`` up to ``bases[d + 1]``; token k is
    ``text[first[k]:first[k] + length[k]]``, sliced only when ``tokens`` is
    asked for it.
    """

    terms: Entries
    seen: np.ndarray
    bases: np.ndarray
    text: str
    first: np.ndarray
    length: np.ndarray

    def tokens(self, document: int = 0) -> list[str]:
        """The text of each of ``document``'s ids."""
        tokens = slice(self.bases[document], self.bases[document + 1])
        first, ends = self.first[tokens], self.first[tokens] + self.length[tokens]
        return [self.text[a:b] for a, b in zip(first.tolist(), ends.tolist())]


# ``kernels.load``'s arguments for the compiled tokenizer of ``tokenize.c``.
# The kernels called per document take their arrays as plain pointers
# (``_address``): an ``ndpointer`` argument costs about 4 µs to convert,
# more than a sentence-sized kernel call.
_TOKENIZE = ("tokenize", "tokenize_texts", (
    ctypes.c_char_p, *[ctypes.c_void_p] * 2, ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_ssize_t,
    *[ctypes.c_void_p] * 9,
))


def _address(array: np.ndarray, dtype: type) -> int:
    """The address of ``array``'s data, which must be C-contiguous ``dtype``, for a kernel.

    The caller keeps a reference to ``array`` until the kernel returns.
    """
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise TypeError(f"a kernel takes C-contiguous {np.dtype(dtype)} arrays, not {array.dtype}")
    return array.ctypes.data


def encode(texts: Sequence[str], sizes: Sequence[int] | None = None) -> Encoded:
    """The counts of ``tokenize``'s tokens of every text, in one call of the compiled tokenizer.

    ``sizes`` are the number of texts of each document, in order; by
    default the texts are one document. The texts are lowercased and passed
    to the kernel (``tokenize.c``, loaded by ``kernels.load``) as one ASCII
    buffer with the offset of each text. Each character that is not ASCII
    becomes one ``?``, which no token holds, so the tokens are
    ``tokenize``'s and a byte offset is a character offset. Where the kernel
    is unavailable, the Python reference (``_python_encode``) runs, with the
    same result.
    """
    documents = np.cumsum([0, *(sizes if sizes is not None else [len(texts)])], dtype=np.intp)
    if documents[-1] != len(texts):
        raise ValueError(f"sizes add up to {documents[-1]} texts, not {len(texts)}")
    kernel = kernels.load(*_TOKENIZE)
    if kernel is None:
        return _python_encode(texts, documents)
    joined = "".join(texts)
    if joined.isascii():
        text, starts = joined.lower(), np.cumsum([0, *map(len, texts)], dtype=np.intp)
    else:
        lowered = [text.lower() for text in texts]
        text, starts = "".join(lowered), np.cumsum([0, *map(len, lowered)], dtype=np.intp)
    # A decimal token spans three bytes or more, and any other token but a
    # text's last is followed by a byte that no token holds, so a text of n
    # bytes holds at most (n + 1) // 2 tokens. The table keeps at least half
    # its slots free in the document with the most.
    room = (len(text) + len(texts)) // 2
    per_document = (starts[documents[1:]] - starts[documents[:-1]] + np.diff(documents)) // 2
    table = np.full(1 << int(2 * per_document.max(initial=0)).bit_length(), -1, dtype=np.intp)
    entry, seen = np.empty(len(texts) + 1, dtype=np.intp), np.empty(len(texts), dtype=np.intp)
    bases = np.empty(len(documents), dtype=np.intp)
    columns, first, length, tally = np.empty((4, room), dtype=np.intp)
    counts, bits = np.empty(room), np.zeros(len(table) // 64 + 1, dtype=np.uint64)
    kernel(
        text.encode("ascii", "replace"), _address(starts, np.intp), _address(documents, np.intp),
        len(documents) - 1, _address(table, np.intp), len(table),
        *(_address(a, np.intp) for a in (entry, columns)), _address(counts, np.float64),
        *(_address(a, np.intp) for a in (seen, bases, first, length, tally)),
        _address(bits, np.uint64),
    )
    # Copied out, so that the buffers sized for the worst case are freed.
    n, k = entry[-1], bases[-1]
    terms = Entries(entry, columns[:n].copy(), counts[:n].copy())
    return Encoded(terms, seen, bases, text, first[:k].copy(), length[:k].copy())


def _python_encode(texts: Sequence[str], documents: np.ndarray) -> Encoded:
    """The reference for ``encode``: ``tokenize`` per text, ids from a first-seen dict per document.

    Its ``text`` is the distinct tokens back to back.
    """
    entry, columns, counts, seen, bases, tokens = [0], [], [], [], [], []
    for a, b in zip(documents[:-1].tolist(), documents[1:].tolist()):
        bases.append(len(tokens))
        ids: dict[str, int] = {}
        for text in texts[a:b]:
            held = Counter(ids.setdefault(token, len(ids)) for token in tokenize(text))
            for column in sorted(held):
                columns.append(column)
                counts.append(held[column])
            entry.append(len(columns))
            seen.append(len(ids))
        tokens += ids
    bases.append(len(tokens))
    terms = Entries(
        np.array(entry, dtype=np.intp), np.array(columns, dtype=np.intp), np.array(counts, float)
    )
    length = np.array([len(token) for token in tokens], dtype=np.intp)
    first = np.cumsum(length) - length
    seen, bases = np.array(seen, dtype=np.intp), np.array(bases, dtype=np.intp)
    return Encoded(terms, seen, bases, "".join(tokens), first, length)


def _starts(lengths: np.ndarray) -> np.ndarray:
    """CSR row starts for rows of ``lengths`` entries."""
    return np.concatenate(([0], np.cumsum(lengths))).astype(np.intp, copy=False)


def _ranges(first: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The indices from ``first[i]`` up to ``end[i]`` for each i, in order."""
    lengths = end - first
    return np.repeat(first - _starts(lengths)[:-1], lengths) + np.arange(lengths.sum())


class TfidfEmbedder:
    """TF-IDF fits of a batch of documents, each on its own texts, scored from token counts.

    Document d is fit on its texts ``documents[d]`` (typically one
    transcript's sentences) with its own vocabulary and IDF, and embeds its
    ``queries[d]``. IDF = ln((1+N)/(1+df)) + 1 and TF = raw count; a text's
    vector is its counts times the IDF, L2-normalized. A document's columns
    are its fit texts' token ids: ``encode`` counts every document's fit
    texts and then its queries in one call, and ids are handed out in
    first-seen order per document, so the ids below a document's
    vocabulary size are exactly its fit tokens and a query token at or above
    it is outside the vocabulary. Text sharing no terms with the fit texts
    has the zero vector.

    No texts x vocabulary matrix is built. Every document's columns follow
    those of the documents before it, so the IDF, the fit weights (counts
    times the IDF, one ``Entries`` row per fit text), their norms and the
    queries' rows on their document's columns each take one numpy call for
    the whole batch. ``embed`` gives a document's queries as dense rows
    against its fit texts' weights, which ``entry_cosines`` scores with the
    pair kernel (``pair_products``).
    """

    def __init__(
        self, documents: Sequence[Sequence[str]], queries: Sequence[Sequence[str]] = ()
    ):
        if not documents or not all(documents):
            raise ValueError("every fit corpus must be non-empty")
        queries = [list(asked) for asked in queries] or [[] for _ in documents]
        if len(queries) != len(documents):
            raise ValueError("queries must be given for every document or for none")
        n, m = np.array([[len(fit), len(asked)] for fit, asked in zip(documents, queries)]).T
        encoded = encode(
            [text for pair in zip(documents, queries) for part in pair for text in part], n + m
        )
        self._encoded, self._queries, self._tokens = encoded, queries, {}
        starts, columns, counts = encoded.terms
        bases = encoded.bases
        self._texts_at = texts_at = _starts(n + m)
        self._fit_sizes = n
        self._widths = widths = encoded.seen[texts_at[:-1] + n - 1]
        # Each entry's token, numbered across the call: its document's base
        # plus its id. The fit texts' entries are those of every text but the
        # queries, which follow each document's fit texts.
        tokens = columns + np.repeat(bases[:-1], np.diff(starts[texts_at]))
        first_query, end = starts[texts_at[:-1] + n], starts[texts_at[1:]]
        asked = _ranges(first_query, end)
        df = np.bincount(tokens, minlength=bases[-1])
        df -= np.bincount(tokens[asked], minlength=bases[-1])
        self._idf = np.log((1.0 + np.repeat(n, np.diff(bases))) / (1.0 + df)) + 1.0
        weights = self._weights = Entries(starts, columns, counts * self._idf[tokens])
        rows = weights.rows()
        self._norms = np.sqrt(np.bincount(rows, weights.values**2, minlength=len(starts) - 1))

        # Each query's weights on its document's columns only, as dense rows:
        # document d's m[d] rows of widths[d] columns, from ``_rows_at[d]`` on.
        self._rows_at = _starts(m * widths)
        document = np.repeat(np.arange(len(n)), end - first_query)
        query = rows[asked] - (texts_at[:-1] + n)[document]
        cells = self._rows_at[document] + query * widths[document] + columns[asked]
        on_fit = columns[asked] < widths[document]
        self._query_rows = np.zeros(self._rows_at[-1])
        self._query_rows[cells[on_fit]] = weights.values[asked[on_fit]]

    def idf(self, document: int = 0) -> np.ndarray:
        """The IDF of each of ``document``'s fit columns."""
        base = self._encoded.bases[document]
        return self._idf[base : base + self._widths[document]]

    def tokens(self, document: int = 0) -> list[str]:
        """The text of each of ``document``'s fit columns, sliced on the first call."""
        if document not in self._tokens:
            self._tokens[document] = self._encoded.tokens(document)[: self._widths[document]]
        return self._tokens[document]

    def _fit_texts(self, document: int) -> slice:
        """The rows of ``document``'s fit texts among the call's texts."""
        first = self._texts_at[document]
        return slice(first, first + self._fit_sizes[document])

    def weights(self, document: int = 0) -> Entries:
        """``document``'s fit texts' counts times the IDF, a row per fit text, on its columns."""
        texts = self._fit_texts(document)
        starts, columns, values = self._weights
        a, b = starts[texts.start], starts[texts.stop]
        return Entries(starts[texts.start : texts.stop + 1] - a, columns[a:b], values[a:b])

    def vectors(self, columns: np.ndarray, document: int = 0) -> np.ndarray:
        """``document``'s fit texts' vectors on ``columns``, L2-normalized as whole vectors."""
        held = self.weights(document).on(columns, self._widths[document])
        rows = np.zeros((len(held.starts) - 1, len(columns)))
        rows[held.rows(), held.columns] = held.values
        norms = self._norms[self._fit_texts(document), None]
        return np.divide(rows, norms, out=rows, where=norms > 0)

    def embed(
        self, texts: Sequence[str], weights: Entries | None = None, document: int = 0
    ) -> tuple[np.ndarray, Entries, tuple[np.ndarray, np.ndarray]]:
        """``texts`` against ``document``'s fit texts: ``entry_cosines``'s arguments.

        Returns the texts' counts times the IDF as dense rows, the fit texts'
        weights, and the norms of both whole vectors. ``weights`` are the
        texts' counts times the IDF on the document's columns, a row per
        text, and hold every token of the texts that the fit holds; the rows
        and the fit texts' weights are then kept on the columns the texts
        hold, so the rows stay small when many texts are given. Without
        ``weights``, ``texts`` are the document's ``queries``, counted by the
        fit's ``encode`` call, and the rows are on all of its columns.
        """
        width, sentences = self._widths[document], self.weights(document)
        if weights is None:
            if list(texts) != self._queries[document]:
                raise ValueError("texts other than the queries need their counts")
            a, b = self._rows_at[document : document + 2]
            rows = self._query_rows[a:b].reshape(len(texts), width)
            rows_held = np.ascontiguousarray(rows[:, rows.any(axis=0)])
        else:
            # A product term on a column no text holds is zero, so the
            # sentences' weights off those columns are dropped.
            columns = np.flatnonzero(np.bincount(weights.columns, minlength=width))
            held = weights.on(columns, width)
            rows = rows_held = np.zeros((len(held.starts) - 1, len(columns)))
            rows[held.rows(), held.columns] = held.values
            sentences = sentences.on(columns, width)
        # Each row's norm is summed over the columns some row holds, in their
        # order, as numpy sums a C-ordered matrix of those columns only (a
        # column-ordered one sums in another order).
        norms = np.linalg.norm(rows_held, axis=1)
        return rows, sentences, (norms, self._norms[self._fit_texts(document)])

    def fold(self, tokens: list[str], counts: Entries, document: int = 0) -> Fold:
        """Texts counted apart, ``counts`` (``Encoded.terms``) of ``tokens``, on ``document``'s fit.

        A text's TF-IDF vector on this fit is zero outside the fit columns
        that hold one of its tokens, so it is its counts of those tokens times
        the IDF, and its norm comes from them in one ``bincount``.
        """
        column_of = dict(zip(tokens, range(len(tokens))))
        counted = np.fromiter(map(column_of.get, self.tokens(document), repeat(-1)), np.intp)
        fit_columns = np.flatnonzero(counted >= 0)
        held = counts.on(counted[fit_columns], len(tokens))
        idf = self.idf(document)[fit_columns]
        weights = held._replace(values=held.values * idf[held.columns])
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
        first, end = starts[texts], starts[1:][texts]
        picked = _ranges(first, end)
        return Entries(_starts(end - first), self.fit_columns[columns[picked]], weights[picked])

    def scores(self, queries: np.ndarray, topics: np.ndarray, texts: np.ndarray) -> np.ndarray:
        """The cosine of query row ``topics[p]``, on ``fit_columns``, to counted text ``texts[p]``.

        One score per pair p. A query's norm is that of its row as given, on
        ``fit_columns`` only; the counted texts' norms are ``norms``. The
        products come from ``pair_products`` and ``cosines`` divides and
        rounds them.
        """
        topics = np.asarray(topics, dtype=np.intp)
        texts = np.asarray(texts, dtype=np.intp)
        # Gathered first, so an index out of range raises before the kernel runs.
        norms = np.linalg.norm(queries, axis=1)[topics] * self.norms[texts]
        return cosines(pair_products(queries, self.entries, topics, texts), norms)


def pair_products(
    queries: np.ndarray, entries: Entries, topics: np.ndarray, texts: np.ndarray
) -> np.ndarray:
    """The product of dense query row ``topics[p]`` with ``entries`` row ``texts[p]``.

    One product per pair p, on the calling thread, from the compiled loop
    over each row's entries (``pair_products.c``, loaded by
    ``kernels.load``), which sums in entry order from 0.0 as ``bincount``
    does. Where the kernel is unavailable, the Python reference
    (``_python_products``) runs, with the same bits. ``topics`` and
    ``texts`` are ``intp`` arrays of indices in range, and every entry's
    column is one of the queries' columns.
    """
    kernel = kernels.load(*_PAIR_PRODUCTS)
    if kernel is None:
        return _python_products(queries, entries, topics, texts)
    queries = np.ascontiguousarray(queries, dtype=float)
    starts, columns, values = entries
    out = np.empty(len(topics))
    kernel(
        _address(queries, np.float64), queries.shape[1], _address(columns, np.intp),
        _address(values, np.float64), *(_address(a, np.intp) for a in (starts, topics, texts)),
        len(topics), _address(out, np.float64),
    )
    return out


# ``kernels.load``'s arguments for the compiled loop of ``pair_products.c``.
_PAIR_PRODUCTS = ("pair_products", "pair_products", (
    ctypes.c_void_p, ctypes.c_ssize_t, *[ctypes.c_void_p] * 5, ctypes.c_ssize_t, ctypes.c_void_p,
))


def _python_products(
    queries: np.ndarray, entries: Entries, topics: np.ndarray, texts: np.ndarray
) -> np.ndarray:
    """The reference for ``pair_products``: every query x row cell, gathered at the pairs.

    One ``bincount`` over the entries for every query at once, which adds
    each cell's terms in entry order from 0.0.
    """
    n, width = len(queries), len(entries.starts) - 1
    cells = np.arange(n)[:, None] * width + entries.rows()
    terms = queries[:, entries.columns] * entries.values
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
    summation orders and embedders, cannot decide a ranking. It scores a
    service's vectors for ``build_context``; TF-IDF rows are scored by
    ``entry_cosines``.
    """
    if norms is None:
        norms = (np.linalg.norm(queries, axis=1), np.linalg.norm(candidates, axis=1))
    return cosines(queries @ candidates.T, np.outer(*norms))


def entry_cosines(
    queries: np.ndarray, candidates: Entries, norms: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """``cosine_matrix`` of dense query rows to ``Entries`` rows on their columns.

    The product of every (query, candidate) pair comes from
    ``pair_products``, summed in entry order, and is divided by the pair's
    ``norms`` and rounded as ``cosine_matrix`` does. It scores
    ``TfidfEmbedder.embed``'s rows, weights and norms for ``build_context``.
    """
    n, m = len(queries), len(candidates.starts) - 1
    topics, texts = np.indices((n, m), dtype=np.intp).reshape(2, -1)
    products = pair_products(queries, candidates, topics, texts).reshape(n, m)
    return cosines(products, np.outer(*norms))


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
    doc_id: str, sentences: Sequence[str], questions: list[str], scores: np.ndarray, k: int
) -> ExtractiveContext:
    """Union of per-question top-k selections, deduplicated by position.

    ``scores[i, j]`` is the cosine of ``questions[i]`` to ``sentences[j]``,
    as the stage's embedder scores them: ``entry_cosines`` for TF-IDF,
    ``cosine_matrix`` for a service. Each question takes the min(k,
    |sentences|) sentences of highest score (``top_k``), so ties break
    toward the earlier document position and a NaN ranks after every
    number. Context sentences keep document order; the per-question
    selections are retained for audit. At most k * len(questions) sentences
    survive.
    """
    if not questions:
        raise NoQuestions(f"no questions supplied for document {doc_id!r}")
    if k < 1:
        raise ValueError("k must be >= 1")

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
