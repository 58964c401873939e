import json
import logging
import math
import random
import string
from collections import Counter
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bulletsum import kernels, pipeline, retrieval
from bulletsum.errors import NoQuestions
from bulletsum.retrieval import (
    ExtractiveContext,
    TfidfEmbedder,
    build_context,
    cosine_matrix,
    encode,
    entry_cosines,
    top_k,
)
from bulletsum.text import tokenize
from conftest import needs_cc


def cosine(u, v):
    """Scalar reference cosine; zero vectors score 0."""
    nu = math.sqrt(float(np.dot(u, u)))
    nv = math.sqrt(float(np.dot(v, v)))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v)) / (nu * nv)


def _context(sentences, questions, k):
    """``build_context`` on the questions' cosines to the sentences, scored as ``extract`` does."""
    texts = [q.text for q in questions]
    embedder = TfidfEmbedder([sentences], [texts])
    scores = entry_cosines(*embedder.embed(texts, embedder.queries()))
    return build_context("d", sentences, texts, scores, k)


def _selections(sentences, question, k):
    """The selections ``build_context`` makes for one question."""
    return _context(sentences, [question], k).selections


def loop_embed(fit_corpus, texts):
    """TF-IDF vectors by a per-token Python loop: the reference for ``TfidfEmbedder``."""
    docs = [tokenize(text) for text in fit_corpus]
    vocab = sorted({tok for doc in docs for tok in doc})
    index = {tok: i for i, tok in enumerate(vocab)}
    df = np.zeros(len(vocab))
    for doc in docs:
        for tok in set(doc):
            df[index[tok]] += 1
    idf = np.log((1.0 + len(docs)) / (1.0 + df)) + 1.0
    vectors = np.zeros((len(texts), len(vocab)))
    for row, text in enumerate(texts):
        for tok in tokenize(text):
            col = index.get(tok)
            if col is not None:
                vectors[row, col] += 1.0
    vectors *= idf
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    np.divide(vectors, norms, out=vectors, where=norms > 0)
    return vectors


# Repeated words, case and punctuation variants, decimals, and tokenless text.
EMBED_WORDS = ["revenue", "Revenue,", "sales", "q3", "0.97", "u.s.", "rose", "cash", "-", "!!"]
embed_texts = st.one_of(
    st.lists(st.sampled_from(EMBED_WORDS), max_size=8).map(" ".join),
    st.text(max_size=12),
)


def loop_encode(texts, sizes=None):
    """Each text's counts and each document's tokens by ``tokenize`` per text and a dict.

    The reference for ``encode``: per text, a ``{id: count}`` dict; per
    document, its ids in first-seen order, each distinct token once.
    """
    texts = list(texts)
    counts, tokens, start = [], [], 0
    for size in [len(texts)] if sizes is None else sizes:
        ids = {}
        for text in texts[start : start + size]:
            counts.append(dict(Counter(ids.setdefault(t, len(ids)) for t in tokenize(text))))
        tokens.append(list(ids))
        start += size
    return counts, tokens


def _listed(encoded):
    """``encode``'s counts and tokens as ``loop_encode`` gives them."""
    starts, columns, values = encoded.terms
    counts = [
        dict(zip(columns[a:b].tolist(), values[a:b].tolist()))
        for a, b in zip(starts[:-1].tolist(), starts[1:].tolist())
    ]
    return counts, [encoded.tokens(d) for d in range(len(encoded.bases) - 1)]


def _arrays(encoded):
    """The arrays of an ``Encoded`` record, and each document's tokens."""
    tokens = [encoded.tokens(d) for d in range(len(encoded.bases) - 1)]
    return [*encoded.terms, encoded.seen, encoded.bases], tokens


def _sizes(n, cuts):
    """Document sizes adding up to n texts: each of ``cuts`` while texts last, then the rest."""
    sizes = []
    for cut in cuts:
        sizes.append(min(cut, n - sum(sizes)))
    return [*sizes, n - sum(sizes)]


# Decimals, dotted abbreviations, stray dots and letter-digit runs, whole, and
# the same around characters that are not ASCII.
TOKEN_FRAGMENTS = [
    "3.5", "1.2.3", "0.97", "12.", ".5", "1..2", "u.s.", "a1.5", "Q3", "$4.2bn", "7%",
    "\u0663.\u0664", "3.\u0664", "caf\u00e9", "\u212aPI",
]
# Beside ASCII: a Latin letter, an Arabic-Indic digit, the Kelvin sign (which
# lowercases to "k"), a capital I with a dot (which lowercases to two
# characters) and a character of four UTF-8 bytes.
NOT_ASCII = "\u00e9\u0663\u212a\u0130\U0001F4C8"
token_texts = st.one_of(
    st.text(
        alphabet=string.ascii_letters + string.digits + ".,-%$ \t\n\0" + NOT_ASCII, max_size=40
    ),
    st.lists(st.sampled_from(TOKEN_FRAGMENTS) | st.sampled_from([" ", "\n", ",", ""])).map("".join),
)


class TestEncode:
    @needs_cc
    @settings(deadline=None)  # the first example may build the kernel
    @given(texts=st.lists(token_texts, max_size=8), earlier=st.lists(token_texts, max_size=8))
    @example(texts=["a " * 39 + "a", "1.1." * 20 + "1", "1." * 30, "\0a\0\0bb\0"], earlier=["b"])
    def test_kernel_matches_tokenize(self, texts, earlier):
        # Runs of one-letter tokens and of dotted digits fill the outputs to
        # their bound; NUL bytes split tokens. A call after another, on other
        # texts, gives what a first call does.
        assert kernels.load(*retrieval._TOKENIZE) is not None
        expected = loop_encode(texts)
        assert _listed(encode(texts)) == expected
        assert _listed(encode(earlier)) == loop_encode(earlier)
        encoded = encode(texts)
        assert _listed(encoded) == expected
        assert len(encoded.terms.starts) == len(texts) + 1

    @needs_cc
    @settings(deadline=None)  # the first example may build the kernel
    @given(texts=st.lists(token_texts, max_size=10), cuts=st.lists(st.integers(0, 4), max_size=6))
    # Distinct one-letter tokens, which fill the outputs to their bound;
    # documents that share every token; an empty document between two; a
    # text of 100 ids first seen in descending order; texts of few ids far
    # apart.
    @example(texts=["a", " ".join(string.ascii_lowercase + string.digits)], cuts=[1])
    @example(texts=["revenue rose", "rose revenue", "revenue", "rose"], cuts=[2])
    @example(texts=["a b", "b c", "c a"], cuts=[1, 0])
    @example(texts=[" ".join(f"w{i}" for i in range(99, -1, -1)), "w5 w3"], cuts=[1])
    @example(texts=[" ".join(f"w{i}" for i in range(600)), "w599 w0", "w0 w599 w300"], cuts=[])
    def test_kernel_matches_the_reference(self, texts, cuts):
        # Ids local to each document: the same arrays, byte for byte, as the
        # Python reference, and the same tokens per document.
        assert kernels.load(*retrieval._TOKENIZE) is not None
        sizes = _sizes(len(texts), cuts)
        encoded = encode(texts, sizes)
        reference = retrieval._python_encode(texts, np.cumsum([0, *sizes], dtype=np.intp))
        (arrays, tokens), (expected, expected_tokens) = _arrays(encoded), _arrays(reference)
        assert [(a.dtype, a.tobytes()) for a in arrays] == [(a.dtype, a.tobytes()) for a in expected]
        assert tokens == expected_tokens
        assert _listed(encoded) == loop_encode(texts, sizes)

    @settings(deadline=None)  # the first example may build the kernel
    @given(texts=st.lists(token_texts, max_size=8))
    @example(texts=["revenue rose, revenue fell", "", "cash rose"])
    def test_counts_per_text_and_token(self, texts):
        # A run per text, its ids strictly ascending, each with its count; an
        # empty text has an empty run.
        encoded = encode(texts)
        starts, columns, values = encoded.terms
        tokens = encoded.tokens()
        assert len(starts) == len(texts) + 1 and starts[0] == 0 and starts[-1] == len(columns)
        assert (np.diff(starts) >= 0).all()
        assert starts.dtype == columns.dtype == np.intp
        for row, text in enumerate(texts):
            run = slice(starts[row], starts[row + 1])
            assert (np.diff(columns[run]) > 0).all()
            counted = dict(zip(columns[run].tolist(), values[run].tolist()))
            assert counted == {tokens.index(t): n for t, n in Counter(tokenize(text)).items()}
            assert encoded.seen[row] == len(set(tokenize(" ".join(texts[: row + 1]))))
        if texts == ["revenue rose, revenue fell", "", "cash rose"]:
            assert tokens == ["revenue", "rose", "fell", "cash"]
            assert starts.tolist() == [0, 3, 3, 5]
            assert columns.tolist() == [0, 1, 2, 1, 3]
            assert values.tolist() == [2.0, 1.0, 1.0, 1.0, 1.0]
            assert encoded.seen.tolist() == [3, 3, 4]

    def test_sizes_must_add_up_to_the_texts(self):
        with pytest.raises(ValueError, match="sizes"):
            encode(["a", "b"], [1])

    @pytest.mark.parametrize(
        "text, tokens",
        [("up ٣.٤ points", ["up", "points"]), ("café", ["caf"]), ("٣", [])],
    )
    def test_non_ascii_text_keeps_tokenize_tokens(self, text, tokens):
        # A token is a run of ASCII letters and digits: a digit or letter that
        # is not ASCII splits tokens like any other character.
        assert tokenize(text) == tokens
        for texts in ([text], ["revenue rose 3.5%", text, "cash 0.97 fell"]):
            assert _listed(encode(texts)) == loop_encode(texts)

    @needs_cc
    def test_non_ascii_document_runs_the_kernel(self, monkeypatch):
        def python_encode(texts, documents):
            raise AssertionError("the Python tokenizer ran")

        monkeypatch.setattr(retrieval, "_python_encode", python_encode)
        texts = ["revenue at the café rose ٣.٤ points", "İ \u212a 0.97 \U0001F4C8 cash"]
        assert _listed(encode(texts)) == loop_encode(texts)

    @pytest.mark.parametrize(
        "failure, reason",
        [
            ("no-compiler", "No such file"),
            ("compile-error", "simulated compile error"),
            ("unloadable-library", "tokenize-"),
            ("unwritable-cache", "cache"),
        ],
    )
    def test_failure_falls_back_with_one_warning(
        self, failure, reason, fresh_cache, break_kernel_build, caplog
    ):
        texts = ["Revenue rose 3.5% in Q3.", "", "cash\nflow 1.2.3 u.s.", "revenue"]
        expected = loop_encode(texts, [2, 2])
        break_kernel_build(failure)
        with caplog.at_level(logging.WARNING, logger="bulletsum.kernels"):
            for _ in range(2):
                assert _listed(encode(texts, [2, 2])) == expected
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert reason in warnings[0].getMessage()
        if failure != "unwritable-cache":
            leftovers = [p for p in (fresh_cache / "bulletsum").iterdir() if p.name.startswith(".")]
            assert leftovers == []


def loop_scores(fit_corpus, texts):
    """Cosines of ``texts`` to the fit texts on the per-token loop's dense vectors."""
    sentences = loop_embed(fit_corpus, fit_corpus)
    scores = [[cosine(q, s) for s in sentences] for q in loop_embed(fit_corpus, texts)]
    return np.array(scores).reshape(len(texts), len(fit_corpus))


def _scores(fit_corpus, queries):
    """Cosines of ``queries`` to the fit texts, from the counts of one ``encode`` call."""
    embedder = TfidfEmbedder([fit_corpus], [queries])
    return entry_cosines(*embedder.embed(queries, embedder.queries()))


def _counted_scores(fit_corpus, texts):
    """The same cosines, with ``texts`` counted apart and folded onto the fit, as route does.

    Route scores its chosen texts for the context from their counts
    (``embed``), and ranks them by ``Fold.scores`` at (fit row, text) pairs.
    There a row's norm is taken on the fold's fit columns only, and the rows
    given have whole norm 1 or 0, so each fold score is the whole cosine over
    its row's norm.
    """
    counted = encode(texts)
    embedder = TfidfEmbedder([fit_corpus])
    fold = embedder.fold(counted.tokens(), counted.terms)
    embedded = embedder.embed(texts, fold.weights_of(range(len(texts))))
    query_norms, _ = embedded[2]
    np.testing.assert_allclose(query_norms, fold.norms, rtol=0, atol=1e-12)
    scores = entry_cosines(*embedded)
    rows = embedder.vectors(fold.fit_columns)
    n, m = len(fit_corpus), len(texts)
    folded = fold.scores(rows, np.repeat(np.arange(n), m), np.tile(np.arange(m), n))
    np.testing.assert_allclose(
        folded.reshape(n, m).T * np.linalg.norm(rows, axis=1), scores, rtol=0, atol=1e-12
    )
    return scores


def _dense_gather(embedder, master, chosen):
    """The chosen questions' weights from a dense gather: the reference for ``Fold.weights_of``.

    The master counts as a questions x tokens matrix; the chosen rows on the
    fit columns that hold a master token, then on those a chosen question
    holds, times the IDF. Returns the weights and their fit columns.
    """
    counted = encode(master)
    terms, tokens = counted.terms, counted.tokens()
    matrix = np.zeros((len(master), len(tokens)))
    matrix[terms.rows(), terms.columns] = terms.values
    column_of = {token: j for j, token in enumerate(tokens)}
    fit_tokens = embedder.tokens()
    fit_columns = np.array(
        [j for j, token in enumerate(fit_tokens) if token in column_of], dtype=np.intp
    )
    counts = matrix[chosen][:, [column_of[fit_tokens[j]] for j in fit_columns]]
    held = counts.any(axis=0)
    return counts[:, held] * embedder.idf()[fit_columns[held]], fit_columns[held]


def _embedded_bytes(embedded):
    """The bytes of every array ``TfidfEmbedder.embed`` returns."""
    rows, fit, norms = embedded
    return [a.tobytes() for a in (rows, *fit, *norms)]


class TestTfidfEmbedder:
    @settings(deadline=None)  # the first example may build the kernel
    @given(
        sentences=st.lists(embed_texts, min_size=1, max_size=6),
        master=st.lists(embed_texts, min_size=1, max_size=8),
        picks=st.lists(st.integers(0, 9), min_size=1, max_size=8),
    )
    # A chosen question that holds no fit token; every master row chosen, as
    # the fallback on no detected topic does; no chosen question holding one.
    @example(sentences=["revenue rose", "cash"], master=["q3 sales", "revenue cash"], picks=[1, 0])
    @example(
        sentences=["revenue rose", "cash rose"], master=["rose", "cash", "revenue cash", "q3"],
        picks=[0, 1, 2, 3],
    )
    @example(sentences=["revenue rose"], master=["q3 sales", "cash"], picks=[0, 1])
    # A question on five of the nine fit columns: its norm summed over all
    # nine, zeros included, takes other bits than over the five.
    @example(
        sentences=["price churn margin debt", "demand price volume capex churn cash supply"],
        master=["churn cash capex supply demand"], picks=[0],
    )
    def test_chosen_rows_match_the_dense_gather(self, sentences, master, picks):
        chosen = list(dict.fromkeys(pick % len(master) for pick in picks))
        questions = [master[i] for i in chosen]
        embedder = TfidfEmbedder([sentences], [questions])
        counted = encode(master)
        fold = embedder.fold(counted.tokens(), counted.terms)
        embedded = embedder.embed(questions, fold.weights_of(chosen))
        rows, fit_rows, (norms, _) = embedded
        weights, columns = _dense_gather(embedder, master, chosen)
        # The rows are the gather on its columns and zero on every other fit column.
        assert rows.shape == (len(chosen), len(embedder.idf()))
        assert rows[:, columns].tobytes() == weights.tobytes()
        assert not np.delete(rows, columns, axis=1).any()
        # The gather is column-ordered; numpy sums a C-ordered row in another order.
        weights = np.ascontiguousarray(weights)
        assert norms.tobytes() == np.linalg.norm(weights, axis=1).tobytes()
        # The sentences' weights are the whole fit's.
        assert [a.tobytes() for a in fit_rows] == [a.tobytes() for a in embedder.weights()]
        # The same bits as the questions counted with the fit, as extract
        # does: rows, sentences' weights and norms, and so the scores.
        as_queries = embedder.embed(questions, embedder.queries())
        assert _embedded_bytes(embedded) == _embedded_bytes(as_queries)
        assert entry_cosines(*embedded).tobytes() == entry_cosines(*as_queries).tobytes()

    @given(
        fit_corpus=st.lists(embed_texts, min_size=1, max_size=6),
        queries=st.lists(embed_texts, max_size=4),
        copied=st.lists(st.integers(0, 5), max_size=3),
        others=st.lists(embed_texts, max_size=4),
    )
    # A query with no fit token; a token repeated within a sentence and within
    # a question; a sentence with no token; an exact tie.
    @example(fit_corpus=["revenue rose", "cash"], queries=["q3 sales"], copied=[], others=[])
    @example(
        fit_corpus=["revenue revenue rose", "revenue cash"], queries=["revenue revenue cash"],
        copied=[], others=[],
    )
    @example(
        fit_corpus=["revenue rose", "!!", "cash"], queries=["revenue cash"], copied=[], others=[]
    )
    @example(
        fit_corpus=["revenue rose", "cash", "rose revenue"], queries=["revenue"], copied=[],
        others=[],
    )
    def test_cosines_match_the_per_token_loop(self, fit_corpus, queries, copied, others):
        # Queries mix new texts, with tokens outside the vocabulary, and fit
        # texts. Another document's embedder has already run, as in a stage.
        queries = queries + [fit_corpus[i % len(fit_corpus)] for i in copied]
        expected = loop_scores(fit_corpus, queries)
        TfidfEmbedder([others or ["unrelated text"]], [queries + others])
        k = len(fit_corpus)
        for scores in (_scores(fit_corpus, queries), _counted_scores(fit_corpus, queries)):
            assert scores.shape == expected.shape
            np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)
            assert top_k(scores, k).tolist() == top_k(expected, k).tolist()

    def test_a_batch_is_encoded_in_one_call(self, monkeypatch):
        calls = []

        def counting_encode(texts, sizes=None):
            calls.append((list(texts), list(sizes)))
            return encode(texts, sizes)

        monkeypatch.setattr(retrieval, "encode", counting_encode)
        embedder = TfidfEmbedder(
            [["revenue rose", "cash fell"], ["cash rose"]], [["what is cash?"], []]
        )
        embedder.embed(["what is cash?"], embedder.queries(0), 0)
        embedder.embed([], embedder.queries(1), 1)
        assert calls == [(["revenue rose", "cash fell", "what is cash?", "cash rose"], [3, 1])]
        # A document's vocabulary is its ids below its size: its sentences' tokens.
        assert embedder.tokens() == ["revenue", "rose", "cash", "fell"]
        assert embedder.tokens(1) == ["cash", "rose"]
        assert [len(embedder.weights(d).starts) - 1 for d in (0, 1)] == [2, 1]
        # "what" and "is" are outside document 0's vocabulary, so the query
        # keeps only "cash", on its fit column; document 1 has no queries.
        assert tokenize("what is cash?") == ["what", "is", "cash"]
        starts, columns, values = embedder.queries(0)
        assert starts.tolist() == [0, 1] and columns.tolist() == [2]
        assert values.tobytes() == embedder.idf(0)[[2]].tobytes()
        assert [a.tolist() for a in embedder.queries(1)] == [[0], [], []]

    def test_texts_and_weight_rows_must_agree(self):
        embedder = TfidfEmbedder([["revenue rose"]], [["what is revenue?"]])
        with pytest.raises(ValueError, match="2 texts, but weights for 1"):
            embedder.embed(["what is revenue?", "what is cash?"], embedder.queries())

    def test_self_similarity_is_one(self):
        corpus = ["revenue rose sharply", "profit fell slightly"]
        assert _scores(corpus, ["revenue rose sharply"])[0, 0] == pytest.approx(1.0)

    def test_disjoint_text_scores_zero(self):
        embedder = TfidfEmbedder([["alpha beta", "beta gamma"]], [["unrelated words entirely"]])
        queries, fit, (query_norms, _) = embedder.embed(
            ["unrelated words entirely"], embedder.queries()
        )
        assert queries.shape == (1, 3) and not queries.any()
        assert len(fit.starts) == 3
        assert query_norms.tolist() == [0.0]
        assert _scores(["alpha beta", "beta gamma"], ["unrelated words entirely"]).tolist() == [
            [0.0, 0.0]
        ]

    def test_hand_computed_discrimination(self):
        # Fit on {"a b", "b c"}: idf(a) = idf(c) = ln(3/2)+1, idf(b) = ln(3/3)+1.
        # Query "a" overlaps only "a b", so its cosine there must be larger.
        sim_ab, sim_bc = _scores(["a b", "b c"], ["a"])[0]
        idf_a = math.log(3 / 2) + 1
        idf_b = math.log(3 / 3) + 1
        expected = idf_a / math.sqrt(idf_a**2 + idf_b**2)
        assert sim_ab == pytest.approx(expected)
        assert sim_bc == 0.0
        assert sim_ab > sim_bc

    def test_vectors_are_l2_normalized_rows(self):
        corpus = ["one two three", "two three four", "!!"]
        embedder = TfidfEmbedder([corpus])
        vectors = embedder.vectors(np.arange(len(embedder.idf())))
        assert np.linalg.norm(vectors, axis=1) == pytest.approx([1.0, 1.0, 0.0])
        # ``loop_embed``'s columns are the tokens in string order.
        in_string_order = vectors[:, np.argsort(embedder.tokens())]
        np.testing.assert_allclose(in_string_order, loop_embed(corpus, corpus), rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "documents, queries",
        [([], []), ([["a"], []], []), ([["a"]], [["b"], ["c"]])],
        ids=["no-document", "empty-document", "queries-of-another-count"],
    )
    def test_malformed_batch_rejected(self, documents, queries):
        with pytest.raises(ValueError):
            TfidfEmbedder(documents, queries)

    def test_deterministic(self):
        texts = ["alpha beta", "gamma delta"]
        embedded = []
        for _ in range(2):
            embedder = TfidfEmbedder([texts], [["alpha gamma"]])
            embedded.append(_embedded_bytes(embedder.embed(["alpha gamma"], embedder.queries())))
        assert embedded[0] == embedded[1]


# Centroid entries: exact values, and noise that makes the summation order show.
centroid_values = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, 1e-300]) | st.floats(-10, 10), max_size=24
)


def _fold(sentences, master):
    """The fold of the master texts' counts on the sentences' fit, as the route stage makes it."""
    counted = encode(master)
    return TfidfEmbedder([sentences]).fold(counted.tokens(), counted.terms)


def _pairs(fold, n_topics, values, runs):
    """Centroids on ``fold``'s fit columns, cycling ``values``, and the pairs as index arrays.

    Each ``(topic, text, length)`` of ``runs`` is ``length`` pairs on one
    text, of topics from ``topic`` on, as ``entry_cosines`` asks for them.
    """
    centroids = np.resize(np.array(values or [0.0]), (n_topics, len(fold.fit_columns)))
    pairs = [(topic + i, text) for topic, text, length in runs for i in range(length)]
    topics = np.array([topic % n_topics for topic, _ in pairs], dtype=np.intp)
    texts = np.array([text % len(fold.norms) for _, text in pairs], dtype=np.intp)
    return centroids, topics, texts


class TestPairProducts:
    """``pair_products.c`` against the all-cells ``bincount`` it replaces."""

    @needs_cc
    @settings(deadline=None)  # the first example may build the kernel
    @given(
        sentences=st.lists(embed_texts, min_size=1, max_size=6),
        master=st.lists(embed_texts, min_size=1, max_size=8),
        n_topics=st.integers(1, 4),
        values=centroid_values,
        runs=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(1, 6)), max_size=12
        ),
    )
    # In order: a question that holds no fit token, and the last master row;
    # an all-zero centroid; one question under several topics; a topic with
    # an empty bucket (topic 1); four topics on one question, then three.
    @example(
        sentences=["revenue rose", "cash"], master=["q3 sales", "revenue cash"], n_topics=1,
        values=[0.5, 1.0], runs=[(0, 0, 1), (0, 1, 1)],
    )
    @example(
        sentences=["revenue rose", "cash"], master=["revenue cash"], n_topics=2,
        values=[0.0], runs=[(0, 0, 1), (1, 0, 1)],
    )
    @example(
        sentences=["revenue rose", "cash rose", "q3"], master=["rose", "revenue rose cash"],
        n_topics=3, values=[0.25, 1.0, -3.5, 7.0, 1e-300], runs=[(0, 1, 3)],
    )
    @example(
        sentences=["revenue rose", "cash rose"], master=["rose", "cash", "revenue cash"],
        n_topics=3, values=[0.1, 0.7, 0.3], runs=[(0, 0, 1), (0, 2, 1), (2, 1, 1), (2, 2, 1)],
    )
    @example(
        sentences=["revenue rose", "cash rose", "q3 cash"], master=["rose cash", "revenue q3"],
        n_topics=4, values=[0.3, -1.7, 2.5, 1e-300, 0.9], runs=[(0, 0, 4), (1, 1, 3)],
    )
    def test_kernel_matches_the_reference(self, sentences, master, n_topics, values, runs):
        assert kernels.load(*retrieval._PAIR_PRODUCTS) is not None
        fold = _fold(sentences, master)
        centroids, topics, texts = _pairs(fold, n_topics, values, runs)
        expected = retrieval._python_products(centroids, fold.entries, topics, texts)
        products = retrieval.pair_products(centroids, fold.entries, topics, texts)
        assert products.tobytes() == expected.tobytes()
        # A text that holds no fit token has no entries: product 0, score 0.
        empty = np.diff(fold.entries.starts)[texts] == 0
        assert not products[empty].any()
        scores = fold.scores(centroids, topics, texts)
        assert not scores[empty].any()
        with mock.patch.object(kernels, "load", return_value=None):
            assert fold.scores(centroids, topics, texts).tobytes() == scores.tobytes()

    @needs_cc
    def test_failure_falls_back_with_one_warning(self, break_kernel_build, caplog):
        fold = _fold(["revenue rose", "cash rose"], ["rose", "cash"])
        centroids, topics, texts = _pairs(fold, 2, [0.3, 0.9], [(0, 0, 1), (1, 1, 1), (1, 0, 1)])
        expected = retrieval._python_products(centroids, fold.entries, topics, texts)
        break_kernel_build("compile-error")
        with caplog.at_level(logging.WARNING):
            products = retrieval.pair_products(centroids, fold.entries, topics, texts)
            retrieval.pair_products(centroids, fold.entries, topics, texts)
        assert products.tobytes() == expected.tobytes()
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "pair_products" in warnings[0].getMessage()

    def test_kernel_arguments_are_checked(self):
        fold = _fold(["revenue rose"], ["rose"])
        centroids, topics, texts = _pairs(fold, 1, [1.0], [(0, 0, 1)])
        with pytest.raises(TypeError, match="C-contiguous"):
            retrieval.pair_products(centroids, fold.entries, topics.astype(np.int32), texts)


class TestRankingRoutine:
    def test_cosine_matrix_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(7, 12))
        candidates = rng.normal(size=(9, 12))
        queries[3] = 0.0
        candidates[[0, 4]] = 0.0
        scores = cosine_matrix(queries, candidates)
        for i, u in enumerate(queries):
            for j, v in enumerate(candidates):
                assert abs(scores[i, j] - cosine(u, v)) <= 1e-12

    def test_pair_cosines_are_cosine_matrix_at_the_pairs(self):
        # The service master scorer takes the candidates' norms once; its
        # scores are ``cosine_matrix``'s, bit for bit, at every pair.
        rng = np.random.default_rng(7)
        queries = rng.normal(size=(4, 10))
        candidates = rng.normal(size=(6, 10))
        queries[2] = 0.0
        candidates[3] = 0.0
        topics, texts = np.indices((4, 6)).reshape(2, -1)[:, rng.permutation(24)]
        scores = pipeline._pair_cosines(
            candidates, np.linalg.norm(candidates, axis=1), queries, topics, texts
        )
        assert scores.tobytes() == cosine_matrix(queries, candidates)[topics, texts].tobytes()

    def test_cosine_matrix_scores_are_rounded(self):
        scores = cosine_matrix(np.array([[1.0, 2.0, 3.0]]), np.array([[3.0, 1.0, 7.0]]))
        assert scores[0, 0] == round(scores[0, 0], 12)

    @given(
        st.lists(
            st.tuples(st.integers(-10, 10), st.sampled_from([-1e-15, 0.0, 1e-15])),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 45),
    )
    def test_top_k_noise_below_rounding_never_decides(self, draws, k):
        scores = [base / 10 + noise for base, noise in draws]
        expected = sorted(range(len(scores)), key=lambda i: (-round(scores[i], 12), i))[:k]
        assert top_k(np.array(scores), k).tolist() == expected

    @given(
        st.integers(1, 6).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.tuples(st.integers(-3, 3), st.sampled_from([-1e-15, 0.0, 1e-15])),
                    min_size=width,
                    max_size=width,
                ),
                min_size=1,
                max_size=5,
            )
        ),
        st.integers(1, 9),
    )
    def test_top_k_ranks_each_row_of_a_matrix(self, rows, k):
        scores = np.array([[base / 10 + noise for base, noise in row] for row in rows])
        ranked = top_k(scores, k)
        assert ranked.shape == (len(rows), min(k, scores.shape[1]))
        assert ranked.tolist() == [top_k(row, k).tolist() for row in scores]


class TestTopK:
    def test_dominant_sentence_ranks_first(self, make_question):
        sentences = (
            "weather was mild today",
            "quarterly revenue grew twenty percent",
            "the cafeteria menu changed",
        )
        question = make_question("what is quarterly revenue?")
        ranked = _selections(sentences, question, k=2)
        assert ranked[0].position == 1
        assert ranked[0].rank == 1
        assert ranked[0].score > ranked[1].score

    def test_k_clamped_to_doc_size(self, make_question):
        sentences = ("first one", "second one")
        ranked = _selections(sentences, make_question("what is first?"), 3)
        assert len(ranked) == 2
        assert [s.rank for s in ranked] == [1, 2]

    def test_tie_broken_by_earlier_position(self, make_question):
        sentences = ("revenue rose", "unrelated text", "revenue rose")
        ranked = _selections(sentences, make_question("what is revenue?"), 2)
        assert [s.position for s in ranked] == [0, 2]

        # A score matrix as any embedder may give it: a NaN ranks after every
        # number, an exact tie goes to the earlier position, k is capped at the
        # sentence count, and each selection's score is its cell.
        scores = np.array([[0.25, np.nan, 0.75, 0.25], [np.nan, -0.5, np.nan, -0.5]])
        context = build_context("d", ("a", "b", "c", "d"), ["q1", "q2"], scores, 9)
        for i, (question, ranking) in enumerate(zip(["q1", "q2"], [[2, 0, 3, 1], [1, 3, 0, 2]])):
            chosen = [s for s in context.selections if s.question == question]
            assert [(s.position, s.rank) for s in chosen] == list(zip(ranking, [1, 2, 3, 4]))
            np.testing.assert_array_equal([s.score for s in chosen], scores[i, ranking])

    def test_exact_tie_with_float_noise_goes_to_earlier_position(self, make_question):
        # The first two sentences differ only in a number that occurs once,
        # so their vectors are permutations of each other and their cosines
        # are equal; summed in another column order they differ in the last bit.
        sentences = (
            "quarter flow income guidance dividend operating cash 681",
            "quarter flow income guidance dividend operating cash 473",
            "operating billings sales income revenue",
            "quarter net margin operating profit",
            "backlog net income dividend",
        )
        ranked = _selections(sentences, make_question("what is flow dividend cash?"), 1)
        assert [s.position for s in ranked] == [0]

    def test_scores_non_increasing_by_rank(self, make_question):
        sentences = ("revenue rose fast", "revenue stayed flat", "profit and margin", "misc")
        ranked = _selections(sentences, make_question("what is revenue margin?"), 4)
        scores = [s.score for s in ranked]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_k_must_be_positive(self, make_question):
        sentences = ("text",)
        with pytest.raises(ValueError):
            _selections(sentences, make_question("what is it?"), 0)


class TestBuildContext:
    def test_single_question_small_doc_selects_all(self, make_question):
        sentences = ("alpha one", "beta two", "gamma three")
        ctx = _context(sentences, [make_question("what is alpha?")], 3)
        assert [s.position for s in ctx.context_sentences] == [0, 1, 2]
        assert [s.text for s in ctx.context_sentences] == list(sentences)

    def test_disjoint_selections_meet_kn_bound(self, make_question):
        sentences = [
            "alpha apple axle", "arrow alto atlas",
            "bravo berry basil", "bison blend badge",
            "cedar coral -", "dune drift -",
        ]
        questions = [
            make_question("what is alpha apple axle arrow alto atlas?"),
            make_question("what is bravo berry basil bison blend badge?"),
        ]
        ctx = _context(sentences, questions, 2)
        assert len(ctx.context_sentences) == 4  # k*n with disjoint picks

    def test_overlapping_selections_deduplicate(self, make_question):
        sentences = ("revenue and profit", "only revenue here", "only profit here", "noise")
        questions = [make_question("what is revenue?"), make_question("what is profit?")]
        ctx = _context(sentences, questions, 2)
        positions = [s.position for s in ctx.context_sentences]
        assert len(positions) == len(set(positions))
        assert len(ctx.context_sentences) < 4
        # brute-force union of the per-question selections
        expected = set()
        for q in questions:
            expected.update(
                s.position for s in _selections(sentences, q, 2)
            )
        assert set(positions) == expected

    def test_question_order_irrelevant(self, make_question):
        sentences = ("revenue rose", "profit fell", "margin grew", "costs dropped")
        questions = [
            make_question("what is revenue?"),
            make_question("what is profit?"),
            make_question("what is margin?"),
        ]
        forward = _context(sentences, questions, 1)
        backward = _context(sentences, list(reversed(questions)), 1)
        assert [s.position for s in forward.context_sentences] == [
            s.position for s in backward.context_sentences
        ]

    def test_document_order_preserved(self, make_question):
        sentences = ("zeta last word", "alpha first word", "mid word")
        ctx = _context(sentences, [make_question("what is zeta alpha?")], 2)
        positions = [s.position for s in ctx.context_sentences]
        assert positions == sorted(positions)

    def test_no_questions(self):
        sentences = ("text",)
        with pytest.raises(NoQuestions):
            _context(sentences, [], 3)

    def test_kn_bound_fuzz(self, make_question):
        rng = random.Random(99)
        vocab = [f"w{i}" for i in range(30)]
        for _ in range(25):
            sentences = [
                " ".join(rng.sample(vocab, 4)) for _ in range(rng.randint(3, 10))
            ]
            questions = [
                make_question(f"what is {' '.join(rng.sample(vocab, 2))}?", index=i)
                for i in range(rng.randint(1, 4))
            ]
            k = rng.randint(1, 4)
            ctx = _context(sentences, questions, k)
            assert len(ctx.context_sentences) <= k * len(questions)
            assert len(ctx.selections) <= k * len(questions)

    def test_cosine_symmetry(self):
        u, v = loop_embed(["alpha beta gamma", "beta gamma delta"], ["alpha beta", "gamma delta"])
        assert cosine_matrix(u[None], v[None]) == pytest.approx(cosine_matrix(v[None], u[None]))

    def test_serialization_round_trip(self, make_question):
        sentences = ("revenue rose", "profit fell")
        ctx = _context(sentences, [make_question("what is revenue?")], 1)
        clone = ExtractiveContext.from_dict(json.loads(json.dumps(asdict(ctx))))
        assert clone == ctx
        assert clone.doc_id == ctx.doc_id
        assert clone.context_text == ctx.context_text
        assert [s.rank for s in clone.selections] == [s.rank for s in ctx.selections]
