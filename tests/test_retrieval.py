import json
import logging
import math
import random
import string
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bulletsum import kernels, retrieval
from bulletsum.errors import NoQuestions
from bulletsum.retrieval import (
    ExtractiveContext,
    TfidfEmbedder,
    build_context,
    cosine_matrix,
    encode,
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


def _context(sentences, questions, k, embedder):
    """``build_context`` on the questions and sentences embedded as the extract stage does."""
    texts = [q.text for q in questions]
    sentence_vectors = embedder.embed(sentences)
    return build_context("d", sentences, texts, embedder.embed(texts), sentence_vectors, k)


def _selections(sentences, question, k, embedder):
    """The selections ``build_context`` makes for one question."""
    return _context(sentences, [question], k, embedder).selections


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


def loop_encode(texts):
    """Flat ids, rows and tokens of ``texts`` by ``tokenize`` per text and a dict.

    The reference for ``encode``: ids in first-seen order, each distinct token once.
    """
    ids = {}
    flat, rows = [], []
    for row, text in enumerate(texts):
        for token in tokenize(text):
            flat.append(ids.setdefault(token, len(ids)))
            rows.append(row)
    return flat, rows, list(ids)


def _listed(encoded):
    """``encode``'s ids, rows and tokens as lists, for comparing with ``loop_encode``."""
    return encoded.ids.tolist(), encoded.rows.tolist(), encoded.tokens


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
        assert _listed(retrieval._python_encode(texts)) == expected
        assert _listed(encode(texts)) == expected
        assert _listed(encode(earlier)) == loop_encode(earlier)
        encoded = encode(texts)
        assert _listed(encoded) == expected
        assert encoded.n_texts == len(texts)

    def test_counts_per_text_and_token(self):
        encoded = encode(["revenue rose, revenue fell", "", "cash rose"])
        assert encoded.tokens == ["revenue", "rose", "fell", "cash"]
        assert encoded.counts().tolist() == [[2, 1, 1, 0], [0, 0, 0, 0], [0, 1, 0, 1]]

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
        def python_encode(texts):
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
        expected = loop_encode(texts)
        break_kernel_build(failure)
        with caplog.at_level(logging.WARNING, logger="bulletsum.kernels"):
            for _ in range(2):
                assert _listed(encode(texts)) == expected
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert reason in warnings[0].getMessage()
        if failure != "unwritable-cache":
            leftovers = [p for p in (fresh_cache / "bulletsum").iterdir() if p.name.startswith(".")]
            assert leftovers == []


class TestTfidfEmbedder:
    @given(
        fit_corpus=st.lists(embed_texts, min_size=1, max_size=6),
        others=st.lists(embed_texts, max_size=4),
        data=st.data(),
    )
    def test_bytes_match_the_per_token_loop(self, fit_corpus, others, data):
        # Queries mix fit texts and new ones with out-of-vocabulary tokens.
        # Another document's embedder has already run, as in a route stage.
        queries = data.draw(st.lists(st.sampled_from(fit_corpus) | embed_texts, max_size=6))
        expected = loop_embed(fit_corpus, queries)
        fit_expected = loop_embed(fit_corpus, fit_corpus)
        TfidfEmbedder(others or ["unrelated text"]).embed(queries + others)
        embedder = TfidfEmbedder(fit_corpus)
        vectors = embedder.embed(queries)
        assert vectors.shape == expected.shape
        assert vectors.tobytes() == expected.tobytes()
        assert embedder.fit_vectors.tobytes() == fit_expected.tobytes()

    def test_fit_texts_are_tokenized_once(self, monkeypatch):
        # ``fit_vectors`` are ``embed``'s rows of the fit texts, from the
        # encoding the fit made.
        calls = []

        def counting_encode(texts):
            calls.extend(texts)
            return encode(texts)

        monkeypatch.setattr(retrieval, "encode", counting_encode)
        embedder = TfidfEmbedder(["revenue rose", "cash fell"])
        vectors = embedder.fit_vectors
        assert sorted(calls) == ["cash fell", "revenue rose"]
        assert vectors.tobytes() == embedder.embed(["revenue rose", "cash fell"]).tobytes()

    def test_self_similarity_is_one(self):
        corpus = ["revenue rose sharply", "profit fell slightly"]
        emb = TfidfEmbedder(corpus)
        vectors = emb.embed(corpus)
        query = emb.embed(["revenue rose sharply"])[0]
        assert cosine(query, vectors[0]) == pytest.approx(1.0)

    def test_disjoint_text_is_zero_vector(self):
        emb = TfidfEmbedder(["alpha beta", "beta gamma"])
        vec = emb.embed(["unrelated words entirely"])[0]
        assert not vec.any()
        assert cosine(vec, emb.embed(["alpha beta"])[0]) == 0.0

    def test_hand_computed_discrimination(self):
        # Fit on {"a b", "b c"}: idf(a) = idf(c) = ln(3/2)+1, idf(b) = ln(3/3)+1.
        # Query "a" overlaps only "a b", so its cosine there must be larger.
        emb = TfidfEmbedder(["a b", "b c"])
        docs = emb.embed(["a b", "b c"])
        query = emb.embed(["a"])[0]
        sim_ab = cosine(query, docs[0])
        sim_bc = cosine(query, docs[1])
        idf_a = math.log(3 / 2) + 1
        idf_b = math.log(3 / 3) + 1
        expected = idf_a / math.sqrt(idf_a**2 + idf_b**2)
        assert sim_ab == pytest.approx(expected)
        assert sim_bc == 0.0
        assert sim_ab > sim_bc

    def test_vectors_l2_normalized(self):
        emb = TfidfEmbedder(["one two three", "two three four"])
        for vec in emb.embed(["one two", "three four two"]):
            assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_empty_fit_corpus_rejected(self):
        with pytest.raises(ValueError):
            TfidfEmbedder([])

    def test_deterministic(self):
        texts = ["alpha beta", "gamma delta"]
        a = TfidfEmbedder(texts).embed(["alpha gamma"])
        b = TfidfEmbedder(texts).embed(["alpha gamma"])
        assert np.array_equal(a, b)


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
        emb = TfidfEmbedder(sentences)
        question = make_question("what is quarterly revenue?")
        ranked = _selections(sentences, question, k=2, embedder=emb)
        assert ranked[0].position == 1
        assert ranked[0].rank == 1
        assert ranked[0].score > ranked[1].score

    def test_k_clamped_to_doc_size(self, make_question):
        sentences = ("first one", "second one")
        emb = TfidfEmbedder(sentences)
        ranked = _selections(sentences, make_question("what is first?"), 3, emb)
        assert len(ranked) == 2
        assert [s.rank for s in ranked] == [1, 2]

    def test_tie_broken_by_earlier_position(self, make_question):
        sentences = ("revenue rose", "unrelated text", "revenue rose")
        emb = TfidfEmbedder(sentences)
        ranked = _selections(sentences, make_question("what is revenue?"), 2, emb)
        assert [s.position for s in ranked] == [0, 2]

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
        emb = TfidfEmbedder(sentences)
        ranked = _selections(sentences, make_question("what is flow dividend cash?"), 1, emb)
        assert [s.position for s in ranked] == [0]

    def test_scores_non_increasing_by_rank(self, make_question):
        sentences = ("revenue rose fast", "revenue stayed flat", "profit and margin", "misc")
        emb = TfidfEmbedder(sentences)
        ranked = _selections(sentences, make_question("what is revenue margin?"), 4, emb)
        scores = [s.score for s in ranked]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_k_must_be_positive(self, make_question):
        sentences = ("text",)
        emb = TfidfEmbedder(["text"])
        with pytest.raises(ValueError):
            _selections(sentences, make_question("what is it?"), 0, emb)


class TestBuildContext:
    def test_single_question_small_doc_selects_all(self, make_question):
        sentences = ("alpha one", "beta two", "gamma three")
        emb = TfidfEmbedder(sentences)
        ctx = _context(sentences, [make_question("what is alpha?")], 3, emb)
        assert [s.position for s in ctx.context_sentences] == [0, 1, 2]
        assert [s.text for s in ctx.context_sentences] == list(sentences)

    def test_disjoint_selections_meet_kn_bound(self, make_question):
        sentences = [
            "alpha apple axle", "arrow alto atlas",
            "bravo berry basil", "bison blend badge",
            "cedar coral -", "dune drift -",
        ]
        emb = TfidfEmbedder(sentences)
        questions = [
            make_question("what is alpha apple axle arrow alto atlas?"),
            make_question("what is bravo berry basil bison blend badge?"),
        ]
        ctx = _context(sentences, questions, 2, emb)
        assert len(ctx.context_sentences) == 4  # k*n with disjoint picks

    def test_overlapping_selections_deduplicate(self, make_question):
        sentences = ("revenue and profit", "only revenue here", "only profit here", "noise")
        emb = TfidfEmbedder(sentences)
        questions = [make_question("what is revenue?"), make_question("what is profit?")]
        ctx = _context(sentences, questions, 2, emb)
        positions = [s.position for s in ctx.context_sentences]
        assert len(positions) == len(set(positions))
        assert len(ctx.context_sentences) < 4
        # brute-force union of the per-question selections
        expected = set()
        for q in questions:
            expected.update(
                s.position for s in _selections(sentences, q, 2, emb)
            )
        assert set(positions) == expected

    def test_question_order_irrelevant(self, make_question):
        sentences = ("revenue rose", "profit fell", "margin grew", "costs dropped")
        emb = TfidfEmbedder(sentences)
        questions = [
            make_question("what is revenue?"),
            make_question("what is profit?"),
            make_question("what is margin?"),
        ]
        forward = _context(sentences, questions, 1, emb)
        backward = _context(sentences, list(reversed(questions)), 1, emb)
        assert [s.position for s in forward.context_sentences] == [
            s.position for s in backward.context_sentences
        ]

    def test_document_order_preserved(self, make_question):
        sentences = ("zeta last word", "alpha first word", "mid word")
        emb = TfidfEmbedder(sentences)
        ctx = _context(sentences, [make_question("what is zeta alpha?")], 2, emb)
        positions = [s.position for s in ctx.context_sentences]
        assert positions == sorted(positions)

    def test_no_questions(self):
        sentences = ("text",)
        with pytest.raises(NoQuestions):
            _context(sentences, [], 3, TfidfEmbedder(["text"]))

    def test_kn_bound_fuzz(self, make_question):
        rng = random.Random(99)
        vocab = [f"w{i}" for i in range(30)]
        for _ in range(25):
            sentences = [
                " ".join(rng.sample(vocab, 4)) for _ in range(rng.randint(3, 10))
            ]
            emb = TfidfEmbedder(sentences)
            questions = [
                make_question(f"what is {' '.join(rng.sample(vocab, 2))}?", index=i)
                for i in range(rng.randint(1, 4))
            ]
            k = rng.randint(1, 4)
            ctx = _context(sentences, questions, k, emb)
            assert len(ctx.context_sentences) <= k * len(questions)
            assert len(ctx.selections) <= k * len(questions)

    def test_cosine_symmetry(self):
        emb = TfidfEmbedder(["alpha beta gamma", "beta gamma delta"])
        u, v = emb.embed(["alpha beta", "gamma delta"])
        assert cosine_matrix(u[None], v[None]) == pytest.approx(cosine_matrix(v[None], u[None]))

    def test_serialization_round_trip(self, make_question):
        sentences = ("revenue rose", "profit fell")
        emb = TfidfEmbedder(sentences)
        ctx = _context(sentences, [make_question("what is revenue?")], 1, emb)
        clone = ExtractiveContext.from_dict(json.loads(json.dumps(asdict(ctx))))
        assert clone == ctx
        assert clone.doc_id == ctx.doc_id
        assert clone.context_text == ctx.context_text
        assert [s.rank for s in clone.selections] == [s.rank for s in ctx.selections]
