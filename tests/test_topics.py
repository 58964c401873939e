import json
import logging
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulletsum import kernels, pipeline, topics
from bulletsum.config import PipelineConfig
from bulletsum.errors import DegenerateVocabulary, EmptyBank, TooFewDocuments
from bulletsum.qbank import build_question_bank
from bulletsum.records import reader
from bulletsum.topics import (
    UNCATEGORIZED,
    TopicModel,
    categorize_questions,
    fit_lda,
    question_distribution,
    topic_keywords,
)
from conftest import needs_cc

SEPARABLE = ["what is revenue growth?"] * 20 + ["what is net profit?"] * 20
REVENUE_GROUP = {"revenue", "growth"}
PROFIT_GROUP = {"net", "profit"}


def _compiled_sweeps():
    return kernels.load(*topics._SWEEPS)


def _python_phi(questions, K, **kwargs) -> bytes:
    with mock.patch.object(kernels, "load", lambda *kernel: None):
        return np.array(fit_lda(questions, K, **kwargs).phi).tobytes()


def _compiled_phi(questions, K, **kwargs) -> bytes:
    assert _compiled_sweeps() is not None
    return np.array(fit_lda(questions, K, **kwargs).phi).tobytes()


class TestFitLda:
    def test_seeded_determinism(self):
        a = fit_lda(SEPARABLE, K=2, iters=50, seed=11)
        b = fit_lda(SEPARABLE, K=2, iters=50, seed=11)
        assert np.array_equal(a.phi, b.phi)
        assert a.vocab == b.vocab

    def test_different_seeds_differ(self):
        a = fit_lda(SEPARABLE, K=2, iters=50, seed=1)
        b = fit_lda(SEPARABLE, K=2, iters=50, seed=2)
        assert not np.array_equal(a.phi, b.phi)

    def test_separable_corpus_top_keywords(self):
        # Sampler-as-oracle on a separable corpus: assert the groups split,
        # not exact probabilities.
        model = fit_lda(SEPARABLE, K=2, iters=500, seed=0)
        kws = topic_keywords(model, w=1)
        first, second = [kws[tid][0] for tid in sorted(kws)]
        assert (first in REVENUE_GROUP and second in PROFIT_GROUP) or (
            first in PROFIT_GROUP and second in REVENUE_GROUP
        )

    def test_phi_rows_are_distributions(self):
        model = fit_lda(SEPARABLE, K=3, iters=20, seed=5)
        phi = np.array(model.phi)
        assert phi.shape == (3, len(model.vocab))
        assert np.all(phi >= 0)
        np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=1e-9)

    def test_stopwords_filtered_from_vocab(self):
        model = fit_lda(["what is the revenue of q2?"] * 3, K=1, iters=10, seed=0)
        assert model.vocab == ["revenue"]

    def test_alpha_defaults_to_50_over_k(self):
        model = fit_lda(SEPARABLE, K=2, iters=5, seed=0)
        assert model.alpha == 25.0

    def test_too_few_documents(self):
        with pytest.raises(TooFewDocuments):
            fit_lda(["what is revenue?"] * 3, K=4, iters=10, seed=0)

    def test_degenerate_vocabulary(self):
        with pytest.raises(DegenerateVocabulary):
            fit_lda(["what is the of?", "what is it?"], K=1, iters=10, seed=0)

    def test_questions_empty_after_filtering_excluded(self):
        # 3 usable questions + 1 all-stopword question; K=3 must still fit.
        questions = ["what is revenue?", "what is profit?", "what is margin?", "what is the?"]
        model = fit_lda(questions, K=3, iters=10, seed=0)
        assert set(model.vocab) == {"revenue", "profit", "margin"}


class TestTopicKeywords:
    def test_full_vocab_in_probability_order(self):
        model = fit_lda(SEPARABLE, K=2, iters=100, seed=0)
        kws = topic_keywords(model, w=len(model.vocab))
        for tid, words in kws.items():
            assert sorted(words) == sorted(model.vocab)
            k = sorted(kws).index(tid)
            probs = [model.phi[k][model.vocab.index(w)] for w in words]
            assert probs == sorted(probs, reverse=True)

    def test_equal_counts_tie_breaks_lexicographically(self):
        model = fit_lda(["what is zulu alpha?"] * 2, K=1, iters=10, seed=0)
        kws = topic_keywords(model, w=2)
        (words,) = kws.values()
        assert words == ["alpha", "zulu"]

    def test_w_out_of_range(self):
        model = fit_lda(SEPARABLE, K=2, iters=5, seed=0)
        with pytest.raises(ValueError):
            topic_keywords(model, w=0)
        with pytest.raises(ValueError):
            topic_keywords(model, w=len(model.vocab) + 1)

    def test_keywords_distinct_within_topic(self):
        model = fit_lda(SEPARABLE, K=2, iters=100, seed=3)
        for words in topic_keywords(model, w=3).values():
            assert len(set(words)) == len(words)


def _master(bullets_by_doc):
    return build_question_bank(bullets_by_doc).master


class TestCategorize:
    def test_keyword_match_assigns_topic(self):
        master = _master({"a": ["q2 revenue $5 million."]})
        keywords = {"t0": ["revenue", "sales"], "t1": ["profit"]}
        categorized = categorize_questions(master, keywords)
        assert "t0" in categorized[0].topics

    def test_multi_topic_membership(self):
        master = _master({"a": ["revenue and profit both grew 5%."]})
        keywords = {"t0": ["revenue"], "t1": ["profit"]}
        categorized = categorize_questions(master, keywords)
        assert categorized[0].topics == {"t0", "t1"}

    def test_no_match_gets_uncategorized(self):
        master = _master({"a": ["dividend raised 5%."]})
        keywords = {"t0": ["revenue"]}
        categorized = categorize_questions(master, keywords)
        assert categorized[0].topics == {UNCATEGORIZED}

    def test_adding_keyword_never_removes_membership(self):
        master = _master(
            {"a": ["revenue grew 5%.", "profit fell 3%.", "margin held 2%."]},
        )
        base = {"t0": ["revenue"], "t1": ["profit"]}
        grown = {"t0": ["revenue", "margin"], "t1": ["profit"]}
        before = categorize_questions(master, base)
        after = categorize_questions(master, grown)
        for q_before, q_after in zip(before, after):
            assert q_before.topics - {UNCATEGORIZED} <= q_after.topics

    def test_every_question_has_a_topic(self):
        master = _master({"a": ["alpha 1%.", "beta 2%.", "gamma 3%."]})
        keywords = {"t0": ["alpha"]}
        categorized = categorize_questions(master, keywords)
        for question in categorized:
            assert question.topics


class TestDistribution:
    def test_two_singleton_topics(self, make_question):
        categorized = [
            make_question("what is revenue?", topics={"t0"}),
            make_question("what is profit?", topics={"t1"}),
        ]
        assert question_distribution(categorized) == {"t0": 50.0, "t1": 50.0}

    def test_multi_membership_counted_once_per_pair(self, make_question):
        categorized = [make_question("what is revenue profit?", topics={"t0", "t1"})]
        assert question_distribution(categorized) == {"t0": 50.0, "t1": 50.0}

    def test_percentages_sum_to_100(self):
        master = _master(
            {"a": ["revenue 1%.", "profit 2%.", "revenue and profit 3%.", "misc 4%."]},
        )
        keywords = {"t0": ["revenue"], "t1": ["profit"]}
        distribution = question_distribution(categorize_questions(master, keywords))
        assert sum(distribution.values()) == pytest.approx(100.0, abs=0.01)

    def test_empty_bank(self):
        with pytest.raises(EmptyBank):
            question_distribution([])

    def test_uncategorized_bank_rejected(self, make_question):
        with pytest.raises(EmptyBank):
            question_distribution([make_question("what is x?")])


class TestModelSerialization:
    def test_round_trip(self):
        model = fit_lda(SEPARABLE, K=2, iters=50, seed=4)
        model.keywords = topic_keywords(model, w=3)
        clone = reader(TopicModel)(json.loads(pipeline._dumps(model)))
        assert clone == model
        assert clone.K == 2 and len(clone.phi) == 2

    def test_schema_keys(self):
        model = fit_lda(SEPARABLE, K=2, iters=5, seed=0)
        model.keywords = topic_keywords(model, w=2)
        data = json.loads(pipeline._dumps(model))
        assert {"K", "alpha", "beta", "seed", "vocab", "phi", "keywords"} <= set(data)


class TestCompiledSampler:
    """The compiled kernel draws the Python loop's chain: phi is byte-identical."""

    WORDS = ["revenue", "growth", "net", "profit", "margin", "cash", "eps", "guidance"]

    @needs_cc
    def test_kernel_loads_with_a_compiler(self):
        assert _compiled_sweeps() is not None

    @needs_cc
    @settings(max_examples=60, deadline=None)
    @given(
        st.data(),
        st.integers(1, 8),
        st.none() | st.floats(0.05, 60.0),
        st.floats(0.001, 2.0),
        st.integers(0, 30),
        st.integers(0, 2**32),
    )
    def test_same_phi_as_python_loop(self, data, K, alpha, beta, iters, seed):
        question = st.lists(st.sampled_from(self.WORDS), min_size=1, max_size=5)
        bags = data.draw(st.lists(question, min_size=K, max_size=12))
        questions = [f"what is {' '.join(bag)}?" for bag in bags]
        kwargs = dict(alpha=alpha, beta=beta, iters=iters, seed=seed)
        assert _compiled_phi(questions, K, **kwargs) == _python_phi(questions, K, **kwargs)

    @needs_cc
    @pytest.mark.parametrize("K", [30, 5])
    @pytest.mark.parametrize("seed", [7, 1, 2])
    def test_same_phi_on_bundled_master_list(self, bundled_master, K, seed):
        expected = _python_phi(bundled_master, K, seed=seed)
        assert _compiled_phi(bundled_master, K, seed=seed) == expected

    @needs_cc
    def test_continues_python_mt_stream(self):
        # One token, one topic: every sweep draws exactly one uniform, so the
        # state left behind must be Python's after as many random() calls.
        rng, reference = random.Random(5), random.Random(5)
        mt = np.array(rng.getstate()[1], dtype=np.uint32)
        one = np.array([0], dtype=np.intc)
        counts = [np.array([1], dtype=np.intc) for _ in range(3)]
        sweeps = _compiled_sweeps()
        sweeps(1, one, one, one.copy(), *counts, 1, 1.0, 0.01, 0.01, np.empty(1), 1000, mt)
        for _ in range(1000):
            reference.random()
        assert tuple(int(x) for x in mt) == reference.getstate()[1]


@pytest.fixture(scope="module")
def bundled_master(tmp_path_factory, synthetic_dirs):
    workspace = tmp_path_factory.mktemp("bundled")
    pipeline.run_stage("ingest", PipelineConfig(), workspace, *synthetic_dirs)
    pipeline.run_stage("qgen", PipelineConfig(), workspace)
    return [q.text for q in pipeline.read_artifact(workspace, "qgen/question_bank.json").master]


class TestKernelBuild:
    QUESTIONS = SEPARABLE[:4] + SEPARABLE[-4:]

    @needs_cc
    def test_builds_into_cache_once(self, fresh_cache):
        assert _compiled_sweeps() is not None
        (library,) = (fresh_cache / "bulletsum").iterdir()
        assert library.name.startswith("lda_sweep-") and library.suffix == ".so"
        built = library.stat().st_mtime_ns
        kernels.load.cache_clear()
        assert _compiled_sweeps() is not None
        assert library.stat().st_mtime_ns == built

    @pytest.mark.parametrize(
        "failure, reason",
        [
            ("no-compiler", "No such file"),
            ("compile-error", "simulated compile error"),
            ("unloadable-library", "lda_sweep-"),
            ("unwritable-cache", "cache"),
        ],
    )
    def test_failure_falls_back_with_one_warning(
        self, failure, reason, fresh_cache, break_kernel_build, caplog
    ):
        expected = _python_phi(self.QUESTIONS, 2, iters=50, seed=3)
        break_kernel_build(failure)
        with caplog.at_level(logging.WARNING, logger="bulletsum.kernels"):
            models = [fit_lda(self.QUESTIONS, 2, iters=50, seed=3) for _ in range(2)]
        phis = [np.array(model.phi).tobytes() for model in models]
        assert phis == [expected, expected]
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert reason in warnings[0].getMessage()
        if failure != "unwritable-cache":
            leftovers = [p for p in (fresh_cache / "bulletsum").iterdir() if p.name.startswith(".")]
            assert leftovers == []
