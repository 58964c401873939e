import math
from dataclasses import asdict
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bulletsum import pipeline, retrieval
from bulletsum.errors import NoTopicsDetected
from bulletsum.retrieval import (
    SCORE_DECIMALS,
    TfidfEmbedder,
    cosine_matrix,
    cosines,
    encode,
    top_k,
)
from bulletsum.router import (
    DetectedTopic,
    TopicDetection,
    detect_topics,
    select_questions,
    topic_buckets,
)
from bulletsum.text import tokenize
from bulletsum.topics import UNCATEGORIZED
from test_retrieval import loop_embed

KEYWORDS = {
    "t0": ["revenue", "sales"],
    "t1": ["profit", "income"],
    "t2": ["dividend"],
}


def cosine(u, v):
    """Scalar reference cosine; zero vectors score 0."""
    nu = math.sqrt(float(np.dot(u, u)))
    nv = math.sqrt(float(np.dot(v, v)))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v)) / (nu * nv)


def against(master_vectors):
    """A service's master scorer: the centroids' cosines to ``master_vectors``, at the pairs."""
    return partial(pipeline._pair_cosines, master_vectors, np.linalg.norm(master_vectors, axis=1))


def _detect(sentences, keywords):
    """``detect_topics`` on the document's sentences as ``encode`` gives them."""
    return detect_topics("d", keywords, encode(sentences))


def _fold_select(sentences, detection, texts, buckets, q_per_topic):
    """``select_questions`` as the route stage calls it: the IDF folded into the centroids.

    The master texts are encoded and counted once (``Encoded.terms``); the
    topic centroids are taken on the fit columns that hold a master token,
    and scored against the master counts the fit holds (``TfidfEmbedder.fold``).
    """
    counted = encode(texts)
    embedder = TfidfEmbedder(sentences)
    fold = embedder.fold(counted.tokens, counted.terms())
    return select_questions(
        detection, embedder.vectors(fold.fit_columns), fold.scores, buckets, q_per_topic
    )


def _select(sentences, detection, master, q_per_topic):
    """The master questions ``select_questions`` picks, on dense vectors and through the fold.

    The dense reference embeds the sentences and the whole master list on
    the document's vocabulary with the per-token loop. The fold must choose
    the same.
    """
    texts = [q.text for q in master]
    buckets = topic_buckets(master)
    chosen = select_questions(
        detection,
        loop_embed(sentences, sentences),
        against(loop_embed(sentences, texts)),
        buckets,
        q_per_topic,
    )
    assert _fold_select(sentences, detection, texts, buckets, q_per_topic) == chosen
    return [master[i] for i in chosen]


class TestDetectTopics:
    def test_keyword_presence_detects_topic(self):
        sentences = ("revenue rose this quarter", "we hired staff")
        detection = _detect(sentences, KEYWORDS)
        assert [t.topic_id for t in detection.detected] == ["t0"]
        topic = detection.detected[0]
        assert topic.keywords == ["revenue"]
        assert topic.positions == [0]

    def test_no_shared_keywords(self):
        sentences = ("the weather was pleasant",)
        assert _detect(sentences, KEYWORDS).detected == []

    def test_one_evidence_entry_per_sentence_hit(self):
        sentences = ("dividend news", "dividend again", "more dividend talk")
        detection = _detect(sentences, KEYWORDS)
        topic = detection.detected[0]
        assert len(topic.positions) == 3
        assert topic.positions == [0, 1, 2]
        assert topic.keywords == ["dividend"]

    def test_keywords_in_topic_order(self):
        sentences = ("sales held", "revenue and sales rose")
        topic = _detect(sentences, KEYWORDS).detected[0]
        assert topic.keywords == ["revenue", "sales"]
        assert topic.positions == [0, 1]

    def test_substring_does_not_match(self):
        # token-exact: "revenues" is not the keyword "revenue"
        sentences = ("revenues grew nicely",)
        assert _detect(sentences, KEYWORDS).detected == []

    def test_monotone_under_added_sentences(self):
        base = ["revenue rose", "profit fell"]
        grown = base + ["dividend declared", "misc line"]
        small_ids = {t.topic_id for t in _detect(base, KEYWORDS).detected}
        big_ids = {t.topic_id for t in _detect(grown, KEYWORDS).detected}
        assert small_ids <= big_ids

    def test_serializable(self):
        sentences = ("revenue rose",)
        data = asdict(_detect(sentences, KEYWORDS))
        assert data["doc_id"] == "d"
        assert data["detected"][0]["topic_id"] == "t0"

    def test_uncategorized_never_detected(self):
        keywords = {"t0": ["revenue"], "uncategorized": ["revenue"]}
        sentences = ("revenue rose",)
        assert [t.topic_id for t in _detect(sentences, keywords).detected] == ["t0"]


    WORDS = ["revenue", "sales", "profit", "margin", "dividend", "cash", "the", "rose", "q3"]

    @given(
        sentences=st.lists(
            st.lists(st.sampled_from(WORDS + ["Revenue,", "sales."]), max_size=6).map(" ".join),
            max_size=8,
        ),
        keywords=st.dictionaries(
            st.sampled_from(["t0", "t1", "t2", "t3", UNCATEGORIZED]),
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=4, unique=True),
            max_size=5,
        ),
    )
    # A keyword under two topics, and one repeated within a topic.
    @example(
        sentences=["revenue rose", "cash fell"],
        keywords={"t0": ["cash", "revenue"], "t1": ["revenue", "margin", "revenue"]},
    )
    # ``uncategorized`` holds a keyword the document contains.
    @example(sentences=["the dividend", "cash"], keywords={UNCATEGORIZED: ["dividend", "cash"]})
    # A decimal keyword, and trailing sentences with no token.
    @example(
        sentences=["eps of 3.5 rose", "3 5 and 35", "", "..."],
        keywords={"t0": ["3.5"], "t1": ["35", "5"]},
    )
    # A document with no token at all.
    @example(sentences=["", "--", "."], keywords={"t0": ["revenue"], UNCATEGORIZED: ["cash"]})
    def test_matches_brute_force_scan(self, sentences, keywords):
        # A keyword may be in no sentence, or in every one.
        detection = _detect(sentences, keywords)
        expected = []
        for topic_id in sorted(keywords):
            if topic_id == UNCATEGORIZED:
                continue
            hits = [
                (keyword, i)
                for i, text in enumerate(sentences)
                for keyword in keywords[topic_id]
                if keyword in tokenize(text)
            ]
            if hits:
                matched = {keyword for keyword, _ in hits}
                expected.append(
                    (
                        topic_id,
                        [keyword for keyword in keywords[topic_id] if keyword in matched],
                        sorted({i for _, i in hits}),
                    )
                )
        assert detection.doc_id == "d"
        assert [(t.topic_id, t.keywords, t.positions) for t in detection.detected] == expected


class TestTopicBuckets:
    def test_ascending_master_indices_per_label(self, make_question):
        master = [
            make_question("what is a?", topics={"t1"}),
            make_question("what is b?", topics={"t0", "t1"}),
            make_question("what is c?", topics={UNCATEGORIZED}),
            make_question("what is d?", topics={"t1"}),
        ]
        buckets = topic_buckets(master)
        assert {t: b.tolist() for t, b in buckets.items()} == {
            "t0": [1],
            "t1": [0, 1, 3],
            UNCATEGORIZED: [2],
        }


class TestSelectQuestions:
    def _master(self, make_question):
        return [
            make_question("what is quarterly revenue?", index=0, topics={"t0"}),
            make_question("what is annual sales outlook?", index=1, topics={"t0"}),
            make_question("what is net profit?", index=2, topics={"t1"}),
            make_question("what is revenue and profit mix?", index=3, topics={"t0", "t1"}),
        ]

    def test_single_question_topic_selected(self, make_question):
        sentences = ("profit improved again this year",)
        master = [make_question("what is net profit?", topics={"t1"})]
        detection = _detect(sentences, KEYWORDS)
        selected = _select(sentences, detection, master, 2)
        assert [q.text for q in selected] == ["what is net profit?"]

    def test_question_under_two_topics_appears_once(self, make_question):
        sentences = ("revenue rose", "profit rose")
        master = [make_question("what is revenue and profit mix?", topics={"t0", "t1"})]
        detection = _detect(sentences, KEYWORDS)
        selected = _select(sentences, detection, master, 2)
        assert len(selected) == 1

    def test_content_word_match_ranks_first(self, make_question):
        sentences = (
            "quarterly revenue grew substantially",
            "weather stayed calm",
            "the office moved",
        )
        master = [
            make_question("what is annual sales outlook?", index=0, topics={"t0"}),
            make_question("what is quarterly revenue grew?", index=1, topics={"t0"}),
            make_question("what is miscellaneous trivia?", index=2, topics={"t0"}),
        ]
        detection = _detect(sentences, KEYWORDS)
        selected = _select(sentences, detection, master, 1)
        assert selected[0].text == "what is quarterly revenue grew?"
        # brute-force oracle: cosine of each bucket question vs evidence centroid
        evidence_vec = loop_embed(sentences, ["quarterly revenue grew substantially"])[0]
        sims = {
            q.text: cosine(loop_embed(sentences, [q.text])[0], evidence_vec)
            for q in master
        }
        assert max(sims, key=sims.get) == "what is quarterly revenue grew?"
        routine = cosine_matrix(
            evidence_vec[None], loop_embed(sentences, [q.text for q in master])
        )[0]
        for q, score in zip(master, routine):
            assert abs(score - sims[q.text]) <= 1e-12

    def test_tie_goes_to_earlier_master_index(self, make_question):
        sentences = ("revenue growth was strong", "sales held")
        detection = _detect(sentences, KEYWORDS)
        texts = ["what is revenue growth?", "what is growth revenue?"]
        for order in (texts, texts[::-1]):
            master = [make_question(t, index=i, topics={"t0"}) for i, t in enumerate(order)]
            selected = _select(sentences, detection, master, 1)
            assert [q.text for q in selected] == [order[0]]

    def test_output_subset_of_master_and_bounded(self, make_question):
        sentences = ("revenue rose", "profit fell", "dividend paid")
        master = self._master(make_question)
        detection = _detect(sentences, KEYWORDS)
        selected = _select(sentences, detection, master, 2)
        master_texts = {q.text for q in master}
        assert all(q.text in master_texts for q in selected)
        assert len(selected) <= 2 * len(detection.detected)

    def test_deterministic(self, make_question):
        sentences = ("revenue rose", "profit fell")
        master = self._master(make_question)
        detection = _detect(sentences, KEYWORDS)
        first = _select(sentences, detection, master, 2)
        second = _select(sentences, detection, master, 2)
        assert [q.text for q in first] == [q.text for q in second]

    def test_returns_master_indices_each_once(self, make_question):
        sentences = ("revenue rose", "profit fell")
        master = self._master(make_question)
        chosen = select_questions(
            _detect(sentences, KEYWORDS),
            loop_embed(sentences, sentences),
            against(loop_embed(sentences, [q.text for q in master])),
            topic_buckets(master),
            3,
        )
        # t0 ranks its bucket [0, 1, 3] and t1 its bucket [2, 3]; 3 is in both
        assert sorted(chosen) == [0, 1, 2, 3]
        assert len(chosen) == len(set(chosen))

    def test_empty_detection_raises(self, make_question):
        sentences = ("nothing relevant here",)
        master = self._master(make_question)
        detection = _detect(sentences, KEYWORDS)
        with pytest.raises(NoTopicsDetected):
            _select(sentences, detection, master, 2)

    MASTER_WORDS = ["revenue", "sales", "profit", "margin", "what", "is"]
    DOC_WORDS = ["revenue", "profit", "cash", "the", "rose", "q3"]

    @settings(max_examples=100, deadline=None)
    @given(
        sentences=st.lists(
            st.lists(st.sampled_from(DOC_WORDS), max_size=6).map(" ".join), min_size=1, max_size=8
        ),
        master=st.lists(
            st.lists(st.sampled_from(MASTER_WORDS), min_size=1, max_size=5).map(" ".join),
            min_size=1,
            max_size=6,
        ),
        groups=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=4),
    )
    @example(sentences=["cash rose", "the q3"], master=["what is margin"], groups=[[0, 1]])
    @example(
        sentences=["cash rose", "revenue rose in q3"], master=["what is revenue", "sales"],
        groups=[[0], [1], [0, 1]],
    )
    def test_fold_scales_each_centroid_score(self, sentences, master, groups):
        """The fold's cosine is the dense one over ||c_K|| / ||c||, and it chooses the same.

        c is a centroid of dense sentence vectors and c_K its part on the
        columns that hold a master token. The examples share no master token
        with the document, and exactly one.
        """
        dense_sentences = loop_embed(sentences, sentences)
        dense = loop_embed(sentences, master)
        detection = TopicDetection("d", [
            DetectedTopic(f"t{i}", ["k"], sorted({p % len(sentences) for p in group}))
            for i, group in enumerate(groups)
        ])
        buckets = {topic.topic_id: np.arange(len(master)) for topic in detection.detected}
        scored = []

        def recording_cosines(*args):
            scored.append(cosines(*args))
            return scored[-1]

        with mock.patch.object(retrieval, "cosines", side_effect=recording_cosines):
            chosen = _fold_select(sentences, detection, master, buckets, 2)
        # Every topic's bucket is the whole master list: the pairs run row by row.
        narrow = scored[-1].reshape(len(groups), len(master))
        assert chosen == select_questions(detection, dense_sentences, against(dense), buckets, 2)

        # ``loop_embed``'s columns are the document's tokens in string order.
        vocab = sorted({token for text in sentences for token in tokenize(text)})
        master_tokens = {token for text in master for token in tokenize(text)}
        held = [token in master_tokens for token in vocab]
        assert not dense[:, np.logical_not(held)].any()
        centroids = np.array(
            [dense_sentences[topic.positions].mean(axis=0) for topic in detection.detected]
        )
        full = np.linalg.norm(centroids, axis=1)
        part = np.linalg.norm(centroids[:, held], axis=1)
        factor = np.divide(part, full, out=np.zeros_like(full), where=full > 0)
        np.testing.assert_allclose(
            narrow * factor[:, None], cosine_matrix(centroids, dense), rtol=0, atol=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n_master=st.integers(1, 8),
        topic_ids=st.lists(st.sampled_from(["t0", "t1", "t2", "t3"]), min_size=1, max_size=4, unique=True),
    )
    def test_matches_the_per_topic_top_k_loop(self, data, n_master, topic_ids):
        """Masked argmax picks what ``top_k`` on each topic's bucket picked.

        Buckets may be empty, missing or overlap; scores repeat a few values
        plus noise below the rounding, so rounded ties are common, and a NaN
        score ranks last as in ``top_k``.
        """
        buckets = {
            topic_id: np.array(sorted(indices), dtype=np.intp)
            for topic_id in topic_ids
            if (indices := data.draw(st.none() | st.sets(st.integers(0, n_master - 1)))) is not None
        }
        largest = max((len(bucket) for bucket in buckets.values()), default=0)
        q_per_topic = data.draw(st.integers(1, largest + 2))
        value = st.tuples(
            st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, math.nan]), st.floats(-4e-13, 4e-13)
        ).map(sum)
        row = st.lists(value, min_size=n_master, max_size=n_master)
        scores = np.array(data.draw(st.lists(row, min_size=len(topic_ids), max_size=len(topic_ids))))
        detection = TopicDetection("d", [DetectedTopic(t, ["k"], [0]) for t in topic_ids])

        # The reference: each topic ranks its own bucket with ``top_k``.
        winners = []
        for topic_id, row in zip(topic_ids, scores):
            bucket = buckets.get(topic_id, np.zeros(0, dtype=np.intp))
            winners.extend(bucket[top_k(row[bucket], q_per_topic)].tolist())
        expected = list(dict.fromkeys(winners))

        # The stand-in master scorer rounds its scores as ``cosine_matrix`` does.
        rounded = np.round(scores, SCORE_DECIMALS)
        chosen = select_questions(
            detection,
            np.zeros((1, 1)),
            lambda centroids, topics, questions: rounded[topics, questions],
            buckets,
            q_per_topic,
        )
        assert chosen == expected

    def test_centroids_are_the_mean_of_each_topics_sentences(self):
        rng = np.random.default_rng(3)
        sentence_vectors = rng.normal(size=(6, 4))
        master_vectors = rng.normal(size=(5, 4))
        groups = [[0], [1, 2, 5], [0, 3, 4, 5]]
        detection = TopicDetection(
            "d", [DetectedTopic(f"t{i}", ["k"], group) for i, group in enumerate(groups)]
        )
        scored = mock.Mock(wraps=against(master_vectors))
        select_questions(detection, sentence_vectors, scored, {}, 1)
        centroids = scored.call_args.args[0]
        np.testing.assert_allclose(
            centroids, [sentence_vectors[group].mean(axis=0) for group in groups], rtol=0, atol=1e-12
        )

    def test_q_per_topic_validated(self, make_question):
        sentences = ("revenue rose",)
        master = self._master(make_question)
        detection = _detect(sentences, KEYWORDS)
        with pytest.raises(ValueError):
            _select(sentences, detection, master, 0)
