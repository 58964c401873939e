"""Test-time routing: topic detection on a transcript, then question choice.

With no reference summary available, the transcript's own topic-keyword
matches decide which bank questions to retrieve with. Questions under a
detected topic are ranked by cosine against the centroid of the sentences
that triggered the topic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import NoTopicsDetected
from .qbank import Question
from .retrieval import Encoded, cosine_matrix
from .topics import UNCATEGORIZED

_EMPTY_BUCKET = np.zeros(0, dtype=np.intp)
# Below every cosine, above the -inf that masks what a topic cannot choose.
_BELOW_ANY_SCORE = -np.finfo(float).max


@dataclass(frozen=True)
class DetectedTopic:
    topic_id: str
    keywords: list[str]  # matched keywords, in the topic's keyword order
    positions: list[int]  # ascending positions of sentences with a match; >= 1


@dataclass
class TopicDetection:
    doc_id: str
    detected: list[DetectedTopic]


def detect_topics(
    doc_id: str, keywords: dict[str, list[str]], sentence_ids: Encoded
) -> TopicDetection:
    """Topics whose keywords occur as tokens anywhere in the document.

    ``sentence_ids`` encodes the document's sentences. Each detected topic
    lists the keywords that matched and the positions of the sentences they
    matched in. One scatter of the ids marks which keywords each sentence
    holds, and one product with the topic x keyword membership gives the
    topics each sentence matches.
    """
    topic_ids = [topic_id for topic_id in sorted(keywords) if topic_id != UNCATEGORIZED]
    # Each distinct keyword's row in the keyword x sentence incidence; the row
    # of a keyword the document lacks stays empty.
    row_of: dict[str, int] = {}
    keyword_rows = [
        [row_of.setdefault(keyword, len(row_of)) for keyword in keywords[topic_id]]
        for topic_id in topic_ids
    ]
    ids, sentences, n_sentences, tokens = sentence_ids
    token_rows = np.fromiter(map(row_of.get, tokens, repeat(-1)), dtype=np.intp, count=len(tokens))
    rows = token_rows[ids]
    hit = rows >= 0
    incidence = np.zeros((len(row_of), n_sentences))
    incidence[rows[hit], sentences[hit]] = 1.0
    pairs = np.array(
        [(t, row) for t, topic_rows in enumerate(keyword_rows) for row in topic_rows],
        dtype=np.intp,
    ).reshape(-1, 2)
    membership = np.zeros((len(topic_ids), len(row_of)))
    membership[pairs[:, 0], pairs[:, 1]] = 1.0
    # A count of matching keywords per topic and sentence; nonzero is a match.
    topic_sentences = membership @ incidence > 0
    present = incidence.any(axis=1).tolist()

    detected = []
    for topic_id, topic_rows, matches in zip(topic_ids, keyword_rows, topic_sentences):
        matched = [
            keyword for keyword, row in zip(keywords[topic_id], topic_rows) if present[row]
        ]
        if matched:
            detected.append(DetectedTopic(topic_id, matched, np.flatnonzero(matches).tolist()))
    return TopicDetection(doc_id=doc_id, detected=detected)


def _flatten(id_arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """All ids in one array, and the row each came from."""
    rows = np.repeat(np.arange(len(id_arrays)), [len(ids) for ids in id_arrays])
    ids = np.concatenate(id_arrays) if id_arrays else np.zeros(0, dtype=np.intp)
    return ids, rows


def topic_buckets(master: list[Question]) -> dict[str, np.ndarray]:
    """The ascending master-list indices of the questions under each topic label."""
    buckets: dict[str, list[int]] = {}
    for i, question in enumerate(master):
        for topic_id in question.topics:
            buckets.setdefault(topic_id, []).append(i)
    return {topic_id: np.array(indices, dtype=np.intp) for topic_id, indices in buckets.items()}


def select_questions(
    detection: TopicDetection,
    sentence_vectors: np.ndarray,
    master_vectors: np.ndarray,
    buckets: dict[str, np.ndarray],
    q_per_topic: int,
) -> list[int]:
    """Master-list indices of the top-matched questions for each detected topic.

    Per topic, the questions in its bucket (``topic_buckets``) are ranked by
    cosine between their row of ``master_vectors`` and the mean of the
    ``sentence_vectors`` rows the topic was detected in, rounded as ``top_k``
    rounds, ties going to the earlier master-list index. All topics are ranked
    together, one masked ``argmax`` per rank. The per-topic winners are
    unioned in (topic id, rank) order, each index once. Master-list texts are
    distinct (``build_question_bank`` deduplicates them), so this is the
    union by text as well.
    """
    if q_per_topic < 1:
        raise ValueError("q_per_topic must be >= 1")
    if not detection.detected:
        raise NoTopicsDetected(f"no topics detected for document {detection.doc_id!r}")

    detected = detection.detected
    # Every centroid in one product: a topics x sentences incidence times the
    # sentence vectors sums each topic's rows, then divided by their count.
    positions, topics = _flatten([topic.positions for topic in detected])
    incidence = np.zeros((len(detected), len(sentence_vectors)))
    incidence[topics, positions] = 1.0
    centroids = incidence @ sentence_vectors / incidence.sum(axis=1, keepdims=True)
    scores = cosine_matrix(centroids, master_vectors)

    # Each topic's row holds its bucket's scores, which ``cosine_matrix``
    # rounded, and -inf elsewhere; a NaN score goes below every number, as in
    # ``top_k``.
    detected_buckets = [buckets.get(topic.topic_id, _EMPTY_BUCKET) for topic in detected]
    sizes = np.array([len(bucket) for bucket in detected_buckets])
    columns, rows = _flatten(detected_buckets)
    masked = np.full(scores.shape, -np.inf)
    masked[rows, columns] = np.nan_to_num(scores[rows, columns], nan=_BELOW_ANY_SCORE)
    # Rank r of every topic at once: argmax takes the first maximum, so equal
    # scores go to the lower master index; the winner is then masked out.
    rounds = min(q_per_topic, int(sizes.max()))
    ranked = np.empty((len(detected), rounds), dtype=np.intp)
    every_topic = np.arange(len(detected))
    for r in range(rounds):
        ranked[:, r] = masked.argmax(axis=1)
        masked[every_topic, ranked[:, r]] = -np.inf
    kept = np.arange(rounds) < sizes[:, None]
    return list(dict.fromkeys(ranked[kept].tolist()))
