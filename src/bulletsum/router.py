"""Test-time routing: topic detection on a transcript, then question choice.

With no reference summary available, the transcript's own topic-keyword
matches decide which bank questions to retrieve with. Questions under a
detected topic are ranked by cosine against the centroid of the sentences
that triggered the topic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoTopicsDetected
from .qbank import Question
from .retrieval import TokenIndex, cosine_matrix, top_k
from .topics import UNCATEGORIZED, TopicKeywords

_EMPTY_BUCKET = np.zeros(0, dtype=np.intp)


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
    doc_id: str,
    keywords: TopicKeywords,
    sentence_ids: list[np.ndarray],
    index: TokenIndex,
) -> TopicDetection:
    """Topics whose keywords occur as tokens anywhere in the document.

    ``sentence_ids[i]`` holds the token ids of the document's sentence ``i``
    in ``index``. Each detected topic lists the keywords that matched and the
    positions of the sentences they matched in.
    """
    sentence_tokens = [set(ids.tolist()) for ids in sentence_ids]
    doc_tokens = set().union(*sentence_tokens)
    detected = []
    for topic_id in sorted(keywords.keywords):
        if topic_id == UNCATEGORIZED:
            continue
        matched = [
            keyword for keyword in keywords.keywords[topic_id] if index.id_of(keyword) in doc_tokens
        ]
        if matched:
            matched_ids = {index.id_of(keyword) for keyword in matched}
            positions = [
                p for p, tokens in enumerate(sentence_tokens) if not tokens.isdisjoint(matched_ids)
            ]
            detected.append(DetectedTopic(topic_id, matched, positions))
    return TopicDetection(doc_id=doc_id, detected=detected)


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
    ``sentence_vectors`` rows the topic was detected in (``top_k``: ties go
    to the earlier master-list index); the per-topic winners are unioned in
    (topic id, rank) order, each index once. Master-list texts are distinct
    (``build_question_bank`` deduplicates them), so this is the union by
    text as well.
    """
    if q_per_topic < 1:
        raise ValueError("q_per_topic must be >= 1")
    if not detection.detected:
        raise NoTopicsDetected(f"no topics detected for document {detection.doc_id!r}")

    centroids = np.array(
        [sentence_vectors[topic.positions].mean(axis=0) for topic in detection.detected]
    )
    scores = cosine_matrix(centroids, master_vectors)

    winners: list[int] = []
    for topic, row in zip(detection.detected, scores):
        bucket = buckets.get(topic.topic_id, _EMPTY_BUCKET)
        winners.extend(bucket[top_k(row[bucket], q_per_topic)].tolist())
    return list(dict.fromkeys(winners))
