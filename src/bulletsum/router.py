"""Test-time routing: topic detection on a transcript, then question choice.

With no reference summary available, the transcript's own topic-keyword
matches decide which bank questions to retrieve with. Questions under a
detected topic are ranked by cosine against the centroid of the sentences
that triggered the topic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Transcript
from .errors import NoTopicsDetected
from .qbank import Question, unique_questions
from .retrieval import Embedder, cosine_matrix, top_k
from .text import tokenize
from .topics import UNCATEGORIZED, TopicKeywords


@dataclass(frozen=True)
class DetectedTopic:
    topic_id: str
    keywords: list[str]  # matched keywords, in the topic's keyword order
    positions: list[int]  # ascending positions of sentences with a match; >= 1


@dataclass
class TopicDetection:
    doc_id: str
    detected: list[DetectedTopic]


def detect_topics(doc: Transcript, keywords: TopicKeywords) -> TopicDetection:
    """Topics whose keywords occur as tokens anywhere in the document.

    Each detected topic lists the keywords that matched and the positions
    of the sentences they matched in.
    """
    sentence_tokens = [set(tokenize(s.text)) for s in doc.sentences]
    doc_tokens = set().union(*sentence_tokens)
    detected = []
    for topic_id in sorted(keywords.keywords):
        if topic_id == UNCATEGORIZED:
            continue
        matched = [keyword for keyword in keywords.keywords[topic_id] if keyword in doc_tokens]
        if matched:
            positions = [
                sentence.position
                for sentence, tokens in zip(doc.sentences, sentence_tokens)
                if not tokens.isdisjoint(matched)
            ]
            detected.append(DetectedTopic(topic_id, matched, positions))
    return TopicDetection(doc_id=doc.id, detected=detected)


def select_questions(
    doc: Transcript,
    detection: TopicDetection,
    master: list[Question],
    q_per_topic: int,
    embedder: Embedder,
) -> list[Question]:
    """Top-matched master-list questions for each detected topic.

    Per topic, questions carrying that topic label are ranked by cosine
    between the question embedding and the mean vector of the sentences the
    topic was detected in (``top_k``: ties go to the earlier master-list
    index); the per-topic winners are unioned (``unique_questions``) in
    (topic id, rank) order.
    """
    if q_per_topic < 1:
        raise ValueError("q_per_topic must be >= 1")
    if not detection.detected:
        raise NoTopicsDetected(f"no topics detected for document {doc.id!r}")

    sentence_vectors = embedder.embed([s.text for s in doc.sentences])
    question_vectors = embedder.embed([q.text for q in master])
    centroids = np.array(
        [sentence_vectors[topic.positions].mean(axis=0) for topic in detection.detected]
    )
    scores = cosine_matrix(centroids, question_vectors)

    winners: list[Question] = []
    for topic, row in zip(detection.detected, scores):
        bucket = np.array(
            [i for i, question in enumerate(master) if topic.topic_id in question.topics],
            dtype=np.intp,
        )
        winners.extend(master[i] for i in bucket[top_k(row[bucket], q_per_topic)])
    return unique_questions(winners)
