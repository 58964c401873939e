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
from .qbank import Question, QuestionBank, unique_questions
from .retrieval import Embedder, cosine_matrix, top_k
from .text import tokenize
from .topics import UNCATEGORIZED, TopicKeywords


@dataclass(frozen=True)
class KeywordMatch:
    keyword: str
    position: int


@dataclass(frozen=True)
class DetectedTopic:
    topic_id: str
    evidence: list[KeywordMatch]  # >= 1 match


@dataclass
class TopicDetection:
    doc_id: str
    detected: list[DetectedTopic]


def detect_topics(doc: Transcript, keywords: TopicKeywords) -> TopicDetection:
    """Topics whose keywords occur as tokens anywhere in the document.

    One evidence entry per (keyword, sentence) hit, ordered by sentence
    position then keyword rank within the topic.
    """
    sentence_tokens = [set(tokenize(s.text)) for s in doc.sentences]
    detected = []
    for topic_id in sorted(keywords.keywords):
        if topic_id == UNCATEGORIZED:
            continue
        evidence = [
            KeywordMatch(keyword=keyword, position=sentence.position)
            for sentence, tokens in zip(doc.sentences, sentence_tokens)
            for keyword in keywords.keywords[topic_id]
            if keyword in tokens
        ]
        if evidence:
            detected.append(DetectedTopic(topic_id, evidence))
    return TopicDetection(doc_id=doc.id, detected=detected)


def select_questions(
    doc: Transcript,
    detection: TopicDetection,
    bank: QuestionBank,
    q_per_topic: int,
    embedder: Embedder,
) -> list[Question]:
    """Top-matched bank questions for each detected topic.

    Per topic, questions carrying that topic label are ranked by cosine
    between the question embedding and the mean vector of the topic's
    evidence sentences (``top_k``: ties go to the earlier master-list
    index); the per-topic winners are unioned (``unique_questions``) in
    (topic id, rank) order.
    """
    if q_per_topic < 1:
        raise ValueError("q_per_topic must be >= 1")
    if not detection.detected:
        raise NoTopicsDetected(f"no topics detected for document {doc.id!r}")

    sentence_vectors = embedder.embed([s.text for s in doc.sentences])
    question_vectors = embedder.embed([q.text for q in bank.master])
    centroids = np.array(
        [
            sentence_vectors[sorted({match.position for match in topic.evidence})].mean(axis=0)
            for topic in detection.detected
        ]
    )
    scores = cosine_matrix(centroids, question_vectors)

    winners: list[Question] = []
    for topic, row in zip(detection.detected, scores):
        bucket = np.array(
            [i for i, question in enumerate(bank.master) if topic.topic_id in question.topics],
            dtype=np.intp,
        )
        winners.extend(bank.master[i] for i in bucket[top_k(row[bucket], q_per_topic)])
    return unique_questions(winners)

