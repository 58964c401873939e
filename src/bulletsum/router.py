"""Test-time routing: topic detection on a transcript, then question choice.

With no reference summary available, the transcript's own topic-keyword
matches decide which bank questions to retrieve with; detection is a lookup
in one boolean token x sentence table per document. Questions under a
detected topic are ranked by cosine against the centroid of the sentences
that triggered the topic, as scored by the one master-scoring callable the
caller passes, at the (topic, question) pairs of the detected topics'
buckets only. With the built-in TF-IDF embedder that is the document's fold
of the master counts (``retrieval.Fold.scores``): the master list is counted
once per stage (``Encoded.terms``), each document's IDF weighs only the master
counts its fit holds, and a compiled loop sums each pair's products over the
question's entries. With an embedding service it is ``cosine_matrix`` against
the master list's vectors, gathered at the pairs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NoTopicsDetected
from .qbank import Question
from .retrieval import Encoded
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
    matched in. One boolean token x sentence table marks the sentences that
    hold each of the document's tokens; a topic's positions are where any of
    its matched keywords' rows is set.
    """
    ids, sentences, n_sentences, tokens = sentence_ids
    holds = np.zeros((len(tokens), n_sentences), dtype=bool)
    holds[ids, sentences] = True
    token_row = dict(zip(tokens, range(len(tokens))))

    detected = []
    for topic_id in sorted(keywords.keys() - {UNCATEGORIZED}):
        matched = [keyword for keyword in keywords[topic_id] if keyword in token_row]
        if matched:
            matches = holds[[token_row[keyword] for keyword in matched]].any(axis=0)
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
    score_master: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    buckets: dict[str, np.ndarray],
    q_per_topic: int,
) -> list[int]:
    """Master-list indices of the top-matched questions for each detected topic.

    Per topic, the questions in its bucket (``topic_buckets``) are ranked by
    their cosine to the mean of the ``sentence_vectors`` rows the topic was
    detected in, ties going to the earlier master-list index.
    ``score_master(centroids, topics, questions)`` maps the topic centroids,
    a row each, to the cosine of centroid ``topics[p]`` to master question
    ``questions[p]`` for each pair p, rounded as ``cosine_matrix`` rounds:
    ``Fold.scores`` for TF-IDF sentence rows on the fold's fit columns, or
    ``cosine_matrix`` against a service's master vectors, gathered at the
    pairs. The pairs are every detected topic's bucket, flattened, so no
    other question is scored. All topics are ranked together, one masked
    ``argmax`` per rank. The per-topic winners are unioned in (topic id,
    rank) order, each index once. Master-list texts are distinct
    (``build_question_bank`` deduplicates them), so this is the union by
    text as well.
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

    # Each topic's row holds its bucket's scores, which ``score_master`` rounded,
    # and -inf elsewhere; a NaN score goes below every number, as in ``top_k``.
    detected_buckets = [buckets.get(topic.topic_id, _EMPTY_BUCKET) for topic in detected]
    sizes = np.array([len(bucket) for bucket in detected_buckets])
    columns, rows = _flatten(detected_buckets)
    scores = score_master(centroids, rows, columns)
    masked = np.full((len(detected), int(columns.max(initial=-1)) + 1), -np.inf)
    masked[rows, columns] = np.nan_to_num(scores, nan=_BELOW_ANY_SCORE)
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
