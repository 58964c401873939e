"""LDA over the master question list: fit, keywords, categorization.

Each question is one bag-of-words document. The sampler is collapsed Gibbs
with symmetric Dirichlet priors, run single-threaded so a fixed seed gives
bit-identical results. Topic-word probabilities come from the final counts
with beta smoothing.

``TopicModel`` is the record ``topics/topic_model.json`` holds: ``fit_lda``
fills every field but ``keywords`` (``topic_keywords`` gives those), the
``topics`` stage writes it as its fields, and ``route`` reads it back through
``records.reader``.

The sweeps run in a small C kernel (``lda_sweep.c``) that draws exactly the
chain of the Python loop kept here as the reference: the same float
expression in the same order, and uniforms that continue ``random``'s
MT19937 stream, so ``phi`` is byte-identical either way. ``kernels.load``
builds and loads it on the first ``fit_lda`` call in a process; where it
cannot, it logs one WARNING and the Python loop runs, with the same result,
more slowly.
"""

from __future__ import annotations

import ctypes
import logging
import random
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DegenerateVocabulary, EmptyBank, TooFewDocuments
from .qbank import Question
from .text import QUESTION_STOPWORDS, tokenize

UNCATEGORIZED = "uncategorized"

DEFAULT_BETA = 0.01
DEFAULT_ITERS = 1000

_INTS = np.ctypeslib.ndpointer(np.intc, flags="C_CONTIGUOUS")
# ``kernels.load``'s arguments for the compiled sweeps of ``lda_sweep.c``.
_SWEEPS = ("lda_sweep", "lda_sweeps", (
    ctypes.c_int, _INTS, _INTS, _INTS, _INTS, _INTS, _INTS, ctypes.c_int,
    ctypes.c_double, ctypes.c_double, ctypes.c_double,
    np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"), ctypes.c_int,
    np.ctypeslib.ndpointer(np.uint32, shape=(625,), flags="C_CONTIGUOUS"),
))

logger = logging.getLogger(__name__)


@dataclass
class TopicModel:
    K: int
    vocab: list[str]
    phi: list[list[float]]  # K x len(vocab), rows sum to 1
    alpha: float
    beta: float
    iterations: int
    seed: int
    # topic id -> keywords, highest probability first (``topic_keywords``)
    keywords: dict[str, list[str]] = field(default_factory=dict)

    @property
    def topic_ids(self) -> list[str]:
        width = len(str(self.K - 1))
        return [f"t{i:0{width}d}" for i in range(self.K)]


def _question_tokens(text: str, stopwords) -> list[str]:
    return [tok for tok in tokenize(text) if tok not in stopwords]


def _python_sweeps(doc_of, word_of, z, n_dk, n_wk, n_k, alpha, beta, beta_v, iters, rng):
    """The reference sampler: ``iters`` sweeps, counts updated in place; returns ``n_wk``."""
    K = len(n_k)
    rand = rng.random
    cum = [0.0] * K
    for _ in range(iters):
        for idx in range(len(z)):
            d = doc_of[idx]
            w = word_of[idx]
            k = z[idx]
            ndk = n_dk[d]
            nwk = n_wk[w]
            ndk[k] -= 1
            nwk[k] -= 1
            n_k[k] -= 1

            total = 0.0
            for j in range(K):
                total += (nwk[j] + beta) * (ndk[j] + alpha) / (n_k[j] + beta_v)
                cum[j] = total
            u = rand() * total
            k = 0
            while cum[k] < u:
                k += 1

            z[idx] = k
            ndk[k] += 1
            nwk[k] += 1
            n_k[k] += 1
    return n_wk


def _kernel_sweeps(sweeps, doc_of, word_of, z, n_dk, n_wk, n_k, alpha, beta, beta_v, iters, rng):
    """The same sweeps in the compiled kernel, continuing ``rng``'s MT19937 stream.

    Returns the topic-word counts, an array shaped like ``n_wk``.
    """
    arrays = [np.array(a, dtype=np.intc) for a in (doc_of, word_of, z, n_dk, n_wk, n_k)]
    mt = np.array(rng.getstate()[1], dtype=np.uint32)  # 624 state words, then the index
    sweeps(len(z), *arrays, len(n_k), alpha, beta, beta_v, np.empty(len(n_k)), iters, mt)
    return arrays[4]


def fit_lda(
    questions: list[str],
    K: int,
    alpha: float | None = None,
    beta: float = DEFAULT_BETA,
    iters: int = DEFAULT_ITERS,
    seed: int = 0,
    stopwords=QUESTION_STOPWORDS,
) -> TopicModel:
    """Fit topic-word distributions by collapsed Gibbs sampling.

    ``alpha`` defaults to 50/K. Questions that are empty after stop-word
    filtering are excluded from the fit; the remaining count must be >= K.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if alpha is None:
        alpha = 50.0 / K

    docs = [toks for toks in (_question_tokens(q, stopwords) for q in questions) if toks]
    vocab = sorted({tok for doc in docs for tok in doc})
    if not vocab:
        raise DegenerateVocabulary("no tokens survive stop-word filtering")
    if len(docs) < K:
        raise TooFewDocuments(
            f"K={K} exceeds the {len(docs)} questions usable after filtering"
        )

    word_id = {word: i for i, word in enumerate(vocab)}
    V = len(vocab)
    beta_v = beta * V

    # Flat token stream; sweep order is fixed so the seed fully determines
    # the chain.
    doc_of = []
    word_of = []
    for d, doc in enumerate(docs):
        for tok in doc:
            doc_of.append(d)
            word_of.append(word_id[tok])
    n_tokens = len(doc_of)

    rng = random.Random(seed)
    n_dk = [[0] * K for _ in range(len(docs))]
    n_wk = [[0] * K for _ in range(V)]
    n_k = [0] * K
    z = [0] * n_tokens
    for idx in range(n_tokens):
        k = rng.randrange(K)
        z[idx] = k
        n_dk[doc_of[idx]][k] += 1
        n_wk[word_of[idx]][k] += 1
        n_k[k] += 1

    chain = (doc_of, word_of, z, n_dk, n_wk, n_k, alpha, beta, beta_v, iters, rng)
    sweeps = kernels.load(*_SWEEPS)
    if sweeps is None:
        logger.info("LDA sampler: Python loop, %d sweeps", iters)
        n_wk = _python_sweeps(*chain)
    else:
        logger.info("LDA sampler: compiled kernel, %d sweeps", iters)
        n_wk = _kernel_sweeps(sweeps, *chain)

    counts = np.array(n_wk, dtype=np.float64).T  # K x V
    phi = (counts + beta) / (counts.sum(axis=1, keepdims=True) + beta_v)
    return TopicModel(
        K=K,
        vocab=vocab,
        phi=phi.tolist(),
        alpha=alpha,
        beta=beta,
        iterations=iters,
        seed=seed,
    )


def topic_keywords(model: TopicModel, w: int = 10) -> dict[str, list[str]]:
    """Top-w vocabulary words per topic; probability ties break lexically."""
    if not 1 <= w <= len(model.vocab):
        raise ValueError(f"w must be from 1 to the vocabulary size {len(model.vocab)}, got {w}")
    keywords = {}
    for k, topic_id in enumerate(model.topic_ids):
        row = model.phi[k]
        order = sorted(range(len(model.vocab)), key=lambda i: (-row[i], model.vocab[i]))
        keywords[topic_id] = [model.vocab[i] for i in order[:w]]
    return keywords


def categorize_questions(
    questions: list[Question], keywords: dict[str, list[str]]
) -> list[Question]:
    """Assign every question the topics whose keywords it contains.

    Multi-label: a question joins every topic with at least one keyword
    present as a token. Questions matching nothing get ``uncategorized``.
    """
    keyword_sets = {tid: set(kws) for tid, kws in keywords.items()}

    def assign(question: Question) -> Question:
        tokens = set(tokenize(question.text))
        topics = {tid for tid, kws in keyword_sets.items() if kws & tokens}
        return question.with_topics(topics or {UNCATEGORIZED})

    return [assign(q) for q in questions]


def question_distribution(questions: list[Question]) -> dict[str, float]:
    """Percentage of topic memberships per topic over a categorized list.

    Each (question, topic) membership counts once, so multi-topic questions
    contribute to several topics; percentages sum to 100.
    """
    if not questions:
        raise EmptyBank("question bank is empty")
    counts: dict[str, int] = {}
    for question in questions:
        for topic_id in question.topics:
            counts[topic_id] = counts.get(topic_id, 0) + 1
    total = sum(counts.values())
    if total == 0:
        raise EmptyBank("question bank has not been categorized")
    return {tid: 100.0 * count / total for tid, count in sorted(counts.items())}

