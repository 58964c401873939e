"""LDA over the master question list: fit, keywords, categorization.

Each question is one bag-of-words document. The sampler is collapsed Gibbs
with symmetric Dirichlet priors, run single-threaded so a fixed seed gives
bit-identical results. Topic-word probabilities come from the final counts
with beta smoothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVocabulary, EmptyBank, TooFewDocuments
from .qbank import Question, QuestionBank
from .text import QUESTION_STOPWORDS, tokenize

UNCATEGORIZED = "uncategorized"

DEFAULT_BETA = 0.01
DEFAULT_ITERS = 1000


@dataclass
class TopicModel:
    num_topics: int
    vocab: list[str]
    phi: np.ndarray  # num_topics x len(vocab), rows sum to 1
    alpha: float
    beta: float
    iterations: int
    seed: int

    @property
    def topic_ids(self) -> list[str]:
        width = len(str(self.num_topics - 1))
        return [f"t{i:0{width}d}" for i in range(self.num_topics)]


@dataclass
class TopicKeywords:
    keywords: dict[str, list[str]]  # topic id -> keywords, highest probability first


def _question_tokens(text: str, stopwords) -> list[str]:
    return [tok for tok in tokenize(text) if tok not in stopwords]


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

    rand = rng.random
    cum = [0.0] * K
    for _ in range(iters):
        for idx in range(n_tokens):
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

    counts = np.array(n_wk, dtype=np.float64).T  # K x V
    phi = (counts + beta) / (counts.sum(axis=1, keepdims=True) + beta_v)
    return TopicModel(
        num_topics=K,
        vocab=vocab,
        phi=phi,
        alpha=alpha,
        beta=beta,
        iterations=iters,
        seed=seed,
    )


def topic_keywords(model: TopicModel, w: int = 10) -> TopicKeywords:
    """Top-w vocabulary words per topic; probability ties break lexically."""
    if not 1 <= w <= len(model.vocab):
        raise ValueError(f"w must be in [1, {len(model.vocab)}], got {w}")
    keywords = {}
    for k, topic_id in enumerate(model.topic_ids):
        row = model.phi[k]
        order = sorted(range(len(model.vocab)), key=lambda i: (-row[i], model.vocab[i]))
        keywords[topic_id] = [model.vocab[i] for i in order[:w]]
    return TopicKeywords(keywords=keywords)


def categorize_questions(bank: QuestionBank, keywords: TopicKeywords) -> QuestionBank:
    """Assign every question the topics whose keywords it contains.

    Multi-label: a question joins every topic with at least one keyword
    present as a token. Questions matching nothing get ``uncategorized``.
    """
    keyword_sets = {tid: set(kws) for tid, kws in keywords.keywords.items()}

    def assign(question: Question) -> Question:
        tokens = set(tokenize(question.text))
        topics = {tid for tid, kws in keyword_sets.items() if kws & tokens}
        return question.with_topics(topics or {UNCATEGORIZED})

    return QuestionBank(
        per_doc={
            doc_id: [assign(q) for q in questions]
            for doc_id, questions in bank.per_doc.items()
        },
        master=[assign(q) for q in bank.master],
    )


def question_distribution(bank: QuestionBank) -> dict[str, float]:
    """Percentage of topic memberships per topic over the master list.

    Each (question, topic) membership counts once, so multi-topic questions
    contribute to several topics; percentages sum to 100.
    """
    if not bank.master:
        raise EmptyBank("question bank is empty")
    counts: dict[str, int] = {}
    for question in bank.master:
        for topic_id in question.topics:
            counts[topic_id] = counts.get(topic_id, 0) + 1
    total = sum(counts.values())
    if total == 0:
        raise EmptyBank("question bank has not been categorized")
    return {tid: 100.0 * count / total for tid, count in sorted(counts.items())}


def model_to_dict(model: TopicModel, keywords: TopicKeywords) -> dict:
    return {
        "K": model.num_topics,
        "alpha": model.alpha,
        "beta": model.beta,
        "seed": model.seed,
        "iterations": model.iterations,
        "vocab": list(model.vocab),
        "phi": model.phi.tolist(),
        "keywords": {tid: list(kws) for tid, kws in sorted(keywords.keywords.items())},
    }


def model_from_dict(data: dict) -> tuple[TopicModel, TopicKeywords]:
    model = TopicModel(
        num_topics=data["K"],
        vocab=list(data["vocab"]),
        phi=np.array(data["phi"], dtype=np.float64),
        alpha=data["alpha"],
        beta=data["beta"],
        iterations=data.get("iterations", 0),
        seed=data["seed"],
    )
    return model, TopicKeywords(keywords={k: list(v) for k, v in data["keywords"].items()})
