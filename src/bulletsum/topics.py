"""LDA over the master question list: fit, keywords, categorization.

Each question is one bag-of-words document. The sampler is collapsed Gibbs
with symmetric Dirichlet priors, run single-threaded so a fixed seed gives
bit-identical results. Topic-word probabilities come from the final counts
with beta smoothing.

The sweeps run in a small C kernel (``lda_sweep.c``) that draws exactly the
chain of the Python loop kept here as the reference: the same float
expression in the same order, and uniforms that continue ``random``'s
MT19937 stream, so ``phi`` is byte-identical either way. The first
``fit_lda`` call in a process compiles it with ``cc`` into
``${XDG_CACHE_HOME:-~/.cache}/bulletsum/lda_sweep-<sha256>.so``, keyed by
source and flags, and loads it. If that fails, one WARNING
("LDA sweep kernel unavailable, running the Python sampler: <reason>") is
logged and the Python loop runs, with the same result, more slowly.
Deleting the cache directory is always safe: the next run rebuilds it.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import random
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateVocabulary, EmptyBank, TooFewDocuments
from .qbank import Question
from .records import reader
from .text import QUESTION_STOPWORDS, tokenize

UNCATEGORIZED = "uncategorized"

DEFAULT_BETA = 0.01
DEFAULT_ITERS = 1000

_KERNEL_SOURCE = Path(__file__).with_name("lda_sweep.c")
# -ffp-contract=off: a fused multiply-add would round differently from Python.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

logger = logging.getLogger(__name__)


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


@functools.cache
def _compiled_sweeps():
    """The ``lda_sweeps`` function of the compiled kernel, or None.

    Built on first use and kept in the cache directory under the digest of
    its source and flags, then loaded once per process. Any failure (no
    compiler, a compile error, an unwritable cache, a library that does not
    load) logs one WARNING naming it, and ``fit_lda`` runs the Python loop.
    """
    try:
        library = ctypes.CDLL(str(_build_kernel()))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        logger.warning("LDA sweep kernel unavailable, running the Python sampler: %s", exc)
        return None
    ints = np.ctypeslib.ndpointer(np.intc, flags="C_CONTIGUOUS")
    sweeps = library.lda_sweeps
    sweeps.argtypes = [
        ctypes.c_int, ints, ints, ints, ints, ints, ints, ctypes.c_int,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"), ctypes.c_int,
        np.ctypeslib.ndpointer(np.uint32, shape=(625,), flags="C_CONTIGUOUS"),
    ]
    sweeps.restype = None
    return sweeps


def _build_kernel() -> Path:
    """Path of the compiled kernel, compiling it if the cache lacks it.

    The compiler writes a temp file in the cache directory that
    ``os.replace`` then renames into place, so a concurrent process never
    loads a half-written library.
    """
    digest = hashlib.sha256(_KERNEL_SOURCE.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "bulletsum"
    library = cache / f"lda_sweep-{digest}.so"
    if library.is_file():
        return library
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".lda_sweep-", suffix=".so", dir=cache)
    os.close(fd)
    try:
        done = subprocess.run(
            ["cc", *_CFLAGS, "-o", tmp, str(_KERNEL_SOURCE)],
            capture_output=True, text=True, errors="replace", timeout=120, check=False,
        )
        if done.returncode != 0:
            raise OSError(f"cc exited with {done.returncode}: {done.stderr.strip()}")
        os.replace(tmp, library)
    finally:
        Path(tmp).unlink(missing_ok=True)
    return library


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
    sweeps = _compiled_sweeps()
    if sweeps is None:
        logger.info("LDA sampler: Python loop, %d sweeps", iters)
        n_wk = _python_sweeps(*chain)
    else:
        logger.info("LDA sampler: compiled kernel, %d sweeps", iters)
        n_wk = _kernel_sweeps(sweeps, *chain)

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


def categorize_questions(questions: list[Question], keywords: TopicKeywords) -> list[Question]:
    """Assign every question the topics whose keywords it contains.

    Multi-label: a question joins every topic with at least one keyword
    present as a token. Questions matching nothing get ``uncategorized``.
    """
    keyword_sets = {tid: set(kws) for tid, kws in keywords.keywords.items()}

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
    """Read ``model_to_dict``'s output back; raises ``TypeError`` for a value of the wrong type."""
    model = TopicModel(
        num_topics=reader(int)(data["K"]),
        vocab=reader(list[str])(data["vocab"]),
        phi=np.array(reader(list[list[float]])(data["phi"]), dtype=np.float64),
        alpha=reader(float)(data["alpha"]),
        beta=reader(float)(data["beta"]),
        iterations=reader(int)(data["iterations"]),
        seed=reader(int)(data["seed"]),
    )
    return model, TopicKeywords(keywords=reader(dict[str, list[str]])(data["keywords"]))
