"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import hashlib
import json
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from bulletsum import synthetic_data_dirs
from bulletsum.cli import main as cli_main
from bulletsum.config import PipelineConfig
from bulletsum.corpus import Corpus, corpus_stats, load_corpus
from bulletsum.generator import FineTuneSpec, PromptTemplate, export_finetune_dataset
from bulletsum.metrics import num_prec, rouge_l, rouge_n
from bulletsum.qbank import build_question_bank
from bulletsum.retrieval import TfidfEmbedder
from bulletsum.text import normalize_text
from bulletsum.topics import fit_lda, topic_keywords

from conftest import *  # noqa: F401,F403  (fixtures)
from test_metrics import brute_force_lcs
from test_retrieval import _context


def _announce(name):
    print(f"\nACCEPTANCE {name}: PASS")


def _tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_rouge_oracle_suite():
    started = time.monotonic()

    # hand-derived frozen values
    unigram = rouge_n(
        "q2 earnings per share 0.97", "q2 non gaap earnings per share 0.97", 1
    )
    assert abs(unigram.f1 - 10 / 12) <= 1e-9  # the 0.833... unigram case
    bigram = rouge_n("a b d", "a b c", 2)
    assert abs(bigram.f1 - 0.5) <= 1e-9
    lcs = rouge_l("the cat sat", "the cat on mat sat")
    assert abs(lcs.f1 - 0.75) <= 1e-9

    # exhaustive-subsequence oracle, 200 random pairs of length <= 8, exact
    rng = random.Random(424242)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        cand = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        oracle_lcs = brute_force_lcs(cand, ref)
        score = rouge_l(" ".join(cand), " ".join(ref))
        p = oracle_lcs / len(cand)
        r = oracle_lcs / len(ref)
        expected_f1 = 2 * p * r / (p + r) if p + r else 0.0
        assert (score.precision, score.recall, score.f1) == (p, r, expected_f1)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"ROUGE oracle suite took {elapsed:.2f}s"
    _announce("rouge-oracle-suite")


def test_criterion_num_prec_oracle_suite(make_transcript):
    source = make_transcript(
        "src",
        [
            "quarterly revenue came in at $4.2 billion, up 7%.",
            "non-gaap earnings per share were $0.97.",
            "we repurchased 1,500,000 shares during the quarter.",
        ],
    )
    verbatim = (
        "quarterly revenue came in at $4.2 billion, up 7%. "
        "non-gaap earnings per share were $0.97."
    )
    assert num_prec(verbatim, source) == 1.0

    half_source = make_transcript("src2", ["eps was $0.97 this quarter."])
    assert num_prec("eps $0.97 and revenue $6.15 billion", half_source) == 0.5

    assert num_prec("no numbers in this summary", source) == 1.0
    _announce("num-prec-oracle-suite")


def test_criterion_retrieval_property(make_transcript, make_question):
    rng = random.Random(20240515)
    target_pool = [f"alpha{i}" for i in range(40)]
    distractor_pool = [f"omega{i}" for i in range(60)]

    rank_one = 0
    for case in range(100):
        content_words = rng.sample(target_pool, rng.randint(2, 4))
        question = make_question(f"what is {' '.join(content_words)}?")
        target = " ".join(content_words + rng.sample(target_pool, 1))
        n_distractors = rng.randint(3, 9)
        sentences = [
            " ".join(rng.sample(distractor_pool, 4)) for _ in range(n_distractors)
        ]
        target_position = rng.randrange(len(sentences) + 1)
        sentences.insert(target_position, target)
        doc = make_transcript(f"doc{case}", sentences)
        embedder = TfidfEmbedder(sentences)

        k = rng.randint(1, 4)
        ranked = _context(doc, [question], k, embedder).selections
        if ranked[0].position == target_position:
            rank_one += 1

        questions = [question]
        if case % 2 == 0:
            questions.append(
                make_question(f"what is {' '.join(rng.sample(distractor_pool, 2))}?", index=1)
            )
        context = _context(doc, questions, k, embedder)
        assert len(context.context_sentences) <= k * len(questions)

    assert rank_one == 100, f"dominant sentence ranked first in {rank_one}/100 cases"
    _announce("retrieval-property")


def test_criterion_lda_determinism_and_separation():
    started = time.monotonic()
    questions = ["what is revenue growth?"] * 20 + ["what is net profit?"] * 20

    # fixed seed reproduces bit-identical phi across 3 runs
    runs = [fit_lda(questions, K=2, iters=500, seed=1729) for _ in range(3)]
    assert np.array_equal(runs[0].phi, runs[1].phi)
    assert np.array_equal(runs[0].phi, runs[2].phi)

    # keyword-set separation across 100 seeds; alpha=1.0 keeps the 2-token
    # documents from being swamped by the doc-topic prior
    revenue_group = {"revenue", "growth"}
    profit_group = {"net", "profit"}
    separated = 0
    for seed in range(100):
        model = fit_lda(questions, K=2, alpha=1.0, iters=500, seed=seed)
        kws = topic_keywords(model, w=2)
        first, second = (set(kws[tid]) for tid in sorted(kws))
        if (first == revenue_group and second == profit_group) or (
            first == profit_group and second == revenue_group
        ):
            separated += 1
    assert separated >= 95, f"keyword sets separated in {separated}/100 seeds"

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"LDA suite took {elapsed:.2f}s"
    _announce("lda-determinism-and-separation")


def test_criterion_pipeline_constants(tmp_path, make_summary):
    config = PipelineConfig()
    assert config.k == 3
    assert config.num_topics == 30
    assert config.max_input_tokens == 128
    assert config.max_new_tokens == 60

    # the defaults appear verbatim in a stage's emitted config
    transcripts, summaries = synthetic_data_dirs()
    workspace = tmp_path / "ws"
    code = cli_main(
        ["ingest", "--workspace", str(workspace), "--transcripts", str(transcripts),
         "--summaries", str(summaries)]
    )
    assert code == 0
    emitted = json.loads((workspace / "ingest" / "config.json").read_text())["config"]
    assert emitted["k"] == 3
    assert emitted["num_topics"] == 30
    assert emitted["max_input_tokens"] == 128
    assert emitted["max_new_tokens"] == 60

    # fine-tune sidecar carries the training constants
    from bulletsum.retrieval import ExtractiveContext, Sentence

    context = ExtractiveContext(
        doc_id="a",
        selections=[],
        context_sentences=[Sentence(0, "revenue rose 5%.")],
    )
    export_finetune_dataset(
        [(context, make_summary("a", ["revenue rose 5%."]))],
        PromptTemplate(),
        FineTuneSpec(),
        tmp_path / "ft.jsonl",
    )
    sidecar = json.loads((tmp_path / "finetune_spec.json").read_text())
    assert sidecar["lora_rank"] == 2
    assert sidecar["learning_rate"] == 5e-4
    assert sidecar["epochs"] == 10
    _announce("pipeline-constants")


def test_criterion_end_to_end_smoke(tmp_path):
    transcripts, summaries = synthetic_data_dirs()
    digests = []
    for run_index in range(2):
        workspace = tmp_path / f"ws{run_index}"
        started = time.monotonic()
        code = cli_main(
            ["run", "--workspace", str(workspace), "--transcripts", str(transcripts),
             "--summaries", str(summaries)]
        )
        elapsed = time.monotonic() - started
        assert code == 0
        assert elapsed < 10.0, f"run {run_index} took {elapsed:.2f}s"

        report = json.loads((workspace / "eval" / "report.json").read_text())
        for key in ("rouge1", "rouge2", "rougeL"):
            for stat in ("precision", "recall", "f1"):
                assert 0.0 <= report[key][stat] <= 1.0
        assert 0.0 <= report["num_prec"] <= 1.0
        digests.append(_tree_digest(workspace))

    assert digests[0] == digests[1], "reruns with identical seeds must be byte-identical"
    _announce("end-to-end-smoke")


def _find_ectsum_pairs(root: Path):
    candidates = [(root / "transcripts", root / "summaries")]
    for prefix in (root, root / "final", root / "data" / "final"):
        for split in ("train", "val", "test"):
            candidates.append((prefix / split / "ects", prefix / split / "gts"))
    return [(t, s) for t, s in candidates if t.is_dir() and s.is_dir()]


@pytest.mark.skipif(
    not os.environ.get("ECTSUM_DATA"),
    reason="ECTSUM_DATA not set; real-corpus stats check skipped, not failed",
)
def test_criterion_corpus_stats_on_real_data():
    root = Path(os.environ["ECTSUM_DATA"])
    pairs = _find_ectsum_pairs(root)
    if not pairs:
        pytest.skip(f"no recognizable transcript/summary layout under {root}")
    transcripts = {}
    summaries = {}
    for tdir, sdir in pairs:
        part = load_corpus(tdir, sdir)
        transcripts.update(part.transcripts)
        summaries.update(part.summaries)
    corpus = Corpus(transcripts=transcripts, summaries=summaries)
    stats = corpus_stats(corpus)
    assert abs(stats["compression_ratio"] - 103.67) / 103.67 <= 0.05
    assert abs(stats["mean_doc_words"] - 2900) / 2900 <= 0.10
    _announce("corpus-stats-real-data")


def test_criterion_question_bank_dedup(make_summary):
    rng = random.Random(31337)
    metrics = ["revenue", "net profit", "eps", "same store sales", "margin",
               "cash flow", "ebitda", "billings", "backlog", "dividend"]
    quarters = ["q1", "q2", "q3", "q4", "fy"]
    tails = ["$1.25 billion.", "16% - 19%.", "64 million usd.", "5.8 percent.", "$0.97."]
    variants = [str.upper, str.title, lambda s: s + "  ", lambda s: s.replace(" ", "  "), lambda s: s]

    summaries = []
    total_bullets = 0
    for doc_index in range(100):
        bullets = []
        for _ in range(10):
            base = f"{rng.choice(quarters)} {rng.choice(metrics)} {rng.choice(tails)}"
            bullets.append(rng.choice(variants)(base))
            total_bullets += 1
        summaries.append(make_summary(f"doc{doc_index:03d}", bullets))
    assert total_bullets == 1000

    bank = build_question_bank(summaries)
    again = build_question_bank(summaries)
    assert bank == again, "build_question_bank must be idempotent"

    normalized = [normalize_text(q.text) for q in bank.master]
    assert len(normalized) == len(set(normalized)), "master list has normalized duplicates"
    for question in bank.master:
        assert question.text.endswith("?")
        assert "\n" not in question.text
    _announce("question-bank-dedup")
