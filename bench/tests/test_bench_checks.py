"""The benchmark's independent checkers on hand-worked cases."""

import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import stub  # noqa: E402


def test_tokens_and_normalise():
    assert checks.tokens("U.S. revenue 0.97, $1,240") == ["u", "s", "revenue", "0.97", "1", "240"]
    assert checks.normalise("What is  Q3 non-GAAP EPS?") == "what is q3 nongaap eps"


def test_rouge_hand_worked():
    # The same cases tests/test_acceptance.py derives by hand.
    unigram = checks.rouge_n_f1("q2 earnings per share 0.97", "q2 non gaap earnings per share 0.97", 1)
    assert unigram == pytest.approx(10 / 12, abs=1e-15)
    assert checks.rouge_n_f1("a b d", "a b c", 2) == pytest.approx(0.5, abs=1e-15)
    assert checks.rouge_l_f1("the cat sat", "the cat on mat sat") == pytest.approx(0.75, abs=1e-15)
    # Clipping: three "the" overlap once with one "the".
    assert checks.rouge_n_f1("the the the", "the cat", 1) == pytest.approx(2 * 1 / 5)
    assert checks.rouge_n_f1("", "a b", 1) == 0.0
    assert checks.rouge_l_f1("a", "") == 0.0
    assert checks.lcs_length(list("abcbdab"), list("bdcaba")) == 4


def test_tfidf_cosines_hand_worked():
    scores = checks.tfidf_cosines(["a b", "a c", "d"], ["b", "zzz"])
    idf_b = math.log(4 / 2) + 1
    idf_a = math.log(4 / 3) + 1
    assert scores[0, 0] == pytest.approx(idf_b / math.hypot(idf_a, idf_b), abs=1e-15)
    assert scores[0, 1] == 0.0 and scores[0, 2] == 0.0
    assert not scores[1].any()


def test_stub_cosines_are_count_vector_cosines():
    scores = checks.stub_cosines(["revenue rose", "margin"], ["revenue rose"])
    assert scores[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert stub.embed_text("Revenue revenue")[stub.embed_text("revenue").index(1)] == 2


def _record(question, picks, sentences):
    return {
        "doc_id": "d",
        "selections": [
            {"question": question, "position": p, "score": s, "rank": r}
            for r, (p, s) in enumerate(picks, start=1)
        ],
        "context_sentences": [{"position": p, "text": sentences[p]} for p in sorted(p for p, _ in picks)],
        "context_text": " ".join(sentences[p] for p in sorted(p for p, _ in picks)),
    }


def test_check_context_accepts_top_k_and_ties_rejects_a_lower_pick():
    sentences = ["revenue rose", "margin fell", "revenue", "cash"]
    scores = checks.tfidf_cosines(sentences, ["revenue"])[0]
    best = sorted(range(4), key=lambda i: (-scores[i], i))[:2]
    good = _record("revenue", [(p, scores[p]) for p in best], sentences)
    assert checks.check_context(good, ["revenue"], sentences, 2, checks.tfidf_cosines) == []

    bad = _record("revenue", [(best[0], scores[best[0]]), (3, scores[3])], sentences)
    faults = checks.check_context(bad, ["revenue"], sentences, 2, checks.tfidf_cosines)
    assert any("outscores" in f for f in faults)

    wrong_score = _record("revenue", [(p, scores[p] + 1e-6) for p in best], sentences)
    assert checks.check_context(wrong_score, ["revenue"], sentences, 2, checks.tfidf_cosines)

    # Two identical sentences tie; either order passes.
    twins = ["cash flow", "cash flow", "margin"]
    tied = checks.tfidf_cosines(twins, ["cash"])[0]
    swapped = _record("cash", [(1, tied[1]), (0, tied[0])], twins)
    assert checks.check_context(swapped, ["cash"], twins, 2, checks.tfidf_cosines) == []


def test_check_topic_model():
    model = {
        "K": 2,
        "vocab": ["a", "b", "c"],
        "phi": [[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]],
        "keywords": {"t0": ["a", "b"], "t1": ["c", "b"]},
    }
    # Row 0 ties b and c: the lexically first wins.
    assert checks.check_topic_model(model, 2) == []
    model["keywords"]["t0"] = ["a", "c"]
    assert checks.check_topic_model(model, 2)
    model["keywords"]["t0"] = ["a", "b"]
    model["phi"][1] = [0.2, 0.3, 0.6]
    assert checks.check_topic_model(model, 2)


def test_check_split_uses_exact_floors():
    ids = [f"d{i:02d}" for i in range(90)]
    split = {"train": ids[:63], "val": ids[63:72], "test": ids[72:]}
    assert checks.check_split(split, ids) == []
    # 0.7 * 90 is 62.99999999999999 in floating point; the floor of 0.7n is 63.
    short = {"train": ids[:62], "val": ids[62:71], "test": ids[71:]}
    assert checks.check_split(short, ids)
    overlapping = {"train": ids[:63], "val": ids[62:71], "test": ids[72:]}
    assert checks.check_split(overlapping, ids)


def test_check_report_recomputes_rouge():
    predictions = {"d": ["q3 revenue rose"]}
    references = {"d": ["q3 revenue rose 14%"]}
    r1 = 2 * 3 / (3 + 4)
    r2 = 2 * 2 / (2 + 3)
    doc = {
        "doc_id": "d",
        "rouge1": {"f1": r1},
        "rouge2": {"f1": r2},
        "rougeL": {"f1": r1},
        "num_prec": 1.0,
    }
    report = {"rouge1": {"f1": r1}, "rouge2": {"f1": r2}, "rougeL": {"f1": r1}, "num_prec": 1.0, "per_document": [doc]}
    assert checks.check_report(report, predictions, references) == []
    doc["rouge2"]["f1"] = r2 + 1e-9
    assert checks.check_report(report, predictions, references)


def test_check_bullets_copy_context():
    contexts = {"d": {"context_sentences": [{"position": 0, "text": "q3 revenue rose 14% to $890 million."}]}}
    assert checks.check_bullets_copy_context({"d": ["q3 revenue rose 14%"]}, contexts) == []
    assert checks.check_bullets_copy_context({"d": ["revenue rose 14%"]}, contexts)


def test_stub_generate_mirrors_mock_client():
    from bulletsum.generator import MockGenClient

    prompt = "summarize.\n\n" + " ".join(f"sentence {i} has words one two three four five six seven eight nine." for i in range(6))
    assert stub.generate_text(prompt) == MockGenClient().generate(prompt, 60)
