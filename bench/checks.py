"""Output checks written from the definitions in the program's docstrings.

Nothing here calls the functions under test: ROUGE, TF-IDF, cosine ranking,
normalisation and the split arithmetic are computed again from their
definitions, and the LDA model is checked against properties every fit must
have. ``check_workspace`` returns a list of faults; an empty list passes.
"""

from __future__ import annotations

import json
import math
import re
import string
from collections import Counter
from pathlib import Path

import numpy as np

from stub import embed_text

SCORE_TOL = 1e-9
ROUGE_TOL = 1e-12
UNCATEGORIZED = "uncategorized"

# Lowercase runs of letters and digits; a "." survives only between digits of
# a number ("0.97" is one token, "u.s." is two).
_TOKEN_RE = re.compile(r"[0-9]+(?:\.[0-9]+)+|[a-z0-9]+")
_PUNCT = str.maketrans("", "", string.punctuation)


def tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def normalise(text: str) -> str:
    """Lowercase, punctuation removed, whitespace collapsed."""
    return " ".join(text.lower().translate(_PUNCT).split())


def _f1(overlap: int, cand_total: int, ref_total: int) -> float:
    # 2PR/(P+R) with P = o/c and R = o/r reduces to 2o/(c+r).
    if overlap == 0:
        return 0.0
    return 2.0 * overlap / (cand_total + ref_total)


def rouge_n_f1(candidate: str, reference: str, n: int) -> float:
    """F1 of clipped n-gram overlap."""
    def grams(text):
        toks = tokens(text)
        return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))

    cand, ref = grams(candidate), grams(reference)
    overlap = sum((cand & ref).values())
    return _f1(overlap, sum(cand.values()), sum(ref.values()))


def lcs_length(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, start=1):
        for j, y in enumerate(b, start=1):
            table[i][j] = table[i - 1][j - 1] + 1 if x == y else max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def rouge_l_f1(candidate: str, reference: str) -> float:
    """F1 of the longest common subsequence over the whole token sequence."""
    cand, ref = tokens(candidate), tokens(reference)
    return _f1(lcs_length(cand, ref), len(cand), len(ref))


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.sqrt((matrix * matrix).sum(axis=1, keepdims=True))
    return np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0)


def tfidf_cosines(sentences: list[str], queries: list[str]) -> np.ndarray:
    """Cosine of each query to each sentence under per-document TF-IDF.

    Fit on the sentences: IDF = ln((1 + N) / (1 + df)) + 1, TF = raw count.
    Terms outside the sentences' vocabulary are ignored.
    """
    sentence_tokens = [tokens(s) for s in sentences]
    vocab: dict[str, int] = {}
    df: Counter = Counter()
    for toks in sentence_tokens:
        for tok in toks:
            vocab.setdefault(tok, len(vocab))
        df.update(set(toks))
    idf = np.array([math.log((1 + len(sentences)) / (1 + df[t])) + 1 for t in vocab])

    def weights(token_lists):
        matrix = np.zeros((len(token_lists), len(vocab)))
        for row, toks in enumerate(token_lists):
            for tok in toks:
                if tok in vocab:
                    matrix[row, vocab[tok]] += 1
        return _unit_rows(matrix * idf)

    return weights([tokens(q) for q in queries]) @ weights(sentence_tokens).T


def stub_cosines(sentences: list[str], queries: list[str]) -> np.ndarray:
    """Cosine of each query to each sentence under the stub's count vectors."""
    def weights(texts):
        return _unit_rows(np.array([embed_text(t) for t in texts], dtype=np.float64))

    return weights(queries) @ weights(sentences).T


def check_context(record: dict, questions: list[str], sentences: list[str], k: int, cosines) -> list[str]:
    """Per-question top-k selections and the context they make."""
    doc = record["doc_id"]
    faults = []
    scores = cosines(sentences, questions)
    per_question = min(k, len(sentences))
    selections = record["selections"]
    if len(selections) != per_question * len(questions):
        return [f"{doc}: {len(selections)} selections for {len(questions)} questions"]
    for q, question in enumerate(questions):
        chosen = selections[q * per_question : (q + 1) * per_question]
        positions = [s["position"] for s in chosen]
        if any(s["question"] != question for s in chosen):
            faults.append(f"{doc}: selections out of question order at {question!r}")
            continue
        if [s["rank"] for s in chosen] != list(range(1, per_question + 1)) or len(set(positions)) != per_question:
            faults.append(f"{doc}: ranks or positions malformed for {question!r}")
            continue
        row = scores[q]
        for s in chosen:
            if abs(s["score"] - row[s["position"]]) > SCORE_TOL:
                faults.append(
                    f"{doc}: {question!r} scores sentence {s['position']} "
                    f"{s['score']!r}, expected {row[s['position']]!r}"
                )
        kth = row[positions[-1]]
        others = np.delete(row, positions)
        if others.size and others.max() > kth + SCORE_TOL:
            faults.append(f"{doc}: an unselected sentence outscores the k-th pick for {question!r}")
    union = sorted({s["position"] for s in selections})
    expected = [{"position": p, "text": sentences[p]} for p in union]
    if record["context_sentences"] != expected:
        faults.append(f"{doc}: context sentences are not the union of selections")
    if record["context_text"] != " ".join(sentences[p] for p in union):
        faults.append(f"{doc}: context text does not join the context sentences")
    return faults


def check_topic_model(model: dict, keywords_per_topic: int) -> list[str]:
    """Rows of phi are distributions; keywords are each row's top-w words."""
    faults = []
    vocab = model["vocab"]
    phi = model["phi"]
    if vocab != sorted(set(vocab)):
        faults.append("topic model vocabulary is not sorted and distinct")
    if len(phi) != model["K"] or any(len(row) != len(vocab) for row in phi):
        faults.append("phi is not K x |vocab|")
        return faults
    width = len(str(model["K"] - 1))
    for k, row in enumerate(phi):
        if abs(math.fsum(row) - 1.0) > SCORE_TOL or min(row) <= 0:
            faults.append(f"phi row {k} is not a positive distribution")
        top = sorted(range(len(vocab)), key=lambda i: (-row[i], vocab[i]))[:keywords_per_topic]
        if model["keywords"].get(f"t{k:0{width}d}") != [vocab[i] for i in top]:
            faults.append(f"topic {k} keywords are not the top {keywords_per_topic} words of its row")
    return faults


def check_split(split: dict, ids: list[str]) -> list[str]:
    n = len(ids)
    sizes = [len(split["train"]), len(split["val"]), len(split["test"])]
    want = [7 * n // 10, n // 10, n - 7 * n // 10 - n // 10]
    faults = []
    if sizes != want:
        faults.append(f"split sizes {sizes}, expected {want} for n={n}")
    parts = split["train"] + split["val"] + split["test"]
    if len(set(parts)) != len(parts) or sorted(parts) != sorted(ids):
        faults.append("split parts overlap or do not cover the corpus")
    return faults


def check_routing(detection: dict, questions: list[str], doc_sentences: list[str], master: dict, keywords: dict) -> list[str]:
    """Detected topics, and the questions chosen for them."""
    doc = detection["doc_id"]
    faults = []
    doc_tokens = {tok for s in doc_sentences for tok in tokens(s)}
    expected = sorted(t for t, kws in keywords.items() if t != UNCATEGORIZED and doc_tokens & set(kws))
    detected = [d["topic_id"] for d in detection["detected"]]
    if detected != expected:
        faults.append(f"{doc}: detected topics {detected}, expected {expected}")
    seen = set()
    for text in questions:
        if text not in master:
            faults.append(f"{doc}: selected question {text!r} is not in the master list")
        elif not set(master[text]) & set(detected):
            faults.append(f"{doc}: selected question {text!r} carries no detected topic")
        key = normalise(text)
        if key in seen:
            faults.append(f"{doc}: selected question {text!r} repeats a normalised text")
        seen.add(key)
    return faults


def check_report(report: dict, predictions: dict, references: dict) -> list[str]:
    """ROUGE recomputed from the predictions, and Num-Prec of 1."""
    faults = []
    per_doc = {d["doc_id"]: d for d in report["per_document"]}
    if sorted(per_doc) != sorted(predictions) or sorted(predictions) != sorted(references):
        return ["report, predictions and test split cover different documents"]
    sums = {"rouge1": [], "rouge2": [], "rougeL": []}
    for doc in sorted(predictions):
        cand = "\n".join(predictions[doc])
        ref = "\n".join(references[doc])
        mine = {
            "rouge1": rouge_n_f1(cand, ref, 1),
            "rouge2": rouge_n_f1(cand, ref, 2),
            "rougeL": rouge_l_f1(cand, ref),
        }
        for name, value in mine.items():
            sums[name].append(value)
            if abs(per_doc[doc][name]["f1"] - value) > ROUGE_TOL:
                faults.append(f"{doc}: {name} F1 {per_doc[doc][name]['f1']!r}, recomputed {value!r}")
        if per_doc[doc]["num_prec"] != 1.0:
            faults.append(f"{doc}: Num-Prec {per_doc[doc]['num_prec']!r}, expected 1.0")
    for name, values in sums.items():
        if abs(report[name]["f1"] - math.fsum(values) / len(values)) > ROUGE_TOL:
            faults.append(f"corpus {name} F1 does not match the mean of the recomputed scores")
    if report["num_prec"] != 1.0:
        faults.append(f"corpus Num-Prec {report['num_prec']!r}, expected 1.0")
    return faults


def check_bullets_copy_context(predictions: dict, contexts: dict) -> list[str]:
    """Every predicted bullet starts a context sentence, token for token."""
    faults = []
    for doc, bullets in predictions.items():
        lines = [c["text"].split() for c in contexts[doc]["context_sentences"]]
        for bullet in bullets:
            words = bullet.split()
            if not any(line[: len(words)] == words for line in lines):
                faults.append(f"{doc}: bullet {bullet!r} is not a prefix of a context sentence")
    return faults


def _read_lines(path: Path) -> list[str]:
    return [line.strip() for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_workspace(ws: Path, corpus: Path, shape: dict, remote: bool) -> list[str]:
    """Every check on one finished run of the pipeline."""
    ids = sorted(p.stem for p in (corpus / "transcripts").glob("*.txt"))
    sentences = {i: _read_lines(corpus / "transcripts" / f"{i}.txt") for i in ids}
    references = {i: _read_lines(corpus / "summaries" / f"{i}.txt") for i in ids}
    cosines = stub_cosines if remote else tfidf_cosines
    config = json.loads((ws / "extract" / "config.json").read_text("utf-8"))["config"]
    k = config["k"]

    split = json.loads((ws / "ingest" / "split.json").read_text("utf-8"))
    faults = check_split(split, ids)

    stats = json.loads((ws / "ingest" / "stats.json").read_text("utf-8"))
    for key in ("mean_doc_words", "compression_ratio"):
        if abs(stats[key] - shape[key]) > SCORE_TOL * shape[key]:
            faults.append(f"ingest {key} {stats[key]!r}, generated corpus has {shape[key]!r}")

    bank = json.loads((ws / "qgen" / "question_bank.json").read_text("utf-8"))
    for record in read_jsonl(ws / "extract" / "contexts.jsonl"):
        questions = [q["text"] for q in bank["per_doc"][record["doc_id"]]]
        faults += check_context(record, questions, sentences[record["doc_id"]], k, cosines)

    model = json.loads((ws / "topics" / "topic_model.json").read_text("utf-8"))
    faults += check_topic_model(model, config["keywords_per_topic"])

    categorized = json.loads((ws / "topics" / "question_bank.json").read_text("utf-8"))
    master = {q["text"]: q["topics"] for q in categorized["master"]}
    chosen = {r["doc_id"]: r["questions"] for r in read_jsonl(ws / "route" / "questions.jsonl")}
    for detection in read_jsonl(ws / "route" / "detections.jsonl"):
        doc = detection["doc_id"]
        faults += check_routing(detection, chosen[doc], sentences[doc], master, model["keywords"])
    contexts = {}
    for record in read_jsonl(ws / "route" / "contexts.jsonl"):
        contexts[record["doc_id"]] = record
        faults += check_context(record, chosen[record["doc_id"]], sentences[record["doc_id"]], k, cosines)

    predictions = json.loads((ws / "generate" / "predictions.json").read_text("utf-8"))
    if sorted(predictions) != sorted(split["test"]) or sorted(contexts) != sorted(split["test"]):
        faults.append("route or generate does not cover exactly the test split")
        return faults
    report = json.loads((ws / "eval" / "report.json").read_text("utf-8"))
    faults += check_report(report, predictions, {d: references[d] for d in split["test"]})
    faults += check_bullets_copy_context(predictions, contexts)
    return faults
