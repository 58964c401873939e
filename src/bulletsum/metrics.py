"""Summary evaluation: ROUGE-1/2/L F1, number extraction, and Num-Prec.

All metrics are computed from scratch so results depend only on one
tokenization, ``text.tokenize``: lowercase; split on anything that is not an
ASCII letter, ASCII digit, or a decimal point inside a number; no stemming, no
stop-word removal. ROUGE-L is summary-level LCS over the full token sequence,
computed bit-parallel (``_lcs_length``). ``evaluate_corpus`` tokenizes each
prediction and reference once for all three ROUGE scores.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import AlignmentError
from .text import tokenize


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


@dataclass
class DocumentScores:
    doc_id: str
    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore
    num_prec: float


@dataclass
class MetricsReport:
    """Corpus-level scores: unweighted means over per-document values."""

    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore
    num_prec: float
    per_document: list[DocumentScores] = field(default_factory=list)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(cand_tokens: list[str], ref_tokens: list[str], n: int) -> RougeScore:
    """Clipped n-gram overlap F1 (n in {1, 2}) of two token lists."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n supports n in {{1, 2}}, got {n}")
    cand = _ngrams(cand_tokens, n)
    ref = _ngrams(ref_tokens, n)
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    if cand_total == 0 or ref_total == 0:
        return RougeScore(0.0, 0.0, 0.0)
    overlap = sum(min(count, ref[gram]) for gram, count in cand.items())
    precision = overlap / cand_total
    recall = overlap / ref_total
    return RougeScore(precision, recall, _f1(precision, recall))


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Length of a longest common subsequence, by the bit-parallel recurrence.

    Allison and Dix (1986), as Hyyrö (2004) writes it: bit i of ``matches[t]``
    is set where ``a[i]`` is t, and ``v`` starts with the ``len(a)`` low bits
    set. Each token of ``b`` updates ``v`` with one addition, one subtraction
    and three bitwise operations on Python ints, and the LCS length is the
    number of those bits that end up clear. Bits that a carry sets above them
    never reach back down.
    """
    matches: dict[str, int] = {}
    for i, token in enumerate(a):
        matches[token] = matches.get(token, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for token in b:
        u = v & matches.get(token, 0)
        v = (v + u) | (v - u)
    return len(a) - (v & full).bit_count()


def rouge_l(cand: list[str], ref: list[str]) -> RougeScore:
    """Summary-level longest-common-subsequence F1 (beta = 1) of two token lists."""
    if not cand or not ref:
        return RougeScore(0.0, 0.0, 0.0)
    lcs = _lcs_length(cand, ref)
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return RougeScore(precision, recall, _f1(precision, recall))


# Standalone numeric expression: optional $, digits with optional thousands
# commas and one decimal point, optional trailing %. Rejected when embedded in
# an alphanumeric run (q2, covid19, fy2021).
_NUMBER_RE = re.compile(
    r"(?<![A-Za-z0-9.])\$?\d+(?:,\d{3})*(?:\.\d+)?%?(?![A-Za-z0-9])"
)


def _normalize_number(raw: str) -> str:
    return raw.replace("$", "").replace(",", "").rstrip("%")


def normalized_numbers(texts: Sequence[str]) -> set[str]:
    """The standalone numbers in any of ``texts``, with $, commas and % stripped.

    One scan over the texts joined by line breaks: no part of the pattern
    matches a line break, and it is outside the characters the pattern looks
    around at, so a text's ends match as they do alone.
    """
    return {_normalize_number(raw) for raw in _NUMBER_RE.findall("\n".join(texts))}


def num_prec(candidate: str, sentences: Sequence[str]) -> float:
    """Fraction of candidate numbers that appear somewhere in the source ``sentences``.

    A candidate with no numbers scores 1.0 (vacuous precision); verbatim
    extracts of the source always score 1.0.
    """
    cand_numbers = normalized_numbers([candidate])
    if not cand_numbers:
        return 1.0
    return len(cand_numbers & normalized_numbers(sentences)) / len(cand_numbers)


def _mean_rouge(scores: list[RougeScore]) -> RougeScore:
    n = len(scores)
    return RougeScore(
        precision=sum(s.precision for s in scores) / n,
        recall=sum(s.recall for s in scores) / n,
        f1=sum(s.f1 for s in scores) / n,
    )


def evaluate_corpus(
    predictions: dict[str, list[str]],
    references: dict[str, Sequence[str]],
    sources: dict[str, Sequence[str]],
) -> MetricsReport:
    """Score every document and average.

    Each map takes a document id to texts: predicted bullets, reference
    bullets and source sentences. Bullets are joined by line breaks before
    scoring. Key sets of all three maps must be equal and non-empty.
    """
    pred_ids = set(predictions)
    ref_ids = set(references)
    src_ids = set(sources)
    if not pred_ids or pred_ids != ref_ids or pred_ids != src_ids:
        offending = (pred_ids ^ ref_ids) | (pred_ids ^ src_ids)
        raise AlignmentError(
            f"prediction/reference/source ids do not align ({len(offending)} mismatched)",
            offending_ids=offending,
        )

    per_doc = []
    for doc_id in sorted(pred_ids):
        cand_text = "\n".join(predictions[doc_id])
        cand, ref = tokenize(cand_text), tokenize("\n".join(references[doc_id]))
        per_doc.append(
            DocumentScores(
                doc_id=doc_id,
                rouge1=rouge_n(cand, ref, 1),
                rouge2=rouge_n(cand, ref, 2),
                rougeL=rouge_l(cand, ref),
                num_prec=num_prec(cand_text, sources[doc_id]),
            )
        )

    return MetricsReport(
        rouge1=_mean_rouge([d.rouge1 for d in per_doc]),
        rouge2=_mean_rouge([d.rouge2 for d in per_doc]),
        rougeL=_mean_rouge([d.rougeL for d in per_doc]),
        num_prec=sum(d.num_prec for d in per_doc) / len(per_doc),
        per_document=per_doc,
    )


def format_report_table(report: MetricsReport) -> str:
    """Aligned one-row table with the standard benchmark column names."""
    headers = ["Model", "ROUGE-1", "ROUGE-2", "ROUGE-L", "Num-Prec."]
    row = [
        "this-run",
        f"{report.rouge1.f1:.3f}",
        f"{report.rouge2.f1:.3f}",
        f"{report.rougeL.f1:.3f}",
        f"{report.num_prec:.3f}",
    ]
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    body = "  ".join(v.ljust(w) for v, w in zip(row, widths))
    return f"{head}\n{body}"


def write_per_document_csv(report: MetricsReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doc_id", "rouge1_f1", "rouge2_f1", "rougeL_f1", "num_prec"])
        for d in report.per_document:
            writer.writerow(
                [d.doc_id, f"{d.rouge1.f1:.6f}", f"{d.rouge2.f1:.6f}", f"{d.rougeL.f1:.6f}", f"{d.num_prec:.6f}"]
            )
