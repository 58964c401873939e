"""Ingestion of transcript/summary pairs, sentence segmentation, splits, and stats.

A corpus is the ``ingest/corpus.json`` record: each transcript as the tuple of
its sentence texts and each summary as the tuple of its bullets, by document
id. A sentence's position is its index in that tuple.
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import DivisionDegenerate, EmptyCorpus, EmptyDocument, IoError
from .text import read_text_file, word_count

logger = logging.getLogger(__name__)

# Trailing tokens that end with sentence punctuation but do not end a sentence.
ABBREVIATIONS = frozenset(
    {"inc.", "corp.", "q1.", "q2.", "q3.", "q4.", "u.s.", "vs.", "no."}
)

# A sentence boundary is ./?/! followed by whitespace and an uppercase letter
# or digit. ECTSum-style text never reaches this path (it ships one sentence
# per line), so the rule targets free-form prose.
_BOUNDARY_RE = re.compile(r"[.?!](?=\s+[A-Z0-9])")


@dataclass(frozen=True)
class CorpusSplit:
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]
    seed: int


@dataclass(frozen=True)
class Corpus:
    transcripts: dict[str, tuple[str, ...]]
    summaries: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for name, texts_by_id in vars(self).items():
            empty = sorted(doc_id for doc_id, texts in texts_by_id.items() if not texts)
            if empty:
                raise ValueError(f"{name} {empty} are empty")


def segment_sentences(raw_text: str) -> list[str]:
    """Split a document into sentences.

    Text containing line breaks (after stripping outer whitespace) is treated
    as pre-segmented: each non-blank line is one sentence. Single-line text is
    split on sentence punctuation followed by whitespace and an uppercase
    letter or digit, with an abbreviation stop-list.
    """
    stripped = raw_text.strip()
    if not stripped:
        raise EmptyDocument("document is empty or whitespace-only")

    if "\n" in stripped:
        return [line.strip() for line in stripped.splitlines() if line.strip()]

    pieces = []
    start = 0
    for match in _BOUNDARY_RE.finditer(stripped):
        end = match.end()
        last_token = stripped[:end].rsplit(None, 1)[-1].lower().lstrip("(\"'")
        if last_token in ABBREVIATIONS:
            continue
        pieces.append(stripped[start:end].strip())
        start = end
    tail = stripped[start:].strip()
    if tail:
        pieces.append(tail)
    return pieces


def summary_bullets(raw_text: str) -> tuple[str, ...]:
    """A summary's bullets: its non-blank lines, stripped."""
    bullets = tuple(line.strip() for line in raw_text.splitlines() if line.strip())
    if not bullets:
        raise EmptyDocument("summary has no bullets")
    return bullets


def _txt_stems(directory: Path) -> dict[str, Path]:
    return {path.stem: path for path in sorted(directory.glob("*.txt"))}


def load_corpus(transcripts_dir, summaries_dir) -> Corpus:
    """Load all transcript/summary pairs, matching files by stem.

    Unpaired files on either side are logged as warnings and skipped.
    """
    transcripts_dir = Path(transcripts_dir)
    summaries_dir = Path(summaries_dir)
    for directory in (transcripts_dir, summaries_dir):
        if not directory.is_dir():
            raise IoError(f"not a directory: {directory}")

    transcript_files = _txt_stems(transcripts_dir)
    summary_files = _txt_stems(summaries_dir)
    paired = sorted(transcript_files.keys() & summary_files.keys())

    for stem in sorted(transcript_files.keys() - summary_files.keys()):
        logger.warning("transcript %s.txt has no matching summary; skipped", stem)
    for stem in sorted(summary_files.keys() - transcript_files.keys()):
        logger.warning("summary %s.txt has no matching transcript; skipped", stem)

    if not paired:
        raise EmptyCorpus(
            f"no paired .txt files between {transcripts_dir} and {summaries_dir}"
        )

    transcripts = {}
    summaries = {}
    for stem in paired:
        for parse, files, parsed in (
            (segment_sentences, transcript_files, transcripts),
            (summary_bullets, summary_files, summaries),
        ):
            try:
                parsed[stem] = tuple(parse(read_text_file(files[stem], "input file")))
            except EmptyDocument as exc:
                raise EmptyDocument(f"{files[stem]}: {exc}") from exc
    return Corpus(transcripts=transcripts, summaries=summaries)


def split_corpus(corpus: Corpus, seed: int) -> CorpusSplit:
    """Deterministic 7:1:2 split: floor(0.7n) / floor(0.1n) / remainder."""
    if not corpus.transcripts:
        raise EmptyCorpus("cannot split an empty corpus")
    ids = sorted(corpus.transcripts)
    random.Random(seed).shuffle(ids)
    n = len(ids)
    n_train = 7 * n // 10
    n_val = n // 10
    return CorpusSplit(
        train=tuple(ids[:n_train]),
        val=tuple(ids[n_train : n_train + n_val]),
        test=tuple(ids[n_train + n_val :]),
        seed=seed,
    )


def corpus_stats(corpus: Corpus) -> dict[str, float]:
    """Mean transcript length and document/summary compression ratio.

    Word counts are whitespace tokens throughout. A document's texts are
    counted joined by a line break, which no word crosses.
    """
    if not corpus.transcripts:
        raise EmptyCorpus("cannot compute stats on an empty corpus")
    total_doc_words, total_summary_words = (
        sum(word_count("\n".join(texts)) for texts in texts_by_id.values())
        for texts_by_id in (corpus.transcripts, corpus.summaries)
    )
    if total_summary_words == 0:
        raise DivisionDegenerate("summaries contain zero words")
    return {
        "mean_doc_words": total_doc_words / len(corpus.transcripts),
        "compression_ratio": total_doc_words / total_summary_words,
    }
