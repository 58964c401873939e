"""Transcript/summary ingestion, sentence segmentation, splits, and stats."""

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
class Transcript:
    """A transcript's sentence texts; a sentence's position is its index."""

    id: str
    sentences: tuple[str, ...]

    @classmethod
    def from_text(cls, doc_id: str, raw_text: str) -> "Transcript":
        return cls(id=doc_id, sentences=tuple(segment_sentences(raw_text)))


@dataclass(frozen=True)
class BulletSummary:
    id: str
    bullets: tuple[str, ...]

    @classmethod
    def from_text(cls, doc_id: str, raw_text: str) -> "BulletSummary":
        bullets = tuple(line.strip() for line in raw_text.splitlines() if line.strip())
        if not bullets:
            raise EmptyDocument(f"summary {doc_id!r} has no bullets")
        return cls(id=doc_id, bullets=bullets)


@dataclass(frozen=True)
class CorpusSplit:
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]
    seed: int


@dataclass
class Corpus:
    transcripts: dict[str, Transcript]
    summaries: dict[str, BulletSummary]

    @property
    def ids(self) -> list[str]:
        return sorted(self.transcripts)

    def __len__(self) -> int:
        return len(self.transcripts)


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
            (Transcript.from_text, transcript_files, transcripts),
            (BulletSummary.from_text, summary_files, summaries),
        ):
            try:
                parsed[stem] = parse(stem, read_text_file(files[stem], "input file"))
            except EmptyDocument as exc:
                raise EmptyDocument(f"{files[stem]}: {exc}") from exc
    return Corpus(transcripts=transcripts, summaries=summaries)


def split_corpus(corpus: Corpus, seed: int) -> CorpusSplit:
    """Deterministic 7:1:2 split: floor(0.7n) / floor(0.1n) / remainder."""
    if len(corpus) == 0:
        raise EmptyCorpus("cannot split an empty corpus")
    ids = corpus.ids
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

    Word counts are whitespace tokens throughout.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("cannot compute stats on an empty corpus")
    total_doc_words = sum(
        word_count(sentence) for t in corpus.transcripts.values() for sentence in t.sentences
    )
    total_summary_words = sum(
        word_count(bullet) for s in corpus.summaries.values() for bullet in s.bullets
    )
    if total_summary_words == 0:
        raise DivisionDegenerate("summaries contain zero words")
    return {
        "mean_doc_words": total_doc_words / len(corpus),
        "compression_ratio": total_doc_words / total_summary_words,
    }
