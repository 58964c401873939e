"""Seeded ECTSum-shaped load corpus built from the five bundled transcripts.

Every generated document takes one bundled company as its source and four of
that company's twelve summary bullets as its facts. The facts rotate through
the source's bullets by document index, so the multiset of bullet templates,
and with it the number of LDA tokens, depends only on the document count.
The rest of the layout is fixed by document index too:

- the fiscal quarter named in the document (``q1``..``q4``);
- the segment word added to each fact (``q3 revenue`` becomes
  ``q3 emea revenue``). Each bullet template hands out distinct segment
  words, so every summary bullet in the corpus is distinct and the master
  question list grows with the corpus;
- which bundled sentences fill the transcript, recombined two to a line,
  and where the facts sit among them.

The seed decides every number: each is scaled by a random factor with its
format kept. A fact's bullet and its transcript sentence share one factor,
so summaries stay faithful to their transcripts. Questions carry no numbers,
so seeds change what the documents say but not the question bank, the
topics or the routing, and timings and ROUGE move little from seed to seed.

Run as a script to write a corpus and print its shape::

    python3 bench/corpus_gen.py --out /tmp/corpus --docs 400 --seed 1
"""

from __future__ import annotations

import argparse
import random
import re
from dataclasses import dataclass
from pathlib import Path

BULLETS_PER_SUMMARY = 4
LINES_PER_DOC = 150
# Two lines in three carry two sentences, the third one: 150 lines hold 250
# sentences, about 2,900 words, as in ECTSum.
LINE_WIDTHS = tuple(1 if i % 3 == 2 else 2 for i in range(LINES_PER_DOC))

# Not in the bundled text, so each one makes a fact distinct wherever it goes.
SEGMENT_WORDS = (
    "americas", "emea", "apac", "europe", "asia", "canada", "mexico", "brazil",
    "japan", "china", "india", "germany", "france", "nordics", "australia",
    "africa", "domestic", "overseas", "consumer", "latam", "benelux",
    "residential", "wholesale", "government", "federal", "hospital", "clinical",
    "korea", "downstream", "offshore", "onshore", "hardware", "licensing",
    "mobile", "wireless", "analog", "storage", "networking", "security", "gaming",
)

_LEAD_MARKERS = {"q1", "q2", "q3", "q4", "sees", "fy", "raises", "declares"}
_QUARTER_RE = re.compile(r"\bq[1-4]\b")
_NUMBER_RE = re.compile(r"(?<![A-Za-z0-9.])\d+(?:,\d{3})*(?:\.\d+)?(?![A-Za-z0-9])")


@dataclass(frozen=True)
class Fact:
    """One bundled summary bullet and the transcript sentence it summarises."""

    bullet: str
    sentence: str


@dataclass(frozen=True)
class Source:
    company: str
    facts: tuple[Fact, ...]


def bundled_dir(root: Path) -> Path:
    return Path(root) / "src" / "bulletsum" / "data" / "synthetic"


def _numbers(text: str) -> set[str]:
    return {m.group(0).replace(",", "") for m in _NUMBER_RE.finditer(text)}


def load_sources(root: Path) -> tuple[list[Source], list[str]]:
    """Bundled companies with their facts, and every bundled sentence."""
    data = bundled_dir(root)
    sources = []
    all_sentences = []
    for path in sorted((data / "summaries").glob("*.txt")):
        sentences = [
            line.strip()
            for line in (data / "transcripts" / path.name).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        all_sentences.extend(sentences)
        facts = []
        for bullet in (b.strip() for b in path.read_text(encoding="utf-8").splitlines()):
            if not bullet:
                continue
            wanted = _numbers(bullet)
            best = max(sentences, key=lambda s: len(wanted & _numbers(s)))
            facts.append(Fact(bullet=bullet, sentence=best))
        sources.append(Source(company=path.stem.replace("_", " "), facts=tuple(facts)))
    for sentence in all_sentences:
        if re.search(r"[.?!]\s", sentence) or not sentence.endswith("."):
            raise ValueError(f"bundled sentence is not one plain sentence: {sentence!r}")
    return sources, all_sentences


def _perturb_number(core: str, factor: float) -> str:
    value = float(core.replace(",", "")) * factor
    if "." in core:
        return f"{value:.{len(core.split('.')[1])}f}"
    whole = max(1, round(value))
    return f"{whole:,}" if "," in core else str(whole)


def _scale_numbers(text: str, factor: float) -> str:
    return _NUMBER_RE.sub(lambda m: _perturb_number(m.group(0), factor), text)


def _with_segment(bullet: str, sentence: str, segment: str) -> tuple[str, str]:
    """Insert the segment word before the metric phrase in both texts."""
    tokens = bullet.split()
    at = 0
    while at < len(tokens) - 1 and tokens[at] in _LEAD_MARKERS:
        at += 1
    head = tokens[at]
    tokens.insert(at, segment)
    words = sentence.split()
    if head in words:
        words.insert(words.index(head), segment)
        sentence = " ".join(words)
    else:
        sentence = f"in {segment} {sentence}"
    return " ".join(tokens), sentence


def _line(sentences: list[str]) -> str:
    """Join sentences with semicolons, so that the line stays one sentence."""
    return "; ".join(s.rstrip(".") for s in sentences) + "."


def generate_corpus(root: Path, out: Path, n_docs: int, seed: int) -> dict:
    """Write ``out/transcripts`` and ``out/summaries``; return the corpus shape."""
    sources, pool = load_sources(root)
    companies = [s.company for s in sources]
    rng = random.Random(seed)

    plan = []
    uses: dict[tuple[int, int], list[int]] = {}
    for doc in range(n_docs):
        source = doc % len(sources)
        per_source = len(sources[source].facts)
        chosen = [
            (BULLETS_PER_SUMMARY * (doc // len(sources)) + m) % per_source
            for m in range(BULLETS_PER_SUMMARY)
        ]
        plan.append((source, chosen))
        for fact in chosen:
            uses.setdefault((source, fact), []).append(doc)
    segment_of: dict[tuple[int, int], str] = {}
    for offset, key in enumerate(sorted(uses)):
        docs = uses[key]
        if len(docs) > len(SEGMENT_WORDS):
            raise ValueError(
                f"{n_docs} documents need more than {len(SEGMENT_WORDS)} segment words"
            )
        for use, doc in enumerate(docs):
            segment_of[(doc, key[1])] = SEGMENT_WORDS[(7 * offset + use) % len(SEGMENT_WORDS)]

    transcripts = out / "transcripts"
    summaries = out / "summaries"
    transcripts.mkdir(parents=True, exist_ok=True)
    summaries.mkdir(parents=True, exist_ok=True)
    doc_words = summary_words = 0
    for doc, (source, chosen) in enumerate(plan):
        layout = random.Random(doc)
        quarter = f"q{layout.randint(1, 4)}"
        company = sources[source].company

        def localise(text: str) -> str:
            text = _QUARTER_RE.sub(quarter, text)
            for other in companies:
                text = text.replace(other, company)
            return text

        bullets = []
        sentences = []
        for fact_index in chosen:
            fact = sources[source].facts[fact_index]
            bullet, sentence = _with_segment(
                localise(fact.bullet), localise(fact.sentence), segment_of[(doc, fact_index)]
            )
            factor = rng.uniform(0.8, 1.25)
            bullets.append(_scale_numbers(bullet, factor))
            sentences.append(_scale_numbers(sentence, factor))
        for _ in range(sum(LINE_WIDTHS) - len(sentences)):
            sentences.append(_scale_numbers(localise(layout.choice(pool)), rng.uniform(0.8, 1.25)))
        layout.shuffle(sentences)

        lines = []
        for width in LINE_WIDTHS:
            lines.append(_line(sentences[:width]))
            sentences = sentences[width:]
        name = f"ect{doc:04d}.txt"
        (transcripts / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        (summaries / name).write_text("\n".join(bullets) + "\n", encoding="utf-8")
        doc_words += sum(len(line.split()) for line in lines)
        summary_words += sum(len(b.split()) for b in bullets)

    return {
        "docs": n_docs,
        "sentences_per_doc": LINES_PER_DOC,
        "bullets_per_summary": BULLETS_PER_SUMMARY,
        "mean_doc_words": doc_words / n_docs,
        "compression_ratio": doc_words / summary_words,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--docs", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    shape = generate_corpus(Path(__file__).resolve().parents[1], args.out, args.docs, args.seed)
    print(
        f"corpus: {shape['docs']} docs, {shape['mean_doc_words']:.1f} words per doc, "
        f"compression ratio {shape['compression_ratio']:.1f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
