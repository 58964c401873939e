"""The load-corpus generator is deterministic and ECTSum-shaped."""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

from corpus_gen import BULLETS_PER_SUMMARY, LINES_PER_DOC, generate_corpus  # noqa: E402


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.txt"))}


def test_same_seed_same_bytes_other_seed_other_corpus(tmp_path):
    shape_a = generate_corpus(ROOT, tmp_path / "a", 20, seed=5)
    shape_b = generate_corpus(ROOT, tmp_path / "b", 20, seed=5)
    generate_corpus(ROOT, tmp_path / "c", 20, seed=6)
    a, b, c = (_files(tmp_path / name) for name in "abc")
    assert len(a) == 40
    assert a == b
    assert shape_a == shape_b
    assert a.keys() == c.keys() and a != c


def test_corpus_shape(tmp_path):
    shape = generate_corpus(ROOT, tmp_path, 30, seed=1)
    assert 2500 < shape["mean_doc_words"] < 3300
    assert 85 < shape["compression_ratio"] < 125
    bullets = []
    for summary in sorted((tmp_path / "summaries").glob("*.txt")):
        doc_bullets = summary.read_text(encoding="utf-8").splitlines()
        assert len(doc_bullets) == BULLETS_PER_SUMMARY
        bullets += doc_bullets
        lines = (tmp_path / "transcripts" / summary.name).read_text(encoding="utf-8").splitlines()
        assert len(lines) == LINES_PER_DOC
        # One sentence a line, so the mock generator's sentence split keeps lines whole.
        assert not any(re.search(r"[.?!]\s", line) for line in lines)
        text = " ".join(lines)
        for bullet in doc_bullets:
            for number in re.findall(r"\d+(?:,\d{3})*(?:\.\d+)?(?![A-Za-z0-9])", bullet):
                assert number in text
    assert len(set(bullets)) == len(bullets)
