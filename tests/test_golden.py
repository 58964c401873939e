"""Committed golden digests: whole workspaces stay byte-identical.

Each case runs every stage on a fixed corpus and compares the sha256 of every
workspace file with ``tests/golden/<case>.json``. The digests hold for the
environment recorded in CHANGES.md; a mismatch elsewhere is a finding to
report, not a reason to loosen the comparison. After a deliberate golden
reset, rewrite them with::

    PYTHONPATH=src python tests/test_golden.py

which prints, for each case, the files whose digests changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from bulletsum import kernels, pipeline
from bulletsum.config import PipelineConfig

from conftest import synthetic_data_dirs
from test_cli import _tree_digest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_DOCS, BENCH_SEED = 120, 3


def _bench_corpus(out: Path) -> tuple[Path, Path]:
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from corpus_gen import generate_corpus
    finally:
        sys.path.remove(str(ROOT / "bench"))
    generate_corpus(ROOT, out, BENCH_DOCS, BENCH_SEED)
    return out / "transcripts", out / "summaries"


CASES = {
    "bundled": (PipelineConfig(), lambda tmp: synthetic_data_dirs()),
    "bench120": (PipelineConfig(lda_iters=20), _bench_corpus),
}


def _workspace_digests(case: str, tmp: Path) -> dict:
    config, corpus = CASES[case]
    workspace = tmp / "ws"
    pipeline.run_stage("run", config, workspace, *corpus(tmp / "corpus"))
    return _tree_digest(workspace)


def _differing(expected: dict, actual: dict) -> list[str]:
    return sorted(p for p in expected.keys() | actual.keys() if expected.get(p) != actual.get(p))


@pytest.mark.parametrize(
    "case, unavailable",
    [("bundled", None), ("bundled", "kernels"), ("bench120", None), ("bench120", "openblas")],
    ids=["bundled", "bundled-python-sampler", "bench120", "bench120-blas-threads-unpinned"],
)
def test_workspace_matches_golden_digests(case, unavailable, tmp_path, monkeypatch):
    if unavailable == "kernels":
        # Every kernel unavailable: the LDA sampler and the tokenizer both
        # run their Python references.
        monkeypatch.setattr(kernels, "load", lambda *kernel: None)
    elif unavailable == "openblas":
        # No OpenBLAS found: the stages run BLAS at its own thread count.
        monkeypatch.setattr(kernels, "_openblas_threads", lambda: None)
    expected = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    actual = _workspace_digests(case, tmp_path)
    assert _differing(expected, actual) == []


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digests = _workspace_digests(name, Path(tmp))
        path = GOLDEN / f"{name}.json"
        committed = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        changed = _differing(committed, digests)
        print(f"{name}: {len(digests)} files, {len(changed)} changed")
        for file in changed:
            print(f"  {file}")
