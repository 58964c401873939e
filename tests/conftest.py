import shutil
from pathlib import Path

import pytest

import bulletsum
from bulletsum import kernels
from bulletsum.qbank import Question

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")


def synthetic_data_dirs() -> tuple[Path, Path]:
    """The transcript and summary directories of the bundled five-document demo corpus."""
    root = Path(bulletsum.__file__).parent / "data" / "synthetic"
    return root / "transcripts", root / "summaries"


@pytest.fixture
def make_question():
    def _make(text, doc="d0", index=0, topics=()):
        return Question(
            text=text,
            source_doc=doc,
            source_bullet_index=index,
            topics=frozenset(topics),
        )

    return _make


@pytest.fixture(scope="session")
def synthetic_dirs():
    transcripts, summaries = synthetic_data_dirs()
    assert transcripts.is_dir() and summaries.is_dir()
    return transcripts, summaries


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache directory and no kernel loaded in this process."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    kernels.load.cache_clear()
    yield cache
    kernels.load.cache_clear()


def _fake_cc(directory, script):
    directory.mkdir()
    cc = directory / "cc"
    cc.write_text("#!/bin/sh\n" + script)
    cc.chmod(0o755)
    return directory


@pytest.fixture
def break_kernel_build(fresh_cache, tmp_path, monkeypatch):
    """Make every kernel build in ``fresh_cache`` fail one way, by name.

    ``no-compiler`` empties PATH, ``compile-error`` puts a ``cc`` that fails
    on it, ``unloadable-library`` one that leaves garbage where the library
    belongs, and ``unwritable-cache`` puts a file where the cache directory
    should be.
    """

    def _break(failure):
        if failure == "no-compiler":
            monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        elif failure == "compile-error":
            fake = _fake_cc(tmp_path / "bin", "echo simulated compile error >&2\nexit 1\n")
            monkeypatch.setenv("PATH", str(fake))
        elif failure == "unloadable-library":
            script = 'while [ "$1" != -o ]; do shift; done\necho garbage > "$2"\n'
            fake = _fake_cc(tmp_path / "bin", script)
            monkeypatch.setenv("PATH", str(fake))
        else:
            fresh_cache.write_text("a file where the cache directory should be")

    return _break
