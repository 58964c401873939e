"""Every C kernel of the package compiles clean, with warnings as errors; numpy's
OpenBLAS is found for ``one_blas_thread``."""

import logging
import subprocess
from pathlib import Path

import numpy as np
import pytest

from bulletsum import kernels
from conftest import needs_cc

SOURCES = sorted(Path(kernels.__file__).parent.glob("*.c"))


def test_the_four_kernels_are_found():
    names = [source.stem for source in SOURCES]
    assert names == ["lda_sweep", "pair_products", "tokenize", "vectors_json"]


@needs_cc
@pytest.mark.parametrize("source", SOURCES, ids=lambda source: source.name)
def test_kernel_compiles_without_warnings(source, tmp_path):
    done = subprocess.run(
        ["cc", *kernels._CFLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so"),
         str(source)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr


def _numpy_blas_name() -> str:
    """The BLAS that numpy's build config names."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # an older numpy has no dict mode; its config lists the libraries
        info = getattr(np.__config__, "blas_ilp64_opt_info", None) or np.__config__.blas_opt_info
        return " ".join(info.get("libraries", []))


@pytest.mark.skipif(
    "openblas" not in _numpy_blas_name().lower(), reason="numpy's BLAS is not OpenBLAS"
)
def test_numpy_openblas_is_found():
    """A wheel layout or symbol name the lookup does not know fails here, not silently."""
    threads = kernels._openblas_threads()
    assert threads is not None
    get, set_ = threads
    before = get()
    with kernels.one_blas_thread():
        assert get() == 1
    assert get() == before


@pytest.fixture
def no_openblas(monkeypatch):
    """A lookup that finds no library, run afresh in this test."""
    monkeypatch.setattr(kernels, "_OPENBLAS_FILES", "no-such-library*")
    kernels._openblas_threads.cache_clear()
    yield
    kernels._openblas_threads.cache_clear()


def test_without_openblas_the_body_runs_and_one_info_line_says_so(no_openblas, caplog):
    ran = []
    with caplog.at_level(logging.INFO, logger=kernels.__name__):
        for _ in range(2):
            with kernels.one_blas_thread():
                ran.append(True)
    assert ran == [True, True]
    assert [r.levelname for r in caplog.records] == ["INFO"]
    assert "not a bundled OpenBLAS" in caplog.records[0].getMessage()
