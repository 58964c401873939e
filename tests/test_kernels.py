"""Every C kernel of the package compiles clean, with warnings as errors."""

import subprocess
from pathlib import Path

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
