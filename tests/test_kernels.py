"""Every C kernel of the package compiles clean, with warnings as errors, and is
declared to ``ctypes`` with as many arguments as its C function takes; numpy's
OpenBLAS is found for ``one_blas_thread``."""

import ast
import importlib
import logging
import re
import subprocess
from pathlib import Path

import numpy as np
import pytest

from bulletsum import kernels
from conftest import needs_cc

PACKAGE = Path(kernels.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.c"))


def _load_arguments() -> list[tuple[str, str, tuple]]:
    """Each ``kernels.load(*NAME)`` call in the package: its module, NAME and NAME's tuple."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "kernels.load":
                (starred,) = node.args
                name = starred.value.id
                module = importlib.import_module(f"bulletsum.{path.stem}")
                found.append((path.stem, name, getattr(module, name)))
    return found


LOADS = _load_arguments()


def test_the_four_kernels_are_found():
    names = [source.stem for source in SOURCES]
    assert names == ["lda_sweep", "pair_products", "tokenize", "vectors_json"]


def test_every_kernel_is_loaded_once():
    assert sorted(arguments[0] for _, _, arguments in LOADS) == [source.stem for source in SOURCES]


@pytest.mark.parametrize(
    "module, name, arguments", LOADS, ids=[f"{module}.{name}" for module, name, _ in LOADS]
)
def test_load_declares_every_parameter_of_the_c_function(module, name, arguments):
    kernel, function, argtypes = arguments
    source = (PACKAGE / f"{kernel}.c").read_text(encoding="utf-8")
    definition = re.search(rf"\bvoid\s+{function}\s*\(([^)]*)\)\s*\{{", source)
    assert definition, f"{kernel}.c defines no function {function}"
    parameters = [p for p in definition.group(1).split(",") if p.strip()]
    assert len(argtypes) == len(parameters), f"{module}.{name} declares {len(argtypes)} arguments"


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
