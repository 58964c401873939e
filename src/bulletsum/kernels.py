"""The one loader of the package's C kernels.

A kernel is a C file next to this module (``lda_sweep.c``, ``tokenize.c``,
``vectors_json.c``, ``pair_products.c``) that a Python reference in its
caller's module computes too, with the same result. ``load`` compiles the file with ``cc`` on first use into
``${XDG_CACHE_HOME:-~/.cache}/bulletsum/<name>-<sha256>.so``, keyed by source
and flags, loads it with ``ctypes`` and declares the argument types of the
function the caller asked for. If that fails, one WARNING per kernel and
process ("compiled kernel <name> unavailable, running its Python reference:
<reason>") is logged, ``load`` returns None, and the caller runs its Python
reference. Deleting the cache directory is always safe: the next run rebuilds
it.

``one_blas_thread`` is not a kernel: it runs its body with the OpenBLAS that
numpy's wheel bundles on one thread, and then sets the caller's thread count
back, also when the body raises. It finds that library in the wheel's library
directory and calls its get and set functions through ``ctypes``, under the
names of numpy 2 (``scipy_openblas_*_num_threads64_``) or of numpy 1
(``openblas_*_num_threads64_``). Where there is none (an MKL or Accelerate
build, say), the body runs at BLAS's own thread count, and one INFO line per
process says so.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import subprocess
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# -ffp-contract=off: a fused multiply-add would round differently from Python.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

logger = logging.getLogger(__name__)


@functools.cache
def load(name: str, function: str, argtypes: tuple):
    """The C function ``function`` of kernel ``name`` taking ``argtypes``, or None.

    Built on first use and kept in the cache directory, then loaded once per
    process. Any failure (no compiler, a compile error, an unwritable cache, a
    library that does not load) logs one WARNING naming it and returns None.
    """
    try:
        library = ctypes.CDLL(str(_build(name)))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        logger.warning(
            "compiled kernel %s unavailable, running its Python reference: %s", name, exc
        )
        return None
    kernel = getattr(library, function)
    kernel.argtypes = list(argtypes)
    kernel.restype = None
    return kernel


def _build(name: str) -> Path:
    """Path of the compiled kernel ``name``, compiling it if the cache lacks it.

    The compiler writes a temp file in the cache directory that
    ``os.replace`` then renames into place, so a concurrent process never
    loads a half-written library.
    """
    source = Path(__file__).with_name(f"{name}.c")
    digest = hashlib.sha256(source.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "bulletsum"
    library = cache / f"{name}-{digest}.so"
    if library.is_file():
        return library
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{name}-", suffix=".so", dir=cache)
    os.close(fd)
    try:
        done = subprocess.run(
            ["cc", *_CFLAGS, "-o", tmp, str(source)],
            capture_output=True, text=True, errors="replace", timeout=120, check=False,
        )
        if done.returncode != 0:
            raise OSError(f"cc exited with {done.returncode}: {done.stderr.strip()}")
        os.replace(tmp, library)
    finally:
        Path(tmp).unlink(missing_ok=True)
    return library


# The OpenBLAS file in numpy's wheel, and its thread-count functions' names:
# numpy 2 bundles scipy-openblas, numpy 1 OpenBLAS itself, each with 64-bit
# (``64_``) or 32-bit integers.
_OPENBLAS_FILES = "lib*openblas*"
_OPENBLAS_THREADS = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads",
)


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    The library is in the wheel's library directory: ``numpy.libs`` beside
    the package on Linux and Windows, ``numpy/.dylibs`` on macOS. numpy has
    loaded it already, so ``ctypes`` opens that same copy.
    """
    package = Path(np.__file__).parent
    for directory in (package.with_name("numpy.libs"), package / ".dylibs", package / ".libs"):
        for path in sorted(directory.glob(_OPENBLAS_FILES)):
            try:
                library = ctypes.CDLL(str(path))
            except OSError:
                continue
            for name in _OPENBLAS_THREADS:
                get = getattr(library, name.format("get"), None)
                set_ = getattr(library, name.format("set"), None)
                if get and set_:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    logger.info("numpy's BLAS is not a bundled OpenBLAS; stages run it at its own thread count")
    return None


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the caller's count."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)
