"""The compiled kernels against their Python references, built with AddressSanitizer and UBSan.

A kernel that reads or writes one slot outside an array, or overflows a
signed integer, can still give the reference's result in a plain build. Here
a child process builds every kernel with the sanitizers into its own cache
and runs the kernel-vs-reference property tests of ``tokenize.c``,
``vectors_json.c`` and ``lda_sweep.c``; the first fault aborts it.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SANITIZE = (
    "-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
)
PROPERTY_TESTS = [
    "tests/test_retrieval.py::TestEncode::test_kernel_matches_tokenize",
    "tests/test_services.py::TestDecoder::test_kernel_matches_the_reference",
    "tests/test_services.py::TestDecoder::test_body_that_is_not_canonical_goes_to_the_reference",
    "tests/test_topics.py::TestCompiledSampler::test_same_phi_as_python_loop",
]
# The child: every kernel built with the sanitizers, then the property tests.
CHILD = (
    "import sys\n"
    "from bulletsum import kernels\n"
    f"kernels._CFLAGS += {SANITIZE!r}\n"
    "import pytest\n"
    "sys.exit(pytest.main(sys.argv[1:]))\n"
)


def _gcc_library(name: str) -> str | None:
    """The path of gcc's library ``name``, or None where gcc or the library is missing."""
    if shutil.which("gcc") is None:
        return None
    done = subprocess.run(
        ["gcc", f"-print-file-name={name}"], capture_output=True, text=True, check=False
    )
    path = done.stdout.strip()
    return path if os.path.isabs(path) and os.path.isfile(path) else None


RUNTIMES = [_gcc_library("libasan.so"), _gcc_library("libubsan.so")]

needs_sanitizers = pytest.mark.skipif(
    None in RUNTIMES or shutil.which("cc") is None,
    reason="no C compiler (cc) or no gcc AddressSanitizer and UBSan runtimes",
)


@needs_sanitizers
def test_kernels_match_their_references_under_sanitizers(tmp_path):
    cache = tmp_path / "cache"
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "XDG_CACHE_HOME": str(cache),
        # The interpreter is not instrumented, so the runtimes load first.
        "LD_PRELOAD": " ".join(RUNTIMES),
        "ASAN_OPTIONS": "detect_leaks=0",
    }
    done = subprocess.run(
        # -s: a sanitizer's report reaches stderr before it aborts the child.
        [sys.executable, "-c", CHILD, "-q", "-s", "-p", "no:cacheprovider", *PROPERTY_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    built = sorted(path.name.split("-")[0] for path in (cache / "bulletsum").glob("*.so"))
    assert built == ["lda_sweep", "tokenize", "vectors_json"]
