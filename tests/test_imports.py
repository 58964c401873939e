import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The package, its tests and the benchmark's scripts and tests.
CHECKED = ("src/bulletsum", "tests", "bench")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """The line and name of each import in a module's body that the module never loads.

    ``import a.b`` binds ``a``; ``from __future__`` and ``*`` imports bind
    nothing checked. A name is used where the module loads it anywhere,
    ``a.b`` loading ``a``.
    """
    tree = ast.parse(source)
    names = (node for node in ast.walk(tree) if isinstance(node, ast.Name))
    loaded = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    return [
        (node.lineno, name)
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name != "*"
        for name in [alias.asname or alias.name.split(".")[0]]
        if name not in loaded
    ]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Any, NamedTuple\n"
        "def f(x: Any) -> str:\n"
        "    import re\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "j"), (5, "NamedTuple")]


def test_no_module_level_import_goes_unused():
    unused = [
        f"{path.relative_to(ROOT)}:{line}:{name}"
        for directory in CHECKED
        for path in sorted((ROOT / directory).rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)
