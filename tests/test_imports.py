"""Every module-level import of the package and of the tests is read.

An import nothing reads is dead weight that hides what a module depends on.
``qimem/__init__.py`` is exempt: its imports are re-exported through
``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in [*(ROOT / "src" / "qimem").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p != ROOT / "src" / "qimem" / "__init__.py")


def unread_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that the module
    never reads.  ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_scan_catches_unread_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from functools import reduce, cache as memo\n"
              "import numpy as np\n\n"
              "def f(x: np.ndarray):\n    return os.path.join(math.pi, x)\n")
    assert unread_imports(source) == ["reduce", "memo"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []
