"""Library logic never depends on ``assert``: ``python -O`` strips it, so
every invariant the library checks at run time is an explicit raise."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "giwb"


def test_library_has_no_assert_statements():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/giwb: {found}"
