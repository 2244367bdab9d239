"""Source-level rules for the library package."""
import ast
from pathlib import Path

import limitalg

PACKAGE = Path(limitalg.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # `python -O` strips asserts: input checks and post-conditions must
    # raise explicitly (ValueError, AssertionError, ...)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
