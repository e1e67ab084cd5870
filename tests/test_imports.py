"""The package is stdlib-only: every import in its source is checked by AST."""

import ast
import sys
from pathlib import Path

import cuspmotive


def test_package_imports_only_the_standard_library():
    files = sorted(Path(cuspmotive.__file__).resolve().parent.glob("*.py"))
    assert len(files) >= 10
    seen = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:  # a relative import stays inside the package
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "cuspmotive", (path.name, name)
                seen.add(top)
    assert {"fractions", "functools", "math"} <= seen
