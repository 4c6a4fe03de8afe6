"""Static checks over the package, the tests and the demos."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _scanned_files():
    for top in ("src/graphdp", "tests", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            # the package's __init__ imports names only to re-export them
            if path.name != "__init__.py":
                yield path


def _unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    hits = []
    for path in _scanned_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, name in _unused_imports(tree):
            hits.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not hits, "imported but never used:\n" + "\n".join(hits)
