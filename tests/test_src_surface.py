"""The package holds only what a command or the benchmark runs: every
function, class and method defined in src/ is referenced from src/ or
perfbench/*.py.  Code that only a test calls belongs with the tests
(oracles.py, paper_checks.py and the *_reference.py modules)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# named by Python or the packaging rather than by a reference in the code
ALLOWED = {"main"}  # the billiards console script of pyproject.toml


def _trees(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _referenced(trees) -> set:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def _definitions(trees):
    """(module, qualified name) of each module-level function and class, and
    of each method of a module-level class; dunder methods are Python's."""
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        yield path.stem, f"{node.name}.{sub.name}"


def test_src_defines_nothing_only_the_tests_use():
    src = _trees(sorted((ROOT / "src").rglob("*.py")))
    bench = _trees(sorted((ROOT / "perfbench").glob("*.py")))
    assert src and bench
    used = _referenced({**src, **bench}) | ALLOWED
    unused = [f"{module}.{name}" for module, name in _definitions(src)
              if name.rpartition(".")[2] not in used]
    assert unused == [], f"defined in src/ but referenced only outside src/ and perfbench/: {unused}"
