"""The package holds only what a command or the benchmark runs: every
function, class and method defined in src/ is referenced from src/ or
perfbench/*.py.  A function or class counts as referenced by its name,
bare, as an attribute or in an import; a method only as an attribute
(obj.name) or as a string (the benchmark's trace targets patch methods by
name), since a bare name such as ``t`` is most often a local variable.  Code that only a test calls
belongs with the tests (oracles.py, paper_checks.py and the *_reference.py
modules)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# named by Python or the packaging rather than by a reference in the code
ALLOWED = {"main"}  # the billiards console script of pyproject.toml


def _trees(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _referenced(trees) -> tuple:
    """(the names used bare, as an attribute or in an import; the names used
    as an attribute or as a string)."""
    names, attrs, strings = set(), set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names | attrs, attrs | strings


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
    functions, methods = _referenced({**src, **bench})
    unused = [f"{module}.{name}" for module, name in _definitions(src)
              if name.rpartition(".")[2] not in (methods if "." in name else functions | ALLOWED)]
    assert unused == [], f"defined in src/ but referenced only outside src/ and perfbench/: {unused}"
