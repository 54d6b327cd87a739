"""Every function, method and class defined in ``src/haarcay`` is used
somewhere: by the package, its tests or the benchmark harness.  A use is a
name, an attribute, or one part of a dotted string constant such as the
tracer's ``"bicayley.part_swap_maps"``, found outside the definition itself,
so a recursive call does not keep a function alive.  Dunder methods are
called by the language and are exempt.  Every import in the package is
used in its module too."""

import ast
import re
from pathlib import Path

import haarcay

PACKAGE = Path(haarcay.__file__).parent
ROOT = PACKAGE.parent.parent
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def _sources() -> list[Path]:
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) + \
        sorted((ROOT / "perfbench").glob("*.py"))


def test_every_definition_in_the_package_is_used():
    defs = []          # (name, path, first line, last line)
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path.parent == PACKAGE and not re.fullmatch(r"__\w+__", node.name):
                    defs.append((node.name, path, node.lineno, node.end_lineno))
                continue
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and DOTTED.fullmatch(node.value):
                names = node.value.split(".")
            else:
                continue
            for name in names:
                uses.setdefault(name, []).append((path, node.lineno))
    assert defs
    unused = [f"{path.name}:{first} {name}" for name, path, first, last in defs
              if not any(p != path or not first <= line <= last
                         for p, line in uses.get(name, ()))]
    assert unused == []


def test_every_import_in_the_package_is_used():
    """Every name a module other than ``__init__.py`` imports appears as a
    name in that module; ``from __future__`` imports are exempt."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []
