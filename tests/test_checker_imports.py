"""The certificate check trusts no search: ``graphs.py``, where
``verify_certificate`` lives, imports neither the searches
(``automorphisms``, ``bicayley``), nor Schreier-Sims (``perms``), nor the
catalog (``cases``)."""

import ast
from pathlib import Path

import haarcay

FORBIDDEN = {"automorphisms", "perms", "bicayley", "cases"}


def test_the_checker_module_imports_no_search():
    path = Path(haarcay.__file__).parent / "graphs.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.split(".")[-1])
            if node.level and not node.module:     # from . import name
                imported.update(alias.name for alias in node.names)
    assert "groups" in imported and imported.isdisjoint(FORBIDDEN), sorted(imported)
