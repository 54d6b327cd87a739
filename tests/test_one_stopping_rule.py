"""Every bounded search stops by one rule, kept in ``perms.py``: a search
charges a ``_Meter``, which alone raises ``BudgetExceeded`` once its count
passes the budget, and ``BudgetExceeded.nodes`` alone spells the count it
stopped at, budget + 1.  No other module of the package constructs the
exception or spells ``budget + 1``."""

import ast
from pathlib import Path

import haarcay


def _spelling(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant):
        return node.value
    return None


def _stopping_rules(path: Path) -> list[str]:
    """Where the module constructs ``BudgetExceeded`` or adds 1 to a budget."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Call) and _spelling(node.func) == "BudgetExceeded":
            found.append(f"{path.name}:{node.lineno} constructs BudgetExceeded")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and \
                {_spelling(node.left), _spelling(node.right)} == {"budget", 1}:
            found.append(f"{path.name}:{node.lineno} spells budget + 1")
    return found


def test_only_perms_spells_the_stopping_rule():
    package = Path(haarcay.__file__).parent
    assert len(_stopping_rules(package / "perms.py")) == 2
    elsewhere = [hit for path in sorted(package.glob("*.py")) if path.name != "perms.py"
                 for hit in _stopping_rules(path)]
    assert elsewhere == []
