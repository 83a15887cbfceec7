"""The commitment window's arithmetic lives in ``mediation.py`` only.

Which steps share a window (``t % k``) is the protocol's rule; a second copy
elsewhere in the package is free to drift from it. Other modules take window
starts as ``[::k]`` and window returns from ``mediation.window_sums``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mediated_rl"


def modulo_k_sites() -> list[str]:
    """``module:line`` of every ``... % k`` outside mediation.py, where the
    right operand is a name or attribute called ``k``."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "mediation.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and getattr(node.right, "id",
                                getattr(node.right, "attr", None)) == "k"):
                sites.append(f"{path.stem}:{node.lineno}")
    return sites


def test_window_modulo_only_in_mediation():
    assert modulo_k_sites() == []
