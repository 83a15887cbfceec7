"""Every public helper of the package is used by the package or the benchmark.

A module-level function or class that only tests call is a second code path
for a concept the program implements elsewhere, free to drift from it.
"""

import ast
from pathlib import Path

import mediated_rl

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mediated_rl"

# Public names kept although nothing in the package calls them, with why.
ALLOWED = {
    "cli.main": "the console-script entry point",
    "oracle.uniform_profile": "reference profile that oracle tests compare against",
    "oracle.full_commit_pgg_profile": "reference profile that oracle tests compare against",
    "oracle.mediator_copy_profile": "reference profile that oracle tests compare against",
}


def used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded or attributes read anywhere in ``tree`` outside ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def dead_public_names() -> list[str]:
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    bench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        bench |= used_names(ast.parse(path.read_text()))
    dead = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            qualified = f"{name}.{node.name}"
            if qualified in ALLOWED or node.name in mediated_rl.__all__:
                continue
            users = set(bench)
            for other, other_tree in modules.items():
                users |= used_names(other_tree, node if other == name else None)
            if node.name not in users:
                dead.append(qualified)
    return dead


def test_no_public_helper_is_left_unused():
    assert dead_public_names() == []


def test_allowlist_names_exist():
    for qualified in ALLOWED:
        module, name = qualified.split(".")
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in {node.name for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
