"""Every public helper of the package is used by the package or the benchmark.

A module-level function, class or public method that only tests call is a
second code path for a concept the program implements elsewhere, free to
drift from it. The rule is by name: a definition counts as used when its
name is read anywhere else in the package or the benchmark.
"""

import ast
import importlib
from pathlib import Path

import mediated_rl
from mediated_rl import harness, rollout

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


def public_definitions(tree: ast.Module):
    """(qualified name, node) of the public functions and classes of a module
    and the public methods of its classes, qualified below the module."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def dead_public_names() -> list[str]:
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    bench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        bench |= used_names(ast.parse(path.read_text()))
    dead = []
    for name, tree in modules.items():
        for local, node in public_definitions(tree):
            qualified = f"{name}.{local}"
            if qualified in ALLOWED or local in mediated_rl.__all__:
                continue
            users = set(bench)
            for other, other_tree in modules.items():
                users |= used_names(other_tree, node if other == name else None)
            if node.name not in users:
                dead.append(qualified)
    return dead


def test_no_public_helper_is_left_unused():
    assert dead_public_names() == []


def test_every_approx_definition_has_a_caller_in_another_module():
    # approx.py holds the learners' building blocks: a helper that only
    # approx.py itself calls is a step of another definition written apart.
    others = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem != "approx":
            others |= used_names(ast.parse(path.read_text()))
    tree = ast.parse((PACKAGE / "approx.py").read_text())
    assert [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in others] == []


def test_allowlist_names_exist():
    for qualified in ALLOWED:
        module, local = qualified.split(".", 1)
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert local in dict(public_definitions(tree))


def test_benchmark_trace_names_exist(monkeypatch):
    # The benchmark's tracer wraps package functions by name; a refactor
    # that deletes or moves one of them breaks its traced runs.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    worker = importlib.import_module("worker")
    with worker.traced():
        assert harness.sample_batch is not rollout.sample_batch
    assert harness.sample_batch is rollout.sample_batch
