"""Each learner's masked policy is computed in one place: its ``policy``.

The rollout samples what ``AgentLearner.policy`` and ``MediatorLearner.policy``
return, training differentiates the same policies, and the report reads
them. A second masked softmax elsewhere in the package is free to drift from
them, so the rollout runs neither an actor pass nor a softmax of its own.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mediated_rl"


def call_sites(name: str) -> list[str]:
    """``module:Class.function`` (or ``module:function``) enclosing every
    call of a function or method called ``name`` in the package."""
    sites = []

    def visit(node: ast.AST, scope: list[str], module: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = [*scope, node.name]
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == name):
            sites.append(f"{module}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, module)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), [], path.stem)
    return sites


def test_masked_softmax_only_in_the_learners_policies():
    assert sorted(call_sites("masked_softmax")) == [
        "agents:AgentLearner.policy", "mediator:MediatorLearner.policy"]


def test_rollout_runs_no_actor_pass_or_softmax_of_its_own():
    for name in ("masked_softmax", "forward_cached", "forward"):
        assert not [site for site in call_sites(name)
                    if site.startswith("rollout:")], name
