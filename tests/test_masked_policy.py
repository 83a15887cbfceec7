"""Each learner's masked policy is computed in one place: its ``policy``.

The rollout samples what ``AgentLearner.policy`` and ``MediatorLearner.policy``
return, training differentiates the same policies, and the report reads
them. A second masked softmax elsewhere in the package is free to drift from
them, so the rollout runs neither an actor pass nor a softmax of its own.

Likewise a coalition has one integer code, ``mediation.coalition_codes``,
which the learners, the oracle and the report all read.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mediated_rl"


def sites(matches) -> list[str]:
    """``module:Class.function`` (or ``module:function``) enclosing every
    node of the package that ``matches``."""
    found = []

    def visit(node: ast.AST, scope: list[str], module: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = [*scope, node.name]
        if matches(node):
            found.append(f"{module}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, module)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), [], path.stem)
    return found


def call_sites(name: str) -> list[str]:
    """The sites of every call of a function or method called ``name``."""
    return sites(lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)) == name)


def test_masked_softmax_only_in_the_learners_policies():
    assert sorted(call_sites("masked_softmax")) == [
        "agents:AgentLearner.policy", "mediator:MediatorLearner.policy"]


def test_rollout_runs_no_actor_pass_or_softmax_of_its_own():
    for name in ("masked_softmax", "forward_cached", "forward"):
        assert not [site for site in call_sites(name)
                    if site.startswith("rollout:")], name


def test_coalition_bits_are_weighed_only_in_coalition_codes():
    # ``1 << ...`` gives coalition bits their weights; a second such shift
    # would be a second code, free to order the agents its own way.
    def bit_weights(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
                and isinstance(node.left, ast.Constant) and node.left.value == 1)

    assert sites(bit_weights) == ["mediation:coalition_codes"]
