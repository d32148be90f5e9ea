"""The package's modules import one another one way, and only at module level.

Read from the source with `ast`, so nothing is imported to check it.  An
import under `if TYPE_CHECKING:` runs only for a type checker: it is no edge
of the graph.  The jet engine (`oracle`) is the lower of the two engines:
`stdbasis` imports it, never the other way.
"""

import ast
from graphlib import TopologicalSorter

import pytest

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "brs"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports(nodes, in_function=False):
    """(import statement, whether a function body holds it) under `nodes`."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, in_function
        elif isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            yield from _imports(node.orelse, in_function)
        else:
            inside = in_function or isinstance(node, FUNCTIONS)
            yield from _imports(ast.iter_child_nodes(node), inside)


def _targets(node) -> set[str]:
    """The package's modules an import statement loads."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.level:
        names = [f"brs.{node.module}" if node.module else "brs"]
        if node.module is None:
            names += [f"brs.{alias.name}" for alias in node.names]
    else:
        names = [node.module]
    found = {name.removeprefix("brs.") for name in names if name.split(".")[0] == "brs"}
    return {"__init__" if name == "brs" else name for name in found} & set(MODULES)


GRAPH = {
    name: set().union(*(_targets(node) for node, _ in _imports(tree.body)))
    for name, tree in MODULES.items()
}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_import_sits_inside_a_function(module):
    inside = [node.lineno for node, in_function in _imports(MODULES[module].body) if in_function]
    assert inside == [], f"{module}.py imports inside a function at lines {inside}"


def test_the_internal_imports_form_no_cycle():
    order = list(TopologicalSorter(GRAPH).static_order())  # raises CycleError on a cycle
    assert order.index("oracle") < order.index("stdbasis") < order.index("invariants")


def test_the_jet_engine_imports_nothing_from_stdbasis():
    assert "stdbasis" not in GRAPH["oracle"]
    assert "oracle" in GRAPH["stdbasis"]


def test_the_ledger_layer_imports_only_public_engine_names():
    # `invariants` builds and counts ideals through the engines' public names;
    # an engine's private name stays in the engine.
    private = [
        f"{node.module}.{alias.name}"
        for node, _ in _imports(MODULES["invariants"].body)
        if isinstance(node, ast.ImportFrom) and _targets(node)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
