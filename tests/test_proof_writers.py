"""Only `stdbasis`, where `Ideal` lives, writes what is proven about an ideal.

An `Ideal` holds its colength `value`, the proof's `route`, its jet `model`
and the `reach` of its walks, and `Ideal.count` alone decides them: the
relations another module knows are passed to the count, never written on
the ideal.  Read from the source with `ast`, so nothing is imported to check
it: no other module assigns, augments or deletes an attribute of one of
these names, nor sets one by `setattr` with the name spelled out.
"""

import ast

import pytest

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "brs"
PROOF = {"value", "route", "model", "reach"}


def _writes(tree: ast.AST) -> list[int]:
    """The lines under `tree` that write an attribute named in PROOF."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("setattr", "delattr"):
            name = getattr(node.args[1], "value", None) if len(node.args) > 1 else None
        else:
            continue
        if name in PROOF:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.stem != "stdbasis"), ids=lambda p: p.stem
)
def test_no_other_module_writes_a_proof(path):
    lines = _writes(ast.parse(path.read_text(encoding="utf-8")))
    assert lines == [], f"{path.name} writes an ideal's proof at lines {lines}"


def test_the_guard_sees_every_kind_of_write():
    source = (
        "I.value, I.route = 1, 'jet'\n"
        "I.reach += 1\n"
        "setattr(I, 'model', None)\n"
        "del I.model\n"
        "setattr(v, name, I.value)\n"  # a name not spelled out, and a read
        "x = I.model.level\n"
    )
    assert _writes(ast.parse(source)) == [1, 1, 2, 3, 4]
