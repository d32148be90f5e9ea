"""The package root exports what the README's Library section documents.

Everything else stays importable from the module that defines it.
"""

import importlib
import re

import pytest

import brs
from conftest import REPO_ROOT

EXPORTS = {
    "BrsError", "BudgetError", "ContainmentError", "ContextError", "GermError",
    "InternalError", "ParseError",
    "Polynomial", "VarContext", "NOT_FINITE", "is_finite", "HypersurfaceProblem",
    "InvariantReport", "LedgerEntry",
    "analyze", "milnor", "tjurina", "fiber_milnor", "bruce_roberts", "relative_bruce_roberts",
    "parse_poly", "parse_problem",
}

# The kernel's names, each importable from the module that defines it.
MODULE_NAMES = {
    "polycore": ("Monomial", "VectorField", "jacobian_ideal", "minors_2x2"),
    "stdbasis": (
        "DEFAULT_BUDGET", "Ideal", "NotFiniteType", "StandardBasis", "Submodule", "colength",
        "ideal_colon", "ideal_intersection", "membership", "module_quotient_dim",
        "mora_normal_form", "standard_basis",
    ),
    "oracle": (
        "INCONCLUSIVE", "InconclusiveType", "JetModel", "certificate", "jet_model",
        "oracle_colength",
    ),
    "tangent": ("DerivationModule", "df_ideal", "df_trivial_ideal", "theta_full"),
    "invariants": ("detect_split",),
    "parsing": ("ParsedProblem", "ProblemFile"),
}


def test_root_exports_the_documented_names():
    assert len(brs.__all__) == len(EXPORTS) == 22
    assert set(brs.__all__) == EXPORTS
    assert all(hasattr(brs, name) for name in brs.__all__)


@pytest.mark.parametrize("module", sorted(MODULE_NAMES))
def test_kernel_names_stay_in_their_modules(module):
    mod = importlib.import_module(f"brs.{module}")
    assert all(hasattr(mod, name) for name in MODULE_NAMES[module])
    assert not EXPORTS & set(MODULE_NAMES[module])


# Helpers only the tests use; they live in `tests/conftest.py`.
TEST_ONLY_NAMES = {
    "stdbasis": ("ideal_contains", "ideal_product", "ideals_equal", "syzygies"),
    "tangent": ("df_pair", "suspend", "theta_contains", "theta_trivial"),
}


def test_test_only_names_are_not_in_the_package():
    for module, names in TEST_ONLY_NAMES.items():
        mod = importlib.import_module(f"brs.{module}")
        assert not any(hasattr(mod, name) for name in names), module
    assert not hasattr(importlib.import_module("brs.tangent").DerivationModule, "as_submodule")
    assert not hasattr(importlib.import_module("brs.stdbasis").StandardBasis, "leading_monomials")


def test_readme_library_example_runs_verbatim():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # Each `expression   # value` line documents the value it returns.
    documented = re.findall(r"^(\S.*?)\s+# (\d+)$", code, re.M)
    assert len(documented) == 4
    for expression, value in documented:
        assert eval(expression, namespace) == int(value), expression
