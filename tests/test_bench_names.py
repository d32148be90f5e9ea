"""The names the benchmark's tracer wraps must exist in `brs`.

`bench/tracing.py` wraps functions by (module, name) and `Polynomial`
methods by name; a rename or removal in `brs` would break
`bench/run.py --trace 1`.  The tracer module is only loaded here, never
installed.
"""

import importlib
import importlib.util

import pytest

from brs import Polynomial
from conftest import REPO_ROOT


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", REPO_ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()


@pytest.mark.parametrize(
    "module, name", TRACING.SPAN_FUNCTIONS, ids=[".".join(p) for p in TRACING.SPAN_FUNCTIONS]
)
def test_span_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"brs.{module}"), name))


@pytest.mark.parametrize("method", [m for ms in TRACING.POLY_METHODS.values() for m in ms])
def test_polynomial_method_resolves(method):
    assert callable(getattr(Polynomial, method))
