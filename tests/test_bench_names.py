"""The names the benchmark's tracer wraps must exist in `brs`.

`bench/tracing.py` wraps functions by (module, name) and `Polynomial`
methods by name, and its hooks read the results of two of them; a rename,
a removal or a changed result field in `brs` would break
`bench/run.py --trace 1`.  It patches only the modules that
`bench/worker.py` lists, so that list must be every module of `brs`.  The
tracer and worker modules are only loaded here, never installed or run.
"""

import importlib
import importlib.util

import pytest

from brs import Polynomial, parse_poly
from brs.stdbasis import Ideal, standard_basis
from brs.tangent import theta_full
from conftest import REPO_ROOT
from strategies import CTX2


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", REPO_ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _bench_module("tracing")


@pytest.mark.parametrize(
    "module, name", TRACING.SPAN_FUNCTIONS, ids=[".".join(p) for p in TRACING.SPAN_FUNCTIONS]
)
def test_span_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"brs.{module}"), name))


@pytest.mark.parametrize("method", [m for ms in TRACING.POLY_METHODS.values() for m in ms])
def test_polynomial_method_resolves(method):
    assert callable(getattr(Polynomial, method))


def test_theta_full_hook_reads_a_real_module():
    cur = TRACING.Tracer._fresh()
    phi = parse_poly("x^2 + y^3", CTX2)
    theta = theta_full(phi)
    TRACING._on_theta_full(cur, (phi,), {}, theta)
    assert cur["counters"]["tangent.theta_full.gens"] == len(theta.gens) > 0


def test_standard_basis_hook_reads_a_real_basis():
    cur = TRACING.Tracer._fresh()
    ideal = Ideal(CTX2, [parse_poly("x^2 + 3*y^3", CTX2), parse_poly("x*y", CTX2)])
    basis = standard_basis(ideal)
    TRACING._on_standard_basis(cur, (ideal,), {}, basis)
    assert cur["sb_keys"] == {TRACING._sb_input_key(ideal, {})}
    assert cur["maxima"]["stdbasis.basis_size_max"] == len(basis.elements) > 0
    assert cur["maxima"]["stdbasis.coeff_bits_max"] > 0


def test_the_worker_imports_every_module():
    # The tracer patches bindings only in the worker's MODULES, so a module
    # of `brs` outside that list would be work the benchmark never sees.
    modules = {p.stem for p in (REPO_ROOT / "src" / "brs").glob("*.py")} - {"__init__", "__main__"}
    assert sorted(_bench_module("worker").MODULES) == sorted(modules)
