"""Outside-in tracing of the `brs` layers, from the benchmark's own code.

`install()` replaces the public functions of each `brs` module with timing
wrappers, in every module namespace that bound them (``invariants`` and
``tangent`` import from ``stdbasis`` by name), and wraps the arithmetic
methods of `Polynomial` on the class.  The program itself is not modified.

Each wrapped call is a span.  Self time is the span's duration minus the
time covered by its wrapped children.  Spans above the polynomial layer are
kept in memory with a name, start, end, parent and problem id and are written
out when the run ends; `Polynomial` operations run millions of times per
pass, so they are only aggregated (calls, self time, result terms).

Counters are kept per problem and merged into the run totals only when the
problem completes, so a problem stopped at its deadline, whose work depends
on where the clock happened to cut it, leaves the counts untouched.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

# (module, function) pairs wrapped as spans; names are "<module>.<function>".
SPAN_FUNCTIONS = (
    ("parsing", "parse_problem"),
    ("invariants", "analyze"),
    ("stdbasis", "standard_basis"),
    ("stdbasis", "colength"),
    ("stdbasis", "membership"),
    ("stdbasis", "ideal_colon"),
    ("stdbasis", "ideal_intersection"),
    ("stdbasis", "module_quotient_dim"),
    ("tangent", "theta_full"),
    ("tangent", "df_ideal"),
    ("oracle", "oracle_colength"),
    ("oracle", "module_jet_quotient_dim"),
    ("report", "render_json"),
)

# Polynomial methods wrapped on the class, by layer name.  `__rmul__` is the
# same function object as `__mul__` and gets the same wrapper.
POLY_METHODS = {
    "add": ("__add__",),
    "mul": ("__mul__", "__rmul__"),
    "mul_term": ("mul_term",),
    "scale": ("scale",),
}


def _poly_key(p) -> tuple:
    return tuple((m.exponents, c) for m, c in p.terms)


def _sb_input_key(obj, kwargs) -> tuple:
    """Hashable identity of a `standard_basis` input, ignoring the budget."""
    gens = getattr(obj, "gens", obj)
    vecs = tuple(
        (_poly_key(g),) if hasattr(g, "terms") else tuple(_poly_key(p) for p in g)
        for g in gens
    )
    return (type(obj).__name__, vecs, repr(kwargs.get("order")), bool(kwargs.get("track")))


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child_seconds, span_id]
        self.spans: list[tuple] = []  # (id, parent, name, start, end, problem)
        self.next_id = 0
        self.problem: str | None = None
        self.budget_error: type | tuple = ()  # set by install()
        self.totals = self._fresh()
        self.current = self._fresh()

    @staticmethod
    def _fresh() -> dict:
        return {
            "calls": defaultdict(int),
            "self_s": defaultdict(float),
            "counters": defaultdict(int),
            "maxima": defaultdict(int),
            "sb_keys": set(),
            "budget_errors": [],
        }

    # -- problem scope -------------------------------------------------

    def begin(self, problem: str) -> None:
        self.problem = problem
        self.current = self._fresh()
        self.stack.clear()

    def open_stack(self) -> str:
        """The wrapped calls open right now, outermost first."""
        return " > ".join(frame[0] for frame in self.stack)

    def end(self, keep: bool) -> None:
        """Close the problem; merge its counts only when `keep`."""
        cur = self.current
        self.stack.clear()
        if keep:
            tot = self.totals
            for key in ("calls", "self_s", "counters"):
                for name, v in cur[key].items():
                    tot[key][name] += v
            for name, v in cur["maxima"].items():
                tot["maxima"][name] = max(tot["maxima"][name], v)
            # Distinct standard-basis inputs are counted within a problem:
            # that is what one memo per `analyze` call could reuse.
            tot["counters"]["stdbasis.standard_basis.distinct"] += len(cur["sb_keys"])
            tot["counters"]["stdbasis.budget_errors"] += len(cur["budget_errors"])
        self.current = self._fresh()
        self.problem = None

    # -- wrappers ------------------------------------------------------

    def wrap(self, name: str, fn, *, record: bool, on_result=None):
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cur = tracer.current
            if record:
                span_id = tracer.next_id
                tracer.next_id += 1
                parent = stack[-1][2] if stack else None
            else:
                span_id = parent = None
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if isinstance(exc, tracer.budget_error) and not any(
                    e is exc for e in cur["budget_errors"]
                ):
                    cur["budget_errors"].append(exc)
                raise
            finally:
                end = perf_counter()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = end - start
                cur["calls"][name] += 1
                cur["self_s"][name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if record:
                    tracer.spans.append((span_id, parent, name, start, end, tracer.problem))
            if on_result is not None:
                on_result(cur, args, kwargs, result)
            return result

        return traced

    def install(self, brs_modules: dict) -> None:
        """Wrap every traced function in every namespace that bound it."""
        self.budget_error = brs_modules["errors"].BudgetError
        stdbasis = brs_modules["stdbasis"]
        oracle = brs_modules["oracle"]
        hooks = {
            "stdbasis.standard_basis": _on_standard_basis,
            "tangent.theta_full": _on_theta_full,
            "oracle.oracle_colength": _make_on_oracle(stdbasis.NOT_FINITE, oracle.INCONCLUSIVE),
        }
        namespaces = [vars(m) for m in brs_modules.values()]
        for mod_name, fn_name in SPAN_FUNCTIONS:
            name = f"{mod_name}.{fn_name}"
            original = getattr(brs_modules[mod_name], fn_name)
            wrapper = self.wrap(name, original, record=True, on_result=hooks.get(name))
            bound = 0
            for ns in namespaces:
                for attr, value in list(ns.items()):
                    if value is original:
                        ns[attr] = wrapper
                        bound += 1
            if not bound:
                raise RuntimeError(f"cannot trace {name}: not found")
        poly = brs_modules["polycore"].Polynomial
        for layer, methods in POLY_METHODS.items():
            original = poly.__dict__[methods[0]]
            wrapper = self.wrap(f"polycore.{layer}", original, record=False, on_result=_on_poly)
            for method in methods:
                if poly.__dict__[method] is not original:
                    raise RuntimeError(f"Polynomial.{method} is not the {layer} function")
                setattr(poly, method, wrapper)

    # -- output --------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, problem in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "problem": problem,
                        }
                    )
                    + "\n"
                )

    def summary(self) -> dict:
        """Run totals: calls and self milliseconds per span name, plus counters."""
        tot = self.totals
        return {
            "calls": dict(tot["calls"]),
            "self_ms": {k: v * 1000 for k, v in tot["self_s"].items()},
            "counters": dict(tot["counters"]),
            "maxima": dict(tot["maxima"]),
        }


def _on_standard_basis(cur, args, kwargs, basis) -> None:
    cur["sb_keys"].add(_sb_input_key(args[0], kwargs))
    maxima = cur["maxima"]
    maxima["stdbasis.basis_size_max"] = max(maxima["stdbasis.basis_size_max"], len(basis.elements))
    bits = 0
    for vec in basis.elements:
        for p in vec:
            for _, c in p.terms:
                bits = max(bits, abs(c.numerator).bit_length())
    maxima["stdbasis.coeff_bits_max"] = max(maxima["stdbasis.coeff_bits_max"], bits)


def _on_theta_full(cur, args, kwargs, theta) -> None:
    cur["counters"]["tangent.theta_full.gens"] += len(theta.gens)


def _make_on_oracle(not_finite, inconclusive):
    def on_oracle(cur, args, kwargs, value) -> None:
        if value is inconclusive:
            cur["counters"]["oracle.inconclusive"] += 1
        elif value is not_finite:
            cur["counters"]["oracle.not_finite"] += 1

    return on_oracle


def _on_poly(cur, args, kwargs, result) -> None:
    cur["counters"]["polycore.terms_out"] += len(result.terms)
