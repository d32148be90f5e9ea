from __future__ import annotations

from pathlib import Path
from typing import Sequence

import pytest

from brs import (
    NOT_FINITE,
    ContextError,
    GermError,
    HypersurfaceProblem,
    Polynomial,
    VarContext,
    parse_poly,
)
from brs.oracle import JetModel, _Echelon, _generators, _shifted, _span, _Table, _table
from brs.polycore import Monomial, VectorField, require_same_ctx
from brs.stdbasis import (
    DEFAULT_BUDGET,
    Ideal,
    NotFiniteType,
    StandardBasis,
    Submodule,
    _basis_standard_exponents,
    membership,
    standard_basis,
)
from brs.tangent import DerivationModule, _paired, theta_full

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"

# Verdict lines queued by the acceptance tests; shown after the test run so
# they survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ctx2() -> VarContext:
    return VarContext(("x", "y"))


@pytest.fixture(scope="session")
def ctx3() -> VarContext:
    return VarContext(("x", "y", "z"))


@pytest.fixture(scope="session")
def P(ctx2):
    """Shorthand parser over (x, y)."""

    def parse(src: str, ctx=None):
        return parse_poly(src, ctx or ctx2)

    return parse


def jet_model_at(I: Ideal, d: int):
    """The jet model of I + maximal ideal^d, from every monomial shift of the generators."""
    return _span(I.ctx, _generators(I.gens), d)


def every_shift_model(I: Ideal, d: int) -> JetModel:
    """The jet model of I + maximal ideal^d from every monomial shift of the generators.

    No shift is skipped: this is the plain insertion loop, the reference for
    the engine's `_span`, which skips the shifts that would reduce to zero.
    """
    model = JetModel(I.ctx, _table(I.ctx.n), d, _Echelon())
    table, ech = model.table, model.ech
    for lead_deg, terms in _generators(I.gens):
        if not terms or lead_deg >= d:
            continue
        for i in range(table.starts[d - lead_deg]):
            ech.insert(_shifted(terms, table.packed[i], d - table.degree[i], table.row))
    return model


def jet_contains(I: Ideal, p: Polynomial, d: int) -> bool:
    """Membership of p in I at jet level d, i.e. in I + maximal ideal^d.

    A true answer at a level beyond the largest standard monomial degree of
    a zero-dimensional I certifies real membership.
    """
    return jet_model_at(I, d).contains(p)


def jet_quotient_dim(I: Ideal, d: int) -> int:
    """Exact dimension of the quotient by (I + maximal ideal^d)."""
    return jet_model_at(I, d).colength


def standard_monomials(basis: StandardBasis) -> list[Monomial] | NotFiniteType:
    """Monomials outside the leading ideal of an ideal's basis; a basis of the quotient."""
    exps = _basis_standard_exponents(basis)
    return NOT_FINITE if exps is None else [Monomial(e) for e in exps]


def monomial_index(table: _Table, cap: int) -> dict[tuple[int, ...], int]:
    """The row of each monomial of degree below `cap`, by exponents."""
    return {exps: row for row, exps in enumerate(table.exps[: table.size(cap)])}


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """Pairwise products of generators."""
    require_same_ctx(I.ctx, J.ctx)
    return Ideal(I.ctx, [a * b for a in I.gens for b in J.gens])


def ideal_contains(I: Ideal, J: Ideal, *, budget: int = DEFAULT_BUDGET) -> bool:
    """True when every generator of J lies in I."""
    sb_i = standard_basis(I, budget=budget)
    return all(membership(g, sb_i) for g in J.gens)


def ideals_equal(I: Ideal, J: Ideal, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Equality as ideals by mutual membership against standard bases."""
    return ideal_contains(I, J, budget=budget) and ideal_contains(J, I, budget=budget)


def df_pair(f: Polynomial, xi: VectorField) -> Polynomial:
    """The pairing df(xi) = sum_i xi_i * (df/dx_i)."""
    require_same_ctx(f.ctx, xi.ctx)
    return _paired([f.partial(i) for i in range(f.ctx.n)], xi)


def theta_trivial(phi: Polynomial) -> DerivationModule:
    """Trivial tangent fields: phi*d/dx_i, then Hamiltonians by (j, k).

    Exactly n + n*(n-1)/2 generators; for one variable the Hamiltonian list
    is empty and only phi*d/dx remains.  The reference for
    `df_trivial_ideal`, which gives their df images in closed form.
    """
    if phi.is_zero() or phi.constant_term() != 0:
        raise GermError("phi must be a nonzero germ vanishing at 0")
    ctx = phi.ctx
    n = ctx.n
    zero = Polynomial.zero(ctx)
    gens: list[VectorField] = []
    for i in range(n):
        comps = [zero] * n
        comps[i] = phi
        gens.append(VectorField(tuple(comps)))
    partials = [phi.partial(i) for i in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            comps = [zero] * n
            comps[j] = partials[k]
            comps[k] = -partials[j]
            gens.append(VectorField(tuple(comps)))
    cofactors = partials + [zero] * (len(gens) - n)
    return DerivationModule(gens=tuple(gens), cofactors=tuple(cofactors))


def as_submodule(theta: DerivationModule) -> Submodule:
    """The fields of a derivation module as a submodule of R^n."""
    ctx = theta.gens[0].ctx
    return Submodule(ctx, ctx.n, [xi.components for xi in theta.gens])


def theta_contains(
    theta: DerivationModule,
    fields: Sequence[VectorField],
    *,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Module membership of each field in the generated tangent module."""
    basis = standard_basis(as_submodule(theta), budget=budget)
    return all(membership(xi.components, basis) for xi in fields)


def suspend(
    problem: HypersurfaceProblem,
    g: Polynomial | None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[HypersurfaceProblem, DerivationModule]:
    """Suspend the problem by a germ g in fresh variables.

    The new problem keeps phi (same equation, larger ring) and replaces f by
    f + g; the tangent module of the suspended hypersurface is generated by
    the zero-extended old generators plus the unit fields along the new
    variables.  With g = None the problem is returned unchanged together
    with its own full tangent module.
    """
    if g is None:
        return problem, theta_full(problem.phi, budget=budget)
    if g.constant_term() != 0:
        raise GermError("invalid germ: g(0) != 0")
    old = problem.ctx
    fresh = g.ctx
    if set(old.names) & set(fresh.names):
        raise ContextError(
            f"suspension variables {fresh.names} clash with {old.names}"
        )
    big = VarContext(old.names + fresh.names)
    phi_big = problem.phi.embed(big)
    f_big = problem.f.embed(big) + g.embed(big)
    base = theta_full(problem.phi, budget=budget)
    zero = Polynomial.zero(big)
    gens: list[VectorField] = []
    for xi in base.gens:
        comps = [c.embed(big) for c in xi.components] + [zero] * fresh.n
        gens.append(VectorField(tuple(comps)))
    one = Polynomial.constant(big, 1)
    for j in range(fresh.n):
        comps = [zero] * big.n
        comps[old.n + j] = one
        gens.append(VectorField(tuple(comps)))
    cofactors = [a.embed(big) for a in base.cofactors] + [zero] * fresh.n
    new_problem = HypersurfaceProblem(ctx=big, phi=phi_big, f=f_big)
    return new_problem, DerivationModule(gens=tuple(gens), cofactors=tuple(cofactors))


def corpus_paths(prefix: str | None = None) -> list[Path]:
    paths = sorted(CORPUS_DIR.glob("*.brs"))
    if prefix is None:
        return paths
    return [p for p in paths if p.name.startswith(prefix)]


@pytest.fixture(scope="session")
def corpus_reports():
    """Every corpus problem analyzed once; reused by the slower suites."""
    from brs import analyze, parse_problem

    reports = {}
    for path in corpus_paths():
        parsed = parse_problem(path.read_text(encoding="utf-8"))
        reports[path.name] = analyze(parsed.problem, path=str(path))
    return reports
