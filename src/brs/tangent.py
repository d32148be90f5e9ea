"""Derivation modules of a hypersurface germ and the ideals they induce.

For a germ X = {phi = 0} the vector fields tangent to X form the module
of logarithmic derivations: all xi with dphi(xi) in the ideal (phi).  Two
generating sets matter here:

* the trivial fields phi*d/dx_i together with the Hamiltonian fields
  phi_{x_k} d/dx_j - phi_{x_j} d/dx_k, which are tangent identically, and
* the full module, computed as the projection to the first n coordinates of
  the syzygies of (phi_{x_1}, ..., phi_{x_n}, phi).

Pairing either module with df yields the ideals whose colengths are the
Bruce-Roberts style invariants downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ContextError, GermError, InternalError
from .polycore import Polynomial, VarContext, VectorField, minors_2x2, require_same_ctx
from .stdbasis import (
    DEFAULT_BUDGET,
    Ideal,
    Submodule,
    _is_relation,
    _schreyer_rows,
    _to_ivecs,
    _vector,
    membership,
    standard_basis,
)


@dataclass(frozen=True)
class HypersurfaceProblem:
    """The pair (phi, f): a hypersurface germ and a function germ on it."""

    ctx: VarContext
    phi: Polynomial
    f: Polynomial

    def __post_init__(self):
        require_same_ctx(self.ctx, self.phi.ctx)
        require_same_ctx(self.ctx, self.f.ctx)
        if self.phi.is_zero():
            raise GermError("phi must be nonzero")
        if self.phi.constant_term() != 0:
            raise GermError("invalid germ: phi(0) != 0")
        if self.f.constant_term() != 0:
            raise GermError("invalid germ: f(0) != 0")


@dataclass(frozen=True)
class DerivationModule:
    """Generators of a module of vector fields tangent to the hypersurface."""

    gens: tuple[VectorField, ...]
    flavor: str  # "trivial" or "full"

    @property
    def ctx(self) -> VarContext:
        return self.gens[0].ctx

    def as_submodule(self) -> Submodule:
        ctx = self.ctx
        return Submodule(ctx, ctx.n, [xi.components for xi in self.gens])


def df_pair(f: Polynomial, xi: VectorField) -> Polynomial:
    """The pairing df(xi) = sum_i xi_i * (df/dx_i)."""
    require_same_ctx(f.ctx, xi.ctx)
    return _paired([f.partial(i) for i in range(f.ctx.n)], xi)


def _paired(partials: Sequence[Polynomial], xi: VectorField) -> Polynomial:
    """sum_i xi_i * partials[i], for partials computed once per caller."""
    total = Polynomial.zero(xi.ctx)
    for component, partial in zip(xi.components, partials):
        if not component.is_zero():
            total = total + component * partial
    return total


def theta_trivial(phi: Polynomial) -> DerivationModule:
    """Trivial tangent fields: phi*d/dx_i, then Hamiltonians by (j, k).

    Exactly n + n*(n-1)/2 generators; for one variable the Hamiltonian list
    is empty and only phi*d/dx remains.
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
    return DerivationModule(gens=tuple(gens), flavor="trivial")


def theta_full(phi: Polynomial, *, budget: int = DEFAULT_BUDGET) -> DerivationModule:
    """Full module of tangent fields via syzygies.

    A vector field xi is tangent exactly when dphi(xi) = -a*phi for some a,
    that is when (xi_1, ..., xi_n, a) is a syzygy of the partials of phi
    followed by phi itself.  Generators are not minimized: only the ideal
    df(theta) matters downstream and minimization changes no invariant.
    Each syzygy is checked to be a relation in the kernel's integer terms,
    before it becomes a vector field.
    """
    if phi.is_zero() or phi.constant_term() != 0:
        raise GermError("phi must be a nonzero germ vanishing at 0")
    ctx = phi.ctx
    n = ctx.n
    inputs = [(phi.partial(i),) for i in range(n)] + [(phi,)]
    _, scaled = _to_ivecs(inputs)
    gens = []
    for row in _schreyer_rows(inputs, ctx, 1, budget):
        if not _is_relation(row, scaled):
            raise InternalError("syzygy output is not tangent to the hypersurface")
        if any(row[:n]):
            gens.append(VectorField(_vector(ctx, row[:n])))
    return DerivationModule(gens=tuple(gens), flavor="full")


def df_ideal(f: Polynomial, theta: DerivationModule) -> Ideal:
    """The ideal generated by df(xi) over the module generators, in order."""
    partials = [f.partial(i) for i in range(f.ctx.n)]
    return Ideal(f.ctx, [_paired(partials, xi) for xi in theta.gens])


def df_trivial_ideal(f: Polynomial, phi: Polynomial) -> Ideal:
    """df of the trivial fields, in closed form.

    Generators: the 2x2 Jacobian minors of (f, phi), then each f-partial
    multiplied by phi.  Equals df_ideal(f, theta_trivial(phi)) as an ideal;
    the two constructions are cross-checked in the test suite.
    """
    require_same_ctx(f.ctx, phi.ctx)
    gens = list(minors_2x2(f, phi))
    gens += [phi * f.partial(i) for i in range(f.ctx.n)]
    return Ideal(f.ctx, gens)


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
    new_problem = HypersurfaceProblem(ctx=big, phi=phi_big, f=f_big)
    return new_problem, DerivationModule(gens=tuple(gens), flavor="full")


def theta_contains(
    theta: DerivationModule,
    fields: Sequence[VectorField],
    *,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Module membership of each field in the generated tangent module."""
    basis = standard_basis(theta.as_submodule(), budget=budget)
    return all(membership(xi.components, basis) for xi in fields)
