"""Derivation modules of a hypersurface germ and the ideals they induce.

For a germ X = {phi = 0} the vector fields tangent to X form the module
of logarithmic derivations: all xi with dphi(xi) in the ideal (phi).  Two
generating sets matter here:

* the trivial fields phi*d/dx_i together with the Hamiltonian fields
  phi_{x_k} d/dx_j - phi_{x_j} d/dx_k, which are tangent identically, and
* the full module, computed as the projection to the first n coordinates of
  the syzygies of (phi_{x_1}, ..., phi_{x_n}, phi).

Pairing either module with df yields the ideals whose colengths are the
Bruce-Roberts style invariants downstream: `df_ideal` for the full module,
and `df_trivial_ideal`, in closed form, for the trivial fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GermError
from .polycore import Polynomial, VarContext, VectorField, dot, minors_2x2, require_same_ctx
from .stdbasis import DEFAULT_BUDGET, Ideal, _schreyer_rows, _vector


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
    cofactors: tuple[Polynomial, ...]  # dphi(gens[k]) = cofactors[k] * phi


def theta_full(phi: Polynomial, *, budget: int = DEFAULT_BUDGET) -> DerivationModule:
    """Full module of tangent fields via syzygies.

    A vector field xi is tangent exactly when dphi(xi) = a*phi for some a,
    that is when (xi_1, ..., xi_n, -a) is a syzygy of the partials of phi
    followed by phi itself.  Generators are not minimized: only the ideals
    df(theta) and (a) matter downstream and minimization changes no
    invariant.  Each syzygy is checked to be a relation in the kernel's
    integer terms (`_schreyer_rows`), before it becomes a vector field and
    its cofactor a.
    """
    if phi.is_zero() or phi.constant_term() != 0:
        raise GermError("phi must be a nonzero germ vanishing at 0")
    ctx = phi.ctx
    n = ctx.n
    inputs = [(phi.partial(i),) for i in range(n)] + [(phi,)]
    gens, cofactors = [], []
    for row in _schreyer_rows(inputs, ctx, 1, budget):
        if any(row[:n]):
            gens.append(VectorField(_vector(ctx, row[:n])))
            cofactors.append(-_vector(ctx, row[n:])[0])
    return DerivationModule(gens=tuple(gens), cofactors=tuple(cofactors))


def suspended_theta(theta: DerivationModule, ctx: VarContext) -> DerivationModule:
    """The tangent module of X x C^k in `ctx`, from X's module `theta`.

    Der(-log X x C) = Der(-log X) + O * d/dz (K. Saito, 1980).  The unit
    fields of the variables of `ctx` that X's ring lacks come first, in
    variable order, then X's fields and cofactors embedded: exactly what
    `theta_full(phi)` returns for phi in `ctx`, whose Schreyer run collects
    the row of each zero partial as it enters and then repeats the run in
    X's variables pair for pair (the order ignores a variable no term has).
    """
    base = theta.cofactors[0].ctx
    zero, one = Polynomial.zero(ctx), Polynomial.constant(ctx, 1)
    gens, cofactors = [], []
    for i, name in enumerate(ctx.names):
        if name not in base.names:
            gens.append(VectorField(tuple(one if j == i else zero for j in range(ctx.n))))
            cofactors.append(zero)
    for xi, a in zip(theta.gens, theta.cofactors):
        comps = dict(zip(base.names, xi.components))
        field = tuple(comps[name].embed(ctx) if name in comps else zero for name in ctx.names)
        gens.append(VectorField(field))
        cofactors.append(a.embed(ctx))
    return DerivationModule(gens=tuple(gens), cofactors=tuple(cofactors))


def df_ideal(f: Polynomial, theta: DerivationModule) -> Ideal:
    """The ideal generated by df(xi) over the module generators, in order.

    Each df(xi) = sum_i xi_i * f_i is summed in one term dict and sorted once (`dot`).
    """
    partials = [f.partial(i) for i in range(f.ctx.n)]
    return Ideal(f.ctx, [dot(f.ctx, xi.components, partials) for xi in theta.gens])


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
