"""Singularity invariants and the ledger of identities relating them.

The computed numbers, all exact colengths over the local ring:

  mu_f       Milnor number of f (Jacobian ideal)
  mu_X       Milnor number of the hypersurface germ X = {phi = 0}
  tau_X      Tjurina number of X
  mu_fiber   Milnor number of the fibre X intersect {f = 0}, obtained from
             the Le-Greuel relation: colength((phi) + minors(f, phi)) - mu_X
  mu_BR      Bruce-Roberts number: colength of df applied to the tangent module
  mu_BR_rel  relative Bruce-Roberts number: the same plus the ideal (phi)

The two sides of each ledger identity are computed along independent routes:
the left sides go through the syzygy-built tangent module, the right sides
only through Jacobians and minors, so an agreement is a genuine cross-check
rather than an algebraic tautology.  Identities whose hypotheses fail on a
given input (an infinite invariant, a hypersurface with non-isolated
singular locus) are reported as skipped with a reason, never as failures.

Every colength takes the cheapest proof available, made by the ideal itself
(`stdbasis.Ideal.count`): the certificate of infinite colength, then a
stabilized jet walk, and only when the walk hands the ideal back, the
standard monomials of its Mora run, which prove a finite colength together
with a level for its jet model.  So every finite count carries a model.  The
counted ideals are one table (`_IDEALS`), each declared once with its
relations to earlier ones, from which one loop (`_count_stage`) takes the
model to extend, the walk's floor, and the inclusion certificate: an ideal
inside one of infinite colength is infinite.  Each `Ideal` holds its own
proof: its count, its model or where its walk gave up, its one Mora run and
its colon, so nothing proven is proven again, and this module reads only
the engines' public names.
The ledger is one table (`_LEDGER`) whose rows declare their hypotheses as
gates, and one function (`_evaluate`) decides every row, the `oracle-*`
rows built from the reported ideals among them: the other engine counts
each distinct ideal once.  The containment rows ask the ideals involved,
which answer from their jet models, or, of infinite colength, from a Mora
standard basis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Union

from .oracle import DEFAULT_CAP, INCONCLUSIVE, NOT_FINITE, Value, check_cap, is_finite, oracle_colength
from .polycore import Polynomial, VarContext, jacobian_ideal, minors_2x2
from .stdbasis import DEFAULT_BUDGET, Ideal, colength
from .tangent import HypersurfaceProblem, df_ideal, df_trivial_ideal, theta_full

Status = str  # "pass" | "fail" | "skip"
LedgerValue = Union[int, bool, str, None]


@dataclass(frozen=True)
class LedgerEntry:
    name: str
    status: Status
    lhs: LedgerValue = None
    rhs: LedgerValue = None
    reason: str | None = None


@dataclass
class InvariantReport:
    """Everything computed for one problem, plus the identity ledger."""

    problem: HypersurfaceProblem
    path: str | None
    mu_f: Value
    mu_X: Value
    tau_X: Value
    mu_fiber: Value
    mu_BR: Value
    mu_BR_rel: Value
    ledger: tuple[LedgerEntry, ...]
    timings_ms: dict[str, float] = field(default_factory=dict)
    # The reported ideals, each with its count's proof (`Ideal.route`).
    ideals: dict[str, Ideal] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return any(e.status == "fail" for e in self.ledger)

    @property
    def gated(self) -> tuple[LedgerEntry, ...]:
        return tuple(e for e in self.ledger if e.status != "skip")


# ---------------------------------------------------------------------------
# the individual invariants


def milnor(f: Polynomial, *, budget: int = DEFAULT_BUDGET) -> Value:
    """Milnor number: colength of the Jacobian ideal."""
    return Ideal(f.ctx, jacobian_ideal(f)).count(budget)


def tjurina(phi: Polynomial, *, budget: int = DEFAULT_BUDGET) -> Value:
    """Tjurina number: colength of (phi) + Jacobian ideal of phi."""
    return Ideal(phi.ctx, [phi] + jacobian_ideal(phi)).count(budget)


def fiber_milnor(phi: Polynomial, f: Polynomial, *, budget: int = DEFAULT_BUDGET) -> Value:
    """Milnor number of the fibre, via the Le-Greuel relation.

    mu(X) + mu(fibre) = colength((phi) + minors(f, phi)); the left summand is
    subtracted off.  Not finite when the pair (phi, f) fails to cut out an
    isolated complete intersection.
    """
    mu_x = milnor(phi, budget=budget)
    if not is_finite(mu_x):  # not an IHS: infinite, whatever the Le-Greuel count
        return NOT_FINITE
    total = Ideal(phi.ctx, [phi] + minors_2x2(f, phi)).count(budget)
    return total - mu_x if is_finite(total) else NOT_FINITE


def bruce_roberts(phi: Polynomial, f: Polynomial, *, budget: int = DEFAULT_BUDGET) -> Value:
    """Bruce-Roberts number of f with respect to {phi = 0}."""
    theta = theta_full(phi, budget=budget)
    return df_ideal(f, theta).count(budget)


def relative_bruce_roberts(
    phi: Polynomial, f: Polynomial, *, budget: int = DEFAULT_BUDGET
) -> Value:
    """Relative Bruce-Roberts number: df(tangent module) plus (phi)."""
    theta = theta_full(phi, budget=budget)
    return (df_ideal(f, theta) + Ideal(phi.ctx, [phi])).count(budget)


# ---------------------------------------------------------------------------
# split (suspension) detection


@dataclass(frozen=True)
class SplitParts:
    """A problem of the shape F = f(base vars) + g(fresh vars), phi base-only."""

    base_ctx: VarContext
    ext_ctx: VarContext
    phi_base: Polynomial
    f_base: Polynomial
    g: Polynomial


def detect_split(problem: HypersurfaceProblem) -> SplitParts | None:
    """Recognize a suspended problem from its variable usage.

    Requires phi to miss at least one variable and f to split into a part in
    the phi-variables plus a nonzero part in the remaining ones, with no
    mixed term.
    """
    ctx, used = problem.ctx, problem.phi.support_vars()
    base_idx = [i for i in range(ctx.n) if i in used]
    ext_idx = [i for i in range(ctx.n) if i not in used]
    terms: tuple[list, list] = ([], [])  # f's terms in the base, and in the fresh variables
    for m, c in problem.f.terms:
        has_base = any(m.exponents[i] for i in base_idx)
        has_ext = any(m.exponents[i] for i in ext_idx)
        if has_base and has_ext:
            return None
        terms[has_ext].append((m, c))
    g = Polynomial(ctx, terms[1])
    if g.is_zero():  # also when phi misses no variable
        return None
    base_ctx = VarContext(ctx.names[i] for i in base_idx)
    ext_ctx = VarContext(ctx.names[i] for i in ext_idx)
    f_base = Polynomial(ctx, terms[0]).embed(base_ctx)
    phi_base = problem.phi.embed(base_ctx)
    return SplitParts(base_ctx, ext_ctx, phi_base, f_base, g.embed(ext_ctx))


# ---------------------------------------------------------------------------
# the counted ideals


@dataclass(frozen=True)
class _Counted:
    """An ideal I that `analyze` counts, declared once with what is known of it.

    `build(v)` makes I from the run's facts `v`, in the problem's ring or
    in that of a part of a suspension, or None when I is not counted on the
    problem; I is counted in the `timings_ms` stage `stage`.  The report
    lists the `reported` counts, and `--oracle` checks those in the
    problem's ring.  A relation to an earlier entry K is a fact proven by the
    builder or in a comment at the entry, never checked at run time, and
    void when K is not counted:

      "sum K extra"    I is K plus the generators of the fact `extra`, so its
                       model extends K's;
      "inside K"       I lies in K: K's level is a floor for I's walk, and if
                       K is infinite, so is I (the inclusion certificate);
      "disjoint K L"   I is K + L in disjoint variables: with levels a, b >= 1
                       its level is a + b - 1, a floor (R/I is R/K tensor R/L,
                       and a monomial of that degree has degree at least a in
                       K's variables or b in L's);
      "equal K"        I is K on other generators, and shares K's count.
    """

    name: str
    stage: str
    build: Callable[[SimpleNamespace], Union[Ideal, None]]
    relations: tuple[str, ...] = ()
    reported: bool = True


def _minors(v: SimpleNamespace) -> tuple[Polynomial, ...]:
    # df_T is the minors of (f, phi), then phi * g for each generator g of Jf.
    df_T = v.ideals["trivial"].gens
    return df_T[: len(df_T) - len(v.ideals["mu_f"].gens)]


def _base_tjurina(v: SimpleNamespace) -> Ideal | None:
    # (phi) + J_phi in the ring of the variables phi uses, where a row reads
    # it: the split rows, and the `br` gate when X is no IHS.  None when phi
    # uses every variable (X is then no suspension).
    used = sorted(v.phi.support_vars())
    if len(used) == v.ctx.n or not (v.split or _not_ihs(v.mu_X, v.ctx.n)):
        return None
    base = VarContext(v.ctx.names[i] for i in used)
    phi = v.phi.embed(base)
    return Ideal(base, [phi] + jacobian_ideal(phi))


def _embedded(v: SimpleNamespace, *names: str) -> Ideal:
    # The generators of the ideals counted under `names`, in order, in the problem's ring.
    return Ideal(v.ctx, [p.embed(v.ctx) for name in names for p in v.ideals[name].gens])


_IDEALS = (
    _Counted("mu_f", "jacobian_route", lambda v: Ideal(v.ctx, jacobian_ideal(v.f))),
    # J_phi is Jf when f = phi (the `degen_*` files): one ideal, with one proof.
    _Counted("mu_X", "jacobian_route",
             lambda v: v.ideals["mu_f"] if v.f == v.phi else Ideal(v.ctx, jacobian_ideal(v.phi))),
    _Counted("tau_X", "jacobian_route", lambda v: v.I_X + v.ideals["mu_X"], ("sum mu_X I_X",)),
    # df_T is the minors plus phi * Jf, and every minor lies in J_phi.
    _Counted("trivial", "jacobian_route", lambda v: df_trivial_ideal(v.f, v.phi),
             ("inside tau_X",)),
    # The Le-Greuel ideal (phi) + minors is df_T + (phi), inside (phi) + J_phi.
    _Counted("legreuel", "jacobian_route", lambda v: Ideal(v.ctx, [v.phi, *_minors(v)]),
             ("sum trivial I_X", "inside tau_X")),
    _Counted("trivial_rel", "jacobian_route", lambda v: v.ideals["trivial"] + v.I_X,
             ("equal legreuel",)),
    _Counted("split_g_milnor", "bruce_roberts",
             lambda v: v.split and Ideal(v.split.ext_ctx, jacobian_ideal(v.split.g))),
    _Counted("split_base_br", "bruce_roberts",
             lambda v: v.split and df_ideal(v.split.f_base, v.theta)),
    # A suspension's Theta_X is the unit fields of the fresh variables and the
    # base fields (Der(-log X x C) = Der(-log X) + O * d/dz, K. Saito, 1980):
    # df takes them to J_g and the base df_X, embedded in that order.
    _Counted("br", "bruce_roberts",
             lambda v: _embedded(v, "split_g_milnor", "split_base_br") if v.split
             else df_ideal(v.f, v.theta), ("disjoint split_base_br split_g_milnor",)),
    _Counted("br_rel", "bruce_roberts", lambda v: v.ideals["br"] + v.I_X, ("sum br I_X",)),
    # Counted on a suspension where a row reads it (`_base_tjurina`).
    _Counted("split_base_tau", "identities", _base_tjurina),
    _Counted("split_lifted", "identities",
             lambda v: v.split and _embedded(v, "split_base_tau", "split_g_milnor"),
             ("disjoint split_base_tau split_g_milnor",)),
    _Counted("split_f_milnor", "identities",
             lambda v: v.split and Ideal(v.split.base_ctx, jacobian_ideal(v.split.f_base))),
    # J_phi + A for the `tau-module` row, counted only where the row reads it.
    _Counted("tau_module", "identities",
             lambda v: None if _GATES["tau"](v) or _GATES["ihs"](v) else v.ideals["mu_X"] + v.A,
             ("sum mu_X A",), reported=False),
)


def _level(K: Ideal) -> int:
    # The level of K's model: a floor for the walk of any ideal inside K.
    return K.model.level if K.model else 0


def _count_stage(v: SimpleNamespace, stage: str) -> None:
    """Count the entries of `_IDEALS` in `stage`, each as its relations allow.

    They give the model to extend, the floor, or a count with no work (an
    equal ideal's, or the inclusion certificate); an ideal the builder
    takes from an earlier entry keeps its count.  Each ideal and its value
    are kept on `v` under the entry's name.
    """
    for entry in _IDEALS:
        if entry.stage != stage or (ideal := entry.build(v)) is None:
            continue
        base = extra = None
        floor = 0
        for kind, key, *more in map(str.split, entry.relations):
            K = v.ideals.get(key)
            if K is None:
                continue
            if kind == "equal":
                ideal.value, ideal.route, ideal.model = K.value, K.route, K.model
            elif kind == "sum":
                base, extra = K.model, getattr(v, more[0])
            elif kind == "inside" and not is_finite(K.value):
                ideal.value, ideal.route = NOT_FINITE, "certificate"
            elif kind == "inside":
                floor = max(floor, _level(K))
            else:  # "disjoint"; a unit summand (level 0) makes the sum a unit
                a, b = _level(K), _level(v.ideals[more[0]])
                floor = max(floor, a + b - 1 if a and b else 0)
        ideal.count(v.budget, base, extra, floor)
        v.ideals[entry.name] = ideal
        setattr(v, entry.name, ideal.value)


# ---------------------------------------------------------------------------
# ledger construction


def _finite_product(a: Value, b: Value) -> Value:
    # colength(K + L), K and L in disjoint variables: R/(K + L) is R1/K tensor R2/L.
    if a == 0 or b == 0:
        return 0
    return a * b if is_finite(a) and is_finite(b) else NOT_FINITE


def _value_out(v: Value) -> LedgerValue:
    return v if is_finite(v) else "infinite"


def _colon(v: SimpleNamespace, key: str) -> Ideal:
    # (I : phi) for the ideal I counted under `key`, kept on I for every row.
    return v.ideals[key].colon([v.phi], v.budget)


def _other_count(v: SimpleNamespace, I: Ideal) -> Value:
    # I's colength by the engine that did not count it, once per ideal, which
    # two names may share: jet values by a Mora count, the rest by the oracle.
    key = id(I)  # every ideal lives on `v` for the whole run
    if key not in v.checked:
        jet = I.route == "jet"
        v.checked[key] = colength(I, budget=v.budget) if jet else oracle_colength(I, cap=v.max_jet)
    return v.checked[key]


def _not_ihs(mu: Value, n: int) -> str | None:
    # Why {phi = 0} in n variables is no IHS, or None; mu is its Milnor or
    # Tjurina number (finite together).  In two or more variables a finite mu
    # isolates the singular point, so phi is reduced; in one, only mu = 0 does.
    if not is_finite(mu):
        return "mu_X is not finite (the hypersurface is not an IHS)"
    return "phi is not reduced (mu_X > 0 in one variable)" if n == 1 and mu else None


def _not_br(v: SimpleNamespace) -> str | None:
    # mu_BR = mu_f + mu_BR_rel needs X to be an IHS or the suspension of one.
    base = v.ideals.get("split_base_tau")
    if _not_ihs(v.mu_X, v.ctx.n) and (base is None or _not_ihs(base.value, base.ctx.n)):
        return "X is neither an IHS nor the suspension of one"
    return None


# The hypotheses a row may need: each gives why the row is skipped, or None.
_GATES: dict[str, Callable[[SimpleNamespace], Union[str, None]]] = {
    "tau": lambda v: None if v.tau_check else "disabled (pass --tau to enable)",
    "ihs": lambda v: _not_ihs(v.mu_X, v.ctx.n),
    "br": _not_br,
}


@dataclass(frozen=True)
class _Row:
    """One ledger identity, read off the run's facts `v` (a namespace).

    An "equal" row passes when `lhs(v)` equals `rhs(v)`; a "mutual" row
    holds two containments and passes when both are true.  Its hypotheses,
    in order: a `split` row is left out unless the problem is a suspension;
    the row is skipped with the reason of the first gate of `needs`
    (`_GATES`) that fails, else with `reason` when a value named in
    `finite` is not finite or its left side is Inconclusive.
    """

    name: str
    kind: str  # "equal" | "mutual"
    needs: tuple[str, ...]
    finite: tuple[str, ...]
    reason: str
    lhs: Callable[[SimpleNamespace], LedgerValue]
    rhs: Callable[[SimpleNamespace], LedgerValue]
    split: bool = False


_LEDGER = (
    _Row("relbr-sum", "equal", ("ihs",), ("mu_BR_rel", "mu_fiber", "tau_X"),
         "mu_BR_rel or mu_fiber is not finite",
         lambda v: v.mu_BR_rel, lambda v: v.mu_fiber + v.mu_X - v.tau_X),
    _Row("br-split", "equal", ("br",), ("mu_BR", "mu_f", "mu_BR_rel"),
         "mu_BR is not finite",
         lambda v: v.mu_BR, lambda v: v.mu_f + v.mu_BR_rel),
    _Row("br-sum", "equal", ("br",), ("mu_BR", "mu_f", "mu_fiber", "mu_X", "tau_X"),
         "mu_BR or a right-hand invariant is not finite",
         lambda v: v.mu_BR, lambda v: v.mu_f + v.mu_fiber + v.mu_X - v.tau_X),
    _Row("dim-rel-trivial", "equal", ("ihs",), ("mu_BR_rel", "tau_X", "trivial_rel"),
         "mu_BR_rel is not finite",
         lambda v: v.trivial_rel - v.mu_BR_rel, lambda v: v.tau_X),
    _Row("dim-trivial", "equal", ("ihs",), ("mu_BR", "tau_X", "trivial"),
         "mu_BR is not finite",
         lambda v: v.trivial - v.mu_BR, lambda v: v.tau_X),
    # df_X cap (phi) inside phi * Jf, and phi * Jf inside df_X cap (phi).  The
    # local ring is a domain, so df_X cap (phi) is phi * (df_X : phi), and it
    # lies in phi * Jf exactly when df_X : phi lies in Jf; every generator of
    # phi * Jf is a multiple of phi, so it lies in the intersection when it
    # lies in df_X.
    _Row("intersect-product", "mutual", ("ihs",), ("mu_BR_rel",),
         "mu_BR_rel is not finite",
         lambda v: v.ideals["mu_f"].contains_ideal(_colon(v, "br"), v.budget),
         lambda v: v.ideals["br"].contains_all(
             [g * v.phi for g in v.ideals["mu_f"].gens], v.budget)),
    _Row("quotient-milnor", "equal", ("br",), ("mu_BR", "mu_BR_rel", "mu_f"),
         "mu_BR is not finite",
         lambda v: v.mu_BR - v.mu_BR_rel, lambda v: v.mu_f),
    _Row("colon-full", "mutual", ("ihs",), ("mu_BR_rel",),
         "mu_BR_rel is not finite",
         lambda v: v.ideals["mu_f"].contains_ideal(_colon(v, "br"), v.budget),
         lambda v: _colon(v, "br").contains_ideal(v.ideals["mu_f"], v.budget)),
    _Row("colon-trivial", "mutual", ("ihs",), ("mu_BR_rel",),
         "mu_BR_rel is not finite",
         lambda v: v.ideals["mu_f"].contains_ideal(_colon(v, "trivial"), v.budget),
         lambda v: _colon(v, "trivial").contains_ideal(v.ideals["mu_f"], v.budget)),
    # dim Theta_X / Theta_X^T, counted on ideals.  For an IHS, J_phi is
    # generated by a regular sequence, so the kernel of xi -> dphi(xi) is
    # the Koszul syzygies, the Hamiltonian fields, which lie in Theta_X^T.
    # dphi therefore induces Theta_X / Theta_X^T = phi * A / phi * J_phi,
    # with A the ideal of theta_full's cofactors (dphi(xi_k) = a_k * phi).
    # The ring is a domain, so that is A / J_phi, of dimension
    # mu_X - colength(J_phi + A), the count `tau_module`.
    _Row("tau-module", "equal", ("tau", "ihs"), (), "",
         lambda v: v.mu_X - v.tau_module, lambda v: v.tau_X),
    _Row("icis-finiteness", "equal", ("ihs",), (),
         "",
         lambda v: is_finite(v.mu_BR_rel), lambda v: is_finite(v.legreuel)),
    # The rows of a suspended problem (`detect_split`).
    _Row("susp-br-product", "equal", (), (), "", lambda v: v.mu_BR,
         lambda v: _finite_product(v.split_g_milnor, v.split_base_br), split=True),
    _Row("split-colength-product", "equal", (), (), "", lambda v: v.split_lifted,
         lambda v: _finite_product(v.split_base_tau, v.split_g_milnor), split=True),
    _Row("split-milnor-product", "equal", (), (), "", lambda v: v.mu_f,
         lambda v: _finite_product(v.split_f_milnor, v.split_g_milnor), split=True),
)


def _oracle_row(name: str, max_jet: int) -> _Row:
    # The count of the ideal reported as `name`, made again by the other engine.
    return _Row(f"oracle-{name}", "equal", (), (), f"oracle inconclusive at max_jet={max_jet}",
                lambda v: _other_count(v, v.ideals[name]), lambda v: v.ideals[name].value)


def _evaluate(row: _Row, v: SimpleNamespace) -> LedgerEntry | None:
    """The row's entry, or None for a `split` row of a problem that is no suspension."""
    if row.split and not v.split:
        return None
    for gate in row.needs:
        if reason := _GATES[gate](v):
            return LedgerEntry(row.name, "skip", reason=reason)
    if not all(is_finite(getattr(v, name)) for name in row.finite):
        return LedgerEntry(row.name, "skip", reason=row.reason)
    lhs, rhs = row.lhs(v), row.rhs(v)
    if lhs is INCONCLUSIVE:
        return LedgerEntry(row.name, "skip", reason=row.reason)
    if row.kind == "mutual":
        return LedgerEntry(row.name, "pass" if lhs and rhs else "fail", lhs, rhs)
    status = "pass" if lhs == rhs else "fail"  # NOT_FINITE equals only itself
    return LedgerEntry(row.name, status, _value_out(lhs), _value_out(rhs))


def analyze(
    problem: HypersurfaceProblem,
    *,
    path: str | None = None,
    oracle: bool = False,
    max_jet: int = DEFAULT_CAP,
    tau_check: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> InvariantReport:
    """Compute all invariants of a problem and verify the identity ledger."""
    if oracle:
        check_cap(max_jet)
    ctx = problem.ctx
    timings: dict[str, float] = {}
    t_start = t0 = time.perf_counter()
    # The run's facts: what the builders of `_IDEALS` and the ledger rows read.
    v = SimpleNamespace(
        ctx=ctx, phi=problem.phi, f=problem.f, budget=budget, max_jet=max_jet,
        tau_check=tau_check, I_X=Ideal(ctx, [problem.phi]), ideals={}, checked={},
    )

    # Jacobian-route invariants (no tangent module involved).
    _count_stage(v, "jacobian_route")
    finite = is_finite(v.legreuel) and is_finite(v.mu_X)
    v.mu_fiber = v.legreuel - v.mu_X if finite else NOT_FINITE
    timings["jacobian_route"] = (time.perf_counter() - t0) * 1000

    # Tangent-module route.  A suspended X takes the module of its base: its
    # fields' cofactors, and with the unit fields of the fresh variables, df_X.
    t0 = time.perf_counter()
    v.split = detect_split(problem)
    v.theta = theta_full(v.split.phi_base if v.split else v.phi, budget=budget)
    v.A = Ideal(ctx, [a.embed(ctx) for a in v.theta.cofactors])
    timings["tangent_module"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    _count_stage(v, "bruce_roberts")
    v.mu_BR, v.mu_BR_rel = v.br, v.br_rel
    timings["bruce_roberts"] = (time.perf_counter() - t0) * 1000

    # Identity ledger.
    t0 = time.perf_counter()
    _count_stage(v, "identities")
    entries = [entry for row in _LEDGER if (entry := _evaluate(row, v))]
    timings["identities"] = (time.perf_counter() - t0) * 1000

    reported = [e for e in _IDEALS if e.reported and e.name in v.ideals]
    if oracle:
        # Each colength in the problem's ring, checked by the other engine.
        t0 = time.perf_counter()
        names = sorted(e.name for e in reported if v.ideals[e.name].ctx == ctx)
        entries += [_evaluate(_oracle_row(name, max_jet), v) for name in names]
        timings["oracle"] = (time.perf_counter() - t0) * 1000

    timings["total"] = (time.perf_counter() - t_start) * 1000
    return InvariantReport(
        problem=problem, path=path, mu_f=v.mu_f, mu_X=v.mu_X, tau_X=v.tau_X,
        mu_fiber=v.mu_fiber, mu_BR=v.mu_BR, mu_BR_rel=v.mu_BR_rel, ledger=tuple(entries),
        timings_ms={k: round(t, 3) for k, t in timings.items()},
        ideals={e.name: v.ideals[e.name] for e in reported},
    )
