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

Every colength takes the cheapest proof available (`_count`): the axis
certificate of infinite colength, then a stabilized jet walk, and only when
the walk hands the ideal back, a Mora standard basis.  The ledger is one
table (`_LEDGER`) that one loop evaluates.  Its containment rows run on the
jet models of the ideals involved, and an ideal without one is wrapped in
`_MoraIdeal`, which answers the same questions from a Mora standard basis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Sequence, Union

from .oracle import (
    DEFAULT_CAP,
    INCONCLUSIVE,
    JetModel,
    axis_certificate,
    extended_jet_model,
    jet_model,
    oracle_colength,
)
from .polycore import Polynomial, VarContext, jacobian_ideal, minors_2x2
from .stdbasis import (
    DEFAULT_BUDGET,
    Ideal,
    NOT_FINITE,
    StandardBasis,
    Value,
    colength,
    ideal_colon,
    is_finite,
    membership,
    standard_basis,
)
from .tangent import (
    HypersurfaceProblem,
    df_ideal,
    df_trivial_ideal,
    theta_full,
)

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
    ideals: dict[str, Ideal] = field(default_factory=dict)
    colengths: dict[str, Value] = field(default_factory=dict)
    # How each colength was proven: "certificate", "jet" or "mora".
    routes: dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return any(e.status == "fail" for e in self.ledger)

    @property
    def gated(self) -> tuple[LedgerEntry, ...]:
        return tuple(e for e in self.ledger if e.status != "skip")


# ---------------------------------------------------------------------------
# colengths


class _Count:
    """A colength and its proof: route "certificate", "jet" (with its model) or "mora"."""

    __slots__ = ("value", "route", "model")

    def __init__(self, value: Value, route: str, model: JetModel | None = None):
        self.value = value
        self.route = route
        self.model = model


def _count(
    I: Ideal,
    budget: int,
    base: JetModel | None = None,
    extra: Ideal | None = None,
    floor: int = 0,
) -> _Count:
    """Colength of I with the cheapest proof that settles it.

    `base`, when given, is the certified model of an ideal that together
    with `extra` generates I; the model of I then extends it instead of
    walking from d = 1, and always exists.  An ideal with a model has no
    axis certificate, and neither has any ideal containing it.  `floor` is
    passed on to the walk: the level of an ideal known to contain I.
    """
    if base is not None:
        model = extended_jet_model(base, extra.gens)
    elif axis_certificate(I):
        return _Count(NOT_FINITE, "certificate")
    else:
        model = jet_model(I, floor=floor)
    if model is not None:
        return _Count(model.colength, "jet", model)
    return _Count(colength(I, budget=budget), "mora")


# ---------------------------------------------------------------------------
# the individual invariants


def milnor(f: Polynomial, *, budget: int = DEFAULT_BUDGET) -> Value:
    """Milnor number: colength of the Jacobian ideal."""
    return _count(Ideal(f.ctx, jacobian_ideal(f)), budget).value


def tjurina(phi: Polynomial, *, budget: int = DEFAULT_BUDGET) -> Value:
    """Tjurina number: colength of (phi) + Jacobian ideal of phi."""
    gens = [phi] + jacobian_ideal(phi)
    return _count(Ideal(phi.ctx, gens), budget).value


def _legreuel_ideal(phi: Polynomial, f: Polynomial) -> Ideal:
    return Ideal(phi.ctx, [phi] + minors_2x2(f, phi))


def fiber_milnor(phi: Polynomial, f: Polynomial, *, budget: int = DEFAULT_BUDGET) -> Value:
    """Milnor number of the fibre, via the Le-Greuel relation.

    mu(X) + mu(fibre) = colength((phi) + minors(f, phi)); the left summand is
    subtracted off.  Not finite when the pair (phi, f) fails to cut out an
    isolated complete intersection.
    """
    total = _count(_legreuel_ideal(phi, f), budget).value
    mu_x = milnor(phi, budget=budget)
    if not (is_finite(total) and is_finite(mu_x)):
        return NOT_FINITE
    return total - mu_x


def bruce_roberts(phi: Polynomial, f: Polynomial, *, budget: int = DEFAULT_BUDGET) -> Value:
    """Bruce-Roberts number of f with respect to {phi = 0}."""
    theta = theta_full(phi, budget=budget)
    return _count(df_ideal(f, theta), budget).value


def relative_bruce_roberts(
    phi: Polynomial, f: Polynomial, *, budget: int = DEFAULT_BUDGET
) -> Value:
    """Relative Bruce-Roberts number: df(tangent module) plus (phi)."""
    theta = theta_full(phi, budget=budget)
    return _count(df_ideal(f, theta) + Ideal(phi.ctx, [phi]), budget).value


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
    ctx = problem.ctx
    used = problem.phi.support_vars()
    ext_idx = [i for i in range(ctx.n) if i not in used]
    if not ext_idx:
        return None
    base_idx = [i for i in range(ctx.n) if i in used]
    base_terms = []
    ext_terms = []
    for m, c in problem.f.terms:
        has_base = any(m.exponents[i] for i in base_idx)
        has_ext = any(m.exponents[i] for i in ext_idx)
        if has_base and has_ext:
            return None
        (ext_terms if has_ext else base_terms).append((m, c))
    g_big = Polynomial(ctx, ext_terms)
    if g_big.is_zero():
        return None
    base_ctx = VarContext(ctx.names[i] for i in base_idx)
    ext_ctx = VarContext(ctx.names[i] for i in ext_idx)
    return SplitParts(
        base_ctx=base_ctx,
        ext_ctx=ext_ctx,
        phi_base=problem.phi.restrict(base_ctx),
        f_base=Polynomial(ctx, base_terms).restrict(base_ctx),
        g=g_big.restrict(ext_ctx),
    )


# ---------------------------------------------------------------------------
# ledger construction


def _finite_product(a: Value, b: Value) -> Value:
    if is_finite(a) and is_finite(b):
        return a * b
    return NOT_FINITE


def _values_equal(a: Value, b: Value) -> bool:
    if is_finite(a) and is_finite(b):
        return a == b
    return not is_finite(a) and not is_finite(b)


def _value_out(v: Value) -> LedgerValue:
    return v if is_finite(v) else "infinite"


class _MoraIdeal:
    """An ideal without a jet model, answering what a `JetModel` answers.

    Its Mora standard basis is completed on first use and kept.
    """

    __slots__ = ("ideal", "budget", "_basis")

    def __init__(self, ideal: Ideal, budget: int):
        self.ideal = ideal
        self.budget = budget
        self._basis: StandardBasis | None = None

    def contains_all(self, gens: Sequence[Polynomial]) -> bool:
        if self._basis is None:
            self._basis = standard_basis(self.ideal, budget=self.budget)
        return all(membership(g, self._basis) for g in gens)

    def colon(self, divisors: Sequence[Polynomial]) -> "_MoraIdeal":
        quotient = ideal_colon(self.ideal, Ideal(self.ideal.ctx, divisors), budget=self.budget)
        return _MoraIdeal(quotient, self.budget)

    def generators(self) -> list[Polynomial]:
        return list(self.ideal.gens)


def _colon_vs_jf(v: SimpleNamespace, key: str) -> tuple[bool, bool]:
    """Whether (I : phi) lies in Jf, and Jf in (I : phi), for I counted under `key`.

    Computed once per run and ideal.  `v.models` holds Jf ("mu_f"), df_X
    ("br") and df_T ("trivial"), each as its jet model or, without one, as
    a `_MoraIdeal`, so the check takes one path on either engine; when both
    sides are jet models, the colon's columns are reduced in Jf's echelon
    directly.
    """
    if key not in v.colons:
        jf, colon = v.models["mu_f"], v.models[key].colon([v.phi])
        if isinstance(jf, JetModel) and isinstance(colon, JetModel):
            inside = jf.contains_ideal(colon)
        else:
            inside = jf.contains_all(colon.generators())
        v.colons[key] = (inside, colon.contains_all(v.Jf.gens))
    return v.colons[key]


NOT_IHS = "mu_X is not finite (the hypersurface is not an IHS)"


@dataclass(frozen=True)
class _Row:
    """One ledger identity, read off the run's facts `v` (a namespace).

    An "equal" row passes when `lhs(v)` equals `rhs(v)`; a "mutual" row
    holds two containments and passes when both are true.  The row is
    skipped with NOT_IHS when it needs an IHS and mu_X is not finite, else
    with `reason` when a value named in `finite` is not finite.
    """

    name: str
    kind: str  # "equal" | "mutual"
    ihs: bool
    finite: tuple[str, ...]
    reason: str
    lhs: Callable[[SimpleNamespace], LedgerValue]
    rhs: Callable[[SimpleNamespace], LedgerValue]


_LEDGER = (
    _Row("relbr-sum", "equal", True, ("mu_BR_rel", "mu_fiber", "tau_X"),
         "mu_BR_rel or mu_fiber is not finite",
         lambda v: v.mu_BR_rel, lambda v: v.mu_fiber + v.mu_X - v.tau_X),
    _Row("br-split", "equal", False, ("mu_BR", "mu_f", "mu_BR_rel"),
         "mu_BR is not finite",
         lambda v: v.mu_BR, lambda v: v.mu_f + v.mu_BR_rel),
    _Row("br-sum", "equal", False, ("mu_BR", "mu_f", "mu_fiber", "mu_X", "tau_X"),
         "mu_BR or a right-hand invariant is not finite",
         lambda v: v.mu_BR, lambda v: v.mu_f + v.mu_fiber + v.mu_X - v.tau_X),
    _Row("dim-rel-trivial", "equal", True, ("mu_BR_rel", "tau_X", "trivial_rel"),
         "mu_BR_rel is not finite",
         lambda v: v.trivial_rel - v.mu_BR_rel, lambda v: v.tau_X),
    _Row("dim-trivial", "equal", True, ("mu_BR", "tau_X", "trivial"),
         "mu_BR is not finite",
         lambda v: v.trivial - v.mu_BR, lambda v: v.tau_X),
    # df_X cap (phi) inside phi * Jf, and phi * Jf inside df_X cap (phi).  The
    # local ring is a domain, so df_X cap (phi) is phi * (df_X : phi), and it
    # lies in phi * Jf exactly when df_X : phi lies in Jf; every generator of
    # phi * Jf is a multiple of phi, so it lies in the intersection when it
    # lies in df_X.
    _Row("intersect-product", "mutual", True, ("mu_BR_rel",),
         "mu_BR_rel is not finite",
         lambda v: _colon_vs_jf(v, "br")[0],
         lambda v: v.models["br"].contains_all([g * v.phi for g in v.Jf.gens])),
    _Row("quotient-milnor", "equal", False, ("mu_BR", "mu_BR_rel", "mu_f"),
         "mu_BR is not finite",
         lambda v: v.mu_BR - v.mu_BR_rel, lambda v: v.mu_f),
    _Row("colon-full", "mutual", True, ("mu_BR_rel",),
         "mu_BR_rel is not finite",
         lambda v: _colon_vs_jf(v, "br")[0], lambda v: _colon_vs_jf(v, "br")[1]),
    _Row("colon-trivial", "mutual", True, ("mu_BR_rel",),
         "mu_BR_rel is not finite",
         lambda v: _colon_vs_jf(v, "trivial")[0], lambda v: _colon_vs_jf(v, "trivial")[1]),
    # dim Theta_X / Theta_X^T, counted on ideals.  For an IHS, J_phi is
    # generated by a regular sequence, so the kernel of xi -> dphi(xi) is
    # the Koszul syzygies, the Hamiltonian fields, which lie in Theta_X^T.
    # dphi therefore induces Theta_X / Theta_X^T = phi * A / phi * J_phi,
    # with A the ideal of theta_full's cofactors (dphi(xi_k) = a_k * phi).
    # The ring is a domain, so that is A / J_phi, of dimension
    # mu_X - colength(J_phi + A), counted by extending mu_X's model like
    # tau_X.  J_phi + A is not in the report's ideals: the oracle adds no row.
    _Row("tau-module", "equal", True, ("tau_X",),
         NOT_IHS,
         lambda v: v.mu_X - _count(v.J_phi + v.A, v.budget, v.J_phi_model, v.A).value,
         lambda v: v.tau_X),
    _Row("icis-finiteness", "equal", True, (),
         "",
         lambda v: is_finite(v.mu_BR_rel), lambda v: is_finite(v.legreuel)),
)

# Rows of a suspended problem (`detect_split`): always gated.
_SPLIT_LEDGER = (
    _Row("susp-br-product", "equal", False, (), "",
         lambda v: v.mu_BR, lambda v: _finite_product(v.mu_g, v.base_br)),
    _Row("split-colength-product", "equal", False, (), "",
         lambda v: v.lifted, lambda v: _finite_product(v.base_tau, v.mu_g)),
    _Row("split-milnor-product", "equal", False, (), "",
         lambda v: v.mu_f, lambda v: _finite_product(v.mu_f_base, v.mu_g)),
)


def _evaluate(row: _Row, v: SimpleNamespace) -> LedgerEntry:
    if row.ihs and not is_finite(v.mu_X):
        return LedgerEntry(row.name, "skip", reason=NOT_IHS)
    if not all(is_finite(getattr(v, name)) for name in row.finite):
        return LedgerEntry(row.name, "skip", reason=row.reason)
    lhs, rhs = row.lhs(v), row.rhs(v)
    if row.kind == "mutual":
        return LedgerEntry(row.name, "pass" if lhs and rhs else "fail", lhs, rhs)
    status = "pass" if _values_equal(lhs, rhs) else "fail"
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
    ctx = problem.ctx
    phi, f = problem.phi, problem.f
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    ideals: dict[str, Ideal] = {}
    counts: dict[str, _Count] = {}

    def count(name: str, ideal: Ideal, base: str | None = None, floor: int = 0) -> Value:
        # With a `base`, `ideal` is I_X plus the ideal counted under that name,
        # and extends its model.  Otherwise `ideal` is walked from `floor`, the
        # level of an ideal known to contain it.
        ideals[name] = ideal
        model = counts[base].model if base else None
        counts[name] = _count(ideal, budget, model, I_X, floor)
        return counts[name].value

    def level(name: str) -> int:
        # The level of a counted ideal's model: a floor for any ideal inside it.
        model = counts[name].model
        return model.level if model else 0

    # Jacobian-route invariants (no tangent module involved).
    t0 = time.perf_counter()
    I_X = Ideal(ctx, [phi])
    Jf = Ideal(ctx, jacobian_ideal(f))
    mu_f = count("mu_f", Jf)
    mu_X = count("mu_X", Ideal(ctx, jacobian_ideal(phi)))
    tau_X = count("tau_X", I_X + ideals["mu_X"], base="mu_X")
    # df_T is the minors plus phi * Jf, and every minor lies in J_phi, so
    # df_T lies in (phi) + J_phi; the Le-Greuel ideal is df_T + (phi).
    count("trivial", df_trivial_ideal(f, phi), floor=level("tau_X"))
    lg_total = count("legreuel", _legreuel_ideal(phi, f), base="trivial", floor=level("tau_X"))
    # trivial_rel, df_T + (phi), is that ideal; the oracle reads its own generators.
    ideals["trivial_rel"] = ideals["trivial"] + I_X
    counts["trivial_rel"] = counts["legreuel"]
    mu_fiber = (
        lg_total - mu_X if (is_finite(lg_total) and is_finite(mu_X)) else NOT_FINITE
    )
    timings["jacobian_route"] = (time.perf_counter() - t0) * 1000

    # Tangent-module route.
    t0 = time.perf_counter()
    theta = theta_full(phi, budget=budget)
    timings["tangent_module"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    df_X = df_ideal(f, theta)
    mu_BR = count("br", df_X)
    mu_BR_rel = count("br_rel", df_X + I_X, base="br")
    timings["bruce_roberts"] = (time.perf_counter() - t0) * 1000

    # Identity ledger.
    t0 = time.perf_counter()
    models = {
        key: counts[key].model or _MoraIdeal(ideals[key], budget)
        for key in ("mu_f", "br", "trivial")
    }
    # What the rows read: each colength under its count name, the three
    # invariants named otherwise, and the ideals of the containment rows.
    facts = SimpleNamespace(
        **{name: c.value for name, c in counts.items()},
        mu_fiber=mu_fiber, mu_BR=mu_BR, mu_BR_rel=mu_BR_rel,
        phi=phi, Jf=Jf, budget=budget, models=models, colons={},
        J_phi=ideals["mu_X"], J_phi_model=counts["mu_X"].model, A=Ideal(ctx, theta.cofactors),
    )
    entries = [
        LedgerEntry(row.name, "skip", reason="disabled (pass --tau to enable)")
        if row.name == "tau-module" and not tau_check
        else _evaluate(row, facts)
        for row in _LEDGER
    ]

    split = detect_split(problem)
    if split is not None:
        g_milnor_ideal = Ideal(split.ext_ctx, jacobian_ideal(split.g))
        base_tau_ideal = Ideal(split.base_ctx, [split.phi_base] + jacobian_ideal(split.phi_base))
        lifted = Ideal(ctx, [p.embed(ctx) for p in base_tau_ideal.gens + g_milnor_ideal.gens])
        facts.mu_g = count("split_g_milnor", g_milnor_ideal)
        facts.base_br = bruce_roberts(split.phi_base, split.f_base, budget=budget)
        facts.base_tau = count("split_base_tau", base_tau_ideal)
        # `lifted` is the sum of these two ideals, in disjoint variables.
        # With levels a, b >= 1 its level is a + b - 1: a monomial of that
        # degree has degree at least a in the base variables or at least b
        # in the fresh ones.  A unit summand (level 0) makes the sum a unit.
        a, b = level("split_base_tau"), level("split_g_milnor")
        facts.lifted = count("split_lifted", lifted, floor=a + b - 1 if a and b else 0)
        facts.mu_f_base = milnor(split.f_base, budget=budget) if split.f_base else NOT_FINITE
        entries += [_evaluate(row, facts) for row in _SPLIT_LEDGER]
    timings["identities"] = (time.perf_counter() - t0) * 1000

    if oracle:
        # Each colength is checked by the engine that did not produce it:
        # jet values by a Mora standard basis, the rest by the jet oracle.
        t0 = time.perf_counter()
        for name in sorted(ideals):
            ideal = ideals[name]
            if ideal.ctx != ctx:
                continue  # oracle entries stay in the problem's own ring
            want = counts[name]
            if want.route == "jet":
                got = colength(ideal, budget=budget, jet_level=want.model.level)
            else:
                got = oracle_colength(ideal, cap=max_jet)
            row = f"oracle-{name}"
            if got is INCONCLUSIVE:
                reason = f"oracle inconclusive at max_jet={max_jet}"
                entries.append(LedgerEntry(row, "skip", reason=reason))
            else:
                status = "pass" if _values_equal(got, want.value) else "fail"
                entries.append(LedgerEntry(row, status, _value_out(got), _value_out(want.value)))
        timings["oracle"] = (time.perf_counter() - t0) * 1000

    timings["total"] = (time.perf_counter() - t_start) * 1000
    return InvariantReport(
        problem=problem,
        path=path,
        mu_f=mu_f,
        mu_X=mu_X,
        tau_X=tau_X,
        mu_fiber=mu_fiber,
        mu_BR=mu_BR,
        mu_BR_rel=mu_BR_rel,
        ledger=tuple(entries),
        timings_ms={k: round(v, 3) for k, v in timings.items()},
        ideals=ideals,
        colengths={name: c.value for name, c in counts.items()},
        routes={name: c.route for name, c in counts.items()},
    )
