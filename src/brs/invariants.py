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
the walk hands the ideal back, a Mora standard basis.  A jet model also
carries the colon, membership and equality checks of the ledger; the Mora
operations run only for ideals without one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Union

from .oracle import (
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
    ideal_intersection,
    ideal_product,
    is_finite,
    membership,
    module_quotient_dim,
    standard_basis,
)
from .tangent import (
    HypersurfaceProblem,
    df_ideal,
    df_trivial_ideal,
    theta_full,
    theta_trivial,
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


def _count(I: Ideal, budget: int, base: JetModel | None = None, extra: Ideal | None = None) -> _Count:
    """Colength of I with the cheapest proof that settles it.

    `base`, when given, is the certified model of an ideal that together
    with `extra` generates I; the model of I then extends it instead of
    walking from d = 1.  An ideal with a model has no axis certificate, and
    neither has any ideal containing it.
    """
    if base is not None:
        model = extended_jet_model(I, base, extra.gens)
    elif axis_certificate(I):
        return _Count(NOT_FINITE, "certificate")
    else:
        model = jet_model(I)
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


class _SBCache:
    def __init__(self, budget: int):
        self.budget = budget
        self._cache: dict[Ideal, StandardBasis] = {}

    def basis(self, I: Ideal) -> StandardBasis:
        basis = self._cache.get(I)
        if basis is None:
            basis = standard_basis(I, budget=self.budget)
            self._cache[I] = basis
        return basis

    def contains(self, big: Ideal, small: Ideal) -> bool:
        basis = self.basis(big)
        return all(membership(g, basis) for g in small.gens)


def _numeric_entry(name: str, gate_ok: bool, reason: str, lhs: Value, rhs: Value) -> LedgerEntry:
    if not gate_ok:
        return LedgerEntry(name=name, status="skip", reason=reason)
    status = "pass" if _values_equal(lhs, rhs) else "fail"
    return LedgerEntry(name=name, status=status, lhs=_value_out(lhs), rhs=_value_out(rhs))


def _mutual_entry(name: str, forward: bool, backward: bool) -> LedgerEntry:
    status = "pass" if (forward and backward) else "fail"
    return LedgerEntry(name=name, status=status, lhs=forward, rhs=backward)


def _ideal_entries(
    phi: Polynomial,
    Jf: Ideal,
    df_X: Ideal,
    df_T: Ideal,
    counts: dict[str, _Count],
    budget: int,
) -> dict[str, LedgerEntry]:
    """`intersect-product`, `colon-full` and `colon-trivial`, all gates open.

    With jet models of Jf and of the dividend, each check is linear algebra
    in R/m^N.  The intersection df_X cap (phi) is phi * (df_X : phi), and
    phi*k lies in phi*Jf exactly when k lies in Jf (the local ring is a
    domain), so it needs no intersection of its own.  Without models, Mora
    standard bases decide.
    """
    I_X = Ideal(phi.ctx, [phi])
    prod = ideal_product(Jf, I_X)
    m_f = counts["mu_f"].model
    entries: dict[str, LedgerEntry] = {}
    colons: dict[str, Ideal] = {}
    for name, key, dividend in (("colon-full", "br", df_X), ("colon-trivial", "trivial", df_T)):
        model = counts[key].model
        if m_f is None or model is None:
            colons[name] = dividend
            continue
        colon = model.colon([phi])
        inside_jf = m_f.contains_all(colon.generators())
        entries[name] = _mutual_entry(name, inside_jf, colon.contains_all(Jf.gens))
        if key == "br":
            # Each generator of Jf*(phi) is a multiple of phi by construction.
            entries["intersect-product"] = _mutual_entry(
                "intersect-product", inside_jf, model.contains_all(prod.gens)
            )
    if not colons:
        return entries
    cache = _SBCache(budget)
    if "colon-full" in colons:
        # Mutual membership without ever completing the intersection's own
        # generators: p lies in the intersection exactly when it lies in both
        # factors, and the factors have well-behaved bases.
        inter = ideal_intersection(df_X, I_X, budget=budget)
        entries["intersect-product"] = _mutual_entry(
            "intersect-product",
            cache.contains(prod, inter),
            all(
                membership(h, cache.basis(df_X), budget=budget)
                and membership(h, cache.basis(I_X), budget=budget)
                for h in prod.gens
            ),
        )
    for name, dividend in colons.items():
        colon = ideal_colon(dividend, I_X, budget=budget)
        entries[name] = _mutual_entry(name, cache.contains(Jf, colon), cache.contains(colon, Jf))
    return entries


def analyze(
    problem: HypersurfaceProblem,
    *,
    path: str | None = None,
    oracle: bool = False,
    max_jet: int = 32,
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

    def count(name: str, ideal: Ideal, base: str | None = None) -> Value:
        # With a `base`, `ideal` is I_X plus the ideal counted under that name.
        ideals[name] = ideal
        model = counts[base].model if base else None
        counts[name] = _count(ideal, budget, model, I_X)
        return counts[name].value

    # Jacobian-route invariants (no tangent module involved).
    t0 = time.perf_counter()
    I_X = Ideal(ctx, [phi])
    Jf = Ideal(ctx, jacobian_ideal(f))
    mu_f = count("mu_f", Jf)
    mu_X = count("mu_X", Ideal(ctx, jacobian_ideal(phi)))
    tau_X = count("tau_X", I_X + ideals["mu_X"], base="mu_X")
    lg_total = count("legreuel", _legreuel_ideal(phi, f))
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
    df_T = df_trivial_ideal(f, phi)
    mu_BR = count("br", df_X)
    mu_BR_rel = count("br_rel", df_X + I_X, base="br")
    c_df_T = count("trivial", df_T)
    c_df_T_rel = count("trivial_rel", df_T + I_X, base="trivial")
    timings["bruce_roberts"] = (time.perf_counter() - t0) * 1000

    # Identity ledger.
    t0 = time.perf_counter()
    entries: list[LedgerEntry] = []
    ihs = is_finite(mu_X)
    not_ihs = "mu_X is not finite (the hypersurface is not an IHS)"

    gate_e3 = ihs and is_finite(mu_BR_rel) and is_finite(mu_fiber) and is_finite(tau_X)
    entries.append(
        _numeric_entry(
            "relbr-sum",
            gate_e3,
            not_ihs if not ihs else "mu_BR_rel or mu_fiber is not finite",
            mu_BR_rel,
            (mu_fiber + mu_X - tau_X) if gate_e3 else NOT_FINITE,
        )
    )
    gate_e2 = is_finite(mu_BR) and is_finite(mu_f) and is_finite(mu_BR_rel)
    entries.append(
        _numeric_entry(
            "br-split",
            gate_e2,
            "mu_BR is not finite",
            mu_BR,
            (mu_f + mu_BR_rel) if gate_e2 else NOT_FINITE,
        )
    )
    gate_e1 = (
        is_finite(mu_BR)
        and is_finite(mu_f)
        and is_finite(mu_fiber)
        and is_finite(mu_X)
        and is_finite(tau_X)
    )
    entries.append(
        _numeric_entry(
            "br-sum",
            gate_e1,
            "mu_BR or a right-hand invariant is not finite",
            mu_BR,
            (mu_f + mu_fiber + mu_X - tau_X) if gate_e1 else NOT_FINITE,
        )
    )
    gate_t1 = ihs and is_finite(mu_BR_rel) and is_finite(tau_X) and is_finite(c_df_T_rel)
    entries.append(
        _numeric_entry(
            "dim-rel-trivial",
            gate_t1,
            not_ihs if not ihs else "mu_BR_rel is not finite",
            (c_df_T_rel - mu_BR_rel) if gate_t1 else NOT_FINITE,
            tau_X,
        )
    )
    gate_t2 = ihs and is_finite(mu_BR) and is_finite(tau_X) and is_finite(c_df_T)
    entries.append(
        _numeric_entry(
            "dim-trivial",
            gate_t2,
            not_ihs if not ihs else "mu_BR is not finite",
            (c_df_T - mu_BR) if gate_t2 else NOT_FINITE,
            tau_X,
        )
    )
    gate_ideal = ihs and is_finite(mu_BR_rel)
    reason_ideal = not_ihs if not ihs else "mu_BR_rel is not finite"
    if gate_ideal:
        ideal_entries = _ideal_entries(phi, Jf, df_X, df_T, counts, budget)
    else:
        ideal_entries = {
            name: LedgerEntry(name, "skip", reason=reason_ideal)
            for name in ("intersect-product", "colon-full", "colon-trivial")
        }
    entries.append(ideal_entries["intersect-product"])
    gate_e4 = is_finite(mu_BR) and is_finite(mu_BR_rel) and is_finite(mu_f)
    entries.append(
        _numeric_entry(
            "quotient-milnor",
            gate_e4,
            "mu_BR is not finite",
            (mu_BR - mu_BR_rel) if gate_e4 else NOT_FINITE,
            mu_f,
        )
    )
    entries.append(ideal_entries["colon-full"])
    entries.append(ideal_entries["colon-trivial"])

    if not tau_check:
        entries.append(
            LedgerEntry("tau-module", "skip", reason="disabled (pass --tau to enable)")
        )
    elif not (ihs and is_finite(tau_X)):
        entries.append(LedgerEntry("tau-module", "skip", reason=not_ihs))
    else:
        dim = module_quotient_dim(
            theta_trivial(phi).as_submodule(),
            theta.as_submodule(),
            budget=budget,
            dim_hint=tau_X,
        )
        entries.append(
            _numeric_entry("tau-module", True, "", dim, tau_X)
        )

    if ihs:
        entries.append(
            LedgerEntry(
                "icis-finiteness",
                "pass" if is_finite(mu_BR_rel) == is_finite(lg_total) else "fail",
                lhs=is_finite(mu_BR_rel),
                rhs=is_finite(lg_total),
            )
        )
    else:
        entries.append(LedgerEntry("icis-finiteness", "skip", reason=not_ihs))

    split = detect_split(problem)
    if split is not None:
        g_milnor_ideal = Ideal(split.ext_ctx, jacobian_ideal(split.g))
        mu_g = count("split_g_milnor", g_milnor_ideal)
        mu_base_br = bruce_roberts(split.phi_base, split.f_base, budget=budget)
        entries.append(
            _numeric_entry(
                "susp-br-product",
                True,
                "",
                mu_BR,
                _finite_product(mu_g, mu_base_br),
            )
        )
        base_tau_ideal = Ideal(split.base_ctx, [split.phi_base] + jacobian_ideal(split.phi_base))
        lifted = Ideal(
            ctx,
            [p.embed(ctx) for p in base_tau_ideal.gens]
            + [p.embed(ctx) for p in g_milnor_ideal.gens],
        )
        lifted_colength = count("split_lifted", lifted)
        base_tau = count("split_base_tau", base_tau_ideal)
        entries.append(
            _numeric_entry(
                "split-colength-product",
                True,
                "",
                lifted_colength,
                _finite_product(base_tau, mu_g),
            )
        )
        mu_f_base = milnor(split.f_base, budget=budget) if split.f_base else NOT_FINITE
        entries.append(
            _numeric_entry(
                "split-milnor-product",
                True,
                "",
                mu_f,
                _finite_product(mu_f_base, mu_g),
            )
        )
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
            if got is INCONCLUSIVE:
                entries.append(
                    LedgerEntry(
                        f"oracle-{name}",
                        "skip",
                        reason=f"oracle inconclusive at max_jet={max_jet}",
                    )
                )
            else:
                entries.append(
                    LedgerEntry(
                        f"oracle-{name}",
                        "pass" if _values_equal(got, want.value) else "fail",
                        lhs=_value_out(got),
                        rhs=_value_out(want.value),
                    )
                )
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


def verify_identities(problem: HypersurfaceProblem, **kwargs) -> tuple[LedgerEntry, ...]:
    """The identity ledger of `analyze`, for callers that only want verdicts."""
    return analyze(problem, **kwargs).ledger
