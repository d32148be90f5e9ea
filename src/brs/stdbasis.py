"""Standard bases over the local ring and the operations built on them.

Local orderings are not well-founded, so ordinary polynomial division need
not terminate; Mora's weak normal form restores termination by reducing
against previously seen partial remainders and always preferring a reducer of
minimal ecart (the degree spread between a polynomial's tail and its leading
term).  The completion loop is Buchberger's with the chain criterion only:
the coprime-lead (product) criterion is unsound for local orders and is
deliberately absent.

Everything here works uniformly on vectors of polynomials; an ideal is the
rank-1 case.  Submodules are needed twice over: syzygy computation (which
powers the logarithmic derivation module and module quotient dimensions) and
the one ideal quotient behind colons and intersections, {c : c*v in
I_1*e_1 + ... + I_k*e_k}, read off one syzygy run and degree-capped when
every I_i is zero-dimensional (`_syzygy_quotient`).

The kernel (completion, weak normal form, S-vectors) runs on integer terms:
a polynomial is a tuple of (key, c) pairs, key the monomial's
`Monomial.sort_key()` and c an integer, so each order decision compares the
same tuples as `Polynomial`.  Inputs are cleared of denominators once, by
`polycore.integral_terms`, from the integer form each polynomial keeps for
both engines (so an exponent above 65535 raises BrsError here too), and
results become `Polynomial`s with `int` coefficients once, on the way out;
a row tracked by a syzygy run carries one integer denominator.  An `Ideal`
holds its proofs, and nothing else writes them: its count (`Ideal.count`,
which alone chooses the proof), its one Mora run (`Ideal.mora`), read by
every basis, count and degree bound of it, and the other engine's check
(`Ideal.check`).  A degree-capped run (`_capped_run`) leaves the monomials
of degree cap implicit: they form no pair, reduce nothing, and join the basis
at the end where no kept lead divides them; a count (`colength`) builds
neither them nor the basis, since the run's proof lists the standard ones.

Colengths, memberships and quotient dimensions are exact; infinite dimensions
are reported as the NOT_FINITE value rather than as errors, because several
of the theorems under test use finiteness itself as a predicate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd, lcm
from operator import add, le, sub
from typing import Generator, Iterable, Sequence, Union

from .errors import BrsError, BudgetError, ContainmentError, ContextError, InternalError
from .oracle import (  # noqa: F401  (NotFiniteType is re-exported)
    NOT_FINITE,
    JetModel,
    NotFiniteType,
    OracleValue,
    Value,
    _walk,
    certificate,
    extended_jet_model,
    is_finite,
    jet_model,
    module_jet_quotient_dim,
    note,
    oracle_colength,
)
from .polycore import (
    Monomial,
    Polynomial,
    VarContext,
    exponents_of_degree,
    integral_terms,
    require_same_ctx,
)

DEFAULT_BUDGET = 200_000
FIRST_ALLOWANCE = 1000  # the Mora pairs of a count's first round; each round doubles them

Vec = tuple[Polynomial, ...]


# ---------------------------------------------------------------------------
# public containers


class Ideal:
    """Finitely generated ideal; generator order is preserved, zeros dropped.

    It alone writes what is proven about it, made once and read by every
    later call, whatever budget that call passes: its colength `value`, the
    proof's `route`, "certificate", "jet" or "mora", its certified jet
    `model`, and the cap `reach` that its count's walks reached without a
    model, a floor for every later walk (`count` writes them all); its one
    Mora run (`mora`) and the other engine's count (`check`).  It answers
    `contains_all`, `contains_ideal` and `colon` from its model when it has
    one, and from Mora otherwise, and keeps the colon it took last.
    """

    __slots__ = (
        "ctx", "gens", "value", "route", "model", "reach", "_extends", "_mora", "_paused", "_checked", "_colon"
    )

    def __init__(self, ctx: VarContext, gens: Iterable[Polynomial]):
        kept = []
        for g in gens:
            require_same_ctx(ctx, g.ctx)
            if not g.is_zero():
                kept.append(g)
        self.ctx = ctx
        self.gens = tuple(kept)
        self.value = self.route = self.model = self.reach = None
        self._extends = self._mora = self._paused = self._checked = self._colon = None

    def count(
        self,
        budget: int,
        *,
        equal: "Ideal | None" = None,
        extends: "tuple[Ideal, Ideal] | None" = None,
        within: Sequence["Ideal"] = (),
        disjoint: Sequence[tuple["Ideal", "Ideal"]] = (),
    ) -> Value:
        """The colength of I, this ideal, by the first proof found; nothing else picks the proof.

        Made once: a known value returns at once, whatever the arguments.
        The keywords are facts about ideals K, L counted before I, taken on
        trust and applied in this order.  `equal=K`: I = K, and shares K's
        count.  `within=[K, ...]`: I lies in each K, so it is infinite when
        some K is (the inclusion certificate, with no walk).  `extends=(K,
        extra)`: I = K + extra, so I's model extends K's, if any, by extra's
        generators, with no walk (an ideal with a model has no certificate,
        nor has any containing it).  Otherwise `certificate`, the oracle's
        own, decides, or rounds do, from a floor: the top level of the K
        `within`, and a + b - 1 for `disjoint=[(K, L), ...]`, I = K + L in
        disjoint variables at levels a, b >= 1 (R/I is R/K tensor R/L, and a
        monomial of that degree has degree at least a in K's variables or b
        in L's); a summand with no model reads as 0, and a unit summand gives
        I a unit generator, which the walk reads first.  Round one walks from
        the floor to a cap n + 1 past the larger of the floor and the top
        generator degree + 2 (n variables), then makes I's Mora run (`mora`)
        under an allowance of FIRST_ALLOWANCE pairs; each later round doubles
        both, walks on from the cap the last reached (`reach`) and resumes the
        run where the last allowance stopped it, so no echelon is built twice
        and no run starts twice.  The first model or finished run wins.  With
        N = 1 + the top degree of a standard monomial of a finite run, m^N
        lies in I (the highest-corner bound), so a walk capped at N + 1 stops
        by N, and its model must count what Mora counted: every finite count
        has a model.  All rounds draw on one meter of `budget` (`_Budget`);
        BudgetError names I, the round, the level the walks reached and the
        Mora pairs treated.
        """
        if self.value is not None:
            return self.value
        note("count", self, None)
        self._extends = extends
        if equal is not None:
            equal.count(budget)
            self.route, self.model = equal.route, equal.model
        elif any(K.value is NOT_FINITE for K in within):
            self.route = "certificate"
        elif extends and extends[0].model:
            self.model, self.route = extended_jet_model(extends[0].model, extends[1].gens), "jet"
        elif certificate(self):
            self.route = "certificate"
        else:
            floors = [K.model.level for K in within if K.model]
            floors += [sum(K.model.level if K.model else 0 for K in pair) - 1 for pair in disjoint]
            self._rounds(budget, max(floors, default=0))
        self.value = self.model.colength if self.model else NOT_FINITE
        return self.value

    def _rounds(self, budget: int, floor: int) -> None:
        # The rounds of `count`: they write the model, the route and the reach.
        meter = _Budget(budget)
        cap = max(floor, max((g.degree() for g in self.gens), default=0) + 2) + self.ctx.n + 1
        pairs, rounds = FIRST_ALLOWANCE, 1
        try:
            while not (model := jet_model(self, cap, max(floor, self.reach or 0), meter.charge_columns)):
                self.reach = cap
                meter.allow(pairs)
                try:
                    exps = self.mora(meter)[2]
                    break
                except BudgetError:
                    if meter.spent:
                        raise
                finally:
                    meter.allow(budget)
                cap, pairs, rounds = 2 * cap, 2 * pairs, rounds + 1
            self.route = "jet" if model else "mora"
            if not model and exps is not None:
                level = 1 + max((sum(e) for e in exps), default=-1)
                model = jet_model(self, level + 1, level, meter.charge_columns)
                if model is None or model.colength != len(exps):
                    raise InternalError(f"the jet model at level {level} disagrees with Mora's colength")
            self.model = model
        except BudgetError:
            spent = f"jets to level {self.reach or 0} and {meter.pairs - meter.columns} treated Mora pairs"
            raise BudgetError(budget, f"round {rounds} of the count of {self}, with {spent}") from None

    def mora(
        self, budget: "int | _Budget"
    ) -> tuple[list["_Entry"], int | None, list[tuple[int, ...]] | None]:
        """The ideal's one Mora run, made on first use: kept entries, cap, standard exponents.

        An ideal with nothing proven about it is counted first.  The run is
        capped at the level of its model when it proves that level
        (`_capped_run`), else uncapped, and kept whatever budget a later call
        passes; an uncapped run that its budget stopped is kept paused, and
        the next call resumes it.  I, counted as K + extra (`count`'s
        `extends`) on exactly K's and extra's generators, continues K's kept
        capped run: extra's generators join K's kept entries under K's cap,
        with no pair among those formed again, and the proof at K's level N
        holds for I, since m^N lies in K, inside I; otherwise I makes its own
        run of its own generators.  The standard exponents are None when
        there are infinitely many.
        """
        if self.route is None and self.model is None and self.reach is None:
            self.count(budget)
        if self._mora is None:
            vecs, capped = [(g,) for g in self.gens], None
            if self.model:
                inputs, start, level = vecs, None, self.model.level
                K, extra = self._extends or (None, None)
                if K and K.model and set(self.gens) == set(K.gens + extra.gens):
                    kept, cap, _ = K.mora(budget)
                    if cap is not None:
                        inputs, start, level = [(g,) for g in extra.gens], kept, cap - 1
                capped = _capped_run(inputs, self.ctx, budget, level, start)
            if capped is not None:
                self._mora = capped[0], level + 1, capped[1]
            else:
                try:
                    run = self._paused
                    kept = _resume(run, budget) if run else _kept_entries(vecs, self.ctx, 1, budget)
                except BudgetError as stop:
                    self._paused = stop.paused
                    raise
                self._mora = kept, None, _standard_exponents([e.mono for e in kept], self.ctx.n)
        return self._mora

    def check(self, budget: int, cap: int) -> OracleValue:
        """I's colength by the engine that did not count it, made once and kept.

        A jet value by Mora (`colength`), any other by the jet oracle
        (`oracle_colength`, to level `cap`); later calls read what is kept.
        """
        if self._checked is None:
            jet = self.route == "jet"
            self._checked = colength(self, budget=budget) if jet else oracle_colength(self, cap)
        return self._checked

    def contains_all(self, gens: Sequence[Polynomial], budget: int) -> bool:
        """Whether every polynomial of `gens` lies in the ideal."""
        if self.model is not None:
            return self.model.contains_all(gens)
        basis = standard_basis(self, budget=budget)
        return all(membership(g, basis) for g in gens)

    def contains_ideal(self, other: "Ideal", budget: int) -> bool:
        """Whether the ideal `other` lies in this one.

        Asked of the columns of `other`'s model when both hold models and it
        has fewer columns than generators, as a colon's model does; else of
        `other`'s generators.
        """
        if self.model and other.model and len(other.model.ech.pivots) < len(other.gens):
            return self.model.contains_ideal(other.model)
        return self.contains_all(other.gens, budget)

    def colon(self, divisors: Sequence[Polynomial], budget: int) -> "Ideal":
        """The ideal quotient by `divisors`, kept; from a model, it holds the colon's model."""
        key = tuple(divisors)
        if self._colon is None or self._colon[0] != key:
            if self.model is None:
                quotient = ideal_colon(self, Ideal(self.ctx, divisors), budget=budget)
            else:
                model = self.model.colon(divisors)
                quotient = Ideal(self.ctx, model.generators())
                quotient.model = model
            self._colon = key, quotient
        return self._colon[1]

    def __add__(self, other: "Ideal") -> "Ideal":
        require_same_ctx(self.ctx, other.ctx)
        return Ideal(self.ctx, self.gens + other.gens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ideal) and self.ctx == other.ctx and self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.ctx.names, self.gens))

    def __repr__(self) -> str:
        return "Ideal(" + ", ".join(str(g) for g in self.gens) + ")"


class Submodule:
    """Finitely generated submodule of a free module of the given rank."""

    __slots__ = ("ctx", "rank", "gens")

    def __init__(self, ctx: VarContext, rank: int, gens: Iterable[Sequence[Polynomial]]):
        if rank < 1:
            raise ContextError("module rank must be positive")
        vecs = []
        for g in gens:
            v = tuple(g)
            if len(v) != rank:
                raise ContextError(f"generator of length {len(v)} in rank-{rank} module")
            for p in v:
                require_same_ctx(ctx, p.ctx)
            vecs.append(v)
        self.ctx = ctx
        self.rank = rank
        self.gens = tuple(vecs)

    def __repr__(self) -> str:
        return f"Submodule(rank={self.rank}, gens={len(self.gens)})"


@dataclass(frozen=True)
class StandardBasis:
    """A finished Mora standard basis of an ideal or submodule.

    `elements` are primitive (integer coefficients, content 1, positive
    leading sign) and inter-reduced in the minimal sense: no leading term
    divides another.  Tails are not reduced, because tail reduction need not
    terminate over a local order.
    """

    ctx: VarContext
    rank: int
    elements: tuple[Vec, ...]
    leading: tuple[tuple[int, Monomial], ...]


# ---------------------------------------------------------------------------
# integer terms
#
# Inside the kernel a polynomial is a tuple of (key, c) terms with integer
# c != 0, strictly descending in key, where key is `Monomial.sort_key()`,
# i.e. (-degree, reversed exponents): every order decision compares the
# same tuples as `Polynomial` does.  A vector is a tuple of these, one per
# component.  Inputs are cleared of denominators once (`integral_terms`)
# and results become `Polynomial`s once, on the way out.

Key = tuple[int, tuple[int, ...]]
IPoly = tuple[tuple[Key, int], ...]
IVec = tuple[IPoly, ...]


def _to_ivecs(vecs: Sequence[Vec], cap: int | None = None) -> tuple[int, list[IVec]]:
    """The vectors in integer terms, scaled by one common factor, and the factor.

    `integral_terms` follow `terms`, each read with its monomial's key.
    With a cap, the terms of degree cap or more are dropped.
    """
    polys = [p for v in vecs for p in v]
    den, scaled = integral_terms(polys)
    ipolys = (
        tuple((m.sort_key(), c) for (m, _), (_, d, c) in zip(p.terms, terms) if cap is None or d < cap)
        for p, terms in zip(polys, scaled)
    )
    return den, [tuple(next(ipolys) for _ in v) for v in vecs]


def _vector(ctx: VarContext, v: IVec) -> Vec:
    """The vector v as polynomials, with its integer coefficients."""
    return tuple(
        Polynomial._raw(ctx, tuple((Monomial._unchecked(e[::-1], -d), c) for (d, e), c in p))
        for p in v
    )


def _lead(v: IVec) -> tuple[int, Key, int] | None:
    """Component, key and coefficient of the leading term, term over position.

    The local order of the monomials decides; on a tie the lower component
    is the greater.
    """
    best = None
    for comp, p in enumerate(v):
        if p and (best is None or p[0][0] > best[1]):
            best = (comp, p[0][0], p[0][1])
    return best


def _maxdeg(v: IVec) -> int:
    # The last term of a polynomial has the lowest key: the largest degree.
    return max((-p[-1][0][0] for p in v if p), default=-1)


def _shift(p: IPoly, q: Key | None, cap: int | None) -> IPoly | list:
    """The terms of q*p (q a monomial key, None for 1) of degree below the cap."""
    if q is None and cap is None:
        return p
    qd, qe = q if q is not None else (0, None)
    out = []
    for (d, e), c in p:
        d += qd
        if cap is not None and -d >= cap:
            break  # degrees ascend along the terms
        out.append(((d, e if qe is None else tuple(map(add, e, qe))), c))
    return out


def _combine(
    x: int, qa: Key | None, a: IVec, y: int, qb: Key | None, b: IVec, cap: int | None = None
) -> IVec:
    """x*qa*a - y*qb*b componentwise, without the terms of degree cap or more."""
    out = []
    for pa, pb in zip(a, b):
        if not pb:
            out.append(tuple((k, x * c) for k, c in _shift(pa, qa, cap)))
            continue
        acc = {k: x * c for k, c in _shift(pa, qa, cap)}
        for k, c in _shift(pb, qb, cap):
            v = acc.get(k, 0) - y * c
            if v:
                acc[k] = v
            else:
                del acc[k]
        out.append(tuple(sorted(acc.items(), reverse=True)))
    return tuple(out)


def _primitive(v: IVec, row: IVec | None = None, den: int = 1) -> tuple[IVec, IVec | None, int]:
    """Divide by the content, signed so that the leading coefficient is positive.

    Scaling a weak normal form or a basis element by a nonzero rational is
    harmless everywhere (membership, colengths, spans are scale invariant)
    and keeps the integers small: without it, chains of Mora reductions blow
    coefficients up exponentially.  A tracked row, which gives v as row/den
    over the inputs, is divided too: it keeps integer terms and the content
    moves into the denominator.
    """
    g = gcd(*(c for p in v for _, c in p))
    if g == 0:
        return v, row, den
    if _lead(v)[2] < 0:
        g = -g
    if g == 1:
        return v, row, den
    v = tuple(tuple((k, c // g) for k, c in p) for p in v)
    if row is not None:
        den *= abs(g)
        r = gcd(den, *(c for p in row for _, c in p))
        r = r if g > 0 else -r
        row = tuple(tuple((k, c // r) for k, c in p) for p in row)
        den //= abs(r)
    return v, row, den


def _as_vecs(obj: Union[Ideal, Submodule]) -> tuple[VarContext, int, list[Vec]]:
    if isinstance(obj, Ideal):
        return obj.ctx, 1, [(g,) for g in obj.gens]
    return obj.ctx, obj.rank, list(obj.gens)


# ---------------------------------------------------------------------------
# Mora weak normal form


class _Entry:
    """A vector in integer terms with its leading term and ecart.

    `exps` are the reversed exponents of the leading monomial, as in its
    key.  In a tracked run `row`/`den` gives the vector over the inputs.
    """

    __slots__ = ("vec", "comp", "key", "exps", "deg", "coeff", "ecart", "row", "den")

    def __init__(self, vec: IVec, row: IVec | None = None, den: int = 1):
        lead = _lead(vec)
        if lead is None:
            raise InternalError("zero vector cannot become a basis entry")
        self.vec = vec
        self.comp, self.key, self.coeff = lead
        self.deg = -self.key[0]
        self.exps = self.key[1]
        self.ecart = _maxdeg(vec) - self.deg
        self.row = row
        self.den = den

    @property
    def mono(self) -> Monomial:
        return Monomial._unchecked(self.exps[::-1], self.deg)

    def divides(self, comp: int, deg: int, exps: tuple[int, ...]) -> bool:
        return self.comp == comp and self.deg <= deg and all(map(le, self.exps, exps))


class _Budget:
    """Work meter of one Mora run, or of all the walks and runs of one count.

    Mora reduction terminates in theory, but adversarial inputs can march
    through astronomically many or astronomically large steps; counting
    reduction steps alongside treated pairs makes both a BudgetError.  Pairs,
    and the columns a count's echelons store, are charged against `limit`,
    steps against ten times it, each once made (a pair the meter stops is
    charged when the resumed run treats it); `allow` narrows both to a
    round's allowance, and `spent` is whether the last stop was the budget's.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.pairs = self.steps = self.columns = 0
        self.spent = False
        self.allow(limit)

    def allow(self, pairs: int) -> None:
        self.pair_end = min(self.pairs + pairs, self.limit)
        self.step_end = min(self.steps + 10 * pairs, 10 * self.limit)

    def charge_pair(self, count: int = 1):
        if self.pairs + count > self.pair_end:
            self.spent = self.pair_end == self.limit
            raise BudgetError(self.limit)
        self.pairs += count

    def charge_columns(self, count: int):
        self.charge_pair(count)
        self.columns += count

    def charge_step(self):
        if self.steps >= self.step_end:
            self.spent = self.step_end == 10 * self.limit
            raise BudgetError(self.limit, stage="normal form reduction")
        self.steps += 1


def _nf_mora(
    h: IVec,
    reducers: Sequence[_Entry],
    row: IVec | None = None,
    den: int = 1,
    budget: _Budget | None = None,
    cap: int | None = None,
) -> tuple[IVec, IVec | None, int]:
    """Mora weak normal form of h against the reducer list.

    Returns r, with its tracked row and denominator, where u*h =
    sum(a_i * g_i) + c*r for a unit u and a nonzero scalar c; the leading
    term of r is divisible by no reducer's leading term (or r = 0).
    Termination relies on augmenting the reducer set with intermediate
    remainders whenever the chosen reducer has strictly larger ecart.  The
    remainder is content-stripped after every step: reductions are performed
    cross-multiplied so coefficients stay integral and small.  A tracked
    `row`/`den` (h over the run's inputs) follows every step.

    With a `cap` (untracked runs only), h has no term of degree cap or more,
    and the caller guarantees that the monomials of degree cap belong to the
    basis under construction; terms of degree >= cap are their multiples and
    are dropped as they appear.
    """
    pool = list(reducers)
    first = True
    while True:
        lead = _lead(h)
        if lead is None:
            return h, row, den
        comp, key, coeff = lead
        deg, exps = -key[0], key[1]
        best = None
        for e in pool:
            if e.divides(comp, deg, exps) and (best is None or e.ecart < best.ecart):
                best = e
        if best is None:
            return h, row, den
        if budget is not None:
            budget.charge_step()
        if not first:
            h, row, den = _primitive(h, row, den)
            coeff = h[comp][0][1]
        first = False
        if best.ecart > _maxdeg(h) - deg:
            # Remember the current partial remainder; a later step may divide
            # by it, which is what makes Mora reduction terminate locally.
            pool.append(_Entry(h, row, den))
        # Cross-multiplied step: lc(g)*h - lc(h)*q*g avoids denominators.
        q = (key[0] - best.key[0], tuple(map(sub, exps, best.exps)))
        h = _combine(best.coeff, None, h, coeff, q, best.vec, cap)
        if row is not None and best.row is not None:
            m = lcm(den, best.den)
            row = _combine(best.coeff * (m // den), None, row, coeff * (m // best.den), q, best.row)
            den = m


# ---------------------------------------------------------------------------
# completion


def _complete(inputs: list[Vec], ctx: VarContext, rank: int, budget: int, **run) -> list[_Entry]:
    """The standard basis of a run of `_kept_entries` (`run`: its keywords)."""
    return _finished(_kept_entries(inputs, ctx, rank, budget, **run), ctx.n, run.get("cap"))


def _finished(kept: list[_Entry], n: int, cap: int | None) -> list[_Entry]:
    """The basis of a run from its kept entries, in descending lead order.

    Under a degree `cap` the monomials of degree cap that no kept lead
    divides complete it: they are the implicit inputs of the capped run.
    """
    final = list(kept)
    for exps in exponents_of_degree(n, cap) if cap is not None else ():
        # Two monomials of degree cap never divide each other.
        rexps = exps[::-1]
        if not any(m.divides(0, cap, rexps) for m in kept):
            final.append(_Entry(((((-cap, rexps), 1),),)))
    final.sort(key=lambda e: (e.key, -e.comp), reverse=True)
    return final


def _kept_entries(
    inputs: list[Vec],
    ctx: VarContext,
    rank: int,
    budget: "int | _Budget",
    use_criteria: bool = True,
    collect: list[IVec] | None = None,
    cap: int | None = None,
    start: list[_Entry] | None = None,
) -> list[_Entry]:
    """Buchberger completion with Mora reduction (`_run`); the minimal entries it keeps.

    Pair selection is the normal strategy: lowest lcm degree first, ties by
    the (i, j) indices, so runs are reproducible.  Pair pruning uses the
    chain criterion in its Gebauer-Moeller form (old-pair cancellation plus
    lcm minimalization among new pairs); no coprimality shortcut, which would
    be unsound here.  `budget` is a pair limit, or the meter of the count
    that makes the run (`Ideal.count`).

    When `collect` is given, the run is tracked: every element carries a
    passenger row/den expressing it as an exact polynomial combination of
    the inputs (the rows take no part in lead or ecart decisions), inputs
    enter the basis verbatim, and the row of every vector that reduces to
    zero is appended to `collect`: those rows are exactly the Schreyer
    relations, and they generate the full syzygy module of the inputs (pairs
    pruned by the chain criterion contribute rows that are monomial
    combinations of collected ones).  An untracked run reads each input
    once: a repeat would reduce to zero.

    A run given a degree `cap` (`_capped_run`; rank 1, no `collect`)
    completes the inputs plus the monomials of degree cap and cannot march:
    every term of degree at least the cap is dropped from the inputs and
    from each reduction.  It also forms no pair whose lcm has
    degree at least the cap (the highest-corner bound): every term of such
    an S-polynomial has degree at least the lcm's, since leading terms have
    the lowest degree, so the capped normal form would empty it.  Such pairs
    sort after all others, and no other pair's chain criterion looks at
    them, so the basis and the order in which the remaining pairs are
    treated do not change.  The monomials of degree cap are therefore left
    implicit: they would enter after the inputs with no pairs, and no
    reduction could use them, since every lead it meets lies below the cap;
    they are not among the entries returned (`_complete` adds those no kept
    lead divides).

    A `start` (untracked only) is the kept entries of a finished run under
    the same cap, a standard basis: the run begins with them, forms no pair
    among them, and the inputs enter after them (`Ideal.mora`).  Untracked
    rank-1 inputs with a unit make no run: their basis is {1}.

    A run that its budget stops raises that BudgetError with the run, paused,
    as its `paused`: `_resume` continues it under a new budget from the
    input or pair that was stopped, so it treats the pairs in the same order
    and keeps the same entries as a run never stopped.
    """
    if collect is None and rank == 1 and any(v[0].constant_term() for v in inputs):
        note("unit", inputs, cap)
        return [_Entry(((((0, (0,) * ctx.n), 1),),))]
    kind = "tracked" if collect is not None else "uncapped" if cap is None else "capped"
    note("continued" if start is not None else kind, inputs, cap)
    return _resume(_run(inputs, ctx, rank, budget, use_criteria, collect, cap, start))


def _resume(run: Generator[BudgetError, _Budget, list[_Entry]], budget=None) -> list[_Entry]:
    """The kept entries of a Mora run (`_run`), started, or resumed under `budget`."""
    try:
        stop = run.send(budget if budget is None or isinstance(budget, _Budget) else _Budget(budget))
    except StopIteration as end:
        return end.value
    stop.paused = run
    raise stop


def _run(inputs, ctx, rank, budget, use_criteria, collect, cap, start):
    # The run of `_kept_entries`: it yields each BudgetError that stops it and
    # goes on under the meter sent back.
    track = collect is not None
    den_in, vecs = _to_ivecs(inputs if track else list(dict.fromkeys(inputs)), cap)
    one = (0, (0,) * ctx.n)  # the key of the monomial 1
    entries: list[_Entry] = list(start or ())
    alive: dict[tuple[int, int], tuple[int, ...]] = {}
    heap: list[tuple[int, int, int]] = []
    meter = budget if isinstance(budget, _Budget) else _Budget(budget)
    collapse = rank == 1 and not track

    def add(vec: IVec, row: IVec | None, den: int) -> bool:
        """Enter a vector with its pairs; True when its lead is a unit."""
        vec, row, den = _primitive(vec, row, den)
        entry = _Entry(vec, row, den)
        t = len(entries)
        peers = [i for i, old in enumerate(entries) if old.comp == entry.comp]
        entries.append(entry)
        new_lcms: dict[tuple[int, ...], tuple[int, int]] = {}
        for i in peers:
            lcm_exps = tuple(map(max, entries[i].exps, entry.exps))
            lcm_deg = sum(lcm_exps)
            if cap is not None and lcm_deg >= cap:
                continue
            if lcm_exps not in new_lcms:  # keep lowest index per repeated lcm
                new_lcms[lcm_exps] = (i, lcm_deg)
        if use_criteria:
            # Drop a new pair when another new pair's lcm strictly divides its
            # lcm (chain criterion; the third pair's lcm always divides too).
            new_lcms = {
                exps: pair
                for exps, pair in new_lcms.items()
                if not any(other != exps and all(map(le, other, exps)) for other in new_lcms)
            }
            # Cancel old pairs whose lcm is a proper multiple of the new lead.
            for (i, j), lcm_exps in list(alive.items()):
                if entries[i].comp != entry.comp:
                    continue
                if all(map(le, entry.exps, lcm_exps)):
                    lcm_it = tuple(map(max, entries[i].exps, entry.exps))
                    lcm_jt = tuple(map(max, entries[j].exps, entry.exps))
                    if lcm_it != lcm_exps and lcm_jt != lcm_exps:
                        del alive[(i, j)]
        for lcm_exps, (i, lcm_deg) in new_lcms.items():
            alive[(i, t)] = lcm_exps
            heapq.heappush(heap, (lcm_deg, i, t))
        # A unit leading term in a rank-1 basis means the ideal is the whole
        # ring; {1} is then a finished standard basis and reductions against
        # it are single steps instead of power-series inversion marches.
        # Skipped under tracking: 1 need not be a polynomial combination of
        # the inputs even when a unit is.
        return collapse and entry.deg == 0

    collapsed = False
    for idx, vec in enumerate(vecs):
        if track:
            row = tuple(((one, den_in),) if k == idx else () for k in range(len(vecs)))
            if any(vec):
                add(vec, row, 1)  # inputs enter verbatim so rows stay over them
            else:
                collect.append(row)
            continue
        while True:  # an input that the budget stops is reduced again on resuming
            try:
                reduced, row, den = _nf_mora(vec, entries, budget=meter, cap=cap)
                break
            except BudgetError as stop:
                meter = yield stop
        if any(reduced) and add(reduced, row, den):
            collapsed = True
            break

    while heap and not collapsed:
        _, i, j = heapq.heappop(heap)
        lcm_exps = alive.pop((i, j), None)
        if lcm_exps is None:
            continue
        try:
            meter.charge_pair()
            a, b = entries[i], entries[j]
            lcm_deg = sum(lcm_exps)
            qa = (a.deg - lcm_deg, tuple(map(sub, lcm_exps, a.exps)))
            qb = (b.deg - lcm_deg, tuple(map(sub, lcm_exps, b.exps)))
            # Cross-multiplied to keep coefficients integral.
            s = _combine(b.coeff, qa, a.vec, a.coeff, qb, b.vec, cap)
            row, den = None, 1
            if track:
                den = lcm(a.den, b.den)
                row = _combine(b.coeff * (den // a.den), qa, a.row, a.coeff * (den // b.den), qb, b.row)
            if not any(s):
                if track:
                    collect.append(row)
                continue
            reduced, row, den = _nf_mora(s, entries, row, den, meter, cap)
            if not any(reduced):
                if track and any(row):
                    collect.append(row)
                continue
            if add(reduced, row, den):
                collapsed = True
        except BudgetError as stop:
            # The pair goes back to the queue, to be treated first on resuming.
            alive[i, j] = lcm_exps
            heapq.heappush(heap, (sum(lcm_exps), i, j))
            meter = yield stop

    if collapsed:
        return [_Entry((((one, 1),),))]

    # Minimal inter-reduction: discard entries whose lead another lead divides.
    kept: list[_Entry] = []
    for e in sorted(entries, key=lambda e: e.deg):  # stable: ties keep entry order
        if not any(m.divides(e.comp, e.deg, e.exps) for m in kept):
            kept.append(e)
    return kept


def standard_basis(obj: Union[Ideal, Submodule], *, budget: int = DEFAULT_BUDGET) -> StandardBasis:
    """Mora standard basis of an ideal or submodule.

    Deterministic for a fixed input order.  Raises BudgetError when the pair
    budget is exhausted.  An ideal's basis is read off its one Mora run
    (`Ideal.mora`), capped at the level of its jet model when the run
    proves that level.
    """
    ctx, rank, vecs = _as_vecs(obj)
    if isinstance(obj, Ideal):
        kept, cap, _ = obj.mora(budget)
        entries = _finished(kept, ctx.n, cap)
    else:
        entries = _complete(vecs, ctx, rank, budget)
    return StandardBasis(
        ctx=ctx,
        rank=rank,
        elements=tuple(_vector(ctx, e.vec) for e in entries),
        leading=tuple((e.comp, e.mono) for e in entries),
    )


def _capped_run(
    vecs: list[Vec], ctx: VarContext, budget: int, level: int, start: list[_Entry] | None = None
) -> tuple[list[_Entry], list[tuple[int, ...]]] | None:
    """The run of a zero-dimensional ideal I below a jet level, with its proof.

    The run on I + m^(N+1), N = `level`, drops every term above degree N, so
    it cannot climb in degree.  When its standard monomials all have degree
    below N, m^N lies in I + m^(N+1), hence in I by Nakayama's lemma: the
    two ideals are equal, and the kept entries, completed by the monomials
    of degree N + 1 that no kept lead divides (`_finished`), are a standard
    basis of I, proven by the run itself, so it takes no word of the jet
    engine that proposed N on trust.  A `start`, the kept entries of such a
    run of an ideal inside I at the same level, is continued by `vecs` (the
    generators that I adds).  Returns the kept entries with the
    exponents of the standard monomials, which the proof listed.  None
    when the run exhausts the budget or the proof fails: the plain run then
    decides (`Ideal.mora`), so a proposal costs time, never correctness.
    """
    try:
        kept = _kept_entries(vecs, ctx, 1, budget, cap=level + 1, start=start)
    except BudgetError:
        return None
    # The monomials of degree N + 1 are implicit: the standard ones are the
    # monomials of degree at most N that no kept lead divides.
    exps = _standard_below([e.exps[::-1] for e in kept], ctx.n, level)
    return None if exps is None else (kept, exps)


def _coerce_basis(G: Union[StandardBasis, Ideal, Submodule], budget: int) -> StandardBasis:
    if isinstance(G, StandardBasis):
        return G
    return standard_basis(G, budget=budget)


def mora_normal_form(
    p: Union[Polynomial, Sequence[Polynomial]],
    G: Union[StandardBasis, Ideal, Submodule],
) -> Union[Polynomial, Vec]:
    """Weak normal form of p against the generators of G (taken as given).

    G is used as a plain reducer list, not completed first; pass a finished
    StandardBasis for membership-grade reductions.  The remainder is
    determined up to a nonzero rational factor.
    """
    if isinstance(G, StandardBasis):
        ctx, rank, vecs = G.ctx, G.rank, list(G.elements)
    else:
        ctx, rank, vecs = _as_vecs(G)
    if isinstance(p, Polynomial):
        if rank != 1:
            raise ContextError("polynomial reduced against a module basis")
        vec: Vec = (p,)
    else:
        vec = tuple(p)
        if len(vec) != rank:
            raise ContextError("vector rank does not match basis rank")
    require_same_ctx(vec[0].ctx, ctx)
    _, gens = _to_ivecs(vecs)
    _, (h,) = _to_ivecs([vec])
    reduced, _, _ = _nf_mora(h, [_Entry(v) for v in gens if any(v)])
    out = _vector(ctx, reduced)
    return out[0] if isinstance(p, Polynomial) else out


def membership(
    p: Union[Polynomial, Sequence[Polynomial]],
    B: Union[StandardBasis, Ideal, Submodule],
    *,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Exact ideal / module membership via Mora normal form."""
    basis = _coerce_basis(B, budget)
    r = mora_normal_form(p, basis)
    if isinstance(r, Polynomial):
        return r.is_zero()
    return not any(r)


# ---------------------------------------------------------------------------
# colength and standard monomials


def _axis_caps(leads: Sequence[Monomial], n: int) -> list[int] | None:
    """Smallest pure-power exponent per variable, or None if one is missing."""
    caps: list[int | None] = [None] * n
    for m in leads:
        axis = m.pure_power_axis()
        if axis is None:
            continue
        if axis == -1:  # unit monomial: the ideal is the whole ring
            return [0] * n
        e = m.exponents[axis]
        if caps[axis] is None or e < caps[axis]:
            caps[axis] = e
    if any(c is None for c in caps):
        return None
    return caps  # type: ignore[return-value]


def _standard_exponents(leads: Sequence[Monomial], n: int) -> list[tuple[int, ...]] | None:
    """Exponents of the monomials outside the leading ideal, sorted; None if infinite."""
    caps = _axis_caps(leads, n)
    if caps is None:
        return None
    # Each standard exponent lies below its cap, so its degree below sum(caps) - n + 1.
    return sorted(_standard_below([m.exponents for m in leads], n, max(sum(caps) - n + 1, 0)))


def _standard_below(
    leads: Sequence[tuple[int, ...]], n: int, level: int
) -> list[tuple[int, ...]] | None:
    """Exponents of the monomials no lead divides, when all have degree below `level`.

    None when one of degree `level` exists.  Leads and results are exponent
    tuples of one orientation.  Standard monomials are closed under
    division, so those of degree d + 1 are the x_i * s, s standard of degree
    d; each is formed once, from the s whose last nonzero exponent is at or
    before i.
    """
    found: list[tuple[int, ...]] = []
    layer = [((0,) * n, 0)]  # (exponents, position of the last nonzero one)
    for _ in range(level + 1):
        layer = [(e, j) for e, j in layer if not any(all(map(le, m, e)) for m in leads)]
        found += [e for e, _ in layer]
        layer = [(e[:i] + (e[i] + 1,) + e[i + 1 :], i) for e, j in layer for i in range(j, n)]
    # Candidates of degree level + 1 remain exactly when one of degree level is standard.
    return None if layer else found


def _count_standard_monomials(leads: Sequence[Monomial], n: int) -> Value:
    exps = _standard_exponents(leads, n)
    return NOT_FINITE if exps is None else len(exps)


def colength(I: Ideal, *, budget: int = DEFAULT_BUDGET) -> Value:
    """Dimension of the quotient of the local ring by the ideal.

    Counts the standard monomials of I's one Mora run (`Ideal.mora`).
    NOT_FINITE is a legitimate value, not a failure.
    """
    exps = I.mora(budget)[2]
    return NOT_FINITE if exps is None else len(exps)


# ---------------------------------------------------------------------------
# ideal operations


def _schreyer_rows(vecs: list[Vec], ctx: VarContext, rank: int, budget: int) -> list[IVec]:
    """The generators of the relation module of `vecs`, primitive, in integer terms.

    Schreyer's method: the generators enter a completion verbatim, each
    element tracking its row of coefficients over them, and every pair
    whose S-vector reduces to zero leaves its row behind.  Those rows
    generate the relation module (see `_kept_entries`).  The rows stay
    polynomial throughout, so no division by units of the local ring is
    ever needed.  Each row is checked to be a relation (`_is_relation`).
    """
    if not vecs:
        raise ContextError("syzygies of an empty generator list")
    collected: list[IVec] = []
    _kept_entries(vecs, ctx, rank, budget, collect=collected)
    rows = [_primitive(row)[0] for row in collected if any(row)]
    _, scaled = _to_ivecs(vecs)
    if not all(_is_relation(row, scaled) for row in rows):
        raise InternalError("syzygy output is not a relation")
    return rows


def _syzygies_of(vecs: list[Vec], ctx: VarContext, rank: int, budget: int) -> Submodule:
    rows = _schreyer_rows(vecs, ctx, rank, budget)
    return Submodule(ctx, len(vecs), [_vector(ctx, row) for row in rows])


def _is_relation(row: IVec, vecs: Sequence[IVec]) -> bool:
    """Whether sum_k row[k] * vecs[k] is zero, all in integer terms.

    `vecs` may be the inputs of the syzygy run scaled by any one common
    factor (`_to_ivecs`): a relation stays a relation.
    """
    for comp in range(len(vecs[0])):
        total: dict[Key, int] = {}
        for a, v in zip(row, vecs):
            for (da, ea), ca in a:
                for (dv, ev), cv in v[comp]:
                    k = (da + dv, tuple(map(add, ea, ev)))
                    total[k] = total.get(k, 0) + ca * cv
        if any(total.values()):
            return False
    return True


def _degree_capped(I: Ideal, bound: int) -> Ideal:
    """An equal ideal with all degrees below the bound.

    Valid only when the maximal ideal to the given power lies inside I:
    tails of degree >= bound are discarded and the monomials of degree
    `bound` are appended instead.
    """
    gens = [g.jet(bound) for g in I.gens]
    gens += [Polynomial.monomial(I.ctx, e) for e in exponents_of_degree(I.ctx.n, bound)]
    return Ideal(I.ctx, gens)


def _syzygy_quotient(ideals: Sequence[Ideal], v: Sequence[Polynomial], budget: int) -> Ideal:
    """The ideal {c : c*v in I_1*e_1 + ... + I_k*e_k}, from one syzygy run.

    A row (c, a) of the syzygies of [v] + [f*e_i for f in I_i] says that
    c*v = -sum(a_j * f_j*e_i) lies in the submodule, and every such c has a
    row, so the first components generate the quotient.

    When every I_i is zero-dimensional (`Ideal.count`, so an infinite one
    makes no Mora run here), let N be the largest of 1 + the top degree of a
    standard monomial of I_i (`Ideal.mora`).  Then
    m^N lies in every I_i, and in the quotient (c in m^N puts each c*v_i in
    I_i), so the I_i, v and the quotient are cut at degree N
    (`_degree_capped`, with v_i cut to v_i.jet(N)) without changing any of
    them as ideals or the quotient: every dropped term times anything lies
    in the submodule.  This keeps the Schreyer run at bounded degree;
    uncapped, it can drag tails of unbounded degree through Mora division.
    """
    ctx, k = ideals[0].ctx, len(ideals)
    zero = Polynomial.zero(ctx)
    distinct = dict.fromkeys(ideals)
    bound = None
    if all(is_finite(I.count(budget)) for I in distinct):
        bound = 1 + max((sum(e) for I in distinct for e in I.mora(budget)[2]), default=-1)
        ideals = [_degree_capped(I, bound) for I in ideals]
        v = [g.jet(bound) for g in v]
    vecs: list[Vec] = [tuple(v)]
    for i, I in enumerate(ideals):
        vecs += [tuple(f if j == i else zero for j in range(k)) for f in I.gens]
    rows = _schreyer_rows(vecs, ctx, k, budget)
    quotient = Ideal(ctx, [_vector(ctx, row[:1])[0] for row in rows])
    return quotient if bound is None else _degree_capped(quotient, bound)


def ideal_intersection(I: Ideal, J: Ideal, *, budget: int = DEFAULT_BUDGET) -> Ideal:
    """Intersection of two ideals: the c with c*(1, 1) in I*e_1 + J*e_2.

    No auxiliary elimination variable is introduced, so the local order is
    preserved throughout.
    """
    require_same_ctx(I.ctx, J.ctx)
    one = Polynomial.constant(I.ctx, 1)
    return _syzygy_quotient([I, J], [one, one], budget)


def ideal_colon(I: Ideal, J: Ideal, *, budget: int = DEFAULT_BUDGET) -> Ideal:
    """Ideal quotient I : J: the c with c*(g_1, ..., g_k) in I^k, for J = (g_1, ..., g_k)."""
    require_same_ctx(I.ctx, J.ctx)
    if not J.gens:
        raise BrsError("colon by the zero ideal is undefined")
    return _syzygy_quotient([I] * len(J.gens), J.gens, budget)


# ---------------------------------------------------------------------------
# module quotients


def module_quotient_dim(
    m_sub: Union[Ideal, Submodule],
    m_sup: Union[Ideal, Submodule],
    *,
    budget: int = DEFAULT_BUDGET,
) -> Value:
    """Dimension of m_sup / m_sub as a vector space; an ideal is a rank-1 module.

    Presents the quotient Q on the generators of m_sup: the preimage of
    m_sub under the presentation map is spanned by the first-block
    components of the syzygies of (gens(m_sup) | gens(m_sub)), which also
    absorb the relations among the m_sup generators.

    Q is counted by the jet walk every ideal takes (`oracle._walk`):
    dim(d) = dim Q/m^d Q for d = 1, 2, ... by exact linear algebra, and
    dim(d) == dim(d+1) means m^d Q = m^(d+1) Q, so m^d Q = 0 by Nakayama's
    lemma and dim(d) is the answer.  The walk's cap is that of a count's
    first round: n + 1 past the largest presentation degree + 2.  When the
    walk reaches it, the standard monomials of an uncapped Mora basis of the
    presentation are counted componentwise; that count decides, and it is
    the proof of NOT_FINITE.
    """
    ctx, rank, sub_gens = _as_vecs(m_sub)
    sup_ctx, sup_rank, sup_gens = _as_vecs(m_sup)
    require_same_ctx(ctx, sup_ctx)
    if rank != sup_rank:
        raise ContextError("module ranks differ")
    sup_basis = standard_basis(m_sup, budget=budget)
    for g in sub_gens:
        if not membership(g, sup_basis):
            raise ContainmentError("submodule generator not contained in the larger module")
    t = len(sup_gens)
    syz = _syzygies_of(sup_gens + sub_gens, ctx, rank, budget)
    presentation = [v[:t] for v in syz.gens]
    presentation = [v for v in presentation if any(v)]
    if not presentation:
        # m_sub = 0 and m_sup free on its generators: infinite unless trivial.
        return 0 if t == 0 else NOT_FINITE

    dims = [0]  # dim(0) = 0

    def growth(d: int) -> int:
        dims.append(module_jet_quotient_dim(presentation, t, ctx.n, d))
        return dims[d] - dims[d - 1]

    level = _walk(growth, max(p.degree() for v in presentation for p in v) + ctx.n + 3)
    if level is not None:
        return dims[level]
    entries = _complete(presentation, ctx, t, budget)
    counts = [
        _count_standard_monomials([e.mono for e in entries if e.comp == comp], ctx.n)
        for comp in range(t)
    ]
    return sum(counts) if all(map(is_finite, counts)) else NOT_FINITE
