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
powers the logarithmic derivation module, ideal intersections and colons) and
module quotient dimensions.

Colengths, memberships and quotient dimensions are exact; infinite dimensions
are reported as the NOT_FINITE value rather than as errors, because several
of the theorems under test use finiteness itself as a predicate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import BrsError, BudgetError, ContainmentError, ContextError, InternalError
from .polycore import Monomial, Polynomial, VarContext, exponents_of_degree, require_same_ctx

DEFAULT_BUDGET = 200_000


class NotFiniteType:
    """Singleton marker for an infinite colength.  A value, not an error."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NotFinite"


NOT_FINITE = NotFiniteType()

Value = Union[int, NotFiniteType]


def is_finite(value: Value) -> bool:
    return isinstance(value, int)


Vec = tuple[Polynomial, ...]


# ---------------------------------------------------------------------------
# public containers


class Ideal:
    """Finitely generated ideal; generator order is preserved, zeros dropped."""

    __slots__ = ("ctx", "gens")

    def __init__(self, ctx: VarContext, gens: Iterable[Polynomial]):
        kept = []
        for g in gens:
            require_same_ctx(ctx, g.ctx)
            if not g.is_zero():
                kept.append(g)
        self.ctx = ctx
        self.gens = tuple(kept)

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
    terminate over a local order.  `source` keeps the input generators.
    When built with track=True, `combinations[k]` gives polynomial
    coefficients expressing elements[k] exactly in terms of `source`.
    """

    ctx: VarContext
    rank: int
    elements: tuple[Vec, ...]
    leading: tuple[tuple[int, Monomial], ...]
    source: tuple[Vec, ...]
    combinations: tuple[Vec, ...] | None = None

    @property
    def polynomials(self) -> tuple[Polynomial, ...]:
        if self.rank != 1:
            raise ContextError("polynomials view requires a rank-1 basis")
        return tuple(v[0] for v in self.elements)

    @property
    def leading_monomials(self) -> tuple[Monomial, ...]:
        if self.rank != 1:
            raise ContextError("leading monomials view requires a rank-1 basis")
        return tuple(m for _, m in self.leading)


# ---------------------------------------------------------------------------
# vector helpers


def _vec_zero(ctx: VarContext, rank: int) -> Vec:
    z = Polynomial.zero(ctx)
    return (z,) * rank


def _vec_is_zero(v: Vec) -> bool:
    return all(p.is_zero() for p in v)


def _vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def _vec_scale(v: Vec, c: Fraction) -> Vec:
    return tuple(p.scale(c) for p in v)


def _vec_mul_term(v: Vec, mono: Monomial, coeff: Fraction) -> Vec:
    return tuple(p.mul_term(mono, coeff) for p in v)


def _vec_maxdeg(v: Vec) -> int:
    return max((p.degree() for p in v), default=-1)


def _key(comp: int, mono: Monomial) -> tuple:
    """Sort key of the one module order, term over position.

    The local order of the monomials decides; on a tie the lower component
    is the greater.
    """
    return mono.sort_key() + (-comp,)


def _vec_lead(v: Vec) -> tuple[int, Monomial, Fraction] | None:
    best = None
    best_key = None
    for comp, p in enumerate(v):
        lead = p.leading
        if lead is None:
            continue
        key = _key(comp, lead[0])
        if best_key is None or key > best_key:
            best_key = key
            best = (comp, lead[0], lead[1])
    return best


def _vec_content(v: Vec) -> Fraction:
    """Positive rational c with v/c integral, coprime coefficients; 0 for 0.

    The sign is chosen so that dividing by the content makes the leading
    coefficient of the first nonzero component positive.
    """
    num_gcd = 0
    den_lcm = 1
    for p in v:
        for _, c in p.terms:
            num_gcd = gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    if num_gcd == 0:
        return Fraction(0)
    return Fraction(num_gcd, den_lcm)


def _primitive(v: Vec, combo: Vec | None) -> tuple[Vec, Vec | None]:
    """Scale to integer coefficients with content 1 and positive leading sign.

    Scaling a weak normal form or a basis element by a nonzero rational is
    harmless everywhere (membership, colengths, spans are scale invariant)
    and keeps the integers small: without it, chains of Mora reductions blow
    coefficients up exponentially.
    """
    content = _vec_content(v)
    if content == 0:
        return v, combo
    lead = _vec_lead(v)
    assert lead is not None
    factor = Fraction(1) / content
    if lead[2] < 0:
        factor = -factor
    if factor == 1:
        return v, combo
    return _vec_scale(v, factor), None if combo is None else _vec_scale(combo, factor)


def _as_vecs(obj: Union[Ideal, Submodule, Sequence[Polynomial], Sequence[Vec]]) -> tuple[VarContext, int, list[Vec]]:
    if isinstance(obj, Ideal):
        return obj.ctx, 1, [(g,) for g in obj.gens]
    if isinstance(obj, Submodule):
        return obj.ctx, obj.rank, list(obj.gens)
    seq = list(obj)
    if not seq:
        raise ContextError("cannot infer context from an empty generator list")
    first = seq[0]
    if isinstance(first, Polynomial):
        ctx = first.ctx
        return ctx, 1, [(g,) for g in seq]
    ctx = first[0].ctx
    return ctx, len(first), [tuple(v) for v in seq]


# ---------------------------------------------------------------------------
# Mora weak normal form


class _Entry:
    __slots__ = ("vec", "comp", "mono", "coeff", "ecart", "combo")

    def __init__(self, vec: Vec, combo: Vec | None = None):
        lead = _vec_lead(vec)
        if lead is None:
            raise InternalError("zero vector cannot become a basis entry")
        self.vec = vec
        self.comp, self.mono, self.coeff = lead
        self.ecart = _vec_maxdeg(vec) - self.mono.degree
        self.combo = combo


class _Budget:
    """Shared work meter for one completion run.

    Mora reduction terminates in theory, but adversarial inputs can march
    through astronomically many or astronomically large steps; counting
    individual reduction steps alongside treated pairs turns both flavors of
    nontermination-in-practice into a structured BudgetError.  A capped run
    charges the pairs it never forms (lcm at or above the cap) as they are
    dropped, so a budget stops it no later than when it treated them all.
    """

    STEPS_PER_PAIR = 10

    def __init__(self, pairs: int):
        self.pairs_left = pairs
        self.steps_left = pairs * self.STEPS_PER_PAIR
        self.limit = pairs

    def charge_pair(self, count: int = 1):
        self.pairs_left -= count
        if self.pairs_left < 0:
            raise BudgetError(self.limit)

    def charge_step(self):
        self.steps_left -= 1
        if self.steps_left < 0:
            raise BudgetError(self.limit, stage="normal form reduction")


def _nf_mora(
    h: Vec,
    reducers: Sequence[_Entry],
    combo: Vec | None = None,
    budget: _Budget | None = None,
    cap: int | None = None,
) -> tuple[Vec, Vec | None]:
    """Mora weak normal form of h against the reducer list.

    Returns r with u*h = sum(a_i * g_i) + c*r for a unit u and a nonzero
    scalar c; the leading term of r is divisible by no reducer's leading term
    (or r = 0).  Termination relies on augmenting the reducer set with
    intermediate remainders whenever the chosen reducer has strictly larger
    ecart.  The remainder is content-stripped after every step: reductions
    are performed cross-multiplied so coefficients stay integral and small.

    With a `cap` (untracked runs only), the caller guarantees that the
    monomials of degree cap belong to the basis under construction; terms
    of degree >= cap are their multiples and are dropped as they appear.
    """
    pool = list(reducers)
    first = True
    while True:
        if cap is not None:
            h = tuple(p.jet(cap) for p in h)
        lead = _vec_lead(h)
        if lead is None:
            return h, combo
        comp, mono, coeff = lead
        best = None
        for e in pool:
            if e.comp == comp and e.mono.divides(mono):
                if best is None or e.ecart < best.ecart:
                    best = e
        if best is None:
            return h, combo
        if budget is not None:
            budget.charge_step()
        if not first:
            h, combo = _primitive(h, combo)
            lead = _vec_lead(h)
            assert lead is not None
            comp, mono, coeff = lead
        first = False
        h_ecart = _vec_maxdeg(h) - mono.degree
        if best.ecart > h_ecart:
            # Remember the current partial remainder; a later step may divide
            # by it, which is what makes Mora reduction terminate locally.
            pool.append(_Entry(h, combo))
        # Cross-multiplied step: lc(g)*h - lc(h)*q*g avoids denominators.
        q = mono.quotient(best.mono)
        h = _vec_sub(_vec_scale(h, best.coeff), _vec_mul_term(best.vec, q, coeff))
        if combo is not None and best.combo is not None:
            combo = _vec_sub(
                _vec_scale(combo, best.coeff), _vec_mul_term(best.combo, q, coeff)
            )


# ---------------------------------------------------------------------------
# completion


def _spoly(a: _Entry, b: _Entry) -> tuple[Vec, Monomial]:
    # Cross-multiplied to keep coefficients integral.
    lcm = a.mono.lcm(b.mono)
    va = _vec_mul_term(a.vec, lcm.quotient(a.mono), b.coeff)
    vb = _vec_mul_term(b.vec, lcm.quotient(b.mono), a.coeff)
    return _vec_sub(va, vb), lcm


def _spoly_combo(a: _Entry, b: _Entry, lcm: Monomial) -> Vec | None:
    if a.combo is None or b.combo is None:
        return None
    ca = _vec_mul_term(a.combo, lcm.quotient(a.mono), b.coeff)
    cb = _vec_mul_term(b.combo, lcm.quotient(b.mono), a.coeff)
    return _vec_sub(ca, cb)


def _complete(
    inputs: list[Vec],
    ctx: VarContext,
    rank: int,
    budget: int,
    track: bool,
    use_criteria: bool = True,
    collect: list[Vec] | None = None,
    cap: int | None = None,
) -> list[_Entry]:
    """Buchberger completion with Mora reduction.

    Pair selection is the normal strategy: lowest lcm degree first, ties by
    the (i, j) indices, so runs are reproducible.  Pair pruning uses the
    chain criterion in its Gebauer-Moeller form (old-pair cancellation plus
    lcm minimalization among new pairs); no coprimality shortcut, which would
    be unsound here.

    With track=True every element carries a passenger row expressing it as an
    exact polynomial combination of the inputs; the rows take no part in lead
    or ecart decisions.  When `collect` is given, inputs enter the basis
    verbatim and the row of every vector that reduces to zero is appended to
    it: those rows are exactly the Schreyer relations, and they generate the
    full syzygy module of the inputs (pairs pruned by the chain criterion
    contribute rows that are monomial combinations of collected ones).

    A run given a degree `cap` (see `_jet_capped`, the one source of caps)
    cannot march: every term of degree at least the cap is dropped from each
    reduction.  It also forms no pair whose lcm has degree at least the cap
    (the highest-corner bound): every term of such an S-polynomial has
    degree at least the lcm's, since leading terms have the lowest degree,
    so the capped normal form would empty it at once.  Such pairs sort
    after all others, and no other pair's chain criterion looks at them, so
    the basis and the order in which the remaining pairs are treated do not
    change; a degree-cap monomial enters with no pairs at all.
    """
    entries: list[_Entry] = []
    alive: dict[tuple[int, int], Monomial] = {}
    heap: list[tuple[int, int, int]] = []
    meter = _Budget(budget)
    collapsed = False

    def add(vec: Vec, combo: Vec | None) -> None:
        vec, combo = _primitive(vec, combo)
        entry = _Entry(vec, combo)
        t = len(entries)
        peers = [i for i, old in enumerate(entries) if old.comp == entry.comp]
        entries.append(entry)
        if cap is not None and entry.mono.degree >= cap:
            meter.charge_pair(len(peers))  # every lcm reaches the cap
            return
        new_lcms: dict[tuple, tuple[int, Monomial]] = {}
        for i in peers:
            lcm = entries[i].mono.lcm(entry.mono)
            if cap is not None and lcm.degree >= cap:
                meter.charge_pair()
                continue
            key = lcm.exponents
            if key not in new_lcms:  # keep lowest index per repeated lcm
                new_lcms[key] = (i, lcm)
        if use_criteria:
            # Drop a new pair when another new pair's lcm strictly divides its
            # lcm (chain criterion; the third pair's lcm always divides too).
            kept: dict[tuple, tuple[int, Monomial]] = {}
            for key, (i, lcm) in new_lcms.items():
                dominated = any(
                    other.divides(lcm) and other.exponents != key
                    for _, other in new_lcms.values()
                )
                if not dominated:
                    kept[key] = (i, lcm)
            new_lcms = kept
            # Cancel old pairs whose lcm is a proper multiple of the new lead.
            for (i, j), lcm in list(alive.items()):
                if entries[i].comp != entry.comp:
                    continue
                if entry.mono.divides(lcm):
                    lcm_it = entries[i].mono.lcm(entry.mono)
                    lcm_jt = entries[j].mono.lcm(entry.mono)
                    if lcm_it.exponents != lcm.exponents and lcm_jt.exponents != lcm.exponents:
                        del alive[(i, j)]
        for i, lcm in new_lcms.values():
            alive[(i, t)] = lcm
            heapq.heappush(heap, (lcm.degree, i, t))

    def unit_collapse() -> bool:
        # A unit leading term in a rank-1 basis means the ideal is the whole
        # ring; {1} is then a finished standard basis and reductions against
        # it are single steps instead of power-series inversion marches.
        # Skipped under tracking: 1 need not be a polynomial combination of
        # the inputs even when a unit is.
        return (
            rank == 1
            and not track
            and any(e.mono.is_unit() for e in entries)
        )

    def unit_row(idx: int) -> Vec:
        row = list(_vec_zero(ctx, len(inputs)))
        row[idx] = Polynomial.constant(ctx, 1)
        return tuple(row)

    for idx, vec in enumerate(inputs):
        combo = unit_row(idx) if track else None
        if _vec_is_zero(vec):
            if collect is not None:
                collect.append(combo)
            continue
        if collect is not None:
            add(vec, combo)  # inputs enter verbatim so rows stay over them
            continue
        if cap is not None and _vec_lead(vec)[1].degree >= cap:
            # A degree-cap monomial: every term a capped reduction drops is
            # a multiple of one of these, so they must be basis elements.
            add(vec, combo)
            continue
        reduced, combo = _nf_mora(vec, entries, combo, meter, cap)
        if _vec_is_zero(reduced):
            continue
        add(reduced, combo)
        if unit_collapse():
            collapsed = True
            break

    while heap and not collapsed:
        _, i, j = heapq.heappop(heap)
        lcm = alive.pop((i, j), None)
        if lcm is None:
            continue
        meter.charge_pair()
        s, lcm_mono = _spoly(entries[i], entries[j])
        combo = _spoly_combo(entries[i], entries[j], lcm_mono) if track else None
        if _vec_is_zero(s):
            if collect is not None and combo is not None:
                collect.append(combo)
            continue
        reduced, combo = _nf_mora(s, entries, combo, meter, cap)
        if _vec_is_zero(reduced):
            if collect is not None and combo is not None and not _vec_is_zero(combo):
                collect.append(combo)
            continue
        add(reduced, combo)
        if unit_collapse():
            collapsed = True
            break

    if collapsed:
        return [_Entry((Polynomial.constant(ctx, 1),))]

    # Minimal inter-reduction: discard entries whose lead another lead divides.
    ordered = sorted(range(len(entries)), key=lambda k: (entries[k].mono.degree, k))
    kept: list[int] = []
    for k in ordered:
        e = entries[k]
        if not any(
            entries[m].comp == e.comp and entries[m].mono.divides(e.mono) for m in kept
        ):
            kept.append(k)
    final = [entries[k] for k in kept]
    final.sort(key=lambda e: _key(e.comp, e.mono), reverse=True)
    return final


def _dedupe(vecs: list[Vec]) -> list[Vec]:
    seen = set()
    out = []
    for v in vecs:
        key = tuple(tuple((m.exponents, c) for m, c in p.terms) for p in v)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def standard_basis(
    obj: Union[Ideal, Submodule, Sequence[Polynomial]],
    *,
    budget: int = DEFAULT_BUDGET,
    track: bool = False,
    jet_level: int | None = None,
) -> StandardBasis:
    """Mora standard basis of an ideal or submodule.

    Deterministic for a fixed input order.  Raises BudgetError when the pair
    budget is exhausted.  An untracked ideal is first tried under the degree
    cap of `_jet_capped` (`jet_level`: the level N of its certified jet
    model, when the caller holds one); otherwise one uncapped run decides.
    """
    ctx, rank, vecs = _as_vecs(obj)
    source = tuple(vecs)
    if not track:
        vecs = _dedupe([v for v in vecs if not _vec_is_zero(v)])
        # Tracked runs keep the raw list so combination rows line up with
        # `source`; duplicates simply reduce to zero against their twin.
    entries = None
    if rank == 1 and not track and vecs:
        entries = _jet_capped(vecs, ctx, budget, jet_level)
    if entries is None:
        entries = _complete(vecs, ctx, rank, budget, track)
    return StandardBasis(
        ctx=ctx,
        rank=rank,
        elements=tuple(e.vec for e in entries),
        leading=tuple((e.comp, e.mono) for e in entries),
        source=source,
        combinations=tuple(e.combo for e in entries) if track else None,
    )


def _jet_capped(
    vecs: list[Vec], ctx: VarContext, budget: int, level: int | None = None
) -> list[_Entry] | None:
    """A standard basis of a zero-dimensional ideal, completed below a jet level.

    A level N with m^N inside I is proposed: `level` when the caller already
    holds the ideal's certified jet model (the `--oracle` cross-check passes
    the model's level), else by a jet walk here.  The run on I + m^(N+1)
    drops every term above degree N, so it cannot climb in degree.  When its
    standard monomials all have degree below N, m^N lies in I + m^(N+1),
    hence in I by Nakayama's lemma: the two ideals are equal and the basis
    is one of I, proven by the run itself, so it takes no word of the jet
    engine on trust.  Otherwise None, and the plain run decides; the
    proposal costs time, never correctness.
    """
    ideal = Ideal(ctx, [v[0] for v in vecs])
    if level is None:
        from .oracle import axis_certificate, jet_model

        model = None if axis_certificate(ideal) else jet_model(ideal)
        if model is None:
            return None
        level = model.level
    bound = level + 1
    truncated = [(g,) for g in _degree_capped(ideal, bound).gens]
    entries = _complete(truncated, ctx, 1, budget, track=False, cap=bound)
    exps = _standard_exponents([e.mono for e in entries], ctx.n)
    if exps is None or any(sum(e) >= level for e in exps):
        return None
    return entries


def _entries_of(basis: StandardBasis) -> list[_Entry]:
    return [_Entry(v) for v in basis.elements]


def _coerce_basis(
    G: Union[StandardBasis, Ideal, Submodule, Sequence[Polynomial], Sequence[Vec]],
    budget: int,
    jet_level: int | None = None,
) -> StandardBasis:
    if isinstance(G, StandardBasis):
        return G
    return standard_basis(G, budget=budget, jet_level=jet_level)


def mora_normal_form(
    p: Union[Polynomial, Sequence[Polynomial]],
    G: Union[StandardBasis, Ideal, Submodule, Sequence[Polynomial], Sequence[Vec]],
) -> Union[Polynomial, Vec]:
    """Weak normal form of p against the generator list G (taken as given).

    G is used as a plain reducer list, not completed first; pass a finished
    StandardBasis for membership-grade reductions.
    """
    if isinstance(G, StandardBasis):
        ctx, rank = G.ctx, G.rank
        entries = _entries_of(G)
    else:
        ctx, rank, vecs = _as_vecs(G)
        entries = [_Entry(v) for v in vecs if not _vec_is_zero(v)]
    if isinstance(p, Polynomial):
        if rank != 1:
            raise ContextError("polynomial reduced against a module basis")
        vec: Vec = (p,)
    else:
        vec = tuple(p)
        if len(vec) != rank:
            raise ContextError("vector rank does not match basis rank")
    require_same_ctx(vec[0].ctx, ctx)
    reduced, _ = _nf_mora(vec, entries)
    if isinstance(p, Polynomial):
        return reduced[0]
    return reduced


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
    return _vec_is_zero(r)


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
    """Exponents of the monomials outside the leading ideal; None if infinite."""
    caps = _axis_caps(leads, n)
    if caps is None:
        return None
    return [
        exps
        for exps in iter_product(*(range(c) for c in caps))
        if not any(all(le <= e for le, e in zip(m.exponents, exps)) for m in leads)
    ]


def _count_standard_monomials(leads: Sequence[Monomial], n: int) -> Value:
    exps = _standard_exponents(leads, n)
    return NOT_FINITE if exps is None else len(exps)


def standard_monomials(basis: StandardBasis) -> list[Monomial] | NotFiniteType:
    """Monomials outside the leading ideal; a basis of the quotient."""
    if basis.rank != 1:
        raise ContextError("standard monomials are defined for ideals here")
    exps = _standard_exponents(basis.leading_monomials, basis.ctx.n)
    return NOT_FINITE if exps is None else [Monomial(e) for e in exps]


def colength(
    I: Union[Ideal, StandardBasis],
    *,
    budget: int = DEFAULT_BUDGET,
    jet_level: int | None = None,
) -> Value:
    """Dimension of the quotient of the local ring by the ideal.

    Computes a standard basis, checks zero-dimensionality (a pure power of
    every variable in the leading ideal) and counts standard monomials.
    NOT_FINITE is a legitimate value, not a failure.  `jet_level` is passed
    on to `standard_basis`.
    """
    basis = _coerce_basis(I, budget, jet_level)
    if basis.rank != 1:
        raise ContextError("colength is defined for ideals; use module_quotient_dim")
    return _count_standard_monomials(basis.leading_monomials, basis.ctx.n)


# ---------------------------------------------------------------------------
# ideal operations


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """Pairwise products of generators."""
    require_same_ctx(I.ctx, J.ctx)
    return Ideal(I.ctx, [a * b for a in I.gens for b in J.gens])


def syzygies(
    obj: Union[Ideal, Submodule, Sequence[Polynomial], Sequence[Vec]],
    *,
    budget: int = DEFAULT_BUDGET,
) -> Submodule:
    """Generators of the relation module of the given generators.

    Schreyer's method: the generators enter a completion verbatim, each
    element tracking its row of coefficients over them, and every pair
    whose S-vector reduces to zero leaves its row behind.  Those rows
    generate the relation module (see `_complete`).  The rows stay
    polynomial throughout, so no division by units of the local ring is
    ever needed.
    """
    ctx, rank, vecs = _as_vecs(obj)
    return _syzygies_of(vecs, ctx, rank, budget)


def _syzygies_of(vecs: list[Vec], ctx: VarContext, rank: int, budget: int) -> Submodule:
    s = len(vecs)
    if s == 0:
        raise ContextError("syzygies of an empty generator list")
    collected: list[Vec] = []
    _complete(vecs, ctx, rank, budget, track=True, collect=collected)
    out = []
    for row in collected:
        if _vec_is_zero(row):
            continue
        row, _ = _primitive(row, None)
        out.append(row)
    return Submodule(ctx, s, out)


def _canonical_gens(I: Ideal) -> tuple[Polynomial, ...]:
    """Generators of I with the unit-ideal case normalized to (1).

    A generator with a nonzero constant term is a unit of the local ring, so
    the ideal is the whole ring; using the literal generator instead would
    send Mora reduction through a power-series inversion march.  Only the
    ideal matters to intersection and colon, so swapping generating sets is
    sound there.
    """
    if any(g.constant_term() != 0 for g in I.gens):
        return (Polynomial.constant(I.ctx, 1),)
    return I.gens


def _nilpotency_bound(I: Ideal, budget: int) -> int | None:
    """A proven N with (maximal ideal)^N inside I, or None.

    From the axis caps of a standard basis: every monomial of degree at
    least 1 + sum(cap_v - 1) is divisible by a pure leading power, and Mora
    reduction of such a monomial stays in the same degree range, so it must
    reach zero.  The bound is sound but often not the smallest such N
    (1 + the largest degree of a standard monomial is sound too, and often
    lower).  None when I is not zero-dimensional.
    """
    basis = standard_basis(I, budget=budget)
    caps = _axis_caps(basis.leading_monomials, I.ctx.n)
    if caps is None:
        return None
    return max(0, sum(c - 1 for c in caps)) + 1


def _degree_capped(I: Ideal, bound: int) -> Ideal:
    """An equal ideal with all degrees below the bound.

    Valid only when the maximal ideal to the given power lies inside I:
    tails of degree >= bound are discarded and the monomials of degree
    `bound` are appended instead.  This keeps every later reduction at
    bounded degree; without it, colon and intersection folds drag enormous
    witness tails through Mora division.
    """
    gens = [g.jet(bound) for g in I.gens]
    gens += [Polynomial.monomial(I.ctx, e) for e in exponents_of_degree(I.ctx.n, bound)]
    return Ideal(I.ctx, gens)


def _intersection_witnesses(I: Ideal, J: Ideal, budget: int) -> list[Vec]:
    """Syzygies of [(1,1)] + [(f_i,0)] + [(0,g_j)] over the rank-2 free module.

    Each syzygy (c, a, b) satisfies c = -sum(a_i f_i) = -sum(b_j g_j), so the
    c components generate the intersection and, for a principal J = (g), the
    b component is the exact quotient c / (-g) needed by the colon.
    """
    require_same_ctx(I.ctx, J.ctx)
    ctx = I.ctx
    one = Polynomial.constant(ctx, 1)
    zero = Polynomial.zero(ctx)
    vecs: list[Vec] = [(one, one)]
    vecs += [(f, zero) for f in I.gens]
    vecs += [(zero, g) for g in J.gens]
    syz = _syzygies_of(vecs, ctx, 2, budget)
    return list(syz.gens)


def ideal_intersection(I: Ideal, J: Ideal, *, budget: int = DEFAULT_BUDGET) -> Ideal:
    """Intersection of two ideals via the syzygy method.

    No auxiliary elimination variable is introduced, so the local order is
    preserved throughout.  Zero-dimensional inputs are degree-capped first,
    which bounds the whole computation.
    """
    if not I.gens or not J.gens:
        return Ideal(I.ctx, [])
    a = Ideal(I.ctx, _canonical_gens(I))
    b = Ideal(J.ctx, _canonical_gens(J))
    bound_a = _nilpotency_bound(a, budget)
    bound_b = _nilpotency_bound(b, budget)
    if bound_a is not None and bound_b is not None:
        bound = max(bound_a, bound_b)
        a = _degree_capped(a, bound)
        b = _degree_capped(b, bound)
    witnesses = _intersection_witnesses(a, b, budget)
    return Ideal(I.ctx, [w[0] for w in witnesses if not w[0].is_zero()])


def ideal_colon(I: Ideal, J: Ideal, *, budget: int = DEFAULT_BUDGET) -> Ideal:
    """Ideal quotient I : J, as the intersection of the single-divisor colons.

    Each I : (g) is (I intersect (g)) divided by g; the division is exact by
    construction and performed through the syzygy witness, whose product with
    g is checked against the intersection generator.
    """
    require_same_ctx(I.ctx, J.ctx)
    if not J.gens:
        raise BrsError("colon by the zero ideal is undefined")
    result: Ideal | None = None
    I = Ideal(I.ctx, _canonical_gens(I))
    # Every single-divisor colon contains I, so one degree cap serves the
    # whole fold.
    bound = _nilpotency_bound(I, budget) if I.gens else None
    work = _degree_capped(I, bound) if bound is not None else I
    p = len(work.gens)
    for g in _canonical_gens(J):
        witnesses = _intersection_witnesses(work, Ideal(I.ctx, [g]), budget)
        gens = []
        for w in witnesses:
            c, b = w[0], w[1 + p]
            if c.is_zero() and b.is_zero():
                continue
            if not (c + b * g).is_zero():
                raise InternalError("colon witness failed exact division")
            if not b.is_zero():
                gens.append(b)
        colon_g = Ideal(I.ctx, gens)
        if bound is not None:
            colon_g = _degree_capped(colon_g, bound)
        result = colon_g if result is None else ideal_intersection(result, colon_g, budget=budget)
    assert result is not None
    return result


def ideals_equal(I: Ideal, J: Ideal, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Equality as ideals by mutual membership against standard bases."""
    sb_i = standard_basis(I, budget=budget)
    sb_j = standard_basis(J, budget=budget)
    return all(membership(g, sb_j) for g in I.gens) and all(
        membership(g, sb_i) for g in J.gens
    )


def ideal_contains(I: Ideal, J: Ideal, *, budget: int = DEFAULT_BUDGET) -> bool:
    """True when every generator of J lies in I."""
    sb_i = standard_basis(I, budget=budget)
    return all(membership(g, sb_i) for g in J.gens)


# ---------------------------------------------------------------------------
# module quotients


def module_quotient_dim(
    m_sub: Submodule,
    m_sup: Submodule,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Value:
    """Dimension of m_sup / m_sub as a vector space.

    Presents the quotient Q on the generators of m_sup: the preimage of
    m_sub under the presentation map is spanned by the first-block
    components of the syzygies of (gens(m_sup) | gens(m_sub)), which also
    absorb the relations among the m_sup generators.

    Q is counted by the jet walk every ideal takes (`oracle._walk`):
    dim(d) = dim Q/m^d Q for d = 1, 2, ... by exact linear algebra, and
    dim(d) == dim(d+1) means m^d Q = m^(d+1) Q, so m^d Q = 0 by Nakayama's
    lemma and dim(d) is the answer.  When the walk gives up by its cost
    rule, the standard monomials of an uncapped Mora basis of the
    presentation are counted componentwise; that count decides, and it is
    the proof of NOT_FINITE.
    """
    from .oracle import _walk, module_jet_quotient_dim

    require_same_ctx(m_sub.ctx, m_sup.ctx)
    if m_sub.rank != m_sup.rank:
        raise ContextError("module ranks differ")
    sup_basis = standard_basis(m_sup, budget=budget)
    for g in m_sub.gens:
        if not membership(g, sup_basis):
            raise ContainmentError("submodule generator not contained in the larger module")
    t = len(m_sup.gens)
    combined = list(m_sup.gens) + list(m_sub.gens)
    syz = _syzygies_of(combined, m_sup.ctx, m_sup.rank, budget)
    presentation = [v[:t] for v in syz.gens]
    presentation = [v for v in presentation if not _vec_is_zero(v)]
    if not presentation:
        # m_sub = 0 and m_sup free on its generators: infinite unless trivial.
        return 0 if t == 0 else NOT_FINITE
    ctx = m_sup.ctx

    dims = [0]  # dim(0) = 0

    def growth(d: int) -> int:
        dims.append(module_jet_quotient_dim(presentation, t, ctx.n, d))
        return dims[d] - dims[d - 1]

    top = max(_vec_maxdeg(v) for v in presentation) + 2
    level = _walk(growth, top, None)
    if level is not None:
        return dims[level]
    entries = _complete(presentation, ctx, t, budget, track=False)
    counts = [
        _count_standard_monomials([e.mono for e in entries if e.comp == comp], ctx.n)
        for comp in range(t)
    ]
    return sum(counts) if all(map(is_finite, counts)) else NOT_FINITE
