"""Jet linear algebra: the engine for zero-dimensional ideals, and the oracle.

The image of an ideal I of the local ring R in R/m^d (m the maximal ideal)
is spanned by the monomial multiples of the generators truncated below
degree d, so dim(d) = dim R/(I + m^d) is rows minus rank of an exact
rational matrix.  The sequence is non-decreasing, and dim(d) == dim(d+1)
means m^d lies in I + m^(d+1), hence in I by Nakayama's lemma: dim(d) is the
colength, and N = d certifies that m^N lies in I.  From there every question
about I is linear algebra in the finite-dimensional space R/m^N (`JetModel`):

* membership: a polynomial lies in I exactly when its jet below N lies in
  the subspace I/m^N;
* the colon I : (g_1, ..., g_k) is the kernel of h -> (h*g_1, ..., h*g_k)
  from R/m^N to copies of R/I, and again contains m^N;
* containment and equality: membership of generators.

`jet_model` walks d = 1, 2, ... and gives up (None) by a cost rule, never by
a verdict: when the growth of dim(d) has not slowed once d passes the
largest generator degree + 2, the ideal is left to standard bases.  A free
certificate of infinite colength, `axis_certificate`, is checked before any
walk.  `oracle_colength` is the same walk under a fixed cap: it reports
NotFinite only with a certificate and Inconclusive at the cap, never a
guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Sequence

from .errors import BrsError
from .polycore import Monomial, Polynomial, VarContext, exponents_of_degree, integral_terms
from .stdbasis import Ideal, NOT_FINITE, Value


class InconclusiveType:
    """Singleton marker: the oracle could not certify a value at its cap."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Inconclusive"


INCONCLUSIVE = InconclusiveType()

OracleValue = Value | InconclusiveType

DEFAULT_CAP = 32


@dataclass(frozen=True)
class JetTruncation:
    """Finite-dimensional model of the local ring below a degree cap.

    Rows are the monomials of degree below the cap, indexed in graded
    lexicographic order, so the table of a lower cap is a prefix.
    """

    n: int
    degree_cap: int
    monomial_index: dict[tuple[int, ...], int] = field(compare=False)

    @classmethod
    def build(cls, n: int, degree_cap: int) -> "JetTruncation":
        monos = [e for d in range(degree_cap) for e in exponents_of_degree(n, d)]
        return cls(n, degree_cap, {m: i for i, m in enumerate(monos)})

    def grown(self) -> "JetTruncation":
        """The truncation one degree higher: this table plus the monomials of degree cap."""
        index = dict(self.monomial_index)
        for exps in exponents_of_degree(self.n, self.degree_cap):
            index[exps] = len(index)
        return JetTruncation(self.n, self.degree_cap + 1, index)

    @property
    def size(self) -> int:
        return len(self.monomial_index)


# Columns are sparse integer vectors: scaling a column changes no span, so
# each polynomial is cleared of denominators once, and elimination is
# fraction-free with content reduction.
Column = dict[int, int]
Terms = list[tuple[tuple[int, ...], int, int]]  # (exponents, degree, coefficient)
Generators = list[tuple[int, Terms]]  # (tail degree, terms) of each generator


def _integral(polys: Sequence[Polynomial]) -> list[Terms]:
    """The terms of the polynomials, scaled to integers by one common factor."""
    _, scaled = integral_terms(polys)
    return [[(m.exponents, m.degree, c) for m, c in terms] for terms in scaled]


def _generators(polys: Sequence[Polynomial]) -> Generators:
    """Each polynomial's tail degree and integral terms, for every level of a walk."""
    return [(p.tail_degree(), terms) for p, terms in zip(polys, _integral(polys))]


def _shifted(terms: Terms, shift: tuple[int, ...], jt: JetTruncation) -> Column:
    """The column of x^shift * p truncated below the cap (terms ascend in degree)."""
    cap = jt.degree_cap - sum(shift)
    index = jt.monomial_index
    col: Column = {}
    for exps, deg, c in terms:
        if deg >= cap:
            break
        col[index[tuple(a + b for a, b in zip(exps, shift))]] = c
    return col


class _Echelon:
    """Incremental sparse echelon basis of a column space over the rationals.

    Pivot choice follows the row enumeration, which is graded lexicographic,
    so the pivot is always the surviving entry of lowest total degree.  Each
    stored column has its pivot as its lowest row, so a column lies in the
    span exactly when `reduce` empties it.  Stored columns are primitive
    integer vectors with a positive pivot entry.
    """

    def __init__(self, pivots: dict[int, Column] | None = None):
        self.pivots: dict[int, Column] = {} if pivots is None else pivots

    def reduce(self, col: Column) -> Column:
        col = dict(col)
        while col:
            r = min(col)
            piv = self.pivots.get(r)
            if piv is None:
                return col
            a, b = piv[r], col[r]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                for k in col:
                    col[k] *= a
            for k, v in piv.items():
                nv = col.get(k, 0) - b * v
                if nv:
                    col[k] = nv
                else:
                    del col[k]
            if a != 1 and col:
                g = gcd(*col.values())
                if g != 1:
                    col = {k: v // g for k, v in col.items()}
        return col

    def insert(self, col: Column) -> bool:
        residual = self.reduce(col)
        if not residual:
            return False
        r = min(residual)
        g = gcd(*residual.values())
        if residual[r] < 0:
            g = -g
        self.pivots[r] = {k: v // g for k, v in residual.items()}
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


class JetModel:
    """An ideal I as the subspace (I + m^N)/m^N of R/m^N, N = `level`.

    Every model `jet_model` returns carries a certificate: m^N lies in I,
    proven by a stabilized jet dimension (or inherited from an ideal
    contained in this one, as for a colon).  The subspace is then I/m^N, and
    every polynomial of degree below N whose jet lies in it is itself an
    element of I.
    """

    __slots__ = ("ctx", "level", "jt", "ech")

    def __init__(self, ctx: VarContext, jt: JetTruncation, ech: _Echelon):
        self.ctx = ctx
        self.level = jt.degree_cap
        self.jt = jt
        self.ech = ech

    @property
    def colength(self) -> int:
        return self.jt.size - self.ech.rank

    def contains(self, p: Polynomial) -> bool:
        """Exact membership of p in I: reduce its jet below N."""
        (terms,) = _integral([p])
        return not self.ech.reduce(_shifted(terms, (0,) * self.ctx.n, self.jt))

    def contains_all(self, gens: Sequence[Polynomial]) -> bool:
        return all(self.contains(g) for g in gens)

    def generators(self) -> list[Polynomial]:
        """Generators of I: the echelon columns and the monomials of degree N."""
        monos = [Monomial(e) for e in self.jt.monomial_index]
        gens = [
            Polynomial(self.ctx, [(monos[k], v) for k, v in col.items()])
            for col in self.ech.pivots.values()
        ]
        gens += [
            Polynomial.monomial(self.ctx, e) for e in exponents_of_degree(self.ctx.n, self.level)
        ]
        return gens

    def truncated(self, level: int) -> "JetModel":
        """The model at a lower level L whose certificate m^L in I is known.

        Rows are graded and each column's pivot is its lowest row, so cutting
        the columns below L keeps the ones with a pivot there, still in
        echelon form, and empties the rest.
        """
        if level == self.level:
            return self
        jt = JetTruncation.build(self.ctx.n, level)
        ech = _Echelon()
        for r, col in self.ech.pivots.items():
            if r < jt.size:
                cut = {k: v for k, v in col.items() if k < jt.size}
                g = gcd(*cut.values())
                ech.pivots[r] = {k: v // g for k, v in cut.items()}
        return JetModel(self.ctx, jt, ech)

    def colon(self, divisors: Sequence[Polynomial]) -> "JetModel":
        """The model of I : (g_1, ..., g_k) at the same level N.

        Kernel of h -> (h*g_1, ..., h*g_k) modulo I, found by eliminating the
        columns (x^a*g_1, ..., x^a*g_k | e_a) against k copies of I/m^N: the
        columns whose pivot falls in the e block span exactly the h with
        every h*g_i in I.
        """
        jt, size = self.jt, self.jt.size
        k = len(divisors)
        work = _Echelon()
        for block in range(k):
            for r, col in self.ech.pivots.items():
                work.pivots[block * size + r] = {row + block * size: v for row, v in col.items()}
        offset = k * size
        integral = _integral(divisors)
        for exps, i in jt.monomial_index.items():
            col: Column = {offset + i: 1}
            for block, terms in enumerate(integral):
                for row, v in _shifted(terms, exps, jt).items():
                    col[block * size + row] = v
            work.insert(col)
        kernel = {
            r - offset: {row - offset: v for row, v in col.items()}
            for r, col in work.pivots.items()
            if r >= offset
        }
        return JetModel(self.ctx, jt, _Echelon(kernel))


def _insert_shifts(ech: _Echelon, gens: Generators, jt: JetTruncation) -> None:
    """Insert every monomial shift of the generators that has a term below the cap."""
    for lead_deg, terms in gens:
        for shift in jt.monomial_index:  # graded: the first shift too high ends the run
            if sum(shift) + lead_deg >= jt.degree_cap:
                break
            ech.insert(_shifted(terms, shift, jt))


def _span(ctx: VarContext, gens: Generators, jt: JetTruncation) -> JetModel:
    """The model of (gens) + m^d, d the cap of `jt`."""
    ech = _Echelon()
    _insert_shifts(ech, gens, jt)
    return JetModel(ctx, jt, ech)


def _jet_model(I: Ideal, d: int) -> JetModel:
    """The model of I + m^d, from every monomial shift of the generators."""
    return _span(I.ctx, _generators(I.gens), JetTruncation.build(I.ctx.n, d))


def axis_certificate(I: Ideal) -> bool:
    """True when a coordinate axis lies in the zero set of I.

    That holds when, for some variable, no generator has a term that is a
    pure power of it (the constant 1 counts as the zeroth power, so a unit
    generator rules the certificate out).  The ideal then has infinite
    colength, with no computation at all.
    """
    n = I.ctx.n
    for v in range(n):
        if not any(
            all(e == 0 for i, e in enumerate(m.exponents) if i != v)
            for g in I.gens
            for m, _ in g.terms
        ):
            return True
    return False


def _walk(growth: Callable[[int], int], top: int, cap: int | None) -> int | None:
    """The level at which a walk stops, from its growths dim(d) - dim(d-1).

    The level is d - 1 for the first d = 1, 2, ... with zero growth.  None
    when d passes `cap`, or, without a cap, by the cost rule: the growth has
    not slowed once d passes `top`.
    """
    prev = None
    d = 1
    while cap is None or d <= cap:
        g = growth(d)
        if g == 0:
            return d - 1
        if cap is None and d > top and g >= prev:
            return None
        prev = g
        d += 1
    return None


def _top(I: Ideal) -> int:
    return max((g.degree() for g in I.gens), default=0) + 2


def jet_model(I: Ideal, cap: int | None = None) -> JetModel | None:
    """The certified model of I: raise d until dim(d) == dim(d+1).

    None when the walk stops first.  With a cap, it stops after level `cap`.
    Without one, it leaves I to standard bases by the cost rule: the growth
    dim(d) - dim(d-1) has not slowed once d passes the largest generator
    degree + 2.  Each level grows the previous level's monomial table, and
    the generators are cleared of denominators once for the whole walk.
    """
    gens = _generators(I.gens)
    levels = [_span(I.ctx, gens, JetTruncation.build(I.ctx.n, 0))]

    def growth(d: int) -> int:
        del levels[:-1]
        levels.append(_span(I.ctx, gens, levels[0].jt.grown()))
        return levels[1].colength - levels[0].colength

    level = _walk(growth, _top(I), cap)
    return None if level is None else levels[0]


def extended_jet_model(I: Ideal, base: JetModel, extra: Sequence[Polynomial]) -> JetModel | None:
    """What `jet_model(I)` returns, for I generated by an ideal J and `extra`.

    `base` is the certified model of J at level N.  Since m^N lies in J,
    hence in I, the shifts of the extra generators inserted into a copy of
    J's echelon give I/m^N with no walk.  dim(d) counts the rows without a
    pivot below degree d, so the walk's verdict is read off them: the model
    is cut down to the level a walk of I stops at, or None where that walk
    gives up by the cost rule.
    """
    jt = base.jt
    ech = _Echelon(dict(base.ech.pivots))
    _insert_shifts(ech, _generators(extra), jt)
    free = [0] * (jt.degree_cap + 1)  # rows without a pivot, by degree; none of degree N
    for exps, row in jt.monomial_index.items():
        if row not in ech.pivots:
            free[sum(exps)] += 1
    level = _walk(lambda d: free[d - 1], _top(I), None)
    return None if level is None else JetModel(I.ctx, jt, ech).truncated(level)


def jet_quotient_dim(I: Ideal, d: int) -> int:
    """Exact dimension of the quotient by (I + maximal ideal^d)."""
    return _jet_model(I, d).colength


def module_jet_quotient_dim(gens, rank: int, n: int, d: int) -> int:
    """Dimension of a free-module quotient at jet level d.

    Rows are (component, monomial below d); columns are all monomial shifts
    of the generators, truncated componentwise.  Because the quotient module
    is generated in degree zero, the value is non-decreasing in d and two
    consecutive equal steps certify the exact dimension, the same argument
    as for ideals.
    """
    jt = JetTruncation.build(n, d)
    size = jt.size
    shifts = list(jt.monomial_index)
    ech = _Echelon()
    for vec in gens:
        lead_deg = min(
            (m.degree for p in vec for m, _ in p.terms),
            default=d,
        )
        integral = _integral(vec)
        for shift in shifts:
            if sum(shift) + lead_deg >= d:
                continue
            col: Column = {}
            for comp, terms in enumerate(integral):
                for row, value in _shifted(terms, shift, jt).items():
                    col[comp * size + row] = value
            if col:
                ech.insert(col)
    return rank * size - ech.rank


def oracle_colength(I: Ideal, cap: int = DEFAULT_CAP) -> OracleValue:
    """Independent colength by stabilized jet dimensions, up to level `cap`.

    NotFinite only with a certificate: a coordinate axis in the zero set, or
    a single non-unit generator in two or more variables (by Krull's
    principal ideal theorem its zero set is a hypersurface).  Otherwise the
    stabilized dimension, or Inconclusive when the walk reaches the cap.
    """
    if cap < 4:
        raise BrsError("oracle cap must be at least 4")
    if axis_certificate(I) or (
        I.ctx.n >= 2 and len(I.gens) == 1 and I.gens[0].constant_term() == 0
    ):
        return NOT_FINITE
    model = jet_model(I, cap)
    return INCONCLUSIVE if model is None else model.colength
