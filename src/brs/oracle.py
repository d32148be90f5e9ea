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
from typing import Sequence

from .errors import BrsError
from .polycore import Monomial, Polynomial, VarContext
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


def _monomials_below(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree < d, in graded lexicographic order."""

    def fixed_degree(deg: int, slots: int) -> list[tuple[int, ...]]:
        if slots == 1:
            return [(deg,)]
        out = []
        for e in range(deg + 1):
            out.extend((e,) + rest for rest in fixed_degree(deg - e, slots - 1))
        return out

    monos: list[tuple[int, ...]] = []
    for deg in range(d):
        chunk = fixed_degree(deg, n)
        chunk.sort()
        monos.extend(chunk)
    return monos


@dataclass(frozen=True)
class JetTruncation:
    """Finite-dimensional model of the local ring below a degree cap."""

    degree_cap: int
    monomial_index: dict[tuple[int, ...], int] = field(compare=False)

    @classmethod
    def build(cls, n: int, degree_cap: int) -> "JetTruncation":
        monos = _monomials_below(n, degree_cap)
        return cls(degree_cap=degree_cap, monomial_index={m: i for i, m in enumerate(monos)})

    @property
    def size(self) -> int:
        return len(self.monomial_index)


# Columns are sparse integer vectors: scaling a column changes no span, so
# each polynomial is cleared of denominators once, and elimination is
# fraction-free with content reduction.
Column = dict[int, int]
Terms = list[tuple[tuple[int, ...], int, int]]  # (exponents, degree, coefficient)


def _integral(polys: Sequence[Polynomial]) -> list[Terms]:
    """The terms of the polynomials, scaled to integers by one common factor."""
    den = 1
    for p in polys:
        for _, c in p.terms:
            den = den * c.denominator // gcd(den, c.denominator)
    return [
        [(m.exponents, m.degree, c.numerator * (den // c.denominator)) for m, c in p.terms]
        for p in polys
    ]


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

    def __init__(self):
        self.pivots: dict[int, Column] = {}

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
        n, N = self.ctx.n, self.level
        gens += [
            Polynomial.monomial(self.ctx, e)
            for e in _monomials_below(n, N + 1)
            if sum(e) == N
        ]
        return gens

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
        kernel = _Echelon()
        for r, col in work.pivots.items():
            if r >= offset:
                kernel.pivots[r - offset] = {row - offset: v for row, v in col.items()}
        return JetModel(self.ctx, jt, kernel)


def _jet_model(I: Ideal, d: int) -> JetModel:
    """The model of I + m^d, from every monomial shift of the generators."""
    jt = JetTruncation.build(I.ctx.n, d)
    ech = _Echelon()
    shifts = list(jt.monomial_index)
    for g, terms in zip(I.gens, _integral(I.gens)):
        lead_deg = g.tail_degree()
        for shift in shifts:
            if sum(shift) + lead_deg < d:
                ech.insert(_shifted(terms, shift, jt))
    return JetModel(I.ctx, jt, ech)


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


def jet_model(I: Ideal, cap: int | None = None) -> JetModel | None:
    """The certified model of I: raise d until dim(d) == dim(d+1).

    None when the walk stops first.  With a cap, it stops after level `cap`.
    Without one, it leaves I to standard bases by the cost rule: the growth
    dim(d) - dim(d-1) has not slowed once d passes the largest generator
    degree + 2.
    """
    top = max((g.degree() for g in I.gens), default=0) + 2
    prev = _jet_model(I, 0)
    prev_growth = None
    d = 1
    while cap is None or d <= cap:
        model = _jet_model(I, d)
        growth = model.colength - prev.colength
        if growth == 0:
            return prev
        if cap is None and d > top and growth >= prev_growth:
            return None
        prev, prev_growth = model, growth
        d += 1
    return None


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


def jet_contains(I: Ideal, p: Polynomial, d: int) -> bool:
    """Membership of p in I at jet level d, i.e. in I + maximal ideal^d.

    Test helper: a true answer at a level beyond the largest standard
    monomial degree of a zero-dimensional I certifies real membership.
    """
    return _jet_model(I, d).contains(p)


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
