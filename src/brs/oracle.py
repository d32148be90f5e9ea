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
* the colon I : (g_1, ..., g_k) is the whole ring when every g_i lies in I,
  a membership test; otherwise it is the kernel of h -> (h*g_1, ..., h*g_k)
  from R/m^N to copies of R/I, and again contains m^N;
* containment and equality: membership of generators; between two models,
  the columns of one reduced in the echelon of the other.  An extension
  J + (g_1, ..., g_k) whose generators all lie in J is J's own model.

Rows are the monomials of one graded lexicographic table per variable count
(`_Table`), shared by every model and grown by degree on demand.  A monomial
is one packed integer, so a shift x^a * x^b is an integer add and one table
lookup; a row number names the same monomial in every model, so the rows of
a degree cap are a prefix and a column of one model is a column of another.

`jet_model` walks d = 1, 2, ... up to the cap it is given and returns None
there, never guessing: which cap, and what to try once a walk reaches it,
is `Ideal.count`'s choice, and the walk writes nothing on the ideal.  One
echelon at cap c determines dim(d) for every d <= c, as the rows without a
pivot below degree d, so a walk builds an echelon only once d passes the cap
of its last.  A `floor`, the level of an ideal known to contain I or the cap
an earlier walk of I reached (`Ideal.reach`), lets the walk build its first
echelon at floor + 1; each dim(d) is still exact, so a wrong floor costs
time, never a value.  One free certificate of infinite colength,
`certificate`, is checked before a count's walk and before the oracle's.
`oracle_colength` is the same walk under a fixed cap, from where the
count's walks stopped: it reports NotFinite only with that certificate and
Inconclusive at the cap, never a guess.

An echelon is built from the shifts x^t * g_j of the generators, but not
from all of them: a shift whose row t is already a pivot when g_j comes in
is skipped (Faugere's F5 criterion; `_insert_shifts`).  That pivot is the
lowest row of a stored column h, the truncation of some H in the ideal of
the earlier generators (and, in `extended_jet_model`, of the ideal whose
model it extends), so trunc(H * g_j) is already spanned, and
a * trunc(x^t * g_j) = trunc(h * g_j) - sum_(s>t) h_s * trunc(x^s * g_j)
with a the pivot entry.  By descending induction on t every skipped shift
lies in the span of the inserted ones, so the span, every dim, level,
membership, colon and containment are those of all the shifts; only which
column is stored at a pivot may change.
"""

from __future__ import annotations

from math import gcd
from threading import Lock
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import BrsError
from .polycore import (
    MAX_PACKED_DEGREE,
    Monomial,
    PackedTerm,
    Polynomial,
    VarContext,
    exponents_of_degree,
    integral_terms,
    pack_exponents,
)

if TYPE_CHECKING:
    from .stdbasis import Ideal


class _Marker:
    """A value that is not a number: one instance per subclass, shown as its name less "Type"."""

    def __new__(cls):
        if "_instance" not in vars(cls):
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return type(self).__name__.removesuffix("Type")


class NotFiniteType(_Marker):
    """An infinite colength.  A value, not an error."""


class InconclusiveType(_Marker):
    """The oracle could not certify a value at its cap."""


NOT_FINITE = NotFiniteType()
INCONCLUSIVE = InconclusiveType()

Value = int | NotFiniteType
OracleValue = Value | InconclusiveType


def is_finite(value: Value) -> bool:
    return isinstance(value, int)


DEFAULT_CAP = 32
MIN_CAP = 4  # the smallest cap the oracle takes


class _Table:
    """The monomials of n variables in graded lexicographic order, grown by degree.

    Row r is the r-th monomial: its exponents, packed form
    (`polycore.pack_exponents`: a shift is an integer add) and degree, and
    `row` maps the packed form back to r.  `starts[d]` is the number of
    monomials of degree below d, so the rows of a degree cap are a prefix,
    and a row number means the same monomial in every model of n variables.
    The table only ever grows, so what it holds never changes.  No row has
    a degree beyond the packing's limit: a larger cap raises BrsError.
    """

    __slots__ = ("n", "exps", "packed", "degree", "row", "starts", "_lock")

    def __init__(self, n: int):
        self.n = n
        self.exps: list[tuple[int, ...]] = []
        self.packed: list[int] = []
        self.degree: list[int] = []
        self.row: dict[int, int] = {}
        self.starts = [0]
        self._lock = Lock()

    def size(self, cap: int) -> int:
        """The number of monomials of degree below `cap`, growing the table to hold them."""
        if cap >= len(self.starts):
            if cap > MAX_PACKED_DEGREE + 1:
                raise BrsError(
                    f"jet level {cap} exceeds the jet engine's limit {MAX_PACKED_DEGREE + 1}"
                )
            with self._lock:
                while cap >= len(self.starts):
                    d = len(self.starts) - 1
                    for exps in exponents_of_degree(self.n, d):
                        packed = pack_exponents(exps)
                        self.row[packed] = len(self.exps)
                        self.exps.append(exps)
                        self.packed.append(packed)
                        self.degree.append(d)
                    self.starts.append(len(self.exps))
        return self.starts[cap]


_TABLES: dict[int, _Table] = {}


def _table(n: int) -> _Table:
    """The one monomial table of n variables."""
    return _TABLES.get(n) or _TABLES.setdefault(n, _Table(n))


# Columns are sparse integer vectors: scaling a column changes no span, so
# each polynomial is cleared of denominators once (`Polynomial.packed_terms`,
# read through `polycore.integral_terms`), and elimination is fraction-free
# with content reduction.
Column = dict[int, int]
Terms = Sequence[PackedTerm]  # (packed monomial, degree, coefficient), ascending degree
Generators = list[tuple[int, Terms]]  # (tail degree, terms) of each generator


def _generators(polys: Sequence[Polynomial]) -> Generators:
    """Each polynomial's tail degree and integral terms, for every level of a walk.

    A polynomial in the rational span of earlier ones is left out: its
    shifts are combinations of theirs, already in the span.
    """
    earlier = _Echelon()
    return [
        (p.tail_degree(), terms)
        for p, terms in zip(polys, integral_terms(polys)[1])
        if earlier.insert({m: c for m, _, c in terms})
    ]


def _shifted(terms: Terms, shift: int, below: int, row: dict[int, int]) -> Column:
    """The column of x^shift * p, keeping the terms of p of degree below `below`.

    `below` is the cap less the degree of the shift, and terms ascend in
    degree, so each kept term is one table lookup.
    """
    col: Column = {}
    for mono, deg, c in terms:
        if deg >= below:
            break
        col[row[mono + shift]] = c
    return col


class _Echelon:
    """Incremental sparse echelon basis of a column space over the rationals.

    Pivot choice follows the row enumeration, which is graded lexicographic,
    so the pivot is always the surviving entry of lowest total degree.  Each
    stored column has its pivot as its lowest row, so a column lies in the
    span exactly when `reduce` empties it.  Stored columns are primitive
    integer vectors with a positive pivot entry.  One elimination pass gives
    both the residual and its lowest row, the pivot `insert` stores it at.
    """

    def __init__(self, pivots: dict[int, Column] | None = None):
        self.pivots: dict[int, Column] = {} if pivots is None else pivots

    def _eliminate(self, col: Column) -> tuple[int, Column]:
        """The residual of `col` and its lowest row (-1 when it is empty); `col` is consumed."""
        while col:
            r = min(col)
            piv = self.pivots.get(r)
            if piv is None:
                return r, col
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
        return -1, col

    def reduce(self, col: Column) -> Column:
        """The residual of `col` against the stored columns; `col` itself is consumed."""
        return self._eliminate(col)[1]

    def insert(self, col: Column) -> bool:
        """Store the residual of `col` at its lowest row; False when `col` is in the span.

        The echelon takes ownership of `col`: the residual may be `col`
        itself, stored as it is when already primitive with a positive
        pivot entry, so the caller must not use `col` again.
        """
        r, residual = self._eliminate(col)
        if not residual:
            return False
        g = gcd(*residual.values())
        if residual[r] < 0:
            g = -g
        self.pivots[r] = residual if g == 1 else {k: v // g for k, v in residual.items()}
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

    __slots__ = ("ctx", "table", "level", "size", "ech")

    def __init__(self, ctx: VarContext, table: _Table, level: int, ech: _Echelon):
        self.ctx = ctx
        self.table = table
        self.level = level
        self.size = table.size(level)  # the rows: the monomials of degree below N
        self.ech = ech

    @property
    def colength(self) -> int:
        return self.size - self.ech.rank

    def contains(self, p: Polynomial) -> bool:
        """Exact membership of p in I: reduce its jet below N."""
        _, terms = p.packed_terms()  # a scaled p has the same membership
        return not self.ech.reduce(_shifted(terms, 0, self.level, self.table.row))

    def contains_all(self, gens: Sequence[Polynomial]) -> bool:
        return all(self.contains(g) for g in gens)

    def contains_ideal(self, other: "JetModel") -> bool:
        """Whether the ideal K that `other` models lies in I.

        K is generated by its echelon columns and m^L, L its level.  Rows
        are positions of one shared table, so a column of K is a column
        here once cut below N, which keeps its class modulo m^N, inside I.
        m^L lies in I when L >= N; below N, exactly when every row of
        degree L to N - 1 is a pivot, since the columns with those pivots
        then span m^L/m^N.
        """
        size, pivots = self.size, self.ech.pivots
        if any(r not in pivots for r in range(other.size, size)):
            return False
        cuts = ({k: v for k, v in col.items() if k < size} for col in other.ech.pivots.values())
        return not any(self.ech.reduce(cut) for cut in cuts if cut)

    def generators(self) -> list[Polynomial]:
        """Generators of I: the echelon columns and the monomials of degree N."""
        exps, degree = self.table.exps, self.table.degree
        gens = [
            Polynomial(
                self.ctx, [(Monomial._unchecked(exps[k], degree[k]), v) for k, v in col.items()]
            )
            for col in self.ech.pivots.values()
        ]
        gens += [
            Polynomial.monomial(self.ctx, e) for e in exponents_of_degree(self.ctx.n, self.level)
        ]
        return gens

    def free_rows(self) -> list[int]:
        """The rows without a pivot, counted by degree.

        Rows are graded and each column's pivot is its lowest row, so the
        columns with a pivot below degree d, cut below d, span
        (I + m^d)/m^d: entry d - 1 is dim(d) - dim(d-1) for every d up to N.
        """
        starts, degree = self.table.starts, self.table.degree
        free = [starts[d + 1] - starts[d] for d in range(self.level)]
        for r in self.ech.pivots:
            free[degree[r]] -= 1
        return free

    def truncated(self, level: int) -> "JetModel":
        """The model at a lower level L whose certificate m^L in I is known.

        Rows are graded and each column's pivot is its lowest row, so cutting
        the columns below L keeps the ones with a pivot there, still in
        echelon form, and empties the rest.
        """
        if level == self.level:
            return self
        size = self.table.size(level)
        ech = _Echelon()
        for r, col in self.ech.pivots.items():
            if r < size:
                cut = {k: v for k, v in col.items() if k < size}
                g = gcd(*cut.values())
                ech.pivots[r] = {k: v // g for k, v in cut.items()}
        return JetModel(self.ctx, self.table, level, ech)

    def colon(self, divisors: Sequence[Polynomial]) -> "JetModel":
        """The model of I : (g_1, ..., g_k): the unit ideal, or at the same level N.

        I : (g_1, ..., g_k) is the whole ring exactly when every g_i lies in
        I, so then it is the level-0 model, with no elimination.  Otherwise
        it is the kernel of h -> (h*g_1, ..., h*g_k) modulo I, found by
        eliminating the columns (x^a*g_1, ..., x^a*g_k | e_a) against k
        copies of I/m^N: the columns whose pivot falls in the e block span
        exactly the h with every h*g_i in I.
        """
        table, size, level = self.table, self.size, self.level
        if self.contains_all(divisors):
            return JetModel(self.ctx, table, 0, _Echelon())
        k = len(divisors)
        work = _Echelon()
        for block in range(k):
            for r, col in self.ech.pivots.items():
                work.pivots[block * size + r] = {row + block * size: v for row, v in col.items()}
        offset = k * size
        _, integral = integral_terms(divisors)
        for i in range(size):
            shift, below = table.packed[i], level - table.degree[i]
            col: Column = {offset + i: 1}
            for block, terms in enumerate(integral):
                for row, v in _shifted(terms, shift, below, table.row).items():
                    col[block * size + row] = v
            work.insert(col)
        kernel = {
            r - offset: {row - offset: v for row, v in col.items()}
            for r, col in work.pivots.items()
            if r >= offset
        }
        return JetModel(self.ctx, table, level, _Echelon(kernel))


def _insert_shifts(ech: _Echelon, gens: Generators, table: _Table, cap: int) -> None:
    """Insert the monomial shifts of the generators that can widen the span.

    A shift x^t * g_j has a term below the cap when its degree lies below
    cap - (tail degree of g_j): a prefix of the table.  Of those, the shifts
    whose row t is already a pivot when g_j comes in are skipped, since they
    would reduce to zero (Faugere's F5 criterion).  Proof: the column h with
    pivot t is the truncation of some H in (g_1, ..., g_(j-1)), or in the
    ideal whose echelon `ech` held on entry, whose span is that ideal's
    image in R/m^cap.  So trunc(H * g_j) = trunc(h * g_j) is already in the
    span, and with h = a*x^t + sum_(s>t) h_s*x^s (a != 0),

        a * trunc(x^t * g_j) = trunc(h * g_j) - sum_(s>t) h_s * trunc(x^s * g_j).

    By descending induction on t every skipped shift is in the span of the
    inserted ones: the span, hence every pivot row, every dim and every
    answer, is that of all the shifts; only the column stored at a pivot
    may differ.
    """
    for lead_deg, terms in gens:
        if not terms or lead_deg >= cap:
            continue
        spanned = set(ech.pivots)
        for i in range(table.starts[cap - lead_deg]):
            if i not in spanned:
                ech.insert(_shifted(terms, table.packed[i], cap - table.degree[i], table.row))


def _span(ctx: VarContext, gens: Generators, cap: int) -> JetModel:
    """The model of (gens) + m^cap."""
    model = JetModel(ctx, _table(ctx.n), cap, _Echelon())
    _insert_shifts(model.ech, gens, model.table, cap)
    return model


def certificate(I: Ideal) -> bool:
    """True when a free certificate proves that I has infinite colength.

    Either I is one non-unit generator in two or more variables, whose zero
    set is a hypersurface (Krull's principal ideal theorem), or a coordinate
    axis lies in the zero set: for some variable, no term of a generator is
    a pure power of it (1 is the zeroth power of each, read as -1).
    """
    if I.ctx.n >= 2 and len(I.gens) == 1 and I.gens[0].constant_term() == 0:
        return True
    axes = {m.pure_power_axis() for g in I.gens for m, _ in g.terms}
    return -1 not in axes and not axes.issuperset(range(I.ctx.n))


def _walk(growth: Callable[[int], int], cap: int) -> int | None:
    """The level d - 1 of the first d = 1, ..., cap with zero growth dim(d) - dim(d-1), else None."""
    return next((d - 1 for d in range(1, cap + 1) if growth(d) == 0), None)


def jet_model(
    I: Ideal, cap: int = DEFAULT_CAP, floor: int = 0, charge: Callable[[int], object] | None = None
) -> JetModel | None:
    """The certified model of I: raise d up to `cap` until dim(d) == dim(d+1).

    None when d passes `cap` first; the walk has then built its last echelon
    at the cap, and the caller may record that level as a floor for a later
    walk of I.  The walk writes nothing on I.  A generator with a constant
    term gives dim(1) - dim(0) = 0 at once: I is the unit ideal, and its
    model is the level-0 one, with no echelon built.

    One echelon at cap c gives every growth up to d = c (`free_rows`), so a
    new echelon is built only once d passes the cap of the last, and the
    model at level N is the cap-(N+1) echelon cut down.  `floor` is a level
    below which the walk cannot stop: the first echelon is built at cap
    floor + 1 (never above `cap`).  Every growth is exact whatever the floor,
    so a wrong one costs time, never a value.  `charge`, when given, is told
    the columns each echelon stores once it is built.  The generators are
    read in packed integer form once for the walk (`_generators`), from what
    each polynomial keeps (`packed_terms`).
    """
    if any(g.constant_term() for g in I.gens):
        return JetModel(I.ctx, _table(I.ctx.n), 0, _Echelon())
    gens = _generators(I.gens)
    span: JetModel | None = None
    free: list[int] = []

    def growth(d: int) -> int:
        nonlocal span, free
        if span is None or d > span.level:
            span = _span(I.ctx, gens, min(max(d, floor + 1), cap))
            if charge:
                charge(span.ech.rank)
            free = span.free_rows()
        return free[d - 1]

    level = _walk(growth, cap)
    return None if level is None else span.truncated(level)


def extended_jet_model(base: JetModel, extra: Sequence[Polynomial]) -> JetModel:
    """The certified model of the ideal I generated by an ideal J and `extra`.

    `base` is the certified model of J at level N, the level of its first
    zero growth, as `jet_model` and this function give it.  When every extra
    generator lies in J, I = J and `base` itself is the model.  Otherwise,
    since m^N lies in J, hence in I, the shifts of the extra generators
    inserted into a copy of J's echelon give I/m^N with no walk.  dim(d)
    counts the rows without a pivot below degree d, and every row of degree
    N is in I, so a zero growth always exists: the model is cut down to the
    level of the first, the level a walk of I stops at.
    """
    if base.contains_all(extra):
        return base
    ech = _Echelon(dict(base.ech.pivots))
    _insert_shifts(ech, _generators(extra), base.table, base.level)
    model = JetModel(base.ctx, base.table, base.level, ech)
    return model.truncated((model.free_rows() + [0]).index(0))


def module_jet_quotient_dim(gens, rank: int, n: int, d: int) -> int:
    """Dimension of a free-module quotient at jet level d.

    Rows are (component, monomial below d); columns are all monomial shifts
    of the generators, truncated componentwise.  Because the quotient module
    is generated in degree zero, the value is non-decreasing in d and two
    consecutive equal steps certify the exact dimension, the same argument
    as for ideals.
    """
    table = _table(n)
    size = table.size(d)
    ech = _Echelon()
    for vec in gens:
        lead_deg = min(
            (m.degree for p in vec for m, _ in p.terms),
            default=d,
        )
        _, integral = integral_terms(vec)
        for i in range(table.starts[max(d - lead_deg, 0)]):
            shift, below = table.packed[i], d - table.degree[i]
            col: Column = {}
            for comp, terms in enumerate(integral):
                for row, value in _shifted(terms, shift, below, table.row).items():
                    col[comp * size + row] = value
            if col:
                ech.insert(col)
    return rank * size - ech.rank


def check_cap(cap: int) -> int:
    """The oracle cap, `max_jet`, refused below MIN_CAP, wherever it is given."""
    if cap < MIN_CAP:
        raise BrsError(f"max_jet must be at least {MIN_CAP}")
    return cap


def oracle_colength(I: Ideal, cap: int = DEFAULT_CAP) -> OracleValue:
    """Independent colength by stabilized jet dimensions, up to level `cap`.

    NotFinite only with a `certificate`; otherwise the stabilized dimension,
    or Inconclusive when the walk reaches the cap.  The walk reads only
    where the count's walks of I stopped (`Ideal.reach`), never the proof
    of I's count; at or past the cap, that is already Inconclusive.
    """
    check_cap(cap)
    if certificate(I):
        return NOT_FINITE
    floor = I.reach or 0
    model = jet_model(I, cap, floor) if floor < cap else None
    return INCONCLUSIVE if model is None else model.colength
