"""Exact multivariate polynomial arithmetic over the rationals, ordered locally.

Everything downstream (standard bases, derivation modules, invariants) is built
on the types here.  Coefficients are exact: an integral coefficient is a plain
Python `int`, from the parser through every operation, and a
`fractions.Fraction` appears only where a genuine rational was put in (`as_coeff`).
The two agree on `==`, `hash` and `str`, so which one a coefficient is never
changes a result.  No floating point is ever introduced: all the identity
checks this package exists for are exact integer equalities, so a single
rounded coefficient would invalidate the whole pipeline.

The one ring ordering shipped is negative-degree-reverse-lexicographic: lower
total degree wins, ties are broken on the rightmost differing exponent (larger
exponent wins).  Under it the constant monomial 1 is the greatest monomial, so
leading terms pick out lowest-order behaviour and computations take place in
the local ring of germs at the origin rather than in the polynomial ring.

All values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Sequence, Union

from .errors import BrsError, ContextError, GermError

CoeffLike = Union[int, Fraction]  # an int when integral, once through `as_coeff`


def as_coeff(value: CoeffLike) -> CoeffLike:
    """An exact coefficient: an `int` when the value is integral, else a `Fraction`.

    An `int` is kept as it is, a `bool` becomes 0 or 1, and a `Fraction` with
    denominator 1 becomes its numerator, so only a genuine rational stays a
    `Fraction`.  Floats are rejected outright.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"exact rational coefficient required, got {type(value).__name__}")


def _exact(terms: Iterable[tuple["Monomial", CoeffLike]]) -> tuple:
    # The terms with each integral `Fraction` made an `int`, at one type check an `int`.
    return tuple((m, c if type(c) is int else as_coeff(c)) for m, c in terms)


# The jet engine (`oracle`) names a monomial by one integer, one field of
# PACK_FIELD bits per exponent, so multiplying two monomials is adding their
# integers.  The sum cannot carry from one field into the next while its
# degree fits a field, and the engine builds no monomial of a larger degree:
# an exponent beyond MAX_PACKED_DEGREE raises BrsError instead of naming a
# wrong monomial.  The Mora kernel reads the same form (`packed_terms`).
PACK_FIELD = 16
MAX_PACKED_DEGREE = (1 << PACK_FIELD) - 1


def pack_exponents(exps: Sequence[int]) -> int:
    """The jet engine's integer for the monomial with these exponents."""
    packed = 0
    for i, e in enumerate(exps):
        if e > MAX_PACKED_DEGREE:
            raise BrsError(f"exponent {e} exceeds the jet engine's limit {MAX_PACKED_DEGREE}")
        packed |= e << (PACK_FIELD * i)
    return packed


class VarContext:
    """Ordered, pairwise-distinct variable names fixing the ambient ring."""

    __slots__ = ("names", "n")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ContextError("a variable context needs at least one variable")
        if len(set(names)) != len(names):
            raise ContextError(f"duplicate variable names in {names!r}")
        self.names = names
        self.n = len(names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ContextError(f"unknown variable {name!r}") from None

    def variable(self, i: int) -> "Polynomial":
        exps = [0] * self.n
        exps[i] = 1
        return Polynomial(self, [(Monomial(exps), 1)])

    def variables(self) -> tuple["Polynomial", ...]:
        return tuple(self.variable(i) for i in range(self.n))

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, VarContext) and self.names == other.names)

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarContext({', '.join(self.names)})"


def require_same_ctx(a: VarContext, b: VarContext) -> None:
    if a is not b and a != b:
        raise ContextError(f"mixed variable contexts: {a!r} vs {b!r}")


class Monomial:
    """Exponent vector with cached total degree.

    Monomials do not carry their context; operations check exponent lengths,
    and `Polynomial` owns the actual context.
    """

    __slots__ = ("exponents", "degree", "_key")

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        self.exponents = exps
        self.degree = sum(exps)
        self._key = None

    @staticmethod
    def _unchecked(exponents: tuple[int, ...], degree: int) -> "Monomial":
        """Trusted constructor, for exponents known to be non-negative, with their sum."""
        m = object.__new__(Monomial)
        m.exponents = exponents
        m.degree = degree
        m._key = None
        return m

    def sort_key(self) -> tuple:
        # Greater key means greater monomial under negdegrevlex.
        key = self._key
        if key is None:
            key = (-self.degree, self.exponents[::-1])
            self._key = key
        return key

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(a + b for a, b in zip(self.exponents, other.exponents, strict=True))

    def divides(self, other: "Monomial") -> bool:
        return self.degree <= other.degree and all(
            a <= b for a, b in zip(self.exponents, other.exponents, strict=True)
        )

    def pure_power_axis(self) -> int | None:
        """Index of the single variable this is a power of, or None.

        The unit monomial is a pure power of every variable; it returns -1.
        """
        nonzero = [i for i, e in enumerate(self.exponents) if e > 0]
        if not nonzero:
            return -1
        if len(nonzero) == 1:
            return nonzero[0]
        return None

    def is_unit(self) -> bool:
        return self.degree == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return f"Monomial{self.exponents}"


def exponents_of_degree(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of n variables with total degree d, in lexicographic order."""
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d + 1) for rest in exponents_of_degree(n - 1, d - e)]


Term = tuple[Monomial, CoeffLike]
PackedTerm = tuple[int, int, int]  # (packed monomial, degree, integer coefficient)


class Polynomial:
    """Sparse polynomial: terms sorted strictly descending under the local order.

    The zero polynomial has an empty term tuple.  Arithmetic is exact and
    always returns normalized results (no zero coefficients, no duplicate
    monomials).  Instances are immutable by convention; nothing mutates
    `terms` after construction.  The partial derivatives are computed on
    first use and kept (`partial`), and so are the integer terms both
    engines read (`packed_terms`).
    """

    __slots__ = ("ctx", "terms", "_partials", "_packed")

    def __init__(self, ctx: VarContext, terms: Iterable[tuple[Monomial, CoeffLike]] = ()):
        collected: dict[tuple, tuple[Monomial, CoeffLike]] = {}
        for mono, coeff in terms:
            if len(mono.exponents) != ctx.n:
                raise ContextError(f"monomial {mono!r} does not fit context {ctx!r}")
            coeff = as_coeff(coeff)
            prev = collected.get(mono.exponents)
            if prev is not None:
                coeff = as_coeff(prev[1] + coeff)
            collected[mono.exponents] = (mono, coeff)
        cleaned = [(m, c) for (m, c) in collected.values() if c != 0]
        cleaned.sort(key=lambda t: t[0].sort_key(), reverse=True)
        self.ctx = ctx
        self.terms = tuple(cleaned)
        self._partials = None
        self._packed = None

    @staticmethod
    def _raw(ctx: VarContext, terms: tuple[Term, ...]) -> "Polynomial":
        """Trusted constructor for terms already normalized and sorted."""
        p = object.__new__(Polynomial)
        p.ctx = ctx
        p.terms = terms
        p._partials = None
        p._packed = None
        return p

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, ctx: VarContext) -> "Polynomial":
        return cls._raw(ctx, ())

    @classmethod
    def constant(cls, ctx: VarContext, value: CoeffLike) -> "Polynomial":
        c = as_coeff(value)
        if c == 0:
            return cls.zero(ctx)
        return cls._raw(ctx, ((Monomial((0,) * ctx.n), c),))

    @classmethod
    def monomial(cls, ctx: VarContext, exponents: Iterable[int], coeff: CoeffLike = 1) -> "Polynomial":
        return cls(ctx, [(Monomial(exponents), coeff)])

    # ------------------------------------------------------------------
    # structure

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def leading(self) -> Term | None:
        """Greatest term under the local order (None for the zero polynomial)."""
        return self.terms[0] if self.terms else None

    def constant_term(self) -> CoeffLike:
        # The unit monomial is the greatest monomial under a local order,
        # so a constant term can only sit in front.
        if self.terms and self.terms[0][0].degree == 0:
            return self.terms[0][1]
        return 0

    def degree(self) -> int:
        """Maximum total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree for m, _ in self.terms)

    def tail_degree(self) -> int:
        """Degree of the leading (lowest-order) monomial; -1 for zero."""
        if not self.terms:
            return -1
        return self.terms[0][0].degree

    def support_vars(self) -> frozenset[int]:
        used = set()
        for m, _ in self.terms:
            for i, e in enumerate(m.exponents):
                if e:
                    used.add(i)
        return frozenset(used)

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        require_same_ctx(self.ctx, other.ctx)
        out: list[Term] = []
        i = j = 0
        a, b = self.terms, other.terms
        while i < len(a) and j < len(b):
            ka, kb = a[i][0].sort_key(), b[j][0].sort_key()
            if ka > kb:
                out.append(a[i])
                i += 1
            elif ka < kb:
                out.append(b[j])
                j += 1
            else:
                c = a[i][1] + b[j][1]
                if c != 0:
                    out.append((a[i][0], c if type(c) is int else as_coeff(c)))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Polynomial._raw(self.ctx, tuple(out))

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.ctx, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return dot(self.ctx, (self,), (self._coerce(other),))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.constant(self.ctx, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    def scale(self, c: CoeffLike) -> "Polynomial":
        c = as_coeff(c)
        if c == 0:
            return Polynomial.zero(self.ctx)
        return Polynomial._raw(self.ctx, _exact((m, coeff * c) for m, coeff in self.terms))

    def mul_term(self, mono: Monomial, coeff: CoeffLike) -> "Polynomial":
        """Multiply by a single term.  Order is preserved, so no re-sort."""
        if coeff == 0:
            return Polynomial.zero(self.ctx)
        if mono.is_unit():
            return self.scale(coeff)
        return Polynomial._raw(self.ctx, _exact((m.mul(mono), c * coeff) for m, c in self.terms))

    def jet(self, d: int) -> "Polynomial":
        """The terms of total degree below d (a prefix under the local order)."""
        k = 0
        for mono, _ in self.terms:
            if mono.degree >= d:
                break
            k += 1
        return self if k == len(self.terms) else Polynomial._raw(self.ctx, self.terms[:k])

    def partial(self, i: int) -> "Polynomial":
        """Exact partial derivative with respect to variable i, computed once."""
        if not 0 <= i < self.ctx.n:
            raise ContextError(f"variable index {i} out of range")
        if self._partials is None:
            self._partials = [None] * self.ctx.n
        cached = self._partials[i]
        if cached is None:
            cached = self._partials[i] = self._derivative(i)
        return cached

    def _derivative(self, i: int) -> "Polynomial":
        out: list[Term] = []
        for m, c in self.terms:
            e = m.exponents[i]
            if e == 0:
                continue
            exps = m.exponents[:i] + (e - 1,) + m.exponents[i + 1 :]
            out.append((Monomial._unchecked(exps, m.degree - 1), c * e))
        # The surviving terms all lose one from the same exponent, so they
        # stay distinct and keep their order under the local order.
        return Polynomial._raw(self.ctx, _exact(out))

    def packed_terms(self) -> tuple[int, tuple[PackedTerm, ...]]:
        """The terms cleared of denominators, computed once: (den, terms).

        `den` is the least common multiple of the denominators (1 for integer
        coefficients), and each term is (packed monomial, degree, den * c),
        the monomial packed by `pack_exponents`, in the order of `terms`.
        """
        packed = self._packed
        if packed is None:
            den = lcm(*(c.denominator for _, c in self.terms))
            packed = self._packed = (
                den,
                tuple(
                    (pack_exponents(m.exponents), m.degree, c.numerator * (den // c.denominator))
                    for m, c in self.terms
                ),
            )
        return packed

    # ------------------------------------------------------------------
    # context plumbing

    def embed(self, new_ctx: VarContext) -> "Polynomial":
        """Reinterpret in a larger context, matching variables by name; in its own, itself."""
        if new_ctx == self.ctx:
            return self
        mapping = [new_ctx.index(name) for name in self.ctx.names]
        out = []
        for m, c in self.terms:
            exps = [0] * new_ctx.n
            for old_i, e in enumerate(m.exponents):
                exps[mapping[old_i]] = e
            out.append((Monomial._unchecked(tuple(exps), m.degree), c))
        return Polynomial(new_ctx, out)

    def restrict(self, sub_ctx: VarContext) -> "Polynomial":
        """Project onto a sub-context; fails if other variables occur."""
        mapping = []
        for i, name in enumerate(self.ctx.names):
            mapping.append(sub_ctx.names.index(name) if name in sub_ctx.names else None)
        out = []
        for m, c in self.terms:
            exps = [0] * sub_ctx.n
            for old_i, e in enumerate(m.exponents):
                if e == 0:
                    continue
                if mapping[old_i] is None:
                    raise ContextError(
                        f"variable {self.ctx.names[old_i]!r} not present in {sub_ctx!r}"
                    )
                exps[mapping[old_i]] = e
            out.append((Monomial(exps), c))
        return Polynomial(sub_ctx, out)

    # ------------------------------------------------------------------
    # comparison / display

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.ctx, other)
        raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ctx.names, tuple((m.exponents, c) for m, c in self.terms)))

    def _format_term(self, mono: Monomial, coeff: CoeffLike) -> str:
        factors = []
        for name, e in zip(self.ctx.names, mono.exponents):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            return str(coeff)
        body = "*".join(factors)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx, (m, c) in enumerate(self.terms):
            rendered = self._format_term(m, c)
            if idx == 0:
                parts.append(rendered)
            elif rendered.startswith("-"):
                parts.append(f"- {rendered[1:]}")
            else:
                parts.append(f"+ {rendered}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def integral_terms(polys: Sequence[Polynomial]) -> tuple[int, list[tuple[PackedTerm, ...]]]:
    """The factor and the `packed_terms` of the polynomials, scaled by that factor.

    The factor is the least common multiple of every denominator, so it is
    positive and shared: spans, leading terms and the ratios between the
    polynomials are unchanged.  Only terms of another denominator are rescaled.
    """
    packed = [p.packed_terms() for p in polys]
    den = lcm(*(d for d, _ in packed))
    return den, [
        terms if d == den else tuple((m, deg, c * (den // d)) for m, deg, c in terms)
        for d, terms in packed
    ]


def dot(ctx: VarContext, left: Sequence[Polynomial], right: Sequence[Polynomial]) -> Polynomial:
    """sum_i left[i] * right[i], gathered in one term dict and sorted once."""
    acc: dict[tuple, CoeffLike] = {}
    monos: dict[tuple, Monomial] = {}
    for a, b in zip(left, right, strict=True):
        require_same_ctx(ctx, a.ctx)
        require_same_ctx(ctx, b.ctx)
        for ma, ca in a.terms:
            ea, da = ma.exponents, ma.degree
            for mb, cb in b.terms:
                exps = tuple(map(add, ea, mb.exponents))
                prev = acc.get(exps)
                if prev is None:
                    acc[exps] = ca * cb
                    monos[exps] = Monomial._unchecked(exps, da + mb.degree)
                else:
                    acc[exps] = prev + ca * cb
    cleaned = [(monos[e], c if type(c) is int else as_coeff(c)) for e, c in acc.items() if c != 0]
    cleaned.sort(key=lambda t: t[0].sort_key(), reverse=True)
    return Polynomial._raw(ctx, tuple(cleaned))


@dataclass(frozen=True)
class VectorField:
    """Vector field on the ambient space: one polynomial per variable."""

    components: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.components:
            raise ContextError("a vector field needs at least one component")
        ctx = self.components[0].ctx
        for c in self.components:
            require_same_ctx(ctx, c.ctx)
        if len(self.components) != ctx.n:
            raise ContextError(
                f"vector field has {len(self.components)} components in a {ctx.n}-variable context"
            )

    @property
    def ctx(self) -> VarContext:
        return self.components[0].ctx

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def jacobian_ideal(f: Polynomial) -> list[Polynomial]:
    """All partial derivatives of a germ, in variable order.

    Generates the Jacobian ideal; positions matter to callers that pair
    components with variables, so zero partials are kept in place.
    """
    if f.constant_term() != 0:
        raise GermError("not a germ: f(0) != 0")
    return [f.partial(i) for i in range(f.ctx.n)]


def minors_2x2(f: Polynomial, phi: Polynomial) -> list[Polynomial]:
    """2x2 minors of the Jacobian matrix of the pair (f, phi).

    Generators f_j*phi_k - f_k*phi_j for j < k, in lexicographic (j, k)
    order; n*(n-1)/2 entries, empty for one variable.
    """
    require_same_ctx(f.ctx, phi.ctx)
    n = f.ctx.n
    df = [f.partial(i) for i in range(n)]
    dphi = [phi.partial(i) for i in range(n)]
    out = []
    for j in range(n):
        for k in range(j + 1, n):
            out.append(df[j] * dphi[k] - df[k] * dphi[j])
    return out

