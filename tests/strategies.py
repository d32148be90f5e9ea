"""Hypothesis strategies for randomized algebra tests.

Inputs are kept deliberately small: two or three variables, low degrees,
single-digit rational coefficients.  The exactness of the arithmetic means
small cases carry the same evidential weight as large ones, and standard
basis computations on random ideals stay fast.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from brs import Polynomial, VarContext
from brs.polycore import Monomial
from brs.stdbasis import Ideal

CTX2 = VarContext(("x", "y"))
CTX3 = VarContext(("x", "y", "z"))

coefficients = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7
).filter(lambda q: q != 0)
integer_coefficients = st.integers(-9, 9).filter(lambda c: c != 0)


def monomials(n: int, max_exp: int = 4):
    return st.tuples(*(st.integers(0, max_exp) for _ in range(n))).map(Monomial)


@st.composite
def polynomials(
    draw, ctx: VarContext = CTX2, max_terms: int = 4, max_exp: int = 3, coeffs=coefficients
):
    terms = draw(
        st.lists(
            st.tuples(monomials(ctx.n, max_exp), coeffs),
            min_size=0,
            max_size=max_terms,
        )
    )
    return Polynomial(ctx, terms)


@st.composite
def nonzero_polynomials(draw, ctx: VarContext = CTX2, max_terms: int = 4, max_exp: int = 3):
    p = draw(polynomials(ctx, max_terms, max_exp).filter(lambda q: not q.is_zero()))
    return p


@st.composite
def germs(draw, ctx: VarContext = CTX2, max_terms: int = 3, max_exp: int = 2):
    """Nonconstant polynomials vanishing at the origin."""
    p = draw(
        polynomials(ctx, max_terms, max_exp).filter(
            lambda q: not q.is_zero() and q.constant_term() == 0
        )
    )
    return p


@st.composite
def zero_dim_ideals(draw, ctx: VarContext = CTX2):
    """Random ideals guaranteed zero-dimensional.

    Each variable contributes a generator whose leading term is a pure power
    (its tail has strictly larger degree, hence is smaller under the local
    order), so the leading ideal always contains a power of every variable.
    Tail degrees stay close to the lead so reduction chains stay short.
    """
    gens = []
    for i in range(ctx.n):
        e = draw(st.integers(1, 3))
        exps = [0] * ctx.n
        exps[i] = e
        head = Polynomial.monomial(ctx, exps, draw(coefficients))
        tail_terms = draw(
            st.lists(
                st.tuples(
                    monomials(ctx.n, e + 1).filter(lambda m: m.degree > e),
                    coefficients,
                ),
                min_size=0,
                max_size=2,
            )
        )
        gens.append(head + Polynomial(ctx, tail_terms))
    extra = draw(st.lists(germs(ctx), min_size=0, max_size=1))
    gens.extend(extra)
    return Ideal(ctx, gens)
