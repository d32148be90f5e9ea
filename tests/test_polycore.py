from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brs.polycore as polycore
from brs import BrsError, ContextError, GermError, Polynomial, VarContext, parse_poly
from brs.oracle import jet_model
from brs.polycore import (
    MAX_PACKED_DEGREE,
    Monomial,
    dot,
    integral_terms,
    jacobian_ideal,
    minors_2x2,
    pack_exponents,
)
from brs.stdbasis import Ideal, _to_ivecs, standard_basis
from brs.tangent import theta_full
from strategies import CTX2, CTX3, integer_coefficients, monomials, polynomials


class TestCompare:
    # The local order is the order of `Monomial.sort_key()`: greater key,
    # greater monomial.
    def test_unit_beats_every_variable(self, ctx2):
        one = Monomial((0, 0)).sort_key()
        assert one > Monomial((1, 0)).sort_key()
        assert one > Monomial((0, 1)).sort_key()

    def test_reflexive(self):
        assert Monomial((1, 0)).sort_key() == Monomial((1, 0)).sort_key()

    def test_same_degree_revlex_tiebreak(self):
        # degree-2 monomials in (x, y): enumerating the rule by hand gives
        # y^2 > x*y > x^2 (rightmost differing exponent decides).
        xy = Monomial((1, 1)).sort_key()
        x2 = Monomial((2, 0)).sort_key()
        y2 = Monomial((0, 2)).sort_key()
        assert xy > x2
        assert y2 > xy
        assert x2 < y2

    def test_context_mismatch(self, ctx2):
        # Monomials of different lengths never meet in one order: a
        # polynomial rejects a monomial that does not fit its context.
        with pytest.raises(ContextError):
            Polynomial(ctx2, [(Monomial((1, 0, 0)), 1)])

    @given(a=monomials(2), b=monomials(2))
    def test_antisymmetric(self, a, b):
        assert (a.sort_key() == b.sort_key()) == (a == b)

    @given(a=monomials(2), b=monomials(2), c=monomials(2))
    def test_transitive(self, a, b, c):
        if a.sort_key() >= b.sort_key() and b.sort_key() >= c.sort_key():
            assert a.sort_key() >= c.sort_key()

    @given(a=monomials(2), b=monomials(2), m=monomials(2))
    def test_multiplicative_compatibility(self, a, b, m):
        if a.sort_key() > b.sort_key():
            assert a.mul(m).sort_key() > b.mul(m).sort_key()


class TestArithmetic:
    def test_partial_power_rule(self, P):
        assert P("x^2 + y^3").partial(0) == P("2*x")

    def test_product_of_conjugates(self, P):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")

    def test_partial_of_three_var_germ(self, ctx3):
        f = parse_poly("x*y - z^4", ctx3)
        assert f.partial(2) == parse_poly("-4*z^3", ctx3)

    def test_partials_are_computed_once(self, ctx3):
        f = parse_poly("x*y - z^4", ctx3)
        first = [f.partial(i) for i in range(3)]
        assert all(f.partial(i) is first[i] for i in range(3))
        assert (f * f).partial(0) == 2 * f * first[0]

    def test_float_coefficients_rejected(self, ctx2):
        with pytest.raises(TypeError):
            Polynomial.constant(ctx2, 0.5)  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            parse_poly("x", ctx2) * 0.5  # type: ignore[operator]
        # A bool is an integer, and becomes a plain int.
        ((_, c),) = Polynomial.constant(ctx2, True).terms
        assert type(c) is int and c == 1
        ((_, c),) = (parse_poly("x", ctx2) * True).terms
        assert type(c) is int and c == 1
        assert Polynomial.constant(ctx2, False).is_zero()

    def test_packed_terms_are_computed_once(self, P):
        p = P("1/2*x + 1/3*y^2")
        assert p.packed_terms() is p.packed_terms()
        # Cleared of denominators by their least common multiple, in term order.
        assert p.packed_terms() == (
            6,
            ((pack_exponents((1, 0)), 1, 3), (pack_exponents((0, 2)), 2, 2)),
        )
        assert P("2*x - y").packed_terms()[0] == 1

    def test_both_engines_clear_denominators_by_one_factor(self, P, monkeypatch):
        # The Mora kernel (`_to_ivecs`) and the jet engine read one integer
        # form, each polynomial's `packed_terms`, scaled by one common factor.
        p, q = P("1/2*x + 1/3*y^2"), P("3/4*y - x^3")
        den, ivecs = _to_ivecs([(p,), (q,)])
        assert den == integral_terms([p, q])[0] == 12
        assert ivecs == [(tuple((m.sort_key(), int(c * 12)) for m, c in g.terms),) for g in (p, q)]
        # A standard basis and a walk of one polynomial pack its terms once.
        # The x axis certifies an infinite colength, so Mora runs with no walk.
        packed = []
        real = polycore.pack_exponents
        monkeypatch.setattr(polycore, "pack_exponents", lambda e: packed.append(e) or real(e))
        r = P("1/2*x^2*y + 1/3*y^3")
        standard_basis(Ideal(CTX2, [r]))
        assert packed == [m.exponents for m, _ in r.terms]
        jet_model(Ideal(CTX2, [r]))
        assert packed == [m.exponents for m, _ in r.terms]

    def test_an_exponent_beyond_the_packing_stops_a_mora_run(self, ctx2):
        # The y axis certifies an infinite colength, so no walk comes first.
        huge = Polynomial.monomial(ctx2, (MAX_PACKED_DEGREE + 1, 0))
        with pytest.raises(BrsError, match="exceeds"):
            standard_basis(Ideal(ctx2, [huge]))

    def test_terms_sorted_descending_without_duplicates(self, P):
        p = P("y^3 + x^2 + x^2")
        keys = [m.sort_key() for m, _ in p.terms]
        assert keys == sorted(keys, reverse=True)
        assert p == P("2*x^2 + y^3")

    @settings(max_examples=60)
    @given(f=polynomials(), g=polynomials(), h=polynomials())
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=60)
    @given(f=polynomials(), g=polynomials())
    def test_product_rule(self, f, g):
        for i in range(CTX2.n):
            assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def with_fractions(p: Polynomial) -> Polynomial:
    """p with every coefficient a `Fraction`, as every coefficient once was."""
    return Polynomial._raw(p.ctx, tuple((m, Fraction(c)) for m, c in p.terms))


def integer_only(p: Polynomial) -> bool:
    return all(type(c) is int for _, c in p.terms)


class TestIntegerCoefficients:
    """An integral coefficient is a plain int; a `Fraction` only for a rational input."""

    @settings(max_examples=60)
    @given(
        f=polynomials(coeffs=integer_coefficients),
        g=polynomials(coeffs=integer_coefficients),
        k=st.integers(-5, 5),
        e=st.integers(0, 3),
    )
    def test_integer_polynomials_stay_integer(self, f, g, k, e):
        F, G = with_fractions(f), with_fractions(g)
        pairs = [
            (f + g, F + G),
            (f - g, F - G),
            (f * g, F * G),
            (f**e, F**e),
            (f.partial(0), F.partial(0)),
            (f.partial(1), F.partial(1)),
            (f * k, F * Fraction(k)),
            (k * f, Fraction(k) * F),
            (f.embed(CTX3), F.embed(CTX3)),
        ]
        for got, old in pairs:
            assert integer_only(got)
            assert got == old and hash(got) == hash(old) and str(got) == str(old)
        assert integer_only(f) and type(f.constant_term()) is int

    def test_a_rational_stays_a_fraction(self, P):
        ((_, c),) = P("1/2*x").terms
        assert type(c) is Fraction and c == Fraction(1, 2)
        ((_, c),) = P("4/2*x").terms
        assert type(c) is int and c == 2

    def test_integral_results_of_rationals_are_ints(self, P, ctx2):
        half, y = P("1/2*x"), P("y")
        results = [
            half + half,
            half - P("-1/2*x"),
            half * P("2*y"),
            half * 2,
            Fraction(2) * half,
            half.scale(4),
            half.mul_term(Monomial((0, 1)), 2),
            P("1/2*x^2").partial(0),
            dot(ctx2, [half, half], [y, y]),
            Polynomial(ctx2, [(Monomial((1, 0)), Fraction(1, 2))] * 2),
        ]
        assert all(map(integer_only, results)), results
        assert [str(p) for p in results] == ["x", "x", "x*y", "x", "x", "2*x", "x*y", "x", "x*y", "x"]

    @settings(max_examples=60)
    @given(f=polynomials(), g=polynomials(), k=st.fractions(max_denominator=4))
    def test_no_integral_fraction_comes_out(self, f, g, k):
        for p in (f + g, f - g, f * g, f.scale(k), f.partial(0)):
            assert all(type(c) is int or c.denominator != 1 for _, c in p.terms), p

    def test_kernel_outputs_are_integer(self, P):
        phi = P("x^2*y^2 + x^5 + y^5")
        theta = theta_full(phi)
        fields = [c for xi in theta.gens for c in xi.components]
        assert fields and theta.cofactors
        assert all(map(integer_only, fields + list(theta.cofactors)))
        basis = standard_basis(Ideal(phi.ctx, [phi] + jacobian_ideal(phi)))
        assert all(integer_only(p) for v in basis.elements for p in v)


class TestJacobian:
    def test_three_var_example(self, ctx3):
        f = parse_poly("x*y - z^4", ctx3)
        expected = [parse_poly(s, ctx3) for s in ("y", "x", "-4*z^3")]
        assert jacobian_ideal(f) == expected

    def test_cusp(self, P):
        assert jacobian_ideal(P("x^2 + y^3")) == [P("2*x"), P("3*y^2")]

    def test_smooth_unit_ideal(self):
        ctx1 = VarContext(("x",))
        assert jacobian_ideal(parse_poly("x", ctx1)) == [Polynomial.constant(ctx1, 1)]

    def test_constant_term_rejected(self, P):
        with pytest.raises(GermError):
            jacobian_ideal(P("x^2 + 1"))


class TestMinors:
    def test_single_minor_by_hand(self, P):
        # f = y, phi = x^2 + y^3: the one 2x2 determinant is
        # f_x*phi_y - f_y*phi_x = -2x.
        assert minors_2x2(P("y"), P("x^2 + y^3")) == [P("-2*x")]

    def test_repeated_rows_vanish(self, P):
        phi = P("x^2 + y^3")
        assert all(m.is_zero() for m in minors_2x2(phi, phi))

    def test_three_vars_lexicographic_order(self, ctx3):
        f = parse_poly("x", ctx3)
        phi = parse_poly("y", ctx3)
        got = minors_2x2(f, phi)
        assert got == [
            Polynomial.constant(ctx3, 1),
            Polynomial.zero(ctx3),
            Polynomial.zero(ctx3),
        ]

    def test_count_in_one_var(self):
        ctx1 = VarContext(("x",))
        assert minors_2x2(parse_poly("x^2", ctx1), parse_poly("x^3", ctx1)) == []


class TestContexts:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ContextError):
            VarContext(("x", "x"))

    def test_embed_restrict_roundtrip(self, ctx2, ctx3):
        p = parse_poly("x^2 - 3*y", ctx2)
        assert p.embed(ctx3).restrict(ctx2) == p

    def test_restrict_fails_on_used_variable(self, ctx2, ctx3):
        p = parse_poly("z^2", ctx3)
        with pytest.raises(ContextError):
            p.restrict(ctx2)

    def test_mixed_context_arithmetic_rejected(self, ctx2, ctx3):
        with pytest.raises(ContextError):
            parse_poly("x", ctx2) + parse_poly("x", ctx3)


class TestVectorField:
    def test_length_enforced(self, ctx2, P):
        from brs.polycore import VectorField

        with pytest.raises(ContextError):
            VectorField((P("x"),))
