import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brs import (
    BrsError,
    INCONCLUSIVE,
    Ideal,
    JetTruncation,
    NOT_FINITE,
    axis_certificate,
    colength,
    jacobian_ideal,
    ideals_equal,
    jet_model,
    jet_quotient_dim,
    oracle_colength,
    parse_poly,
)
from brs.oracle import extended_jet_model
from conftest import jet_contains
from strategies import CTX2, germs, polynomials, zero_dim_ideals


def I2(*sources):
    return Ideal(CTX2, [parse_poly(s, CTX2) for s in sources])


class TestOracleColength:
    def test_maximal_ideal_stabilizes_immediately(self):
        assert oracle_colength(I2("x", "y")) == 1

    def test_cusp_jacobian(self):
        assert oracle_colength(I2("2*x", "3*y^2")) == 2

    def test_principal_is_not_finite(self):
        assert oracle_colength(I2("x")) is NOT_FINITE

    def test_axis_certificate(self):
        # No generator has a pure power of y: the y-axis lies in the zero set.
        assert axis_certificate(I2("x", "x*y^2"))
        assert oracle_colength(I2("x", "x*y^2")) is NOT_FINITE
        assert not axis_certificate(I2("x", "y^3 + x*y"))
        assert not axis_certificate(I2("1 + x"))

    def test_growth_alone_is_not_a_certificate(self):
        # Finite ideals whose jet dimensions grow linearly for many steps:
        # the oracle may run out of levels, but it must never say infinite.
        assert colength(I2("x^9 + y^2", "x*y")) == 11
        assert oracle_colength(I2("x^9 + y^2", "x*y")) == 11
        assert colength(I2("x^40", "y")) == 40
        assert oracle_colength(I2("x^40", "y")) is INCONCLUSIVE
        assert oracle_colength(I2("x^40", "y"), cap=48) == 40

    def test_infinite_without_certificate_is_inconclusive(self):
        phi = "x^2 + y^3"
        got = oracle_colength(I2(f"2*({phi})", f"x*({phi})"), cap=12)
        assert got is INCONCLUSIVE

    def test_cap_validation(self):
        with pytest.raises(BrsError):
            oracle_colength(I2("x", "y"), cap=2)

    def test_inconclusive_at_tiny_cap(self):
        # Colength 6 cannot stabilize by d = 4, and the quotient dimensions
        # are still growing, so a cap of 4 must refuse to answer.
        got = oracle_colength(I2("x^3", "y^3", "x*y^2 + y^5"), cap=4)
        assert got is INCONCLUSIVE

    def test_unit_tail_generator(self):
        # (x - x^2) = (x) locally; the oracle sees it through truncation.
        assert oracle_colength(I2("x - x^2", "y")) == 1

    def test_agrees_with_engine_on_t77_tjurina_ideal(self):
        phi = parse_poly("x^7 + y^7 + x^3*y^3", CTX2)
        I = Ideal(CTX2, [phi] + jacobian_ideal(phi))
        want = colength(I)
        assert oracle_colength(I) == want

    def test_determinism_under_larger_cap(self):
        for I in (I2("2*x", "3*y^2"), I2("x^2", "y^3"), I2("x^2 - y^3", "x*y")):
            first = oracle_colength(I, cap=32)
            again = oracle_colength(I, cap=40)
            assert first == again

    def test_quotient_dim_monotone_then_constant(self):
        I = I2("x^2", "y^3")
        dims = [jet_quotient_dim(I, d) for d in (4, 6, 8, 10)]
        assert dims == sorted(dims)
        assert dims[-1] == dims[-2] == colength(I)


class TestJetModel:
    def test_certificate_level_and_colength(self):
        model = jet_model(I2("x^2", "y^3"))
        assert model.colength == 6
        # dim(d) = 1, 3, 5, 6, 6: stable from d = 4 on, so m^4 lies in I.
        assert model.level == 4

    def test_unit_ideal(self):
        model = jet_model(I2("1 + x", "y"))
        assert (model.level, model.colength) == (0, 0)
        assert model.contains(parse_poly("y^7 - 3", CTX2))

    def test_membership(self):
        model = jet_model(I2("x^2 - y^3", "x*y"))
        assert model.contains(parse_poly("y^4", CTX2))
        assert model.contains(parse_poly("x^3 + y^9", CTX2))
        assert not model.contains(parse_poly("y^3", CTX2))

    def test_colon(self):
        model = jet_model(I2("x^2", "y^3"))
        colon = model.colon([parse_poly("x*y", CTX2)])
        assert colon.colength == 2  # (x^2, y^3) : (xy) = (x, y^2)
        assert colon.contains_all([parse_poly("x", CTX2), parse_poly("y^2", CTX2)])
        assert not colon.contains(parse_poly("y", CTX2))
        generated = Ideal(CTX2, colon.generators())
        assert ideals_equal(generated, I2("x", "y^2"))

    def test_extended_model(self):
        # (x^2, y^3) at level 4 plus x*y - y^2: standard monomials 1, x, y,
        # y^2, so a walk of the sum stops at level 3, below the base's.
        base = jet_model(I2("x^2", "y^3"))
        extra = [parse_poly("x*y - y^2", CTX2)]
        model = extended_jet_model(I2("x^2", "y^3", "x*y - y^2"), base, extra)
        assert (model.level, model.colength) == (3, 4)
        assert model.contains(parse_poly("x*y - y^2 + x*y^2", CTX2))
        assert not model.contains(parse_poly("y^2", CTX2))

    @settings(max_examples=40, deadline=None)
    @given(
        I=zero_dim_ideals(),
        extra=st.lists(germs(), min_size=1, max_size=2),
        probes=st.lists(polynomials(max_terms=3, max_exp=4), max_size=4),
    )
    def test_extended_model_is_the_walked_model(self, I, extra, probes):
        total = I + Ideal(CTX2, extra)
        walked = jet_model(total)
        extended = extended_jet_model(total, jet_model(I), extra)
        if walked is None:
            assert extended is None
            return
        assert (extended.level, extended.colength) == (walked.level, walked.colength)
        for p in [*probes, *extra, *(g * q for g in extra for q in probes)]:
            assert extended.contains(p) == walked.contains(p), p

    def test_infinite_ideal_is_left_to_mora(self):
        assert jet_model(I2("x^2 + y^3")) is None
        assert jet_model(I2("x^2 + y^3", "x^3 + x*y^3")) is None


class TestJetHelpers:
    def test_jet_membership_matches_exact_membership(self):
        from brs import membership

        I = I2("x^2", "x*y")
        assert jet_contains(I, parse_poly("x^2 + x*y", CTX2), 6)
        assert not jet_contains(I, parse_poly("y", CTX2), 6)
        assert membership(parse_poly("x^2 + x*y", CTX2), I)

    def test_truncation_index_is_graded_lexicographic(self):
        jt = JetTruncation.build(2, 3)
        ordered = sorted(jt.monomial_index, key=jt.monomial_index.get)  # type: ignore[arg-type]
        assert ordered == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert jt.size == 6
