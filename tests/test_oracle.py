import copy
import sys
import threading
from contextvars import copy_context
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brs.oracle as oracle_module
import brs.stdbasis as stdbasis_module
from brs import BrsError, NOT_FINITE, Polynomial, VarContext, analyze, parse_poly, parse_problem
from brs.polycore import MAX_PACKED_DEGREE, jacobian_ideal
from brs.stdbasis import DEFAULT_BUDGET, Ideal, colength, ideal_colon
from brs.oracle import (
    DEFAULT_CAP,
    INCONCLUSIVE,
    _Echelon,
    _generators,
    _insert_shifts,
    _span,
    _table,
    certificate,
    extended_jet_model,
    jet_model,
    metered,
    oracle_colength,
)
from conftest import (
    CORPUS_DIR,
    every_shift_model,
    ideals_equal,
    jet_contains,
    jet_model_at,
    jet_quotient_dim,
    monomial_index,
    reference_insert,
)
from strategies import (
    CTX2,
    CTX3,
    germs,
    integer_coefficients,
    nonzero_polynomials,
    polynomials,
    zero_dim_ideals,
)


def I2(*sources):
    return Ideal(CTX2, [parse_poly(s, CTX2) for s in sources])


def test_the_two_values_are_singletons_of_one_marker_class():
    # Defined in `oracle`; `stdbasis` and the package root re-export NOT_FINITE.
    assert NOT_FINITE is stdbasis_module.NOT_FINITE is oracle_module.NotFiniteType()
    assert INCONCLUSIVE is oracle_module.InconclusiveType()
    assert copy.deepcopy(NOT_FINITE) is NOT_FINITE and copy.copy(INCONCLUSIVE) is INCONCLUSIVE
    assert isinstance(NOT_FINITE, oracle_module._Marker)
    assert isinstance(INCONCLUSIVE, oracle_module._Marker)
    assert NOT_FINITE is not INCONCLUSIVE and NOT_FINITE != INCONCLUSIVE
    assert (repr(NOT_FINITE), repr(INCONCLUSIVE)) == ("NotFinite", "Inconclusive")


class TestOracleColength:
    def test_maximal_ideal_stabilizes_immediately(self):
        assert oracle_colength(I2("x", "y")) == 1

    def test_cusp_jacobian(self):
        assert oracle_colength(I2("2*x", "3*y^2")) == 2

    def test_principal_is_not_finite(self):
        assert oracle_colength(I2("x")) is NOT_FINITE

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


class TestCertificate:
    def test_certificate(self):
        # No generator has a pure power of y: the y-axis lies in the zero set.
        assert certificate(I2("x", "x*y^2"))
        assert oracle_colength(I2("x", "x*y^2")) is NOT_FINITE
        assert not certificate(I2("x", "y^3 + x*y"))
        assert not certificate(I2("1 + x"))
        # One non-unit generator in two variables cuts out a curve (Krull),
        # but a pure power in one variable cuts out the point.
        assert certificate(I2("x^2 + y^3"))
        ctx1 = VarContext(("x",))
        assert not certificate(Ideal(ctx1, [parse_poly("x^2", ctx1)]))

    @settings(max_examples=150, deadline=None)
    @given(gens=st.lists(polynomials(CTX3, max_terms=4, max_exp=2), max_size=4))
    def test_certificate_scans_each_variable(self, gens):
        # The definition, one scan of every term per variable: a variable
        # is covered by a term that is a pure power of it, or by the unit;
        # one generator without a constant term certifies on its own.
        I = Ideal(CTX3, gens)

        def covered(v):
            return any(
                all(e == 0 for i, e in enumerate(m.exponents) if i != v)
                for g in I.gens
                for m, _ in g.terms
            )

        principal = len(I.gens) == 1 and I.gens[0].constant_term() == 0
        assert certificate(I) == (principal or not all(covered(v) for v in range(CTX3.n)))

    def test_the_count_takes_the_certificate_with_no_work(self):
        # The count and the oracle share one certificate: a principal ideal
        # is settled with no jet walk and no Mora run.
        I = I2("x^2 + y^3")
        with metered() as log:
            assert I.count(DEFAULT_BUDGET) is NOT_FINITE
        assert (I.route, log) == ("certificate", [("count", I, None)])

    @settings(max_examples=80, deadline=None)
    @given(
        I=st.one_of(
            zero_dim_ideals(),
            st.lists(germs(), max_size=3).map(lambda gens: Ideal(CTX2, gens)),
            nonzero_polynomials(max_terms=3).map(lambda p: Ideal(CTX2, [p])),
            st.lists(germs(CTX3), max_size=2).map(lambda gens: Ideal(CTX3, gens)),
        )
    )
    def test_a_certificate_is_never_contradicted_by_mora(self, I):
        # Mora's standard monomials count the colength on their own.
        if certificate(I):
            assert colength(I) is NOT_FINITE


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
        model = extended_jet_model(base, extra)
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
        # m^N lies in I + extra, N the base's level, so a walk capped just
        # above N never gives up, and the extension is that walk's model.
        total = I + Ideal(CTX2, extra)
        base = jet_model(I)
        walked = jet_model(total, cap=base.level + 1)
        extended = extended_jet_model(base, extra)
        assert (extended.level, extended.colength) == (walked.level, walked.colength)
        for p in [*probes, *extra, *(g * q for g in extra for q in probes)]:
            assert extended.contains(p) == walked.contains(p), p

    def test_infinite_ideal_is_left_to_mora(self):
        assert jet_model(I2("x^2 + y^3")) is None
        assert jet_model(I2("x^2 + y^3", "x^3 + x*y^3")) is None


@st.composite
def elements(draw, I: Ideal):
    """An element sum h_i * g_i of I, from random cofactors h_i."""
    cofactors = draw(
        st.lists(polynomials(max_terms=3, max_exp=2), min_size=len(I.gens), max_size=len(I.gens))
    )
    return sum((h * g for h, g in zip(cofactors, I.gens)), Polynomial.zero(I.ctx))


@st.composite
def member_or_not(draw, I: Ideal, nonzero: bool = False):
    """A polynomial p, an element of I, or their sum."""
    p = draw(nonzero_polynomials(max_terms=3) if nonzero else polynomials(max_terms=3))
    member = draw(elements(I))
    choices = [q for q in (p, member, p + member) if not (nonzero and q.is_zero())]
    return draw(st.sampled_from(choices))


class TestMembershipShortcuts:
    # I : (g) is the whole ring and I + (g) is I exactly when g lies in I:
    # both are answered by one membership test, with no elimination.

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_an_element_gives_the_unit_colon_and_the_same_model(self, data):
        I = data.draw(zero_dim_ideals())
        model = jet_model(I)
        if model is None:
            return
        g = data.draw(elements(I))
        with metered() as log:
            colon = model.colon([g])
            assert extended_jet_model(model, [g]) is model
        assert log == [("extend", model, model.level)]  # no colon or extension eliminates
        assert (colon.level, colon.colength) == (0, 0)
        assert colon.contains(parse_poly("1", CTX2))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_the_colon_counts_what_mora_counts(self, data):
        I = data.draw(zero_dim_ideals())
        model = jet_model(I)
        if model is None:
            return
        g = data.draw(member_or_not(I, nonzero=True))
        assert model.colon([g]).colength == colength(ideal_colon(I, Ideal(CTX2, [g])))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_the_extension_counts_what_a_walk_counts(self, data):
        I = data.draw(zero_dim_ideals())
        model = jet_model(I)
        if model is None:
            return
        g = data.draw(member_or_not(I))
        walked = jet_model(I + Ideal(CTX2, [g]), cap=model.level + 1)
        got = extended_jet_model(model, [g])
        assert (got.level, got.colength) == (walked.level, walked.colength)


# Sparse integer columns: negative entries, and a common factor, so that
# many are neither primitive nor positive at their lowest row.
columns = st.tuples(
    st.dictionaries(st.integers(0, 15), integer_coefficients, max_size=6),
    st.integers(-4, 4).filter(bool),
).map(lambda cf: {r: cf[1] * v for r, v in cf[0].items()})


class TestEchelon:
    @settings(max_examples=200, deadline=None)
    @given(cols=st.lists(columns, max_size=12))
    def test_one_pass_insert_stores_the_reference_columns(self, cols):
        ech, reference = _Echelon(), {}
        for col in cols:
            assert ech.insert(dict(col)) == reference_insert(reference, dict(col))
        assert ech.pivots == reference
        for r, col in ech.pivots.items():
            assert (min(col), col[r] > 0, gcd(*col.values())) == (r, True, 1)

    def test_a_primitive_column_is_stored_as_given(self):
        ech = _Echelon()
        col = {3: 2, 5: -3}
        assert ech.insert(col)
        assert ech.pivots[3] is col
        scaled = {4: -2, 6: 4}
        assert ech.insert(scaled)
        assert ech.pivots[4] == {4: 1, 6: -2}


class TestJetHelpers:
    def test_jet_membership_matches_exact_membership(self):
        from brs.stdbasis import membership

        I = I2("x^2", "x*y")
        assert jet_contains(I, parse_poly("x^2 + x*y", CTX2), 6)
        assert not jet_contains(I, parse_poly("y", CTX2), 6)
        assert membership(parse_poly("x^2 + x*y", CTX2), I)

    def test_truncation_index_is_graded_lexicographic(self):
        index = monomial_index(_table(2), 3)
        ordered = sorted(index, key=index.get)  # type: ignore[arg-type]
        assert ordered == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert _table(2).size(3) == 6


class TestFloors:
    @settings(max_examples=40, deadline=None)
    @given(I=zero_dim_ideals(), probes=st.lists(polynomials(max_terms=3, max_exp=4), max_size=4))
    def test_a_floor_changes_no_answer(self, I, probes):
        # A floor only chooses where the first echelon is built: every floor
        # up to two above the true level gives the same model.
        want = jet_model(I)
        top = 3 if want is None else want.level + 2
        for floor in range(top + 1):
            got = jet_model(I, floor=floor)
            if want is None:
                assert got is None
                continue
            assert (got.level, got.colength) == (want.level, want.colength), floor
            for p in [*probes, *I.gens]:
                assert got.contains(p) == want.contains(p), (floor, p)

    @settings(max_examples=30, deadline=None)
    @given(I=zero_dim_ideals())
    def test_a_floor_never_passes_the_cap(self, I):
        want = jet_model(I)
        if want is None:
            return
        for cap in (want.level, want.level + 1):
            for floor in range(want.level + 3):
                with metered() as log:
                    got = jet_model(I, cap=cap, floor=floor)
                caps = [c for kind, _, c in log if kind == "echelon"]
                assert all(c <= cap for c in caps), (cap, floor, caps)
                # A walk needs cap N + 1 to see dim(N) == dim(N + 1).
                assert (got is None) == (cap == want.level)
                if got is not None:
                    assert (got.level, got.colength) == (want.level, want.colength)


class TestWorkLog:
    """The engines' work log: a `metered` scope logs its own context's work; with none, nothing is kept."""

    def test_a_nested_scope_logs_only_its_own_work(self):
        I, J = I2("x^2", "y^3"), I2("x^3", "y^2")
        with metered() as outer:
            jet_model(I)
            with metered() as inner:
                jet_model(J, 8)
            jet_model(I, 9)
        assert [(s, c) for k, s, c in inner if k == "walk"] == [(J, 8)]
        assert [(s, c) for k, s, c in outer if k == "walk"] == [(I, DEFAULT_CAP), (I, 9)]
        assert all(s is J for _, s, _ in inner) and all(s is I for _, s, _ in outer)

    def test_threads_each_log_only_their_own_analyze(self):
        # More threads than cores, switching often: each scope's log is the
        # one its problem makes alone, and no two logs share an ideal.
        problems = [
            parse_problem((CORPUS_DIR / name).read_text(encoding="utf-8")).problem
            for name in ("wh_e6_f_x.brs", "wh_d4_f_2x_y.brs", "nwh_t444_generic.brs")
        ]
        alone = []
        for problem in problems:
            with metered() as log:
                analyze(problem)
            alone.append([kind for kind, *_ in log])
        start, logs = threading.Barrier(len(problems), timeout=30), [None] * len(problems)

        def work(k: int) -> None:
            with metered() as log:
                start.wait()
                analyze(problems[k])
            logs[k] = log

        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(problems))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [[kind for kind, *_ in log] for log in logs] == alone
        ideals = [{id(I) for kind, I, _ in log if kind == "count"} for log in logs]
        assert sum(map(len, ideals)) == len(set().union(*ideals))

    def test_no_scope_keeps_nothing(self):
        analyze(parse_problem((CORPUS_DIR / "wh_e6_f_x.brs").read_text(encoding="utf-8")).problem)
        assert oracle_module._LOG not in copy_context()


def same_span(got, want) -> bool:
    # The inserted shifts are some of all the shifts, so the spans are equal
    # exactly when the ranks are; equal pivot rows say more.
    return set(got.ech.pivots) == set(want.ech.pivots) and got.free_rows() == want.free_rows()


class TestSkippedShifts:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        ctx=st.sampled_from([CTX2, CTX3]),
    )
    def test_skipping_keeps_the_span(self, data, ctx):
        # At every cap, the echelon that skips the shifts whose row is
        # already a pivot has the pivots of the one that inserts them all,
        # both from an empty echelon and on top of another ideal's echelon.
        I = data.draw(zero_dim_ideals(ctx))
        extra = data.draw(st.lists(germs(ctx), min_size=1, max_size=2))
        total = I + Ideal(ctx, extra)
        for cap in range(1, 7):
            assert same_span(_span(ctx, _generators(total.gens), cap), every_shift_model(total, cap))
            extended = _span(ctx, _generators(I.gens), cap)
            _insert_shifts(extended.ech, _generators(extra), extended.table, cap)
            assert same_span(extended, every_shift_model(total, cap)), cap

    @settings(max_examples=40, deadline=None)
    @given(I=zero_dim_ideals(), extra=st.lists(germs(), min_size=1, max_size=2))
    def test_an_extended_model_keeps_the_span(self, I, extra):
        base = jet_model(I)
        if base is None:
            return
        total = I + Ideal(CTX2, extra)
        got = extended_jet_model(base, extra)
        assert same_span(got, every_shift_model(total, base.level).truncated(got.level))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), ctx=st.sampled_from([CTX2, CTX3]))
    def test_a_repeated_generator_changes_no_column(self, data, ctx):
        # A generator in the rational span of earlier ones (a nonzero scalar
        # multiple of one, or a combination of several) is left out, so at
        # every cap the echelon is the one without the copies: the same
        # pivots, the same stored columns.
        I = data.draw(zero_dim_ideals(ctx))
        scalars = st.fractions(min_value=-5, max_value=5, max_denominator=4)
        gens = list(I.gens)
        for _ in range(data.draw(st.integers(1, 3))):
            j = data.draw(st.integers(1, len(gens)))  # a combination of gens[:j]
            combination = sum(
                (g.scale(data.draw(scalars)) for g in gens[:j]), Polynomial.zero(ctx)
            )
            if data.draw(st.booleans()):  # a scalar multiple of one generator
                combination = gens[j - 1].scale(data.draw(scalars.filter(bool)))
            gens.insert(data.draw(st.integers(j, len(gens))), combination)
        assert len(_generators(gens)) == len(_generators(I.gens))
        for cap in range(1, 7):
            want = _span(ctx, _generators(I.gens), cap)
            got = _span(ctx, _generators(gens), cap)
            assert got.ech.pivots == want.ech.pivots, cap
            assert got.free_rows() == want.free_rows()


class TestModelContainment:
    @settings(max_examples=40, deadline=None)
    @given(I=zero_dim_ideals(), J=zero_dim_ideals(), g=germs())
    def test_equals_membership_of_generators(self, I, J, g):
        x, y = CTX2.variables()
        walked = [
            jet_model(I),
            jet_model(J),
            jet_model(I + J),  # a level at or below both
            jet_model(Ideal(CTX2, [h * v for h in I.gens for v in (x, y)])),  # at or above I's
        ]
        models = [m for m in walked if m is not None]
        # A colon keeps its ideal's level, which may lie above its own.
        models += [m.colon([g]) for m in models[:2]]
        for this in models:
            for other in models:
                want = this.contains_all(other.generators())
                assert this.contains_ideal(other) == want, (this.level, other.level)

    @pytest.mark.parametrize(
        "this, other, want",
        [
            # other's level above: 3 here, 4 there.
            (("x^2", "x*y", "y^3"), ("x^2", "y^3"), True),
            (("x^2", "x*y", "y^3"), ("x^3", "y^2"), False),
            # equal levels: (x^2, y^3) : x = (x, y^3), held at level 4.
            ((("x^2", "y^3"), "x"), ("x^2", "y^3"), True),
            (("x^2", "y^3"), (("x^2", "y^3"), "x"), False),
            # other's level below: its monomials of degree 3 must lie in (x, y^3).
            ((("x^2", "y^3"), "x"), ("x", "y^3"), True),
            ((("x^2", "y^3"), "x"), ("x", "y^2"), False),
        ],
    )
    def test_levels_above_equal_and_below(self, this, other, want):
        def model(spec):
            if isinstance(spec[0], tuple):  # (generators, divisor): a colon
                gens, divisor = spec
                return jet_model(I2(*gens)).colon([parse_poly(divisor, CTX2)])
            return jet_model(I2(*spec))

        this, other = model(this), model(other)
        assert this.contains_ideal(other) == want
        assert this.contains_all(other.generators()) == want


class TestAnswersOnEitherEngine:
    # An ideal answers `contains_all` and `colon` from its jet model when it
    # holds one, and from Mora otherwise.  Each Mora side is asked of a fresh
    # copy, which holds no model: asking walks it for a level to cap the run
    # at, and the copy then answers from that model.
    @settings(max_examples=30, deadline=None)
    @given(I=zero_dim_ideals(), probes=st.lists(germs(), min_size=1, max_size=3), g=germs())
    def test_the_model_answers_as_mora_does(self, I, probes, g):
        assert I.count(DEFAULT_BUDGET) is not NOT_FINITE and I.model is not None
        colon = I.colon([g], DEFAULT_BUDGET)
        assert colon.model is not None
        members = [h * p for h, p in zip(probes, I.gens)]
        for p in probes + members:
            mora = Ideal(I.ctx, I.gens)
            assert I.contains_all([p], DEFAULT_BUDGET) == mora.contains_all([p], DEFAULT_BUDGET), p
            mora_colon = Ideal(I.ctx, I.gens).colon([g], DEFAULT_BUDGET)
            assert mora_colon.model is None
            want = mora_colon.contains_all([p], DEFAULT_BUDGET)
            assert colon.contains_all([p], DEFAULT_BUDGET) == want, p
        assert all(I.contains_all([p], DEFAULT_BUDGET) for p in members)


class TestPackedMonomials:
    def test_overflow_raises_instead_of_naming_a_wrong_row(self):
        limit = MAX_PACKED_DEGREE + 1
        with pytest.raises(BrsError):
            _table(2).size(limit + 1)
        # Packed without the guard, x^limit would carry into y's field and
        # name the row of y, which lies in the ideal.
        model = jet_model(I2("x^2", "y"))
        big = Polynomial.monomial(CTX2, (limit, 0))
        with pytest.raises(BrsError):
            model.contains(big)
        with pytest.raises(BrsError):
            jet_model(Ideal(CTX2, [parse_poly("x", CTX2) + big, parse_poly("y", CTX2)]))

    def test_rows_are_shared_by_every_truncation(self):
        I = Ideal(CTX3, [parse_poly("x^2 + y*z", CTX3)])
        low, high = jet_model_at(I, 2), jet_model_at(I, 5)
        assert low.table is high.table
        index = monomial_index(high.table, 5)
        assert all(index[e] == r for e, r in monomial_index(low.table, 2).items())
