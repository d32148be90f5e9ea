from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brs import BudgetError, ContainmentError, NOT_FINITE, Polynomial, VarContext, tjurina
from brs.polycore import jacobian_ideal
from brs.stdbasis import (
    DEFAULT_BUDGET,
    Ideal,
    Submodule,
    _Budget,
    _capped_run,
    _complete,
    _kept_entries,
    _resume,
    _vector,
    colength,
    ideal_colon,
    ideal_intersection,
    membership,
    module_quotient_dim,
    mora_normal_form,
    standard_basis,
)
import brs.stdbasis as stdbasis_module
from brs.oracle import jet_model, metered
from conftest import (
    RUN_KINDS,
    as_submodule,
    double_one_schreyer_row,
    ideal_contains,
    ideal_product,
    ideals_equal,
    jet_contains,
    jet_model_at,
    leading_monomials,
    standard_monomials,
    syzygies,
    theta_trivial,
)
from strategies import CTX2, germs, polynomials, zero_dim_ideals


def tracked_entries(gens):
    """The basis entries of a syzygy run on `gens`, each with its row and den."""
    return _complete([(g,) for g in gens], gens[0].ctx, 1, DEFAULT_BUDGET, collect=[])


def capped(vecs, ctx, budget, level=None):
    """`_capped_run` at `level`, or at the level of the jet model of the ideal of `vecs`."""
    if level is None:
        level = jet_model(Ideal(ctx, [v[0] for v in vecs])).level
    return _capped_run(vecs, ctx, budget, level)


def proposed(I: Ideal, level: int) -> Ideal:
    """I holding the model of I + m^level, as if a walk had certified it.

    `Ideal.mora` caps I's run at that level.
    """
    I.route, I.model = "jet", jet_model_at(I, level)
    return I


def recombined(entry, gens):
    """The entry's row over `gens`, divided by its den."""
    ctx = gens[0].ctx
    total = Polynomial.zero(ctx)
    for c, g in zip(_vector(ctx, entry.row), gens):
        total = total + c * g
    return total.scale(Fraction(1, entry.den))


class TestMoraNormalForm:
    def test_unit_multiple_reduces_to_zero(self, P):
        # (x - x^2) generates (x) locally because 1 - x is a unit; plain
        # division would loop, Mora's partial-remainder trick terminates.
        assert mora_normal_form(P("x^3"), Ideal(CTX2, [P("x - x^2")])) == P("0")

    def test_self_reduction(self, P):
        p = P("x^2 + y^3")
        assert mora_normal_form(p, Ideal(CTX2, [p])).is_zero()

    def test_irreducible_stays(self, P):
        assert mora_normal_form(P("y"), Ideal(CTX2, [P("x")])) == P("y")

    def test_leading_term_of_remainder_not_divisible(self, P):
        G = [P("x^2 - y^3"), P("x*y")]
        r = mora_normal_form(P("x^3 + y"), Ideal(CTX2, G))
        if not r.is_zero():
            lead = r.leading[0]
            assert all(not g.leading[0].divides(lead) for g in G)


class TestStandardBasis:
    def test_unit_tail_generator(self, P):
        sb = standard_basis(Ideal(CTX2, [P("x - x^2"), P("y")]))
        leads = {m.exponents for m in leading_monomials(sb)}
        assert leads == {(1, 0), (0, 1)}

    def test_zero_generators_dropped(self, P):
        I = Ideal(CTX2, [P("0"), P("x")])
        assert I.gens == (P("x"),)
        sb = standard_basis(I)
        assert sb.elements == ((P("x"),),)

    def test_already_standard(self, P):
        sb = standard_basis(Ideal(CTX2, [P("2*x"), P("3*y^2")]))
        leads = {m.exponents for m in leading_monomials(sb)}
        assert leads == {(1, 0), (0, 2)}

    def test_inputs_reduce_to_zero_and_combinations_witness(self, P):
        gens = [P("x^2 + y^3"), P("x*y - y^4"), P("y^2 - x^3")]
        sb = standard_basis(Ideal(CTX2, gens))
        for g in gens:
            assert mora_normal_form(g, sb).is_zero()
        entries = tracked_entries(gens)
        assert entries
        for e in entries:
            assert recombined(e, gens) == _vector(CTX2, e.vec)[0]

    def test_budget_error(self, P):
        from brs import BudgetError

        gens = [P("x^5 + y^5 + x^2*y^2"), P("x^4 - y^4"), P("x^3*y^3 - x^5")]
        with pytest.raises(BudgetError):
            standard_basis(Ideal(CTX2, gens), budget=1)

    def test_duplicate_inputs_with_tracking(self, P):
        gens = [P("x^2 - y^3"), P("x^2 - y^3"), P("x*y")]
        entries = tracked_entries(gens)
        assert entries
        for e in entries:
            assert recombined(e, gens) == _vector(CTX2, e.vec)[0]

    def test_chain_criterion_changes_nothing(self, P):
        # The pair pruning must be a pure optimization: leading ideals agree
        # with the criterion disabled.
        for gens in (
            [P("x^2 + y^3"), P("x*y - y^4"), P("y^2 - x^3")],
            [P("2*x - y^2"), P("3*y^2 + x^2*y")],
        ):
            vecs = [(g,) for g in gens]
            with_crit = _complete(list(vecs), CTX2, 1, 10_000)
            without = _complete(list(vecs), CTX2, 1, 10_000, use_criteria=False)
            assert {e.mono.exponents for e in with_crit} == {
                e.mono.exponents for e in without
            }


class TestColength:
    def test_maximal_ideal(self, P):
        assert colength(Ideal(CTX2, [P("x"), P("y")])) == 1

    def test_cusp_tjurina_ideal(self, P):
        # (phi, 2x, 3y^2) with phi = x^2 + y^3 reduces to (x, y^2):
        # standard monomials {1, y}.
        I = Ideal(CTX2, [P("x^2 + y^3"), P("2*x"), P("3*y^2")])
        assert colength(I) == 2
        sb = standard_basis(I)
        sm = standard_monomials(sb)
        assert {m.exponents for m in sm} == {(0, 0), (0, 1)}

    def test_not_finite_is_a_value(self, P):
        assert colength(Ideal(CTX2, [P("x")])) is NOT_FINITE

    def test_unit_ideal_has_colength_zero(self, P):
        assert colength(Ideal(CTX2, [P("1 - x")])) == 0

    def test_empty_ideal(self):
        assert colength(Ideal(CTX2, [])) is NOT_FINITE

    def test_jet_level_is_proven_by_the_capped_run(self, P):
        # A zero-dimensional ideal is completed below its model's level, and
        # the run must prove that level itself: a model too low leaves the
        # uncapped run to decide, and the colength stays right.
        def fresh():
            return Ideal(CTX2, [P("x^2"), P("y^3")])

        vecs = [(g,) for g in fresh().gens]
        I = fresh()
        assert colength(I) == 6 and I.mora(DEFAULT_BUDGET)[1] == 5
        assert capped(vecs, CTX2, DEFAULT_BUDGET, level=2) is None
        I = proposed(fresh(), 2)
        assert colength(I) == 6 and I.mora(DEFAULT_BUDGET)[1] is None
        basis = standard_basis(I)
        assert sorted(m.exponents for m in leading_monomials(basis)) == [(0, 3), (2, 0)]

    def test_capped_colength_enumerates_standard_monomials_once(self, P, monkeypatch):
        # The capped run's proof lists the standard monomials; the count
        # reuses that list, and no other enumeration runs (`_standard_exponents`
        # would make a second list through `_standard_below`).
        import brs.stdbasis as stdbasis_module

        lists: list = []
        real = stdbasis_module._standard_below

        def standard_below(*args):
            lists.append(real(*args))
            return lists[-1]

        monkeypatch.setattr(stdbasis_module, "_standard_below", standard_below)
        I = Ideal(CTX2, [P("x^2"), P("y^3")])
        assert colength(I) == 6
        assert len(lists) == 1 and I.mora(DEFAULT_BUDGET)[2] is lists[0]

    @pytest.mark.parametrize("level", [2, 4, 7])
    def test_a_wrong_jet_level_costs_time_never_a_value(self, level, P):
        # 4 is the ideal's level; at 2 the capped run proves nothing and the
        # plain run decides, and 7 is proven like 4.
        assert colength(proposed(Ideal(CTX2, [P("x^2"), P("y^3")]), level)) == 6

    @settings(max_examples=40, deadline=None)
    @given(I=zero_dim_ideals(), shift=st.integers(-2, 2))
    def test_a_count_at_any_jet_level_is_the_plain_count(self, I, shift):
        from brs.stdbasis import _count_standard_monomials

        plain = _complete([(g,) for g in I.gens], I.ctx, 1, DEFAULT_BUDGET)
        level = max(jet_model(I).level + shift, 0)
        want = _count_standard_monomials([e.mono for e in plain], I.ctx.n)
        assert colength(proposed(I, level)) == want

    @settings(max_examples=40, deadline=None)
    @given(I=zero_dim_ideals(), seed=st.randoms())
    def test_colength_independent_of_generator_order(self, I, seed):
        base = colength(I)
        gens = list(I.gens)
        seed.shuffle(gens)
        assert colength(Ideal(I.ctx, gens)) == base


class TestOneMoraRunPerIdeal:
    """An ideal's count, basis and colength read its one Mora run, whatever the budget."""

    def test_count_basis_and_a_small_budget_read_one_run(self, P, recorder):
        I = Ideal(CTX2, [P("x^2 + 3*y^3"), P("x*y")])
        assert colength(I) == 5
        basis = standard_basis(I)
        assert colength(I, budget=1) == 5
        assert len(recorder.runs) == 1
        assert len(standard_monomials(basis)) == 5
        assert I.route == "jet" and I.value == 5  # counted before its run was made

    @settings(max_examples=40, deadline=None)
    @given(I=zero_dim_ideals())
    def test_the_basis_has_colength_many_standard_monomials(self, I):
        with metered() as log:
            basis = standard_basis(I)
            assert len(standard_monomials(basis)) == colength(I)
        assert sum(kind in RUN_KINDS for kind, *_ in log) == 1


def stepwise(gens, **run):
    """A run of `_kept_entries` on `gens`, stopped by its meter again and again.

    The meter starts with no allowance, and each stop resumes the run with
    one more pair (and ten more steps) than the last: the kept entries and
    the number of stops.
    """
    meter = _Budget(DEFAULT_BUDGET)
    meter.allow(0)
    try:
        return _kept_entries([(g,) for g in gens], gens[0].ctx, 1, meter, **run), 0
    except BudgetError as stop:
        paused = stop.paused
    stops = 1
    while True:
        meter.allow(stops)
        try:
            return _resume(paused, meter), stops
        except BudgetError as stop:
            assert stop.paused is paused
            stops += 1


class TestStoppedRun:
    """A stopped run resumes where it stopped: the same pairs, in the same order."""

    @settings(max_examples=40, deadline=None)
    @given(I=zero_dim_ideals())
    def test_a_resumed_run_keeps_what_an_unstopped_one_keeps(self, I):
        kept, _ = stepwise(list(I.gens))
        fresh = _kept_entries([(g,) for g in I.gens], I.ctx, 1, DEFAULT_BUDGET)
        assert [e.vec for e in kept] == [e.vec for e in fresh]

    def test_a_resumed_schreyer_run_collects_the_same_rows(self, P):
        gens = [P("x^5 + y^5 + x^2*y^2"), P("5*x^4 + 2*x*y^2"), P("5*y^4 + 2*x^2*y")]
        rows: list = []
        kept, stops = stepwise(gens, collect=rows)
        fresh_rows: list = []
        fresh = _kept_entries([(g,) for g in gens], CTX2, 1, DEFAULT_BUDGET, collect=fresh_rows)
        assert stops > 1
        assert [(e.vec, e.row, e.den) for e in kept] == [(e.vec, e.row, e.den) for e in fresh]
        assert rows == fresh_rows

    def test_a_stopped_pair_is_charged_once(self, P):
        # Given one pair more at each stop, the run of the Tjurina ideal of
        # x^5 + y^5 + x^2*y^2 stops 3 times and is charged the 4 pairs that
        # an unstopped run treats.  Each stopped pair was once charged at its
        # stop and again when treated: 7 in all.
        phi = P("x^5 + y^5 + x^2*y^2")
        vecs = [(g,) for g in [phi, *jacobian_ideal(phi)]]
        whole = _Budget(DEFAULT_BUDGET)
        _kept_entries(vecs, CTX2, 1, whole)
        meter, run, stops = _Budget(DEFAULT_BUDGET), None, 0
        while True:
            meter.allow(1)
            try:
                _resume(run, meter) if run else _kept_entries(vecs, CTX2, 1, meter)
                break
            except BudgetError as stop:
                run, stops = stop.paused, stops + 1
        assert (stops, meter.pairs, whole.pairs) == (3, 4, 4)


class TestContinuedRun:
    """I = K + extra, counted so, continues K's kept capped run (`Ideal.mora`)."""

    @settings(max_examples=40, deadline=None)
    @given(K=zero_dim_ideals(), extra=st.lists(germs(CTX2), min_size=1, max_size=2))
    def test_a_continued_run_proves_what_a_fresh_one_proves(self, K, extra):
        # The same standard monomials and minimal leads as a fresh capped
        # run of I's generators at K's level, from extra's generators alone.
        K.count(DEFAULT_BUDGET)
        start, cap, _ = K.mora(DEFAULT_BUDGET)
        extra = Ideal(CTX2, extra)
        I = K + extra
        I.count(DEFAULT_BUDGET, extends=(K, extra))
        calls: list = []
        real = stdbasis_module._kept_entries

        def run(inputs, *args, **kwargs):
            calls.append((inputs, kwargs.get("start"), kwargs.get("cap")))
            return real(inputs, *args, **kwargs)

        with mock.patch.object(stdbasis_module, "_kept_entries", run):
            kept, got_cap, exps = I.mora(DEFAULT_BUDGET)
        assert cap == got_cap == K.model.level + 1
        assert calls == [([(g,) for g in extra.gens], start, cap)]
        fresh, fresh_exps = _capped_run([(g,) for g in I.gens], CTX2, DEFAULT_BUDGET, K.model.level)
        assert exps == fresh_exps and len(exps) == I.value
        assert sorted(e.exps for e in kept) == sorted(e.exps for e in fresh)


class TestMembership:
    def test_power_in_principal(self, P):
        assert membership(P("x^2"), Ideal(CTX2, [P("x")]))

    def test_non_member(self, P):
        assert not membership(P("y"), Ideal(CTX2, [P("x")]))

    def test_euler_pairing(self, P):
        # dphi(3x dx + 2y dy) = 6*phi for the cusp.
        phi = P("x^2 + y^3")
        paired = P("3*x") * phi.partial(0) + P("2*y") * phi.partial(1)
        assert paired == phi.scale(6)
        assert membership(paired, Ideal(CTX2, [phi]))


class TestIdealProduct:
    def test_principal_times_principal(self, P):
        got = ideal_product(Ideal(CTX2, [P("x")]), Ideal(CTX2, [P("y")]))
        assert got.gens == (P("x*y"),)

    def test_unit_jacobian_times_phi(self, P):
        phi = P("x^2 + y^3")
        Jf = Ideal(CTX2, jacobian_ideal(P("y")))
        got = ideal_product(Jf, Ideal(CTX2, [phi]))
        assert ideals_equal(got, Ideal(CTX2, [phi]))

    def test_square_of_maximal(self, P):
        m = Ideal(CTX2, [P("x"), P("y")])
        got = ideal_product(m, m)
        assert got.gens == (P("x^2"), P("x*y"), P("x*y"), P("y^2"))


# Inputs of the intersection and colon tests, by name: (I, J) generators.
# The jet engine is checked against the same inputs in TestJetAgreesWithMora.
INTERSECTION_CASES = {
    "transverse_principal": (["x"], ["y"]),
    "self_intersection": (["x^2", "y - x^3"], ["x^2", "y - x^3"]),
    "derived_example": (["x^2", "x*y"], ["y"]),
}
COLON_CASES = {
    "by_variable": (["x^2", "x*y"], ["x"]),
    "by_unit": (["x^2 - y^5", "x*y"], ["1"]),
    "reaches_unit_ideal": (["x", "y"], ["x^2 + y^3"]),
}


def case_ideals(case: tuple[list[str], list[str]]) -> tuple[Ideal, Ideal]:
    from brs import parse_poly

    return tuple(Ideal(CTX2, [parse_poly(g, CTX2) for g in gens]) for gens in case)


class TestIntersection:
    def test_transverse_principal(self, P):
        got = ideal_intersection(*case_ideals(INTERSECTION_CASES["transverse_principal"]))
        assert ideals_equal(got, Ideal(CTX2, [P("x*y")]))

    def test_self_intersection(self, P):
        I, J = case_ideals(INTERSECTION_CASES["self_intersection"])
        assert ideals_equal(ideal_intersection(I, J), I)

    def test_derived_example(self, P):
        # (x^2, x*y) cap (y) = (x*y); frozen after a jet-level check below.
        I, J = case_ideals(INTERSECTION_CASES["derived_example"])
        got = ideal_intersection(I, J)
        assert ideals_equal(got, Ideal(CTX2, [P("x*y")]))
        for g in got.gens:
            assert jet_contains(I, g, 6) and jet_contains(J, g, 6)

    @settings(max_examples=25, deadline=None)
    @given(I=zero_dim_ideals(), J=zero_dim_ideals())
    def test_contained_in_both(self, I, J):
        both = ideal_intersection(I, J)
        assert ideal_contains(I, both)
        assert ideal_contains(J, both)


class TestColon:
    def test_colon_by_variable(self, P):
        got = ideal_colon(*case_ideals(COLON_CASES["by_variable"]))
        assert ideals_equal(got, Ideal(CTX2, [P("x"), P("y")]))

    def test_colon_by_unit(self, P):
        I, J = case_ideals(COLON_CASES["by_unit"])
        got = ideal_colon(I, J)
        assert ideals_equal(got, I)

    def test_colon_reaches_unit_ideal(self, P):
        # phi lies in (x, y)^2, so h*phi is in (x, y) for every h.
        got = ideal_colon(*case_ideals(COLON_CASES["reaches_unit_ideal"]))
        assert colength(got) == 0

    @settings(max_examples=25, deadline=None)
    @given(I=zero_dim_ideals(), J=zero_dim_ideals())
    def test_containments(self, I, J):
        quot = ideal_colon(I, J)
        assert ideal_contains(quot, I)  # I is always inside I : J
        assert ideal_contains(I, ideal_product(quot, J))

    def test_degree_cap_keeps_the_syzygy_run_small(self, P):
        # I = (x, y) up to units, so m^1 lies in I and the colon; cut at
        # degree 1 the run is tiny, while uncapped it exhausts this budget.
        I = Ideal(
            CTX2,
            [P("-9*x^3 + 19/5*x*y^3 - 30/7*x^3*y^2"), P("25/7*y - 41/5*x*y^2"), P("2*x + 5*x*y^2")],
        )
        J = Ideal(
            CTX2,
            [P("-22/5*x^2"), P("-6*y^2 - 21/5*x^2*y^2 + 41/5*x^3*y^2"), P("-7*y - 33/4*x^2")],
        )
        got = ideal_colon(I, J, budget=50)
        assert colength(got) == 0
        assert ideals_equal(Ideal(CTX2, jet_model(I).colon(J.gens).generators()), got)

    @pytest.mark.parametrize("divisors", [["x"], ["x", "y^2"], ["x", "y^2", "x*y"]])
    def test_one_syzygy_run_per_colon(self, divisors, P, recorder):
        # However many divisors, the colon is one syzygy computation, one
        # tracked run, and no intersection of single-divisor colons, which
        # would make a tracked run for each colon and one to intersect.
        I = Ideal(CTX2, [P("x^2 - y^5"), P("x*y")])
        ideal_colon(I, Ideal(CTX2, [P(g) for g in divisors]))
        assert len(recorder.of("tracked")) == 1

    def test_a_row_that_is_no_relation_is_caught(self, monkeypatch):
        # Double the first component of one syzygy row below `_schreyer_rows`:
        # the colon must refuse it before reading the quotient off it.
        from brs import InternalError

        double_one_schreyer_row(monkeypatch)
        with pytest.raises(InternalError):
            ideal_colon(*case_ideals(COLON_CASES["by_variable"]))


def jet_equal(a, b) -> bool:
    return a.contains_all(b.generators()) and b.contains_all(a.generators())


def assert_jet_agrees_with_mora(I: Ideal, J: Ideal, probes) -> None:
    """Colength, colon I : J, membership and equality by jets and by Mora."""
    model = jet_model(I)
    if model is None:
        # No model: the engine declines, and Mora proves the ideal infinite.
        assert colength(I) is NOT_FINITE
        return
    assert model.colength == colength(I)
    colon = model.colon(J.gens)
    mora_colon = ideal_colon(I, J)
    assert ideals_equal(Ideal(I.ctx, colon.generators()), mora_colon)
    assert colon.colength == colength(mora_colon)
    for p in [*probes, *J.gens, *mora_colon.gens, *ideal_product(mora_colon, J).gens]:
        assert model.contains(p) == membership(p, I), p
    assert jet_equal(model, colon) == ideals_equal(I, mora_colon)


class TestJetAgreesWithMora:
    @pytest.mark.parametrize(
        "case",
        [*INTERSECTION_CASES.values(), *COLON_CASES.values()],
        ids=[*INTERSECTION_CASES, *COLON_CASES],
    )
    def test_shared_inputs(self, case, P):
        I, J = case_ideals(case)
        probes = [P("x*y"), P("y^2"), P("x^3 - y^4"), P("x + y^7")]
        assert_jet_agrees_with_mora(I, J, probes + list(ideal_intersection(I, J).gens))

    @settings(max_examples=25, deadline=None)
    @given(I=zero_dim_ideals(), J=zero_dim_ideals(), p=polynomials(max_terms=3, max_exp=3))
    def test_zero_dimensional_property(self, I, J, p):
        assert jet_model(I) is not None
        assert_jet_agrees_with_mora(I, J, [p])


def assert_capped_path_matches_plain_run(I: Ideal) -> None:
    """The capped path, which forms no pair at or above its cap, against a plain run."""
    from brs.stdbasis import _count_standard_monomials

    plain = _complete([(g,) for g in I.gens], I.ctx, 1, DEFAULT_BUDGET)
    sb = standard_basis(I)
    assert sorted(m.exponents for m in leading_monomials(sb)) == sorted(
        e.mono.exponents for e in plain
    )
    want = _count_standard_monomials([e.mono for e in plain], I.ctx.n)
    assert _count_standard_monomials(leading_monomials(sb), I.ctx.n) == colength(I) == want


class TestCappedRun:
    @pytest.mark.parametrize(
        "case",
        [*INTERSECTION_CASES.values(), *COLON_CASES.values()],
        ids=[*INTERSECTION_CASES, *COLON_CASES],
    )
    def test_shared_inputs(self, case):
        for ideal in case_ideals(case):
            assert_capped_path_matches_plain_run(ideal)

    @pytest.mark.parametrize("phi", ["x^5 + y^5 + x^2*y^2", "x^3 - x*y^2"])
    def test_jacobian_and_tjurina_ideals(self, phi, P):
        # The capped run must prove its level itself, with the pairs whose
        # lcm has degree cap - 1 kept: without them it falls back here.
        g = P(phi)
        for I in (Ideal(CTX2, jacobian_ideal(g)), Ideal(CTX2, [g, *jacobian_ideal(g)])):
            assert capped([(h,) for h in I.gens], CTX2, 10_000) is not None
            assert_capped_path_matches_plain_run(I)

    @settings(max_examples=40, deadline=None)
    @given(I=zero_dim_ideals())
    def test_zero_dimensional_property(self, I):
        assert capped([(g,) for g in I.gens], I.ctx, 10_000) is not None
        assert_capped_path_matches_plain_run(I)

    def test_cap_monomials_complete_the_basis(self, P):
        # The monomials of degree cap are implicit inputs; those no kept lead
        # divides are elements of the basis of (x^2) + m^3.
        entries = _complete([(P("x^2"),)], CTX2, 1, 10_000, cap=3)
        assert [e.mono.exponents for e in entries] == [(2, 0), (0, 3), (1, 2)]

    def test_a_capped_run_out_of_budget_leaves_the_plain_run_to_decide(self, P, monkeypatch):
        # A capped run is charged only the work it does, here no more than
        # the plain run's; stubbed to run out, it proves nothing, and the
        # plain run of (x^2, y^3) decides.
        import brs.stdbasis as stdbasis_module
        from brs import BudgetError

        real = stdbasis_module._kept_entries

        def run(inputs, ctx, rank, budget, **kwargs):
            if kwargs.get("cap") is not None:
                raise BudgetError(budget)
            return real(inputs, ctx, rank, budget, **kwargs)

        monkeypatch.setattr(stdbasis_module, "_kept_entries", run)
        I = proposed(Ideal(CTX2, [P("x^2"), P("y^3")]), 4)
        assert colength(I, budget=5) == 6 and I.mora(5)[1] is None

    def test_pairs_at_the_cap_cost_nothing(self, P):
        # Degree-cap monomials form no pairs, and the one pair of x^2 and y^3
        # has its lcm at the cap of level 4, so the capped run treats no pair
        # and no budget stops it; the plain run treats that pair.
        from brs import BudgetError

        vecs = [(P("x^2"),), (P("y^3"),)]
        assert capped(vecs, CTX2, 0, level=4) is not None
        assert _kept_entries(vecs, CTX2, 1, 0, cap=5)
        with pytest.raises(BudgetError):
            _kept_entries(vecs, CTX2, 1, 0)


class TestBudgetAccounting:
    """The smallest budget each run succeeds with, pinned one below it.

    A capped run is charged only the pairs it treats and the steps it
    takes, so these figures move if its accounting does.
    """

    @pytest.mark.parametrize(
        "ideal, level, smallest",
        [
            (lambda phi: [phi, *jacobian_ideal(phi)], 5, 2),
            (lambda phi: case_ideals(COLON_CASES["by_unit"])[0].gens, 6, 1),
        ],
        ids=["t255_tjurina", "colon_by_unit"],
    )
    def test_capped_run(self, ideal, level, smallest, P):
        from brs import BudgetError

        vecs = [(g,) for g in ideal(P("x^5 + y^5 + x^2*y^2"))]
        assert jet_model(Ideal(CTX2, [v[0] for v in vecs])).level == level
        assert capped(vecs, CTX2, smallest, level) is not None
        assert capped(vecs, CTX2, smallest - 1, level) is None
        with pytest.raises(BudgetError):
            _kept_entries(vecs, CTX2, 1, smallest - 1, cap=level + 1)

    @pytest.mark.parametrize(
        "phi, smallest", [("x^5 + y^5 + x^2*y^2", 4), ("x^3 + y^3 + z^4 + x*y*z", 9)]
    )
    def test_tracked_theta_full(self, phi, smallest, ctx3):
        from brs import BudgetError, parse_poly
        from brs.tangent import theta_full

        g = parse_poly(phi, ctx3)
        theta_full(g, budget=smallest)
        with pytest.raises(BudgetError):
            theta_full(g, budget=smallest - 1)


class TestSyzygies:
    def test_koszul_relation(self, P):
        syz = syzygies(Ideal(CTX2, [P("x"), P("y")]))
        assert any(
            v == (P("y"), P("-x")) or v == (P("-y"), P("x")) for v in syz.gens
        ) or membership((P("y"), P("-x")), syz)

    def test_single_generator_has_no_relations(self, P):
        syz = syzygies(Ideal(CTX2, [P("x^2 + y^3")]))
        assert all(all(c.is_zero() for c in v) for v in syz.gens) or not syz.gens

    def test_euler_relation_is_found(self, P):
        phi = P("x^2 + y^3")
        syz = syzygies(Ideal(CTX2, [phi.partial(0), phi.partial(1), -phi]))
        euler = (P("3*x"), P("2*y"), P("6"))
        combined = Polynomial.zero(CTX2)
        for c, g in zip(euler, [phi.partial(0), phi.partial(1), -phi]):
            combined = combined + c * g
        assert combined.is_zero()
        assert membership(euler, syz)

    @settings(max_examples=40, deadline=None)
    @given(I=zero_dim_ideals())
    def test_tracked_rows_keep_rational_inputs_exact(self, I):
        # Inputs carry denominators up to 7; every kept element is primitive
        # with a positive lead, and its row still recombines it exactly.
        for e in tracked_entries(I.gens):
            element = _vector(I.ctx, e.vec)[0]
            coeffs = [c for _, c in element.terms]
            assert all(c.denominator == 1 for c in coeffs)
            assert gcd(*(c.numerator for c in coeffs)) == 1
            assert element.leading[1] > 0
            assert recombined(e, I.gens) == element
        for v in syzygies(I).gens:
            total = Polynomial.zero(I.ctx)
            for c, g in zip(v, I.gens):
                total = total + c * g
            assert total.is_zero()

    @settings(max_examples=25, deadline=None)
    @given(I=zero_dim_ideals())
    def test_outputs_are_relations(self, I):
        syz = syzygies(I)
        for v in syz.gens:
            total = Polynomial.zero(I.ctx)
            for c, g in zip(v, I.gens):
                total = total + c * g
            assert total.is_zero()


class TestModuleQuotient:
    def test_quotient_by_itself(self, P):
        M = Submodule(CTX2, 2, [(P("x"), P("0")), (P("0"), P("y"))])
        assert module_quotient_dim(M, M) == 0

    def test_rank_two_in_one_variable(self):
        ctx1 = VarContext(("x",))
        from brs import parse_poly

        x = parse_poly("x", ctx1)
        one = Polynomial.constant(ctx1, 1)
        zero = Polynomial.zero(ctx1)
        sup = Submodule(ctx1, 2, [(one, zero), (zero, one)])
        sub = Submodule(ctx1, 2, [(x, zero), (zero, one)])
        assert module_quotient_dim(sub, sup) == 1

    def test_containment_precondition(self, P):
        sup = Submodule(CTX2, 1, [(P("x"),)])
        sub = Submodule(CTX2, 1, [(P("y"),)])
        with pytest.raises(ContainmentError):
            module_quotient_dim(sub, sup)

    def test_tjurina_as_module_quotient(self, P):
        from brs.tangent import theta_full

        phi = P("x^5 + y^5 + x^2*y^2")
        dim = module_quotient_dim(as_submodule(theta_trivial(phi)), as_submodule(theta_full(phi)))
        assert dim == tjurina(phi)

    @pytest.mark.parametrize(
        "phi", ["x^7 + y^7 + x^3*y^3", "x^2 + y^2"], ids=["t77", "a1"]
    )
    def test_mora_count_agrees_with_the_jet_walk(self, phi, P, monkeypatch):
        # The walk answers every finite quotient here; forced to give up, the
        # Mora count must reach the same value (tau = 1 for the A1 curve).
        # The walk is stubbed where `stdbasis` binds it, and the count must
        # run, so a moved import cannot let the walk answer twice.
        import brs.stdbasis as stdbasis_module
        from brs.tangent import theta_full

        phi = P(phi)
        sub = as_submodule(theta_trivial(phi))
        sup = as_submodule(theta_full(phi))
        walked = module_quotient_dim(sub, sup)
        assert walked == tjurina(phi)
        counted = []
        real_count = stdbasis_module._count_standard_monomials

        def count(leads, n):
            counted.append(n)
            return real_count(leads, n)

        monkeypatch.setattr(stdbasis_module, "_walk", lambda growth, cap: None)
        monkeypatch.setattr(stdbasis_module, "_count_standard_monomials", count)
        assert module_quotient_dim(sub, sup) == walked
        assert counted

    def test_infinite_quotient_is_proven_by_mora(self, P):
        # R/(x) over (x, y): the walk grows by one per level up to its cap,
        # and the Mora count proves the value infinite.
        one = Polynomial.constant(CTX2, 1)
        sup = Submodule(CTX2, 1, [(one,)])
        sub = Submodule(CTX2, 1, [(P("x"),)])
        assert module_quotient_dim(sub, sup) == NOT_FINITE
