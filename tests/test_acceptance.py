"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.  Every comparison in here is an exact integer equality;
there are no tolerances anywhere.
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from brs import (
    HypersurfaceProblem,
    Polynomial,
    VarContext,
    bruce_roberts,
    fiber_milnor,
    is_finite,
    milnor,
    parse_poly,
    parse_problem,
    relative_bruce_roberts,
    tjurina,
)
from brs.stdbasis import (
    Ideal,
    colength,
    ideal_colon,
    ideal_intersection,
    membership,
    mora_normal_form,
    standard_basis,
)
from brs.tangent import df_ideal
from brs.errors import ParseError
from conftest import (
    corpus_paths,
    ideal_contains,
    ideal_product,
    jet_contains,
    suspend,
    syzygies,
)
from strategies import CTX2, monomials, polynomials, zero_dim_ideals


def announce(criterion: str, label: str, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    line = f"ACCEPTANCE {criterion} ({label}): PASS{suffix}"
    print("\n" + line)
    # Also queue for the terminal summary, which survives output capture.
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)


def ihs_reports(corpus_reports):
    return {
        name: r
        for name, r in corpus_reports.items()
        if name.startswith(("wh_", "nwh_"))
    }


def test_criterion_01_paper_milnor_value():
    ctx = VarContext(("x", "y", "z"))
    t0 = time.perf_counter()
    value = milnor(parse_poly("x*y - z^4", ctx))
    elapsed = time.perf_counter() - t0
    assert value == 3
    assert elapsed < 1.0
    announce("C1", "mu(x*y - z^4) = 3", f"{elapsed:.3f}s")


def test_criterion_02_main_sum_identity():
    # The two sides share no code path above colength: the left goes through
    # the syzygy-built tangent module, the right only through Jacobians and
    # minors of (f, phi).
    checked = 0
    non_wh = 0
    t0 = time.perf_counter()
    for path in corpus_paths():
        if not path.name.startswith(("wh_", "nwh_")):
            continue
        parsed = parse_problem(path.read_text(encoding="utf-8"))
        phi, f = parsed.problem.phi, parsed.problem.f
        lhs = relative_bruce_roberts(phi, f)
        rhs_parts = (fiber_milnor(phi, f), milnor(phi), tjurina(phi))
        assert all(is_finite(v) for v in (lhs, *rhs_parts)), path.name
        assert lhs == rhs_parts[0] + rhs_parts[1] - rhs_parts[2], path.name
        checked += 1
        non_wh += path.name.startswith("nwh_")
    elapsed = time.perf_counter() - t0
    assert checked >= 12
    assert non_wh >= 4
    assert elapsed < 60.0
    announce("C2", "relative sum identity", f"{checked} problems, {non_wh} non-wh, {elapsed:.1f}s")


def test_criterion_03_br_splits_off_milnor(corpus_reports):
    checked = 0
    for name, report in corpus_reports.items():
        if not is_finite(report.mu_BR):
            continue
        assert is_finite(report.mu_f) and is_finite(report.mu_BR_rel), name
        assert report.mu_BR == report.mu_f + report.mu_BR_rel, name
        checked += 1
    assert checked >= 12
    announce("C3", "mu_BR = mu(f) + mu_BR_rel", f"{checked} problems")


def _assert_entry_passes(corpus_reports, entry_name: str, minimum: int) -> int:
    checked = 0
    for name, report in corpus_reports.items():
        entry = next(e for e in report.ledger if e.name == entry_name)
        if entry.status == "skip":
            continue
        assert entry.status == "pass", f"{name}: {entry}"
        checked += 1
    assert checked >= minimum, f"only {checked} problems exercised {entry_name}"
    return checked


def test_criterion_04_colon_identities(corpus_reports):
    a = _assert_entry_passes(corpus_reports, "colon-full", 12)
    b = _assert_entry_passes(corpus_reports, "colon-trivial", 12)
    announce("C4", "df(theta):(phi) = Jf, both flavors", f"{a}+{b} checks")


def test_criterion_05_intersection_identity(corpus_reports):
    checked = _assert_entry_passes(corpus_reports, "intersect-product", 12)
    announce("C5", "df(theta) cap (phi) = Jf*(phi)", f"{checked} checks")


def test_criterion_06_dimension_forms(corpus_reports):
    a = _assert_entry_passes(corpus_reports, "dim-rel-trivial", 12)
    b = _assert_entry_passes(corpus_reports, "dim-trivial", 12)
    announce("C6", "trivial-module colength gaps equal tau", f"{a}+{b} checks")


def test_criterion_07_finiteness_equivalence(corpus_reports):
    checked = 0
    degenerate_seen = 0
    for name, report in corpus_reports.items():
        entry = next(e for e in report.ledger if e.name == "icis-finiteness")
        if entry.status == "skip":
            continue
        assert entry.status == "pass", f"{name}: {entry}"
        checked += 1
        if name.startswith("degen_"):
            degenerate_seen += 1
            assert entry.lhs is False and entry.rhs is False, name
    assert checked >= 14
    assert degenerate_seen >= 2
    announce("C7", "finiteness bi-implication", f"{checked} checks, {degenerate_seen} degenerate")


def test_criterion_08_suspension_products(corpus_reports):
    susp = {n: r for n, r in corpus_reports.items() if n.startswith("susp_")}
    assert len(susp) >= 3
    for name, report in susp.items():
        entries = {e.name: e for e in report.ledger}
        assert entries["susp-br-product"].status == "pass", name
        assert entries["split-milnor-product"].status == "pass", name
        assert entries["split-colength-product"].status == "pass", name

    # Independent construction through the suspension operation itself.
    ctx2 = CTX2
    cases = [
        ("x^2 + y^3", "y", "z^2"),
        ("x^2 + y^3", "y", "z^3"),
        ("x^2 + y^3", "x", "z^2"),
        ("x^3 - x*y^2", "y", "z^2"),
    ]
    for phi_src, f_src, g_src in cases:
        phi = parse_poly(phi_src, ctx2)
        f = parse_poly(f_src, ctx2)
        g = parse_poly(g_src, VarContext(("z",)))
        base = HypersurfaceProblem(ctx=ctx2, phi=phi, f=f)
        big, theta = suspend(base, g)
        lhs = colength(df_ideal(big.f, theta))
        rhs_factors = (milnor(g), bruce_roberts(phi, f))
        assert all(is_finite(v) for v in (lhs, *rhs_factors)), (phi_src, g_src)
        assert lhs == rhs_factors[0] * rhs_factors[1], (phi_src, g_src)
        assert milnor(big.f) == milnor(f) * milnor(g), (phi_src, g_src)
    announce("C8", "suspension and split products", f"{len(susp)} corpus + {len(cases)} constructed")


def test_criterion_09_weighted_homogeneous_flags(corpus_reports):
    wh = 0
    nwh = 0
    for name, report in corpus_reports.items():
        if name.startswith("wh_"):
            assert report.mu_X == report.tau_X, name
            # weighted homogeneous specialization: the sum degenerates
            assert report.mu_BR_rel == report.mu_fiber, name
            wh += 1
        elif name.startswith("nwh_"):
            assert is_finite(report.mu_X) and is_finite(report.tau_X)
            assert report.mu_X > report.tau_X, name
            nwh += 1
    assert wh >= 6 and nwh >= 4
    announce("C9", "mu = tau exactly on the wh sublist", f"{wh} wh, {nwh} non-wh")


def test_criterion_10_oracle_equivalence(corpus_reports):
    # Every finite corpus colength comes from a stabilized jet walk; it is
    # compared with the Mora count of a standard basis, the other engine.
    seen = {}

    def register(ideal, want):
        dedupe = (ideal.ctx.names, tuple(str(g) for g in ideal.gens))
        seen.setdefault(dedupe, (ideal, want))

    # the ideal behind criterion 1
    ctx3 = VarContext(("x", "y", "z"))
    germ = parse_poly("x*y - z^4", ctx3)
    from brs.polycore import jacobian_ideal

    register(Ideal(ctx3, jacobian_ideal(germ)), 3)
    for report in corpus_reports.values():
        for key, ideal in report.ideals.items():
            want = ideal.value
            if not is_finite(want):
                continue
            assert report.routes[key] == "jet", (key, ideal)
            register(ideal, want)
    assert len(seen) >= 40, f"only {len(seen)} distinct zero-dimensional ideals"
    t0 = time.perf_counter()
    for ideal, want in seen.values():
        got = colength(ideal)
        assert got == want, f"{ideal}: Mora {got} vs jets {want}"
    elapsed = time.perf_counter() - t0
    announce("C10", "Mora count equals jet engine on every ideal", f"{len(seen)} ideals, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 11: randomized property suites


class _Counter:
    def __init__(self):
        self.count = 0


def _run(prop) -> int:
    counter = _Counter()
    prop(counter)
    return counter.count


@settings(max_examples=180, deadline=None)
@given(f=polynomials(), g=polynomials(), h=polynomials())
def _prop_ring_axioms(counter, f, g, h):
    counter.count += 1
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=120, deadline=None)
@given(f=polynomials(), g=polynomials())
def _prop_product_rule(counter, f, g):
    counter.count += 1
    for i in range(CTX2.n):
        assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


@settings(max_examples=150, deadline=None)
@given(a=monomials(2), b=monomials(2), c=monomials(2), m=monomials(2))
def _prop_order(counter, a, b, c, m):
    counter.count += 1
    ka, kb, kc = a.sort_key(), b.sort_key(), c.sort_key()
    assert (ka == kb) == (a == b)
    if ka >= kb and kb >= kc:
        assert ka >= kc
    if ka > kb:
        assert a.mul(m).sort_key() > b.mul(m).sort_key()


@settings(max_examples=150, deadline=None)
@given(p=polynomials(max_terms=5, max_exp=4))
def _prop_roundtrip(counter, p):
    counter.count += 1
    assert parse_poly(str(p), p.ctx) == p


@settings(max_examples=170, deadline=None)
@given(src=st.text(max_size=40))
def _prop_fuzz(counter, src):
    counter.count += 1
    try:
        result = parse_poly(src, CTX2)
    except ParseError:
        return
    assert isinstance(result, Polynomial)


@settings(max_examples=60, deadline=None)
@given(I=zero_dim_ideals())
def _prop_nf_zero_on_inputs(counter, I):
    counter.count += 1
    sb = standard_basis(I)
    for g in I.gens:
        assert mora_normal_form(g, sb).is_zero()


@settings(max_examples=40, deadline=None)
@given(I=zero_dim_ideals(), seed=st.randoms())
def _prop_colength_permutation(counter, I, seed):
    counter.count += 1
    base = colength(I)
    gens = list(I.gens)
    seed.shuffle(gens)
    assert colength(Ideal(I.ctx, gens)) == base


@settings(max_examples=40, deadline=None)
@given(I=zero_dim_ideals(), J=zero_dim_ideals())
def _prop_colon_containments(counter, I, J):
    counter.count += 1
    quot = ideal_colon(I, J)
    assert ideal_contains(quot, I)
    assert ideal_contains(I, ideal_product(quot, J))


@settings(max_examples=40, deadline=None)
@given(I=zero_dim_ideals(), J=zero_dim_ideals(), h=polynomials(max_terms=2, max_exp=2))
def _prop_intersection(counter, I, J, h):
    counter.count += 1
    both = ideal_intersection(I, J)
    assert ideal_contains(I, both)
    assert ideal_contains(J, both)
    # oracle cross-check: a jet-level member of both factors is a member of
    # the intersection (the ideals contain every monomial of degree >= 5,
    # so jet level 8 leaves no slack)
    if both.gens:
        member = both.gens[0] * h
        if not member.is_zero():
            assert jet_contains(I, member, 8)
            assert jet_contains(J, member, 8)
            assert membership(member, both)


@settings(max_examples=30, deadline=None)
@given(p=polynomials(max_terms=3, max_exp=3), I=zero_dim_ideals(), J=zero_dim_ideals())
def _prop_jet_membership_is_exact(counter, p, I, J):
    counter.count += 1
    if jet_contains(I, p, 8) and jet_contains(J, p, 8):
        assert membership(p, ideal_intersection(I, J))


@settings(max_examples=50, deadline=None)
@given(I=zero_dim_ideals())
def _prop_syzygy_outputs_are_relations(counter, I):
    counter.count += 1
    for v in syzygies(I).gens:
        total = Polynomial.zero(I.ctx)
        for c, g in zip(v, I.gens):
            total = total + c * g
        assert total.is_zero()


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    total = 0
    for prop in (
        _prop_ring_axioms,
        _prop_product_rule,
        _prop_order,
        _prop_roundtrip,
        _prop_fuzz,
        _prop_nf_zero_on_inputs,
        _prop_colength_permutation,
        _prop_colon_containments,
        _prop_intersection,
        _prop_jet_membership_is_exact,
        _prop_syzygy_outputs_are_relations,
    ):
        total += _run(prop)
    elapsed = time.perf_counter() - t0
    assert total >= 1000, f"only {total} randomized cases executed"
    assert elapsed < 120.0
    announce("C11", "randomized property suites", f"{total} cases, {elapsed:.1f}s")
