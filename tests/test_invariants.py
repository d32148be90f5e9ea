from collections import Counter

import pytest
from click.testing import CliRunner

import brs.invariants as invariants_module
import brs.oracle as oracle_module
import brs.stdbasis as stdbasis_module
from brs import (
    ContainmentError,
    HypersurfaceProblem,
    NOT_FINITE,
    VarContext,
    analyze,
    bruce_roberts,
    fiber_milnor,
    is_finite,
    milnor,
    parse_poly,
    parse_problem,
    relative_bruce_roberts,
    tjurina,
)
from brs.cli import main as cli_main
from brs.invariants import detect_split
from brs.oracle import oracle_colength
from brs.polycore import VectorField, jacobian_ideal
from brs.stdbasis import Ideal, colength, module_quotient_dim
from brs.tangent import DerivationModule, df_ideal, df_trivial_ideal, theta_full
from conftest import CORPUS_DIR, as_submodule, theta_trivial
from strategies import CTX2


def prob(phi_src: str, f_src: str, ctx=CTX2) -> HypersurfaceProblem:
    return HypersurfaceProblem(
        ctx=ctx, phi=parse_poly(phi_src, ctx), f=parse_poly(f_src, ctx)
    )


def spy_on(monkeypatch, name: str, log: list, module=invariants_module) -> None:
    """Log (name, first argument) of every call made to `name` through `module`.

    By default that is every call `analyze` makes to it.
    """
    real = getattr(module, name)

    def wrapped(first, *args, **kwargs):
        log.append((name, first))
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


class TestMilnor:
    def test_paper_value_for_three_var_germ(self, ctx3):
        assert milnor(parse_poly("x*y - z^4", ctx3)) == 3

    def test_smooth(self, P):
        assert milnor(P("x")) == 0

    def test_cusp(self, P):
        assert milnor(P("x^2 + y^3")) == 2


class TestTjurina:
    def test_cusp(self, P):
        assert tjurina(P("x^2 + y^3")) == 2

    def test_smooth(self, P):
        assert tjurina(P("x")) == 0

    def test_node_with_two_branches(self, P):
        assert tjurina(P("x*y")) == 1


class TestFiberMilnor:
    def test_cusp_with_line(self, P):
        assert fiber_milnor(P("x^2 + y^3"), P("y")) == 1

    def test_repeated_function_is_not_finite(self, P):
        phi = P("x^2 + y^3")
        assert fiber_milnor(phi, phi) is NOT_FINITE

    def test_transverse_smooth_pair(self, P):
        assert fiber_milnor(P("x"), P("y")) == 0


class TestBruceRoberts:
    def test_cusp_with_line(self, P):
        assert bruce_roberts(P("x^2 + y^3"), P("y")) == 1

    def test_smooth_hypersurface_submersive_function(self, P):
        assert bruce_roberts(P("x"), P("y")) == 0

    def test_suspended_cusp(self, ctx3):
        got = bruce_roberts(parse_poly("x^2 + y^3", ctx3), parse_poly("y + z^2", ctx3))
        assert got == 1


class TestRelativeBruceRoberts:
    def test_cusp_with_line(self, P):
        assert relative_bruce_roberts(P("x^2 + y^3"), P("y")) == 1

    def test_smooth(self, P):
        assert relative_bruce_roberts(P("x"), P("y")) == 0

    def test_degenerate_pair_not_finite(self, P):
        phi = P("x^2 + y^3")
        assert relative_bruce_roberts(phi, phi) is NOT_FINITE


class TestLedger:
    def test_cusp_all_gated_pass(self, P):
        report = analyze(prob("x^2 + y^3", "y"))
        gated = report.gated
        assert gated and all(e.status == "pass" for e in gated)
        by_name = {e.name: e for e in report.ledger}
        assert by_name["relbr-sum"].lhs == 1
        assert by_name["relbr-sum"].rhs == 1  # 1 + 2 - 2

    def test_required_entries_always_present(self, P):
        report = analyze(prob("x^2 + y^3", "x"))
        names = [e.name for e in report.ledger]
        for required in (
            "relbr-sum",
            "br-split",
            "br-sum",
            "dim-rel-trivial",
            "dim-trivial",
            "intersect-product",
            "quotient-milnor",
            "colon-full",
            "colon-trivial",
            "tau-module",
            "icis-finiteness",
        ):
            assert required in names

    def test_degenerate_pair_skips_but_passes_finiteness(self, P):
        report = analyze(prob("x^2 + y^3", "x^2 + y^3"))
        by_name = {e.name: e for e in report.ledger}
        assert by_name["icis-finiteness"].status == "pass"
        assert by_name["icis-finiteness"].lhs is False
        assert by_name["relbr-sum"].status == "skip"
        assert not report.failed

    def test_weighted_homogeneous_specialization(self, P):
        # mu(X) = tau(X) for a weighted homogeneous germ, so the main sum
        # degenerates to mu_BR_rel = mu_fiber.
        report = analyze(prob("x^2 + y^5", "x"))
        assert report.mu_X == report.tau_X
        assert report.mu_BR_rel == report.mu_fiber

    def test_non_weighted_homogeneous_strict_gap(self, P):
        report = analyze(prob("x^5 + y^5 + x^2*y^2", "x - y"))
        assert is_finite(report.mu_X) and is_finite(report.tau_X)
        assert report.mu_X > report.tau_X
        # independent confirmation of the strict inequality
        assert oracle_colength(report.ideals["mu_X"]) == report.mu_X
        assert oracle_colength(report.ideals["tau_X"]) == report.tau_X
        assert not report.failed

    def test_verify_identities_wrapper(self, P):
        ledger = analyze(prob("x*y", "x + y")).ledger
        assert any(e.name == "relbr-sum" and e.status == "pass" for e in ledger)

    def test_tau_module_check_enabled(self, P):
        report = analyze(prob("x*y", "x + y"), tau_check=True)
        by_name = {e.name: e for e in report.ledger}
        assert by_name["tau-module"].status == "pass"
        assert by_name["tau-module"].rhs == 1

    def test_oracle_entries(self, P):
        report = analyze(prob("x^2 + y^3", "y"), oracle=True)
        oracle_entries = [e for e in report.ledger if e.name.startswith("oracle-")]
        assert len(oracle_entries) == 8
        assert all(e.status == "pass" for e in oracle_entries)

    @pytest.mark.parametrize("name", ["wh_e6_f_x.brs", "susp_d4_z2.brs"])
    def test_oracle_rows_use_the_other_engine(self, name, monkeypatch):
        # Jet values must be checked by a Mora count, certificate and Mora
        # values by the jet oracle; spy on both to see which one saw what.
        log: list = []
        spy_on(monkeypatch, "colength", log)
        spy_on(monkeypatch, "oracle_colength", log)
        parsed = parse_problem((CORPUS_DIR / name).read_text(encoding="utf-8"))
        report = analyze(parsed.problem, oracle=True)
        rows = {e.name: e for e in report.ledger if e.name.startswith("oracle-")}
        assert rows and all(e.status == "pass" for e in rows.values())
        mora = [ideal for fn, ideal in log if fn == "colength"]
        oracle = [ideal for fn, ideal in log if fn == "oracle_colength"]
        routes = set()
        for row in rows:
            key = row.removeprefix("oracle-")
            ideal, route = report.ideals[key], report.routes[key]
            routes.add(route)
            if route == "jet":
                assert ideal in mora and ideal not in oracle, key
            else:
                assert ideal in oracle, key
        assert "jet" in routes
        if name.startswith("susp_"):
            assert "certificate" in routes

    @pytest.mark.parametrize("name", ["wh_e6_f_x.brs", "susp_d4_z2.brs"])
    def test_oracle_walks_no_ideal_twice(self, name, monkeypatch):
        # The cross-check hands Mora the level of the model `analyze` holds,
        # and I + (phi) extends the model of I, so no ideal is walked again.
        log: list = []
        spy_on(monkeypatch, "jet_model", log)  # from analyze
        spy_on(monkeypatch, "jet_model", log, module=oracle_module)  # from stdbasis
        parsed = parse_problem((CORPUS_DIR / name).read_text(encoding="utf-8"))
        report = analyze(parsed.problem, oracle=True)
        rows = [e for e in report.ledger if e.name.startswith("oracle-")]
        assert rows and all(e.status == "pass" for e in rows)
        walked = [ideal for _, ideal in log]
        assert walked and len(walked) == len(set(walked))
        extended = [n for n in ("tau_X", "br_rel", "trivial_rel") if report.routes[n] == "jet"]
        assert extended
        for key in extended:
            assert report.ideals[key] not in walked, key

    @pytest.mark.parametrize(
        "name, values",
        [
            ("nwh_t334_generic.brs", (0, 9, 8, 4, 5, 5)),
            ("nwh_t444_generic.brs", (0, 11, 10, 4, 5, 5)),
        ],
    )
    def test_generic_linear_function(self, name, values):
        # The paper's main case: a generic linear f on a non weighted
        # homogeneous surface, where Mora bases alone stall.
        parsed = parse_problem((CORPUS_DIR / name).read_text(encoding="utf-8"))
        report = analyze(parsed.problem)
        got = (report.mu_f, report.mu_X, report.tau_X, report.mu_fiber, report.mu_BR, report.mu_BR_rel)
        assert got == values
        assert report.gated and all(e.status == "pass" for e in report.gated)
        by_name = {e.name: e for e in report.ledger}
        for entry in ("intersect-product", "colon-full", "colon-trivial"):
            assert by_name[entry].status == "pass"

    def test_generic_linear_function_in_four_variables(self):
        # The paper's main case one dimension up, where the jet engine's
        # eliminations dominate: every colength is proven by a jet walk.
        ctx = VarContext(("x", "y", "z", "w"))
        report = analyze(prob("x^4 + y^4 + z^4 + w^4 + x*y*z*w", "x + 2*y - z + 3*w", ctx))
        got = (report.mu_f, report.mu_X, report.tau_X, report.mu_fiber, report.mu_BR, report.mu_BR_rel)
        assert got == (0, 81, 81, 27, 27, 27)
        assert report.gated and all(e.status == "pass" for e in report.gated)
        assert set(report.routes.values()) == {"jet"}

    @pytest.mark.parametrize(
        "phi, f, values",
        [
            ("x^5 + y^5 + z^5 + x*y*z", "x^2 + y^3 + z^2 + x*y", (1, 14, 13, 16, 18, 17)),
            (
                "x^5 + y^3 + z^5 + 2*x^3*z + 3*x^2*y*z",
                "2*y^2*z - y*z^2 + 3*x",
                (0, 22, 21, 8, 9, 9),
            ),
        ],
        ids=["r1", "s18"],
    )
    def test_an_extended_model_is_never_handed_to_mora(self, phi, f, values, ctx3):
        # The Le-Greuel ideal extends df_T's model, whose level N puts m^N
        # inside it, so the extension is certified.  A plain walk of that
        # ideal gives up by its cost rule on both problems, and the uncapped
        # Mora count behind it stalled.
        report = analyze(prob(phi, f, ctx3))
        got = (report.mu_f, report.mu_X, report.tau_X, report.mu_fiber, report.mu_BR, report.mu_BR_rel)
        assert got == values
        assert set(report.routes.values()) == {"jet"}
        assert not report.failed
        # The tau-module row extends mu_X's model too; on S18 its Mora
        # route stalled in a standard basis of dphi(Theta_X).
        row = {e.name: e for e in analyze(prob(phi, f, ctx3), tau_check=True).ledger}["tau-module"]
        assert (row.status, row.lhs, row.rhs) == ("pass", report.tau_X, report.tau_X)

    def test_walks_build_only_the_echelons_they_need(self, monkeypatch):
        # One echelon gives every dim up to its cap, and the walk of df_T
        # starts at the level of (phi) + J_phi, which contains it: 14
        # echelons in all, where walking level by level built 30.  The
        # Le-Greuel ideal is df_T + (phi), so it extends df_T's model and
        # builds none.
        walking: list = []
        built: list = []
        real_walk, real_span = invariants_module.jet_model, oracle_module._span

        def walk(I, *args, **kwargs):
            walking.append(I)
            try:
                return real_walk(I, *args, **kwargs)
            finally:
                walking.pop()

        def span(*args):
            built.append(walking[-1] if walking else None)
            return real_span(*args)

        monkeypatch.setattr(invariants_module, "jet_model", walk)
        monkeypatch.setattr(oracle_module, "_span", span)
        parsed = parse_problem((CORPUS_DIR / "nwh_t444_generic.brs").read_text(encoding="utf-8"))
        report = analyze(parsed.problem)
        per_ideal = {
            name: sum(I is report.ideals[name] for I in built)
            for name in ("mu_f", "mu_X", "br", "trivial", "legreuel")
        }
        assert per_ideal == {"mu_f": 1, "mu_X": 6, "br": 4, "trivial": 3, "legreuel": 0}
        assert len(built) == 14
        assert report.routes["trivial"] == report.routes["legreuel"] == "jet"

    @pytest.mark.parametrize("name", ["wh_e6_f_x.brs", "nwh_t45_f_x.brs"])
    @pytest.mark.parametrize("mora", ["mu_f", "br", "trivial"])
    def test_ideal_rows_agree_across_engines(self, name, mora, monkeypatch):
        # One of Jf, df_X, df_T answers through its Mora standard basis, the
        # other two through their jet models: every row stays the same.
        parsed = parse_problem((CORPUS_DIR / name).read_text(encoding="utf-8"))
        want = analyze(parsed.problem)
        target = want.ideals[mora]
        real = invariants_module._count

        def count(I, budget, base=None, extra=None, floor=0):
            got = real(I, budget, base, extra, floor)
            if I == target:
                got.model = None
            return got

        monkeypatch.setattr(invariants_module, "_count", count)
        log: list = []
        spy_on(monkeypatch, "ideal_colon", log)
        got = analyze(parsed.problem)
        assert got.ledger == want.ledger
        rows = {e.name: e.status for e in got.ledger}
        assert [rows[e] for e in ("intersect-product", "colon-full", "colon-trivial")] == ["pass"] * 3
        assert len(log) == (0 if mora == "mu_f" else 1)

    def test_mora_fallback_without_milnor_model(self, P, monkeypatch):
        # mu_f is infinite, so Jf has no jet model, but mu_BR_rel is finite
        # and the colon and intersection gates are open: Mora decides them,
        # the intersection as phi * (df_X : phi) with no intersection run.
        log: list = []
        spy_on(monkeypatch, "ideal_colon", log)
        spy_on(monkeypatch, "ideal_intersection", log, module=stdbasis_module)
        report = analyze(prob("x^2 + y^3", "x^2"))
        assert report.mu_f is NOT_FINITE
        assert report.mu_BR_rel == 5
        assert report.routes["mu_f"] == "certificate"
        by_name = {e.name: e for e in report.ledger}
        for entry in ("intersect-product", "colon-full", "colon-trivial"):
            assert by_name[entry].status == "pass", by_name[entry]
        assert sorted(fn for fn, _ in log) == ["ideal_colon", "ideal_colon"]


def corpus_problem(name: str) -> HypersurfaceProblem:
    return parse_problem((CORPUS_DIR / name).read_text(encoding="utf-8")).problem


class TestTauModuleRow:
    """The row counts dim Theta_X / Theta_X^T as mu_X - colength(J_phi + A).

    A is the ideal of the cofactors a_k of theta_full, dphi(xi_k) = a_k * phi.
    """

    @pytest.mark.parametrize(
        "name",
        ["wh_e6_f_x.brs", "nwh_t45_f_x.brs", "nwh_t77_f_y.brs", "wh_a1_3d_f_z.brs", "wh_d4_f_y.brs"],
    )
    def test_ideal_quotient_is_the_module_quotient(self, name):
        # The witness: the rank-n quotient of the tangent modules, the
        # rank-1 quotient dphi(Theta_X) / phi * J_phi, the count the row
        # makes (here on Mora) and the Tjurina number agree.
        phi = corpus_problem(name).phi
        theta = theta_full(phi)
        modules = module_quotient_dim(as_submodule(theta_trivial(phi)), as_submodule(theta))
        ideals = module_quotient_dim(df_trivial_ideal(phi, phi), df_ideal(phi, theta))
        J_phi = Ideal(phi.ctx, jacobian_ideal(phi))
        row = milnor(phi) - colength(J_phi + Ideal(phi.ctx, theta.cofactors))
        assert modules == ideals == row == tjurina(phi)

    def test_a_smaller_tangent_module_fails_the_row(self, monkeypatch):
        # E6 is weighted homogeneous: Theta_X is the Euler field and one
        # Hamiltonian, which lies in Theta_X^T.  With the Euler field
        # replaced by x and y times it, A is the maximal ideal and the row
        # counts m / J_phi, mu - 1 = 5.
        problem = corpus_problem("wh_e6_f_x.brs")
        theta = theta_full(problem.phi)
        (euler, hamiltonian), (a, zero) = theta.gens, theta.cofactors
        variables = problem.phi.ctx.variables()
        shrunk = DerivationModule(
            (*(VectorField(tuple(v * c for c in euler.components)) for v in variables), hamiltonian),
            (*(v * a for v in variables), zero),
        )
        monkeypatch.setattr(invariants_module, "theta_full", lambda _, budget: shrunk)
        row = {e.name: e for e in analyze(problem, tau_check=True).ledger}["tau-module"]
        assert (row.status, row.lhs, row.rhs) == ("fail", 5, 6)

    def test_without_the_euler_field_the_row_fails(self, monkeypatch):
        # A is zero, so the row counts J_phi / J_phi: a failed row, not an
        # error, and `brs check` exits 2 (identity failure).
        problem = corpus_problem("wh_e6_f_x.brs")
        theta = theta_full(problem.phi)
        dropped = DerivationModule(theta.gens[1:], theta.cofactors[1:])
        monkeypatch.setattr(invariants_module, "theta_full", lambda _, budget: dropped)
        row = {e.name: e for e in analyze(problem, tau_check=True).ledger}["tau-module"]
        assert (row.status, row.lhs, row.rhs) == ("fail", 0, 6)
        res = CliRunner().invoke(cli_main, ["check", str(CORPUS_DIR / "wh_e6_f_x.brs"), "--tau"])
        assert res.exit_code == 2, res.output
        assert ["tau-module", "fail", "0", "=", "6"] in [line.split() for line in res.output.splitlines()]

    def test_without_the_euler_field_the_row_has_no_value(self):
        # The first generator of Theta_X for E6 is the Euler field; without
        # it dphi(Theta_X) is zero and cannot contain phi * J_phi.
        phi = corpus_problem("wh_e6_f_x.brs").phi
        theta = theta_full(phi)
        dropped = DerivationModule(theta.gens[1:], theta.cofactors[1:])
        assert df_ideal(phi, dropped).gens == ()
        with pytest.raises(ContainmentError):
            module_quotient_dim(df_trivial_ideal(phi, phi), df_ideal(phi, dropped))

    @pytest.mark.parametrize("name", sorted(p.name for p in CORPUS_DIR.glob("*.brs")))
    def test_the_row_runs_no_standard_basis(self, name, monkeypatch):
        # The row's one count extends mu_X's model: with --tau, the run
        # completes no more standard bases than without, and that count
        # is a jet count wherever mu_X's is.
        completions: list = []
        routes: list = []
        spy_on(monkeypatch, "_complete", completions, module=stdbasis_module)
        real = invariants_module._count

        def count(*args, **kwargs):
            got = real(*args, **kwargs)
            routes.append(got.route)
            return got

        monkeypatch.setattr(invariants_module, "_count", count)
        problem = corpus_problem(name)
        report = analyze(problem)
        plain = (len(completions), Counter(routes))
        completions.clear()
        routes.clear()
        analyze(problem, tau_check=True)
        assert len(completions) == plain[0]
        added = Counter(routes)
        added.subtract(plain[1])
        gated = is_finite(report.mu_X)
        assert sum(added.values()) == gated
        if gated and report.routes["mu_X"] == "jet":
            assert +added == Counter(["jet"])


class TestSplitDetection:
    def test_suspension_detected(self, ctx3):
        split = detect_split(prob("x^2 + y^3", "y + z^2", ctx3))
        assert split is not None
        assert split.base_ctx.names == ("x", "y")
        assert split.ext_ctx.names == ("z",)
        assert str(split.g) == "z^2"

    def test_mixed_term_blocks_split(self, ctx3):
        assert detect_split(prob("x^2 + y^3", "y + x*z", ctx3)) is None

    def test_no_fresh_variables(self, P):
        assert detect_split(prob("x^2 + y^3", "y")) is None

    def test_pure_extension_function(self, ctx3):
        split = detect_split(prob("x^2 + y^3", "z^2", ctx3))
        assert split is not None
        assert split.f_base.is_zero()
        report = analyze(prob("x^2 + y^3", "z^2", ctx3))
        by_name = {e.name: e for e in report.ledger}
        # f restricted to the base is 0, nothing is finite, both sides agree.
        assert by_name["susp-br-product"].status == "pass"

    def test_suspension_product_entries(self, ctx3):
        report = analyze(prob("x^2 + y^3", "y + z^3", ctx3))
        by_name = {e.name: e for e in report.ledger}
        assert by_name["susp-br-product"].status == "pass"
        assert by_name["susp-br-product"].lhs == 2  # mu(z^3) * mu_BR(y, cusp)
        assert by_name["split-milnor-product"].status == "pass"
        assert by_name["split-colength-product"].status == "pass"
