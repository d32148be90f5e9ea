from collections import Counter
from dataclasses import replace
from time import perf_counter
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import brs.invariants as invariants_module
import brs.oracle as oracle_module
import brs.stdbasis as stdbasis_module
import brs.tangent as tangent_module
from brs import (
    BrsError,
    ContainmentError,
    HypersurfaceProblem,
    InternalError,
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
from brs.oracle import DEFAULT_CAP, jet_model, oracle_colength
from brs.polycore import VectorField, jacobian_ideal
from brs.stdbasis import Ideal, colength, module_quotient_dim
from brs.tangent import DerivationModule, df_ideal, df_trivial_ideal, theta_full
from conftest import CORPUS_DIR, as_submodule, ideal_contains, patch_everywhere, theta_trivial
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

    def test_not_an_ihs_counts_no_fibre_ideal(self, ctx3):
        # S34: mu_X is infinite, so the Le-Greuel ideal, whose uncapped Mora
        # count stalled, is never counted.
        phi = parse_poly("x^6 + 3*y^4 + z^2 - 2*x^3*z", ctx3)
        assert fiber_milnor(phi, parse_poly("2*z^2 + 3*x^2*z - y*z", ctx3)) is NOT_FINITE


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


# The counted ideals of a plain `analyze`, in count order, and of a suspension.
COUNTS = ("mu_f", "mu_X", "tau_X", "trivial", "legreuel", "trivial_rel", "br", "br_rel")
SPLIT_COUNTS = COUNTS[:6] + (
    "split_g_milnor", "split_base_br", "br", "br_rel", "split_base_tau", "split_lifted", "split_f_milnor"
)

# Per corpus file, the work of a plain `analyze`: echelons built, Mora runs
# (the Schreyer run of Theta_X among them), each count's route by its first
# letter (certificate, jet, mora), in count order, and the colons and
# extensions of a jet model that eliminate, inserting columns into an echelon.
# In all, 338 echelons and 29 runs; 0 of the 36 colons, since every f that
# reaches a colon is linear, so some phi*f_xi is a nonzero multiple of phi and
# phi lies in df_T and df_X; and 10 of the 60 extensions.
WORK = {
    "degen_a2_self.brs": (15, 3, "jjjmcccm", 0, 0),
    "degen_t55_self.brs": (36, 4, "jjjmccmm", 0, 1),
    "nwh_t334_generic.brs": (14, 1, "jjjjjjjj", 0, 1),
    "nwh_t444_3d_f_z.brs": (17, 1, "jjjjjjjj", 0, 1),
    "nwh_t444_generic.brs": (14, 1, "jjjjjjjj", 0, 1),
    "nwh_t45_f_x.brs": (16, 1, "jjjjjjjj", 0, 1),
    "nwh_t55_f_x_minus_y.brs": (15, 1, "jjjjjjjj", 0, 1),
    "nwh_t55_f_y.brs": (16, 1, "jjjjjjjj", 0, 1),
    "nwh_t56_f_y.brs": (17, 1, "jjjjjjjj", 0, 1),
    "nwh_t77_f_x_minus_y.brs": (22, 1, "jjjjjjjj", 0, 1),
    "nwh_t77_f_y.brs": (23, 1, "jjjjjjjj", 0, 1),
    "susp_a2_x_z2.brs": (12, 1, "jcccccjjjjjjj", 0, 0),
    "susp_a2_z2.brs": (11, 1, "jcccccjjjjjjj", 0, 0),
    "susp_a2_z3.brs": (12, 1, "jcccccjjjjjjj", 0, 0),
    "susp_d4_z2.brs": (13, 1, "jcccccjjjjjjj", 0, 0),
    "wh_a1_3d_f_z.brs": (7, 1, "jjjjjjjj", 0, 0),
    "wh_a2_cusp_f_x.brs": (9, 1, "jjjjjjjj", 0, 0),
    "wh_a2_cusp_f_y.brs": (8, 1, "jjjjjjjj", 0, 0),
    "wh_a3_f_y.brs": (9, 1, "jjjjjjjj", 0, 0),
    "wh_a4_f_x.brs": (13, 1, "jjjjjjjj", 0, 0),
    "wh_d4_f_2x_y.brs": (10, 1, "jjjjjjjj", 0, 0),
    "wh_d4_f_y.brs": (10, 1, "jjjjjjjj", 0, 0),
    "wh_e6_f_x.brs": (12, 1, "jjjjjjjj", 0, 0),
    "wh_node_f_x_y.brs": (7, 1, "jjjjjjjj", 0, 0),
}


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
            ideal = report.ideals[key]
            route = ideal.route
            routes.add(route)
            if route == "jet":
                assert ideal in mora and ideal not in oracle, key
            else:
                assert ideal in oracle, key
        assert "jet" in routes
        if name.startswith("susp_"):
            assert "certificate" in routes

    @pytest.mark.parametrize("name", sorted(p.name for p in CORPUS_DIR.glob("*.brs")))
    def test_the_oracle_builds_no_standard_basis(self, name, monkeypatch):
        # A jet value is checked by counting a capped Mora run, with no basis
        # built; the other values by the jet oracle.
        calls: list = []
        spy_on(monkeypatch, "standard_basis", calls, module=stdbasis_module)
        problem = corpus_problem(name)
        analyze(problem)
        plain = len(calls)
        analyze(problem, oracle=True)
        assert len(calls) == 2 * plain

    @pytest.mark.parametrize("name", ["wh_e6_f_x.brs", "susp_d4_z2.brs"])
    def test_oracle_walks_no_ideal_twice(self, name, monkeypatch):
        # The cross-check gives Mora the level of the model the ideal holds,
        # and I + (phi) extends the model of I, so no ideal is walked again.
        walked: list = []
        real = oracle_module.jet_model

        def walk(I, *args, **kwargs):
            walked.append(I)
            return real(I, *args, **kwargs)

        patch_everywhere(monkeypatch, oracle_module, "jet_model", walk)
        parsed = parse_problem((CORPUS_DIR / name).read_text(encoding="utf-8"))
        report = analyze(parsed.problem, oracle=True)
        rows = [e for e in report.ledger if e.name.startswith("oracle-")]
        assert rows and all(e.status == "pass" for e in rows)
        assert walked and len(walked) == len(set(walked))
        extended = [n for n in ("tau_X", "br_rel", "trivial_rel") if report.ideals[n].route == "jet"]
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
        assert {I.route for I in report.ideals.values()} == {"jet"}

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
        assert {I.route for I in report.ideals.values()} == {"jet"}
        assert not report.failed
        # The tau-module row extends mu_X's model too; on S18 its Mora
        # route stalled in a standard basis of dphi(Theta_X).
        row = {e.name: e for e in analyze(prob(phi, f, ctx3), tau_check=True).ledger}["tau-module"]
        assert (row.status, row.lhs, row.rhs) == ("pass", report.tau_X, report.tau_X)

    @pytest.mark.parametrize("name", sorted(p.name for p in CORPUS_DIR.glob("*.brs")))
    def test_walks_build_only_the_echelons_they_need(self, name, recorder, monkeypatch):
        # One echelon gives every dim up to its cap, a walk starts at the
        # level of a counted ideal that contains its ideal, and a sum extends
        # the model of its counted part: a lost floor or base shows here as
        # more echelons (`oracle._span`) or Mora runs (`_kept_entries`).  On
        # T444 the walk of df_T starts at the level of (phi) + J_phi: 14
        # echelons in all, where walking level by level built 30; the
        # Le-Greuel ideal is df_T + (phi), so it extends df_T's model and
        # builds none.
        runs: list = []
        called: list = []
        eliminating: list = []
        inserts = [0]
        real_insert = oracle_module._Echelon.insert

        def insert(self, col):
            inserts[0] += 1
            return real_insert(self, col)

        def inserting(kind, real):
            def call(*args):
                called.append(kind)
                before = inserts[0]
                got = real(*args)
                if inserts[0] > before:
                    eliminating.append(kind)
                return got

            return call

        monkeypatch.setattr(oracle_module._Echelon, "insert", insert)
        monkeypatch.setattr(
            oracle_module.JetModel, "colon", inserting("colon", oracle_module.JetModel.colon)
        )
        monkeypatch.setattr(
            stdbasis_module,
            "extended_jet_model",
            inserting("extension", stdbasis_module.extended_jet_model),
        )
        spy_on(monkeypatch, "_kept_entries", runs, module=stdbasis_module)
        report = analyze(corpus_problem(name))
        echelons, mora_runs, routes, colons, extensions = WORK[name]
        assert "extension" in called  # tau_X extends mu_X's model on every file
        assert (len(recorder.spans), len(runs)) == (echelons, mora_runs)
        assert (eliminating.count("colon"), eliminating.count("extension")) == (colons, extensions)
        assert list(report.ideals) == list(SPLIT_COUNTS if name.startswith("susp_") else COUNTS)
        assert "".join(I.route[0] for I in report.ideals.values()) == routes
        if name == "nwh_t444_generic.brs":
            per_ideal = {
                key: sum(I is report.ideals[key] for I, _ in recorder.spans)
                for key in ("mu_f", "mu_X", "br", "trivial", "legreuel")
            }
            assert per_ideal == {"mu_f": 1, "mu_X": 6, "br": 4, "trivial": 3, "legreuel": 0}

    @pytest.mark.parametrize("name", ["wh_e6_f_x.brs", "nwh_t45_f_x.brs"])
    @pytest.mark.parametrize("mora", ["mu_f", "br", "trivial"])
    def test_ideal_rows_agree_across_engines(self, name, mora, monkeypatch):
        # One of Jf, df_X, df_T answers through its Mora standard basis, the
        # other two through their jet models: every row stays the same.
        parsed = parse_problem((CORPUS_DIR / name).read_text(encoding="utf-8"))
        want = analyze(parsed.problem)
        target = want.ideals[mora]
        real = Ideal.count
        dropped: list = []

        def count(I, budget, base=None, extra=None, floor=0):
            got = real(I, budget, base, extra, floor)
            if I == target and I.model is not None:
                I.model = None
                dropped.append(I)
            return got

        monkeypatch.setattr(Ideal, "count", count)
        log: list = []
        spy_on(monkeypatch, "ideal_colon", log, module=stdbasis_module)
        got = analyze(parsed.problem)
        assert len(dropped) == 1
        assert got.ledger == want.ledger
        rows = {e.name: e.status for e in got.ledger}
        assert [rows[e] for e in ("intersect-product", "colon-full", "colon-trivial")] == ["pass"] * 3
        assert len(log) == (0 if mora == "mu_f" else 1)

    def test_mora_fallback_without_milnor_model(self, P, monkeypatch):
        # mu_f is infinite, so Jf has no jet model, but mu_BR_rel is finite
        # and the colon and intersection gates are open: Mora decides them,
        # the intersection as phi * (df_X : phi) with no intersection run.
        log: list = []
        spy_on(monkeypatch, "ideal_colon", log, module=stdbasis_module)
        spy_on(monkeypatch, "ideal_intersection", log, module=stdbasis_module)
        report = analyze(prob("x^2 + y^3", "x^2"))
        assert report.mu_f is NOT_FINITE
        assert report.mu_BR_rel == 5
        assert report.ideals["mu_f"].route == "certificate"
        by_name = {e.name: e for e in report.ledger}
        for entry in ("intersect-product", "colon-full", "colon-trivial"):
            assert by_name[entry].status == "pass", by_name[entry]
        assert sorted(fn for fn, _ in log) == ["ideal_colon", "ideal_colon"]


def corpus_problem(name: str) -> HypersurfaceProblem:
    return parse_problem((CORPUS_DIR / name).read_text(encoding="utf-8")).problem


@pytest.mark.parametrize("name", ["wh_a2_cusp_f_x.brs", "degen_a2_self.brs"])
def test_a_low_oracle_cap_is_refused_before_any_count(name, monkeypatch):
    # `analyze` refuses the cap before any count, whatever routes the
    # file's counts would take (all jet on the first, some not on the second).
    counted: list = []
    real = Ideal.count
    monkeypatch.setattr(Ideal, "count", lambda I, *a, **k: counted.append(I) or real(I, *a, **k))
    with pytest.raises(BrsError, match="oracle cap must be at least 4"):
        analyze(corpus_problem(name), oracle=True, max_jet=1)
    assert counted == []


def test_an_ideal_inside_an_infinite_one_is_certified_at_once():
    # S34 (not an IHS): df_T and the Le-Greuel ideal lie in (phi) + J_phi,
    # which is infinite, so both are infinite with no work.  Counted on their
    # own, df_T's uncapped Mora run stalled with 118 000-bit coefficients.
    ctx3 = VarContext(("x", "y", "z"))
    report = analyze(prob("x^6 + 3*y^4 + z^2 - 2*x^3*z", "2*z^2 + 3*x^2*z - y*z", ctx3))
    got = (report.mu_f, report.mu_X, report.tau_X, report.mu_fiber, report.mu_BR, report.mu_BR_rel)
    assert got == (NOT_FINITE,) * 5 + (18,)
    routes = [report.ideals[k].route for k in ("trivial", "legreuel", "trivial_rel")]
    assert routes == ["certificate"] * 3
    assert {e.status for e in report.ledger} == {"skip"}


# Problems where Mora decides several counts, with their distinct uncapped runs.
MORA_INPUTS = [
    ("x^2 + y^3", "x^2 + 2*x*y + y^2", "xy", 5),
    ("x^2 + y^3", "x^2", "xy", 4),
    ("x^3 + y^3 + z^3", "x*y", "xyz", 4),
]


class TestOneUncappedRunPerIdeal:
    # An ideal keeps its one Mora run (`Ideal.mora`): its Mora count, the
    # ledger's memberships in it and the degree bound of a colon by it read
    # one run, and a colon by an ideal counted infinite asks for no bound, so
    # it runs no Mora.  These inputs were run 9, 6 and 6 times before an
    # ideal kept its run, and 5, 5 and 5 times before a colon asked the
    # count first.
    @pytest.mark.parametrize(
        "phi, f, names, runs", MORA_INPUTS, ids=["-".join(case[:3]) for case in MORA_INPUTS]
    )
    def test_each_input_runs_once(self, phi, f, names, runs, recorder):
        analyze(prob(phi, f, VarContext(tuple(names))))
        assert len(recorder.uncapped) == len(set(recorder.uncapped)) == runs

    @pytest.mark.parametrize("oracle", [False, True], ids=["plain", "oracle"])
    @pytest.mark.parametrize("tau", [False, True], ids=["", "tau"])
    def test_no_input_repeats_on_the_corpus(self, oracle, tau, recorder):
        # The two `degen_*` files make 2 and 3 uncapped runs, in every mode.
        runs, total = recorder.uncapped, 0
        for path in sorted(CORPUS_DIR.glob("*.brs")):
            parsed = parse_problem(path.read_text(encoding="utf-8"))
            runs.clear()
            analyze(parsed.problem, oracle=oracle, max_jet=parsed.max_jet, tau_check=tau)
            assert len(runs) == len(set(runs)), path.name
            total += len(runs)
        assert total == 5

    def test_a_kept_run_is_reused_whatever_the_budget(self, recorder):
        # The second count would exhaust a budget of 1 if it ran again.
        I = Ideal(CTX2, [parse_poly("x^2*y", CTX2), parse_poly("x*y^2 + y^5", CTX2)])
        assert colength(I) is NOT_FINITE
        assert colength(I, budget=1) is NOT_FINITE
        assert len(recorder.uncapped) == 1


class TestOneProofPerIdeal:
    # An ideal holds what is proven about it, so in one `analyze` no ideal
    # is walked twice uncapped (a walk that gave up is not repeated to
    # propose a level), no echelon of an ideal is built twice at one cap (a
    # capped walk after one that gave up starts past the level it reached),
    # and no Mora input runs twice at one cap, or uncapped: the oracle checks
    # each distinct ideal once, whatever rows name it.  Ideals compare by their
    # generators here, so Jf and J_phi of a `degen_*` file, where f = phi,
    # must be one ideal with one proof.
    @staticmethod
    def problems():
        for path in sorted(CORPUS_DIR.glob("*.brs")):
            parsed = parse_problem(path.read_text(encoding="utf-8"))
            yield path.name, parsed.problem, parsed.max_jet
        for phi, f, names, _ in MORA_INPUTS:
            yield f"{phi} | {f}", prob(phi, f, VarContext(tuple(names))), DEFAULT_CAP

    @pytest.mark.parametrize("oracle", [False, True], ids=["plain", "oracle"])
    @pytest.mark.parametrize("tau", [False, True], ids=["", "tau"])
    def test_no_proof_is_made_twice(self, oracle, tau, recorder):
        for name, problem, max_jet in self.problems():
            for made in (recorder.walks, recorder.spans, recorder.uncapped, recorder.capped):
                made.clear()
            analyze(problem, oracle=oracle, max_jet=max_jet, tau_check=tau)
            walked = [I for I, cap in recorder.walks if cap is None]
            assert len(walked) == len(set(walked)), name
            assert len(recorder.spans) == len(set(recorder.spans)), name
            assert len(recorder.uncapped) == len(set(recorder.uncapped)), name
            assert len(recorder.capped) == len(set(recorder.capped)), name

    @pytest.mark.parametrize("name", ["degen_a2_self.brs", "degen_t55_self.brs"])
    def test_the_oracle_checks_each_distinct_ideal_once(self, name, recorder):
        # f = phi, so mu_f and mu_X name one ideal: the oracle checks its jet
        # count with one capped Mora run, read by both rows.  The other
        # capped run checks tau_X; the uncapped runs count the Mora-route
        # ideals (the principal ones take the certificate and run nothing).
        # Checked per name, the shared ideal was run twice.
        report = analyze(corpus_problem(name), oracle=True)
        assert report.ideals["mu_f"] is report.ideals["mu_X"]
        rows = {e.name: e for e in report.ledger}
        mu_f, mu_X = rows["oracle-mu_f"], rows["oracle-mu_X"]
        assert (mu_f.status, mu_f.lhs, mu_f.rhs) == (mu_X.status, mu_X.lhs, mu_X.rhs)
        assert mu_f.status == "pass"
        uncapped = {"degen_a2_self.brs": 2, "degen_t55_self.brs": 3}[name]
        assert (len(recorder.capped), len(recorder.uncapped)) == (2, uncapped)
        assert len(set(recorder.capped)) == 2

    def test_a_capped_walk_starts_past_a_walk_that_gave_up(self, recorder):
        # Jf = (2x + 2y, 2x + 2y) has infinite colength: its walk gives up,
        # and the oracle's walk of it, capped at 32, builds its first
        # echelon one level past the last one the first walk built.
        report = analyze(prob("x^2 + y^3", "x^2 + 2*x*y + y^2"), oracle=True)
        jf = report.ideals["mu_f"]
        caps = [cap for I, cap in recorder.spans if I is jf]
        assert jf.route == "mora" and jf.reach is not None
        assert caps == list(range(1, 33))
        assert [cap for I, cap in recorder.walks if I is jf] == [None, 32]


def run_facts(problem: HypersurfaceProblem, monkeypatch) -> SimpleNamespace:
    """The facts of one `analyze(..., tau_check=True)`: every ideal counted, and its count."""
    seen: list = []
    real = invariants_module._count_stage

    def count_stage(v, stage):
        seen.append(v)
        return real(v, stage)

    monkeypatch.setattr(invariants_module, "_count_stage", count_stage)
    analyze(problem, tau_check=True)
    return seen[-1]


def contains(ideal: Ideal, model, gens) -> bool:
    """Whether `gens` lie in `ideal`: by its jet model, else by a Mora standard basis."""
    if model is not None:
        return model.contains_all(gens)
    return ideal_contains(ideal, Ideal(ideal.ctx, gens))


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS_DIR.glob("*.brs")))
def test_every_declared_relation_holds(name, monkeypatch):
    # What `_IDEALS` declares is never checked by `analyze`; here each fact is
    # checked on its own evidence, not on the model the relation gave.
    v = run_facts(corpus_problem(name), monkeypatch)
    kinds = set()
    for entry in invariants_module._IDEALS:
        if entry.name not in v.ideals:
            continue
        I = v.ideals[entry.name]
        for kind, key, *more in map(str.split, entry.relations):
            if key not in v.ideals:
                continue
            K = v.ideals[key]
            kinds.add(kind)
            if kind == "inside":
                # by K's model when K is finite, else by Mora
                assert contains(K, v.ideals[key].model, I.gens), (entry.name, key)
            elif kind == "equal":
                assert contains(K, v.ideals[key].model, I.gens), (entry.name, key)
                assert contains(I, jet_model(I), K.gens), (entry.name, key)
            elif kind == "sum":
                # I's generators are K's and the extra ones, and those lie in I
                parts = K.gens + getattr(v, more[0]).gens
                assert set(I.gens) <= set(parts), entry.name
                rest = [g for g in parts if g not in I.gens]
                assert not rest or contains(I, jet_model(I), rest), entry.name
            else:
                L = v.ideals[more[0]]
                assert not set(K.ctx.names) & set(L.ctx.names), entry.name
                assert set(I.gens) == {g.embed(I.ctx) for g in K.gens + L.gens}, entry.name
    assert kinds == {"sum", "inside", "equal"} | ({"disjoint"} if v.split else set())


def test_one_minors_computation_per_analyze(monkeypatch):
    # df_T and the Le-Greuel ideal are built from one list of minors.
    log: list = []
    spy_on(monkeypatch, "minors_2x2", log)
    spy_on(monkeypatch, "minors_2x2", log, module=tangent_module)
    analyze(corpus_problem("nwh_t444_generic.brs"))
    assert len(log) == 1


# Brieskorn-Pham germs phi = sum x_i^(a_i) with f a coordinate: mu_f = 0,
# mu_X = tau_X = prod(a_i - 1), and mu_fiber = mu_BR = mu_BR_rel is the same
# product over the variables other than f's.  The walk of J_phi gives up by
# its cost rule on each, so mu_X is a Mora count.
BRIESKORN_PHAM = [
    ("x,y,z", "x^10 + y^10 + z^10", "x", (0, 729, 729, 81, 81, 81)),
    ("x,y,z", "x^8 + y^9 + z^10", "z", (0, 504, 504, 56, 56, 56)),
    ("x,y,z,w", "x^7 + y^7 + z^7 + w^7", "x", (0, 1296, 1296, 216, 216, 216)),
]


def brieskorn_pham(names: str, phi: str, f: str) -> HypersurfaceProblem:
    return prob(phi, f, VarContext(tuple(names.split(","))))


# T_{p,q,r} = x^p + y^q + z^r + x*y*z, hyperbolic (1/p + 1/q + 1/r < 1), p >= 3
# so that the tangent cone is a cubic.
T_PQR = [(3, 3, 4), (3, 4, 5), (4, 4, 4), (3, 5, 7), (4, 5, 6)]


@pytest.mark.parametrize("p, q, r", T_PQR, ids=[f"T{p}{q}{r}" for p, q, r in T_PQR])
def test_t_pqr_invariants_match_the_closed_forms(p, q, r, ctx3):
    # Every expected value comes from the formulas (Arnold, Gusein-Zade and
    # Varchenko for the normal forms): mu_X = p + q + r - 1, tau_X = mu_X - 1;
    # the fibre of f = x is y^q + z^r, of f = z is x^p + y^q, and a generic
    # plane meets the cubic tangent cone in three lines, of Milnor number 4;
    # mu_f = 0 and mu_BR = mu_BR_rel = mu_fiber + 1.
    phi = parse_poly(f"x^{p} + y^{q} + z^{r} + x*y*z", ctx3)
    mu_X = p + q + r - 1
    for f, mu_fiber in (("x", (q - 1) * (r - 1)), ("z", (p - 1) * (q - 1)), ("x + 2*y - z", 4)):
        report = analyze(HypersurfaceProblem(ctx=ctx3, phi=phi, f=parse_poly(f, ctx3)))
        got = (report.mu_f, report.mu_X, report.tau_X, report.mu_fiber, report.mu_BR, report.mu_BR_rel)
        assert got == (0, mu_X, mu_X - 1, mu_fiber, mu_fiber + 1, mu_fiber + 1), f
        assert not report.failed, f


class TestMoraCountCarriesItsModel:
    """A finite Mora count proves a level and hands its jet model on."""

    @pytest.mark.parametrize(
        "names, phi, f, values", BRIESKORN_PHAM, ids=["fermat10_x", "b8910_z", "fermat7_4d_x"]
    )
    def test_brieskorn_pham(self, names, phi, f, values, monkeypatch):
        # The spy records each count that makes a proof, not one read back.
        counts: list = []
        real = Ideal.count

        def count(I, *args, **kwargs):
            if I.value is None:
                counts.append(I)
            return real(I, *args, **kwargs)

        monkeypatch.setattr(Ideal, "count", count)
        log: list = []
        spy_on(monkeypatch, "ideal_colon", log, module=stdbasis_module)
        report = analyze(brieskorn_pham(names, phi, f))
        got = (report.mu_f, report.mu_X, report.tau_X, report.mu_fiber, report.mu_BR, report.mu_BR_rel)
        assert got == values
        assert all(e.status == "pass" for e in report.gated)
        assert report.ideals["mu_X"].route == "mora"
        (mu_X,) = [I for I in counts if I is report.ideals["mu_X"]]
        assert mu_X.model is not None and mu_X.model.colength == values[1]
        assert report.ideals["tau_X"].route == "jet"
        assert log == []

    def test_every_oracle_and_tau_row_passes(self):
        names, phi, f, _ = BRIESKORN_PHAM[0]
        report = analyze(brieskorn_pham(names, phi, f), oracle=True, tau_check=True)
        assert [e.name for e in report.ledger if e.status != "pass"] == []

    @pytest.mark.parametrize("name", ["degen_a2_self.brs", "degen_t55_self.brs"])
    def test_one_walk_per_mora_count(self, name, monkeypatch):
        # A walk that gave up is not repeated to propose a level for Mora:
        # its verdict does not depend on its floor, so it would give up again.
        walks: list = []
        real_walk = oracle_module.jet_model

        def walk(I, cap=None, floor=0):
            if cap is None:
                walks.append(I)
            return real_walk(I, cap, floor)

        made: list = []
        real_count = Ideal.count

        def count(I, *args, **kwargs):
            start, fresh = len(walks), I.value is None
            got = real_count(I, *args, **kwargs)
            if fresh:
                made.append((I.route, walks[start:]))
            return got

        patch_everywhere(monkeypatch, oracle_module, "jet_model", walk)
        monkeypatch.setattr(Ideal, "count", count)
        analyze(corpus_problem(name))
        mora = [walked for route, walked in made if route == "mora"]
        assert mora and all(len(walked) == 1 for walked in mora)

    @pytest.mark.parametrize("drop", [0, -1], ids=["first", "last"])
    def test_a_wrong_mora_count_is_caught(self, drop, monkeypatch):
        # One standard monomial missing: the model disagrees with the count
        # (first), or the level is too low for the capped walk (last).
        real = Ideal.mora
        calls: list = []

        def dropped(I, budget):
            kept, cap, exps = real(I, budget)
            calls.append(I)
            exps = sorted(exps)
            del exps[drop]
            return kept, cap, exps

        monkeypatch.setattr(Ideal, "mora", dropped)
        names, phi, f, _ = BRIESKORN_PHAM[0]
        with pytest.raises(InternalError):
            analyze(brieskorn_pham(names, phi, f))
        assert calls


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
        # makes no more Mora runs than without, and that count is a jet
        # count wherever mu_X's is.
        # The spy records each count that makes a proof, not one read back.
        completions: list = []
        routes: list = []
        spy_on(monkeypatch, "_kept_entries", completions, module=stdbasis_module)
        real = Ideal.count

        def count(I, *args, **kwargs):
            fresh = I.value is None
            got = real(I, *args, **kwargs)
            if fresh:
                routes.append(I.route)
            return got

        monkeypatch.setattr(Ideal, "count", count)
        problem = corpus_problem(name)
        report = analyze(problem)
        plain = (len(completions), Counter(routes))
        assert routes
        completions.clear()
        routes.clear()
        analyze(problem, tau_check=True)
        assert len(completions) == plain[0]
        added = Counter(routes)
        added.subtract(plain[1])
        gated = is_finite(report.mu_X)
        assert sum(added.values()) == gated
        if gated and report.ideals["mu_X"].route == "jet":
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


# The `verify` benchmark's suspensions: (phi, f_base), each suspended by z^2 and z^3.
VERIFY_BASES = (
    ("x^2 + y^3", "y"),
    ("x^2 + y^4", "y"),
    ("x^3 - x*y^2", "y"),
    ("x^3 + y^4", "x"),
    ("x^3 + y^5", "y"),
    ("x^5 + y^5 + x^2*y^2", "y"),
    ("x^4 + y^5 + x^2*y^2", "x"),
)
SUSPENSIONS = [path.name for path in CORPUS_DIR.glob("susp_*.brs")] + [
    f"{phi} | {f} + z^{k}" for phi, f in VERIFY_BASES for k in (2, 3)
]


def suspension(case: str) -> HypersurfaceProblem:
    if case.endswith(".brs"):
        return corpus_problem(case)
    phi, f = case.split(" | ")
    return prob(phi, f, VarContext(("x", "y", "z")))


class TestOneLedger:
    @pytest.mark.parametrize("name", ["susp_d4_z2.brs", "degen_a2_self.brs", "wh_e6_f_x.brs"])
    @pytest.mark.parametrize("tau", [False, True], ids=["", "tau"])
    def test_every_entry_is_decided_by_evaluate(self, name, tau, monkeypatch):
        # Every row, `oracle-*` and `tau-module` among them, comes from the
        # one table and is decided by the one function; a suspension's rows
        # are the only ones left out elsewhere.
        made: list = []
        real = invariants_module._evaluate

        def evaluate(row, v):
            made.append((row, real(row, v)))
            return made[-1][1]

        monkeypatch.setattr(invariants_module, "_evaluate", evaluate)
        report = analyze(corpus_problem(name), oracle=True, tau_check=tau)
        assert report.ledger == tuple(entry for _, entry in made if entry is not None)
        table = len(invariants_module._LEDGER)
        assert [row for row, _ in made[:table]] == list(invariants_module._LEDGER)
        assert all(row.name.startswith("oracle-") for row, _ in made[table:])
        left_out = {row.name for row, entry in made if entry is None}
        split = {"susp-br-product", "split-colength-product", "split-milnor-product"}
        assert left_out == (set() if name.startswith("susp_") else split)

    def test_a_zero_factor_makes_the_split_product_zero(self):
        # R/(K + L) is R1/K tensor R2/L in disjoint variables.
        product = invariants_module._finite_product
        assert product(0, NOT_FINITE) == product(NOT_FINITE, 0) == 0
        assert product(2, 3) == 6 and product(2, NOT_FINITE) is NOT_FINITE


# Suspension shapes: phi in the first variables, f in a fresh variable alone
# (J_g the unit ideal when f is linear), with a base part or a mixed term,
# zero, or a monomial.  Six bases are isolated singularities; the other four
# are not reduced or not isolated, where only the split products must hold.
SUSPENSION_BASES = {
    "x,y,z": ("x*y", "x^2 + y^3", "x^2*y + y^3", "x^3 + y^4", "x^2*y", "x^3 + x^2*y"),
    "x,y,z,w": ("x^2 + y^2 + z^2", "x*y + z^3", "x*y*z", "x^2 - y^2*z"),
}
SUSPENSION_SHAPES = {
    "x,y,z": ("z", "z^2", "y + z^3", "x + z^2", "y + x*z", "0", "x*y", "x*z"),
    "x,y,z,w": ("w", "x + w^2", "z + y*w", "0", "x*y*z"),
}
GATED = [
    (names, phi, f)
    for names, bases in SUSPENSION_BASES.items()
    for phi in bases
    for f in SUSPENSION_SHAPES[names]
] + [
    # phi in one variable is reduced only when smooth; non-reduced in two.
    ("x", "x^3", "x^2"),
    ("x", "x^2", "x"),
    ("x", "x", "x^2"),
    ("x,y", "x^2", "y^2 + x*y"),
    ("x,y", "x^2*y", "x + y"),
    ("x,y", "x^3", "y"),
]


class TestHypotheses:
    """A row whose theorem does not apply is skipped, never failed."""

    @pytest.mark.parametrize(
        "flags", [{}, {"oracle": True, "tau_check": True}], ids=["plain", "oracle-tau"]
    )
    def test_no_row_fails_on_suspensions_or_non_reduced_phi(self, flags):
        assert len(GATED) == 68 + 6
        for names, phi, f in GATED:
            report = analyze(prob(phi, f, VarContext(tuple(names.split(",")))), **flags)
            assert [e.name for e in report.ledger if e.status == "fail"] == [], (names, phi, f)

    def test_a_non_reduced_phi_in_one_variable_is_no_ihs(self):
        # mu_X = 2 is finite, but {x^3 = 0} is not reduced: each identity
        # that needs an IHS is skipped (six of them failed before).
        report = analyze(prob("x^3", "x^2", VarContext(("x",))), oracle=True, tau_check=True)
        skipped = {e.name: e.reason for e in report.ledger if e.status == "skip"}
        assert skipped == {
            **{name: "phi is not reduced (mu_X > 0 in one variable)" for name in (
                "relbr-sum", "dim-rel-trivial", "dim-trivial", "intersect-product",
                "colon-full", "colon-trivial", "tau-module", "icis-finiteness")},
            **{name: "X is neither an IHS nor the suspension of one"
               for name in ("br-split", "br-sum", "quotient-milnor")},
        }
        smooth = analyze(prob("x", "x^2", VarContext(("x",))), tau_check=True)
        assert {e.status for e in smooth.ledger} == {"pass"}

    @pytest.mark.parametrize(
        "names, phi, f, rows",
        [
            ("x,y,z", "x^2 + y^3", "z", ["susp-br-product  pass  0 = 0", "br-split  pass  0 = 0"]),
            ("x,y", "x^2", "y^2 + x*y", ["br-split  skip", "quotient-milnor  skip"]),
            ("x", "x^3", "x^2", ["relbr-sum  skip", "colon-full  skip"]),
        ],
    )
    def test_the_cli_exits_zero(self, names, phi, f, rows, tmp_path):
        path = tmp_path / "problem.brs"
        path.write_text(f"vars = {names}\nphi = {phi}\nf = {f}\n", encoding="utf-8")
        res = CliRunner().invoke(cli_main, ["check", str(path), "--oracle", "--tau"])
        assert res.exit_code == 0, res.output
        lines = [" ".join(line.split()) for line in res.output.splitlines()]
        for row in rows:
            assert any(line.startswith(" ".join(row.split())) for line in lines), row

    @pytest.mark.parametrize(
        "phi, f, counted",
        [
            ("x^2 + y^3", "z", True),  # a split problem: the split rows read it
            ("x^2", "y^2 + x*y", True),  # no IHS and no split: the `br` gate reads it
            ("x + y^2", "x*z + y", False),  # smooth, so an IHS: no row reads it
        ],
    )
    def test_the_base_tjurina_ideal_is_counted_only_where_a_row_reads_it(self, phi, f, counted):
        ctx = VarContext(("x", "y", "z"))
        report = analyze(prob(phi, f, ctx))
        assert ("split_base_tau" in report.ideals) is counted
        if counted:
            assert report.ideals["split_base_tau"].ctx == VarContext(
                tuple(n for n in ("x", "y", "z") if n in phi))


class TestSuspendedModule:
    """A suspended X counts df_X from its base's module: one Schreyer run, its base's.

    Der(-log X x C) = Der(-log X) + O * d/dz (K. Saito, 1980), so df_X is
    J_g, the df of the unit fields, then the base's df_X, embedded: the
    ideal, generator for generator, that df gives on the module of X in the
    problem's ring, whose Schreyer run is not made.
    """

    @pytest.fixture
    def spied(self, monkeypatch) -> tuple[list, list]:
        # The Schreyer runs made, and the run's facts of each `analyze`.
        runs: list = []
        stages: list = []
        for module in (stdbasis_module, tangent_module):
            spy_on(monkeypatch, "_schreyer_rows", runs, module=module)
        spy_on(monkeypatch, "_count_stage", stages)
        return runs, stages

    @staticmethod
    def check(problem: HypersurfaceProblem, spied) -> None:
        runs, stages = spied
        want = theta_full(problem.phi)
        runs.clear()
        report = analyze(problem, oracle=True, tau_check=True)
        v = stages[-1][1]
        assert len(runs) == 1
        assert report.ideals["br"].gens == df_ideal(problem.f, want).gens
        assert v.A.gens == Ideal(problem.ctx, want.cofactors).gens
        assert not report.failed

    @pytest.mark.parametrize("case", sorted(SUSPENSIONS))
    def test_one_schreyer_run_gives_the_module_of_x(self, case, spied):
        self.check(suspension(case), spied)

    def test_every_split_problem_of_the_grid_counts_from_its_base(self, spied):
        problems = [prob(phi, f, VarContext(tuple(names.split(",")))) for names, phi, f in GATED]
        split = [problem for problem in problems if detect_split(problem)]
        assert len(split) == 33  # with the 18 above, 51 split problems
        for problem in split:
            self.check(problem, spied)

    def test_without_the_unit_field_the_product_fails(self, ctx3, monkeypatch):
        # Drop J_g, the df of the unit field d/dz, from the lifted df_X.
        entries = list(invariants_module._IDEALS)
        at = [entry.name for entry in entries].index("br")
        lifted = entries[at].build

        def without_j_g(v):
            j_g = {g.embed(v.ctx) for g in v.ideals["split_g_milnor"].gens}
            return Ideal(v.ctx, [g for g in lifted(v).gens if g not in j_g])

        entries[at] = replace(entries[at], build=without_j_g)
        monkeypatch.setattr(invariants_module, "_IDEALS", tuple(entries))
        report = analyze(prob("x^2 + y^3", "y + z^2", ctx3))
        by_name = {e.name: e for e in report.ledger}
        assert by_name["susp-br-product"].status == "fail"


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS_DIR.glob("*.brs")))
def test_f_plus_a_multiple_of_phi_keeps_what_f_on_x_decides(name):
    # With g = f + h*phi, dg(xi) = df(xi) + phi*(dh(xi) + h*a) for a field xi
    # of Theta_X (dphi(xi) = a*phi): df and dg agree modulo (phi) on
    # Theta_X, and on minors(., phi).  So mu_BR_rel, mu_fiber, and mu_X and
    # tau_X, which do not read f, stay; mu_f and mu_BR may move, but
    # br-split, which relates them, must not change its verdict.  The
    # suspensions stop splitting (h*phi mixes the fresh variable in), so the
    # `br` gate must see that X is still the suspension of an IHS.
    problem = corpus_problem(name)
    ctx = problem.ctx
    h = ctx.variable(ctx.n - 1) + 1
    moved = HypersurfaceProblem(ctx=ctx, phi=problem.phi, f=problem.f + h * problem.phi)
    want = analyze(problem)
    start = perf_counter()
    got = analyze(moved)
    assert perf_counter() - start < 1.0
    keys = ("mu_X", "tau_X", "mu_fiber", "mu_BR_rel")
    assert [getattr(got, k) for k in keys] == [getattr(want, k) for k in keys]
    status = {e.name: e.status for e in got.ledger}
    assert status["br-split"] == {e.name: e.status for e in want.ledger}["br-split"]
    assert "fail" not in status.values()
