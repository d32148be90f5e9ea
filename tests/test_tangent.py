import pytest

import brs.tangent as tangent_module
from brs import (
    ContextError,
    DerivationModule,
    GermError,
    HypersurfaceProblem,
    Ideal,
    InternalError,
    VarContext,
    VectorField,
    colength,
    df_ideal,
    df_pair,
    df_trivial_ideal,
    ideals_equal,
    jacobian_ideal,
    membership,
    milnor,
    mora_normal_form,
    parse_poly,
    standard_basis,
    suspend,
    theta_contains,
    theta_full,
    theta_trivial,
)
from strategies import CTX2


class TestThetaTrivial:
    def test_two_var_generator_list(self, P):
        phi = P("x^2 + y^3")
        theta = theta_trivial(phi)
        assert len(theta.gens) == 3
        assert theta.gens[0].components == (phi, P("0"))
        assert theta.gens[1].components == (P("0"), phi)
        # Hamiltonian field phi_y d/dx - phi_x d/dy.
        assert theta.gens[2].components == (P("3*y^2"), P("-2*x"))

    def test_one_var_has_no_hamiltonians(self):
        ctx1 = VarContext(("x",))
        theta = theta_trivial(parse_poly("x^2", ctx1))
        assert len(theta.gens) == 1
        assert theta.gens[0].components == (parse_poly("x^2", ctx1),)

    def test_generator_count_three_vars(self, ctx3):
        theta = theta_trivial(parse_poly("x^2 + y^2 + z^2", ctx3))
        assert len(theta.gens) == 3 + 3

    def test_every_generator_is_tangent(self, P):
        phi = P("x^3 - x*y^2")
        sb = standard_basis(Ideal(CTX2, [phi]))
        for xi in theta_trivial(phi).gens:
            assert mora_normal_form(df_pair(phi, xi), sb).is_zero()


class TestThetaFull:
    def test_contains_euler_field_for_cusp(self, P):
        phi = P("x^2 + y^3")
        theta = theta_full(phi)
        euler = VectorField((P("3*x"), P("2*y")))
        assert theta_contains(theta, [euler])

    def test_smooth_case_equals_expected_module(self, P):
        theta = theta_full(P("x"))
        expected = DerivationModule(
            gens=(
                VectorField((P("x"), P("0"))),
                VectorField((P("0"), P("1"))),
            ),
            flavor="full",
        )
        assert theta_contains(theta, expected.gens)
        assert theta_contains(expected, theta.gens)

    def test_trivial_module_always_contained(self, P):
        for src in ("x^2 + y^3", "x*y", "x^5 + y^5 + x^2*y^2"):
            phi = P(src)
            assert theta_contains(theta_full(phi), theta_trivial(phi).gens)

    def test_all_generators_tangent(self, P):
        phi = P("x^4 + y^5 + x^2*y^2")
        sb = standard_basis(Ideal(CTX2, [phi]))
        for xi in theta_full(phi).gens:
            assert mora_normal_form(df_pair(phi, xi), sb).is_zero()

    def test_a_row_that_is_not_tangent_is_caught(self, P, monkeypatch):
        # Double the first component of one syzygy row: it is then no
        # relation, and theta_full must refuse it before building a field.
        real = tangent_module._schreyer_rows

        def corrupted(vecs, ctx, rank, budget):
            rows = real(vecs, ctx, rank, budget)
            k = next(i for i, row in enumerate(rows) if row[0])
            doubled = (tuple((key, 2 * c) for key, c in rows[k][0]),) + rows[k][1:]
            return rows[:k] + [doubled] + rows[k + 1 :]

        monkeypatch.setattr(tangent_module, "_schreyer_rows", corrupted)
        with pytest.raises(InternalError):
            theta_full(P("x^2 + y^3"))


class TestDfIdeals:
    def test_cusp_with_linear_function(self, P):
        phi = P("x^2 + y^3")
        got = df_ideal(P("y"), theta_full(phi))
        assert ideals_equal(got, Ideal(CTX2, [P("x"), P("y")]))

    def test_free_module_gives_jacobian_ideal(self, P):
        f = P("x^3 - y^2")
        free = DerivationModule(
            gens=(
                VectorField((P("1"), P("0"))),
                VectorField((P("0"), P("1"))),
            ),
            flavor="full",
        )
        assert ideals_equal(df_ideal(f, free), Ideal(CTX2, jacobian_ideal(f)))

    def test_zero_function_gives_zero_ideal(self, P):
        theta = theta_full(P("x^2 + y^3"))
        assert df_ideal(P("0"), theta).gens == ()

    def test_trivial_ideal_closed_form_matches_pairing(self, P):
        for phi_src, f_src in (
            ("x^2 + y^3", "y"),
            ("x^3 - x*y^2", "2*x + y"),
            ("x^5 + y^5 + x^2*y^2", "x - y"),
        ):
            phi, f = P(phi_src), P(f_src)
            assert ideals_equal(
                df_trivial_ideal(f, phi), df_ideal(f, theta_trivial(phi))
            )

    def test_trivial_ideal_identity_on_whole_corpus(self):
        # The closed form (minors plus phi times the f-partials) and the
        # pairing against the trivial fields must generate the same ideal for
        # every shipped problem, checked by mutual membership both ways.
        from brs import parse_problem
        from conftest import corpus_paths

        for path in corpus_paths():
            parsed = parse_problem(path.read_text(encoding="utf-8"))
            phi, f = parsed.problem.phi, parsed.problem.f
            closed = df_trivial_ideal(f, phi)
            paired = df_ideal(f, theta_trivial(phi))
            assert ideals_equal(closed, paired), path.name

    def test_trivial_fields_contained_in_full_module_on_corpus_germs(self):
        from brs import parse_problem
        from conftest import corpus_paths

        seen = set()
        for path in corpus_paths():
            parsed = parse_problem(path.read_text(encoding="utf-8"))
            phi = parsed.problem.phi
            key = (parsed.problem.ctx.names, str(phi))
            if key in seen:
                continue
            seen.add(key)
            assert theta_contains(theta_full(phi), theta_trivial(phi).gens), path.name

    def test_trivial_ideal_cusp_value(self, P):
        # (2x) + phi*(Jf) for f = y reduces to (x, y^3): colength 3.
        got = df_trivial_ideal(P("y"), P("x^2 + y^3"))
        assert colength(got) == 3

    def test_one_var_trivial_ideal(self):
        ctx1 = VarContext(("x",))
        f = parse_poly("x^2", ctx1)
        phi = parse_poly("x^3", ctx1)
        got = df_trivial_ideal(f, phi)
        assert ideals_equal(got, Ideal(ctx1, [parse_poly("2*x^4", ctx1)]))

    def test_repeated_function_gives_phi_jacobian_product(self, P):
        phi = P("x^2 + y^3")
        got = df_trivial_ideal(phi, phi)
        expected = Ideal(CTX2, [phi * g for g in jacobian_ideal(phi)])
        assert ideals_equal(got, expected)


class TestSuspend:
    def test_construction_gains_unit_field(self, P, ctx3):
        prob = HypersurfaceProblem(ctx=CTX2, phi=P("x^2 + y^3"), f=P("y"))
        zctx = VarContext(("z",))
        big, theta = suspend(prob, parse_poly("z^2", zctx))
        assert big.ctx.names == ("x", "y", "z")
        assert str(big.f) == "y + z^2"
        unit = theta.gens[-1]
        assert unit.components[2] == parse_poly("1", big.ctx)
        d = df_ideal(big.f, theta)
        assert membership(parse_poly("2*z", big.ctx), d)

    def test_milnor_number_multiplies(self, P):
        # mu(x^2 + y^3 + z^2) = mu(x^2 + y^3) * mu(z^2) = 2.
        ctx3 = VarContext(("x", "y", "z"))
        F = parse_poly("x^2 + y^3 + z^2", ctx3)
        assert milnor(F) == 2

    def test_zero_variable_suspension_is_identity(self, P):
        prob = HypersurfaceProblem(ctx=CTX2, phi=P("x^2 + y^3"), f=P("y"))
        same, theta = suspend(prob, None)
        assert same is prob
        assert theta.flavor == "full"

    def test_name_clash_rejected(self, P):
        prob = HypersurfaceProblem(ctx=CTX2, phi=P("x^2 + y^3"), f=P("y"))
        with pytest.raises(ContextError):
            suspend(prob, parse_poly("y^2", VarContext(("y",))))

    def test_suspended_module_matches_recomputed_invariants(self, P):
        # df of the suspended module must generate the same ideal as df of
        # the tangent module recomputed from scratch in the larger ring.
        prob = HypersurfaceProblem(ctx=CTX2, phi=P("x^2 + y^3"), f=P("y"))
        big, theta = suspend(prob, parse_poly("z^2", VarContext(("z",))))
        direct = df_ideal(big.f, theta_full(big.phi))
        via_suspension = df_ideal(big.f, theta)
        assert colength(direct) == colength(via_suspension)
        assert ideals_equal(direct, via_suspension)


class TestProblemValidation:
    def test_germ_conditions(self, P):
        with pytest.raises(GermError):
            HypersurfaceProblem(ctx=CTX2, phi=P("x + 1"), f=P("y"))
        with pytest.raises(GermError):
            HypersurfaceProblem(ctx=CTX2, phi=P("x"), f=P("1 - y"))
        with pytest.raises(GermError):
            HypersurfaceProblem(ctx=CTX2, phi=P("0"), f=P("y"))
