import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brs import (
    GermError,
    ParseError,
    Polynomial,
    parse_poly,
    parse_problem,
)
from brs.parsing import Token, _tokenize
from strategies import polynomials


class TestParsePoly:
    def test_simple_sum(self, P):
        assert P("x^2 + y^3") == P("y^3") + P("x") * P("x")

    def test_example_germ(self, ctx3):
        got = parse_poly("x*y - z^4", ctx3)
        x, y, z = (ctx3.variable(i) for i in range(3))
        assert got == x * y - z ** 4

    def test_truncated_input_points_at_column_5(self, ctx2):
        with pytest.raises(ParseError) as err:
            parse_poly("x + ", ctx2)
        assert err.value.column == 5
        assert err.value.line == 1

    def test_rational_coefficients(self, P):
        assert P("1/2*x + 3") == P("x").scale(Fraction(1, 2)) + 3

    def test_zero_denominator(self, ctx2):
        with pytest.raises(ParseError):
            parse_poly("1/0", ctx2)

    def test_unknown_variable(self, ctx2):
        with pytest.raises(ParseError):
            parse_poly("x + t", ctx2)

    def test_implicit_multiplication_rejected(self, ctx2):
        with pytest.raises(ParseError):
            parse_poly("2 x", ctx2)
        with pytest.raises(ParseError):
            parse_poly("x y", ctx2)

    def test_slash_only_between_integers(self, ctx2):
        with pytest.raises(ParseError):
            parse_poly("x/2", ctx2)

    def test_precedence(self, P):
        assert P("-x^2") == -(P("x") ** 2)
        assert P("2*x^3 + 1") == P("x") ** 3 * 2 + 1
        assert P("(x + y)^2") == (P("x") + P("y")) ** 2

    def test_unary_minus_nested(self, P):
        assert P("x * -y") == -(P("x") * P("y"))

    @pytest.mark.parametrize("space", ["\u00a0", "\x0b"])
    def test_any_whitespace_takes_one_column(self, space, ctx2):
        with pytest.raises(ParseError) as err:
            parse_poly(f"x +{space}?", ctx2)
        assert (err.value.message, err.value.line, err.value.column) == ("unexpected character '?'", 1, 5)

    @pytest.mark.parametrize("src, bad", [("x^\u00b2", "\u00b2"), ("2*\u0663 + y", "\u0663")])
    def test_non_ascii_digits_are_rejected_at_their_column(self, src, bad, ctx2):
        # str.isdigit() holds for both, and int() reads the Arabic-Indic three.
        with pytest.raises(ParseError) as err:
            parse_poly(src, ctx2)
        assert (err.value.message, err.value.column) == (f"unexpected character {bad!r}", 3)

    def test_a_newline_starts_the_next_line_at_column_1(self, ctx2):
        got = _tokenize("x\n  y\n", 3, 7)
        assert got == [
            Token("NAME", "x", 3, 7), Token("NAME", "y", 4, 3), Token("END", "", 5, 1)
        ]
        with pytest.raises(ParseError) as err:
            parse_poly("x +\n", ctx2)
        assert (err.value.message, err.value.line, err.value.column) == (
            "unexpected end of input", 2, 1
        )

    @settings(max_examples=100)
    @given(p=polynomials(max_terms=5, max_exp=4))
    def test_print_parse_roundtrip(self, p):
        assert parse_poly(str(p), p.ctx) == p

    @settings(max_examples=100)
    @given(src=st.text(max_size=40))
    def test_fuzz_never_crashes(self, src, ctx2):
        try:
            result = parse_poly(src, ctx2)
        except ParseError:
            return
        assert isinstance(result, Polynomial)


GOOD_FILE = """
vars = x, y
phi  = x^2 + y^3
f    = y
oracle = on            # optional
max_jet = 24
format = json
"""


class TestParseProblem:
    def test_valid_file(self):
        parsed = parse_problem(GOOD_FILE)
        assert parsed.problem.ctx.names == ("x", "y")
        assert parsed.oracle is True
        assert parsed.max_jet == 24
        assert parsed.fmt == "json"
        assert str(parsed.problem.phi) == "x^2 + y^3"

    def test_defaults(self):
        parsed = parse_problem("vars=x,y\nphi=x^2+y^3\nf=y\n")
        assert (parsed.oracle, parsed.max_jet, parsed.fmt) == (False, 32, "text")

    def test_constant_term_is_invalid_germ(self):
        with pytest.raises(GermError):
            parse_problem("vars=x,y\nphi=x^2+1\nf=y\n")
        with pytest.raises(GermError):
            parse_problem("vars=x,y\nphi=x^2\nf=y+2\n")

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ParseError):
            parse_problem("vars=x,x\nphi=x^2\nf=x\n")

    def test_missing_field(self):
        with pytest.raises(ParseError) as err:
            parse_problem("vars=x,y\nphi=x^2\n")
        assert "missing field" in str(err.value)

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_problem("vars=x,y\nphi=x^2\nf=y\nmode=fast\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_problem("vars=x,y\nphi=x^2\nphi=y^2\nf=y\n")

    def test_zero_phi_rejected(self):
        with pytest.raises(GermError):
            parse_problem("vars=x,y\nphi=x - x\nf=y\n")

    def test_errors_name_the_line_of_their_key(self):
        # An expression error also gives the column within that line.
        cases = [
            ("vars = x, y\nphi = x^2 + y^3\nf = y +\n", 3, 8),
            ("vars = x, y\nphi = x^2 + y^3\n\n  f=y*?\n", 4, 7),
            ("# a cusp\nvars = x, y\nphi = x^2 + y^3 +) # comment\nf = y\n", 3, 18),
            ("vars = x, y\nphi = x^2\nf = y\noracle = on\n\nformat = yaml\n", 6, 10),
            ("vars = x, y\nphi = x^2\nf = y\n  max_jet = 2\n", 4, 13),
            ("vars = x, y\nphi = x^2\nf = y\nmax_jet = two\n", 4, 11),
            ("vars = x, y\nphi = x^2\nf = y\noracle = yes\n", 4, 10),
            ("phi = x^2\nf = y\nvars = x, x\n", 3, 8),
            ("phi = x^2\nf = y\nvars = x, 2y\n", 3, 8),
            ("phi = x^2\nf = y\nvars = x,,y\n", 3, 8),
        ]
        for src, line, column in cases:
            with pytest.raises(ParseError) as err:
                parse_problem(src)
            assert (err.value.line, err.value.column) == (line, column), src

    @pytest.mark.parametrize("names, bad", [("x, \u00b2", "\u00b2"), ("\u00e9", "\u00e9")])
    def test_names_are_ascii(self, names, bad):
        with pytest.raises(ParseError) as err:
            parse_problem(f"phi = x^2\nf = x\nvars = {names}\n")
        assert (err.value.message, err.value.line, err.value.column) == (
            f"invalid variable name {bad!r}", 3, 8
        )

    def test_germ_conditions_in_file_order(self):
        # HypersurfaceProblem checks zero phi, then phi(0), then f(0).
        for src, message in [
            ("vars=x,y\nphi=x - x\nf=1\n", "phi must be nonzero"),
            ("vars=x,y\nphi=x + 1\nf=1\n", "invalid germ: phi(0) != 0"),
            ("vars=x,y\nphi=x\nf=y + 1\n", "invalid germ: f(0) != 0"),
        ]:
            with pytest.raises(GermError, match=re.escape(message)):
                parse_problem(src)

    def test_bad_option_values(self):
        with pytest.raises(ParseError):
            parse_problem("vars=x,y\nphi=x^2\nf=y\noracle=maybe\n")
        with pytest.raises(ParseError):
            parse_problem("vars=x,y\nphi=x^2\nf=y\nmax_jet=two\n")
        with pytest.raises(ParseError):
            parse_problem("vars=x,y\nphi=x^2\nf=y\nformat=xml\n")


class TestErrorPaths:
    # Each message is raised with the line of its key and, inside an
    # expression, the column of the offending token.
    @pytest.mark.parametrize(
        "phi, message, column",
        [
            ("x^y", "expected a non-negative integer exponent", 9),
            ("x^-2", "expected a non-negative integer exponent", 9),
            ("x^5000", "exponent 5000 exceeds the cap of 4096", 9),
            ("x^2 + 1/y", "expected an integer denominator", 15),
            ("(x^2 + y^3", "expected ')'", 17),
        ],
    )
    def test_expression_errors(self, phi, message, column):
        with pytest.raises(ParseError) as err:
            parse_problem(f"vars = x, y\nphi = {phi}\nf = y\n")
        assert (err.value.message, err.value.line, err.value.column) == (message, 2, column)
        assert str(err.value) == f"syntax error at line 2, column {column}: {message}"

    @pytest.mark.parametrize(
        "line, message",
        [("phi x^2", "expected key = value"), ("phi =   # none", "empty value for 'phi'")],
    )
    def test_line_errors(self, line, message):
        with pytest.raises(ParseError) as err:
            parse_problem(f"vars = x, y\n{line}\nf = y\n")
        assert (err.value.message, err.value.line, err.value.column) == (message, 2, 1)
