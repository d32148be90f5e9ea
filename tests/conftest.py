from __future__ import annotations

from pathlib import Path

import pytest

from brs import (
    NOT_FINITE,
    Ideal,
    JetTruncation,
    Monomial,
    NotFiniteType,
    Polynomial,
    StandardBasis,
    VarContext,
    parse_poly,
)
from brs.oracle import JetModel, _Echelon, _generators, _shifted, _span
from brs.stdbasis import _basis_standard_exponents

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"

# Verdict lines queued by the acceptance tests; shown after the test run so
# they survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ctx2() -> VarContext:
    return VarContext(("x", "y"))


@pytest.fixture(scope="session")
def ctx3() -> VarContext:
    return VarContext(("x", "y", "z"))


@pytest.fixture(scope="session")
def P(ctx2):
    """Shorthand parser over (x, y)."""

    def parse(src: str, ctx=None):
        return parse_poly(src, ctx or ctx2)

    return parse


def jet_model_at(I: Ideal, d: int):
    """The jet model of I + maximal ideal^d, from every monomial shift of the generators."""
    return _span(I.ctx, _generators(I.gens), JetTruncation.build(I.ctx.n, d))


def every_shift_model(I: Ideal, d: int) -> JetModel:
    """The jet model of I + maximal ideal^d from every monomial shift of the generators.

    No shift is skipped: this is the plain insertion loop, the reference for
    the engine's `_span`, which skips the shifts that would reduce to zero.
    """
    jt = JetTruncation.build(I.ctx.n, d)
    table, ech = jt.table, _Echelon()
    for lead_deg, terms in _generators(I.gens):
        if not terms or lead_deg >= d:
            continue
        for i in range(table.starts[d - lead_deg]):
            ech.insert(_shifted(terms, table.packed[i], d - table.degree[i], table.row))
    return JetModel(I.ctx, jt, ech)


def jet_contains(I: Ideal, p: Polynomial, d: int) -> bool:
    """Membership of p in I at jet level d, i.e. in I + maximal ideal^d.

    A true answer at a level beyond the largest standard monomial degree of
    a zero-dimensional I certifies real membership.
    """
    return jet_model_at(I, d).contains(p)


def jet_quotient_dim(I: Ideal, d: int) -> int:
    """Exact dimension of the quotient by (I + maximal ideal^d)."""
    return jet_model_at(I, d).colength


def standard_monomials(basis: StandardBasis) -> list[Monomial] | NotFiniteType:
    """Monomials outside the leading ideal of an ideal's basis; a basis of the quotient."""
    exps = _basis_standard_exponents(basis)
    return NOT_FINITE if exps is None else [Monomial(e) for e in exps]


def monomial_index(jt: JetTruncation) -> dict[tuple[int, ...], int]:
    """The row of each monomial of a truncation, by exponents."""
    return {exps: row for row, exps in enumerate(jt.table.exps[: jt.size])}


def corpus_paths(prefix: str | None = None) -> list[Path]:
    paths = sorted(CORPUS_DIR.glob("*.brs"))
    if prefix is None:
        return paths
    return [p for p in paths if p.name.startswith(prefix)]


@pytest.fixture(scope="session")
def corpus_reports():
    """Every corpus problem analyzed once; reused by the slower suites."""
    from brs import analyze, parse_problem

    reports = {}
    for path in corpus_paths():
        parsed = parse_problem(path.read_text(encoding="utf-8"))
        reports[path.name] = analyze(parsed.problem, path=str(path))
    return reports
