from __future__ import annotations

import signal
import sys
from contextlib import contextmanager
from math import gcd
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Iterator, Sequence

import pytest

from brs import (
    NOT_FINITE,
    ContextError,
    GermError,
    HypersurfaceProblem,
    Polynomial,
    VarContext,
    parse_poly,
)
from brs.oracle import (
    DEFAULT_CAP,
    Column,
    JetModel,
    _Echelon,
    _generators,
    _shifted,
    _span,
    _Table,
    _table,
)
from brs.polycore import Monomial, VectorField, dot, require_same_ctx
from brs.stdbasis import (
    DEFAULT_BUDGET,
    Ideal,
    NotFiniteType,
    StandardBasis,
    Submodule,
    _as_vecs,
    _standard_exponents,
    _syzygies_of,
    membership,
    standard_basis,
)
from brs.tangent import DerivationModule, theta_full

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"

# Each test gets this many seconds of wall time: a stall fails its test
# instead of hanging the suite.  The slowest test takes about 14 s.
TEST_DEADLINE_S = 120.0

# Verdict lines queued by the acceptance tests; shown after the test run so
# they survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@contextmanager
def deadline(name: str, seconds: float):
    """Fail `name`, a test or fixture, when the block runs past `seconds` of wall time.

    The real-time interval timer raises pytest's failure, a BaseException
    that no `except Exception` in the code under test swallows.  A deadline
    armed on entry is put back on exit, less the time spent in the block.
    Where there is no SIGALRM the block runs without a deadline.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{name} ran past its deadline of {seconds:g} s", pytrace=False)

    handler = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(outer - (perf_counter() - start), 1e-3))


@pytest.fixture(autouse=True)
def per_test_deadline(request):
    """Every test runs under `deadline`."""
    with deadline(request.node.nodeid, TEST_DEADLINE_S):
        yield


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
    return _span(I.ctx, _generators(I.gens), d)


def every_shift_model(I: Ideal, d: int) -> JetModel:
    """The jet model of I + maximal ideal^d from every monomial shift of the generators.

    No shift is skipped: this is the plain insertion loop, the reference for
    the engine's `_span`, which skips the shifts that would reduce to zero.
    """
    model = JetModel(I.ctx, _table(I.ctx.n), d, _Echelon())
    table, ech = model.table, model.ech
    for lead_deg, terms in _generators(I.gens):
        if not terms or lead_deg >= d:
            continue
        for i in range(table.starts[d - lead_deg]):
            ech.insert(_shifted(terms, table.packed[i], d - table.degree[i], table.row))
    return model


def reference_reduce(pivots: dict[int, Column], col: Column) -> Column:
    """The residual of `col` against `pivots`, as `_Echelon.reduce` computes it.

    The reference for the engine's single elimination pass: it takes the
    lowest row of the column at every step and returns the residual alone.
    """
    while col:
        r = min(col)
        piv = pivots.get(r)
        if piv is None:
            return col
        a, b = piv[r], col[r]
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            for k in col:
                col[k] *= a
        for k, v in piv.items():
            nv = col.get(k, 0) - b * v
            if nv:
                col[k] = nv
            else:
                del col[k]
        if a != 1 and col:
            g = gcd(*col.values())
            if g != 1:
                col = {k: v // g for k, v in col.items()}
    return col


def reference_insert(pivots: dict[int, Column], col: Column) -> bool:
    """Insert `col` into `pivots` in two passes: reduce, then find the pivot row again.

    The residual is stored as a fresh primitive copy with a positive pivot
    entry: the reference for `_Echelon.insert`.
    """
    residual = reference_reduce(pivots, col)
    if not residual:
        return False
    r = min(residual)
    g = gcd(*residual.values())
    if residual[r] < 0:
        g = -g
    pivots[r] = {k: v // g for k, v in residual.items()}
    return True


def jet_contains(I: Ideal, p: Polynomial, d: int) -> bool:
    """Membership of p in I at jet level d, i.e. in I + maximal ideal^d.

    A true answer at a level beyond the largest standard monomial degree of
    a zero-dimensional I certifies real membership.
    """
    return jet_model_at(I, d).contains(p)


def jet_quotient_dim(I: Ideal, d: int) -> int:
    """Exact dimension of the quotient by (I + maximal ideal^d)."""
    return jet_model_at(I, d).colength


def leading_monomials(basis: StandardBasis) -> tuple[Monomial, ...]:
    """The leading monomials of a rank-1 basis, in its order."""
    if basis.rank != 1:
        raise ContextError("leading monomials view requires a rank-1 basis")
    return tuple(m for _, m in basis.leading)


def standard_monomials(basis: StandardBasis) -> list[Monomial] | NotFiniteType:
    """Monomials outside the leading ideal of an ideal's basis; a basis of the quotient."""
    exps = _standard_exponents(leading_monomials(basis), basis.ctx.n)
    return NOT_FINITE if exps is None else [Monomial(e) for e in exps]


def syzygies(obj: Ideal | Submodule, *, budget: int = DEFAULT_BUDGET) -> Submodule:
    """Generators of the relation module of the given generators (Schreyer's method)."""
    ctx, rank, vecs = _as_vecs(obj)
    return _syzygies_of(vecs, ctx, rank, budget)


def double_one_schreyer_row(monkeypatch) -> None:
    """Make each Schreyer run collect one row that is no relation.

    The first collected row with a nonzero first component has that
    component doubled, below `_schreyer_rows`, which must refuse it.
    """
    import brs.stdbasis as stdbasis_module

    real = stdbasis_module._kept_entries

    def corrupted(inputs, ctx, rank, budget, **run):
        entries = real(inputs, ctx, rank, budget, **run)
        rows = run.get("collect")
        if rows:
            k = next(i for i, row in enumerate(rows) if row[0])
            rows[k] = (tuple((key, 2 * c) for key, c in rows[k][0]),) + rows[k][1:]
        return entries

    monkeypatch.setattr(stdbasis_module, "_kept_entries", corrupted)


def monomial_index(table: _Table, cap: int) -> dict[tuple[int, ...], int]:
    """The row of each monomial of degree below `cap`, by exponents."""
    return {exps: row for row, exps in enumerate(table.exps[: table.size(cap)])}


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """Pairwise products of generators."""
    require_same_ctx(I.ctx, J.ctx)
    return Ideal(I.ctx, [a * b for a in I.gens for b in J.gens])


def ideal_contains(I: Ideal, J: Ideal, *, budget: int = DEFAULT_BUDGET) -> bool:
    """True when every generator of J lies in I."""
    sb_i = standard_basis(I, budget=budget)
    return all(membership(g, sb_i) for g in J.gens)


def ideals_equal(I: Ideal, J: Ideal, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Equality as ideals by mutual membership against standard bases."""
    return ideal_contains(I, J, budget=budget) and ideal_contains(J, I, budget=budget)


def df_pair(f: Polynomial, xi: VectorField) -> Polynomial:
    """The pairing df(xi) = sum_i xi_i * (df/dx_i)."""
    return dot(f.ctx, xi.components, [f.partial(i) for i in range(f.ctx.n)])


def theta_trivial(phi: Polynomial) -> DerivationModule:
    """Trivial tangent fields: phi*d/dx_i, then Hamiltonians by (j, k).

    Exactly n + n*(n-1)/2 generators; for one variable the Hamiltonian list
    is empty and only phi*d/dx remains.  The reference for
    `df_trivial_ideal`, which gives their df images in closed form.
    """
    if phi.is_zero() or phi.constant_term() != 0:
        raise GermError("phi must be a nonzero germ vanishing at 0")
    ctx = phi.ctx
    n = ctx.n
    zero = Polynomial.zero(ctx)
    gens: list[VectorField] = []
    for i in range(n):
        comps = [zero] * n
        comps[i] = phi
        gens.append(VectorField(tuple(comps)))
    partials = [phi.partial(i) for i in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            comps = [zero] * n
            comps[j] = partials[k]
            comps[k] = -partials[j]
            gens.append(VectorField(tuple(comps)))
    cofactors = partials + [zero] * (len(gens) - n)
    return DerivationModule(gens=tuple(gens), cofactors=tuple(cofactors))


def as_submodule(theta: DerivationModule) -> Submodule:
    """The fields of a derivation module as a submodule of R^n."""
    ctx = theta.gens[0].ctx
    return Submodule(ctx, ctx.n, [xi.components for xi in theta.gens])


def theta_contains(
    theta: DerivationModule,
    fields: Sequence[VectorField],
    *,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Module membership of each field in the generated tangent module."""
    basis = standard_basis(as_submodule(theta), budget=budget)
    return all(membership(xi.components, basis) for xi in fields)


def suspend(
    problem: HypersurfaceProblem,
    g: Polynomial | None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[HypersurfaceProblem, DerivationModule]:
    """Suspend the problem by a germ g in fresh variables.

    The new problem keeps phi (same equation, larger ring) and replaces f by
    f + g; the tangent module of the suspended hypersurface is generated by
    the zero-extended old generators plus the unit fields along the new
    variables.  With g = None the problem is returned unchanged together
    with its own full tangent module.
    """
    if g is None:
        return problem, theta_full(problem.phi, budget=budget)
    if g.constant_term() != 0:
        raise GermError("invalid germ: g(0) != 0")
    old = problem.ctx
    fresh = g.ctx
    if set(old.names) & set(fresh.names):
        raise ContextError(
            f"suspension variables {fresh.names} clash with {old.names}"
        )
    big = VarContext(old.names + fresh.names)
    phi_big = problem.phi.embed(big)
    f_big = problem.f.embed(big) + g.embed(big)
    base = theta_full(problem.phi, budget=budget)
    zero = Polynomial.zero(big)
    gens: list[VectorField] = []
    for xi in base.gens:
        comps = [c.embed(big) for c in xi.components] + [zero] * fresh.n
        gens.append(VectorField(tuple(comps)))
    one = Polynomial.constant(big, 1)
    for j in range(fresh.n):
        comps = [zero] * big.n
        comps[old.n + j] = one
        gens.append(VectorField(tuple(comps)))
    cofactors = [a.embed(big) for a in base.cofactors] + [zero] * fresh.n
    new_problem = HypersurfaceProblem(ctx=big, phi=phi_big, f=f_big)
    return new_problem, DerivationModule(gens=tuple(gens), cofactors=tuple(cofactors))


def patch_everywhere(monkeypatch, module, name: str, replacement) -> None:
    """Replace `module.name` in every `brs` module that binds it.

    A module that imports a name by `from ... import` calls its own binding,
    so a patch on one binding misses the others, and a patch on a module
    that no longer binds the name raises here instead of reaching nothing.
    """
    real = getattr(module, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "brs" and vars(mod).get(name) is real:
            monkeypatch.setattr(mod, name, replacement)


@pytest.fixture
def recorder(monkeypatch) -> Iterator[SimpleNamespace]:
    """What the engines do from now on, recorded as it happens.

    `walks`: (ideal, cap) of each `oracle.jet_model` call, from any module;
    `counted`: those of them that a count (`Ideal.count`) makes of its own
    ideal; `spans`: (ideal, cap) of each echelon `oracle._span` builds, the ideal
    being the one the innermost `jet_model` call walks (None outside one);
    `uncapped`: the inputs of each uncapped, untracked Mora run
    (`stdbasis._kept_entries`), as printed; `capped`: the inputs, as
    printed, and the cap of each degree-capped Mora run that starts from no
    basis; `continued`: the same of each capped run that continues the kept
    entries of another (`Ideal.mora`).  Each name is
    patched in every module that binds it (`patch_everywhere`), and the
    test fails if the recorder saw no walk and no Mora run.
    """
    import brs.oracle as oracle_module
    import brs.stdbasis as stdbasis_module

    rec = SimpleNamespace(walks=[], counted=[], spans=[], uncapped=[], capped=[], continued=[])
    walking: list = []
    counting: list = []
    real_walk, real_span = oracle_module.jet_model, oracle_module._span
    real_run, real_count = stdbasis_module._kept_entries, Ideal.count

    def walk(I, cap=DEFAULT_CAP, *args):
        rec.walks.append((I, cap))
        if counting and counting[-1] is I:
            rec.counted.append((I, cap))
        walking.append(I)
        try:
            return real_walk(I, cap, *args)
        finally:
            walking.pop()

    def count(I, *args, **kwargs):
        counting.append(I)
        try:
            return real_count(I, *args, **kwargs)
        finally:
            counting.pop()

    def span(ctx, gens, cap):
        rec.spans.append((walking[-1] if walking else None, cap))
        return real_span(ctx, gens, cap)

    def run(inputs, ctx, rank, budget, collect=None, cap=None, **kwargs):
        printed = tuple(str(p) for v in inputs for p in v)
        if kwargs.get("start") is not None:
            rec.continued.append((printed, cap))
        elif cap is not None:
            rec.capped.append((printed, cap))
        elif collect is None:
            rec.uncapped.append(printed)
        return real_run(inputs, ctx, rank, budget, collect=collect, cap=cap, **kwargs)

    patch_everywhere(monkeypatch, oracle_module, "jet_model", walk)
    patch_everywhere(monkeypatch, oracle_module, "_span", span)
    monkeypatch.setattr(Ideal, "count", count)
    patch_everywhere(monkeypatch, stdbasis_module, "_kept_entries", run)
    yield rec
    assert rec.walks or rec.uncapped or rec.capped or rec.continued, (
        "the recorder saw no walk and no Mora run"
    )


def corpus_paths(prefix: str | None = None) -> list[Path]:
    paths = sorted(CORPUS_DIR.glob("*.brs"))
    if prefix is None:
        return paths
    return [p for p in paths if p.name.startswith(prefix)]


@pytest.fixture(scope="session")
def corpus_reports():
    """Every corpus problem analyzed once; reused by the slower suites.

    Session fixtures are set up before the per-test deadline is armed, so
    this one runs under a deadline of its own.
    """
    from brs import analyze, parse_problem

    reports = {}
    with deadline("the corpus_reports fixture", TEST_DEADLINE_S):
        for path in corpus_paths():
            parsed = parse_problem(path.read_text(encoding="utf-8"))
            reports[path.name] = analyze(parsed.problem, path=str(path))
    return reports
