"""Golden standard bases: the exact output of the Mora kernel.

Pins the exponents, integer coefficients and order of

* the standard basis of every Mora run that `analyze(..., oracle=True)`
  makes on `corpus/*.brs`, Schreyer runs aside: the capped runs at a jet
  level N, on I + m^(N+1) (the `--oracle` cross-check's counts, and each
  proposal that Mora proves), and the uncapped runs (jet level None);
* the generators of `theta_full(phi)` for each corpus `phi`;
* the `syzygies` of each ideal of `COLON_CASES` and `INTERSECTION_CASES`.

A change to the kernel's arithmetic must reproduce them exactly.  Two pinned
runs are kernel-only (`KERNEL_ONLY`): `analyze` no longer makes them, and
the recorder makes them on their own.  Regenerate (only when a change of
results is intended) with

    PYTHONPATH=src python tests/test_golden_bases.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from brs import Polynomial, VarContext, parse_poly, parse_problem
from brs.polycore import Monomial
from brs.stdbasis import DEFAULT_BUDGET, Ideal, _complete, _finished, _kept_entries, _vector
from brs.tangent import theta_full
from conftest import syzygies

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden_bases.json"

# Pinned runs that no `analyze` run makes, by file and input as printed: the
# uncapped run on df_T + (phi) = (phi*f_x, phi*f_y, phi), f = phi, of each
# `degen_*` file.  `analyze` counts that ideal on the generators (phi,
# minors) instead (`trivial_rel` shares the `legreuel` count), so these pin
# the kernel's arithmetic on an ideal of infinite colength, not a run of the
# program; the recorder runs them on their own and appends them.
KERNEL_ONLY = {
    "degen_a2_self.brs": ("2*x^3 + 2*x*y^3", "3*x^2*y^2 + 3*y^5", "x^2 + y^3"),
    "degen_t55_self.brs": (
        "2*x^3*y^4 + 2*x*y^7 + 7*x^6*y^2 + 5*x^4*y^5 + 5*x^9",
        "2*x^4*y^3 + 7*x^2*y^6 + 2*x^7*y + 5*y^9 + 5*x^5*y^4",
        "x^2*y^2 + y^5 + x^5",
    ),
}


def _poly_out(p: Polynomial) -> list:
    return [[list(m.exponents), c.numerator if c.denominator == 1 else str(c)] for m, c in p.terms]


def _vecs_out(vecs) -> list:
    return [[_poly_out(p) for p in v] for v in vecs]


def _poly_in(ctx: VarContext, terms: list) -> Polynomial:
    return Polynomial(ctx, [(Monomial(e), Fraction(c)) for e, c in terms])


def _case_ideals() -> dict[str, Ideal]:
    from test_stdbasis import COLON_CASES, INTERSECTION_CASES, case_ideals

    out = {}
    for table in (COLON_CASES, INTERSECTION_CASES):
        for name, case in table.items():
            for side, ideal in zip("IJ", case_ideals(case)):
                out[f"{name}.{side}"] = ideal
    return out


def _corpus_phis() -> dict[str, Polynomial]:
    phis = {}
    for path in sorted(CORPUS_DIR.glob("*.brs")):
        phi = parse_problem(path.read_text(encoding="utf-8")).problem.phi
        phis.setdefault(f"{phi.ctx.names}: {phi}", phi)
    return phis


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _basis_out(ctx: VarContext, entries) -> list:
    return _vecs_out(_vector(ctx, e.vec) for e in entries)


def _rerun(run: dict) -> list:
    """The basis of a pinned run, completed again: capped at its jet level + 1, if any."""
    ctx = VarContext(run["vars"])
    vecs = [tuple(_poly_in(ctx, p) for p in v) for v in run["input"]]
    cap = None if run["jet_level"] is None else run["jet_level"] + 1
    return _basis_out(ctx, _complete(vecs, ctx, run["rank"], DEFAULT_BUDGET, cap=cap))


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS_DIR.glob("*.brs")))
def test_analyze_bases_match_golden(name):
    runs = _golden()["analyze"][name]
    for run in runs:
        assert _rerun(run) == run["elements"], run["input"]


def _printed(run: dict) -> tuple[str, ...]:
    ctx = VarContext(run["vars"])
    return tuple(str(_poly_in(ctx, p)) for v in run["input"] for p in v)


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS_DIR.glob("*.brs")))
def test_every_analyze_run_is_pinned(name):
    # The runs `analyze` makes are exactly the pinned runs, the kernel-only one aside.
    pinned = _golden()["analyze"][name]
    kernel_only = [
        r for r in pinned if r["jet_level"] is None and _printed(r) == KERNEL_ONLY.get(name)
    ]
    assert len(kernel_only) == (name in KERNEL_ONLY)
    runs = _record_analyze(CORPUS_DIR / name)
    assert runs
    for run in runs:
        assert run in pinned and run not in kernel_only, run["input"]
    assert len(runs) == len(pinned) - len(kernel_only)


def test_theta_full_matches_golden():
    golden = _golden()["theta_full"]
    phis = _corpus_phis()
    assert sorted(phis) == sorted(golden)
    for key, phi in phis.items():
        assert _vecs_out(xi.components for xi in theta_full(phi).gens) == golden[key], key


def test_syzygies_match_golden():
    golden = _golden()["syzygies"]
    ideals = _case_ideals()
    assert sorted(ideals) == sorted(golden)
    for key, ideal in ideals.items():
        assert _vecs_out(syzygies(ideal).gens) == golden[key], key


def test_golden_covers_the_corpus():
    names = sorted(p.name for p in CORPUS_DIR.glob("*.brs"))
    assert sorted(_golden()["analyze"]) == names


def _record_analyze(path: Path) -> list[dict]:
    """Every distinct Mora run of one `analyze(..., oracle=True)`, Schreyer runs aside.

    Each run passes through `_kept_entries`; its basis is what `_complete`
    makes of the entries it keeps.
    """
    import brs.stdbasis as stdbasis
    from brs import analyze

    original = stdbasis._kept_entries
    runs: list[dict] = []

    def recording(inputs, ctx, rank, budget, **kwargs):
        kept = original(inputs, ctx, rank, budget, **kwargs)
        if kwargs.get("collect") is None:
            run = _run_out(inputs, ctx, rank, kwargs.get("cap"), kept)
            if run not in runs:
                runs.append(run)
        return kept

    parsed = parse_problem(path.read_text(encoding="utf-8"))
    stdbasis._kept_entries = recording
    try:
        analyze(parsed.problem, oracle=True, max_jet=parsed.max_jet)
    finally:
        stdbasis._kept_entries = original
    return runs


def _run_out(inputs, ctx: VarContext, rank: int, cap: int | None, kept) -> dict:
    """One pinned run: its inputs, jet level and basis, from the entries it kept."""
    return {
        "vars": list(ctx.names),
        "kind": "Ideal" if rank == 1 else "Submodule",
        "rank": rank,
        "input": [[[[list(m.exponents), str(c)] for m, c in p.terms] for p in v] for v in inputs],
        "jet_level": None if cap is None else cap - 1,
        "elements": _basis_out(ctx, _finished(kept, ctx.n, cap)),
    }


def _kernel_only_run(name: str) -> dict:
    """The `KERNEL_ONLY` run of one corpus file, made again."""
    ctx = parse_problem((CORPUS_DIR / name).read_text(encoding="utf-8")).problem.ctx
    inputs = [(parse_poly(s, ctx),) for s in KERNEL_ONLY[name]]
    return _run_out(inputs, ctx, 1, None, _kept_entries(inputs, ctx, 1, DEFAULT_BUDGET))


def _record_table() -> dict:
    """The golden table as the program makes it now, kernel-only runs appended."""
    return {
        "analyze": {
            p.name: _record_analyze(p) + ([_kernel_only_run(p.name)] if p.name in KERNEL_ONLY else [])
            for p in sorted(CORPUS_DIR.glob("*.brs"))
        },
        "theta_full": {
            key: _vecs_out(xi.components for xi in theta_full(phi).gens)
            for key, phi in _corpus_phis().items()
        },
        "syzygies": {key: _vecs_out(syzygies(I).gens) for key, I in _case_ideals().items()},
    }


def test_recorder_reproduces_the_golden_file():
    # A regeneration changes nothing, the kernel-only runs included; only
    # the order of a file's runs is set aside.
    def unordered(table: dict) -> dict:
        runs = {name: sorted(map(json.dumps, got)) for name, got in table["analyze"].items()}
        return {**table, "analyze": runs}

    assert unordered(json.loads(json.dumps(_record_table()))) == unordered(_golden())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record_table()) + "\n", encoding="utf-8")
