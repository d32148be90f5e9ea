"""Golden standard bases: the exact output of the Mora kernel.

Pins the exponents, integer coefficients and order of

* every standard basis that `analyze(..., oracle=True)` builds on
  `corpus/*.brs`, with the jet level it was given: the `--oracle`
  cross-check's runs capped at each jet route's level, the others uncapped;
* the generators of `theta_full(phi)` for each corpus `phi`;
* the `syzygies` of each ideal of `COLON_CASES` and `INTERSECTION_CASES`.

A change to the kernel's arithmetic must reproduce them exactly.
Regenerate (only when a change of results is intended) with

    PYTHONPATH=src python tests/test_golden_bases.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from brs import (
    Ideal,
    Monomial,
    Polynomial,
    Submodule,
    VarContext,
    parse_problem,
    standard_basis,
    syzygies,
    theta_full,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden_bases.json"


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


def _rebuild(run: dict):
    ctx = VarContext(run["vars"])
    vecs = [tuple(_poly_in(ctx, p) for p in v) for v in run["input"]]
    if run["kind"] == "Ideal":
        return Ideal(ctx, [v[0] for v in vecs])
    return Submodule(ctx, run["rank"], vecs)


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS_DIR.glob("*.brs")))
def test_analyze_bases_match_golden(name):
    runs = _golden()["analyze"][name]
    for run in runs:
        basis = standard_basis(_rebuild(run), jet_level=run["jet_level"])
        assert _vecs_out(basis.elements) == run["elements"], run["input"]


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
    """Every distinct `standard_basis` call of one `analyze(..., oracle=True)` run."""
    import brs.invariants as invariants
    import brs.stdbasis as stdbasis
    from brs import analyze

    original = stdbasis.standard_basis
    runs: list[dict] = []

    def recording(obj, **kwargs):
        basis = original(obj, **kwargs)
        ctx, rank, vecs = stdbasis._as_vecs(obj)
        run = {
            "vars": list(ctx.names),
            "kind": type(obj).__name__ if isinstance(obj, (Ideal, Submodule)) else "Ideal",
            "rank": rank,
            "input": [[[[list(m.exponents), str(c)] for m, c in p.terms] for p in v] for v in vecs],
            "jet_level": kwargs.get("jet_level"),
        }
        if kwargs.get("track"):
            raise AssertionError("analyze is not expected to build a tracked basis")
        run["elements"] = _vecs_out(basis.elements)
        if run not in runs:
            runs.append(run)
        return basis

    parsed = parse_problem(path.read_text(encoding="utf-8"))
    stdbasis.standard_basis = invariants.standard_basis = recording
    try:
        analyze(parsed.problem, oracle=True, max_jet=parsed.max_jet)
    finally:
        stdbasis.standard_basis = invariants.standard_basis = original
    return runs


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    table = {
        "analyze": {p.name: _record_analyze(p) for p in sorted(CORPUS_DIR.glob("*.brs"))},
        "theta_full": {
            key: _vecs_out(xi.components for xi in theta_full(phi).gens)
            for key, phi in _corpus_phis().items()
        },
        "syzygies": {key: _vecs_out(syzygies(I).gens) for key, I in _case_ideals().items()},
    }
    GOLDEN.write_text(json.dumps(table) + "\n", encoding="utf-8")
