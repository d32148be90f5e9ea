"""Golden standard bases: the exact output of the Mora kernel.

Pins the exponents, integer coefficients and order of

* the standard basis of every Mora run that `analyze(..., oracle=True)`
  makes on `corpus/*.brs`, Schreyer runs aside: the capped runs at a jet
  level N, on I + m^(N+1) (the `--oracle` cross-check's counts, and each
  proposal that Mora proves), those of them that continue the kept entries
  of another run, pinned as their `start`, and the uncapped runs (jet
  level None);
* the generators of `theta_full(phi)` for each corpus `phi`;
* the `syzygies` of each ideal of `COLON_CASES` and `INTERSECTION_CASES`.

A change to the kernel's arithmetic must reproduce them exactly.  78 pinned
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
from brs.stdbasis import (
    DEFAULT_BUDGET,
    Ideal,
    _complete,
    _Entry,
    _finished,
    _kept_entries,
    _to_ivecs,
    _vector,
)
from brs.tangent import theta_full
from conftest import syzygies

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden_bases.json"

# Pinned runs that no `analyze` run makes, by file: (jet level, inputs as
# printed).  First the uncapped runs (jet level None) of the `degen_*` files:
# the run on df_T + (phi) = (phi*f_x, phi*f_y, phi), f = phi, which
# `analyze` counts on the generators (phi, minors) instead (`trivial_rel`
# shares the `legreuel` count), and the runs on the principal ideals that
# `analyze` now certifies infinite with no run (`oracle.certificate`): the
# Le-Greuel ideal (phi), the minors being zero, and on `degen_a2_self` df_X.
# Then the capped runs that tau_X, br_rel, trivial_rel and, where its
# generators are df_T's and phi, the Le-Greuel ideal made on their own
# generators at their own jet levels, before each check of an ideal counted
# as K + extra continued K's kept run (`Ideal.mora`).  So these pin the
# kernel's arithmetic on ideals of infinite colength, principal ones among
# them, and on inputs the program no longer runs; the recorder runs them on
# their own and appends them.
KERNEL_ONLY = {
    "degen_a2_self.brs": (
        (None, ("x^2 + y^3",)),
        (None, ("-6*x^2 - 6*y^3",)),
        (None, ("2*x^3 + 2*x*y^3", "3*x^2*y^2 + 3*y^5", "x^2 + y^3")),
        (2, ("x^2 + y^3", "2*x", "3*y^2")),
    ),
    "degen_t55_self.brs": (
        (None, ("x^2*y^2 + y^5 + x^5",)),
        (None, (
            "2*x^3*y^4 + 2*x*y^7 + 7*x^6*y^2 + 5*x^4*y^5 + 5*x^9",
            "2*x^4*y^3 + 7*x^2*y^6 + 2*x^7*y + 5*y^9 + 5*x^5*y^4", "x^2*y^2 + y^5 + x^5",
        )),
        (5, ("x^2*y^2 + y^5 + x^5", "2*x*y^2 + 5*x^4", "2*x^2*y + 5*y^4")),
    ),
    "nwh_t334_generic.brs": (
        (3, (
            "2*y*z - x*z - 3*y^2 + 6*x^2",
            "3*z^2 - 8*y*z - 5*x*z + 9*x*y + 6*x^2 + 36*x*z^2 - 216*x^2*z + 324*x^2*y + 972*x^3 - 34992*x*y*z^2 + 7776*x^2*z^2 + 93312*x*y^2*z + 46656*x^2*y*z - 34992*x^3*z - 104976*x^2*y^2 - 69984*x^3*y - 279936*x^2*z^3 + 2519424*x^3*y*z - 1259712*x^4*z - 3779136*x^3*y^2 + 7558272*x^5",
            "-x*z - 3*y^2 - 2*x*y - 8*z^3", "-y*z - x*y - 3*x^2 - 4*z^3",
            "y*z - 2*y^2 - x*y + z^3 - 6*x*z^2 + 9*x*y*z + 27*x^2*z + 216*x*z^3 - 324*x*y*z^2 - 11664*x*y^2*z + 972*x^3*z + 23328*x*y^3 + 11664*x^2*y^2 - 8748*x^3*y - 5832*x^4 - 11664*x*y*z^3 + 69984*x^2*y*z^2 - 34992*x^3*z^2 - 104976*x^2*y^2*z + 209952*x^4*z",
            "x*z - 2*x*y - x^2 + 2*z^3 - 3*y*z^2 + 9*x^2*z - 81*x^2*y - 54*x^3 - 324*x^2*z^2 + 1944*x^3*z - 2916*x^3*y - 8748*x^4 - 69984*x^3*z^2 + 104976*x^3*y*z - 944784*x^4*z + 2519424*x^4*y + 1259712*x^5",
            "x*y*z + y^3 + x^3 + z^4",
        )),
        (4, ("x*y*z + y^3 + x^3 + z^4", "y*z + 3*x^2", "x*z + 3*y^2", "x*y + 4*z^3")),
        (6, (
            "-2*y*z + x*z + 3*y^2 - 6*x^2", "y*z + x*y + 3*x^2 + 4*z^3",
            "x*z + 3*y^2 + 2*x*y + 8*z^3", "x*y*z + y^3 + x^3 + z^4",
            "2*x*y*z + 2*y^3 + 2*x^3 + 2*z^4", "-x*y*z - y^3 - x^3 - z^4",
            "x*y*z + y^3 + x^3 + z^4",
        )),
    ),
    "nwh_t444_3d_f_z.brs": (
        (5, (
            "-z^2 - 16*x^2*y^2 - 64*x*y*z^3", "-2*y*z - 64*x*y^2*z^2", "-2*x*z - 64*x^2*y*z^2",
            "-z^2 - 16*x^2*y^2 - 64*x*y*z^3", "-x*z + 4*y^3 - 64*x^2*y*z^2",
            "-y*z + 4*x^3 - 64*x*y^2*z^2", "x*y*z + z^4 + y^4 + x^4",
        )),
        (7, ("x*y*z + z^4 + y^4 + x^4", "-y*z - 4*x^3", "-x*z - 4*y^3")),
        (4, ("x*y*z + z^4 + y^4 + x^4", "y*z + 4*x^3", "x*z + 4*y^3", "x*y + 4*z^3")),
        (7, ("-y*z - 4*x^3", "-x*z - 4*y^3", "x*y*z + z^4 + y^4 + x^4", "x*y*z + z^4 + y^4 + x^4")),
    ),
    "nwh_t444_generic.brs": (
        (3, (
            "z^2 - 4*y*z - x*z + 4*y^3 + 16*x^2*y^2 + 64*x*y*z^3 - 128*x*y^2*z^2 - 64*x^2*y*z^2",
            "2*y*z - 2*y^2 - x*y + 4*z^3 - 32*x^2*z^2 + 64*x*y^2*z^2 - 128*x*y^3*z - 64*x^2*y^2*z",
            "2*x*z - 2*x*y - x^2 + 8*z^3 - 16*y^2*z^2 + 64*x^2*y*z^2 - 128*x^2*y^2*z - 64*x^3*y*z",
            "z^2 - 2*y*z - 2*x*z + 8*x^3 + 16*x^2*y^2 + 64*x*y*z^3 - 128*x*y^2*z^2 - 64*x^2*y*z^2",
            "x*z - 4*x*y - x^2 - 4*y^3 - 16*y^2*z^2 + 64*x^2*y*z^2 - 128*x^2*y^2*z - 64*x^3*y*z",
            "y*z - 2*y^2 - 2*x*y - 4*x^3 - 32*x^2*z^2 + 64*x*y^2*z^2 - 128*x*y^3*z - 64*x^2*y^2*z",
            "x*y*z + z^4 + y^4 + x^4",
        )),
        (4, ("x*y*z + z^4 + y^4 + x^4", "y*z + 4*x^3", "x*z + 4*y^3", "x*y + 4*z^3")),
        (6, (
            "-2*y*z + x*z + 4*y^3 - 8*x^3", "y*z + x*y + 4*z^3 + 4*x^3",
            "x*z + 2*x*y + 8*z^3 + 4*y^3", "x*y*z + z^4 + y^4 + x^4",
            "2*x*y*z + 2*z^4 + 2*y^4 + 2*x^4", "-x*y*z - z^4 - y^4 - x^4",
            "x*y*z + z^4 + y^4 + x^4",
        )),
    ),
    "nwh_t45_f_x.brs": (
        (4, (
            "-6*x*y + 25*x*y^2", "-2*x^2 + y^3 - 2*x^2*y - 10*x^2*y^2 - 100*x^4",
            "x^2*y^2 + x^4 + y^5",
        )),
        (7, ("x^2*y^2 + x^4 + y^5", "2*x^2*y + 5*y^4")),
        (5, ("x^2*y^2 + x^4 + y^5", "2*x*y^2 + 4*x^3", "2*x^2*y + 5*y^4")),
        (7, ("2*x^2*y + 5*y^4", "x^2*y^2 + x^4 + y^5", "x^2*y^2 + x^4 + y^5")),
    ),
    "nwh_t55_f_x_minus_y.brs": (
        (3, (
            "6*x*y - 4*x^2 + 5*y^3 - 25*x^2*y^2 + 25*x^3*y",
            "4*y^2 - 6*x*y - 5*x^3 - 25*x*y^3 + 25*x^2*y^2", "x^2*y^2 + y^5 + x^5",
        )),
        (5, ("x^2*y^2 + y^5 + x^5", "2*x*y^2 + 5*x^4", "2*x^2*y + 5*y^4")),
        (7, (
            "2*x*y^2 + 2*x^2*y + 5*y^4 + 5*x^4", "x^2*y^2 + y^5 + x^5", "-x^2*y^2 - y^5 - x^5",
            "x^2*y^2 + y^5 + x^5",
        )),
    ),
    "nwh_t55_f_y.brs": (
        (4, ("-6*x*y + 25*x^2*y^2", "-4*y^2 + 5*x^3 + 25*x*y^3", "x^2*y^2 + y^5 + x^5")),
        (7, ("x^2*y^2 + y^5 + x^5", "-2*x*y^2 - 5*x^4")),
        (5, ("x^2*y^2 + y^5 + x^5", "2*x*y^2 + 5*x^4", "2*x^2*y + 5*y^4")),
        (7, ("-2*x*y^2 - 5*x^4", "x^2*y^2 + y^5 + x^5", "x^2*y^2 + y^5 + x^5")),
    ),
    "nwh_t56_f_y.brs": (
        (4, ("-4*y^2 + 8*x^3 - 75*x^4*y^2", "-12*x*y - 125*x^5*y", "x^2*y^2 + x^5 + y^6")),
        (8, ("x^2*y^2 + x^5 + y^6", "-2*x*y^2 - 5*x^4")),
        (6, ("x^2*y^2 + x^5 + y^6", "2*x*y^2 + 5*x^4", "2*x^2*y + 6*y^5")),
        (8, ("-2*x*y^2 - 5*x^4", "x^2*y^2 + x^5 + y^6", "x^2*y^2 + x^5 + y^6")),
    ),
    "nwh_t77_f_x_minus_y.brs": (
        (5, (
            "12*x^2*y - 9*x^3 + 7*y^4 - 49*x^3*y^2 + 49*x^4*y",
            "9*y^3 - 12*x*y^2 - 7*x^4 - 49*x*y^4 + 49*x^2*y^3", "x^3*y^3 + y^7 + x^7",
        )),
        (8, ("x^3*y^3 + y^7 + x^7", "3*x^2*y^3 + 7*x^6", "3*x^3*y^2 + 7*y^6")),
        (11, (
            "3*x^2*y^3 + 3*x^3*y^2 + 7*y^6 + 7*x^6", "x^3*y^3 + y^7 + x^7", "-x^3*y^3 - y^7 - x^7",
            "x^3*y^3 + y^7 + x^7",
        )),
    ),
    "nwh_t77_f_y.brs": (
        (6, ("-12*x^2*y + 49*x^3*y^2", "-9*y^3 + 7*x^4 + 49*x*y^4", "x^3*y^3 + y^7 + x^7")),
        (11, ("x^3*y^3 + y^7 + x^7", "-3*x^2*y^3 - 7*x^6")),
        (8, ("x^3*y^3 + y^7 + x^7", "3*x^2*y^3 + 7*x^6", "3*x^3*y^2 + 7*y^6")),
        (11, ("-3*x^2*y^3 - 7*x^6", "x^3*y^3 + y^7 + x^7", "x^3*y^3 + y^7 + x^7")),
    ),
    "susp_a2_x_z2.brs": (
        (2, ("2*z", "-3*x", "-3*y^2", "x^2 + y^3")),
    ),
    "susp_a2_z2.brs": (
        (1, ("2*z", "-2*y", "2*x", "x^2 + y^3")),
    ),
    "susp_a2_z3.brs": (
        (2, ("3*z^2", "-2*y", "2*x", "x^2 + y^3")),
    ),
    "susp_d4_z2.brs": (
        (2, ("2*z", "-y", "y^2 - 3*x^2", "-x*y^2 + x^3")),
    ),
    "wh_a1_3d_f_z.brs": (
        (1, ("-x", "-y", "-z", "z^2 + y^2 + x^2")),
        (2, ("z^2 + y^2 + x^2", "-2*x", "-2*y")),
        (1, ("z^2 + y^2 + x^2", "2*x", "2*y", "2*z")),
        (2, ("-2*x", "-2*y", "z^2 + y^2 + x^2", "z^2 + y^2 + x^2")),
    ),
    "wh_a2_cusp_f_x.brs": (
        (2, ("-3*x", "-3*y^2", "x^2 + y^3")),
        (3, ("x^2 + y^3", "3*y^2")),
        (2, ("x^2 + y^3", "2*x", "3*y^2")),
        (3, ("3*y^2", "x^2 + y^3", "x^2 + y^3")),
    ),
    "wh_a2_cusp_f_y.brs": (
        (1, ("-2*y", "2*x", "x^2 + y^3")),
        (3, ("x^2 + y^3", "-2*x")),
        (2, ("x^2 + y^3", "2*x", "3*y^2")),
        (3, ("-2*x", "x^2 + y^3", "x^2 + y^3")),
    ),
    "wh_a3_f_y.brs": (
        (1, ("-y", "x", "x^2 + y^4")),
        (4, ("x^2 + y^4", "-2*x")),
        (3, ("x^2 + y^4", "2*x", "4*y^3")),
        (4, ("-2*x", "x^2 + y^4", "x^2 + y^4")),
    ),
    "wh_a4_f_x.brs": (
        (4, ("-5*x", "-5*y^4", "x^2 + y^5")),
        (5, ("x^2 + y^5", "5*y^4")),
        (4, ("x^2 + y^5", "2*x", "5*y^4")),
        (5, ("5*y^4", "x^2 + y^5", "x^2 + y^5")),
    ),
    "wh_d4_f_2x_y.brs": (
        (2, ("-y - 2*x", "y^2 - 4*x*y - 3*x^2", "-x*y^2 + x^3")),
        (3, ("-x*y^2 + x^3", "-y^2 + 3*x^2", "-2*x*y")),
        (4, ("y^2 - 4*x*y - 3*x^2", "-2*x*y^2 + 2*x^3", "-x*y^2 + x^3", "-x*y^2 + x^3")),
    ),
    "wh_d4_f_y.brs": (
        (2, ("-y", "y^2 - 3*x^2", "-x*y^2 + x^3")),
        (4, ("-x*y^2 + x^3", "y^2 - 3*x^2")),
        (3, ("-x*y^2 + x^3", "-y^2 + 3*x^2", "-2*x*y")),
        (4, ("y^2 - 3*x^2", "-x*y^2 + x^3", "-x*y^2 + x^3")),
    ),
    "wh_e6_f_x.brs": (
        (3, ("-4*x", "-4*y^3", "x^3 + y^4")),
        (5, ("x^3 + y^4", "4*y^3")),
        (4, ("x^3 + y^4", "3*x^2", "4*y^3")),
        (5, ("4*y^3", "x^3 + y^4", "x^3 + y^4")),
    ),
    "wh_node_f_x_y.brs": (
        (1, ("y - x", "-x", "x*y")),
        (2, ("x*y", "-y + x")),
        (1, ("x*y", "y", "x")),
        (2, ("-y + x", "x*y", "x*y", "x*y")),
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


def _vecs_in(ctx: VarContext, vecs: list) -> list:
    return [tuple(_poly_in(ctx, p) for p in v) for v in vecs]


def _rerun(run: dict) -> list:
    """The basis of a pinned run, completed again: capped at its jet level + 1, if any.

    A continued run starts again from the kept entries it pins (`start`).
    """
    ctx = VarContext(run["vars"])
    cap = None if run["jet_level"] is None else run["jet_level"] + 1
    start = run.get("start")
    if start is not None:
        start = [_Entry(v) for v in _to_ivecs(_vecs_in(ctx, start))[1]]
    entries = _complete(_vecs_in(ctx, run["input"]), ctx, run["rank"], DEFAULT_BUDGET, cap=cap, start=start)
    return _basis_out(ctx, entries)


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
    # The runs `analyze` makes are exactly the pinned runs, the kernel-only ones aside.
    pinned = _golden()["analyze"][name]
    kernel_only = [r for r in pinned if (r["jet_level"], _printed(r)) in KERNEL_ONLY.get(name, ())]
    assert len(kernel_only) == len(KERNEL_ONLY.get(name, ()))
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
            run = _run_out(inputs, ctx, rank, kwargs.get("cap"), kept, kwargs.get("start"))
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


def _run_out(inputs, ctx: VarContext, rank: int, cap: int | None, kept, start=None) -> dict:
    """One pinned run: its inputs, jet level and basis, from the entries it kept.

    A run that continues another's kept entries pins them too, as `start`.
    """
    run = {
        "vars": list(ctx.names),
        "kind": "Ideal" if rank == 1 else "Submodule",
        "rank": rank,
        "input": [[[[list(m.exponents), str(c)] for m, c in p.terms] for p in v] for v in inputs],
        "jet_level": None if cap is None else cap - 1,
        "elements": _basis_out(ctx, _finished(kept, ctx.n, cap)),
    }
    if start is not None:
        run["start"] = _basis_out(ctx, start)
    return run


def _kernel_only_runs(name: str) -> list[dict]:
    """The `KERNEL_ONLY` runs of one corpus file, made again."""
    ctx = parse_problem((CORPUS_DIR / name).read_text(encoding="utf-8")).problem.ctx
    runs = []
    for level, sources in KERNEL_ONLY.get(name, ()):
        inputs = [(parse_poly(s, ctx),) for s in sources]
        cap = None if level is None else level + 1
        kept = _kept_entries(inputs, ctx, 1, DEFAULT_BUDGET, cap=cap)
        runs.append(_run_out(inputs, ctx, 1, cap, kept))
    return runs


def _record_table() -> dict:
    """The golden table as the program makes it now, kernel-only runs appended."""
    return {
        "analyze": {
            p.name: _record_analyze(p) + _kernel_only_runs(p.name)
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
