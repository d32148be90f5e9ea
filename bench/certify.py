"""Certify the expected invariants of benchmark problems with the jet oracle.

Each problem's six invariants are derived from the colengths of the ideals
`analyze` builds for them (six of its eight; the two built from the trivial
tangent fields enter no invariant), but every colength comes from
`oracle_colength` (stabilised jet dimensions, exact linear algebra) instead
of a Mora standard basis, so it also covers problems the engine cannot
finish.  The ideals are built with the program's own `parse_problem`,
`jacobian_ideal`, `minors_2x2`, `theta_full` and `df_ideal`; no standard
basis is computed.

    python3 bench/certify.py      # rewrite bench/expected.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from worker import import_brs
from workloads import INVARIANTS, build


class Inconclusive(Exception):
    """The oracle could not certify a colength within its cap."""


def certify(text: str, cap: int = 32) -> dict:
    """The six invariants of one problem, every colength certified by the oracle."""
    brs = import_brs()
    Ideal = brs["stdbasis"].Ideal
    poly, tangent, oracle = brs["polycore"], brs["tangent"], brs["oracle"]
    p = brs["parsing"].parse_problem(text).problem
    ctx, phi, f = p.ctx, p.phi, p.f
    I_X = Ideal(ctx, [phi])
    df_X = tangent.df_ideal(f, tangent.theta_full(phi))
    ideals = {
        "mu_f": Ideal(ctx, poly.jacobian_ideal(f)),
        "mu_X": Ideal(ctx, poly.jacobian_ideal(phi)),
        "tau_X": I_X + Ideal(ctx, poly.jacobian_ideal(phi)),
        "legreuel": Ideal(ctx, [phi] + poly.minors_2x2(f, phi)),
        "mu_BR": df_X,
        "mu_BR_rel": df_X + I_X,
    }
    col = {}
    for name, ideal in ideals.items():
        value = oracle.oracle_colength(ideal, cap=cap)
        if value is oracle.INCONCLUSIVE:
            raise Inconclusive(f"oracle inconclusive on the {name} ideal at cap {cap}")
        col[name] = value if isinstance(value, int) else "infinite"
    lg, mu_x = col.pop("legreuel"), col["mu_X"]
    col["mu_fiber"] = lg - mu_x if isinstance(lg, int) and isinstance(mu_x, int) else "infinite"
    return {name: col[name] for name in INVARIANTS}


def certify_workload(workload) -> dict[str, dict]:
    return {p.id: certify(p.text) for p in workload.problems}


def main(path: Path = workloads.EXPECTED_PATH) -> int:
    table = {}
    for name in workloads.NAMES:
        values = certify_workload(build(name))
        table[name] = {"values": values}
        if name == "generic3d":
            table[name] = {"f": workloads.GENERIC3D_F, **table[name]}
        print(f"{name}: {len(values)} problems certified", file=sys.stderr)
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
