"""The benchmark's workloads: fixed problem lists, flags and deadlines.

Each workload is one pass over its problems, one `analyze` call at a time.
The problems are fixed, and so is the linear form `f` of `generic3d`, the
paper's `x + 2*y - z`: the seed does not change them (see README.md).  Why
each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CORPUS_DIR = BENCH_DIR / "problems" / "corpus"
EXPECTED_PATH = BENCH_DIR / "expected.json"

INVARIANTS = ("mu_f", "mu_X", "tau_X", "mu_fiber", "mu_BR", "mu_BR_rel")

GENERIC3D_F = "x + 2*y - z"

# (id, phi) in three variables: the paper's main case, a generic linear f.
GENERIC3D_PHIS = (
    ("a1", "x^2 + y^2 + z^2"),
    ("e6", "x^2 + y^3 + z^4"),
    ("e8", "x^2 + y^3 + z^5"),
    ("p8", "x^3 + y^3 + z^3"),
    ("p8_xyz", "x^3 + y^3 + z^3 + x*y*z"),
    ("x2_y4_z4", "x^2 + y^4 + z^4"),
    ("t334", "x^3 + y^3 + z^4 + x*y*z"),
    ("t444", "x^4 + y^4 + z^4 + x*y*z"),
)

# (id, phi, f_base) in two variables; each is suspended by z^2 and z^3.
VERIFY_BASES = (
    ("a2", "x^2 + y^3", "y"),
    ("a3", "x^2 + y^4", "y"),
    ("d4", "x^3 - x*y^2", "y"),
    ("e6", "x^3 + y^4", "x"),
    ("e8", "x^3 + y^5", "y"),
    ("t255", "x^5 + y^5 + x^2*y^2", "y"),
    ("t245", "x^4 + y^5 + x^2*y^2", "x"),
)


@dataclass(frozen=True)
class Problem:
    id: str
    text: str


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple[Problem, ...]
    oracle: bool
    tau: bool
    deadline_s: float


NAMES = ("corpus", "generic3d", "verify")

# Per-problem deadlines.  The slowest problem that finishes takes at most
# 40% of its workload's deadline on a 2-core Xeon, under load; for generic3d
# it is x^2+y^4+z^4, 2.1-3.5 s of 6 s.  generic3d's deadline is kept short
# because its two timeouts are charged at the deadline in wall_s.
DEADLINE_S = {"corpus": 30.0, "generic3d": 6.0, "verify": 10.0}


def _problem_text(vars_: str, phi: str, f: str) -> str:
    return f"vars = {vars_}\nphi  = {phi}\nf    = {f}\n"


def _corpus_problems(prefix: str = "") -> tuple[Problem, ...]:
    paths = sorted(CORPUS_DIR.glob(f"{prefix}*.brs"))
    return tuple(Problem(p.stem, p.read_text(encoding="utf-8")) for p in paths)


def build(name: str) -> Workload:
    """The workload `name`."""
    if name == "corpus":
        problems = _corpus_problems()
        oracle = tau = False
    elif name == "generic3d":
        problems = tuple(
            Problem(pid, _problem_text("x, y, z", phi, GENERIC3D_F)) for pid, phi in GENERIC3D_PHIS
        )
        oracle = tau = False
    elif name == "verify":
        problems = tuple(
            Problem(f"susp_{pid}_z{k}", _problem_text("x, y, z", phi, f"{f_base} + z^{k}"))
            for pid, phi, f_base in VERIFY_BASES
            for k in (2, 3)
        ) + _corpus_problems("wh_")
        oracle = tau = True
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name, problems, oracle, tau, DEADLINE_S[name])


def load_expected(workload: Workload) -> dict[str, dict]:
    """The certified table of the workload's problems."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))[workload.name]["values"]
