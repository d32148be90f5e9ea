"""Tests of the benchmark itself: determinism of traced counts, the
correctness check, deadline accounting and the certified table.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json

import certify
import run
import workloads


def _small(name: str, ids: tuple[str, ...]) -> workloads.Workload:
    wl = workloads.build(name)
    return dataclasses.replace(wl, problems=tuple(p for p in wl.problems if p.id in ids))


def _expected(wl):
    return {p.id: workloads.load_expected(wl)[p.id] for p in wl.problems}


def test_traced_counts_repeat_exactly():
    # One problem through the stdbasis colon path, one through the oracle
    # and the module quotient (tau-module).
    for wl in (_small("corpus", ("nwh_t45_f_x",)), _small("verify", ("wh_a3_f_y", "susp_a2_z3"))):
        runs = [run.per_layer(wl, _expected(wl), f"test-{wl.name}-{k}") for k in range(2)]
        counts = []
        for outcomes, metrics, _ in runs:
            assert outcomes.correct and outcomes.failed == 0
            counts.append({k: v for k, (v, unit) in metrics.items() if unit not in ("ms", "s")})
        assert counts[0] == counts[1]
        assert counts[0]["stdbasis.standard_basis.calls"] > 0
        assert counts[0]["polycore.terms_out"] > 0
    assert counts[0]["oracle.oracle_colength.calls"] > 0
    assert counts[0]["stdbasis.module_quotient_dim.calls"] > 0


def test_wrong_expected_value_fails_the_check():
    wl = _small("verify", ("wh_a2_cusp_f_x",))
    expected = _expected(wl)
    expected["wh_a2_cusp_f_x"] = dict(expected["wh_a2_cusp_f_x"], mu_BR=99)
    outcomes, metrics, _ = run.end_to_end(wl, expected, seconds=0)
    assert not outcomes.correct
    assert outcomes.failed == outcomes.attempted == 1
    assert metrics["solved_frac"][0] == 0
    assert "mu_BR=2 (expected 99)" in outcomes.wrong[0]


def test_right_expected_values_pass():
    wl = _small("verify", ("wh_a2_cusp_f_x", "susp_e6_z2"))
    outcomes, metrics, _ = run.end_to_end(wl, _expected(wl), seconds=0)
    assert outcomes.correct and outcomes.failed == 0
    assert metrics["solved_frac"][0] == 1.0


def test_timeout_is_recorded_not_dropped():
    wl = dataclasses.replace(_small("generic3d", ("a1", "t444")), deadline_s=0.3)
    outcomes = run.Outcomes(_expected(wl))
    with run.Worker() as worker:
        wall, responses = run.run_pass(worker, wl, outcomes, wl.deadline_s)
        worker.finish()
    assert [r["status"] for r in responses] == ["ok", "timeout"]
    assert outcomes.attempted == 2 and outcomes.failed == 1 and outcomes.correct
    assert responses[1]["total_s"] >= 0.3
    assert wall >= 0.3


def test_timeouts_are_charged_in_wall_s_but_not_in_the_latency():
    wl = dataclasses.replace(_small("generic3d", ("a1", "t444")), deadline_s=0.3)
    outcomes, metrics, samples = run.end_to_end(wl, _expected(wl), seconds=1.0)
    passes = outcomes.attempted // 2
    assert passes >= 2 and samples["wall_s"] == f"median of {passes} passes"
    assert outcomes.correct and outcomes.failed == passes
    assert metrics["wall_s"][0] >= 0.3
    assert metrics["problem_p90_s"][0] < 0.3  # a1 alone
    assert metrics["solved_frac"][0] == 0.5
    # t444 runs once; later passes charge it the deadline without running it.
    assert sum("not run again" in note for note in outcomes.notes) == passes - 1


def test_certify_rewrites_the_committed_table(tmp_path):
    assert certify.main(tmp_path / "expected.json") == 0
    assert (tmp_path / "expected.json").read_text() == workloads.EXPECTED_PATH.read_text()


def test_certified_table_matches_the_oracle():
    table = json.loads(workloads.EXPECTED_PATH.read_text())
    assert table["generic3d"]["values"]["t334"] == certify.certify(
        workloads.build("generic3d").problems[6].text
    )
    six = ("mu_f", "mu_X", "tau_X", "mu_fiber", "mu_BR", "mu_BR_rel")
    t444 = table["generic3d"]["values"]["t444"]
    assert tuple(t444[k] for k in six) == (0, 11, 10, 4, 5, 5)
    sizes = {name: len(entry["values"]) for name, entry in table.items()}
    assert sizes == {"corpus": 22, "generic3d": 8, "verify": 23}


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
