"""The brs benchmark: one closed-loop client, one `analyze` call at a time.

    python3 bench/run.py --workload generic3d --seed 0 --seconds 55 --trace 0

Each workload (see workloads.py) is one pass over a fixed problem list.  The
runner hands problems to a single worker process (worker.py), which takes
the CLI's path `parse_problem` -> `analyze` -> `render_json` under a
per-problem deadline.  Every output is checked against invariants certified
by the jet oracle (certify.py, expected.json).

--trace 0 measures the end-to-end metrics: passes repeat until --seconds
have elapsed, and the timings are medians.  --trace 1 runs one untraced and
one traced pass and reports the per-layer metrics; their counts are
deterministic.  The last line of stdout is one JSON object; the lines before
it name every metric with its unit.  The exit code is 1 when an output is
wrong and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from workloads import INVARIANTS  # noqa: E402

# Set-up is sampled between passes, about once per SETUP_EVERY_S of the run
# and at least SETUP_MIN times, so that its median spans the whole run.
SETUP_EVERY_S = 3.0
SETUP_MIN = 7
# Traced calls run slower; a traced problem gets this many deadlines.
TRACE_DEADLINE_FACTOR = 2
# How long past its deadline a silent worker is given before it is killed.
KILL_GRACE_S = 20.0


class Worker:
    """One worker process at a time.

    An untraced worker is replaced after a problem is stopped at its
    deadline, so the memory of the stopped computation stays out of the peak
    reported for finished problems; a traced worker keeps its counts and is
    replaced only if it has to be killed.  Use it as a context manager: on
    the way out the process is ended and waited for, whatever happened.
    """

    def __init__(self, trace_path: Path | None = None):
        self.trace_path = trace_path
        self.rss_kb = 0  # peak over finished problems
        self._start()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _start(self) -> None:
        cmd = [sys.executable, str(BENCH_DIR / "worker.py")]
        if self.trace_path is not None:
            cmd += ["--trace", str(self.trace_path)]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )

    def _stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def _request(self, req: dict, timeout: float) -> dict | None:
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        return json.loads(line) if line else None

    def run(self, problem, wl: workloads.Workload, deadline: float) -> dict:
        req = {
            "op": "run",
            "id": problem.id,
            "text": problem.text,
            "oracle": wl.oracle,
            "tau": wl.tau,
            "deadline": deadline,
        }
        t0 = perf_counter()
        resp = self._request(req, deadline + KILL_GRACE_S)
        if resp is not None:
            self.rss_kb = max(self.rss_kb, resp.get("rss_kb", 0))
            if resp["status"] == "timeout" and self.trace_path is None:
                self._stop()
                self._start()
        else:
            # The timer inside the worker did not fire, or the worker died.
            code = self.proc.poll()
            self._stop()
            self._start()
            if code is None:
                resp = {"status": "timeout", "total_s": perf_counter() - t0, "stalled_in": "worker killed"}
            else:
                resp = {"status": "error", "total_s": perf_counter() - t0, "error": f"worker exited with {code}"}
            resp["id"] = problem.id
        return resp

    def finish(self) -> dict:
        """End the worker; returns its trace summary when traced."""
        resp = self._request({"op": "finish"}, 120.0) or {}
        self._stop()
        return resp


class Outcomes:
    """Per-problem results of a run, checked against the expected table."""

    def __init__(self, expected: dict[str, dict]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.solved = 0
        self.wrong: list[str] = []
        self.notes: list[str] = []

    def record(self, resp: dict) -> None:
        """Count one result: finished and correct, failed, or wrong."""
        self.attempted += 1
        pid = resp["id"]
        if resp["status"] == "timeout":
            self.failed += 1
            where = f" in {resp['stalled_in']}" if resp["stalled_in"] else ""
            self.notes.append(f"{pid}: timeout after {resp['total_s']:.2f} s{where}")
            return
        if resp["status"] == "error":
            self.failed += 1
            self.notes.append(f"{pid}: {resp['error']}")
            return
        got = resp["invariants"]
        want = self.expected[pid]
        diff = [f"{k}={got[k]} (expected {want[k]})" for k in INVARIANTS if got[k] != want[k]]
        if diff or resp["ledger_fail"]:
            self.failed += 1
            self.wrong.append(f"{pid}: {', '.join(diff)} ledger fail: {resp['ledger_fail']}")
            return
        self.solved += 1

    @property
    def correct(self) -> bool:
        return not self.wrong


def run_pass(
    worker: Worker, wl, outcomes: Outcomes, deadline: float, stalled: set[str] | None = None
) -> tuple[float, list[dict]]:
    """One pass over the workload; returns its wall time and the responses.

    A problem in `stalled` timed out in an earlier pass of the run: it is not
    run again but recorded as a timeout once more and charged its deadline.
    Problems that time out in this pass are added to `stalled`.
    """
    wall = 0.0
    responses = []
    for problem in wl.problems:
        if stalled is not None and problem.id in stalled:
            where = "an earlier pass (charged, not run again)"
            resp = {"id": problem.id, "status": "timeout", "total_s": deadline, "stalled_in": where}
            wall += deadline
        else:
            t0 = perf_counter()
            resp = worker.run(problem, wl, deadline)
            wall += perf_counter() - t0
            if stalled is not None and resp["status"] == "timeout":
                stalled.add(problem.id)
        outcomes.record(resp)
        responses.append(resp)
    return wall, responses


def measure_setup(wl, times: list[float], count: int) -> None:
    """Time fresh interpreters that import brs and brs.cli and parse every
    problem, until `times` holds `count` samples."""
    payload = json.dumps([p.text for p in wl.problems])
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--setup"]
    while len(times) < count:
        t0 = perf_counter()
        subprocess.run(cmd, input=payload, text=True, check=True, cwd=ROOT)
        times.append(perf_counter() - t0)


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(wl, expected, seconds: float) -> tuple[Outcomes, dict, dict]:
    outcomes = Outcomes(expected)
    setup, walls = [], []
    # analyze times of finished problems; a timeout shows in wall_s and solved_frac.
    analyze_times: dict[str, list[float]] = {}
    # A problem that timed out once is not run again in later passes, so the
    # run's time goes to problems that finish.
    stalled: set[str] = set()
    with Worker() as worker:
        start = perf_counter()
        while not walls or perf_counter() - start < seconds:
            wall, responses = run_pass(worker, wl, outcomes, wl.deadline_s, stalled)
            walls.append(wall)
            for r in responses:
                if r["status"] == "ok":
                    analyze_times.setdefault(r["id"], []).append(r["analyze_s"])
            # The worker is idle now, so set-up samples do not compete with it.
            measure_setup(wl, setup, int((perf_counter() - start) / SETUP_EVERY_S))
        measure_setup(wl, setup, SETUP_MIN)
        worker.finish()
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        # With no problem finished, the deadline is the only latency known.
        "problem_p90_s": (
            p90([statistics.median(t) for t in analyze_times.values()]) if analyze_times else wl.deadline_s,
            "s",
        ),
        "solved_frac": (outcomes.solved / outcomes.attempted, "frac"),
        "peak_rss_mb": (worker.rss_kb / 1024, "MB"),
    }
    samples = {
        "setup_s": f"median of {len(setup)} interpreters",
        "wall_s": f"median of {len(walls)} passes",
        "problem_p90_s": f"over {len(analyze_times)} finished problems, each its median",
        "solved_frac": f"{outcomes.solved} of {outcomes.attempted}",
        "peak_rss_mb": "worker, over finished problems",
    }
    return outcomes, metrics, samples


# Per-layer metric names, in the order they are printed.
SPAN_METRICS = (
    ("parsing.parse_problem", ("ms",)),
    ("stdbasis.standard_basis", ("calls", "ms")),
    ("stdbasis.colength", ("calls", "ms")),
    ("stdbasis.membership", ("calls", "ms")),
    ("stdbasis.ideal_colon", ("calls", "ms")),
    ("stdbasis.ideal_intersection", ("calls", "ms")),
    ("stdbasis.module_quotient_dim", ("calls", "ms")),
    ("tangent.theta_full", ("calls", "ms")),
    ("tangent.df_ideal", ("ms",)),
    ("oracle.oracle_colength", ("calls", "ms")),
    ("oracle.module_jet_quotient_dim", ("calls", "ms")),
    ("polycore.add", ("calls", "ms")),
    ("polycore.mul", ("calls", "ms")),
    ("polycore.mul_term", ("calls", "ms")),
    ("polycore.scale", ("calls", "ms")),
    ("report.render_json", ("ms",)),
)
COUNTERS = (
    ("stdbasis.standard_basis.distinct", "count"),
    ("stdbasis.budget_errors", "count"),
    ("tangent.theta_full.gens", "count"),
    ("oracle.inconclusive", "count"),
    ("oracle.not_finite", "count"),
    ("polycore.terms_out", "count"),
)
MAXIMA = (("stdbasis.basis_size_max", "count"), ("stdbasis.coeff_bits_max", "bits"))
STAGES = ("jacobian_route", "tangent_module", "bruce_roberts", "identities", "oracle")


def per_layer(wl, expected, tag: str) -> tuple[Outcomes, dict, dict]:
    outcomes = Outcomes(expected)
    with Worker() as plain:
        _, untraced = run_pass(plain, wl, outcomes, wl.deadline_s)
        plain.finish()
    OUT_DIR.mkdir(exist_ok=True)
    with Worker(trace_path=OUT_DIR / f"spans-{tag}.jsonl") as traced_worker:
        _, traced = run_pass(traced_worker, wl, outcomes, wl.deadline_s * TRACE_DEADLINE_FACTOR)
        summary = traced_worker.finish()["trace"]

    calls, self_ms = summary["calls"], summary["self_ms"]
    counters, maxima = summary["counters"], summary["maxima"]
    metrics: dict[str, tuple[float, str]] = {}
    for name, kinds in SPAN_METRICS:
        if "calls" in kinds:
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        if "ms" in kinds:
            metrics[f"{name}.ms"] = (self_ms.get(name, 0.0), "ms")
    for name, unit in COUNTERS:
        metrics[name] = (counters.get(name, 0), unit)
    for name, unit in MAXIMA:
        metrics[name] = (maxima.get(name, 0), unit)
    sb_calls = calls.get("stdbasis.standard_basis", 0)
    distinct = counters.get("stdbasis.standard_basis.distinct", 0)
    metrics["stdbasis.standard_basis.reuse_frac"] = (1 - distinct / sb_calls if sb_calls else 0.0, "frac")
    # Stage times are the program's own, from the untraced pass's reports.
    for stage in STAGES:
        total = sum(r["timings_ms"].get(stage, 0.0) for r in untraced if r["status"] == "ok")
        metrics[f"invariants.{stage}.ms"] = (total, "ms")
    both = [
        (u["total_s"], t["total_s"])
        for u, t in zip(untraced, traced)
        if u["status"] == "ok" and t["status"] == "ok"
    ]
    metrics["trace.overhead_s"] = (sum(t - u for u, t in both), "s")
    metrics["trace.timeouts"] = (sum(t["status"] == "timeout" for t in traced), "count")
    samples = {"trace.overhead_s": f"traced minus untraced, over {len(both)} problems finished in both"}
    return outcomes, metrics, samples


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    # Accepted for the command line's sake; every workload's inputs are fixed.
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "brs" / "__init__.py").is_file():
        print(f"error: no brs sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload)
    expected = workloads.load_expected(wl)

    if args.trace:
        outcomes, metrics, samples = per_layer(wl, expected, f"{wl.name}-seed{args.seed}")
    else:
        outcomes, metrics, samples = end_to_end(wl, expected, args.seconds)

    print(f"workload {wl.name}: {len(wl.problems)} problems, deadline {wl.deadline_s:g} s")
    if wl.name == "generic3d":
        print(wl.problems[0].text.splitlines()[-1])
    for name, (value, unit) in metrics.items():
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"{name:40s} {value:>14.6g} {unit}{note}")
    for note in outcomes.notes:
        print(f"failed: {note}")
    for line in outcomes.wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    result = {
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if outcomes.correct else 1


if __name__ == "__main__":
    sys.exit(main())
