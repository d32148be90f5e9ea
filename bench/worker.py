"""The benchmark's worker process: runs `brs` problems one at a time.

The runner (`run.py`) talks to it over stdin/stdout, one JSON object per
line.  For each problem the worker takes the CLI's own path without click,
`parse_problem` -> `analyze` -> `render_json`, under a deadline enforced by
an interval timer, and answers with the rendered invariants and its timings.

    python3 bench/worker.py                 # serve, untraced
    python3 bench/worker.py --trace FILE    # serve, traced; spans go to FILE
    python3 bench/worker.py --setup         # import brs, parse stdin's problems, exit
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("errors", "polycore", "stdbasis", "oracle", "tangent", "invariants", "parsing", "report", "cli")


def import_brs() -> dict:
    """Import `brs` and `brs.cli` from the checkout's own sources."""
    if not (SRC / "brs" / "__init__.py").is_file():
        raise FileNotFoundError(f"no brs package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import brs
    import brs.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    mods = {name: sys.modules[f"brs.{name}"] for name in MODULES}
    mods["package"] = brs
    return mods


class Deadline(BaseException):
    """Raised by the interval timer; a BaseException so no handler in brs catches it."""


def _serve(trace_path: str | None) -> int:
    brs = import_brs()
    tracer = None
    if trace_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(brs)
    BrsError = brs["errors"].BrsError

    def on_alarm(signum, frame):
        raise Deadline(tracer.open_stack() if tracer else "")

    signal.signal(signal.SIGALRM, on_alarm)
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "finish":
            resp = {}
            if tracer is not None:
                tracer.write_spans(trace_path)
                resp["trace"] = tracer.summary()
            _send(resp)
            return 0
        resp = {"id": req["id"], "status": "ok"}
        if tracer is not None:
            tracer.begin(req["id"])
        # Module attributes are looked up per call, so traced wrappers apply.
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, req["deadline"])
        try:
            parsed = brs["parsing"].parse_problem(req["text"])
            t1 = perf_counter()
            report = brs["invariants"].analyze(
                parsed.problem,
                path=req["id"],
                oracle=req["oracle"] or parsed.oracle,
                max_jet=parsed.max_jet,
                tau_check=req["tau"],
                budget=brs["stdbasis"].DEFAULT_BUDGET,
            )
            t2 = perf_counter()
            out = brs["report"].render_json(report)
            t3 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            doc = json.loads(out)
            resp.update(
                rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                total_s=t3 - t0,
                analyze_s=t2 - t1,
                invariants=doc["invariants"],
                ledger_fail=[e["name"] for e in doc["ledger"] if e["status"] == "fail"],
                timings_ms=doc["timings_ms"],
            )
        except Deadline as stop:
            resp.update(status="timeout", total_s=perf_counter() - t0, stalled_in=stop.args[0])
        except BrsError as exc:  # BudgetError among them
            resp.update(status="error", total_s=perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # a crash is recorded against the problem, never dropped
            where = traceback.extract_tb(exc.__traceback__)[-1]
            resp.update(
                status="error",
                total_s=perf_counter() - t0,
                error=f"{type(exc).__name__}: {exc} at {Path(where.filename).name}:{where.lineno}",
            )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.end(keep=resp["status"] != "timeout")
        _send(resp)
    return 0


def _send(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _setup() -> int:
    texts = json.load(sys.stdin)
    brs = import_brs()
    for text in texts:
        brs["parsing"].parse_problem(text)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--setup"]:
        return _setup()
    if argv[:1] == ["--trace"] and len(argv) == 2:
        return _serve(argv[1])
    if not argv:
        return _serve(None)
    print("usage: worker.py [--setup | --trace FILE]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
