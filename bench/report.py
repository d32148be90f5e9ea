"""Run every workload, untraced and traced, and print every metric.

    python3 bench/report.py [--seed N] [--seconds S]

Prints the git revision, Python version, processor count and CPU model,
then each workload's end-to-end and per-layer metrics by name with their
units.  Exits non-zero when any output was wrong or any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import NAMES  # noqa: E402


def _revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() + (" (src modified)" if dirty.stdout.strip() else "")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=55)
    args = ap.parse_args()
    print(f"revision : {_revision()}")
    print(f"python   : {platform.python_version()} ({sys.executable})")
    print(f"nproc    : {os.cpu_count()}")
    print(f"cpu      : {_cpu_model()}")
    status = 0
    for name in NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            print(f"\n== {name} ({'per-layer, traced' if trace else 'end to end'})", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode or result is None or not result["correct"]:
                print(f"FAILED: {name} trace={trace} exited {proc.returncode}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
