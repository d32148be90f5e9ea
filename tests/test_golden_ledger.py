"""Golden ledger: the six invariants and every ledger row of the corpus.

Pins, for each `corpus/*.brs` analyzed without a flag and with `--oracle`,
the invariants and each row's name, status, lhs, rhs and skip reason, in
ledger order.  A refactor of `analyze` must reproduce it exactly.

Regenerate (only when a change of results is intended) with

    PYTHONPATH=src python tests/test_golden_ledger.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from brs import analyze, parse_problem
from brs.report import report_to_dict

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden_ledger.json"
MODES = {"plain": False, "oracle": True}


def _snapshot(path: Path, oracle: bool) -> dict:
    parsed = parse_problem(path.read_text(encoding="utf-8"))
    report = analyze(parsed.problem, oracle=oracle or parsed.oracle, max_jet=parsed.max_jet)
    doc = report_to_dict(report)
    return {"invariants": doc["invariants"], "ledger": doc["ledger"]}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS_DIR.glob("*.brs")))
def test_ledger_matches_golden(name, mode):
    assert _snapshot(CORPUS_DIR / name, MODES[mode]) == _golden()[mode][name]


def test_golden_covers_the_corpus():
    names = sorted(p.name for p in CORPUS_DIR.glob("*.brs"))
    assert {mode: sorted(rows) for mode, rows in _golden().items()} == {m: names for m in MODES}


if __name__ == "__main__":
    table = {
        mode: {p.name: _snapshot(p, oracle) for p in sorted(CORPUS_DIR.glob("*.brs"))}
        for mode, oracle in MODES.items()
    }
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
