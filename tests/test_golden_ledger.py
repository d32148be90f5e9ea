"""Golden ledger: the six invariants and every ledger row of the corpus.

Pins, for each `corpus/*.brs` analyzed without a flag, with `--oracle`, with
`--tau` and with both, the invariants and each row's name, status, lhs, rhs
and skip reason, in ledger order, and the report's `problem` block (path,
variables, phi and f as printed), which no flag changes.  With these, the
JSON report of `brs corpus corpus` is pinned in full, `timings_ms` aside.
A refactor of `analyze` must reproduce it exactly.

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
MODES = {
    "plain": {},
    "oracle": {"oracle": True},
    "tau": {"tau_check": True},
    "oracle_tau": {"oracle": True, "tau_check": True},
}


def _report(path: Path, flags: dict) -> dict:
    """The JSON report of `brs corpus corpus` for one file, `timings_ms` left out."""
    parsed = parse_problem(path.read_text(encoding="utf-8"))
    flags = {"oracle": parsed.oracle, **flags}
    report = analyze(parsed.problem, path=f"corpus/{path.name}", max_jet=parsed.max_jet, **flags)
    doc = report_to_dict(report)
    del doc["timings_ms"]
    return doc


def _snapshot(doc: dict) -> dict:
    return {"invariants": doc["invariants"], "ledger": doc["ledger"]}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS_DIR.glob("*.brs")))
def test_ledger_matches_golden(name, mode):
    doc, golden = _report(CORPUS_DIR / name, MODES[mode]), _golden()
    assert _snapshot(doc) == golden[mode][name]
    assert doc["problem"] == golden["problem"][name]


def test_golden_covers_the_corpus():
    names = sorted(p.name for p in CORPUS_DIR.glob("*.brs"))
    sections = {"problem", *MODES}
    assert {section: sorted(rows) for section, rows in _golden().items()} == {
        section: names for section in sections
    }


if __name__ == "__main__":
    paths = sorted(CORPUS_DIR.glob("*.brs"))
    table = {
        mode: {p.name: _snapshot(_report(p, flags)) for p in paths} for mode, flags in MODES.items()
    }
    table["problem"] = {p.name: _report(p, {})["problem"] for p in paths}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
