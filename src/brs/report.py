"""Text and JSON rendering of invariant reports.

The JSON schema is stable: a top-level object with `problem`, `invariants`
(each value an integer or the string "infinite"), `ledger` (array of
{name, status, lhs, rhs, reason}) and `timings_ms`.  The text format mirrors
the same content in aligned columns so golden files diff cleanly; its final
line summarizes the gated (non-skipped) ledger entries.
"""

from __future__ import annotations

import json

from .invariants import InvariantReport

INVARIANT_NAMES = ("mu_f", "mu_X", "tau_X", "mu_fiber", "mu_BR", "mu_BR_rel")


def report_to_dict(report: InvariantReport) -> dict:
    problem = {
        "path": report.path,
        "vars": list(report.problem.ctx.names),
        "phi": str(report.problem.phi),
        "f": str(report.problem.f),
    }
    invariants = {}
    for name in INVARIANT_NAMES:
        value = getattr(report, name)
        invariants[name] = value if isinstance(value, int) else "infinite"
    return {
        "problem": problem,
        "invariants": invariants,
        "ledger": [dict(vars(e)) for e in report.ledger],  # name, status, lhs, rhs, reason
        "timings_ms": dict(report.timings_ms),
    }


def render_json(report: InvariantReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def _fmt_value(value) -> str:
    if value is None:
        return "-"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def summary_line(report: InvariantReport) -> str:
    gated = report.gated
    failed = [e for e in gated if e.status == "fail"]
    if failed:
        return f"ledger: {len(failed)} of {len(gated)} gated identities FAIL"
    return f"ledger: all {len(gated)} gated identities PASS"


def render_text(report: InvariantReport) -> str:
    lines = []
    lines.append(f"problem : {report.path or '<memory>'}")
    lines.append(f"vars    : {', '.join(report.problem.ctx.names)}")
    lines.append(f"phi     : {report.problem.phi}")
    lines.append(f"f       : {report.problem.f}")
    lines.append("")
    lines.append("invariants")
    for name in INVARIANT_NAMES:
        value = getattr(report, name)
        shown = value if isinstance(value, int) else "infinite"
        lines.append(f"  {name:<10} = {shown}")
    lines.append("")
    lines.append("ledger")
    width = max(len(e.name) for e in report.ledger) if report.ledger else 4
    for e in report.ledger:
        if e.status == "skip":
            lines.append(f"  {e.name:<{width}}  skip   ({e.reason})")
        else:
            lines.append(
                f"  {e.name:<{width}}  {e.status:<5}  {_fmt_value(e.lhs)} = {_fmt_value(e.rhs)}"
            )
    lines.append("")
    lines.append("timings_ms")
    for stage, ms in report.timings_ms.items():
        lines.append(f"  {stage:<16} = {ms}")
    lines.append("")
    lines.append(summary_line(report))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# corpus


def corpus_row(path: str, report: InvariantReport | None, error: str | None) -> dict:
    if report is None:
        return {"problem": {"path": path}, "error": error}
    payload = report_to_dict(report)
    payload["problem"]["path"] = path
    return payload


def corpus_summary(rows: list[dict]) -> dict:
    """How many rows there are, and how many pass, fail an identity or hit an error."""
    errors = sum("error" in r for r in rows)
    fails = sum(any(e["status"] == "fail" for e in r.get("ledger", ())) for r in rows)
    return {"count": len(rows), "pass": len(rows) - fails - errors, "fail": fails, "error": errors}


def render_corpus_json(rows: list[dict]) -> str:
    return json.dumps({"problems": rows, "summary": corpus_summary(rows)}, indent=2) + "\n"


def render_corpus_text(rows: list[dict]) -> str:
    headers = ["problem", *INVARIANT_NAMES, "ledger"]
    table = []
    for r in rows:
        path = r["problem"]["path"]
        if "error" in r:
            table.append([path, *["-"] * len(INVARIANT_NAMES), f"ERROR: {r['error']}"])
            continue
        inv = [str(r["invariants"][name]) for name in INVARIANT_NAMES]
        gated = [e for e in r["ledger"] if e["status"] != "skip"]
        failed = [e for e in gated if e["status"] == "fail"]
        verdict = (
            f"FAIL ({len(failed)} of {len(gated)})" if failed else f"PASS ({len(gated)} checks)"
        )
        table.append([path, *inv, verdict])
    widths = [len(h) for h in headers]
    for row in table:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    s = corpus_summary(rows)
    lines.append("")
    lines.append("total: {count} problems, {pass} pass, {fail} fail, {error} error".format(**s))
    return "\n".join(lines) + "\n"
