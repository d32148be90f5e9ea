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


def _verdict(ledger) -> tuple[int, int]:
    """How many rows of a rendered ledger fail, and how many are gated (not skipped)."""
    gated = [e for e in ledger if e["status"] != "skip"]
    return sum(e["status"] == "fail" for e in gated), len(gated)


def render_text(report: InvariantReport) -> str:
    """The text form of `report_to_dict`'s content."""
    d = report_to_dict(report)
    p = d["problem"]
    lines = [f"problem : {p['path'] or '<memory>'}", f"vars    : {', '.join(p['vars'])}"]
    lines += [f"phi     : {p['phi']}", f"f       : {p['f']}", "", "invariants"]
    lines += [f"  {name:<10} = {value}" for name, value in d["invariants"].items()]
    lines += ["", "ledger"]
    width = max((len(e["name"]) for e in d["ledger"]), default=4)
    for e in d["ledger"]:
        if e["status"] == "skip":
            lines.append(f"  {e['name']:<{width}}  skip   ({e['reason']})")
        else:
            lhs, rhs = _fmt_value(e["lhs"]), _fmt_value(e["rhs"])
            lines.append(f"  {e['name']:<{width}}  {e['status']:<5}  {lhs} = {rhs}")
    lines += ["", "timings_ms"]
    lines += [f"  {stage:<16} = {ms}" for stage, ms in d["timings_ms"].items()]
    failed, gated = _verdict(d["ledger"])
    verdict = (
        f"{failed} of {gated} gated identities FAIL" if failed else f"all {gated} gated identities PASS"
    )
    lines += ["", f"ledger: {verdict}"]
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
    fails = sum(_verdict(r.get("ledger", ()))[0] > 0 for r in rows)
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
        failed, gated = _verdict(r["ledger"])
        verdict = f"FAIL ({failed} of {gated})" if failed else f"PASS ({gated} checks)"
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
