"""Command-line front end.

Exit codes: 0 when every gated ledger entry passes, 2 on any identity
failure, 1 on input or budget errors.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .errors import BrsError, BudgetError
from .invariants import analyze
from .oracle import DEFAULT_CAP
from .parsing import parse_problem
from .report import (
    corpus_row,
    render_corpus_json,
    render_corpus_text,
    render_json,
    render_text,
)
from .stdbasis import DEFAULT_BUDGET

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_IDENTITY_FAILURE = 2


@click.group()
@click.version_option(package_name="brs", prog_name="brs")
def main():
    """Invariants of function germs on hypersurface singularities.

    Computes Milnor, Tjurina and Bruce-Roberts numbers with exact rational
    arithmetic and verifies the identities relating them.
    """


def _effective(cli_value, file_value, default):
    if cli_value is not None:
        return cli_value
    if file_value is not None:
        return file_value
    return default


def _run_one(path: Path, oracle, max_jet, budget, tau):
    text = path.read_text(encoding="utf-8")
    parsed = parse_problem(text)
    return parsed, analyze(
        parsed.problem,
        path=str(path),
        oracle=_effective(oracle, parsed.oracle or None, False),
        max_jet=parsed.max_jet if max_jet is None else max_jet,
        tau_check=tau,
        budget=budget if budget is not None else DEFAULT_BUDGET,
    )


@main.command()
@click.argument("file", type=str)
@click.option("--oracle", is_flag=True, default=None, help="Cross-check every colength with the engine that did not produce it.")
@click.option("--max-jet", type=int, default=None, help=f"Oracle truncation cap (default {DEFAULT_CAP}).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default=None, help="Output format.")
@click.option("--budget", type=int, default=None, envvar="BRS_BUDGET", help="Pair budget for standard bases.")
@click.option("--tau", is_flag=True, help="Also verify the module-quotient form of the Tjurina number (slow).")
def check(file, oracle, max_jet, fmt, budget, tau):
    """Analyze one problem file and print its invariant report."""
    path = Path(file)
    if not path.is_file():
        click.echo(f"error: no such file: {path}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    try:
        parsed, report = _run_one(path, oracle, max_jet, budget, tau)
    except BudgetError as exc:
        click.echo(f"error: budget exceeded: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    except BrsError as exc:
        click.echo(f"error: {path}: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    out_fmt = _effective(fmt, parsed.fmt, "text")
    if out_fmt == "json":
        click.echo(render_json(report), nl=False)
    else:
        click.echo(render_text(report), nl=False)
    sys.exit(EXIT_IDENTITY_FAILURE if report.failed else EXIT_OK)


@main.command()
@click.argument("directory", type=str)
@click.option("--oracle", is_flag=True, default=None, help="Cross-check every colength with the engine that did not produce it.")
@click.option("--max-jet", type=int, default=None, help=f"Oracle truncation cap (default {DEFAULT_CAP}).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", help="Output format.")
@click.option("--budget", type=int, default=None, envvar="BRS_BUDGET", help="Pair budget for standard bases.")
@click.option("--tau", is_flag=True, help="Also verify the module-quotient form of the Tjurina number (slow).")
def corpus(directory, oracle, max_jet, fmt, budget, tau):
    """Analyze every .brs problem file in a directory."""
    root = Path(directory)
    if not root.is_dir():
        click.echo(f"error: no such directory: {root}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    rows = []
    any_fail = False
    any_error = False
    for path in sorted(root.glob("*.brs")):
        try:
            _, report = _run_one(path, oracle, max_jet, budget, tau)
        except BrsError as exc:
            rows.append(corpus_row(str(path), None, str(exc)))
            any_error = True
            continue
        rows.append(corpus_row(str(path), report, None))
        any_fail = any_fail or report.failed
    if fmt == "json":
        click.echo(render_corpus_json(rows), nl=False)
    else:
        click.echo(render_corpus_text(rows), nl=False)
    if any_fail:
        sys.exit(EXIT_IDENTITY_FAILURE)
    if any_error:
        sys.exit(EXIT_INPUT_ERROR)
    sys.exit(EXIT_OK)
