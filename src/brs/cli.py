"""Command-line front end.

Exit codes: 0 when every gated ledger entry passes, 2 on any identity
failure, 1 on input or budget errors, click's usage errors included.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import __version__
from .errors import BrsError, BudgetError, ParseError
from .invariants import analyze
from .oracle import DEFAULT_CAP
from .parsing import _check_max_jet, parse_problem
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


@contextmanager
def _usage_is_input_error():
    # click exits 2 on a usage error, the code of an identity failure here.
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_INPUT_ERROR
        raise


class _Group(click.Group):
    """A click group whose usage errors, its own or a command's, exit 1."""

    def make_context(self, *args, **kwargs):
        with _usage_is_input_error():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_is_input_error():
            return super().invoke(ctx)


@click.group(cls=_Group)
@click.version_option(__version__, prog_name="brs")
def main():
    """Invariants of function germs on hypersurface singularities.

    Computes Milnor, Tjurina and Bruce-Roberts numbers with exact rational
    arithmetic and verifies the identities relating them.
    """


def _run_one(path: Path, oracle, max_jet, budget, tau):
    text = path.read_text(encoding="utf-8")
    parsed = parse_problem(text)
    return parsed, analyze(
        parsed.problem,
        path=str(path),
        oracle=bool(oracle or parsed.oracle),
        max_jet=parsed.max_jet if max_jet is None else max_jet,
        tau_check=tau,
        budget=budget if budget is not None else DEFAULT_BUDGET,
    )


def _max_jet(ctx, param, value):
    # Checked by the problem file's own rule, before any problem is read.
    try:
        return value if value is None else _check_max_jet(value)
    except ParseError as exc:
        click.echo(f"error: --max-jet: {exc.message}", err=True)
        sys.exit(EXIT_INPUT_ERROR)


def _run_options(command):
    """The options `check` and `corpus` share."""
    options = (
        click.option("--oracle", is_flag=True, default=None, help="Cross-check every colength with the engine that did not produce it."),
        click.option("--max-jet", type=int, default=None, callback=_max_jet, help=f"Oracle truncation cap (default {DEFAULT_CAP})."),
        click.option("--budget", type=int, default=None, envvar="BRS_BUDGET", help="Pair budget for standard bases."),
        click.option("--tau", is_flag=True, help="Also verify the module-quotient form of the Tjurina number."),
    )
    for option in reversed(options):
        command = option(command)
    return command


@main.command()
@click.argument("file", type=str)
@_run_options
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default=None, help="Output format.")
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
    if (fmt or parsed.fmt) == "json":
        click.echo(render_json(report), nl=False)
    else:
        click.echo(render_text(report), nl=False)
    sys.exit(EXIT_IDENTITY_FAILURE if report.failed else EXIT_OK)


@main.command()
@click.argument("directory", type=str)
@_run_options
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", help="Output format.")
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
