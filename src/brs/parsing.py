"""Parsers for polynomial expressions and problem files.

Expression grammar: integers, rationals written p/q, variables, + - * ^ and
parentheses.  ^ binds tighter than *, which binds tighter than + and -; unary
minus is allowed; implicit multiplication is not.  The division slash is only
valid between two integer literals, forming an exact rational.

Problem files are line oriented key = value text with # comments:

    vars = x, y, z
    phi  = x^2 + y^3
    f    = y
    oracle = on            # optional, default off
    max_jet = 24           # optional, default 32
    format = json          # or text, default text
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError
from .oracle import DEFAULT_CAP, MIN_CAP
from .polycore import Polynomial, VarContext
from .tangent import HypersurfaceProblem

_KEYS = ("vars", "phi", "f", "oracle", "max_jet", "format")

# Keeps the parser total on adversarial input; no sensible germ needs more.
_MAX_EXPONENT = 4096

# A variable name, and one token per match.  Names and integers stick to
# ASCII, since str.isdigit() and str.isalpha() accept characters like
# superscript digits that int() rejects; any whitespace separates tokens.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(
    rf"(?P<NEWLINE>\n)|(?P<SPACE>[^\S\n]+)|(?P<INT>[0-9]+)|(?P<NAME>{_NAME.pattern})"
    r"|(?P<OP>[-+*^()/])|(?P<BAD>.)",
    re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str  # NAME INT OP END
    text: str
    line: int
    column: int


def _tokenize(src: str, line: int = 1, col: int = 1) -> list[Token]:
    """The tokens of `src`, whose first character sits at (`line`, `col`).

    Every character but a newline takes one column; a newline starts the
    next line at column 1.
    """
    tokens: list[Token] = []
    shift = col  # the column of src[i] on the current line is i + shift
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line, shift = line + 1, 1 - m.end()
        elif kind == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}", line, m.start() + shift)
        elif kind != "SPACE":
            tokens.append(Token(kind, m.group(), line, m.start() + shift))
    tokens.append(Token("END", "", line, len(src) + shift))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], ctx: VarContext):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse(self) -> Polynomial:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            self.fail(f"unexpected {tok.text!r}")
        return value

    def expr(self) -> Polynomial:
        value = self.term()  # a leading minus is the first factor's (`factor`)
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "*":
                self.take()
                value = value * self.factor()
            elif tok.kind in ("NAME", "INT") or (tok.kind == "OP" and tok.text == "("):
                self.fail(f"unexpected {tok.text!r} (implicit multiplication is not allowed)")
            else:
                return value

    def factor(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.take()
            return -self.factor()
        return self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.take()
            exp_tok = self.peek()
            if exp_tok.kind != "INT":
                self.fail("expected a non-negative integer exponent", exp_tok)
            self.take()
            exponent = int(exp_tok.text)
            if exponent > _MAX_EXPONENT:
                self.fail(f"exponent {exponent} exceeds the cap of {_MAX_EXPONENT}", exp_tok)
            return base ** exponent
        return base

    def atom(self) -> Polynomial:
        tok = self.take()
        if tok.kind == "INT":
            numerator = int(tok.text)
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "/":
                self.take()
                den_tok = self.peek()
                if den_tok.kind != "INT":
                    self.fail("expected an integer denominator", den_tok)
                self.take()
                if int(den_tok.text) == 0:
                    self.fail("zero denominator", den_tok)
                return Polynomial.constant(self.ctx, Fraction(numerator, int(den_tok.text)))
            return Polynomial.constant(self.ctx, numerator)
        if tok.kind == "NAME":
            if tok.text not in self.ctx.names:
                raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.column)
            return self.ctx.variable(self.ctx.index(tok.text))
        if tok.kind == "OP" and tok.text == "(":
            value = self.expr()
            closing = self.take()
            if not (closing.kind == "OP" and closing.text == ")"):
                raise ParseError("expected ')'", closing.line, closing.column)
            return value
        if tok.kind == "END":
            raise ParseError("unexpected end of input", tok.line, tok.column)
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)


def parse_poly(src: str, ctx: VarContext) -> Polynomial:
    """Parse an expression into an exact polynomial over the given context."""
    return _Parser(_tokenize(src), ctx).parse()


@dataclass(frozen=True)
class ProblemFile:
    """Raw content of a problem file before expression parsing."""

    vars: tuple[str, ...]
    phi: str
    f: str
    options: dict[str, str] = field(default_factory=dict)
    # The line of each key and the column of its value, for error positions.
    positions: dict[str, tuple[int, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class ParsedProblem:
    """A validated problem together with its run options."""

    problem: HypersurfaceProblem
    oracle: bool
    max_jet: int
    fmt: str
    source: ProblemFile


def _split_line(raw: str, lineno: int) -> tuple[str, str, int] | None:
    """The key, the value and the value's column of one line; None when blank."""
    body = raw.split("#", 1)[0]
    if not body.strip():
        return None
    if "=" not in body:
        raise ParseError("expected key = value", lineno, 1)
    key, value = body.split("=", 1)
    return key.strip(), value.strip(), len(body) - len(value.lstrip()) + 1


def read_problem_file(src: str) -> ProblemFile:
    """Line-level pass: keys, raw values, duplicate and unknown-key checks."""
    seen: dict[str, str] = {}
    positions: dict[str, tuple[int, int]] = {}
    for lineno, raw in enumerate(src.splitlines(), start=1):
        kv = _split_line(raw, lineno)
        if kv is None:
            continue
        key, value, column = kv
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", lineno, 1)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        if not value:
            raise ParseError(f"empty value for {key!r}", lineno, 1)
        seen[key] = value
        positions[key] = (lineno, column)
    for required in ("vars", "phi", "f"):
        if required not in seen:
            raise ParseError(f"missing field {required!r}")
    names = tuple(part.strip() for part in seen["vars"].split(","))
    if any(not name for name in names):
        raise ParseError("empty variable name in vars", *positions["vars"])
    for name in names:
        if not _NAME.fullmatch(name):
            raise ParseError(f"invalid variable name {name!r}", *positions["vars"])
    options = {k: v for k, v in seen.items() if k not in ("vars", "phi", "f")}
    return ProblemFile(names, seen["phi"], seen["f"], options, positions)


def _check_max_jet(max_jet: int, line: int = 1, column: int = 1) -> int:
    """An oracle cap, from a file's max_jet key or the CLI: at least MIN_CAP."""
    if max_jet < MIN_CAP:
        raise ParseError(f"max_jet must be at least {MIN_CAP}", line, column)
    return max_jet


def parse_problem(src: str) -> ParsedProblem:
    """Parse and validate a full problem file.

    An error names the line of its key; in an expression, also the column.
    `HypersurfaceProblem` enforces the germ conditions: phi and f must
    vanish at the origin and phi must be nonzero.
    """
    pf = read_problem_file(src)
    at = pf.positions
    if len(set(pf.vars)) != len(pf.vars):
        raise ParseError(f"duplicate variable names in vars: {', '.join(pf.vars)}", *at["vars"])
    ctx = VarContext(pf.vars)
    phi = _Parser(_tokenize(pf.phi, *at["phi"]), ctx).parse()
    f = _Parser(_tokenize(pf.f, *at["f"]), ctx).parse()
    problem = HypersurfaceProblem(ctx=ctx, phi=phi, f=f)

    oracle_raw = pf.options.get("oracle", "off")
    if oracle_raw not in ("on", "off"):
        raise ParseError(f"oracle must be on or off, got {oracle_raw!r}", *at["oracle"])
    max_jet_raw = pf.options.get("max_jet", str(DEFAULT_CAP))
    try:
        max_jet = int(max_jet_raw)
    except ValueError:
        message = f"max_jet must be an integer, got {max_jet_raw!r}"
        raise ParseError(message, *at["max_jet"]) from None
    _check_max_jet(max_jet, *at.get("max_jet", ()))
    fmt = pf.options.get("format", "text")
    if fmt not in ("text", "json"):
        raise ParseError(f"format must be text or json, got {fmt!r}", *at["format"])
    return ParsedProblem(
        problem=problem, oracle=oracle_raw == "on", max_jet=max_jet, fmt=fmt, source=pf
    )
