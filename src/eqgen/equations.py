"""Equation parsing, exact solving, and answer checking.

Grammar (';' separates equations, each equation has exactly one '='):

    program  = equation { ';' equation }
    equation = expr '=' expr
    expr     = term  { ('+'|'-') term }          left associative
    term     = unary { ('*'|'/') unary }         left associative
    unary    = '-' unary | power
    power    = atom [ '^' unary ]                right associative
    atom     = NUMBER | IDENT | '(' expr ')'

Precedence is ^ > unary minus > * / > + -, so "-2^2" is -(2^2) and
"-2*3" is (-2)*3. Identifiers are the variables x, y, z or number-token
symbols such as N_1 / M_2 / F_3.

Parsing evaluates as it reads: each equation becomes the polynomial
lhs - rhs in x, y, z with exact rational coefficients, or None once it
leaves the solver's fragment (division by zero or by an expression with
variables, a negative power of zero or of a variable expression, a power
whose result would hold more than about 4096 bits). An exponent must be an
integer literal with |exp| <= 3, checked when the '^' is read. A literal
is a number, or literals combined only by parentheses, unary minus or
division by a non-zero literal: "x^(4/2)" is x^2, while "x^(1+1)", "x^y"
and "x^(4/0)" are ill-formed.

Given a problem's symbol table, the tokenizer reads each number symbol as
that number, so ``reward`` parses a template's tokens as they are, with no
text assembled in between. A symbol read without a table still parses,
and its equation solves to unsupported.

Solving is exact: linear systems in up to three variables go through
rational Gaussian elimination, a single univariate equation of degree two
through the quadratic formula (rational roots stay exact, irrational ones
become floats). Everything else is reported as unsupported, which callers
count as a wrong answer.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

VARIABLES = ("x", "y", "z")
_SYMBOL_RE = re.compile(r"^[NMF]_\d+$")

ANSWER_REL_TOL = 1e-4
# a power leaves the fragment when its exponent times the bits of its base's
# coefficients passes this, which stops nested powers tripling them per level
_MAX_POWER_BITS = 4096


def is_symbol(token: str) -> bool:
    """True for a number-token placeholder such as N_1, M_2 or F_3."""
    return _SYMBOL_RE.match(token) is not None


def format_value(value: Fraction) -> str:
    """Literal form that parses back to the exact value; negative and
    non-integer values are parenthesized so they survive any context."""
    if value >= 0 and value.denominator == 1:
        return str(value)
    return f"({value})"


class ParseError(ValueError):
    """The input is not a well-formed equation list."""


class UnknownSymbolError(KeyError):
    """A template references a symbol that the symbol table does not define."""


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # NUM, IDENT, OP, LPAREN, RPAREN, EQ, SEMI
    text: str
    value: Fraction | None = None


# each group is named by the kind of token it reads
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<NUM>\d+\.\d*|\.\d+|\d+)|(?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<OP>[-+*/^])|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<EQ>=)|(?P<SEMI>;))"
)


def tokenize(text: str, symbols: Mapping[str, Fraction] | None = None) -> list[Token]:
    """Whitespace-separated tokens. With ``symbols``, a number symbol reads
    as a NUM token written by ``format_value`` (``N_1 N_2`` is two numbers),
    and one the table does not define raises UnknownSymbolError."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stray = text[pos:].lstrip()
            if not stray:
                break
            raise ParseError(f"unexpected character {stray[0]!r} at position {pos}")
        pos = m.end()
        kind = m.lastgroup
        s = m.group(kind)
        if kind == "NUM":
            try:
                tokens.append(Token(kind, s, Fraction(s)))
            except ValueError:  # past Python's limit on the digits of an int read from text
                raise ParseError(f"number {s[:8]}... of {len(s)} characters has too many digits") from None
        elif kind == "IDENT" and symbols is not None and is_symbol(s):
            value = symbols.get(s)
            if value is None:
                raise UnknownSymbolError(s)
            tokens.append(Token("NUM", format_value(value), value))
        else:
            tokens.append(Token(kind, s))
    return tokens


# ---------------------------------------------------------------------------
# parsing to polynomials
# ---------------------------------------------------------------------------

# a polynomial is {(ex, ey, ez): Fraction}
_Poly = dict[tuple[int, int, int], Fraction]
_ZERO, _ONE = Fraction(0), Fraction(1)
_VAR_KEYS = {v: tuple(int(i == j) for j in range(3)) for i, v in enumerate(VARIABLES)}


def _pconst(c: Fraction) -> _Poly:
    return {(0, 0, 0): c} if c else {}


def _padd(a: _Poly, b: _Poly) -> _Poly:
    out = dict(a)
    for k, v in b.items():
        s = out[k] + v if k in out else v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _pneg(a: _Poly) -> _Poly:
    return {k: -v for k, v in a.items()}


def _pmul(a: _Poly, b: _Poly) -> _Poly:
    out: _Poly = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            s = out[k] + va * vb if k in out else va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _as_const(p: _Poly) -> Fraction | None:
    return p.get((0, 0, 0), _ZERO) if p.keys() <= {(0, 0, 0)} else None


# what a rule read: its polynomial, None outside the solver's fragment, and
# whether it is a literal
_Read = tuple[_Poly | None, bool]


def _apply(op: str, a: _Poly | None, a_lit: bool, b: _Poly | None, b_lit: bool) -> _Read:
    """``a op b``; raises ParseError for an exponent that is not an integer
    literal with |e| <= 3, whatever the base."""
    if op == "^":
        e = _as_const(b) if b_lit else None
        if e is None:
            raise ParseError("exponent must be an integer literal")
        if e.denominator != 1 or abs(e) > 3:
            raise ParseError(f"exponent {e} outside the supported range |e| <= 3")
        if a is None or abs(e) * sum(c.numerator.bit_length() + c.denominator.bit_length()
                                     for c in a.values()) > _MAX_POWER_BITS:
            return None, False
        if e < 0:
            c = _as_const(a)  # None for a variable expression, and 0 has no inverse
            return (_pconst(c ** int(e)) if c else None), False
        out = _pconst(_ONE)
        for _ in range(int(e)):
            out = _pmul(out, a)
        return out, False
    if op == "/":
        d = None if b is None else _as_const(b)
        if not d:  # division by zero or by an expression with variables
            return None, False
        if a_lit and b_lit:
            return _pconst(_as_const(a) / d), True
        return (None if a is None else _pmul(a, _pconst(1 / d))), False
    if a is None or b is None:
        return None, False
    return (_pmul(a, b) if op == "*" else _padd(a, b if op == "+" else _pneg(b))), False


_ADD_PREC = 1
_MUL_PREC = 2
_UNARY_PREC = 3
_POW_PREC = 4


class _Parser:
    """Recursive descent over the grammar; each rule returns a ``_Read``,
    literals as the module docstring defines them."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expr(self, min_prec: int = _ADD_PREC) -> _Read:
        lhs, lit = self.unary()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "OP":
                return lhs, lit
            op = tok.text
            prec = _POW_PREC if op == "^" else _MUL_PREC if op in "*/" else _ADD_PREC
            if prec < min_prec:
                return lhs, lit
            self.pos += 1
            next_min = prec if op == "^" else prec + 1  # ^ is right associative
            lhs, lit = _apply(op, lhs, lit, *self.expr(next_min))

    def unary(self) -> _Read:
        tok = self.peek()
        if tok is not None and tok.kind == "OP" and tok.text == "-":
            self.pos += 1
            operand, lit = self.expr(_UNARY_PREC)
            return (None if operand is None else _pneg(operand)), lit
        return self.atom()

    def atom(self) -> _Read:
        tok = self.next()
        if tok.kind == "NUM":
            return _pconst(tok.value), True
        if tok.kind == "IDENT":
            if tok.text in _VAR_KEYS:
                return {_VAR_KEYS[tok.text]: _ONE}, False
            if is_symbol(tok.text):
                return None, False  # a number symbol read without a table
            raise ParseError(f"unknown identifier {tok.text!r}")
        if tok.kind == "LPAREN":
            inner = self.expr()
            closing = self.next()
            if closing.kind != "RPAREN":
                raise ParseError("expected ')'")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}")


def parse(source: str | Sequence[Token], symbols: Mapping[str, Fraction] | None = None) -> tuple[_Poly | None, ...]:
    """Parse a ';'-separated equation list from text, read by ``tokenize``
    with ``symbols``, or from tokens already read, into the tuple of one
    polynomial lhs - rhs per equation (None outside the solver's
    fragment). Raises ParseError when ill-formed, a bad exponent included,
    and UnknownSymbolError as ``tokenize`` does."""
    tokens = tokenize(source, symbols) if isinstance(source, str) else list(source)
    if not tokens:
        raise ParseError("empty input")
    parser = _Parser(tokens)
    polys: list[_Poly | None] = []
    while True:
        lhs, _ = parser.expr()
        tok = parser.next()
        if tok.kind != "EQ":
            raise ParseError(f"expected '=' but found {tok.text!r}")
        rhs, _ = parser.expr()
        polys.append(None if lhs is None or rhs is None else _padd(lhs, _pneg(rhs)))
        tok = parser.peek()
        if tok is None:
            break
        if tok.kind != "SEMI":
            raise ParseError(f"unexpected token {tok.text!r} after equation")
        parser.pos += 1
    return tuple(polys)


# ---------------------------------------------------------------------------
# exact solving
# ---------------------------------------------------------------------------

NumberLike = Union[Fraction, float]


@dataclass(frozen=True)
class SolutionSet:
    """Outcome of solving. ``solutions`` holds one assignment per consistent
    root: a linear system yields a single dict, a quadratic one dict per
    distinct real root."""

    status: str  # solved | no_solution | infinite | unsupported
    solutions: tuple[dict[str, NumberLike], ...] = ()

    def values(self) -> list[NumberLike]:
        return [v for sol in self.solutions for v in sol.values()]


NO_SOLUTION = SolutionSet("no_solution")
INFINITE = SolutionSet("infinite")
UNSUPPORTED = SolutionSet("unsupported")


def _degree(p: _Poly) -> int:
    return max((sum(k) for k in p), default=0)


def _solve_linear(polys: list[_Poly], names: list[str]) -> SolutionSet:
    n = len(names)
    cols = [VARIABLES.index(v) for v in names]
    rows: list[list[Fraction]] = []
    for p in polys:
        row = [p.get(tuple(1 if i == c else 0 for i in range(3)), Fraction(0)) for c in cols]
        row.append(-p.get((0, 0, 0), Fraction(0)))
        rows.append(row)

    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        r += 1
    for i in range(r, len(rows)):
        if rows[i][n] != 0:
            return NO_SOLUTION
    if len(pivot_of_col) < n:
        return INFINITE
    assignment = {names[c]: rows[pivot_of_col[c]][n] for c in range(n)}
    return SolutionSet("solved", (assignment,))


def _exact_sqrt(f: Fraction) -> Fraction | None:
    pn, pd = f.numerator, f.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def _solve_quadratic(p: _Poly, name: str) -> SolutionSet:
    i = VARIABLES.index(name)

    def coeff(e: int) -> Fraction:
        key = tuple(e if j == i else 0 for j in range(3))
        return p.get(key, Fraction(0))

    a, b, c = coeff(2), coeff(1), coeff(0)
    disc = b * b - 4 * a * c
    if disc < 0:
        return NO_SOLUTION
    if disc == 0:
        return SolutionSet("solved", ({name: -b / (2 * a)},))
    root = _exact_sqrt(disc)
    if root is not None:
        r1 = (-b - root) / (2 * a)
        r2 = (-b + root) / (2 * a)
    else:
        try:
            s = math.sqrt(float(disc))
            r1 = (float(-b) - s) / float(2 * a)
            r2 = (float(-b) + s) / float(2 * a)
        except OverflowError:  # irrational roots of coefficients past the float range
            return UNSUPPORTED
    lo, hi = sorted((r1, r2))
    return SolutionSet("solved", ({name: lo}, {name: hi}))


def solve(polys: Sequence[_Poly | None]) -> SolutionSet:
    """Solve the polynomials ``parse`` returns exactly where possible,
    ``UNSUPPORTED`` when any equation left the fragment; see the module
    docstring."""
    if any(p is None for p in polys):
        return UNSUPPORTED
    names = sorted(
        {VARIABLES[i] for p in polys for k in p for i in range(3) if k[i]},
        key=VARIABLES.index,
    )
    degree = max((_degree(p) for p in polys), default=0)
    if degree <= 1:
        if not names:
            return SolutionSet("solved", ({},)) if all(not p for p in polys) else NO_SOLUTION
        return _solve_linear(polys, names)
    if degree == 2 and len(polys) == 1 and len(names) == 1:
        return _solve_quadratic(polys[0], names[0])
    return UNSUPPORTED


# ---------------------------------------------------------------------------
# answer checking and reward
# ---------------------------------------------------------------------------


def _close(a: NumberLike, b: NumberLike) -> bool:
    try:  # in floats; exactly past the float range, where an infinite root is close to nothing
        return abs(float(a) - float(b)) <= ANSWER_REL_TOL * max(1.0, abs(float(b)))
    except OverflowError:
        return a not in (math.inf, -math.inf) and (
            abs(Fraction(a) - Fraction(b)) <= Fraction(ANSWER_REL_TOL) * max(1, abs(Fraction(b))))


def check_answer(sol: SolutionSet, gold: list) -> bool:
    """Multiset comparison of solution values against key answers, each pair
    within |a-b| <= 1e-4 * max(1, |b|). Unsolved statuses are always wrong."""
    if sol.status != "solved":
        return False
    values = sol.values()
    if len(values) != len(gold):
        return False
    return any(
        all(_close(v, g) for v, g in zip(perm, gold))
        for perm in itertools.permutations(values)
    )


def reward(template_tokens, mapping, gold: list) -> int:
    """1 iff the template tokens, each number symbol read as ``mapping``'s
    number, parse, solve and match ``gold`` (``check_answer``), else 0.

    Each token stays one token, so two numbers in a row are ill-formed.
    Total on every token sequence: ill-formed output, unknown symbols,
    unsupported systems, and wrong answers all map to 0.
    """
    if not gold:
        return 0
    try:
        parsed = parse(" ".join(template_tokens), mapping.by_symbol)
    except (ParseError, UnknownSymbolError):
        return 0
    return 1 if check_answer(solve(parsed), gold) else 0
