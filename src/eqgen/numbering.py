"""Number extraction, symbol assignment, and text/equation alignment.

Numbers found in problem text are replaced by placeholder symbols so the
model never sees concrete values. A number's symbol takes its prefix from
its value, with one global index counter running over text positions:

    M_i  negative numbers
    F_i  fractions strictly between 0 and 1
    N_i  everything else

One regex match reads a whole number: a sign at a natural boundary, an
integer, decimal, thousands-separated, fraction or mixed number, and a
trailing percent sign.

Alignment rewrites a concrete gold equation list into a template over these
symbols. Because surface forms vary ("3 1/3" in text may appear as 3.33 or
10/3 in the equation), each extracted number carries a set of value
variants, and each literal takes the best-ranked number whose variants hold
its value and after which the rest can still be read, in one pass with no
search. A small whitelist of constants (0..10 and 100) may stay literal,
covering derivation constants that never appear in the text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import equations
from .equations import ParseError, Token

WHITELIST_TOKENS = ("0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "100")
WHITELIST = frozenset(map(Fraction, WHITELIST_TOKENS))


class UnalignableError(Exception):
    """Some equation literal matches no text-number variant and is not whitelisted."""


@dataclass(frozen=True)
class ExtractedNumber:
    start: int
    end: int
    surface: str
    value: Fraction
    index: int  # 1-based global position in text
    # what else the surface may stand for: a mixed number's whole and
    # fraction (unsigned), the signed number before a percent sign
    other_values: tuple[Fraction, ...] = ()

    @property
    def symbol(self) -> str:
        v = self.value
        return f"{'M' if v < 0 else 'F' if 0 < v < 1 else 'N'}_{self.index}"


# a minus is a sign only at the start or after a natural boundary
_NUMBER_RE = re.compile(
    r"(?P<sign>(?<![^ \t\n(\[{=,;:])-)?"
    r"(?:(?:(?P<whole>\d+) +)?(?P<num>\d+)/(?P<den>\d+)"
    r"|(?P<plain>\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d*\.\d+|\d+))"
    r"(?P<percent> ?%)?"
)


def extract_numbers(text: str) -> list[ExtractedNumber]:
    """Left-to-right, non-overlapping, longest-match number extraction.

    Recognizes integers, decimals, thousands separators, signed numbers,
    percents ("5%" -> 1/20), simple fractions ("1/3"), and mixed numbers
    ("3 1/3" -> 10/3). A fraction over 0 is no number; a part with more
    digits than Python converts raises ValueError.
    """
    out: list[ExtractedNumber] = []
    for m in _NUMBER_RE.finditer(text):
        others: tuple[Fraction, ...] = ()
        if m["den"] is None:
            value = Fraction(m["plain"].replace(",", ""))
        else:
            whole = int(m["whole"] or 0)
            try:
                frac = Fraction(int(m["num"]), int(m["den"]))
            except ZeroDivisionError:
                continue
            value = whole + frac
            if m["whole"] is not None:
                others = (Fraction(whole), frac)
        if m["sign"]:
            value = -value
        if m["percent"]:
            others += (value,)
            value /= 100
        out.append(ExtractedNumber(m.start(), m.end(), m[0], value, len(out) + 1, others))
    return out


def variants(n: ExtractedNumber) -> set[Fraction]:
    """All values the same surface form may take in a gold equation: the
    value, its other values, and each non-integer one truncated and
    rounded half away from zero to 1-4 decimal places."""
    vals = {n.value, *n.other_values}
    half = Fraction(1, 2)
    for v in [v for v in vals if v.denominator != 1]:
        for scale in (10, 100, 1000, 10000):
            s = v * scale
            vals.add(Fraction(math.trunc(s), scale))
            vals.add(Fraction(math.trunc(s + half if s > 0 else s - half), scale))
    return vals


@dataclass
class NumberMapping:
    """Ordered extracted numbers plus the symbol -> value assignment."""

    numbers: list[ExtractedNumber]
    by_symbol: dict[str, Fraction] = field(init=False)

    def __post_init__(self):
        self.by_symbol = {n.symbol: n.value for n in self.numbers}


@dataclass(frozen=True)
class EquationTemplate:
    """Gold equations with literals replaced by number-token symbols."""

    tokens: tuple[str, ...]


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Reading:
    """One way to interpret a literal occurrence in the token stream."""

    value: Fraction
    first: int  # first token index covered (minus sign when absorbed)
    last: int  # last token index covered (fraction denominator when composite)


def _is_unary_minus(tokens: list[Token], i: int) -> bool:
    if i < 0 or tokens[i].kind != "OP" or tokens[i].text != "-":
        return False
    if i == 0:
        return True
    prev = tokens[i - 1]
    return prev.kind in ("OP", "LPAREN", "EQ", "SEMI")


def _readings(tokens: list[Token], t: int) -> list[_Reading]:
    """Plain value, sign-absorbed, literal fraction a/b, and signed fraction."""
    v = tokens[t].value
    out = [_Reading(v, t, t)]
    composite = None
    if (
        t + 2 < len(tokens)
        and tokens[t + 1].kind == "OP"
        and tokens[t + 1].text == "/"
        and tokens[t + 2].kind == "NUM"
        and tokens[t + 2].value != 0
        and not (t + 3 < len(tokens) and tokens[t + 3].kind == "OP" and tokens[t + 3].text == "^")
        and not (t > 0 and tokens[t - 1].kind == "OP" and tokens[t - 1].text == "^")
    ):
        composite = v / tokens[t + 2].value
        out.append(_Reading(composite, t, t + 2))
    if _is_unary_minus(tokens, t - 1):
        out.append(_Reading(-v, t - 1, t))
        if composite is not None:
            out.append(_Reading(-composite, t - 1, t + 2))
    return out


def align(numbers: list[ExtractedNumber], gold_equations: str) -> EquationTemplate:
    """Rewrite concrete gold equations into a symbol template.

    A literal's options pair each of its readings (``_readings``) with each
    text number that has the reading's value among its variants; a plain
    whitelisted constant may also stay literal. Each literal takes the
    first option after which the rest can still be read, in the order:
    unbound number at its canonical value, unbound number at a variant,
    literal constant, bound number at its canonical value, bound number at
    a variant, ties to the lowest text index. Binding a number reorders
    options but adds or removes none, so readability from each position on
    is fixed by one backward pass, and one forward pass makes the choices
    a depth-first search in that order would make. Raises UnalignableError
    when the gold equations do not parse or cannot all be read.
    """
    try:
        tokens = equations.tokenize(gold_equations)
        equations.parse(tokens)
    except ParseError as e:
        raise UnalignableError(f"gold equations do not parse: {e}") from e
    variant_sets = [(n, variants(n)) for n in numbers]
    # readable[p]: the tokens from p on can all be read. options[t]: the
    # options of the literal at t with a readable continuation, ranked as if
    # no number were bound: canonical value, variant, constant, text index
    readable = [True] * (len(tokens) + 1)
    options: dict[int, list[tuple[_Reading, ExtractedNumber | None]]] = {}
    for t in reversed(range(len(tokens))):
        if tokens[t].kind != "NUM":
            readable[t] = readable[t + 1]
            continue
        found = []
        for reading in _readings(tokens, t):
            if readable[reading.last + 1]:
                found += [(reading, n) for n, vset in variant_sets if reading.value in vset]
                if reading.first == reading.last and reading.value in WHITELIST:
                    found.append((reading, None))
        found.sort(key=lambda o: (2, 0) if o[1] is None else (o[0].value != o[1].value, o[1].index))
        options[t] = found
        readable[t] = bool(found)
    if not readable[0]:
        raise UnalignableError("no consistent literal-to-number assignment")
    used: set[int] = set()
    out: list[str] = []
    t = 0
    while t < len(tokens):
        if tokens[t].kind != "NUM":
            out.append(tokens[t].text)
            t += 1
            continue
        # a bound number comes last, after the literal constant
        reading, n = next((o for o in options[t] if o[1] is None or o[1].index not in used), options[t][0])
        if reading.first < t:
            out.pop()  # the unary minus the reading absorbs
        if n is None:
            out.append(str(reading.value))
        else:
            out.append(n.symbol)
            used.add(n.index)
        t = reading.last + 1
    return EquationTemplate(tuple(out))


_OPERAND_ENDS = frozenset({"NUM", "IDENT", "RPAREN"})
_OPERAND_STARTS = frozenset({"NUM", "IDENT", "LPAREN"})


def join_tokens(tokens: Sequence[Token]) -> str:
    """The tokens' texts joined, with a space only where one operand's end
    (a number, a name or ')') meets the next one's start (a number, a name
    or '('), so two operands in a row read back as two tokens. Well-formed
    equations have no such place and join with no space at all."""
    parts: list[str] = []
    for i, tok in enumerate(tokens):
        if i and tokens[i - 1].kind in _OPERAND_ENDS and tok.kind in _OPERAND_STARTS:
            parts.append(" ")
        parts.append(tok.text)
    return "".join(parts)


_WORD_RE = re.compile(r"[a-z]+|[0-9]+|[^\sa-z0-9]")


def source_tokens(text: str, numbers: list[ExtractedNumber]) -> list[str]:
    """Lowercased word/punctuation tokens with number spans replaced by
    their symbols; this is the sequence fed to the encoder."""
    out: list[str] = []
    pos = 0
    for n in numbers:
        out.extend(_WORD_RE.findall(text[pos : n.start].lower()))
        out.append(n.symbol)
        pos = n.end
    out.extend(_WORD_RE.findall(text[pos:].lower()))
    return out
