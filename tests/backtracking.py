"""Reference: the backtracking aligner.

This is ``numbering.align`` as it was before it became two linear passes:
a depth-first search over (literal -> reading, text number) choices that
re-sorts each literal's candidates by the numbers bound so far and backs
out of a choice whose continuation cannot be read. It takes exponential
time on an unalignable gold equation list, so tests run it on small
inputs only. The one-pass aligner must return the same template, or raise
``UnalignableError`` with the same message, on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from eqgen import equations
from eqgen.equations import ParseError, Token
from eqgen.numbering import WHITELIST, EquationTemplate, ExtractedNumber, UnalignableError, variants

# candidate priorities: lower wins
_P_CANONICAL = 0
_P_VARIANT = 1
_P_WHITELIST = 2
_P_REUSE_CANONICAL = 3
_P_REUSE_VARIANT = 4


@dataclass(frozen=True)
class _Reading:
    """One way to interpret a literal occurrence in the token stream."""

    value: Fraction
    first: int  # first token index covered (minus sign when absorbed)
    last: int  # last token index covered (fraction denominator when composite)
    anchor: int  # index of the NUMBER token that triggered the reading


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
    out = [_Reading(v, t, t, t)]
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
        out.append(_Reading(composite, t, t + 2, t))
    if _is_unary_minus(tokens, t - 1):
        out.append(_Reading(-v, t - 1, t, t))
        if composite is not None:
            out.append(_Reading(-composite, t - 1, t + 2, t))
    return out


def reference_align(numbers: list[ExtractedNumber], gold_equations: str) -> EquationTemplate:
    """Rewrite concrete gold equations into a symbol template.

    Exact backtracking over (equation literal -> text number variant)
    assignments: canonical values are preferred over variants, ties break
    toward the lowest unused text index, whitelisted constants may stay
    literal, and re-using an already bound number is a last resort.
    Raises UnalignableError when no assignment covers every literal.
    """
    try:
        tokens = equations.tokenize(gold_equations)
        equations.parse(tokens)
    except ParseError as e:
        raise UnalignableError(f"gold equations do not parse: {e}") from e
    variant_sets = {n.index: variants(n) for n in numbers}
    by_index = {n.index: n for n in numbers}

    def candidates(t: int, used: set[int]) -> list[tuple[tuple, _Reading, int | None]]:
        found: list[tuple[tuple, _Reading, int | None]] = []
        for reading in _readings(tokens, t):
            for idx, vset in variant_sets.items():
                if reading.value not in vset:
                    continue
                canonical = reading.value == by_index[idx].value
                if idx not in used:
                    prio = _P_CANONICAL if canonical else _P_VARIANT
                else:
                    prio = _P_REUSE_CANONICAL if canonical else _P_REUSE_VARIANT
                found.append(((prio, idx), reading, idx))
            if reading.first == reading.last and reading.value in WHITELIST:
                found.append(((_P_WHITELIST, 0), reading, None))
        found.sort(key=lambda c: c[0])
        return found

    replacements: dict[int, tuple[_Reading, int | None]] = {}

    def search(t: int, used: set[int]) -> bool:
        while t < len(tokens) and tokens[t].kind != "NUM":
            t += 1
        if t >= len(tokens):
            return True
        for _, reading, idx in candidates(t, used):
            replacements[reading.anchor] = (reading, idx)
            if idx is not None and idx not in used:
                used.add(idx)
                if search(reading.last + 1, used):
                    return True
                used.discard(idx)
            else:
                if search(reading.last + 1, used):
                    return True
            del replacements[reading.anchor]
        return False

    if not search(0, set()):
        raise UnalignableError("no consistent literal-to-number assignment")

    spans = {r.first: (r, idx) for r, idx in replacements.values()}
    out: list[str] = []
    i = 0
    while i < len(tokens):
        if i in spans:
            reading, idx = spans[i]
            if idx is None:
                out.append(str(reading.value))
            else:
                out.append(by_index[idx].symbol)
            i = reading.last + 1
        else:
            out.append(tokens[i].text)
            i += 1
    return EquationTemplate(tuple(out))
