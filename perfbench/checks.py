"""Output checks written apart from the code they check.

- ``satisfied`` / ``answers_satisfy``: an exact equation evaluator over
  ``fractions.Fraction``. It has its own tokenizer and parser and imports
  nothing from ``eqgen.equations``, so a fault in eqgen's parser or solver
  cannot also hide in the check.
- ``fd_mismatches``: central differences of a scalar loss at sampled
  parameter coordinates, compared with an analytic gradient.
- ``rescore_mismatches``: the teacher-forced log-probability of each beam
  hypothesis, computed in one batched decoder pass with its own
  log-softmax, compared with the score beam search returned.
- ``vote_mismatch``: the vote must return the higher-scoring top
  hypothesis in reading order, ties going to left-to-right.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from eqgen import model, numerics

VARIABLES = ("x", "y", "z")
MAX_EXPONENT = 3

_TOKEN_RE = re.compile(r"\s*(\d+\.\d*|\.\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()=;])")


class EvalError(ValueError):
    """The token list is not an equation list this evaluator can decide."""


def tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while text[pos:].strip():
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise EvalError(f"bad character at {pos} in {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Expr:
    """Recursive descent with eqgen's documented precedence:
    ^ (right assoc) > unary minus > * / > + -."""

    def __init__(self, tokens: Sequence[str], env: Mapping[str, Fraction]):
        self.toks = list(tokens)
        self.env = env
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected=None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise EvalError(f"expected {expected or 'a token'} at {self.i}, got {tok!r}")
        self.i += 1
        return tok

    def expr(self) -> Fraction:
        value = self.term()
        while self.peek() in ("+", "-"):
            value = value + self.term() if self.take() == "+" else value - self.term()
        return value

    def term(self) -> Fraction:
        value = self.unary()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                value *= self.unary()
            else:
                divisor = self.unary()
                if divisor == 0:
                    raise EvalError("division by zero")
                value /= divisor
        return value

    def unary(self) -> Fraction:
        if self.peek() == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> Fraction:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        exp = self.unary()
        if exp.denominator != 1 or abs(exp) > MAX_EXPONENT or (base == 0 and exp < 0):
            raise EvalError(f"unsupported exponent {exp}")
        return base ** int(exp)

    def atom(self) -> Fraction:
        tok = self.take()
        if tok == "(":
            value = self.expr()
            self.take(")")
            return value
        if tok[0].isdigit() or tok[0] == ".":
            return Fraction(tok)
        if tok in self.env:
            return Fraction(self.env[tok])
        raise EvalError(f"unbound name {tok!r}")


def _side(tokens: Sequence[str], env) -> Fraction:
    p = _Expr(tokens, env)
    value = p.expr()
    if p.peek() is not None:
        raise EvalError(f"trailing token {p.peek()!r}")
    return value


def satisfied(tokens: Sequence[str], env: Mapping[str, Fraction]) -> bool:
    """True iff every ';'-separated equation holds exactly under env;
    anything the evaluator cannot decide counts as not satisfied."""
    try:
        for eq in _split(tokens, ";"):
            sides = _split(eq, "=")
            if len(sides) != 2:
                raise EvalError("an equation needs exactly one '='")
            if _side(sides[0], env) != _side(sides[1], env):
                return False
        return True
    except EvalError:
        return False


def _split(tokens: Sequence[str], sep: str) -> list[list[str]]:
    parts: list[list[str]] = [[]]
    for tok in tokens:
        if tok == sep:
            parts.append([])
        else:
            parts[-1].append(tok)
    return parts


def answers_satisfy(tokens: Sequence[str], symbols: Mapping[str, Fraction], answers) -> bool:
    """Do the key answers satisfy these equations? With as many variables as
    answers, some assignment of answers to variables must satisfy every
    equation; with one variable and several answers (roots), each must."""
    answers = [Fraction(str(a)) for a in answers]
    names = [v for v in VARIABLES if v in tokens]
    if not names or not answers:
        return False
    if len(names) == len(answers):
        return any(
            satisfied(tokens, {**symbols, **dict(zip(names, perm))})
            for perm in itertools.permutations(answers)
        )
    if len(names) == 1:
        return all(satisfied(tokens, {**symbols, names[0]: a}) for a in answers)
    return False


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def fd_mismatches(
    loss: Callable[[], float],
    tensors: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    coords: Sequence[tuple[str, int]],
    steps: Sequence[float] = (1e-6, 1e-7, 1e-8),
    tol: float = 1e-4,
) -> list[tuple[str, int, float, float]]:
    """Central differences of ``loss()`` at each (tensor name, flat index),
    moving ``tensors[name]`` in place and restoring it. Returns the
    coordinates where |analytic - numeric| > tol * max(1, |numeric|) at
    every step in ``steps``, with the numeric value at the last step.

    A step that moves a ReLU input across zero mixes two slopes, so a
    mismatch is tried again with the next, smaller step; a wrong gradient
    stays wrong at every step."""
    bad = []
    for name, idx in coords:
        flat = tensors[name].reshape(-1)
        orig = flat[idx]
        analytic = float(grads[name].reshape(-1)[idx])
        for h in steps:
            flat[idx] = orig + h
            up = loss()
            flat[idx] = orig - h
            down = loss()
            flat[idx] = orig
            numeric = (up - down) / (2.0 * h)
            if abs(analytic - numeric) <= tol * max(1.0, abs(numeric)):
                break
        else:
            bad.append((name, idx, analytic, numeric))
    return bad


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def rescore_mismatches(params, src_ids, hyps, tol: float = 1e-9) -> list[tuple[int, float, float]]:
    """Re-score one direction's hypotheses with a single padded
    teacher-forced pass of ``model.decoder_forward``. Returns (index,
    returned score, re-score) for every hypothesis off by more than tol."""
    if not hyps:
        return []
    direction = hyps[0].direction
    begin = model.BOS_ID if direction == model.L2R else model.BOSR_ID
    src = np.asarray(src_ids, dtype=np.int64).reshape(1, -1)
    rows, width = len(hyps), max(len(h.tokens) for h in hyps)
    dec_in = np.full((rows, width), model.PAD_ID, dtype=np.int64)
    for i, h in enumerate(hyps):
        dec_in[i, : len(h.tokens)] = (begin,) + tuple(h.tokens[:-1])
    with numerics.no_grad():
        memory = model.encode(params, src)
        mem = numerics.Tensor(np.broadcast_to(memory.data, (rows,) + memory.shape[1:]))
        pad = np.broadcast_to(src == model.PAD_ID, (rows, src.shape[1]))
        logits = model.decoder_forward(params, direction, dec_in, mem, pad)
    logp = _log_softmax(logits.data)
    bad = []
    for i, h in enumerate(hyps):
        want = float(sum(logp[i, t, tok] for t, tok in enumerate(h.tokens)))
        if abs(h.score - want) > tol:
            bad.append((i, h.score, want))
    return bad


def reading_order(hyp) -> list[int]:
    toks = list(hyp.tokens)
    if hyp.finished and toks and toks[-1] == model.EOS_ID:
        toks.pop()
    return toks[::-1] if hyp.direction == model.R2L else toks


def vote_mismatch(voted: Sequence[int], top_l2r, top_r2l) -> bool:
    """True when ``voted`` is not the higher-scoring top hypothesis (ties
    to left-to-right) in reading order."""
    winner = top_l2r if top_l2r.score >= top_r2l.score else top_r2l
    return list(voted) != reading_order(winner)
