"""Synthetic problem generation, dataset IO, vocabularies, folds, evaluation.

The generator stands in for a real math-word-problem corpus: each template
family produces a short problem text, a concrete gold equation list, and
answers computed by the exact solver at generation time. Distractor
sentences inject numbers that do not occur in the equations, so symbol
indices shift and the model has to learn which numbers matter. The JSONL
schema {id, text, equations, answers} accepts any real dataset dropped in
the same format.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import decoding, equations, numbering
from .model import ModelConfig, ModelParams, NUM_RESERVED, UNK_ID
from .numbering import (
    EquationTemplate,
    NumberMapping,
    UnalignableError,
    WHITELIST_TOKENS,
    align,
    extract_numbers,
    source_tokens,
)

MAX_SYMBOL_INDEX = 12

RESERVED_TOKENS = ("<pad>", "<bos>", "<bos_r>", "<eos>", "<unk>")

TARGET_OPERATORS = ("+", "-", "*", "/", "^", "(", ")", "=", ";")
TARGET_VARIABLES = equations.VARIABLES


class DatasetError(ValueError):
    """A dataset file or record violates the JSONL schema."""


class TemplateError(ValueError):
    """Unknown generator template name."""


@dataclass
class Problem:
    id: str
    text: str
    equations: str
    answers: list

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "text": self.text,
            "equations": self.equations,
            "answers": [str(a) for a in self.answers],
        }


@dataclass
class PreparedInstance:
    """A problem after number extraction and (when possible) alignment."""

    problem: Problem
    mapping: NumberMapping
    source: list[str]
    template: Optional[EquationTemplate]

    @property
    def alignable(self) -> bool:
        return self.template is not None


def prepare(problem: Problem) -> PreparedInstance:
    try:  # preprocess and the reward write each number as text; Python writes ints of at most 4300 digits
        numbers = extract_numbers(problem.text)
        for n in numbers:
            str(n.value)
    except ValueError:
        raise DatasetError(f"problem {problem.id}: a number in its text has too many digits") from None
    mapping = NumberMapping(numbers)
    source = source_tokens(problem.text, numbers)
    template: Optional[EquationTemplate] = None
    if problem.equations and len(numbers) <= MAX_SYMBOL_INDEX:
        try:
            template = align(numbers, problem.equations)
        except UnalignableError:
            template = None
    return PreparedInstance(problem, mapping, source, template)


def prepare_all(problems: Sequence[Problem]) -> tuple[list[PreparedInstance], int]:
    """Prepare every problem; returns (instances, number unalignable)."""
    instances = [prepare(p) for p in problems]
    return instances, sum(1 for i in instances if not i.alignable)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def _gen_sum_diff(rng: random.Random):
    y = rng.randint(1, 40)
    x = y + rng.randint(1, 40)
    s, d = x + y, x - y
    text = rng.choice(
        [
            f"The sum of two numbers is {s} and their difference is {d} . Find the numbers .",
            f"Two numbers add up to {s} . Their difference is {d} . What are they ?",
            f"If the sum of two numbers is {s} and one exceeds the other by {d} , what are the numbers ?",
        ]
    )
    return text, f"x+y={s};x-y={d}"


def _gen_linear(rng: random.Random):
    a = rng.randint(2, 12)
    x = rng.randint(2, 20)
    b = rng.randint(11, 60)
    c = a * x + b
    text = rng.choice(
        [
            f"If {a} times a number plus {b} equals {c} , find the number .",
            f"A number multiplied by {a} and increased by {b} gives {c} . What is the number ?",
            f"{a} times a number increased by {b} is {c} . Find it .",
        ]
    )
    return text, f"{a}*x+{b}={c}"


def _gen_percent(rng: random.Random):
    p = rng.randrange(5, 96)
    b = rng.randrange(12, 400)
    text = rng.choice(
        [
            f"What is {p}% of {b} ?",
            f"A shop offers {p}% off an item costing {b} dollars . How much is taken off ?",
            f"Find {p}% of {b} .",
        ]
    )
    return text, f"x=0.{p:02d}*{b}"


def _gen_consecutive(rng: random.Random):
    k = rng.randint(3, 50)
    total = 3 * k + 3
    text = rng.choice(
        [
            f"The sum of three consecutive integers is {total} . What is the smallest ?",
            f"Three consecutive integers add up to {total} . Find the smallest one .",
        ]
    )
    return text, f"x+x+1+x+2={total}"


def _gen_square(rng: random.Random):
    k = rng.randint(4, 30)
    area = k * k
    text = rng.choice(
        [
            f"The area of a square is {area} square meters . Find the side length .",
            f"A square has an area of {area} . What is the length of one side ?",
        ]
    )
    return text, f"x^2={area}"


def _gen_triple(rng: random.Random):
    z = rng.randint(1, 30)
    d2 = rng.randint(1, 15)
    d1 = rng.randint(1, 15)
    y = z + d2
    x = y + d1
    total = x + y + z
    text = rng.choice(
        [
            f"Three numbers total {total} . The first exceeds the second by {d1} and the second exceeds the third by {d2} . Find them .",
            f"The sum of three numbers is {total} . The first is {d1} more than the second , which is {d2} more than the third . What are they ?",
        ]
    )
    return text, f"x+y+z={total};x-y={d1};y-z={d2}"


def _gen_temperature(rng: random.Random):
    a = rng.randint(1, 30)
    b = rng.randint(11, 45)
    text = rng.choice(
        [
            f"The temperature rose from -{a} degrees to {b} degrees . By how many degrees did it rise ?",
            f"Overnight the temperature went from -{a} up to {b} . How big was the change ?",
        ]
    )
    return text, f"x={b}-(-{a})"


TEMPLATES = {
    "sum_diff": _gen_sum_diff,
    "linear": _gen_linear,
    "percent": _gen_percent,
    "consecutive": _gen_consecutive,
    "square": _gen_square,
    "triple": _gen_triple,
    "temperature": _gen_temperature,
}

_DISTRACTORS = (
    "She is {k} years old .",
    "He also bought {k} pencils .",
    "The bus leaves at {k} oclock .",
    "There are {k} students in the class .",
    "It happened {k} days ago .",
)


def synth_gen(
    seed: int,
    n: int,
    templates: Optional[Sequence[str]] = None,
    distractor_rate: float = 0.3,
) -> list[Problem]:
    """Deterministic synthetic corpus; each instance is checked against the
    aligner and the solver before it is emitted. Distractors stop once a
    text holds ``MAX_SYMBOL_INDEX`` numbers, the most ``prepare`` aligns."""
    names = list(templates) if templates else list(TEMPLATES)
    for name in names:
        if name not in TEMPLATES:
            raise TemplateError(f"unknown template {name!r} (have {sorted(TEMPLATES)})")
    rng = random.Random(seed)
    problems: list[Problem] = []
    for i in range(n):
        name = rng.choice(names)
        text, eq = TEMPLATES[name](rng)
        while rng.random() < distractor_rate:
            if len(extract_numbers(text)) >= MAX_SYMBOL_INDEX:
                break  # one more number could not be aligned; draw nothing more
            sentence = rng.choice(_DISTRACTORS).format(k=rng.randint(2, 99))
            parts = text.split(" . ")
            pos = rng.randrange(len(parts))
            parts.insert(pos, sentence.rstrip(" ."))
            text = " . ".join(parts)
        sol = equations.solve(equations.parse(eq))
        if sol.status != "solved":
            raise AssertionError(f"template {name} produced unsolvable {eq!r}")
        answers = sol.values()
        problem = Problem(id=f"syn-{seed}-{i:05d}", text=text, equations=eq, answers=answers)
        inst = prepare(problem)
        if not inst.alignable:
            raise AssertionError(f"template {name} produced unalignable {text!r} / {eq!r}")
        if equations.reward(inst.template.tokens, inst.mapping, answers) != 1:
            raise AssertionError(f"template {name} failed its own round trip: {eq!r}")
        problems.append(problem)
    return problems


# ---------------------------------------------------------------------------
# dataset io
# ---------------------------------------------------------------------------


def save(path, problems: Iterable[Problem]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in problems:
            fh.write(json.dumps(p.to_record()) + "\n")


def load(path) -> list[Problem]:
    """Line-delimited UTF-8 JSON objects {id, text, equations, answers}:
    ``text`` and ``equations`` are strings, ``answers`` a list of decimals
    or p/q rationals, parsed exactly. Raises DatasetError naming the line
    of the first record that breaks this."""
    problems: list[Problem] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise DatasetError(f"line {lineno}: not UTF-8 ({e})") from e
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetError(f"line {lineno}: invalid json ({e})") from e
            if not isinstance(rec, dict):
                raise DatasetError(f"line {lineno}: a record must be a JSON object")
            for key in ("id", "text", "equations", "answers"):
                if key not in rec:
                    raise DatasetError(f"line {lineno}: missing field {key!r}")
            for key, kind in (("text", str), ("equations", str), ("answers", list)):
                if not isinstance(rec[key], kind):
                    raise DatasetError(f"line {lineno}: field {key!r} must be a {kind.__name__}")
            try:
                answers = [Fraction(str(a)) for a in rec["answers"]]
                list(map(str, answers))  # preprocess writes them back: "1e5000" reads, but has too many digits
            except (ValueError, ZeroDivisionError) as e:
                raise DatasetError(f"line {lineno}: bad answer value ({e})") from e
            problems.append(Problem(id=str(rec["id"]), text=rec["text"], equations=rec["equations"], answers=answers))
    return problems


def folds(n_items: int, k: int, seed: int) -> list[list[int]]:
    """Seeded partition into k disjoint index lists with sizes differing by
    at most one."""
    if k < 2:
        raise DatasetError("need at least 2 folds")
    if k > n_items:
        raise DatasetError(f"cannot split {n_items} items into {k} folds")
    idx = list(range(n_items))
    random.Random(seed).shuffle(idx)
    out: list[list[int]] = []
    base, extra = divmod(n_items, k)
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        out.append(sorted(idx[start : start + size]))
        start += size
    return out


# ---------------------------------------------------------------------------
# vocabularies
# ---------------------------------------------------------------------------


def target_token_list(max_symbol_index: int = MAX_SYMBOL_INDEX) -> list[str]:
    """The closed target vocabulary: operators, variables, whitelisted
    constants, and number-token symbols up to the index cap."""
    symbols = [
        f"{prefix}_{i}" for i in range(1, max_symbol_index + 1) for prefix in ("N", "M", "F")
    ]
    return (
        list(RESERVED_TOKENS)
        + list(TARGET_OPERATORS)
        + list(TARGET_VARIABLES)
        + list(WHITELIST_TOKENS)
        + symbols
    )


@dataclass
class Vocabulary:
    src_tokens: list[str]
    tgt_tokens: list[str]
    src_ids: dict[str, int] = field(init=False)
    tgt_ids: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.src_ids = {t: i for i, t in enumerate(self.src_tokens)}
        self.tgt_ids = {t: i for i, t in enumerate(self.tgt_tokens)}

    @classmethod
    def build(cls, instances: Sequence[PreparedInstance]) -> "Vocabulary":
        seen: dict[str, None] = {}
        for inst in instances:
            for tok in inst.source:
                seen.setdefault(tok, None)
        src = list(RESERVED_TOKENS) + sorted(seen)
        return cls(src, target_token_list())

    def encode_source(self, tokens: Sequence[str]) -> list[int]:
        return [self.src_ids.get(t, UNK_ID) for t in tokens]

    def encode_target(self, tokens: Sequence[str]) -> list[int]:
        try:
            return [self.tgt_ids[t] for t in tokens]
        except KeyError as e:
            raise DatasetError(f"target token {e.args[0]!r} outside the closed vocabulary") from e

    def decode_target(self, ids: Sequence[int]) -> list[str]:
        return [self.tgt_tokens[i] if 0 <= i < len(self.tgt_tokens) else "<unk>" for i in ids]

    @property
    def src_size(self) -> int:
        return len(self.src_tokens)

    @property
    def tgt_size(self) -> int:
        return len(self.tgt_tokens)


def fits(config: ModelConfig, source: Sequence) -> bool:
    """Whether the model can read ``source``: 1 to ``config.max_positions`` tokens."""
    return 0 < len(source) <= config.max_positions


def encodable(vocab: Vocabulary, inst: PreparedInstance) -> bool:
    """Training usability: a non-empty source, alignable, and every template
    token in-vocab."""
    if not inst.source or not inst.alignable:
        return False
    return all(t in vocab.tgt_ids for t in inst.template.tokens)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    n: int
    correct_l2r: int
    correct_r2l: int
    correct_vote: int

    @property
    def accuracy_l2r(self) -> float:
        return self.correct_l2r / self.n if self.n else 0.0

    @property
    def accuracy_r2l(self) -> float:
        return self.correct_r2l / self.n if self.n else 0.0

    @property
    def accuracy_vote(self) -> float:
        return self.correct_vote / self.n if self.n else 0.0

    def __add__(self, other: "EvalReport") -> "EvalReport":
        """Report over the union of two disjoint instance sets."""
        return EvalReport(
            self.n + other.n,
            self.correct_l2r + other.correct_l2r,
            self.correct_r2l + other.correct_r2l,
            self.correct_vote + other.correct_vote,
        )

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "answer_accuracy_l2r": self.accuracy_l2r,
            "answer_accuracy_r2l": self.accuracy_r2l,
            "answer_accuracy_vote": self.accuracy_vote,
        }


DECODE_CHUNK_SIZE = 16  # problems per batched beam search in evaluation


def evaluate_each(
    params: ModelParams,
    vocab: Vocabulary,
    instances: Sequence[PreparedInstance],
    beam_size: int = 10,
    max_len: int = 64,
) -> list[EvalReport]:
    """A report of n = 1 for each instance, in order: decode both
    directions, reward each direction's top hypothesis (its tokens read
    with the instance's symbol table, solved and compared with the answers),
    and give the vote the reward of the top it picks. Instances are decoded
    ``DECODE_CHUNK_SIZE`` at a time. Instances that cannot be interpreted at
    any step count as wrong, among them those whose source is longer than
    the model's ``max_positions``; the reports are a pure function of
    (params, instances, flags)."""
    reports = [EvalReport(1, 0, 0, 0)] * len(instances)
    todo = [i for i, inst in enumerate(instances) if inst.problem.answers and fits(params.config, inst.source)]
    for start in range(0, len(todo), DECODE_CHUNK_SIZE):
        chunk = todo[start : start + DECODE_CHUNK_SIZE]
        srcs = [vocab.encode_source(instances[i].source) for i in chunk]
        for i, (hyps_l, hyps_r) in zip(chunk, decoding.decode_batch(params, srcs, beam_size, max_len)):
            inst = instances[i]
            tops = [decoding.canonical_tokens(hyps[0]) for hyps in (hyps_l, hyps_r)]
            correct = [equations.reward(vocab.decode_target(toks), inst.mapping, inst.problem.answers)
                       for toks in tops]
            # the vote returns one of the two tops; equal tops score the same
            voted = decoding.vote(hyps_l[0], hyps_r[0])
            reports[i] = EvalReport(1, *correct, correct[tops.index(voted)])
    return reports


def evaluate(
    params: ModelParams,
    vocab: Vocabulary,
    instances: Sequence[PreparedInstance],
    beam_size: int = 10,
    max_len: int = 64,
) -> EvalReport:
    """The sum of ``evaluate_each``'s reports: counts over all instances."""
    return sum(evaluate_each(params, vocab, instances, beam_size, max_len), EvalReport(0, 0, 0, 0))
