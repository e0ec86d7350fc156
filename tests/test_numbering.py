import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backtracking import reference_align
from eqgen import equations, numbering
from eqgen.equations import UnknownSymbolError
from eqgen.numbering import (
    EquationTemplate,
    NumberMapping,
    UnalignableError,
    WHITELIST,
    align,
    extract_numbers,
    join_tokens,
    source_tokens,
    variants,
)

F = Fraction


def substituted(tokens, mapping):
    """The template tokens as concrete text: what ``tokenize`` reads with the
    mapping's symbol table, joined back by ``join_tokens``."""
    return join_tokens(equations.tokenize(" ".join(tokens), mapping.by_symbol))


class TestExtraction:
    def test_two_integers(self):
        nums = extract_numbers("sum is 27 and difference is 3")
        assert [(n.value, n.symbol) for n in nums] == [
            (F(27), "N_1"),
            (F(3), "N_2"),
        ]

    def test_negative_and_unit_fraction(self):
        nums = extract_numbers("goes through -15 and 0.25")
        assert [(n.value, n.symbol) for n in nums] == [
            (F(-15), "M_1"),
            (F(1, 4), "F_2"),
        ]

    def test_mixed_number_is_one_token(self):
        nums = extract_numbers("3 1/3 cups")
        assert [(n.value, n.symbol) for n in nums] == [(F(10, 3), "N_1")]

    def test_simple_fraction(self):
        nums = extract_numbers("eats 1/3 of the cake")
        assert nums[0].value == F(1, 3)
        assert nums[0].symbol == "F_1"

    def test_percent(self):
        nums = extract_numbers("a 5% discount")
        assert nums[0].value == F(1, 20)
        assert nums[0].symbol == "F_1"

    def test_percent_with_space(self):
        nums = extract_numbers("what is 25 % of 80")
        assert [n.value for n in nums] == [F(1, 4), F(80)]

    def test_thousands_separator(self):
        nums = extract_numbers("paid 1,234.50 dollars")
        assert nums[0].value == F("1234.50")

    def test_signed_in_parens(self):
        nums = extract_numbers("points (-15, 70) and (5, 10)")
        assert [n.value for n in nums] == [F(-15), F(70), F(5), F(10)]

    def test_hyphen_is_not_sign_after_digit(self):
        nums = extract_numbers("pages 5-3")
        assert [n.value for n in nums] == [F(5), F(3)]

    def test_symbols_by_kind_with_global_index(self):
        nums = extract_numbers("from -4 to 0.5 of 7")
        assert [n.symbol for n in nums] == ["M_1", "F_2", "N_3"]

    def test_deterministic(self):
        text = "she has 3 1/2 apples, -2 pears and 25% grapes"
        assert extract_numbers(text) == extract_numbers(text)

    def test_indices_monotonic(self):
        nums = extract_numbers("1 then 2.5 then -3 then 4/5 then 1,000")
        assert [n.index for n in nums] == [1, 2, 3, 4, 5]
        starts = [n.start for n in nums]
        assert starts == sorted(starts)

    def test_no_numbers(self):
        assert extract_numbers("no digits here") == []


# pinned: each number's (surface, value, symbol, sorted variants) on texts
# where a sign, a percent sign, a separator or a zero denominator decides
_TRICKY = [
    ("-5", [("-5", "-5", "M_1", "-5")]),
    ("a -5", [("-5", "-5", "M_1", "-5")]),
    ("a\t-5", [("-5", "-5", "M_1", "-5")]),
    ("a\n-5", [("-5", "-5", "M_1", "-5")]),
    ("(-5", [("-5", "-5", "M_1", "-5")]),
    ("[-5", [("-5", "-5", "M_1", "-5")]),
    ("{-5", [("-5", "-5", "M_1", "-5")]),
    ("=-5", [("-5", "-5", "M_1", "-5")]),
    (",-5", [("-5", "-5", "M_1", "-5")]),
    (";-5", [("-5", "-5", "M_1", "-5")]),
    (":-5", [("-5", "-5", "M_1", "-5")]),
    ("a-5", [("5", "5", "N_1", "5")]),
    ("3-5", [("3", "3", "N_1", "3"), ("5", "5", "N_2", "5")]),
    ("5%-3", [("5%", "1/20", "F_1", "0 1/20 1/10 5"), ("3", "3", "N_2", "3")]),
    ("--5", [("5", "5", "N_1", "5")]),
    ("5%", [("5%", "1/20", "F_1", "0 1/20 1/10 5")]),
    ("5 %", [("5 %", "1/20", "F_1", "0 1/20 1/10 5")]),
    ("5  %", [("5", "5", "N_1", "5")]),
    ("-3 1/2 %", [("-3 1/2 %", "-7/200", "M_1", "-7/2 -1/25 -7/200 -3/100 0 1/2 3")]),
    ("(-3 1/2%)", [("-3 1/2%", "-7/200", "M_1", "-7/2 -1/25 -7/200 -3/100 0 1/2 3")]),
    ("1,234.56", [("1,234.56", "30864/25", "N_1", "2469/2 30864/25 6173/5")]),
    ("-1,234.5", [("-1,234.5", "-2469/2", "M_1", "-2469/2")]),
    (".5", [(".5", "1/2", "F_1", "1/2")]),
    ("-.5", [("-.5", "-1/2", "M_1", "-1/2")]),
    ("1.2.3", [("1.2", "6/5", "N_1", "6/5"), (".3", "3/10", "F_2", "3/10")]),
    ("1/0", []),
    ("3 1/0", []),
    ("1/0-5", [("5", "5", "N_1", "5")]),
    ("2/4 and 2/3%", [("2/4", "1/2", "F_1", "1/2"), ("2/3%", "1/150", "F_2", "0 3/500 33/5000 1/150 67/10000 "
                                                     "7/1000 1/100 3/5 33/50 333/500 3333/5000 2/3 6667/10000 "
                                                     "667/1000 67/100 7/10")]),
]


@pytest.mark.parametrize("text, expected", _TRICKY)
def test_tricky_texts_keep_their_readings(text, expected):
    got = [(n.surface, str(n.value), n.symbol, " ".join(map(str, sorted(variants(n))))) for n in extract_numbers(text)]
    assert got == expected


class TestExtractionProperty:
    @settings(deadline=None, max_examples=500)
    @given(st.text(alphabet="0123456789 -/.,%\t\n([{=;:a", max_size=40))
    def test_spans_symbols_and_variants(self, text):
        nums = extract_numbers(text)
        assert [n.index for n in nums] == list(range(1, len(nums) + 1))
        for prev, n in zip([None, *nums], nums):
            assert text[n.start : n.end] == n.surface and n.start < n.end
            assert prev is None or prev.end <= n.start
            prefix = "M" if n.value < 0 else "F" if 0 < n.value < 1 else "N"
            assert n.symbol == f"{prefix}_{n.index}"
            assert {n.value, *n.other_values} <= variants(n)
        assert [t for t in source_tokens(text, nums) if equations.is_symbol(t)] == [n.symbol for n in nums]


class TestVariants:
    def num(self, text, i=0):
        return extract_numbers(text)[i]

    def test_mixed(self):
        v = variants(self.num("3 1/3 cups"))
        assert F(10, 3) in v
        assert F("3.33") in v
        assert F("3.3333") in v
        assert F(3) in v  # whole part
        assert F(1, 3) in v  # fractional part

    def test_integer_single_reading(self):
        assert variants(self.num("take 5 apples")) == {F(5)}

    def test_percent_both_readings(self):
        v = variants(self.num("a 5% rise"))
        assert F(1, 20) in v and F(5) in v

    def test_truncation_and_rounding(self):
        v = variants(self.num("about 2/3 done"))
        assert F("0.66") in v  # truncated
        assert F("0.67") in v  # rounded
        assert F("0.6667") in v

    def test_negative_decimal(self):
        v = variants(self.num("drops to -1/3"))
        assert F(-1, 3) in v and F("-0.33") in v


class TestAlign:
    def map_of(self, text):
        nums = extract_numbers(text)
        return nums, NumberMapping(nums)

    def test_basic(self):
        nums, _ = self.map_of("numbers 2 and 3 make 7")
        t = align(nums, "2*x+3=7")
        assert t.tokens == ("N_1", "*", "x", "+", "N_2", "=", "N_3")

    def test_duplicates_in_order(self):
        nums, _ = self.map_of("a 3 and another 3")
        t = align(nums, "3+3=x")
        assert t.tokens == ("N_1", "+", "N_2", "=", "x")

    def test_unalignable(self):
        nums, _ = self.map_of("just 2 and 5 here")
        with pytest.raises(UnalignableError):
            align(nums, "x+13=2")

    def test_small_constant_in_whitelist_stays_literal(self):
        # 9 is a whitelisted constant, so it may stay literal instead of
        # making the instance unalignable
        nums, _ = self.map_of("just 2 and 5 here")
        assert align(nums, "x+9=2").tokens == ("x", "+", "9", "=", "N_1")

    def test_whitelist_constant_stays_literal(self):
        nums, _ = self.map_of("half of 14")
        t = align(nums, "x=14/2")
        assert t.tokens == ("x", "=", "N_1", "/", "2")

    def test_mixed_number_matches_fraction_form(self):
        nums, _ = self.map_of("3 1/3 cups of flour")
        t = align(nums, "x=10/3")
        assert t.tokens == ("x", "=", "N_1")

    def test_mixed_number_matches_decimal_form(self):
        nums, _ = self.map_of("3 1/3 cups of flour")
        t = align(nums, "x=3.33")
        assert t.tokens == ("x", "=", "N_1")

    def test_negative_absorbs_unary_minus(self):
        nums, _ = self.map_of("from -15 up to 70")
        t = align(nums, "x=70-(-15)")
        assert t.tokens == ("x", "=", "N_2", "-", "(", "M_1", ")")

    def test_percent_decimal_form(self):
        nums, _ = self.map_of("what is 25% of 80")
        t = align(nums, "x=0.25*80")
        assert t.tokens == ("x", "=", "F_1", "*", "N_2")

    def test_composite_not_used_when_parts_are_text_numbers(self):
        nums, _ = self.map_of("10 apples among 2 kids")
        t = align(nums, "x=10/2")
        assert t.tokens == ("x", "=", "N_1", "/", "N_2")

    def test_gold_must_parse(self):
        nums, _ = self.map_of("only 3 here")
        with pytest.raises(UnalignableError):
            align(nums, "x+=3")

    def test_template_parses(self):
        nums, _ = self.map_of("sum 27 diff 3")
        t = align(nums, "x+y=27;x-y=3")
        equations.parse(" ".join(t.tokens))  # must not raise


def brute_force_align(nums, gold):
    """Enumerate every (occurrence -> choice) combination and return the set
    of valid templates. Slow, only for small instances."""
    tokens = equations.tokenize(gold)
    from eqgen.numbering import _readings  # test reaches into the search space

    def occurrences(start):
        t = start
        while t < len(tokens) and tokens[t].kind != "NUM":
            t += 1
        return t

    results = set()

    def rec(t, chosen):
        t = occurrences(t)
        if t >= len(tokens):
            results.add(render(chosen))
            return
        for reading in _readings(tokens, t):
            for n in nums:
                if reading.value in variants(n):
                    rec(reading.last + 1, chosen + [(reading, n.symbol)])
            if reading.first == reading.last and reading.value in WHITELIST:
                rec(reading.last + 1, chosen + [(reading, str(reading.value))])

    def render(chosen):
        spans = {r.first: (r, sym) for r, sym in chosen}
        out, i = [], 0
        while i < len(tokens):
            if i in spans:
                r, sym = spans[i]
                out.append(sym)
                i = r.last + 1
            else:
                out.append(tokens[i].text)
                i += 1
        return tuple(out)

    rec(0, [])
    return results


class TestAlignAgainstBruteForce:
    def test_unique_assignments_match(self):
        rng = random.Random(3)
        for _ in range(40):
            # distinct values so the assignment is unique up to whitelist
            vals = rng.sample(range(11, 99), k=rng.randint(2, 4))
            text = " and ".join(f"value {v}" for v in vals)
            nums = extract_numbers(text)
            perm = list(range(len(vals)))
            rng.shuffle(perm)
            gold = "+".join(str(vals[i]) for i in perm) + "=x"
            got = align(nums, gold)
            options = brute_force_align(nums, gold)
            assert got.tokens in options
            no_whitelist = {o for o in options if all(tok[0] in "NMF" or not tok[0].isdigit() for tok in o)}
            assert len(no_whitelist) == 1 and got.tokens in no_whitelist


class TestSubstitute:
    def test_direct(self):
        mapping = NumberMapping(extract_numbers("2 by 3 is 7"))
        t = ["N_1", "*", "x", "+", "N_2", "=", "N_3"]
        assert substituted(t, mapping) == "2*x+3=7"

    def test_negative_parenthesized(self):
        mapping = NumberMapping(extract_numbers("from -15 to 70"))
        assert substituted(["x", "+", "M_1", "=", "N_2"], mapping) == "x+(-15)=70"
        # parser round trip confirms the parenthesization rule
        sol = equations.solve(equations.parse("x+(-15)=70"))
        assert sol.solutions[0]["x"] == F(85)

    def test_fraction_parenthesized(self):
        mapping = NumberMapping(extract_numbers("eats 2/3 of 9"))
        text = substituted(["x", "=", "N_2", "/", "F_1"], mapping)
        assert text == "x=9/(2/3)"
        sol = equations.solve(equations.parse(text))
        assert sol.solutions[0]["x"] == F(27, 2)

    def test_unknown_symbol(self):
        mapping = NumberMapping(extract_numbers("2 and 3"))
        with pytest.raises(UnknownSymbolError):
            substituted(["N_1", "+", "N_9", "=", "x"], mapping)

    def test_template_object_accepted(self):
        mapping = NumberMapping(extract_numbers("only 4"))
        t = EquationTemplate(("x", "=", "N_1"))
        assert substituted(t.tokens, mapping) == "x=4"

    def test_operands_in_a_row_stay_apart(self):
        mapping = NumberMapping(extract_numbers("from -15 to 70 or 2/3"))
        template = ["x", "=", "N_2", "M_1", "x", "(", "F_3", ")", "(", "x", ")", "^", "2"]
        assert substituted(template, mapping) == "x=70 (-15) x ((2/3)) (x)^2"


class TestRoundTrip:
    def test_align_substitute_solve(self):
        cases = [
            ("the sum is 27 and the difference is 3", "x+y=27;x-y=3", [F(15), F(12)]),
            ("2 times a number plus 3 gives 7", "2*x+3=7", [F(2)]),
            ("what is 25% of 80", "x=0.25*80", [F(20)]),
            ("rose from -15 degrees to 70", "x=70-(-15)", [F(85)]),
            ("3 1/3 cups split evenly between 2 jugs", "x=10/3/2", [F(5, 3)]),
        ]
        for text, gold, answers in cases:
            nums = extract_numbers(text)
            mapping = NumberMapping(nums)
            template = align(nums, gold)
            concrete = substituted(template.tokens, mapping)
            sol = equations.solve(equations.parse(concrete))
            assert equations.check_answer(sol, answers), (text, concrete)


def _surface(kind: str, whole: int, num: int, den: int, sign: bool) -> tuple[str, F]:
    """One number as problem text writes it, with its exact value."""
    if kind == "mixed":
        num = num % (den - 1) + 1  # a proper fraction
        text, value = f"{whole} {num}/{den}", whole + F(num, den)
    elif kind == "percent":
        text, value = f"{whole}%", F(whole, 100)
    elif kind == "spaced percent":
        text, value = f"{whole}.{num} %", (whole + F(num, 10)) / 100
    elif kind == "thousands":
        whole = whole * 1000 + den
        text, value = f"{whole:,}.{num}", whole + F(num, 10)
    elif kind == "decimal":
        text, value = f"{whole}.{num}", whole + F(num, 10)
    else:
        text, value = str(whole), F(whole)
    return ("-" + text, -value) if sign else (text, value)


def _literal(value: F) -> str:
    """The value as a gold equation writes it: an integer, a decimal when
    it terminates, otherwise a fraction; negatives in parentheses."""
    mag = abs(value)
    if mag.denominator == 1:
        text = str(mag)
    elif all(p in (2, 5) for p in _factors(mag.denominator)):
        text = str(Decimal(mag.numerator) / Decimal(mag.denominator))
    else:
        text = f"{mag.numerator}/{mag.denominator}"
    return f"(-{text})" if value < 0 else text


def _factors(n: int) -> set[int]:
    out, p = set(), 2
    while n > 1:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out


_numbers = st.builds(
    _surface,
    st.sampled_from(["mixed", "percent", "spaced percent", "thousands", "decimal", "integer"]),
    st.integers(1, 1200),
    st.integers(1, 9),
    st.integers(2, 12),
    st.booleans(),
)


class TestAlignSubstituteProperty:
    """``align``'s template, substituted, gives the gold answers for random
    surface forms: mixed numbers, percents, thousands separators, signed
    numbers."""

    @settings(deadline=None, max_examples=300)
    @given(st.lists(_numbers, min_size=1, max_size=4, unique_by=lambda nv: nv[1]),
           st.lists(st.sampled_from("+-*"), min_size=3, max_size=3))
    def test_round_trip_reproduces_gold_answers(self, numbers, ops):
        text = "we have " + " and then ".join(f"{surface} items" for surface, _ in numbers)
        gold = "x=" + "".join(
            (ops[i - 1] if i else "") + _literal(value) for i, (_, value) in enumerate(numbers)
        )
        answers = equations.solve(equations.parse(gold)).values()
        nums = extract_numbers(text)
        assert [n.value for n in nums] == [value for _, value in numbers]
        concrete = substituted(align(nums, gold).tokens, NumberMapping(nums))
        assert equations.check_answer(equations.solve(equations.parse(concrete)), answers), (text, gold, concrete)


def _outcome(aligner, nums, gold):
    try:
        return aligner(nums, gold).tokens
    except UnalignableError as e:
        return str(e)


def _gold_literal(value: F, plain_sign: bool, as_fraction: bool) -> str:
    """The value as a gold literal: ``_literal``'s form, or ``a/b``; a
    negative one either parenthesized or after a bare unary minus."""
    mag = abs(value)
    text = f"{mag.numerator}/{mag.denominator}" if as_fraction and mag.denominator != 1 else _literal(mag)
    if value >= 0:
        return text
    return f"-{text}" if plain_sign else f"(-{text})"


_text_numbers = st.one_of(
    st.builds(_surface, st.sampled_from(["mixed", "percent", "spaced percent", "decimal", "integer"]),
              st.integers(1, 30), st.integers(1, 9), st.integers(2, 6), st.booleans()).map(lambda nv: nv[0]),
    st.builds("{}{}/{}".format, st.sampled_from(["", "-"]), st.integers(1, 12), st.integers(1, 12)),
)


class TestAlignAgainstBacktracking:
    """The one-pass aligner gives the backtracking search's template, or
    its error message, on random texts and golds (``tests/backtracking.py``)."""

    @settings(deadline=None, max_examples=400)
    @given(st.lists(_text_numbers, max_size=6), st.data())
    def test_same_template_or_error(self, surfaces, data):
        text = "we have " + " and then ".join(f"{surface} items" for surface in surfaces)
        nums = extract_numbers(text)
        values = sorted({v for n in nums for v in variants(n)} | {F(2), F(7), F(100), F(999), F(-3, 4)})
        literal = st.builds(_gold_literal, st.sampled_from(values), st.booleans(), st.booleans())
        literals = data.draw(st.lists(literal, min_size=1, max_size=8))
        ops = data.draw(st.lists(st.sampled_from(["+", "-", "*", "/", ")*(", "^2*"]),
                                 min_size=len(literals) - 1, max_size=len(literals) - 1))
        gold = "x=" + literals[0] + "".join(op + lit for op, lit in zip(ops, literals[1:]))
        assert _outcome(align, nums, gold) == _outcome(reference_align, nums, gold), (text, gold)


class TestAlignReadsEachLiteralOnce:
    def test_unmatched_literal_after_many_matches(self, monkeypatch):
        # every literal but the last matches a text number or a constant, so a
        # search that backs out of choices tries 2^25 combinations (25 literals have two options)
        nums = extract_numbers(" ".join(f"take {v}." for v in range(1, 13)))
        literals = [*range(1, 13), *range(1, 13), *range(1, 6), 999]
        readings, calls = numbering._readings, []

        def counted(tokens, t):
            calls.append(t)
            if len(calls) > 4 * len(literals):
                raise RuntimeError(f"_readings called {len(calls)} times for {len(literals)} literals")
            return readings(tokens, t)

        monkeypatch.setattr(numbering, "_readings", counted)
        with pytest.raises(UnalignableError, match="no consistent literal-to-number assignment"):
            align(nums, "x=" + "+".join(map(str, literals)))
        assert len(calls) <= len(literals)


class TestSourceTokens:
    def test_replacement_and_lowercase(self):
        text = "The sum of Two numbers is 27."
        nums = extract_numbers(text)
        assert source_tokens(text, nums) == [
            "the", "sum", "of", "two", "numbers", "is", "N_1", ".",
        ]

    def test_percent_and_commas_absorbed(self):
        text = "Spent 25% of 1,000 dollars!"
        nums = extract_numbers(text)
        toks = source_tokens(text, nums)
        assert toks == ["spent", "F_1", "of", "N_2", "dollars", "!"]
