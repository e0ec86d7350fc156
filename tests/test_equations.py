import ast
import math
import random
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqgen import equations
from eqgen.equations import (
    ANSWER_REL_TOL,
    ParseError,
    SolutionSet,
    UnknownSymbolError,
    check_answer,
    format_value,
    parse,
    reward,
    solve,
    tokenize,
)
from eqgen.corpus import target_token_list
from eqgen.numbering import WHITELIST_TOKENS, NumberMapping, extract_numbers

F = Fraction

# A test-side expression tree, independent of the parser:
# ("num", Fraction) | ("var", name) | ("neg", node) | (op, left, right)


def show(node):
    """Fully parenthesized text of a tree."""
    if node[0] == "num":
        return format_value(node[1])
    if node[0] == "var":
        return node[1]
    if node[0] == "neg":
        return f"(-{show(node[1])})"
    return f"({show(node[1])}{node[0]}{show(node[2])})"


def eval_expr(node, env=None):
    """Exact value of a tree; raises ZeroDivisionError on division by zero
    and on zero raised to a negative power."""
    if node[0] == "num":
        return node[1]
    if node[0] == "var":
        return env[node[1]]
    if node[0] == "neg":
        return -eval_expr(node[1], env)
    op, a, b = node[0], eval_expr(node[1], env), eval_expr(node[2], env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    return a ** int(b)


def value_of(text):
    """The value ``x=<text>`` solves to."""
    sol = solve(parse(f"x={text}"))
    assert sol.status == "solved", (text, sol)
    return sol.solutions[0]["x"]


class TestParse:
    def test_two_equations(self):
        assert len(parse("2*x+3=7 ; x+y=10")) == 2

    def test_precedence_mul_before_add(self):
        assert value_of("2+3*4") == 14

    def test_power_right_assoc(self):
        # 2^3^... is limited by |exp| <= 3, so use nesting via parens instead
        assert value_of("2^3") == 8
        assert value_of("(2^2)^3") == 64

    def test_unary_minus_between_pow_and_mul(self):
        assert value_of("-2^2") == -4
        assert value_of("-2*3") == -6

    def test_left_assoc_sub_div(self):
        assert value_of("10-4-3") == 3
        assert value_of("12/3/2") == 2

    def test_parens(self):
        assert value_of("(2+3)*4") == 20

    def test_ill_formed(self):
        for bad in ("x+=3", "x+", "=5", "x=(2", "x=2)", "x==2", "x 2=3", "x=2;;y=3", "", "x*+2=1"):
            with pytest.raises(ParseError):
                parse(bad)

    def test_exactly_one_equals(self):
        with pytest.raises(ParseError):
            parse("x=2=3")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse("w+1=2")

    def test_symbols_parse(self):
        # without a table a number symbol parses but leaves the solver's fragment
        assert solve(parse("N_1*x+M_2=F_3")).status == "unsupported"

    def test_exponent_limits(self):
        parse("x^3=8")
        parse("x^(-3)=8")
        with pytest.raises(ParseError):
            parse("x^4=16")
        with pytest.raises(ParseError):
            parse("x^y=2")
        with pytest.raises(ParseError):
            parse("x^(1/2)=2")

    def test_exponent_may_be_a_literal_quotient(self):
        assert solve(parse("x^(4/2)=4")).values() == [F(-2), F(2)]
        assert value_of("2^(-(6/3))") == F(1, 4)

    def test_exponent_must_be_a_literal(self):
        for bad in ("x^(1+1)=4", "x^(4/0)=1", "x^(2*1)=4", "x^N_1=4", "x^2^1=4"):
            with pytest.raises(ParseError, match="exponent must be an integer literal"):
                parse(bad)

    def test_a_bad_exponent_is_reported_before_a_later_syntax_error(self):
        with pytest.raises(ParseError, match="exponent"):
            parse("x^y=1+")

    def test_outside_the_fragment_still_parses_to_the_end(self):
        for text in ("x/0=1", "1/x=2", "x^(-1)=2", "0^(-1)=x", "(x-x)^(-2)=1", "N_1=x"):
            assert solve(parse(text)).status == "unsupported", text
            with pytest.raises(ParseError):
                parse(text + "+")

    def test_decimal_literals(self):
        assert value_of("0.25") == F(1, 4)


def _compound(children):
    neg = children.map(lambda e: ("neg", e))
    binop = st.tuples(st.sampled_from("+-*/"), children, children)
    power = st.tuples(st.just("^"), children, st.integers(-3, 3).map(lambda e: ("num", F(e))))
    return st.one_of(neg, binop, power)


_constants = st.recursive(
    st.fractions(min_value=-9, max_value=9, max_denominator=6).map(lambda v: ("num", v)),
    _compound,
    max_leaves=10,
)


class TestConstantExpressions:
    @settings(deadline=None, max_examples=300)
    @given(_constants)
    def test_solves_to_the_evaluators_value(self, tree):
        # unsupported exactly where the evaluator divides by zero or raises
        # zero to a negative power
        sol = solve(parse(f"x={show(tree)}"))
        try:
            value = eval_expr(tree)
        except ZeroDivisionError:
            assert sol.status == "unsupported"
        else:
            assert sol.status == "solved" and sol.solutions == ({"x": value},)


class TestSolve:
    def test_two_by_two(self):
        sol = solve(parse("x+y=10; x-y=2"))
        assert sol.status == "solved"
        assert sol.solutions[0] == {"x": F(6), "y": F(4)}

    def test_substitution_oracle_random_systems(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 3)
            names = ["x", "y", "z"][:n]
            target = [F(rng.randint(-9, 9)) for _ in names]
            rows, texts = [], []
            for _ in range(n):
                coeffs = [rng.randint(-9, 9) for _ in names]
                rhs = sum(c * t for c, t in zip(coeffs, target))
                rows.append((coeffs, rhs))
                texts.append("+".join(f"({c})*{v}" for c, v in zip(coeffs, names)) + f"={rhs}")
            sol = solve(parse(";".join(texts)))
            if sol.status != "solved":
                assert sol.status == "infinite"  # singular draw
                continue
            got = sol.solutions[0]
            for coeffs, rhs in rows:
                assert sum(c * got[v] for c, v in zip(coeffs, names)) == rhs

    def test_factorable_quadratic(self):
        sol = solve(parse("x^2-5*x+6=0"))
        assert sol.status == "solved"
        assert sol.values() == [F(2), F(3)]

    def test_irrational_roots_satisfy_equation(self):
        sol = solve(parse("x^2-2=0"))
        assert sol.status == "solved"
        for s in sol.solutions:
            assert abs(s["x"] ** 2 - 2.0) < 1e-9

    def test_double_root(self):
        sol = solve(parse("x^2-4*x+4=0"))
        assert sol.values() == [F(2)]

    def test_negative_discriminant(self):
        assert solve(parse("x^2+1=0")).status == "no_solution"

    def test_contradiction(self):
        assert solve(parse("x+1=x")).status == "no_solution"

    def test_underdetermined(self):
        assert solve(parse("x+y=10")).status == "infinite"

    def test_unsupported_cubic(self):
        assert solve(parse("x^3=8")).status == "unsupported"

    def test_unsupported_mixed_system(self):
        assert solve(parse("x^2=4; x+y=3")).status == "unsupported"

    def test_division_by_zero(self):
        assert solve(parse("x/0=1")).status == "unsupported"

    def test_division_by_variable(self):
        assert solve(parse("1/x=2")).status == "unsupported"

    def test_constant_equations(self):
        assert solve(parse("5=5")).status == "solved"
        assert solve(parse("5=4")).status == "no_solution"

    def test_quadratic_shape_hidden_in_products(self):
        sol = solve(parse("(x-1)*(x-3)=0"))
        assert sol.values() == [F(1), F(3)]


_solvable_leaves = st.one_of(
    st.integers(-9, 9).map(lambda n: ("num", F(n))),
    st.fractions(min_value=-9, max_value=9, max_denominator=6).map(lambda v: ("num", v)),
    st.sampled_from("xyz").map(lambda v: ("var", v)),
)
_solvable_exprs = st.recursive(_solvable_leaves, _compound, max_leaves=8)
_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _quadratic(a, b, c, rhs):
    """a*x^2 + b*x + c = rhs, mostly with irrational roots."""
    x = ("var", "x")
    square = ("*", ("num", a), ("^", x, ("num", F(2))))
    return [(("+", ("+", square, ("*", ("num", b), x)), ("num", c)), rhs)]


_solvable_programs = st.one_of(
    st.lists(st.tuples(_solvable_exprs, _solvable_exprs), min_size=1, max_size=3),
    st.builds(_quadratic, _coeffs.filter(bool), _coeffs, _coeffs, _solvable_leaves),
)


class TestSolveProperty:
    @settings(deadline=None, max_examples=300)
    @given(_solvable_programs)
    def test_every_solution_satisfies_every_equation(self, program):
        # rational solutions exactly; irrational quadratic roots (floats)
        # within the answer tolerance, as check_answer compares them. A
        # variable that cancels out (x = x) is free, so any value will do.
        text = ";".join(f"{show(lhs)}={show(rhs)}" for lhs, rhs in program)
        sol = solve(parse(text))
        if sol.status != "solved":
            return
        for assignment in sol.solutions:
            env = {"x": F(3), "y": F(3), "z": F(3), **assignment}
            for eq_lhs, eq_rhs in program:
                lhs, rhs = eval_expr(eq_lhs, env), eval_expr(eq_rhs, env)
                if all(isinstance(v, Fraction) for v in assignment.values()):
                    assert lhs == rhs, (text, assignment)
                else:
                    assert abs(lhs - rhs) <= ANSWER_REL_TOL * max(1.0, abs(rhs)), (text, assignment)


class TestCheckAnswer:
    def test_multiset_order_free(self):
        sol = SolutionSet("solved", ({"x": F(6), "y": F(4)},))
        assert check_answer(sol, [F(4), F(6)])

    def test_cardinality_mismatch(self):
        sol = SolutionSet("solved", ({"x": F(6)},))
        assert not check_answer(sol, [F(6), F(4)])

    def test_tolerance(self):
        sol = SolutionSet("solved", ({"x": 0.333333},))
        assert check_answer(sol, [F(1, 3)])
        sol = SolutionSet("solved", ({"x": 0.3},))
        assert not check_answer(sol, [F(1, 3)])

    def test_failed_statuses(self):
        for s in ("no_solution", "infinite", "unsupported"):
            assert not check_answer(SolutionSet(s), [F(1)])


class TestReward:
    def make_mapping(self, text):
        return NumberMapping(extract_numbers(text))

    def test_correct_pipeline(self):
        mapping = self.make_mapping("2 times a number plus 3 equals 7")
        tokens = ["N_1", "*", "x", "+", "N_2", "=", "N_3"]
        assert reward(tokens, mapping, [F(2)]) == 1

    def test_ill_formed_is_zero(self):
        mapping = self.make_mapping("2 and 3 and 7")
        assert reward(["N_1", "+", "=", "x"], mapping, [F(2)]) == 0

    def test_wrong_constant_is_zero(self):
        mapping = self.make_mapping("2 times a number plus 3 equals 7")
        tokens = ["N_1", "*", "x", "+", "N_2", "=", "N_2"]
        assert reward(tokens, mapping, [F(2)]) == 0

    def test_unknown_symbol_is_zero(self):
        mapping = self.make_mapping("2 and 3")
        assert reward(["N_1", "+", "N_9", "=", "x"], mapping, [F(5)]) == 0

    def test_total_on_garbage(self):
        mapping = self.make_mapping("just 4 words")
        for tokens in ([], ["("], ["x"], ["<unk>"], [";"], ["x", "=", "x"], ["x", "=", "9" * 4400]):
            assert reward(tokens, mapping, [F(1)]) in (0, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_numbers_in_a_row_are_ill_formed(self, data):
        """Each symbol or constant is one token: ``x = N_1 N_2`` with 5 and 7
        is ill-formed, not ``x = 57``, whose answer is the gold here."""
        values = data.draw(st.lists(st.integers(0, 999), min_size=1, max_size=4))
        mapping = self.make_mapping(" ".join(map(str, values)))
        run = data.draw(st.lists(st.sampled_from([*mapping.by_symbol, *WHITELIST_TOKENS]), min_size=2, max_size=3))
        glued = F("".join(str(mapping.by_symbol.get(t, t)) for t in run))
        tokens = ["x", "=", *run] if data.draw(st.booleans()) else [*run, "=", "x"]
        assert reward(tokens, mapping, [glued]) == 0


def _nested_power(levels):
    """``x = ((N_1 ^ 3) ^ 3) ...`` with ``levels`` powers, 4 * levels + 3 tokens."""
    return ["x", "=", *["("] * levels, "N_1", *["^", "3", ")"] * levels]


_leaf_tokens = st.sampled_from(["x", "y", "N_1", "N_2", "M_1", "F_3", "0", "3", "100"]).map(lambda t: [t])
_expr_tokens = st.recursive(_leaf_tokens, lambda inner: st.one_of(
    st.builds(lambda a, op, b: ["(", *a, op, *b, ")"], inner, st.sampled_from("+-*/"), inner),
    st.builds(lambda a, e: ["(", *a, "^", *e, ")"], inner, st.sampled_from([["2"], ["3"], ["-", "1"], ["-", "3"]])),
    inner.map(lambda a: ["-", *a])), max_leaves=24)
_program_tokens = st.one_of(
    st.builds(lambda eqs: [t for i, (a, b) in enumerate(eqs) for t in ([";"] if i else []) + a + ["="] + b],
              st.lists(st.tuples(_expr_tokens, _expr_tokens), min_size=1, max_size=2)),
    st.builds(lambda lhs, e: [*lhs, "=", *e], st.sampled_from([["x"], ["x", "^", "2"]]),
              _expr_tokens.filter(lambda e: not {"x", "y"} & set(e))))
_values = st.one_of(st.fractions(), st.integers(-10**6, 10**6).map(F),
                    st.sampled_from([F(99), F("1e400"), F("-1e400"), F("1e-400")]))


class TestTotality:
    """``reward`` and ``solve`` return on every input: a power past the
    size bound leaves the fragment, and answers compare without a float
    conversion that can overflow."""

    MAPPING = NumberMapping(extract_numbers("99"))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_reward_is_zero_or_one(self, data):
        # random target-vocabulary sequences and well-formed programs with nested powers, up to 64 tokens
        symbols = [t for t in target_token_list() if equations.is_symbol(t)]
        tokens = data.draw(st.one_of(st.lists(st.sampled_from(target_token_list()), max_size=64),
                                     _program_tokens.map(lambda t: t[:64])))
        # the symbols of the programs' leaves are always defined, others sometimes
        table = data.draw(st.dictionaries(st.sampled_from(symbols), _values, max_size=8))
        table.update(data.draw(st.fixed_dictionaries({t: _values for t in ("N_1", "N_2", "M_1", "F_3")})))
        gold = data.draw(st.lists(st.one_of(_values, st.floats(allow_nan=False, allow_infinity=False)), min_size=1,
                                  max_size=3))
        mapping = SimpleNamespace(by_symbol=table)
        assert reward(tokens, mapping, gold) in (0, 1)

    def test_nested_power_leaves_the_fragment(self):
        # 99^729 has no float, and comparing it with the gold used to raise OverflowError
        tokens = _nested_power(6)
        assert reward(tokens, self.MAPPING, [F(1)]) == 0
        assert solve(parse(" ".join(tokens), self.MAPPING.by_symbol)).status == "unsupported"

    def test_power_within_the_bound_compares_exactly_past_the_float_range(self):
        tokens = _nested_power(5)  # 99^243, about 1e485
        assert reward(tokens, self.MAPPING, [F(99) ** 243 + 1]) == 1
        assert reward(tokens, self.MAPPING, [F(99) ** 242]) == 0
        assert reward(tokens, self.MAPPING, [F("1e400")]) == 0

    def test_63_token_nested_power_is_fast(self):
        tokens = _nested_power(15)
        assert len(tokens) == 63
        start = time.perf_counter()
        assert reward(tokens, self.MAPPING, [F(1)]) == 0
        assert time.perf_counter() - start < 0.1

    def test_gold_past_the_float_range(self):
        mapping = NumberMapping(extract_numbers("5"))
        assert reward(["x", "=", "N_1"], mapping, [F("1e400")]) == 0
        assert reward(["x", "^", "2", "=", "N_1"], mapping, [F("1e400"), F(2)]) == 0  # irrational float roots
        assert not check_answer(SolutionSet("solved", ({"x": math.inf},)), [F("1e400")])

    def test_quadratic_past_the_float_range_is_unsupported(self):
        # irrational roots, but the discriminant 8e400 has no float
        assert solve(parse("x^2=2" + "0" * 400)).status == "unsupported"
        assert solve(parse("x^2=((((((99^3)^3)^3)^3)^3)^3)")).status == "unsupported"


class TestSymbolTable:
    """``tokenize`` and ``parse`` read number symbols through a symbol table."""

    TABLE = {"N_1": F(5), "M_2": F(-3), "F_3": F(1, 4)}

    def test_a_symbol_reads_as_its_number(self):
        tokens = tokenize("N_1*x+M_2=F_3", self.TABLE)
        assert [(t.kind, t.text, t.value) for t in tokens if t.kind == "NUM"] == [
            ("NUM", format_value(v), v) for v in self.TABLE.values()
        ]
        assert [t.kind for t in tokenize("x = 5 ; y", self.TABLE)] == ["IDENT", "EQ", "NUM", "SEMI", "IDENT"]

    def test_an_undefined_symbol_raises(self):
        with pytest.raises(UnknownSymbolError) as e:
            parse("x = N_1 + N_9", self.TABLE)
        assert e.value.args == ("N_9",)

    def test_parses_as_the_substituted_text(self):
        text = "N_1*x^2-M_2*x=F_3/N_1;-M_2^2=y"
        concrete = "".join(t.text for t in tokenize(text, self.TABLE))
        assert concrete == "5*x^2-(-3)*x=(1/4)/5;-(-3)^2=y"
        assert parse(text, self.TABLE) == parse(concrete) == parse(tokenize(text, self.TABLE))


def test_imports_only_the_standard_library():
    tree = ast.parse(Path(equations.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            roots = [node.module.split(".")[0]]
        else:
            continue
        assert all(root in sys.stdlib_module_names for root in roots), roots
