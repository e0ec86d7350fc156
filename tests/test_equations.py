import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqgen.equations import (
    ANSWER_REL_TOL,
    BinOp,
    Equation,
    EquationList,
    Lit,
    Neg,
    ParseError,
    SolutionSet,
    Sym,
    UnknownSymbolError,
    Var,
    check_answer,
    format_value,
    parse,
    reward,
    solve,
    to_string,
    tokenize,
)
from eqgen.numbering import WHITELIST_TOKENS, NumberMapping, extract_numbers

F = Fraction


def eval_expr(node, env=None):
    """Independent AST evaluator used as the precedence oracle."""
    env = env or {}
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -eval_expr(node.operand, env)
    if isinstance(node, BinOp):
        a, b = eval_expr(node.left, env), eval_expr(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return a ** int(b)
    raise AssertionError(node)


def expr_of(text):
    return parse(f"{text}=0").equations[0].lhs


class TestParse:
    def test_two_equations(self):
        ast = parse("2*x+3=7 ; x+y=10")
        assert len(ast) == 2

    def test_precedence_mul_before_add(self):
        assert eval_expr(expr_of("2+3*4")) == 14

    def test_power_right_assoc(self):
        # 2^3^... is limited by |exp| <= 3, so use nesting via parens instead
        assert eval_expr(expr_of("2^3")) == 8
        assert eval_expr(expr_of("(2^2)^3")) == 64

    def test_unary_minus_between_pow_and_mul(self):
        assert eval_expr(expr_of("-2^2")) == -4
        assert eval_expr(expr_of("-2*3")) == -6

    def test_left_assoc_sub_div(self):
        assert eval_expr(expr_of("10-4-3")) == 3
        assert eval_expr(expr_of("12/3/2")) == 2

    def test_parens(self):
        assert eval_expr(expr_of("(2+3)*4")) == 20

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
        ast = parse("N_1*x+M_2=F_3")
        lhs = ast.equations[0].lhs
        assert isinstance(lhs, BinOp) and isinstance(ast.equations[0].rhs, Sym)

    def test_exponent_limits(self):
        parse("x^3=8")
        parse("x^(-3)=8")
        with pytest.raises(ParseError):
            parse("x^4=16")
        with pytest.raises(ParseError):
            parse("x^y=2")
        with pytest.raises(ParseError):
            parse("x^(1/2)=2")

    def test_decimal_literals(self):
        ast = parse("x=0.25")
        assert ast.equations[0].rhs == Lit(F(1, 4))


def random_expr(rng, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        if rng.random() < 0.5:
            return Lit(F(rng.randint(-9, 9), rng.randint(1, 5)))
        return Var(rng.choice("xyz"))
    if roll < 0.4:
        return Neg(random_expr(rng, depth + 1))
    if roll < 0.5:
        return BinOp("^", random_expr(rng, depth + 1), Lit(F(rng.randint(0, 3))))
    op = rng.choice("+-*/")
    return BinOp(op, random_expr(rng, depth + 1), random_expr(rng, depth + 1))


def _folds(op, left, right):
    """The parser folds a literal divided by a non-zero literal into one literal."""
    return op == "/" and isinstance(left, Lit) and isinstance(right, Lit) and right.value != 0


def _compound(children):
    # only trees the parser can return: no negated literal (it parses as a
    # negative literal), no foldable literal division, integer exponents |e| <= 3
    neg = children.filter(lambda e: not isinstance(e, Lit)).map(Neg)
    binop = st.builds(BinOp, st.sampled_from("+-*/"), children, children).filter(
        lambda b: not _folds(b.op, b.left, b.right)
    )
    power = st.builds(BinOp, st.just("^"), children, st.integers(-3, 3).map(lambda e: Lit(F(e))))
    return st.one_of(neg, binop, power)


_leaves = st.one_of(
    st.fractions(max_denominator=12).map(Lit),
    st.sampled_from("xyz").map(Var),
    st.builds(lambda kind, i: Sym(f"{kind}_{i}"), st.sampled_from("NMF"), st.integers(1, 20)),
)
_exprs = st.recursive(_leaves, _compound, max_leaves=12)
_programs = st.lists(st.builds(Equation, _exprs, _exprs), min_size=1, max_size=3).map(
    lambda eqs: EquationList(tuple(eqs))
)


class TestPrintParseRoundTrip:
    @settings(deadline=None, max_examples=200)
    @given(_programs)
    def test_parse_inverts_to_string(self, ast):
        assert parse(to_string(ast)) == ast

    def test_random_asts(self):
        # identity on the parser's image: one print/parse round canonicalizes
        # (literal negation and literal fractions fold), after which
        # parse(to_string(.)) is exactly the identity
        rng = random.Random(7)
        for _ in range(200):
            raw = EquationList((Equation(random_expr(rng), random_expr(rng)),))
            ast = parse(to_string(raw))
            assert parse(to_string(ast)) == ast

    def test_corpus_style(self):
        for text in ("2*x+3=7;x+y=10", "x^2=9", "x=(-15)+70", "x=0.25*80"):
            ast = parse(text)
            assert parse(to_string(ast)) == ast


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
            rows = []
            for _ in range(n):
                coeffs = [rng.randint(-9, 9) for _ in names]
                rhs = sum(c * t for c, t in zip(coeffs, target))
                lhs = "+".join(f"({c})*{v}" for c, v in zip(coeffs, names))
                rows.append(f"{lhs}={rhs}")
            sol = solve(parse(";".join(rows)))
            if sol.status != "solved":
                assert sol.status == "infinite"  # singular draw
                continue
            got = sol.solutions[0]
            for eq in parse(";".join(rows)).equations:
                assert eval_expr(eq.lhs, got) == eval_expr(eq.rhs, got)

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
    st.integers(-9, 9).map(lambda n: Lit(F(n))),
    st.fractions(min_value=-9, max_value=9, max_denominator=6).map(Lit),
    st.sampled_from("xyz").map(Var),
)
_solvable_exprs = st.recursive(_solvable_leaves, _compound, max_leaves=8)
_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _quadratic(a, b, c, rhs):
    """a*x^2 + b*x + c = rhs, mostly with irrational roots."""
    square = BinOp("*", Lit(a), BinOp("^", Var("x"), Lit(F(2))))
    return EquationList((Equation(BinOp("+", BinOp("+", square, BinOp("*", Lit(b), Var("x"))), Lit(c)), rhs),))


_solvable_programs = st.one_of(
    st.lists(st.builds(Equation, _solvable_exprs, _solvable_exprs), min_size=1, max_size=3).map(
        lambda eqs: EquationList(tuple(eqs))
    ),
    st.builds(_quadratic, _coeffs.filter(bool), _coeffs, _coeffs, _solvable_leaves),
)


class TestSolveProperty:
    @settings(deadline=None, max_examples=300)
    @given(_solvable_programs)
    def test_every_solution_satisfies_every_equation(self, ast):
        # rational solutions exactly; irrational quadratic roots (floats)
        # within the answer tolerance, as check_answer compares them. A
        # variable that cancels out (x = x) is free, so any value will do.
        sol = solve(ast)
        if sol.status != "solved":
            return
        for assignment in sol.solutions:
            env = {"x": F(3), "y": F(3), "z": F(3), **assignment}
            for eq in ast.equations:
                lhs, rhs = eval_expr(eq.lhs, env), eval_expr(eq.rhs, env)
                if all(isinstance(v, Fraction) for v in assignment.values()):
                    assert lhs == rhs, (to_string(ast), assignment)
                else:
                    assert abs(lhs - rhs) <= ANSWER_REL_TOL * max(1.0, abs(rhs)), (to_string(ast), assignment)


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
        for tokens in ([], ["("], ["x"], ["<unk>"], [";"], ["x", "=", "x"]):
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
