import contextlib
import gc
import inspect
import io
import random
import re
import sys
import time
import tracemalloc
from pathlib import Path

import mpmath.ctx_mp_python
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import (ComplexResult, finf, fnan, fninf, fone,
                          from_float, from_man_exp, from_rational, fzero,
                          mpf_add, mpf_mul_int, mpf_pow, round_nearest)

from quadrules import expr
from quadrules.expr import (Add, Cos, DifferentiationError, Div, DomainError,
                            Mul, Neg, Num, ParseError, PiConst, Pow, Sin,
                            Sqrt, Sub, Tape, Var, _checked_power, _negate,
                            differentiate, eval_expr, grid, parse, to_text)
from quadrules.expr import _grid_tuples as grid_tuples
from quadrules.analysis import Reference
from quadrules.cli import main
from quadrules.associate import check_assumption_A
from quadrules.integrand import BUILTIN_NAMES, Integrand, builtin_integrand
from quadrules.precision import workprec
from quadrules.rules import Interval

from oracles import (central_diff, central_second_diff, random_poly_tree,
                     reference_differentiate, reference_literal,
                     reference_parse, reference_tape, reference_to_text,
                     tree_eval, ulp)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import random_expression  # noqa: E402


class TestParse:
    def test_single_variable(self):
        assert parse("x") == Var()

    def test_example_1_integrand(self):
        assert parse("2*sin(x)^2") == Mul(Num(2), Pow(Sin(Var()), Num(2)))

    def test_example_2_integrand(self):
        expected = Div(Num(6), Sqrt(Sub(Num(1), Pow(Var(), Num(2)))))
        assert parse("6/sqrt(1-x^2)") == expected

    def test_whitespace_insensitive(self):
        assert parse(" 2 * sin( x ) ^ 2 ") == parse("2*sin(x)^2")

    def test_pi_and_functions(self):
        assert parse("cos(pi)") == Cos(PiConst())
        assert parse("sqrt(x)") == Sqrt(Var())

    def test_precedence(self):
        # ^ over unary minus over * / over + -
        assert parse("-x^2") == Neg(Pow(Var(), Num(2)))
        assert parse("-x*2") == Mul(Neg(Var()), Num(2))
        assert parse("1+2*x") == Add(Num(1), Mul(Num(2), Var()))
        assert parse("2^3^x") == Pow(Num(2), Pow(Num(3), Var()))

    def test_unary_minus_folds_into_literals(self):
        assert parse("-3") == Num(-3)
        assert parse("-2.5") == Num("-2.5")
        assert parse("x^-2") == Pow(Var(), Num(-2))

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("sin(")
        assert exc.value.offset == 4

    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse("   ")
        assert "empty" in str(exc.value)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as exc:
            parse("2*tan(x)")
        assert "tan" in str(exc.value)
        assert exc.value.offset == 2
        # a long lexeme is quoted whole; only the CLI bounds its line
        with pytest.raises(ParseError) as exc:
            parse("x + " + "a" * 5000)
        assert exc.value.offset == 4
        assert str(exc.value) == ("syntax error at byte offset 4: unknown "
                                  f"identifier {'a' * 5000!r}")

    @pytest.mark.parametrize("literal, message", [
        ("1" + "0" * 5000, "integer literal of 5001 digits"),
        ("1." + "0" * 5000 + "1", "decimal literal of 5003 characters"),
        ("1e" + "9" * 5000, "decimal literal of 5002 characters"),
        ("1" + "0" * 5000 + ".5", "decimal literal of 5003 characters")],
        ids=["integer", "fraction", "exponent", "whole"])
    def test_literal_past_the_int_string_limit(self, literal, message):
        # CPython refuses int() of more than 4,300 digits by default, and
        # mpmath converts a decimal's significand and exponent with int()
        with pytest.raises(ParseError) as exc:
            parse(f"x + 2*{literal}")
        assert exc.value.offset == 6
        assert str(exc.value) == (f"syntax error at byte offset 6: "
                                  f"{message} is too long")

    def test_a_long_literal_with_few_significant_digits(self):
        long = "1" + "0" * 5000
        assert parse(f"1.{long}") == Num(f"1.{long}")

    def test_a_literal_with_no_significand_digits(self):
        # mpmath cannot convert ".0", whose significand has no digits left;
        # the node keeps the text as typed and the tape converts it
        assert parse(".0") == Num(".0") and parse(".00e5") == Num(".00e5")
        assert eval_expr(parse(".0*x + x"), "0.5") == mpf("0.5")
        assert eval_expr(Num("-.0"), "1") == 0
        with pytest.raises(ParseError, match="trailing input '.0'$"):
            parse("x .0")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("1+2)")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("x + $")

    def test_offsets_count_utf8_bytes(self):
        # a no-break space takes 2 bytes, an ideographic space 3 and
        # an e with acute accent 2
        with pytest.raises(ParseError) as exc:
            parse("x\u00a0+\u3000y")
        assert str(exc.value) == \
            "syntax error at byte offset 7: unknown identifier 'y'"
        with pytest.raises(ParseError) as exc:
            parse("\u00e9")
        assert exc.value.offset == 0
        with pytest.raises(ParseError) as exc:
            parse("\u3000x + \u00e9 + 1")
        assert str(exc.value) == \
            "syntax error at byte offset 7: unexpected character '\u00e9'"

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.one_of(
        st.sampled_from("+-*/^().eE_ xpisnc0123456789"),
        st.sampled_from("\u00e9\u03c0\u20ac\U0001d569$"),  # 2 to 4 bytes, $
        st.sampled_from("\u0661\u0968\uff19\U0001d7d9"),  # Unicode digits
        st.sampled_from("\t\n\u00a0\u2003\u3000\x1c\x85"),  # and spaces
        st.characters(exclude_categories=("Cs",))), max_size=30))
    def test_token_offsets_point_at_their_lexemes(self, text):
        data = text.encode("utf-8")
        try:
            tokens = expr._tokenize(text)
        except ParseError as err:
            # the rejected character starts at the offset
            rest = data[err.offset:].decode("utf-8")
            assert str(err).endswith(f"unexpected character {rest[0]!r}")
            assert not rest[0].isspace() and not rest[0].isdecimal()
            return
        end = 0  # byte offset past the previous lexeme
        for kind, value, off in tokens:
            # only whitespace lies between lexemes
            assert off >= end and not data[end:off].decode("utf-8").strip()
            rest = data[off:].decode("utf-8")
            if kind == "num" and isinstance(value, int):
                digits = re.match(r"\d+", rest).group()
                assert int(digits) == value
                lexeme = digits
            else:
                lexeme = value
            assert rest.startswith(lexeme)
            end = off + len(lexeme.encode("utf-8"))
        assert tokens[-1] == ("eof", "", len(data))

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(
        "x pi sin cos sqrt tan y ( ) + - * / ^ 1 2.5 .0 3e2".split() + [" "]),
        max_size=16).map("".join))
    @example("2^-x^2*3")
    @example("-(x)^-sin(x)^2^-3")
    def test_parse_equals_recursive_descent(self, text):
        # the precedence loop builds the recursive grammar's tree, and
        # fails with its message at its offset
        outcomes = []
        for parser in (parse, reference_parse):
            try:
                outcomes.append(parser(text))
            except ParseError as err:
                outcomes.append((str(err), err.offset))
        assert outcomes[0] == outcomes[1]

    def test_parentheses_and_minus_signs_nest_without_recursion(self):
        assert parse("(" * 20000 + "x" + ")" * 20000) == Var()
        assert parse("-" * 20001 + "x") == Neg(Var())
        e = parse("sin(" * 20000 + "x" + ")" * 20000)
        for _ in range(20000):
            assert type(e) is Sin
            e = e.arg
        assert e == Var()
        with pytest.raises(ParseError) as exc:
            parse("(" * 20000 + "x" + ")" * 19999)
        assert str(exc.value).endswith("expected ')', got end of input")
        assert exc.value.offset == 40000


def _expression_trees():
    atoms = st.one_of(
        st.integers(min_value=0, max_value=9).map(Num),
        st.just(Var()),
        st.just(PiConst()),
        st.just(Num("2.5")),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: Add(*t)),
            st.tuples(children, children).map(lambda t: Sub(*t)),
            st.tuples(children, children).map(lambda t: Mul(*t)),
            st.tuples(children, children).map(lambda t: Div(*t)),
            st.tuples(children, children).map(lambda t: Pow(*t)),
            # negate through the parser's constructor: it canonicalizes
            # away Neg(Num(..)) and double negation, which are unreachable
            children.map(_negate),
            children.map(Sin),
            children.map(Cos),
            children.map(Sqrt),
        )

    return st.recursive(atoms, extend, max_leaves=25)


class TestPrintRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_expression_trees())
    def test_parse_print_identity(self, tree):
        assert parse(to_text(tree)) == tree

    @settings(max_examples=300, deadline=None)
    @given(_expression_trees())
    @example(Add(Num(2), Mul(PiConst(), Num(-3))))   # a constant tree
    @example(Num("-2.5"))                            # a bare literal
    def test_equals_the_recursive_walk(self, tree):
        # f' and f'' share subtrees by reference, and fold literals
        # negative; a power with x in its exponent has none
        trees = [tree]
        with contextlib.suppress(DifferentiationError):
            trees.append(differentiate(tree))
            trees.append(differentiate(trees[-1]))
        for e in trees:
            assert to_text(e) == reference_to_text(e) == to_text(Tape(e))

    def test_a_20000_term_sum_prints_in_linear_memory(self):
        # each register's text is dropped after its last read; kept, the
        # texts of the sum's 20,000 prefixes would grow quadratically
        text = " + ".join(["x"] * 20000)
        tape = Tape(parse(text))
        tracemalloc.start()
        try:
            assert to_text(tape) == text
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_canonical_examples(self):
        assert to_text(parse("2*sin(x)^2")) == "2 * sin(x) ^ 2"
        assert to_text(Sub(Var(), Add(Num(1), Num(2)))) == "x - (1 + 2)"
        assert to_text(Pow(Neg(Var()), Num(2))) == "(-x) ^ 2"


class TestStructuralEquality:
    # == and hash walk an explicit stack, so no depth is too deep for them

    @staticmethod
    def _assert_twins(tree, twin, other):
        assert tree is not twin
        assert tree == twin and hash(tree) == hash(twin)
        assert tree != other and hash(tree) != hash(other)
        assert not tree == other and not tree != twin

    def test_a_900_term_sum(self):
        text = "+".join(["sin(x)"] * 900)
        # the first term is the deepest leaf of the left-leaning sum
        self._assert_twins(parse(text), parse(text),
                           parse("sin(2)" + text[len("sin(x)"):]))

    def test_a_tree_5000_deep(self):
        def chain(leaf):
            e = leaf
            for k in range(5000):
                e = Add(e, Num(k)) if k % 2 else Neg(e)
            return e

        self._assert_twins(chain(Var()), chain(Var()), chain(Num(7)))
        # a record holding a tree walks into it on the same stack
        self._assert_twins(Reference(chain(Var())), Reference(chain(Var())),
                           Reference(chain(Num(7))))

    def test_shared_subtrees_are_compared_once(self):
        # asin6's order-6 derivative is 3,220 objects, and a tree of far
        # more nodes when each shared subtree counts once per occurrence
        f, g = builtin_integrand("asin6"), builtin_integrand("asin6")
        d6, other = f.derivative_expr(6), g.derivative_expr(6)
        assert d6 == other and hash(d6) == hash(other)
        assert d6 != g.derivative_expr(5)


def _derivative_trees():
    """Trees for differentiation: negative and decimal literals, subtrees
    shared by reference, and powers with constant and x-bearing
    exponents."""
    atoms = st.one_of(st.integers(min_value=-3, max_value=3).map(Num),
                      st.sampled_from(["2.5", "-0.5", ".25"]).map(Num),
                      st.just(Var()), st.just(PiConst()))
    constants = st.one_of(st.integers(min_value=-3, max_value=3).map(Num),
                          st.sampled_from(["2.5", "-0.5"]).map(Num),
                          st.just(PiConst()))

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            *[pairs.map(lambda t, c=c: c(*t))
              for c in (Add, Sub, Mul, Div, Pow)],
            st.tuples(children, constants).map(lambda t: Pow(*t)),
            children.map(lambda c: Mul(c, c)),
            children.map(lambda c: Pow(c, c)),
            children.map(Neg), children.map(Sin), children.map(Cos),
            children.map(Sqrt))

    return st.recursive(atoms, extend, max_leaves=25)


def _x_in_exponent(e):
    """Text -> node of each power in ``e`` whose exponent holds x."""
    found, seen, stack = {}, set(), [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Pow) and Tape(node.exponent).has_x:
            found[to_text(node)] = node
        stack += [getattr(node, name) for name in node.__match_args__
                  if isinstance(getattr(node, name), expr.Expression)]
    return found


class TestDifferentiate:
    def test_identity(self):
        assert differentiate(Var()) == Num(1)

    def test_constants(self):
        assert differentiate(Num(7)) == Num(0)
        assert differentiate(PiConst()) == Num(0)

    def test_second_derivative_of_example_1_is_4_cos_2x(self):
        f2 = differentiate(differentiate(parse("2*sin(x)^2")))
        for x in ("0.1", "0.7", "1.3", "2.9"):
            got = eval_expr(f2, x)
            want = eval_expr(parse("4*cos(2*x)"), x)
            assert abs(got - want) <= 8 * ulp(want if want else 1, 53)

    def test_second_derivative_of_example_2_at_quarter(self):
        f2 = differentiate(differentiate(parse("6/sqrt(1-x^2)")))
        got = eval_expr(f2, "0.25", precision=113)
        # frozen from the finite-difference oracle below
        assert abs(got - mpf("7.9318698930327898")) < 1e-12

        def f(x):
            return eval_expr(parse("6/sqrt(1-x^2)"), x, precision=113)

        with workprec(113):
            fd = central_second_diff(f, mpf("0.25"), mpf("1e-4"))
        assert abs(got - fd) / abs(fd) <= 1e-6

    def test_variable_exponent_rejected(self):
        with pytest.raises(DifferentiationError):
            differentiate(parse("x^x"))

    @pytest.mark.parametrize("text, named", [("x^(2^x)", "2 ^ x"),
                                             ("(x^x)^x", "x ^ x")])
    def test_the_innermost_power_with_x_in_its_exponent_is_named(self, text,
                                                                 named):
        # operands come first, as a DomainError names the first failing
        # operand
        with pytest.raises(DifferentiationError) as exc:
            differentiate(parse(text))
        assert str(exc.value) == \
            f"cannot differentiate {named}: exponent contains x"

    @settings(max_examples=300, deadline=None)
    @given(_derivative_trees())
    @example(Mul(Pow(Var(), Var()), Sin(Pow(Num(2), Var()))))
    def test_equals_the_recursive_walk(self, tree):
        outcomes = []
        for d in (differentiate, reference_differentiate):
            try:
                outcomes.append(d(tree))
            except DifferentiationError as err:
                outcomes.append(err)
        got, want = outcomes
        if not isinstance(want, DifferentiationError):
            assert got == want
            return
        assert isinstance(got, DifferentiationError)
        # the walk names the outermost power with x in its exponent and
        # the pass over the tape the innermost; one such power is both
        powers = _x_in_exponent(tree)
        if len(powers) == 1:
            assert str(got) == str(want)
        named = powers[str(got)[len("cannot differentiate "):
                                -len(": exponent contains x")]]
        assert not _x_in_exponent(named.base)
        assert not _x_in_exponent(named.exponent)

    def test_a_derivative_order_must_be_an_integer(self):
        f = builtin_integrand("asin6")
        with pytest.raises(TypeError, match=(
                "^'float' object cannot be interpreted as an integer$")):
            f.derivative_expr(1.5)
        assert len(f._tapes) == 1  # nothing was built before the refusal

    def test_a_tape_order_must_be_a_non_negative_integer(self):
        # the same refusals on a fresh integrand and on one whose f' is
        # built, as after any L,R table
        f = builtin_integrand("asin6")
        for built in (1, 2):
            with pytest.raises(TypeError, match=(
                    "^'float' object cannot be interpreted as an integer$")):
                f.tape(1.5)
            with pytest.raises(ValueError, match="order must be >= 0"):
                f.tape(-1)
            assert len(f._tapes) == built
            f.tape(1)

    def test_a_derivative_order_must_not_be_negative(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            builtin_integrand("asin6").derivative_expr(-1)

    def test_identity_simplifications(self):
        # d/dx (x + 7) folds the zero away entirely
        assert differentiate(parse("x+7")) == Num(1)
        assert differentiate(parse("7*x")) == Num(7)

    def test_finite_difference_agreement_on_random_trees(self):
        rng = random.Random(20240817)
        checked = 0
        while checked < 400:
            tree, _ = random_poly_tree(rng)
            deriv = differentiate(tree)
            x = mpf(rng.uniform(-1.0, 1.0))
            sym = eval_expr(deriv, x)
            with workprec(53):
                fd = central_diff(lambda t: eval_expr(tree, t), x, mpf("1e-5"))
            assert abs(sym - fd) <= 1e-5 * (1 + abs(sym))
            checked += 1


class TestEval:
    def test_sin2_at_half_pi(self):
        f = parse("2*sin(x)^2")
        with workprec(53):
            x = mp.pi / 2
        v = eval_expr(f, x)
        assert abs(v - 2) <= 4 * ulp(mpf(2), 53)

    def test_asin6_at_half_is_4_sqrt_3(self):
        v = eval_expr(parse("6/sqrt(1-x^2)"), "0.5", precision=113)
        with workprec(113):
            want = 4 * mp.sqrt(3)
        assert abs(v - want) <= 4 * ulp(want, 113)

    def test_sqrt_domain_error(self):
        with pytest.raises(DomainError) as exc:
            eval_expr(parse("6/sqrt(1-x^2)"), "1.5")
        assert "sqrt" in str(exc.value)
        assert "1.5" in str(exc.value)

    def test_integrand_errors_carry_the_point(self):
        f = builtin_integrand("asin6")
        with pytest.raises(DomainError) as exc:
            f.eval_at(mpf(2))
        assert exc.value.x == 2 and "at x = 2" in str(exc.value)
        with pytest.raises(DomainError) as exc:
            f.derivative_at(mpf(3), 2)
        assert exc.value.x == 3

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_expr(parse("1/(x-1)"), 1)

    def test_fractional_power_of_negative(self):
        with pytest.raises(DomainError):
            eval_expr(parse("(x-2)^0.5"), 1)

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            eval_expr(parse("x^-1"), 0)

    def test_negative_base_integer_power(self):
        assert eval_expr(parse("(x-2)^3"), 0) == -8

    def test_python_floats_convert_at_the_requested_precision(self):
        assert eval_expr(parse("x"), 0.5) == mpf("0.5")
        for precision in (8, 53, 113):
            got = eval_expr(parse("x + 1"), 0.1, precision)
            with workprec(precision):
                assert got == mpf(0.1) + 1

    def test_decimal_literals_convert_at_eval_precision(self):
        e = parse("0.1")
        low = eval_expr(e, 0, precision=53)
        high = eval_expr(e, 0, precision=200)
        assert low != high  # 0.1 is not binary-exact; rounding differs

    def test_precision_agreement_on_singularity_free_inputs(self):
        # values computed at 256 and 512 bits agree to at least 250 bits
        cases = [
            ("2*sin(x)^2", ("0.3", "1.1", "2.7")),
            ("6/sqrt(1-x^2)", ("0.1", "0.25", "0.4")),
            ("2/(1+x^2)", ("-0.9", "0", "0.8")),
            ("x^3 - 2*x + cos(x)", ("-0.5", "0.6")),
        ]
        for text, xs in cases:
            e = parse(text)
            for x in xs:
                lo = eval_expr(e, x, precision=256)
                hi = eval_expr(e, x, precision=512)
                assert abs(lo - hi) <= abs(hi) * mpf(2) ** -250

    def test_trees_are_immutable(self):
        node = parse("x+1")
        with pytest.raises(Exception):
            node.left = Num(5)


def _no_runaway_power(e, confined=False):
    """False when a power sits inside an exponent or a sine or cosine
    argument: there mpmath needs billions of bits (sin(9^9^9) reduces its
    argument by pi to 10^9 bits), on either evaluator."""
    if isinstance(e, Pow):
        return not confined and _no_runaway_power(e.base) \
            and _no_runaway_power(e.exponent, True)
    if isinstance(e, (Sin, Cos)):
        return _no_runaway_power(e.arg, True)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return _no_runaway_power(e.left, confined) \
            and _no_runaway_power(e.right, confined)
    if isinstance(e, (Neg, Sqrt)):
        return _no_runaway_power(e.arg, confined)
    return True


def _outcome(evaluate, e, x):
    """The exact value, or the full text of the domain error."""
    try:
        return evaluate(e, x)._mpf_
    except DomainError as err:
        return f"DomainError: {err}"


with workprec(300):
    _THIRD = mpf(1) / 3  # more bits than any working precision below


class TestTape:
    # strings are converted at the working precision; _THIRD is used as
    # given, so a bare x returns all its bits and -x rounds them.  The
    # powers of two and 1e308 sit at the edges of the double range, and
    # 2^-1074 below its normal range, where 53-bit runs leave doubles
    POINTS = (None, "-1.5", "0", "0.5", "1", "2.75", _THIRD,
              mpf(2) ** -1000, -mpf(2) ** -1000, mpf(2) ** 1000, "1e308",
              mpf(2) ** -1074)

    def assert_matches_tree_walk(self, tree):
        tapes = Tape(tree), _compiled_tape(tree)
        for precision in (4, 53, 256):
            with workprec(precision):
                for x in self.POINTS:
                    x = mpf(x) if isinstance(x, str) else x
                    want = _outcome(tree_eval, tree, x)
                    for tape in tapes:
                        assert _outcome(_mpf_run, tape, x) == want

    def test_x_keeps_its_bits_and_negation_rounds_them(self):
        with workprec(53):
            assert Tape(Var()).run(_THIRD._mpf_) == _THIRD._mpf_
            negated = Tape(Neg(Var())).run(_THIRD._mpf_)
        # the last field of an _mpf_ tuple is the significand's bit count
        assert negated[3] <= 53 < _THIRD._mpf_[3]
        self.assert_matches_tree_walk(Var())
        self.assert_matches_tree_walk(Neg(Var()))

    @settings(max_examples=150, deadline=None)
    @given(_expression_trees().filter(_no_runaway_power))
    def test_tape_matches_the_tree_walk_bit_for_bit(self, tree):
        self.assert_matches_tree_walk(tree)
        try:
            deriv = differentiate(tree)
        except DifferentiationError:
            return
        # derivatives share subtrees by reference, and equal ones by value
        self.assert_matches_tree_walk(deriv)

    def test_operands_fail_left_to_right(self):
        # at x = 1 the numerator and the denominator both fail, and the
        # numerator, evaluated first, is named
        e = parse("sqrt(-x)/(x-1)")
        reason = "square root of a negative value"
        want = f"DomainError: {reason} in sqrt(-x) at x = 1.0"
        assert _outcome(eval_expr, e, 1) == want
        with workprec(53):
            assert _outcome(tree_eval, e, mpf(1)) == want
            assert _outcome(_mpf_run, Tape(e), mpf(1)) == want
        tape = Tape(e)
        with workprec(113):
            for _ in range(expr._COMPILE_AFTER):
                tape.run(mpf(-1)._mpf_)
            # the compiled program hands the failing point to the loop
            program = tape._state(113).program
            assert program(mpf(-1)._mpf_) == tape.run(mpf(-1)._mpf_)
            assert program(mpf(1)._mpf_) is None
            assert _outcome(_mpf_run, tape, mpf(1)) == want
        # a constant context refuses x before any operand runs
        with pytest.raises(DomainError) as exc:
            eval_expr(parse("1/0 + x"), None)
        assert str(exc.value) == "free variable x in a constant context in x"

    def test_trig_arguments_from_2_to_the_2_to_the_17_are_refused(self):
        # the largest accepted argument's top bit is 2^17
        with workprec(53):
            assert eval_expr(parse("cos(x)"), mpf(2) ** 131071) == \
                mp.cos(mpf(2) ** 131071)
            for text, name in (("sin(x)", "sine"), ("cos(x)", "cosine")):
                with pytest.raises(DomainError) as exc:
                    eval_expr(parse(text), -mpf(2) ** 131072)
                assert str(exc.value).startswith(
                    f"{name} argument beyond 2^131072 in {text} at x = ")

    def test_builtin_derivatives_match_the_tree_walk(self):
        # deep derivative DAGs: asin6's order 4 is 4,036 tree nodes
        for name in ("sin2", "asin6", "atan2"):
            f = builtin_integrand(name)
            for order in range(5):
                self.assert_matches_tree_walk(f.derivative_expr(order))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_expression_trees(), _derivative_trees()))
    @example(parse("x*cos(2.5*x) + sin(2.5*x) - cos(x)*sin(x)"))
    @example(Mul(Sin(Var()), Sin(Var())))   # equal operands, two objects
    @example(Num("-2.5"))                    # a bare literal
    def test_equals_the_recursive_builder(self, tree):
        # f' and f'' share subtrees by reference and by value, and hold
        # sin/cos pairs; a power with x in its exponent has none
        trees = [tree]
        with contextlib.suppress(DifferentiationError):
            trees.append(differentiate(tree))
            trees.append(differentiate(trees[-1]))
        for e in trees:
            got, want = Tape(e), reference_tape(e)
            assert len(got.nodes) == len(want.nodes)
            assert all(g is w for g, w in zip(got.nodes, want.nodes))
            assert [(out, a, b, node) for out, _, a, b, node in got.steps] \
                == [(out, a, b, node) for out, _, a, b, node in want.steps]
            assert _kernels(got) == _kernels(want)
            assert got._literals == want._literals
            assert (got._var, got.result, got.has_x) == \
                (want._var, want.result, want.has_x)

    @pytest.mark.parametrize("tree, named", [
        (Sin(5), "5"),
        (Add(Var(), None), "None"),
        # operands are visited left to right, depth first
        (Add(Mul(Var(), "a"), Sin(2.5)), "'a'"),
        (Add(Sin(Cos("b")), 2), "'b'"),
        (Sub(Neg(Var()), Cos([1])), "[1]"),
        (7, "7"),
    ])
    def test_a_non_node_operand_is_refused_as_the_recursive_builder_did(
            self, tree, named):
        for build in (Tape, reference_tape):
            with pytest.raises(TypeError) as exc:
                build(tree)
            assert str(exc.value) == f"not an expression node: {named}"

    def test_a_large_build_runs_no_cyclic_collection(self):
        # a 20,000-term sum of k*x makes 39,999 steps and tens of
        # thousands of tuples, enough to set the collector off many times
        e = parse(" + ".join(f"{k}*x" for k in range(20000)))
        phases = []

        def record(phase, info):
            phases.append(phase)

        assert gc.isenabled()
        gc.callbacks.append(record)
        try:
            tape = Tape(e)
        finally:
            gc.callbacks.remove(record)
        assert len(tape.steps) == 39999
        assert phases == []
        assert gc.isenabled()

    @pytest.mark.parametrize("collecting", [True, False])
    def test_a_build_restores_the_callers_collector_setting(self,
                                                            collecting):
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            Tape(parse("sin(x) + 1"))
            assert gc.isenabled() is collecting
            with pytest.raises(TypeError):
                Tape(Add(Mul(Var(), "a"), Sin(Var())))
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()


def _kernels(tape):
    """Each step's kernel, where the kernels of one ``_trig_pair`` read as
    the index of the pair's first step."""
    pairs, kernels = {}, []
    for i, (_, kernel, _, _, node) in enumerate(tape.steps):
        plain = type(node).kernel
        if isinstance(plain, str):
            plain = getattr(mpmath.ctx_mp_python, plain)
        if kernel is not plain:
            # a pair's two kernels call one cos_sin closure
            half = inspect.getclosurevars(kernel).nonlocals["kernel"]
            kernel = pairs.setdefault(
                inspect.getclosurevars(half).nonlocals["cos_sin"], i)
        kernels.append(kernel)
    return kernels


def _mpf_run(tape, x):
    """``Tape.run`` on mpfs."""
    return mp.make_mpf(tape.run(_raw(x)))


def _raw(x):
    return None if x is None else x._mpf_


def _tuple_tape(tape):
    """A fresh tape of ``tape``'s tree without a float program, so that
    its first ``_COMPILE_AFTER`` runs at each precision, 53 bits
    included, are the interpreted tuple loop's and then it compiles its
    tuple run there."""
    fresh = Tape(tape.nodes[tape.result])
    fresh._state(53).floats = None
    return fresh


def _tuple_run(tape, x):
    return _mpf_run(_tuple_tape(tape), x)


def _compiled_tape(tree):
    """A tape of ``tree`` whose float program, if it has one, runs
    compiled from its first float run on."""
    tape = Tape(tree)
    state = tape._state(53)
    if state.floats:
        state.program = expr._compile(state.floats, tape._var, tape.result)
    return tape


def _which_run(tape, x):
    """Which run answers at 53 bits: "floats", "fallback" (the float run
    hands over to the tuple run), "tuples" (no float program) or "refused"
    (no x for a tape with x: ``Tape.run`` raises before any run)."""
    if x is None and tape.has_x:
        return "refused"
    floats = tape._state(53).floats
    if floats is None:
        return "tuples"
    return "fallback" if tape._run_floats(floats, _raw(x)) is None \
        else "floats"


# native steps around a subexpression, whose outcome, a value or a domain
# error, they carry to the tape's result unchanged
_WRAP = "({}) * (x - 1) / (x + 2)"


class TestFloatBackend:
    """At 53 bits a tape runs on doubles first and hands over to its tuple
    run wherever a double could round differently; either way the value,
    or the error text, is the tuple run's."""

    CASES = [  # (text, x, the run that answers)
        ("1e300*x*x*x", "10", "floats"),
        ("1e300*x*x*x", "1e5", "fallback"),                # overflow
        ("(1e-200*x)*(1e-200*x)*1e300*1e100", "1e40", "fallback"),  # subnormal
        ("(1e-200*x)*(1e-200*x)*1e300*1e100", "1", "fallback"),  # 0 product
        ("1e400*x + x*x - x", "1", "tuples"),            # literal too large
        ("1e-400 + x*x - x + x", "1", "tuples"),         # literal too small
        ("x*x - x + 1", _THIRD, "fallback"),             # x has 300 bits
        ("x*x - x + 1", None, "refused"),                # no x
        ("x*x - x + 1", mpf(2) ** 1024, "fallback"),     # x above doubles
        ("x*x - x + 1", mpf(2) ** -1074, "fallback"),    # x subnormal
        ("pi * 2 + pi * 3 - 1", None, "floats"),
        (_WRAP.format("sqrt(-x)"), "0", "floats"),        # sqrt(-0.0)
        ("(x - 1) / sqrt(-x) + x * x", "0", "fallback"),  # division by 0
        (_WRAP.format("sqrt(-x)"), "1", "fallback"),      # root of x < 0
        ("x^2 - x^-1 + x^1 + x^0", "0.3", "floats"),     # u^2 native
        ("x^-1", "0", "fallback"),                       # powers by kernel
        ("x^1", "0.3", "floats"),
        ("x^0", "0", "floats"),
        (_WRAP.format("x^-1"), "0", "fallback"),
        (_WRAP.format("x^0"), "0", "floats"),
        (_WRAP.format("x^3"), "1.1", "floats"),
        (_WRAP.format("x^-2"), "0.3", "floats"),
        (_WRAP.format("x^-2"), "0", "fallback"),
        (_WRAP.format("x^0.5"), "3", "floats"),
        (_WRAP.format("x^0.5"), "-3", "fallback"),
        (_WRAP.format("x^1099511627776"), "1", "floats"),
        (_WRAP.format("x^1099511627776"), "1.0000001", "fallback"),
        (_WRAP.format("sin(x) * cos(x)"), "0.7", "floats"),
        (_WRAP.format("sin(x) - cos(x)"), "1e300", "floats"),
    ]

    @pytest.mark.parametrize("text, x, run", CASES)
    def test_value_and_error_text_are_the_tuple_runs(self, text, x, run):
        tape, compiled = Tape(parse(text)), _compiled_tape(parse(text))
        with workprec(53):
            x = mpf(x) if isinstance(x, str) else x
            assert _which_run(tape, x) == run
            want = "DomainError: free variable x in a constant context " \
                "in x" if run == "refused" else _outcome(_tuple_run, tape, x)
            assert _outcome(_mpf_run, tape, x) == want
            assert _outcome(_mpf_run, compiled, x) == want
            if run in ("floats", "fallback"):
                # the same tuple, or the same hand-over
                generated = compiled._state(53).program(_raw(x))
                assert tape._run_floats(tape._state(53).floats,
                                        _raw(x)) == generated
                assert (generated is None) == (run == "fallback")

    def test_every_tape_with_steps_runs_on_doubles(self):
        # however few of its steps are native
        for text in ("x^3", "2*sin(x)^2", "cos(2.1*x + 0.5)"):
            assert _which_run(Tape(parse(text)), mpf("0.5")) == "floats"
        for name in BUILTIN_NAMES:
            f = builtin_integrand(name)
            for order in range(5):
                assert _which_run(f.tape(order), mpf("0.25")) == "floats"

    def test_stepless_tapes_run_on_tuples_past_their_compile(self):
        # x, a constant and f'' of a linear integrand, folded to 0, have
        # no step, so no float program; at the _COMPILE_AFTER-th run they
        # compile the tuple run of their empty step list
        linear = differentiate(differentiate(parse("3*x + 1")))
        with workprec(53):
            for tree, x, want in ((parse("x"), mpf("0.5"), mpf("0.5")),
                                  (parse("pi"), None, +mp.pi),
                                  (parse("2.5"), None, mpf("2.5")),
                                  (linear, mpf("0.5"), mpf(0))):
                tape = Tape(tree)
                assert tape.steps == []
                assert _which_run(tape, x) == "tuples"
                for _ in range(expr._COMPILE_AFTER + 1):
                    assert _mpf_run(tape, x) == want
                assert tape._state(53).program is not None

    def test_other_precisions_never_run_on_doubles(self, monkeypatch):
        def run_floats(tape, program, x):
            raise AssertionError("a float run below or above 53 bits")

        monkeypatch.setattr(Tape, "_run_floats", run_floats)
        for precision in (52, 54, 256):
            assert eval_expr(parse("x*x - x + 1"), "0.5", precision) == \
                mpf("0.75")

    @pytest.fixture
    def compiles(self, monkeypatch):
        """The step counts of the float programs compiled from now on."""
        steps, generate = [], expr._compile

        def counted(program, var, result):
            steps.append(len(program[1]))
            return generate(program, var, result)

        monkeypatch.setattr(expr, "_compile", counted)
        return steps

    def test_the_north_star_table_never_falls_back(self, monkeypatch,
                                                  compiles):
        # a float run, interpreted or compiled, that answers None hands
        # its point over to the tuple run: a fallback
        fallbacks, generate = [], expr._compile

        def counted(run):
            def float_run(*args):  # (tape, program, x) or (x)
                value = run(*args)
                if value is None:
                    fallbacks.append(args[-1])
                return value
            return float_run

        monkeypatch.setattr(Tape, "_run_floats", counted(Tape._run_floats))
        monkeypatch.setattr(expr, "_compile",
                            lambda *args: counted(generate(*args)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["table", "--integrand", "asin6",
                         "--panels", "2^0..2^10"]) == 0
        assert fallbacks == []
        # f'' (257 samples, then 2,047 midpoints) and f (2,049 nodes)
        # compile, in that order; f' and f'''' run only in their 257-sample
        # sign checks
        assert compiles == [24, 4]

    def test_tapes_below_the_threshold_stay_interpreted(self, compiles):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["integrate", "--integrand", "asin6", "--rule", "S",
                         "--panels", "16"]) == 0
            assert main(["bracket", "--integrand", "atan2", "--pair", "T2,S",
                         "--panels", "64"]) == 0
        assert compiles == []


def _tuple_outcome(run, *args):
    """("value", tuple) or ("error", reason, node, point) of a run."""
    try:
        return "value", run(*args)
    except DomainError as err:
        return "error", err.reason, err.node, err.x


class TestTupleProgram:
    """After ``_COMPILE_AFTER`` tuple runs at one precision a tape runs its
    generated tuple program, which answers with the interpreted loop's
    tuple, bit for bit; where the loop raises, the program returns None
    and the loop runs again to name the node and the point.  At 53 bits
    that is a tape without a float program; a float tape compiles its
    float program there and hands its fallbacks to the loop."""

    # a random smooth expression, alone or with a term that fails at x = c:
    # a root crossing c, a quotient and a negative power hitting it
    VARIANTS = ("{e}", "{e} + sqrt(x - {c})", "({e}) / (x - {c})",
                "({e}) * (x - {c})^-{n}", "({e}) * (x - {c})^{n}")

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), variant=st.sampled_from(VARIANTS),
           c=st.sampled_from(("0", "0.5", "-1.25", "0.1", "3")),
           n=st.integers(1, 4))
    @example(seed=1, variant=VARIANTS[1], c="0.5", n=1)
    @example(seed=2, variant=VARIANTS[2], c="0.1", n=1)
    @example(seed=3, variant=VARIANTS[3], c="-1.25", n=3)
    @example(seed=4, variant=VARIANTS[3], c="0", n=1)
    def test_compiled_runs_equal_interpreted_runs(self, seed, variant, c, n):
        text = variant.format(e=random_expression(random.Random(seed)), c=c,
                              n=n)
        float_tape = Tape(parse(text))
        for prec in (113, 256, 53):
            # a tape with a float program compiles that at 53 bits
            tape = float_tape if prec != 53 else _tuple_tape(float_tape)
            with workprec(prec):
                points = [None, mpf(c)._mpf_]  # x - c is exactly 0 at prec
            with workprec(300):  # no double holds these
                points += [(mpf(c) + mpf(k) / 7)._mpf_ for k in (-2, -1, 1)]
            with workprec(prec):
                interpreted = [_tuple_outcome(tape.run, x) for x in points]
                while tape._state(prec).program is None:
                    for x in points:
                        _tuple_outcome(tape.run, x)
                program = tape._state(prec).program
                for x, want in zip(points, interpreted):
                    assert _tuple_outcome(tape.run, x) == want
                # a fresh tape, far below _COMPILE_AFTER runs, runs the loop
                loop = _tuple_tape(tape).run
                for x in points[1:]:  # Tape.run refuses x = None itself
                    want = _tuple_outcome(loop, x)
                    assert program(x) == (want[1] if want[0] == "value"
                                          else None)
            failing = {"error"} if variant != self.VARIANTS[0] and \
                variant != self.VARIANTS[4] else set()
            assert {o[0] for o in interpreted[1:]} - {"value"} == failing
            assert interpreted[0][1] == "free variable x in a constant context"
        # a float tape's 53-bit fallbacks, here the 300-bit points, stay on
        # the interpreted loop: its one program is the float program
        state = float_tape._state(53)
        if state.floats:
            with workprec(53):
                for _ in range(expr._COMPILE_AFTER):
                    for x in points:
                        _tuple_outcome(float_tape.run, x)
                for x, want in zip(points[2:], interpreted[2:]):
                    assert state.program(x) is None
                    assert _tuple_outcome(float_tape.run, x) == want


# decimal literals as the lexer reads them, a "." after or before the
# digits or none at all, and their exponents, past +-400 too; a minus in
# front is _negate's.  Runs of zeros and bare ".0" forms come often.
_DIGITS = st.text("0123456789", max_size=30) | st.sampled_from(("", "0", "00"))
_DECIMALS = st.builds(
    lambda whole, dot, fraction, exponent, minus: (
        ("-" if minus else "") + whole + dot + fraction + exponent),
    _DIGITS, st.sampled_from((".", "")), _DIGITS,
    st.just("") | st.builds("{}{}{}".format, st.sampled_from("eE"),
                            st.sampled_from(("", "+", "-")),
                            st.integers(0, 700)),
    st.booleans()).filter(
        lambda t: re.fullmatch(r"-?(\d+\.\d*|\.\d+|\d+e\S+)", t, re.I))


class TestLiterals:
    """Each literal converts from its integer significand and exponent,
    bit for bit as ``mpf`` converted its text; ``eval_expr`` converts a
    string x the same way."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_DECIMALS, st.integers(-3 ** 300, 3 ** 300)),
           st.integers(4, 4096))
    @example(".0", 53)
    @example("-.0", 4)
    @example("-1.50e+401", 113)
    @example("0e-500", 4096)
    @example("505307e-406", 53)  # from_str's two roundings differ here
    @example(-(3 ** 300), 4)  # an int wider than the precision
    def test_equals_mpf_of_the_text(self, value, prec):
        if isinstance(value, str):
            node = parse(value.lstrip("-"))
            if value[:1] == "-":
                node = _negate(node)
            assert node == Num(value)
        with workprec(prec):
            want = reference_literal(value)._mpf_
        assert eval_expr(Num(value), None, prec)._mpf_ == want
        assert Tape(Num(value))._state(prec).regs[0] == want

    def test_past_10_to_the_400_mpmath_rounds_twice(self, capsys):
        # from_str rounds 10^-406 and then the product; rounding once
        # would give 5.0530700000000005e-401
        assert main(["integrate", "--integrand", "505307e-406", "--a", "0",
                     "--b", "1", "--rule", "M", "--panels", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            "value = 5.0530699999999995e-401"
        once = from_rational(505307, 10 ** 406, 53, round_nearest)
        assert eval_expr(Num("505307e-406"), None)._mpf_ != once
        assert mp.make_mpf(once) == mpf("5.0530700000000005e-401")

    def test_eval_expr_takes_the_literals_parse_takes(self):
        x = parse("x")
        assert eval_expr(x, ".0") == 0 and eval_expr(x, "-.0") == 0
        assert eval_expr(x, ".5") == mpf("0.5")
        for prec in (53, 113):
            with workprec(prec):
                assert eval_expr(x, "1e-3", prec) == mpf("1e-3")
        assert eval_expr(x, " -2.50 ") == mpf("-2.5")
        for text in ("inf", "nan", "1/3", "+1.5", "1_000", "", "x"):
            with pytest.raises(ValueError):
                eval_expr(x, text)


class TestTrigPairs:
    """sin(u) and cos(u) on one register share one mpf_cos_sin call per
    argument; each answers with the value or error of its own kernel."""

    TEXTS = ("x*cos(2.5*x) + sin(2.5*x)", "cos(x) - sin(x)*x^2",
             "sin(x)/cos(x) + sin(2*x)*cos(2*x) - x*cos(3*x)",
             "(x - 1) / (x + 2) * sin(x) * cos(x) - x * x")

    def test_only_a_pair_on_one_register_shares(self):
        tape = Tape(parse(self.TEXTS[2]))
        k = {to_text(e): kernel for _, kernel, _, _, e in tape.steps
             if type(e) in (Sin, Cos)}
        assert k.pop("cos(3 * x)") is expr._checked_cos
        assert len({*k.values(), expr._checked_sin, expr._checked_cos}) == 6
        assert len(tape.steps) == len(tape.nodes) - len(tape._literals) - 1

    def test_one_mpf_cos_sin_call_per_run(self, monkeypatch):
        import mpmath.libmp.libelefun as elefun
        calls, cos_sin = [], elefun.mpf_cos_sin

        def counted(*args):
            calls.append(args[0])
            return cos_sin(*args)

        # mpf_sin and mpf_cos call it from their own module
        monkeypatch.setattr(elefun, "mpf_cos_sin", counted)
        monkeypatch.setattr(expr, "mpf_cos_sin", counted)
        e = parse(self.TEXTS[0])
        with workprec(113):
            xs = [(mpf(k) / 7)._mpf_ for k in range(1, 4)] * 101
            for tape, per_run in ((Tape(e), 1), (_unpaired(e), 2)):
                counts = []
                for x in xs:  # the last three runs are compiled
                    del calls[:]
                    tape.run(x)
                    counts.append(len(calls))
                assert counts == [per_run] * len(xs)
                assert tape._state(113).program is not None

    @pytest.mark.parametrize("text", TEXTS)
    def test_values_and_errors_are_the_unshared_kernels(self, text):
        e = parse(text)
        points = [mpf(k) / 3 for k in (-4, 1, 2)] + [mpf(2) ** -80]
        big = -mpf(2) ** 131072  # refused, by the first step of its pair
        for prec in (53, 113):
            paired, unpaired = _compiled_tape(e), _unpaired(e)
            with workprec(prec):
                for x in points:
                    want = _outcome(tree_eval, e, x)
                    assert _outcome(_mpf_run, unpaired, x) == want
                    assert _outcome(_mpf_run, paired, x) == want
                want = _outcome(_mpf_run, unpaired, big)
                assert "argument beyond 2^131072" in want
                assert _outcome(_mpf_run, paired, big) == want


def _unpaired(e):
    """A tape of ``e`` whose sin and cos steps keep their own kernels."""
    tape = Tape(e)
    tape.steps = [(out, type(node).kernel if type(node) in (Sin, Cos)
                   else k, a, b, node) for out, k, a, b, node in tape.steps]
    return tape


class TestGrid:
    """``grid`` equals the tuple formula a + k*step bit for bit, on doubles
    where those round the same and by the formula where they might not."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []

        def counted(a, step, ks, prec):
            calls.append(len(ks))
            return grid_tuples(a, step, ks, prec)

        monkeypatch.setattr(expr, "_grid_tuples", counted)
        return calls

    @staticmethod
    def formula(a, step, ks):
        return [mpf_add(a, mpf_mul_int(step, k, 53, round_nearest), 53,
                        round_nearest) for k in ks]

    @pytest.mark.parametrize("a, b, doubles", [
        ("0", "0.5", True),
        ("-1", "3", True),           # the points cross 0
        ("0", "pi", True),
        ("-pi", "1e-3", True),
        ("1e-3", "1e300", True),
        ("1e400", "2e400", False),   # no double equals a
        ("1e-400", "1e-399", False),
        ("0", "1e-310", False),      # a subnormal step
    ])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 256, 1000, 2 ** 20])
    def test_panel_grids_equal_the_tuple_formula(self, fallbacks, a, b,
                                                 doubles, n):
        with workprec(53):
            lo, hi = Interval(a, b).bounds()
            half = ((hi - lo) / n / 2)._mpf_
            # every half-step index up to 2n, sampled when n is large
            stride = 2 * max(1, n // 500)
            for start in (0, 1):
                ks = range(start, 2 * n + 1, stride)
                assert grid(lo._mpf_, half, ks, 53) == \
                    self.formula(lo._mpf_, half, ks)
        assert len(fallbacks) == (0 if doubles else 2)

    @pytest.mark.parametrize("a, step, ks", [
        # -1.5 * 2^-1022 + 2^-1022 is subnormal
        (from_float(-1.5 * 2.0 ** -1022), from_float(2.0 ** -1022),
         range(4)),
        # 2^1023 + 2^1023 overflows a double
        (from_float(2.0 ** 1023), from_float(2.0 ** 1023), range(3)),
        # k from 2^53 on has no exact double
        (from_float(0.5), from_float(2.0 ** -60),
         range(2 ** 53 - 2, 2 ** 53 + 3)),
    ])
    def test_points_doubles_cannot_hold_take_the_tuple_formula(
            self, fallbacks, a, step, ks):
        assert grid(a, step, ks, 53) == self.formula(a, step, ks)
        assert fallbacks == [len(ks)]

    def test_other_precisions_take_the_tuple_formula(self, fallbacks):
        with workprec(113):
            step = (mpf(1) / 3)._mpf_
            ks = range(0, 10)
            assert grid(fzero, step, ks, 113) == [
                mpf_add(fzero, mpf_mul_int(step, k, 113, round_nearest), 113,
                        round_nearest) for k in ks]
        assert fallbacks == [10]


class TestToTuple:
    """``_to_tuple`` converts a finite double exactly, as ``from_float``
    does; every 53-bit grid point and float-lane result goes through it."""

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-2 ** 64, 2 ** 64).map(float),
        # the subnormals and the smallest normals
        st.floats(-2.0 ** -1021, 2.0 ** -1021)))
    @example(0.0)
    @example(-0.0)
    @example(1.0)
    @example(-3.0)
    @example(2.0 ** 53 + 2)
    @example(5e-324)
    @example(-2.0 ** -1030)
    @example(sys.float_info.min)
    @example(2.0 ** 1023)
    @example(-2.0 ** 1023)
    @example(sys.float_info.max)
    def test_equals_from_float(self, v):
        assert expr._to_tuple(v) == from_float(v)


def _finite_tuples(nonzero=False):
    """Finite ``_mpf_`` tuples of either sign: mantissas up to 70 bits,
    exponents within 300 of 0, and 0 unless ``nonzero``."""
    mans = st.integers(1, 2 ** 70 - 1)
    tuples = st.builds(lambda sign, man, exp: from_man_exp(sign * man, exp),
                       st.sampled_from((1, -1)), mans, st.integers(-300, 300))
    return tuples if nonzero else st.one_of(st.just(fzero), tuples)


class TestExactGrid:
    """``_grid_tuples`` builds a grid whose every point is exact in
    integers and any other by the formula, bit for bit the formula's."""

    @staticmethod
    def formula(a, step, ks, prec):
        return [mpf_add(a, mpf_mul_int(step, k, prec, round_nearest), prec,
                        round_nearest) for k in ks]

    @pytest.fixture
    def no_formula(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the tuple formula ran")

        monkeypatch.setattr(expr, "mpf_mul_int", refuse)

    @settings(max_examples=500, deadline=None)
    @given(a=st.one_of(_finite_tuples(), st.sampled_from((finf, fninf, fnan))),
           step=_finite_tuples(nonzero=True),
           start=st.integers(0, 2 ** 40), n=st.integers(0, 40),
           stride=st.integers(1, 5), prec=st.integers(4, 1024))
    def test_equals_the_tuple_formula(self, a, step, start, n, stride, prec):
        ks = range(start, start + n, stride)
        assert grid_tuples(a, step, ks, prec) == \
            self.formula(a, step, ks, prec)

    @settings(max_examples=300, deadline=None)
    @given(a=_finite_tuples(), man=st.integers(-2 ** 20, 2 ** 20),
           shift=st.integers(-64, 8), n=st.integers(1, 300),
           prec=st.integers(4, 1024))
    def test_equals_the_tuple_formula_near_a(self, a, man, shift, n, prec):
        # a step within a few dozen bits of a, where most grids are exact
        step = from_man_exp(man or 1, (a[2] if a[1] else 0) + shift)
        ks = range(n)
        assert grid_tuples(a, step, ks, prec) == \
            self.formula(a, step, ks, prec)

    @pytest.mark.parametrize("a, step", [(15, 2), (-15, -2), (13, 1),
                                         (14, 1)])
    def test_a_sum_one_bit_too_wide_is_rounded(self, a, step):
        # A and 2*S fit 4 bits but A + 2*S may not: 15 + 2*2 = 19 rounds
        # to 20, while 13 + 2*1 and 14 + 2*1 stay exact
        a, step, ks = from_man_exp(a, 0), from_man_exp(step, 0), range(3)
        assert grid_tuples(a, step, ks, 4) == self.formula(a, step, ks, 4)

    # shifting first would build 2^20-bit integers, or fail with
    # OverflowError on the 2^(2^10000) steps
    @pytest.mark.parametrize("exp", [2 ** 20, -2 ** 20, 2 ** 10000,
                                     -2 ** 10000])
    def test_a_step_far_from_a_is_never_shifted(self, exp):
        a, step, ks = from_man_exp(-3, 0), from_man_exp(5, exp), range(4)
        start = time.perf_counter()
        points = grid_tuples(a, step, ks, 256)
        assert time.perf_counter() - start < 1.0
        assert points == self.formula(a, step, ks, 256)

    def test_pi_256_grid_is_built_in_integers(self, no_formula):
        # Simpson on 1024 panels of [-1, 1]: nodes at -1 + k*2^-10
        ks = range(2049)
        points = grid_tuples(from_man_exp(-1, 0), from_man_exp(1, -10), ks,
                             256)
        assert points == [from_man_exp(k - 1024, -10) for k in ks]

    def test_pi_256_command_builds_no_point_by_the_formula(self, no_formula,
                                                           capsys):
        assert main(["pi", "--example", "3", "--panels", "1024",
                     "--prec", "256"]) == 0
        assert "digits_correct = " in capsys.readouterr().out

    def test_sign_check_grid_on_a_dyadic_interval(self, no_formula):
        # the 257 samples of [0, 1/2] at 113 bits, from check_assumption_A
        with workprec(113):
            f = Integrand(parse("x^3"), Interval("0", "0.5"))
            assert check_assumption_A(f, 2, 113).uniform
            assert grid(fzero, from_man_exp(1, -9), range(256), 113) == \
                [from_man_exp(k, -9) for k in range(256)]

    def test_an_inexact_grid_takes_the_formula(self, monkeypatch):
        calls = []

        def counted(step, k, prec, rnd):
            calls.append(k)
            return mpf_mul_int(step, k, prec, rnd)

        monkeypatch.setattr(expr, "mpf_mul_int", counted)
        with workprec(113):
            step = (mp.pi / 256)._mpf_
            ks = range(256)
            assert grid(fzero, step, ks, 113) == \
                self.formula(fzero, step, ks, 113)
        assert calls == list(ks)


class TestCheckedPower:
    # integer exponents take mpf_pow_int directly; 0.5 and -1.5 take the
    # mpf_pow fallback
    EXPONENTS = (0, 1, -1, 2, -2, 3, -3, 17, -17, 2 ** 40, "0.5", "-1.5")
    with workprec(2000):  # every base exact: 10^300 takes 997 bits
        BASES = [mpf(v) for v in (0, 1, -1, 2 ** -300, -(2 ** -300),
                                  10 ** 300, -(10 ** 300))]
    BASES += [_THIRD, -_THIRD]

    def test_matches_mpf_pow_and_the_tree_walk(self):
        messages = set()
        for precision in (4, 53, 256):
            with workprec(precision):
                for expo in self.EXPONENTS:
                    tree = Pow(Var(), Num(expo))
                    tape = Tape(tree)
                    v = mpf(expo)._mpf_
                    for x in self.BASES:
                        got = _outcome(_mpf_run, tape, x)
                        assert got == _outcome(tree_eval, tree, x)
                        try:
                            value = _checked_power(x._mpf_, v, precision,
                                                   round_nearest)
                        except DomainError as err:
                            messages.add(str(err))
                            negative = x < 0 and not mp.isint(expo)
                            assert str(err) == (
                                "fractional power of a negative base"
                                if negative else
                                "zero raised to a negative power")
                            assert negative or (x == 0 and mpf(expo) < 0)
                            continue
                        assert value == got == mpf_pow(
                            x._mpf_, v, precision, round_nearest)
        assert messages == {"zero raised to a negative power",
                            "fractional power of a negative base"}

    def test_integer_exponents_from_2_to_the_128_are_refused(self):
        # except on bases whose powers mpf_pow_int returns at once
        with workprec(256):
            top = mpf(2) ** 128
            base = mpf("1.5")._mpf_
            assert _checked_power(base, (top - 1)._mpf_, 256, round_nearest) \
                == mpf_pow(base, (top - 1)._mpf_, 256, round_nearest)
            for n in (top, -top, 3 * top, -(mpf(10) ** 10000)):
                with pytest.raises(DomainError, match=(
                        "^integer exponent of 2\\^128 or more$")):
                    _checked_power(base, n._mpf_, 256, round_nearest)
                for u in (mpf(0), mpf(1), mpf(-1), mpf("0.5"), mpf(-4)):
                    if u or n > 0:
                        assert _checked_power(u._mpf_, n._mpf_, 256,
                                              round_nearest) == \
                            mpf_pow(u._mpf_, n._mpf_, 256, round_nearest)

    def test_quick_bases_refuse_exponents_from_2_to_the_2_to_the_20(self):
        # the exponent is built as an int; 2^2^2^2^2^2^2 would need one of
        # 2^65536 bits, whose shift raised OverflowError past the CLI
        below, top = (0, 1, 2 ** 20 - 1, 1), (0, 1, 2 ** 20, 1)
        for u in (fzero, fone, (1, 1, 0, 1), (0, 1, -1, 1), (1, 1, 3, 1)):
            assert _checked_power(u, below, 53, round_nearest) == \
                mpf_pow(u, below, 53, round_nearest)
            with pytest.raises(DomainError, match=(
                    "^integer exponent of 2\\^1048576 or more$")):
                _checked_power(u, top, 53, round_nearest)
        with pytest.raises(DomainError, match=(
                "^integer exponent of 2\\^1048576 or more in x \\^ x")):
            eval_expr(parse("x^x^x^x^x^x^x"), 2)

    def test_fractional_exponents_from_2_to_the_128_are_refused(self):
        # on powers of two as well: only 0 and 1 are answered at once
        with workprec(256):
            top = mpf(2) ** 128
            for n in (top - mpf("0.5"), -top + mpf("0.25")):
                for u in (mpf(0), mpf(1), mpf("1.5"), mpf(2), mpf("0.5")):
                    if u or n > 0:
                        assert _checked_power(u._mpf_, n._mpf_, 256,
                                              round_nearest) == \
                            mpf_pow(u._mpf_, n._mpf_, 256, round_nearest)
            for n in (top + mpf("0.5"), -top - mpf("0.5"),
                      3 * top + mpf("0.75")):
                for u in (mpf("1.5"), mpf(2), mpf("0.5")):
                    with pytest.raises(DomainError, match=(
                            "^fractional exponent of 2\\^128 or more$")):
                        _checked_power(u._mpf_, n._mpf_, 256, round_nearest)
                assert _checked_power(mpf(1)._mpf_, n._mpf_, 256,
                                      round_nearest) == mpf(1)._mpf_
                if n > 0:
                    assert _checked_power(fzero, n._mpf_, 256,
                                          round_nearest) == fzero

    def test_raises_only_where_mpf_pow_cannot_answer(self):
        with workprec(53):
            for u, v in ((mpf(0), mpf(-1)), (mpf(0), mpf("-1.5")),
                         (mpf(-2), mpf("0.5"))):
                with pytest.raises(DomainError):
                    _checked_power(u._mpf_, v._mpf_, 53, round_nearest)
                with pytest.raises((ComplexResult, ZeroDivisionError)):
                    mpf_pow(u._mpf_, v._mpf_, 53, round_nearest)
