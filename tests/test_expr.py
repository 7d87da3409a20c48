import contextlib
import io
import random

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import (ComplexResult, from_float, fzero, mpf_add,
                          mpf_mul_int, mpf_pow, round_nearest)

from quadrules import expr
from quadrules.expr import (Add, Cos, DifferentiationError, Div, DomainError,
                            Mul, Neg, Num, ParseError, PiConst, Pow, Sin,
                            Sqrt, Sub, Tape, Var, _checked_power, _negate,
                            differentiate, eval_expr, grid, parse, to_text)
from quadrules.expr import _grid_tuples as grid_tuples
from quadrules.cli import main
from quadrules.integrand import builtin_integrand
from quadrules.precision import workprec
from quadrules.rules import Interval

from oracles import (central_diff, central_second_diff, random_poly_tree,
                     tree_eval, ulp)


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

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("1+2)")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("x + $")


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

    def test_canonical_examples(self):
        assert to_text(parse("2*sin(x)^2")) == "2 * sin(x) ^ 2"
        assert to_text(Sub(Var(), Add(Num(1), Num(2)))) == "x - (1 + 2)"
        assert to_text(Pow(Neg(Var()), Num(2))) == "(-x) ^ 2"


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
        tape = Tape(tree)
        for precision in (4, 53, 256):
            with workprec(precision):
                for x in self.POINTS:
                    x = mpf(x) if isinstance(x, str) else x
                    assert _outcome(Tape.run, tape, x) == \
                        _outcome(tree_eval, tree, x)

    def test_x_keeps_its_bits_and_negation_rounds_them(self):
        with workprec(53):
            assert Tape(Var()).run(_THIRD)._mpf_ == _THIRD._mpf_
            negated = Tape(Neg(Var())).run(_THIRD)
        # the last field of an _mpf_ tuple is the significand's bit count
        assert negated._mpf_[3] <= 53 < _THIRD._mpf_[3]
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

    def test_division_checks_its_denominator_before_its_numerator(self):
        e = parse("sqrt(-x)/(x-1)")
        want = "division by zero in sqrt(-x) / (x - 1) at x = 1.0"
        with pytest.raises(DomainError) as exc:
            eval_expr(e, 1)
        assert str(exc.value) == want
        with workprec(53):
            assert _outcome(tree_eval, e, mpf(1)) == f"DomainError: {want}"

    def test_builtin_derivatives_match_the_tree_walk(self):
        # deep derivative DAGs: asin6's order 4 is 4,036 tree nodes
        for name in ("sin2", "asin6", "atan2"):
            f = builtin_integrand(name)
            for order in range(5):
                self.assert_matches_tree_walk(f.derivative_expr(order))


def _tuple_run(tape, x):
    return tape._run_tuples(x, 53)


def _which_run(tape, x):
    """Which run answers at 53 bits: "floats", "fallback" (the float run
    hands over to the tuple run) or "tuples" (no float program)."""
    if not tape._program():
        return "tuples"
    return "fallback" if tape._run_floats(x) is None else "floats"


# four native steps around a subexpression, so that its tape has a float
# program even where the subexpression alone would not pay for one
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
        ("x*x - x + 1", None, "fallback"),               # no x
        ("x*x - x + 1", mpf(2) ** 1024, "fallback"),     # x above doubles
        ("x*x - x + 1", mpf(2) ** -1074, "fallback"),    # x subnormal
        ("pi * 2 + pi * 3 - 1", None, "floats"),
        (_WRAP.format("sqrt(-x)"), "0", "floats"),        # sqrt(-0.0)
        ("(x - 1) / sqrt(-x) + x * x", "0", "fallback"),  # division by 0
        (_WRAP.format("sqrt(-x)"), "1", "fallback"),      # root of x < 0
        ("x^2 - x^-1 + x^1 + x^0", "0.3", "floats"),     # native powers
        (_WRAP.format("x^-1"), "0", "fallback"),
        (_WRAP.format("x^0"), "0", "floats"),
        (_WRAP.format("x^3"), "1.1", "floats"),          # powers by kernel
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
        tape = Tape(parse(text))
        with workprec(53):
            x = mpf(x) if isinstance(x, str) else x
            assert _which_run(tape, x) == run
            assert _outcome(Tape.run, tape, x) == _outcome(_tuple_run, tape, x)

    def test_short_tapes_keep_the_tuple_run(self):
        # converting x and the result costs about two kernel calls, and
        # each kernel step run from doubles one more
        for text in ("x", "pi", "x^3", "2*sin(x)^2", "cos(2.1*x + 0.5)"):
            assert _which_run(Tape(parse(text)), mpf("0.5")) == "tuples"
        f = builtin_integrand("asin6")
        for order in range(5):
            assert _which_run(f.tape(order), mpf("0.25")) == "floats"

    def test_other_precisions_never_run_on_doubles(self, monkeypatch):
        def run_floats(tape, x):
            raise AssertionError("a float run below or above 53 bits")

        monkeypatch.setattr(Tape, "_run_floats", run_floats)
        for precision in (52, 54, 256):
            assert eval_expr(parse("x*x - x + 1"), "0.5", precision) == \
                mpf("0.75")

    def test_the_north_star_table_never_falls_back(self, monkeypatch):
        runs = {"floats": 0, "fallbacks": 0}
        run_floats, fall_back = Tape._run_floats, Tape._fall_back

        def counted_floats(tape, x):
            runs["floats"] += 1
            return run_floats(tape, x)

        def counted_fall_back(tape, x):
            runs["fallbacks"] += 1
            return fall_back(tape, x)

        monkeypatch.setattr(Tape, "_run_floats", counted_floats)
        monkeypatch.setattr(Tape, "_fall_back", counted_fall_back)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["table", "--integrand", "asin6",
                         "--panels", "1,2,4"]) == 0
        assert runs["fallbacks"] == 0
        assert runs["floats"] >= 3 * 257  # the sign checks alone


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
                        got = _outcome(Tape.run, tape, x)
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

    def test_raises_only_where_mpf_pow_cannot_answer(self):
        with workprec(53):
            for u, v in ((mpf(0), mpf(-1)), (mpf(0), mpf("-1.5")),
                         (mpf(-2), mpf("0.5"))):
                with pytest.raises(DomainError):
                    _checked_power(u._mpf_, v._mpf_, 53, round_nearest)
                with pytest.raises((ComplexResult, ZeroDivisionError)):
                    mpf_pow(u._mpf_, v._mpf_, 53, round_nearest)
