import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from mpmath import mp, mpf

from quadrules.composite import composite_values
from quadrules.expr import DomainError
from quadrules.integrand import Integrand, builtin_integrand
from quadrules.precision import pi_at, workprec
from quadrules.rules import (Interval, NEGATIVE, POSITIVE, RULE_ORDER,
                             RULES, UnknownRuleError, rule_meta,
                             rule_values, simple_rule_values)

from oracles import (exact_poly_integral, exact_rule_value, kernel_integral,
                     kernel_sign, mpf_from_fraction, peano_kernel,
                     random_poly_tree, reference_rule_values, simple_value,
                     ulp)


class TestMetadata:
    def test_table_is_exactly_as_specified(self):
        rows = {name: (spec.degree, spec.error_sign, spec.error_denominator)
                for name, spec in RULES.items()}
        assert rows == {
            "L": (0, POSITIVE, 2),
            "R": (0, NEGATIVE, 2),
            "M": (1, POSITIVE, 24),
            "T": (1, NEGATIVE, 12),
            "S": (3, NEGATIVE, 2880),
            "T2": (3, POSITIVE, 1920),
            "Q": (5, NEGATIVE, 806400),
        }

    @pytest.mark.parametrize("name", RULE_ORDER)
    def test_peano_kernel_proves_the_law(self, name):
        # a one-signed kernel K gives E(f) = f^(m+1)(xi) * integral(K)
        spec = RULES[name]
        sign = 1 if spec.error_sign == POSITIVE else -1
        kernel = peano_kernel(name, spec.degree)
        assert kernel_sign(kernel) == sign
        assert kernel_integral(kernel) == Fraction(sign,
                                                   spec.error_denominator)

    def test_q_has_no_degree_3_law(self):
        # Q's order-3 kernel changes sign and integrates to zero
        kernel = peano_kernel("Q", 3)
        assert kernel_sign(kernel) is None
        assert kernel_integral(kernel) == 0

    @pytest.mark.parametrize("name", RULE_ORDER)
    def test_law_on_an_interval_of_width_two(self, name):
        # on [0, 1] the width is 1, so a wrong power of it would not show:
        # E(x^k) over [0, w] is 0 for k <= m and sign * w^(m+2) (m+1)! / d
        # for k = m+1
        spec = RULES[name]
        m, w = spec.degree, Fraction(2)
        sign = 1 if spec.error_sign == POSITIVE else -1
        for k in range(m + 2):
            value = exact_rule_value(
                name, w, lambda x: x ** k,
                lambda x: k * (k - 1) * x ** (k - 2) if k >= 2 else 0)
            want = 0 if k <= m else Fraction(
                sign * w ** (m + 2) * factorial(m + 1),
                spec.error_denominator)
            assert w ** (k + 1) / (k + 1) - value == want, f"{name} x^{k}"

    def test_rule_meta_examples(self):
        assert rule_meta("M").degree == 1
        assert rule_meta("M").error_sign == POSITIVE
        assert rule_meta("M").error_denominator == 24
        assert rule_meta("S").error_denominator == 2880
        assert rule_meta("L") == RULES["L"]

    def test_unknown_rule(self):
        with pytest.raises(UnknownRuleError):
            rule_meta("G")


class Recording(Integrand):
    """An integrand that logs every node it is read at as (x, order)."""

    def __post_init__(self):
        super().__post_init__()
        self.reads = []

    def eval_at(self, x):
        self.reads.append((x, 0))
        return super().eval_at(x)

    def derivative_at(self, x, order):
        self.reads.append((x, order))
        return super().derivative_at(x, order)


class TestNodeReads:
    # (node, order) read by each rule, in fetch order; node 0 is a, 1 the
    # midpoint, 2 is b
    READS = {"L": [(0, 0)], "R": [(2, 0)], "M": [(1, 0)],
             "T": [(0, 0), (2, 0)], "S": [(0, 0), (2, 0), (1, 0)],
             "T2": [(1, 0), (1, 2)], "Q": [(0, 0), (2, 0), (1, 0), (1, 2)]}

    @pytest.mark.parametrize("rule", RULE_ORDER)
    def test_simple_rule_reads_exactly_its_nodes(self, rule):
        f = Recording.from_text("x^3 + 1", 1, 2)
        xs = (1, mpf("1.5"), 2)
        with workprec(53):
            simple_rule_values(f, mpf(1), mpf(2), (rule,))
        assert f.reads == [(xs[j], order) for j, order in self.READS[rule]]

    @pytest.mark.parametrize("rule, offset", [("L", 0), ("R", 1)])
    def test_endpoint_composite_never_reads_the_far_end(self, rule, offset):
        # L reads the n left ends a + i*h, R the n right ends; neither
        # reads the end of [a, b] it does not use
        f = Recording.from_text("x^3 + 1", 0, 1)
        n = 4
        composite_values(f, f.interval, (rule,), n)
        assert f.reads == [(mpf(i + offset) / n, 0) for i in range(n)]


class TestFormulaTable:
    # the formula table against the kernel written out (oracles), on every
    # non-empty rule subset: the same values, bit for bit, and the same
    # node reads in the same order
    SUBSETS = [names for k in range(1, len(RULE_ORDER) + 1)
               for names in combinations(RULE_ORDER, k)]
    NODES = ((0, 0), (2, 0), (1, 0), (1, 2))

    @staticmethod
    def run(kernel, names, w, values):
        reads = []

        def node(j, order):
            reads.append((j, order))
            return values[j, order]

        return kernel(names, w, node), reads

    def check(self, w, values, key=lambda value: value):
        for names in self.SUBSETS:
            got, got_reads = self.run(rule_values, names, w, values)
            want, want_reads = self.run(reference_rule_values, names, w,
                                        values)
            assert list(got) == list(names)
            assert {k: key(v) for k, v in got.items()} == {
                k: key(v) for k, v in want.items()}, names
            assert got_reads == want_reads, names

    def test_exact_on_fractions(self):
        rng = random.Random(20)
        for _ in range(5):
            self.check(Fraction(rng.randint(1, 99), rng.randint(1, 99)),
                       {n: Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                        for n in self.NODES})

    @pytest.mark.parametrize("precision", [53, 256])
    def test_bit_identical_on_mpfs(self, precision):
        # node values of mixed signs from 2^-300 to 2^300 in magnitude, so
        # that sums round
        rng = random.Random(precision)
        with workprec(precision):
            for _ in range(20):
                self.check(mpf(rng.random()) * 2 ** rng.randint(-20, 20),
                           {n: mpf(rng.uniform(-1, 1)) * 2 ** rng.randint(
                               -300, 300) for n in self.NODES},
                           key=lambda value: value._mpf_)


class TestInterval:
    def test_accepts_text_ints_and_expressions(self):
        iv = Interval(0, "0.5")
        with workprec(53):
            a, b = iv.bounds()
        assert a == 0 and b == mpf("0.5")

    def test_requires_a_less_than_b(self):
        with pytest.raises(ValueError):
            Interval(1, 1)
        with pytest.raises(ValueError):
            Interval(2, -1)

    def test_rejects_variable_endpoints(self):
        with pytest.raises(ValueError):
            Interval("x", 1)

    def test_endpoints_apart_beyond_64_bits_are_told_apart(self):
        # equal at 64 bits; at 53, bounds() refuses them
        iv = Interval("1", "1 + 2^-100")
        with workprec(128):
            a, b = iv.bounds()
        assert b - a == mpf(2) ** -100
        with workprec(53), pytest.raises(DomainError, match=(
                r"^the endpoints of \[1, 1 \+ 2 \^ -100\] round to "
                r"a >= b at 53-bit precision$")):
            iv.bounds()
        with pytest.raises(ValueError, match="equal to 65536 bits"):
            Interval("1", "1 + 2^-70000")
        with pytest.raises(ValueError, match=r"got \[1 \+ 2 \^ -100, 1\]$"):
            Interval("1 + 2^-100", "1")


@pytest.fixture(scope="module")
def example_one_values():
    f = builtin_integrand("sin2")
    with workprec(53):
        a, b = f.interval.bounds()
        return simple_rule_values(f, a, b, RULE_ORDER), pi_at(53)


class TestExampleOneSimpleRules:
    """Simple rules on 2*sin(x)^2 over [0, pi]."""

    @pytest.fixture
    def values(self, example_one_values):
        return example_one_values

    def test_left_right_trapezoid_vanish(self, values):
        vals, pi53 = values
        tol = 4 * ulp(2 * pi53, 53)
        assert abs(vals["L"]) <= tol
        assert abs(vals["R"]) <= tol
        assert abs(vals["T"]) <= tol

    def test_midpoint_is_two_pi(self, values):
        vals, pi53 = values
        assert abs(vals["M"] - 2 * pi53) <= 4 * ulp(2 * pi53, 53)

    def test_simpson_is_weighted_mean_of_m_and_t(self, values):
        # (2M + T)/3 with M = 2pi and T = 0: the simple Simpson value is
        # 4pi/3 here, and the direct endpoint form confirms it
        vals, pi53 = values
        want = (2 * vals["M"] + vals["T"]) / 3
        assert vals["S"] == want
        assert abs(vals["S"] - 4 * pi53 / 3) <= 8 * ulp(vals["S"], 53)

    def test_t2_is_m_minus_pi_cubed_sixth(self, values):
        vals, pi53 = values
        want = 2 * pi53 - pi53 ** 3 / 6
        assert abs(vals["T2"] - want) <= 8 * ulp(pi53 ** 3 / 6, 53)

    def test_q_is_weighted_mean_of_t2_and_s(self, values):
        vals, pi53 = values
        want = (2 * vals["T2"] + 3 * vals["S"]) / 5
        assert abs(vals["Q"] - want) <= 4 * ulp(want, 53)
        closed = (8 * pi53 - pi53 ** 3 / 3) / 5
        assert abs(vals["Q"] - closed) <= 16 * ulp(pi53 ** 3, 53)


def test_every_rule_reproduces_constants():
    f = Integrand.from_text("3", -2, 5)
    for name in RULE_ORDER:
        v = simple_value(name, f)
        assert abs(v - 21) <= 4 * ulp(mpf(21), 53)


def test_monomial_exactness_up_to_metadata_degree():
    # relative error at most 2^-(p-8) on x^k over [0, 1] for k <= degree
    prec = 256
    for name, spec in RULES.items():
        for k in range(spec.degree + 1):
            f = Integrand.from_text("x" if k == 1 else f"x^{k}", 0, 1)
            v = simple_value(name, f, precision=prec)
            exact = mpf_from_fraction(Fraction(1, k + 1), prec + 32)
            assert abs(v - exact) <= abs(exact) * mpf(2) ** (8 - prec), \
                f"{name} is not exact on x^{k}"


def test_simpson_identity_against_endpoint_form():
    # weighted-mean evaluation equals (b-a)/6 (f(a) + 4 f(mid) + f(b))
    rng = random.Random(1105)
    for _ in range(100):
        tree, _ = random_poly_tree(rng)
        a = rng.randint(-3, 2)
        f = Integrand(tree, Interval(a, a + rng.randint(1, 4)))
        with workprec(53):
            lo, hi = f.interval.bounds()
            w = hi - lo
            direct = w / 6 * (f.eval_at(lo) + 4 * f.eval_at((lo + hi) / 2)
                              + f.eval_at(hi))
            chain = simple_rule_values(f, lo, hi, ("S",))["S"]
        scale = max(abs(direct), abs(chain), mpf(1))
        assert abs(direct - chain) <= 16 * ulp(scale, 53)


class TestSignRealization:
    """I(f) - rule value has the metadata sign when f^(m+1) > 0."""

    def _signs(self, f, reference):
        out = {}
        for name in RULE_ORDER:
            v = simple_value(name, f, precision=128)
            err = reference - v
            assert err != 0
            out[name] = POSITIVE if err > 0 else NEGATIVE
        return out

    def test_on_increasing_convex_integrand(self):
        f = builtin_integrand("asin6")  # all derivatives positive on [0, 1/2]
        signs = self._signs(f, pi_at(192))
        assert signs == {name: RULES[name].error_sign
                         for name in signs}

    def test_on_polynomial_with_positive_derivatives(self):
        from quadrules.expr import parse
        tree = parse("(x+2)^6")
        f = Integrand(tree, Interval(0, 1))
        exact = exact_poly_integral(tree, 6, Fraction(0), Fraction(1))
        signs = self._signs(f, mpf_from_fraction(exact, 224))
        assert signs == {name: RULES[name].error_sign
                         for name in signs}


def test_domain_error_propagates_with_node():
    from quadrules.expr import DomainError
    f = builtin_integrand("asin6")
    bad = Integrand(f.expression, Interval(0, 2))
    with pytest.raises(DomainError) as exc:
        simple_value("R", bad)
    assert "sqrt" in str(exc.value)
    assert exc.value.x == 2
    assert "at x = 2" in str(exc.value)
