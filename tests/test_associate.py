import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from quadrules import associate
from quadrules.associate import (ALL_NEGATIVE, ALL_POSITIVE, AssociateWeights,
                                 COMPANION_PAIRS, CompanionPair,
                                 IDENTICALLY_ZERO, SAMPLES, SIGN_CHANGE,
                                 UNKNOWN, associate_value, bracket,
                                 check_assumption_A, companion_pair,
                                 derive_weights)
from quadrules.composite import composite_values
from quadrules.integrand import BUILTIN_NAMES, Integrand, builtin_integrand
from quadrules.precision import pi_at, workprec
from quadrules.rules import Interval, RULES

from oracles import (check_assumption_A_mpf, exact_poly_integral,
                     mpf_from_fraction, random_poly_tree, sign_verdict_mpf,
                     ulp)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import random_expression  # noqa: E402


class TestDeriveWeights:
    def test_left_right_pair(self):
        assert derive_weights(2, 2) == AssociateWeights(1, 1)

    def test_midpoint_trapezoid_pair(self):
        assert derive_weights(24, 12) == AssociateWeights(2, 1)

    def test_t2_simpson_pair(self):
        assert derive_weights(1920, 2880) == AssociateWeights(2, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            derive_weights(0, 4)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6),
           st.integers(1, 10))
    def test_invariant_under_common_scaling(self, d1, d2, k):
        assert derive_weights(k * d1, k * d2) == derive_weights(d1, d2)

    def test_weights_validate_coprimality(self):
        with pytest.raises(ValueError):
            AssociateWeights(2, 4)

    def test_pairs_use_their_rules_denominators(self):
        expected = {("L", "R"): (1, 1), ("M", "T"): (2, 1),
                    ("T2", "S"): (2, 3)}
        assert [(pair.positive.name, pair.negative.name)
                for pair in COMPANION_PAIRS] == list(expected)
        for pair in COMPANION_PAIRS:
            w = pair.weights()
            key = (pair.positive.name, pair.negative.name)
            assert (w.c1, w.c2) == expected[key]

    def test_companion_pair_validation(self):
        with pytest.raises(ValueError):
            CompanionPair(RULES["L"], RULES["T"])  # degree mismatch
        with pytest.raises(ValueError):
            CompanionPair(RULES["T"], RULES["M"])  # signs swapped

    def test_companion_pair_lookup(self):
        assert companion_pair("T", "M") is COMPANION_PAIRS[1]
        assert companion_pair("L", "M") is None


class TestAssociateValue:
    def test_formula_orientation(self):
        with workprec(53):
            v = associate_value(2 * mp.pi, mpf(0), AssociateWeights(2, 1))
            assert abs(v - 4 * mp.pi / 3) <= 4 * ulp(v, 53)

    def test_identical_operands(self):
        w = AssociateWeights(2, 3)
        assert associate_value(mpf("1.25"), mpf("1.25"), w) == mpf("1.25")

    def test_example_2_single_panel_simpson(self):
        # hand-formula midpoint and trapezoid values on 6/sqrt(1-x^2)
        with workprec(53):
            def f(x):
                return 6 / mp.sqrt(1 - x * x)

            m1 = mpf("0.5") * f(mpf("0.25"))
            t1 = mpf("0.25") * (f(mpf(0)) + f(mpf("0.5")))
            assert abs(m1 - mpf("3.0984")) < 5e-5
            assert abs(t1 - mpf("3.2321")) < 5e-5
            v = associate_value(m1, t1, derive_weights(24, 12))
            assert abs(v - mpf("3.1429414")) < 5e-8
            assert abs(v - (2 * m1 + t1) / 3) <= 2 * ulp(v, 53)

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(min_value=-100, max_value=100),
           st.fractions(min_value=-100, max_value=100),
           st.integers(1, 5000), st.integers(1, 5000))
    def test_containment_and_unreduced_form(self, fx, fy, d1, d2):
        x = mpf_from_fraction(fx, 53)
        y = mpf_from_fraction(fy, 53)
        w = derive_weights(d1, d2)
        v = associate_value(x, y, w)
        assert min(x, y) <= v <= max(x, y)
        with workprec(53):
            unreduced = (d1 * x + d2 * y) / (d1 + d2)
        scale = max(abs(x), abs(y), mpf(1))
        assert abs(v - unreduced) <= 8 * ulp(scale, 53)


class TestBracket:
    def test_orders_endpoints(self):
        b = bracket(mpf(4), mpf(2))
        assert (b.lo, b.hi) == (2, 4)
        assert b.contains(3) and not b.contains(5)

    def test_degenerate(self):
        b = bracket(mpf(7), mpf(7))
        assert b.lo == b.hi == 7
        assert b.width == 0

    def test_example_3_single_panel_brackets_pi(self):
        f = builtin_integrand("atan2")
        vals = composite_values(f, f.interval, ("L", "M"), 1)
        assert vals["L"] == 2 and vals["M"] == 4
        assert bracket(vals["L"], vals["M"]).contains(pi_at(85))

    def test_example_2_single_panel_brackets_pi(self):
        f = builtin_integrand("asin6")
        vals = composite_values(f, f.interval, ("L", "R"), 1)
        assert vals["L"] == 3
        assert abs(vals["R"] - mpf("3.4641016")) < 5e-8
        assert bracket(vals["L"], vals["R"]).contains(pi_at(85))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bracket(mpf("inf"), mpf(0))


class TestCheckAssumptionA:
    def test_sign_change_for_example_1_second_derivative(self):
        f = builtin_integrand("sin2")  # f'' = 4 cos 2x flips at pi/4
        verdict = check_assumption_A(f, 2)
        assert verdict.kind == SIGN_CHANGE
        assert verdict.tag == "A!"
        lo, hi = verdict.subinterval
        quarter_pi = pi_at(53) / 4
        assert lo <= quarter_pi <= hi

    def test_all_positive_despite_a_zero_sample(self):
        f = builtin_integrand("asin6")  # f'(0) = 0, f' > 0 beyond
        verdict = check_assumption_A(f, 1)
        assert verdict.kind == ALL_POSITIVE
        assert verdict.tag == "A+"
        assert verdict.uniform

    def test_all_negative(self):
        f = Integrand.from_text("1-x", 0, 1)
        verdict = check_assumption_A(f, 1)
        assert verdict.kind == ALL_NEGATIVE

    def test_identically_zero_for_constants(self):
        f = Integrand.from_text("5", 0, 1)
        verdict = check_assumption_A(f, 1)
        assert verdict.kind == IDENTICALLY_ZERO
        assert verdict.tag == "A0"

    def test_nothing_clears_the_tolerance_at_eight_bits(self):
        # below 53 bits the zero tolerance scale * 2^(8 - precision) would
        # reach the largest sample, so the check samples at 53 bits and
        # every lower precision gets the 53-bit verdict
        f = builtin_integrand("sin2")
        at_53 = check_assumption_A(f, 1, precision=53)
        assert at_53.kind == SIGN_CHANGE
        for prec in (4, 8, 9, 10):
            assert check_assumption_A(f, 1, precision=prec) == at_53
        f = Integrand.from_text("5", 0, 1)
        assert check_assumption_A(f, 1, precision=4).kind == IDENTICALLY_ZERO

    def test_endpoints_are_sampled(self, monkeypatch):
        seen, evaluate = [], associate._eval

        def recording_eval(e, x):  # x is a raw _mpf_ tuple
            seen.append(mp.make_mpf(x))
            return evaluate(e, x)

        monkeypatch.setattr(associate, "_eval", recording_eval)
        f = Integrand.from_text("x^2", -1, 1)
        assert check_assumption_A(f, 1).kind == SIGN_CHANGE
        assert len(seen) == SAMPLES == 257
        assert seen[0] == -1 and seen[-1] == 1
        assert seen == sorted(seen)

    @pytest.mark.parametrize("text, a, b", [
        ("sqrt(x)", 0, 1),  # f'(0) divides by zero
        ("x^x", 1, 2),      # f' cannot be taken symbolically
    ])
    def test_unusable_derivative_is_unknown(self, text, a, b):
        f = Integrand.from_text(text, a, b)
        verdict = check_assumption_A(f, 1)
        assert verdict.kind == UNKNOWN and not verdict.uniform


class TestSignVerdictMatchesTheMpfOracle:
    """The sign check classifies raw tuples; the oracle builds its grid by
    mpf operators and classifies mpf objects.  Verdict and subinterval
    agree."""

    @pytest.mark.parametrize("precision", [4, 53, 113, 256])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name, precision):
        f = builtin_integrand(name)
        for order in range(1, 7):
            assert check_assumption_A(f, order, precision) == \
                check_assumption_A_mpf(f, order, precision)

    def test_mixed_request_integrands(self):
        rng = random.Random(15)
        intervals = [(0, 1), (-1, 1), ("0.5", "2"), ("-0.25", "1.25")]
        for i in range(150):
            a, b = intervals[i % len(intervals)]
            f = Integrand.from_text(random_expression(rng), a, b)
            order = 1 + i % 4
            assert check_assumption_A(f, order) == \
                check_assumption_A_mpf(f, order)

    T = mpf(2) ** -45  # the zero tolerance of a 53-bit check at scale 1

    @pytest.mark.parametrize("samples, kind", [
        ([0, 0, 0], IDENTICALLY_ZERO),
        ([1, mp.inf, 2], UNKNOWN),
        ([-1, mp.ninf, 2], UNKNOWN),
        ([1, mp.nan, 2], UNKNOWN),
        ([1, T, -T, 1], ALL_POSITIVE),               # at the tolerance
        ([-1, T, -1], ALL_NEGATIVE),
        ([1, -T * (1 + mpf(2) ** -52), 1], SIGN_CHANGE),  # just above it
        ([-1, T, -3, 0], ALL_NEGATIVE),
        ([0, 0, 3, 0, 0, -2, 5], SIGN_CHANGE),      # the first flip
        ([0, -T, 0, -1, T * 2, 0], SIGN_CHANGE),
        ([mpf(2) ** -1100, 0, -(mpf(2) ** -1100)], SIGN_CHANGE),
        # the scale's top bit shared, the tolerance's top bit shared
        ([1, "1.5", -T * 1.5, "1.25"], ALL_POSITIVE),
        ([1, "1.5", -T * 1.75, "1.25"], SIGN_CHANGE),
        ([-1, "-1.5", T * 1.25, -T], ALL_NEGATIVE),
        ([-1, "-1.5", T * 1.5 * (1 + mpf(2) ** -52)], SIGN_CHANGE),
    ])
    @pytest.mark.parametrize("precision", [53, 113])
    def test_hand_made_samples(self, samples, kind, precision):
        with workprec(precision):
            xs = [mpf(i) / 8 for i in range(len(samples))]
            values = [mpf(v) for v in samples]
        verdict = associate._sign_verdict(
            [x._mpf_ for x in xs], [v._mpf_ for v in values], precision)
        want = sign_verdict_mpf(xs, values, precision)
        assert verdict == want
        if precision == 53:
            assert verdict.kind == kind


class TestCompanionContainment:
    """With a uniform-signed controlling derivative, the exact integral and
    the associate value both lie in [min(X, Y), max(X, Y)]."""

    PREC = 128

    def test_bracket_contains_integral_for_random_polynomials(self):
        rng = random.Random(424242)
        slack = mpf(2) ** -100
        checked = {pair: 0 for pair in COMPANION_PAIRS}
        for _ in range(100):
            tree, degree = random_poly_tree(rng)
            a = Fraction(rng.randint(-4, 3))
            b = a + rng.randint(1, 4)
            f = Integrand(tree, Interval(int(a), int(b)))
            exact = mpf_from_fraction(
                exact_poly_integral(tree, max(degree, 1), a, b), 160)
            for n in (1, 2, 5):
                values = composite_values(
                    f, f.interval, ("L", "R", "M", "T", "S", "T2"), n,
                    self.PREC)
                for pair in COMPANION_PAIRS:
                    x = values[pair.positive.name]
                    y = values[pair.negative.name]
                    enclosure = bracket(x, y)
                    assoc = associate_value(x, y, pair.weights())
                    assert enclosure.contains(assoc)
                    verdict = check_assumption_A(
                        f, pair.derivative_order, self.PREC)
                    if verdict.kind in (ALL_POSITIVE, ALL_NEGATIVE):
                        pad = slack * max(1, abs(exact))
                        assert enclosure.lo - pad <= exact <= enclosure.hi + pad
                        checked[pair] += 1
                    elif verdict.kind == IDENTICALLY_ZERO:
                        pad = slack * max(1, abs(exact))
                        assert abs(x - exact) <= pad
                        assert abs(y - exact) <= pad
        # the property must actually have been exercised for every pair
        assert all(count >= 10 for count in checked.values()), checked

    def test_nested_brackets_on_example_2(self):
        f = builtin_integrand("asin6")
        reference = pi_at(160)
        for pair in COMPANION_PAIRS:
            verdict = check_assumption_A(f, pair.derivative_order,
                                         self.PREC)
            assert verdict.kind == ALL_POSITIVE
            previous = None
            for n in (1, 2, 4, 8, 16):
                values = composite_values(
                    f, f.interval,
                    (pair.positive.name, pair.negative.name), n, self.PREC)
                enclosure = bracket(values[pair.positive.name],
                                    values[pair.negative.name])
                assert enclosure.contains(reference)
                if previous is not None:
                    assert enclosure.width < previous.width
                previous = enclosure
