import random
from dataclasses import dataclass

import pytest
from mpmath import mp, mpf

from quadrules.composite import composite_values
from quadrules.expr import DomainError
from quadrules.integrand import Integrand, builtin_integrand
from quadrules.precision import pi_at, ulp, workprec
from quadrules.rules import Interval, UnknownRuleError

from oracles import brute_composite, composite_value, random_poly_tree


@dataclass
class CountingIntegrand:
    """Wraps an integrand and counts distinct evaluation calls."""

    inner: Integrand
    f_calls: int = 0
    fpp_calls: int = 0

    @property
    def interval(self):
        return self.inner.interval

    @property
    def reference(self):
        return self.inner.reference

    def eval_at(self, x):
        self.f_calls += 1
        return self.inner.eval_at(x)

    def derivative_at(self, x, order):
        self.fpp_calls += 1
        return self.inner.derivative_at(x, order)


class TestExampleOneComposite:
    """2*sin(x)^2 over [0, pi] with 2 panels is exact for every rule."""

    def test_all_rules_give_pi_with_two_panels(self):
        f = builtin_integrand("sin2")
        vals = composite_values(f, f.interval,
                                ("L", "R", "M", "T", "S", "T2"), 2)
        pi_ref = pi_at(85)
        tol = 4 * ulp(pi_at(53), 53)
        for name, v in vals.items():
            assert abs(v - pi_ref) <= tol, name

    def test_left_rule_panel_arithmetic(self):
        # panels [0, pi/2], [pi/2, pi]: 0 + (pi/2) * 2
        f = builtin_integrand("sin2")
        v = composite_value("L", f, 2)
        with workprec(53):
            want = pi_at(53) / 2 * f.eval_at(pi_at(53) / 2)
        assert abs(v - want) <= 2 * ulp(want, 53)

    def test_t2_sums_two_half_pi_panels(self):
        f = builtin_integrand("sin2")
        v = composite_value("T2", f, 2)
        assert abs(v - pi_at(85)) <= 4 * ulp(pi_at(53), 53)


def test_constant_integrand_every_rule_every_n():
    f = Integrand.from_text("1", 0, 1)
    for name in ("L", "R", "M", "T", "S", "T2", "Q"):
        for n in (1, 2, 7, 64):
            v = composite_value(name, f, n)
            assert abs(v - 1) <= 4 * ulp(mpf(1), 53), (name, n)


def test_linear_integrand_degree_one_rules():
    f = Integrand.from_text("x", 0, 1)
    vals = composite_values(f, f.interval, ("M", "T", "S"), 3)
    for name, v in vals.items():
        assert abs(v - mpf("0.5")) <= 4 * ulp(mpf("0.5"), 53), name


def test_matches_brute_force_oracle():
    f = builtin_integrand("asin6")
    with workprec(53):
        a, b = f.interval.bounds()

        def fc(x):
            return f.eval_at(x)

        def fpp(x):
            return f.derivative_at(x, 2)

        expected = brute_composite(fc, a, b, 13, ("L", "R", "M", "T", "S"),
                                   fpp=fpp)
    got = composite_values(f, f.interval, ("L", "R", "M", "T", "S"), 13)
    for name in expected:
        if name in got:
            scale = max(abs(expected[name]), mpf(1))
            assert abs(got[name] - expected[name]) <= 64 * ulp(scale, 53)


@pytest.mark.parametrize("rules, panels, error", [
    (("M",), 0, ValueError),
    (("XYZ",), 1, UnknownRuleError),
], ids=["zero_panels", "unknown_rule"])
def test_rejects_bad_requests(rules, panels, error):
    f = builtin_integrand("sin2")
    with pytest.raises(error):
        composite_values(f, f.interval, rules, panels)


class TestNodeSharing:
    def test_each_node_evaluated_once_across_rules(self):
        counting = CountingIntegrand(builtin_integrand("asin6"))
        n = 16
        composite_values(counting, counting.interval,
                         ("L", "R", "M", "T", "S", "T2", "Q"), n)
        assert counting.f_calls == 2 * n + 1  # n+1 boundaries, n midpoints
        assert counting.fpp_calls == n

    def test_endpoint_rules_share_boundaries(self):
        counting = CountingIntegrand(builtin_integrand("asin6"))
        n = 8
        composite_values(counting, counting.interval, ("L", "R", "T"), n)
        assert counting.f_calls == n + 1
        assert counting.fpp_calls == 0


def test_mean_composite_commutation():
    # composite S over n panels == (2 composite M + composite T)/3
    rng = random.Random(77)
    integrands = [builtin_integrand("asin6"), builtin_integrand("atan2")]
    for _ in range(6):
        tree, _ = random_poly_tree(rng)
        a = rng.randint(-3, 1)
        integrands.append(Integrand(tree, Interval(a, a + rng.randint(1, 3))))
    for f in integrands:
        for n in (1, 2, 3, 7, 16, 100):
            vals = composite_values(f, f.interval, ("M", "T", "S"), n)
            mean = (2 * vals["M"] + vals["T"]) / 3
            scale = max(abs(vals["M"]), abs(vals["T"]), mpf(1))
            assert abs(vals["S"] - mean) <= 16 * ulp(scale, 53), (f.name, n)


def test_refinement_difference_law():
    # R_n - L_n == (b-a)/n * (f(b) - f(a)), here (4 sqrt 3 - 6) / (2n)
    f = builtin_integrand("asin6")
    with workprec(85):
        full = (4 * mp.sqrt(3) - 6)
    for k in range(0, 11):
        n = 2 ** k
        vals = composite_values(f, f.interval, ("L", "R"), n)
        diff = vals["R"] - vals["L"]
        tol = 4 * ulp(max(abs(vals["R"]), abs(vals["L"])), 53)
        assert abs(diff - full / (2 * n)) <= tol, n


def test_monotone_convergence_on_example_2():
    f = builtin_integrand("asin6")
    reference = pi_at(192)
    prev_l, prev_r = None, None
    for k in range(0, 11):
        vals = composite_values(f, f.interval, ("L", "R"), 2 ** k, 128)
        assert vals["L"] < reference < vals["R"]
        if prev_l is not None:
            assert vals["L"] > prev_l  # increasing toward pi
            assert vals["R"] < prev_r  # decreasing toward pi
        prev_l, prev_r = vals["L"], vals["R"]
    assert abs(vals["L"] - reference) < 1e-3
    assert abs(vals["R"] - reference) < 1e-3


def test_summation_is_compensated_at_default_precision():
    # a pathological cancellation pattern: exact in compensated arithmetic
    f = Integrand.from_text("x", 0, 1)
    n = 4096
    v = composite_value("T", f, n)
    assert abs(v - mpf("0.5")) <= 2 * ulp(mpf("0.5"), 53)


def test_domain_error_names_panel_and_node():
    f = Integrand.from_text("1/x", -1, 1)
    with pytest.raises(DomainError) as exc:
        composite_value("M", f, 1)  # midpoint hits x = 0
    err = exc.value
    assert err.panel == 0
    assert "panel 0" in str(err)
    assert "division by zero" in str(err)
    assert "1 / x" in str(err)

    # the offending boundary node belongs to a later panel here
    with pytest.raises(DomainError) as exc:
        composite_value("T", f, 2)  # boundary node at x = 0
    assert exc.value.panel == 0
    with pytest.raises(DomainError) as exc:
        composite_value("R", f, 4)
    assert exc.value.panel == 1


def test_extended_precision_uses_requested_bits():
    f = builtin_integrand("atan2")
    v128 = composite_value("S", f, 8, 128)
    v256 = composite_value("S", f, 8, 256)
    # both approximate the same number far beyond 53-bit resolution
    assert abs(v128 - v256) < mpf(2) ** -120
    assert v128._mpf_[3] > 100  # really carries an extended significand
