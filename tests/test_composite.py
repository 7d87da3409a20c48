import random
import tracemalloc
from dataclasses import dataclass

import pytest
from mpmath import mp, mpf

from quadrules import analysis, associate, composite, expr, rules
from quadrules.cli import main
from quadrules.composite import composite_values
from quadrules.expr import DomainError
from quadrules.integrand import BUILTIN_NAMES, Integrand, builtin_integrand
from quadrules.precision import pi_at, workprec
from quadrules.rules import RULE_ORDER, Interval, UnknownRuleError

from oracles import brute_composite, composite_value, random_poly_tree, ulp


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

    def carry(self, precision):
        return self.inner.carry(precision)


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


@pytest.mark.parametrize("rules, panels, error, message", [
    (("M",), 0, ValueError, r"integer >= 1, got 0$"),
    (("M",), 2.5, ValueError, r"integer >= 1, got 2\.5$"),
    (("XYZ",), 1, UnknownRuleError, r"^unknown rule 'XYZ'"),
], ids=["zero_panels", "non_integer_panels", "unknown_rule"])
def test_rejects_bad_requests(rules, panels, error, message):
    f = builtin_integrand("sin2")
    with pytest.raises(error, match=message):
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

    def test_a_call_holds_one_chunk_whatever_the_panel_count(self):
        # while a call held its node columns whole and the integrand an f
        # memo, a trapezoid composite on asin6 peaked at about 314 bytes
        # per panel, 20 MB at 2^16 panels; the columns are now added in
        # chunks of panels and nothing outlives the call but a few sums
        f = builtin_integrand("asin6")
        composite_values(f, f.interval, "T", 2)  # compile f's programs
        tracemalloc.start()
        try:
            composite_values(f, f.interval, "T", 2 ** 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


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


@pytest.mark.parametrize("precision", [24, 53, 113, 256])
def test_node_sums_are_added_without_intermediate_rounding(precision):
    # every node of x on [0, 1] at 4,096 panels is dyadic and the sums are
    # 2047.5 and 2048.5, so T is exactly 1/2 when nothing rounds on the way
    f = Integrand.from_text("x", 0, 1)
    assert composite_value("T", f, 4096, precision) == mpf("0.5")


@pytest.mark.parametrize("names", [("L",), ("R", "T"), ("T2",), RULE_ORDER],
                         ids=",".join)
def test_one_rule_kernel_call_per_composite(monkeypatch, names):
    calls = []

    def counting(*args):
        calls.append(args)
        return rules.rule_values(*args)

    monkeypatch.setattr(composite, "rule_values", counting)
    f = builtin_integrand("asin6")
    for n in (1, 2, 7, 64):
        calls.clear()
        composite_values(f, f.interval, names, n)
        assert len(calls) == 1, n


GOLDEN_INTEGRANDS = {
    "asin6": builtin_integrand("asin6"),
    "atan2": builtin_integrand("atan2"),
    "sin2": builtin_integrand("sin2"),
    "user": Integrand.from_text("x^3*cos(x) + 1/(2+x)", "0.1", "0.7"),
}


@pytest.mark.parametrize("precision", [53, 113, 256])
@pytest.mark.parametrize("name", GOLDEN_INTEGRANDS)
def test_composites_round_within_three_ulps(name, precision):
    # each node sum rounds once and the kernel adds a few operations, so
    # every composite is within a few ulps of the same composite computed
    # 200 bits higher; a reference near zero (sin2's R at n = 1 is f(pi))
    # has no meaningful ulp and is skipped
    f = GOLDEN_INTEGRANDS[name]
    for n in (1, 7, 100, 512):
        got = composite_values(f, f.interval, RULE_ORDER, n, precision)
        ref = composite_values(f, f.interval, RULE_ORDER, n, precision + 200)
        for rule in RULE_ORDER:
            if abs(ref[rule]) < 1e-10:
                continue
            with workprec(precision + 200):
                err = abs(got[rule] - ref[rule])
            assert err <= 3 * ulp(ref[rule], precision), (rule, n)


def test_domain_error_names_panel_and_node():
    f = Integrand.from_text("1/x", -1, 1)
    with pytest.raises(DomainError) as exc:
        composite_value("M", f, 1)  # midpoint hits x = 0
    err = exc.value
    assert err.panel == 1
    assert "(panel 1 of 1)" in str(err)
    assert "division by zero" in str(err)
    assert "1 / x" in str(err)

    # panels are numbered from 1, like the total
    with pytest.raises(DomainError) as exc:
        composite_value("T", f, 2)  # boundary node at x = 0
    assert exc.value.panel == 1
    with pytest.raises(DomainError) as exc:
        composite_value("R", f, 4)
    assert exc.value.panel == 2
    with pytest.raises(DomainError) as exc:
        composite_value("R", Integrand.from_text("1/(x-1)", 0, 1), 4)
    assert (exc.value.panel, exc.value.panels) == (4, 4)
    assert str(exc.value).endswith("at x = 1.0 (panel 4 of 4)")


@pytest.mark.parametrize("names, where", [
    # nodes are evaluated in ascending x: S reads the midpoint 0.25
    # before the boundary 0.5, which is panel 1's right end when right
    # ends are read and otherwise panel 2's left end
    (("S",), "0.25 (panel 1 of 2)"), (("T",), "0.5 (panel 1 of 2)"),
    (("L",), "0.5 (panel 2 of 2)"),
], ids=["S", "T", "L"])
def test_a_domain_error_names_the_leftmost_failing_node(names, where):
    f = Integrand.from_text("sqrt(0.2 - x)", 0, 1)
    with pytest.raises(DomainError) as exc:
        composite_values(f, f.interval, names, 2)
    assert str(exc.value).endswith(f"at x = {where}")


def test_extended_precision_uses_requested_bits():
    f = builtin_integrand("atan2")
    v128 = composite_value("S", f, 8, 128)
    v256 = composite_value("S", f, 8, 256)
    # both approximate the same number far beyond 53-bit resolution
    assert abs(v128 - v256) < mpf(2) ** -120
    assert v128._mpf_[3] > 100  # really carries an extended significand


class TestNodeMemo:
    """An integrand carries the exact node sums of its last composite
    per precision, so a composite over twice as many panels on the same
    interval evaluates only its new nodes."""

    @pytest.fixture
    def evals(self, monkeypatch):
        counts = {"f": 0, "fpp": 0}
        eval_at, derivative_at = Integrand.eval_at, Integrand.derivative_at

        def counted_eval_at(f, x):
            counts["f"] += 1
            return eval_at(f, x)

        def counted_derivative_at(f, x, order):
            assert order == 2
            counts["fpp"] += 1
            return derivative_at(f, x, order)

        monkeypatch.setattr(Integrand, "eval_at", counted_eval_at)
        monkeypatch.setattr(Integrand, "derivative_at", counted_derivative_at)
        return counts

    @pytest.mark.parametrize("panels, f_evals, fpp_evals", [
        # 2^10 panels have 2,049 distinct nodes, and every coarser level's
        # nodes are among them; 4,105 evaluations without the carry
        ("2^0..2^10", 2049, 2047),
        # only 12 follows half its count: 3 + 7 + 11 + 13 evaluations for
        # 1, 3, 5 and 6 panels, 12 new midpoints for 12, 59 without the
        # carry (33 with an f memo, which also caught the nodes that 6
        # shares with 3 and 12 with 3)
        ("1,3,5,6,12", 46, 27),
    ])
    def test_table_evaluates_each_distinct_f_node_once(
            self, evals, capsys, panels, f_evals, fpp_evals):
        assert main(["table", "--integrand", "asin6", "--panels",
                     panels]) == 0
        # f'' is read only at midpoints, which no coarser grid shares
        assert evals == {"f": f_evals, "fpp": fpp_evals}

    def test_an_endpoint_sweep_evaluates_old_midpoints_as_boundaries(
            self, evals, capsys):
        # L and R read no midpoints, so each level evaluates the previous
        # level's midpoints as its new boundaries: 2 + 1 + 2 + ... + 512
        assert main(["table", "--integrand", "asin6", "--rules", "L,R",
                     "--panels", "2^0..2^10"]) == 0
        assert evals == {"f": 1025, "fpp": 0}

    def test_only_twice_the_carried_panel_count_reuses_nodes(self, evals):
        f = builtin_integrand("atan2")
        first = composite_values(f, f.interval, ("T",), 8)
        assert evals["f"] == 9
        # the same count again carries nothing: all 9 nodes again
        assert composite_values(f, f.interval, ("T",), 8) == first
        assert evals["f"] == 18
        # 16 panels evaluate their 8 new boundaries
        composite_values(f, f.interval, ("L", "R"), 16)
        assert evals["f"] == 26
        # 32 panels with M read 16 new boundaries and 32 midpoints; 64
        # panels read only their midpoints
        composite_values(f, f.interval, ("S",), 32)
        assert evals["f"] == 74
        composite_values(f, f.interval, ("M", "T"), 64)
        assert evals["f"] == 138
        # another precision carries its own sums
        composite_values(f, f.interval, ("T",), 128, 64)
        assert evals["f"] == 267
        # at 53 bits, T over 128 panels evaluates nothing: its boundaries
        # are the boundaries and midpoints of 64 panels
        composite_values(f, f.interval, ("T",), 128)
        assert evals["f"] == 267
        # an L-only level cannot serve a level that reads right ends
        composite_values(f, f.interval, ("L",), 2)
        composite_values(f, f.interval, ("R",), 4)
        assert evals["f"] == 267 + 2 + 4

    @pytest.mark.parametrize("precision", [53, 256])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_table_rows_match_fresh_composites_bit_for_bit(
            self, monkeypatch, name, precision):
        seen = {}

        def recording(f, interval, names, n, precision):
            seen[n] = composite_values(f, interval, names, n, precision)
            return seen[n]

        monkeypatch.setattr(analysis, "composite_values", recording)
        f = builtin_integrand(name)
        n_list = (1, 2, 3, 4, 5, 6, 8, 12, 16, 32, 64)
        rows = analysis.convergence_table(f, RULE_ORDER, n_list, precision)
        assert sorted(seen) == [row.panels for row in rows] == list(n_list)
        reference = analysis.Reference.for_integrand(f)
        for row in rows:
            fresh = builtin_integrand(name)
            want = composite_values(fresh, fresh.interval, RULE_ORDER,
                                    row.panels, precision)
            assert {r: v._mpf_ for r, v in seen[row.panels].items()} == \
                {r: v._mpf_ for r, v in want.items()}
            assert row.errors == {r: analysis.signed_error(
                want[r], reference, precision) for r in RULE_ORDER}

    @pytest.mark.parametrize("precision", [53, 256])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("names", [RULE_ORDER, ("L", "R")], ids=",".join)
    @pytest.mark.parametrize("n_list", [[2 ** k for k in range(11)],
                                        [1, 3, 5, 6, 12]],
                             ids=["2^0..2^10", "1,3,5,6,12"])
    def test_carried_sweeps_match_fresh_composites_bit_for_bit(
            self, n_list, names, name, precision):
        f = builtin_integrand(name)
        for n in n_list:
            carried = composite_values(f, f.interval, names, n, precision)
            fresh = builtin_integrand(name)
            want = composite_values(fresh, fresh.interval, names, n,
                                    precision)
            assert {r: v._mpf_ for r, v in carried.items()} == \
                {r: v._mpf_ for r, v in want.items()}, n

    def test_a_domain_error_is_not_stored(self):
        f = Integrand.from_text("1/x", -1, 1)
        messages = []
        for panels in (2, 2, 4, 2):
            with pytest.raises(DomainError) as exc:
                composite_values(f, f.interval, ("T",), panels)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == messages[3]
        assert messages[0].endswith("(panel 1 of 2)")
        assert messages[2].endswith("(panel 2 of 4)")
        # no call passed, so nothing is carried
        assert f.carry(53) == {}

    @pytest.mark.parametrize("names, pole, panel_of_4, panel_of_8", [
        # x = 3/4 is a new boundary of 4 panels: the right end of panel 3
        # when right ends are read, else the left end of panel 4
        (("T",), "0.75", 3, 6), (("L",), "0.75", 4, 7), (("R",), "0.75", 3, 6),
        # x = 3/8 is a midpoint of 4 panels and a boundary of 8
        (("S",), "0.375", 2, 3),
    ], ids=["T", "L", "R", "S"])
    def test_a_domain_error_on_a_carried_level_stores_no_carry(
            self, names, pole, panel_of_4, panel_of_8):
        # 1 and 2 panels pass and carry their sums; 4 panels raise on a
        # new node, so 8 panels have no carry and raise where a fresh
        # composite does
        text = f"1/(x-{pole})"

        def messages(f, counts):
            out = []
            for panels in counts:
                try:
                    composite_values(f, f.interval, names, panels)
                except DomainError as err:
                    out.append(str(err))
                else:
                    out.append(None)
            return out

        f = Integrand.from_text(text, 0, 1)
        got = messages(f, (1, 2, 4, 4, 8))
        assert got == [messages(Integrand.from_text(text, 0, 1), (n,))[0]
                       for n in (1, 2, 4, 4, 8)]
        assert got[:2] == [None, None]
        assert got[2] == got[3]
        assert got[2].endswith(f"at x = {pole} (panel {panel_of_4} of 4)")
        assert got[4].endswith(f"at x = {pole} (panel {panel_of_8} of 8)")
        # the carry still holds the 2-panel level
        assert list(f.carry(53)) == [(mpf(0)._mpf_, mpf(1)._mpf_, 2)]


def test_table_positions_are_computed_once_each_on_doubles(monkeypatch,
                                                           capsys):
    built = {"boundaries": 0, "midpoints": 0, "samples": 0, "tuples": 0}
    grid, grid_tuples = expr.grid, expr._grid_tuples

    def recording(kind):
        def wrapper(a, step, ks, prec):
            if kind == "composite":
                for k in ks:
                    built["midpoints" if k % 2 else "boundaries"] += 1
            else:
                built["samples"] += len(ks)
            return grid(a, step, ks, prec)
        return wrapper

    def counted_tuples(a, step, ks, prec):
        built["tuples"] += len(ks)
        return grid_tuples(a, step, ks, prec)

    monkeypatch.setattr(composite, "grid", recording("composite"))
    monkeypatch.setattr(associate, "grid", recording("sign check"))
    monkeypatch.setattr(expr, "_grid_tuples", counted_tuples)
    assert main(["table", "--integrand", "asin6",
                 "--panels", "2^0..2^10"]) == 0
    # the first level computes its 2 boundaries, and every level its
    # midpoints, 2,047 in all: each later level's boundaries are carried
    # sums; each sign check's last sample is b itself
    assert built == {"boundaries": 2, "midpoints": 2047,
                     "samples": 3 * 256, "tuples": 0}
