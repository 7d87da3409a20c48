import csv
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from quadrules import analysis
from quadrules.analysis import (Reference, UndefinedOrderError,
                                convergence_table, degree_probe,
                                digits_correct, observed_order, order_string,
                                signed_error, table_to_csv, table_to_json)
from quadrules.composite import composite_values
from quadrules.expr import PiConst, parse
from quadrules.integrand import Integrand, builtin_integrand
from quadrules.precision import pi_at, workprec
from quadrules.rules import (Interval, QUOTED_DEGREES, RULE_ORDER, RULES,
                             _monomial_rule_value)

from oracles import digits_correct_full_scan

from oracles import brute_composite, legacy_t2_composite, ulp

SIX = ("L", "R", "M", "T", "S", "T2")


class TestSignedError:
    def test_orientation_reference_minus_value(self):
        pi_ref = Reference(PiConst())
        err = signed_error(2 * pi_at(53), pi_ref)
        assert abs(err + pi_at(85)) <= 4 * ulp(pi_at(53), 53)

    def test_zero_for_matching_value(self):
        pi_ref = Reference(PiConst())
        err = signed_error(pi_at(85), pi_ref)
        assert abs(err) <= ulp(pi_at(53), 53)

    def test_example_3_left_rule_single_panel(self):
        f = builtin_integrand("atan2")
        v = composite_values(f, f.interval, ("L",), 1)["L"]
        err = signed_error(v, Reference.for_integrand(f))
        assert abs(err - (pi_at(85) - 2)) <= 4 * ulp(err, 53)
        assert err > 0  # the rule underestimates

    def test_accepts_raw_reference_values(self):
        assert signed_error(mpf(2), mpf(3)) == 1

    def test_a_string_reference_is_one_literal_parse_reads(self):
        # converted as the tape converts a literal, at the guarded
        # precision; mpf(text) failed on ".0" and took what parse refuses
        assert signed_error(mpf(1), ".0") == -1
        assert signed_error(mpf(1), "-2.50") == mpf("-3.5")
        assert signed_error(mpf(0), "0.1", 200) == \
            signed_error(mpf(0), Reference(parse("0.1")), 200)
        assert digits_correct(mpf("0.5"), ".5") == 16
        for text in ("inf", "1/3", "+1.5", "x"):
            with pytest.raises(ValueError):
                signed_error(mpf(1), text)
            with pytest.raises(ValueError):
                digits_correct(mpf(1), text)


class TestOrderString:
    def test_two_rules(self):
        assert order_string({"M": mpf(1), "T": mpf(2)}) == "MT"

    def test_tie_break_is_canonical(self):
        values = {name: mpf(1) for name in SIX}
        assert order_string(values) == "LRMTST2"

    def test_example_2_order_at_n_4(self):
        f = builtin_integrand("asin6")
        values = composite_values(f, f.interval, SIX, 4, 128)
        assert order_string(values) == "LMT2STR"
        # cross-check the ordering against the brute-force oracle
        with workprec(128):
            a, b = f.interval.bounds()
            brute = brute_composite(f.eval_at, a, b, 4, SIX,
                                    fpp=lambda x: f.derivative_at(x, 2))
        assert order_string(brute) == "LMT2STR"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=6, max_size=6),
           st.integers(-1000, 1000))
    def test_shift_invariance(self, raw, shift):
        values = {name: mpf(v) for name, v in zip(SIX, raw)}
        shifted = {name: v + shift for name, v in values.items()}
        assert order_string(values) == order_string(shifted)

    def test_needs_two_rules(self):
        with pytest.raises(ValueError):
            order_string({"M": mpf(1)})


class TestObservedOrder:
    def test_composite_orders_on_example_2(self):
        f = builtin_integrand("asin6")
        ref = pi_at(192)
        with workprec(128):
            a, b = f.interval.bounds()
            v64 = brute_composite(f.eval_at, a, b, 64, ("L", "T", "S"))
            v128 = brute_composite(f.eval_at, a, b, 128, ("L", "T", "S"))
        for name, want in (("L", 1), ("T", 2), ("S", 4)):
            order = observed_order(ref - v64[name], ref - v128[name])
            assert abs(order - want) <= 0.1, name

    def test_zero_error_raises(self):
        with pytest.raises(UndefinedOrderError):
            observed_order(mpf(0), mpf("1e-3"))
        with pytest.raises(UndefinedOrderError):
            observed_order(mpf("1e-3"), mpf(0))


class TestConvergenceTable:
    def test_example_1_two_panels_all_exact(self):
        f = builtin_integrand("sin2")
        rows = convergence_table(f, rules=SIX, n_list=(2,))
        (row,) = rows
        assert row.panels == 2
        tol = 4 * ulp(pi_at(53), 53)
        for name in SIX:
            assert abs(row.errors[name]) <= tol, name
        # the pairs are flagged: the controlling derivatives all flip sign
        assert row.assumptions == {"L,R": "A!", "M,T": "A!", "T2,S": "A!"}

    def test_example_2_flags_uniform_sign(self):
        f = builtin_integrand("asin6")
        rows = convergence_table(f, rules=SIX, n_list=(1, 2))
        assert rows[0].assumptions == {"L,R": "A+", "M,T": "A+", "T2,S": "A+"}

    def test_example_3_left_midpoint_opposite_signs(self):
        f = builtin_integrand("atan2")
        rows = convergence_table(f, rules=("L", "M"), n_list=(1, 2, 4))
        for row in rows:
            assert row.errors["L"] > 0 > row.errors["M"], row.panels

    def test_example_3_t2_midpoint_same_sign_for_corrected_rule(self):
        # With the width-cubed second-derivative correction, T2 converges at
        # order 4 and its composite error keeps the midpoint rule's sign on
        # this integrand from n = 2 on.  The opposite-sign window quoted for
        # n in {8, 16, 32} belongs to the legacy width-squared variant,
        # reproduced below; see also tests/test_acceptance.py (criterion 5).
        f = builtin_integrand("atan2")
        rows = convergence_table(f, rules=("M", "T2"), n_list=(8, 16, 32),
                                 precision=128)
        for row in rows:
            assert row.errors["T2"] < 0, row.panels
            assert row.errors["M"] < 0, row.panels

    def test_example_3_legacy_width_squared_variant_has_the_window(self):
        f = builtin_integrand("atan2")
        ref = pi_at(192)
        with workprec(128):
            a, b = f.interval.bounds()
            for n in (8, 16, 32):
                m_sum = brute_composite(f.eval_at, a, b, n, ("M",))["M"]
                t2_legacy = legacy_t2_composite(
                    f.eval_at, lambda x: f.derivative_at(x, 2), a, b, n)
                assert (ref - m_sum) < 0 < (ref - t2_legacy), n

    def test_rows_sorted_and_deduplicated(self):
        f = builtin_integrand("asin6")
        rows = convergence_table(f, rules=("L", "R"), n_list=(4, 1, 4))
        assert [r.panels for r in rows] == [1, 4]

    def test_domain_error_aborts_row_with_note(self):
        f = Integrand(parse("6/sqrt(1-x^2)"), Interval(0, 1),
                      reference=PiConst())
        rows = convergence_table(f, rules=("L", "R"), n_list=(1,))
        (row,) = rows
        assert row.note is not None and "sqrt" in row.note
        assert row.errors == {}

    @pytest.mark.parametrize("method", ["eval_at", "derivative_expr"])
    def test_programming_errors_propagate(self, method):
        # eval_at feeds the rows, derivative_expr the sign check; neither
        # may turn a bug into a row note or an "A?" flag
        class Broken(Integrand):
            pass

        def broken(self, *args):
            raise TypeError("bug in the integrand")

        setattr(Broken, method, broken)
        f = builtin_integrand("asin6")
        f = Broken(f.expression, f.interval, f.reference)
        with pytest.raises(TypeError, match="bug in the integrand"):
            convergence_table(f, rules=("L", "R"), n_list=(1,))

    @pytest.mark.parametrize("n_list, message", [
        ([2.5, 4], r"integers >= 1, got 2\.5$"),
        ([4, 0], r"integers >= 1, got 0$"),
        ([], r"^no panel counts$"),
    ])
    def test_rejects_bad_panel_counts(self, n_list, message):
        with pytest.raises(ValueError, match=message):
            convergence_table(builtin_integrand("asin6"), ("L", "R"), n_list)

    def test_requires_reference(self):
        f = Integrand.from_text("x", 0, 1)  # no closed form attached
        with pytest.raises(ValueError):
            convergence_table(f, rules=("L", "R"), n_list=(1,))

    def test_error_columns_shrink_and_s_beats_t2_on_example_2(self):
        f = builtin_integrand("asin6")
        n_list = tuple(2 ** k for k in range(0, 6))
        rows = convergence_table(f, rules=SIX, n_list=n_list, precision=128)
        for earlier, later in zip(rows, rows[1:]):
            for name in SIX:
                assert abs(later.errors[name]) < abs(earlier.errors[name])
        for row in rows:
            assert abs(row.errors["S"]) < abs(row.errors["T2"])


class TestDegreeProbe:
    def test_all_rules(self):
        degrees = {name: degree_probe(name) for name in RULE_ORDER}
        assert degrees == {"L": 0, "R": 0, "M": 1, "T": 1, "S": 3,
                           "T2": 3, "Q": 5}

    def test_r_and_q_disagree_with_quoted_degrees(self):
        assert degree_probe("R") != QUOTED_DEGREES["R"] == 1
        assert degree_probe("Q") != QUOTED_DEGREES["Q"] == 3
        for name in ("L", "M", "T", "S", "T2"):
            assert degree_probe(name) == QUOTED_DEGREES[name]

    def test_probe_never_undershoots_metadata(self):
        for name, spec in RULES.items():
            assert degree_probe(name) >= spec.degree

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_a_monomial_search(self, k):
        # a rule has degree >= k exactly when it is exact on x^0 .. x^k
        for name in RULE_ORDER:
            exact = all(_monomial_rule_value(name, j) == Fraction(1, j + 1)
                        for j in range(k + 1))
            assert exact == (degree_probe(name) >= k), name


class TestDigitsCorrect:
    def test_twenty_digit_value(self):
        with workprec(256):
            value = mpf("3.1415926535897932384")
        assert digits_correct(value, pi_at(340), precision=256) == 20

    def test_more_digits_than_integer_to_string_allows(self):
        # each exact decimal here has about 8,000 digits, past the
        # interpreter's 4,300-digit integer-to-string limit
        with workprec(8192):
            value = mpf("3.1415926535897932384")
        assert digits_correct(value, pi_at(8192), precision=8192) == 20

    def test_precision_limited_maximum(self):
        d = digits_correct(pi_at(53), pi_at(160), precision=53)
        assert d >= 15  # everything the significand carries

    def test_equal_values_hit_the_cap(self):
        v = pi_at(53)
        assert digits_correct(v, v, precision=53) == 16

    def test_three_fifteen(self):
        assert digits_correct(mpf("3.15"), pi_at(160), precision=53) == 2

    def test_rounding_carries_into_a_new_leading_digit(self):
        # 9.9999 rounds to 10.00 at four digits, the first four of 10
        assert digits_correct(mpf("9.9999"), mpf(10)) == 4
        assert digits_correct(mpf("9.99949"), mpf(10)) == 3
        assert digits_correct(mpf("99.5"), mpf(100)) == 2

    def test_non_finite_value_is_rejected(self):
        with pytest.raises(ValueError):
            digits_correct(mpf("inf"), mpf(3))

    def test_matches_the_full_scan(self):
        # values k digits off a reference, pairs whose rounding carries
        # into a new leading digit, and digit strings built from runs that
        # make rounding carry, perturbed by a unit or a half unit somewhere
        rng = random.Random(11)
        carries = [("9.995", "10.0"), ("9.9999", "10"), ("99.5", "100"),
                   ("0.99999951", "1"), ("1.0000004", "0.99999999"),
                   ("2.95", "3.04"), ("3.5", "3.57"), ("-9.995", "-10")]
        cases = [(mpf(v), mpf(r), 53) for v, r in carries]
        for precision in (24, 53, 113, 256):
            with workprec(precision):
                for _ in range(40):
                    ref = mpf(rng.uniform(-1, 1)) * mpf(10) ** rng.randint(
                        -30, 30)
                    off = mpf(rng.uniform(-9, 9)) * mpf(10) ** -rng.randint(
                        0, precision // 3)
                    cases.append((ref * (1 + off), ref, precision))
        for _ in range(150):
            precision = rng.choice((8, 24, 53, 113))
            digits = "".join(rng.choice(("9", "0", "49", "5", "95", "04",
                                         str(rng.randint(0, 9))))
                             for _ in range(rng.randint(1, 12)))
            scale = mpf(10) ** rng.randint(-5, 5)
            with workprec(precision + 80):
                ref = mpf(f"{rng.randint(1, 9)}.{digits}") * scale
                step = scale * mpf(10) ** -rng.randint(0, len(digits) + 2)
                value = ref + rng.choice((-5, -1, 1, 5, 0.5, 4.9)) * step
            with workprec(precision):
                value = +value
            cases += [(value, ref, precision), (ref, value, precision)]
        for value, ref, precision in cases:
            assert digits_correct(value, ref, precision) == \
                digits_correct_full_scan(value, ref, precision), (value, ref)

    @pytest.fixture
    def roundings(self, monkeypatch):
        """The arguments of every ``_to_digits`` call made in the test."""
        calls = []

        def counting(*args):
            calls.append(args)
            return to_digits(*args)

        to_digits = analysis._to_digits
        monkeypatch.setattr(analysis, "_to_digits", counting)
        return calls

    def test_cost_does_not_grow_with_the_precision(self, roundings):
        # the full scan rounds both values at all 19,729 digit counts here
        ref = pi_at(65536)
        with workprec(65536):
            value = ref + mpf("3e-10")
        assert digits_correct(value, ref, precision=65536) == 9
        assert len(roundings) <= 6

    def test_a_run_of_nines_costs_a_few_roundings(self, roundings):
        # 1 - 2^-65000 is 0.999... with 19,567 nines; the scan from the
        # difference's bound rounded at 19,567 digit counts to return 0
        with workprec(65536):
            nines = 1 - mpf(2) ** -65000
        assert digits_correct(mpf(1), nines, precision=65536) == 0
        assert roundings == []
        # the other way round the carry of the nines makes 1.000...
        assert digits_correct(nines, mpf(1), precision=65536) == 19566
        assert len(roundings) <= 6

    def test_sign_and_zero_handling(self):
        assert digits_correct(mpf(0), pi_at(85), precision=53) == 0
        assert digits_correct(-pi_at(53), pi_at(160), precision=53) == 0
        assert digits_correct(mpf(-1), mpf(0), precision=53) == 0
        assert digits_correct(mpf(0), -pi_at(85), precision=53) == 0


class TestSerialization:
    def _rows(self, precision=53):
        f = builtin_integrand("asin6")
        return convergence_table(f, rules=SIX, n_list=(1, 2, 4),
                                 precision=precision)

    def test_csv_round_trips_exactly_at_53_bits(self):
        rows = self._rows()
        text = table_to_csv(rows, SIX, 53)
        records = list(csv.DictReader(io.StringIO(text)))
        assert [int(r["n"]) for r in records] == [row.panels for row in rows]
        for row, record in zip(rows, records):
            assert record["order"] == row.order
            flags = dict(item.rsplit(":", 1)
                         for item in record["assumptions"].split(";"))
            assert flags == row.assumptions
            for name in SIX:
                with workprec(53):
                    back = mpf(record["err_" + name])
                assert back == row.errors[name], name

    def test_csv_header(self):
        text = table_to_csv(self._rows(), SIX, 53)
        assert text.splitlines()[0] == \
            "n,order,assumptions,err_L,err_R,err_M,err_T,err_S,err_T2"

    def test_json_mirrors_rows(self):
        rows = self._rows()
        payload = json.loads(table_to_json(rows, SIX, 53))
        assert payload["rules"] == list(SIX)
        assert [r["n"] for r in payload["rows"]] == [1, 2, 4]
        assert payload["rows"][0]["order"] == rows[0].order
        assert payload["rows"][0]["assumptions"]["L,R"] == "A+"


def test_reference_closed_form_scales_with_precision():
    ref = Reference(PiConst())
    assert ref.value_at(53) == pi_at(53)
    assert ref.value_at(256) == pi_at(256)
    assert ref.value_at(256) != ref.value_at(53)


def test_plain_number_is_a_reference():
    # a plain mpf is used as given: pi at the bits a closed form is
    # materialized with gives the same error and digit count
    f = builtin_integrand("atan2")
    value = composite_values(f, f.interval, ("S",), 64, 128)["S"]
    closed = Reference(PiConst())
    assert signed_error(value, pi_at(128 + 32), 128) == \
        signed_error(value, closed, 128) != 0
    assert digits_correct(value, pi_at(128 + 64), 128) == \
        digits_correct(value, closed, 128) > 5
