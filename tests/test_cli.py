import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf

from quadrules.analysis import convergence_table, table_to_csv
from quadrules.cli import (UsageError, _parse_args, _sci, main,
                           parse_panels)
from quadrules.integrand import builtin_integrand
from quadrules.precision import pi_at

from oracles import reference_parser, ulp


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsePanels:
    def test_single(self):
        assert parse_panels("8") == [8]

    def test_comma_list(self):
        assert parse_panels("1,2, 4") == [1, 2, 4]

    def test_doubling_shorthand(self):
        assert parse_panels("2^0..2^4") == [1, 2, 4, 8, 16]

    def test_mixed(self):
        assert parse_panels("3,2^1..2^2") == [2, 3, 4]

    def test_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_panels("two")
        with pytest.raises(UsageError):
            parse_panels("0")
        with pytest.raises(UsageError):
            parse_panels("2^4..2^1")

    def test_counts_stop_at_2_to_the_20(self):
        assert parse_panels("2^18..2^20,1048576") == [2 ** 18, 2 ** 19,
                                                      2 ** 20]
        for text in ("1048577", "2^20..2^21", "1,2^0..2^2000000"):
            with pytest.raises(UsageError, match="2\\^20"):
                parse_panels(text)


class TestIntegrate:
    def test_builtin_midpoint_two_panels(self, capsys):
        code, out, err = run(capsys, "integrate", "--integrand", "sin2",
                             "--rule", "M", "--panels", "2")
        assert code == 0 and err == ""
        value_line = next(l for l in out.splitlines()
                          if l.startswith("value"))
        value = mpf(value_line.split("=")[1].strip())
        assert abs(value - pi_at(85)) <= 4 * ulp(pi_at(53), 53)
        assert any(l.startswith("error vs reference") for l in out.splitlines())

    def test_expression_integrand(self, capsys):
        code, out, _ = run(capsys, "integrate", "--integrand", "x^2",
                           "--a", "0", "--b", "1", "--rule", "S",
                           "--panels", "1")
        assert code == 0
        value = mpf(next(l for l in out.splitlines()
                         if l.startswith("value")).split("=")[1])
        assert abs(value - mpf(1) / 3) <= 4 * ulp(mpf(1), 53)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "integrate", "--integrand", "sin2",
                           "--rule", "M", "--panels", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rule"] == "M" and payload["panels"] == 2
        assert abs(mpf(payload["value"]) - pi_at(85)) < 1e-14

    def test_unknown_rule_is_usage_error(self, capsys):
        code, out, err = run(capsys, "integrate", "--integrand", "sin2",
                             "--rule", "Z", "--panels", "1")
        assert code == 1 and "unknown rule" in err

    def test_unknown_integrand_is_usage_error(self, capsys):
        code, _, err = run(capsys, "integrate", "--integrand", "nope(",
                           "--panels", "1")
        assert code == 1 and "neither a built-in" in err

    def test_expression_without_bounds_is_usage_error(self, capsys):
        code, _, err = run(capsys, "integrate", "--integrand", "x^2",
                           "--panels", "1")
        assert code == 1 and "--a and --b" in err

    def test_one_bound_only_is_usage_error(self, capsys):
        code, _, err = run(capsys, "integrate", "--integrand", "sin2",
                           "--a", "0", "--panels", "1")
        assert code == 1

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(capsys, "integrate", "--integrand", "1/x",
                           "--a", "-1", "--b", "1", "--rule", "M",
                           "--panels", "1")
        assert code == 2
        assert "domain error" in err and "panel" in err

    @pytest.mark.parametrize("integrand, rule, panels, where", [
        ("1/x", "T", "1", "at x = 0.0 (panel 1 of 1)"),
        ("1/(x-1)", "R", "4", "at x = 1.0 (panel 4 of 4)"),
    ])
    def test_domain_error_panels_count_from_one(self, capsys, integrand,
                                                rule, panels, where):
        code, _, err = run(capsys, "integrate", "--integrand", integrand,
                           "--a", "0", "--b", "1", "--rule", rule,
                           "--panels", panels)
        assert code == 2
        assert err.endswith(f"{where}\n")

    def test_left_rule_never_reads_the_right_end(self, capsys):
        # f(0) is undefined, but L over [-1, 0] reads only left ends
        code, out, err = run(capsys, "integrate", "--integrand", "1/x",
                             "--a", "-1", "--b", "0", "--rule", "L",
                             "--panels", "4")
        assert code == 0 and err == ""
        assert "value = -2.0833333333333335\n" in out

    def test_node_sum_keeps_a_term_far_below_the_others(self, capsys):
        # the inner left ends read 2^1125000, 1 and -2^1125000; their exact
        # sum is 1, so L over 4 panels is 1/4
        for prec in ("53", "113"):
            code, out, _ = run(capsys, "integrate", "--integrand",
                               "(14*x - 32*x^3)/3 * 2^(18000000*(x-0.5)^2)",
                               "--a", "0", "--b", "1", "--rule", "L",
                               "--panels", "4", "--prec", prec)
            assert code == 0
            assert "value = 0.25\n" in out, prec

    def test_node_sum_refuses_exponents_far_apart(self, capsys):
        # L reads 1, 2^5000000, 2^10000000 and 2^15000000, whose exact sum
        # is an integer of 15 million bits
        code, out, err = run(capsys, "integrate", "--integrand",
                             "2^(20000000*x)", "--a", "0", "--b", "1",
                             "--rule", "L", "--panels", "4")
        assert (code, out, err) == (
            2, "", "quad: domain error: cannot add node values whose binary "
                   "exponents lie more than 2^22 apart\n")

    def test_domain_error_prints_a_huge_point_briefly(self, capsys):
        # the midpoint is about 2^(2^10000); str() would take seconds to
        # print its 3,000 digits, and located() would print them again
        code, out, err = run(capsys, "integrate", "--integrand", "sqrt(-x)",
                             "--a", "1", "--b", "2^(2^10000)", "--rule", "M")
        assert (code, out, err) == (
            2, "", "quad: domain error: square root of a negative value in "
                   "sqrt(-x) at x = about 2^(2^10000) (panel 1 of 1)\n")

    def test_huge_interval_prints_a_finite_value(self, capsys):
        code, out, _ = run(capsys, "integrate", "--integrand", "sin(x)",
                           "--a", "0", "--b", "1e400")
        assert code == 0
        assert "inf" not in out

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "integrate", "--integrand", "sin2",
                           "--wat", "1")
        assert code == 1

    def test_override_interval_drops_reference(self, capsys):
        code, out, _ = run(capsys, "integrate", "--integrand", "sin2",
                           "--a", "0", "--b", "1", "--rule", "M",
                           "--panels", "4")
        assert code == 0
        assert "error vs reference" not in out


class TestBracket:
    def test_example_2_left_right_eight_panels(self, capsys):
        code, out, _ = run(capsys, "bracket", "--integrand", "asin6",
                           "--pair", "L,R", "--panels", "8")
        assert code == 0
        lines = out.splitlines()
        l8 = mpf(next(l for l in lines if l.startswith("L_8")).split("=")[1])
        r8 = mpf(next(l for l in lines if l.startswith("R_8")).split("=")[1])
        assert abs(l8 - mpf("3.1140880026344814")) < 1e-12
        assert abs(r8 - mpf("3.1721007045267008")) < 1e-12
        assert "contains reference: true" in out
        assert "assumption check (order 1): A+" in out
        assert "associate (weights 1:1)" in out

    def test_non_companion_pair_is_unverified(self, capsys):
        code, out, _ = run(capsys, "bracket", "--integrand", "asin6",
                           "--pair", "L,M", "--panels", "4")
        assert code == 0
        assert "not a companion pair" in out

    @pytest.mark.parametrize("integrand, a, b", [
        ("sqrt(x)", "0", "1"),  # f'(0) divides by zero
        ("x^x", "1", "2"),      # f' cannot be taken symbolically
    ])
    def test_unusable_sign_check_is_unknown(self, capsys, integrand, a, b):
        code, out, err = run(capsys, "bracket", "--integrand", integrand,
                             "--a", a, "--b", b, "--pair", "L,R")
        assert code == 0 and err == ""
        assert "bracket = [" in out
        assert "assumption check (order 1): A? (unknown)\n" in out
        assert "note: sign check failed, the bracket is unverified" in out

    @pytest.mark.parametrize("prec", ["4", "8", "9", "10"])
    @pytest.mark.parametrize("integrand, pair, order", [
        ("sin2", "L,R", 1),    # f' = 2 sin 2x changes sign at pi/2
        ("atan2", "T2,S", 4),  # f'''' changes sign near +-0.3249
        ("atan2", "M,T", 2),   # f'' changes sign at +-1/sqrt(3)
    ])
    def test_low_precision_sign_check_is_unknown(self, capsys, integrand,
                                                 pair, order, prec):
        # below 53 bits the zero tolerance would hide the sign change (A?
        # up to 8 bits, A+ or A- at 9 and 10), so the check samples at 53
        # bits and prints the 53-bit verdict
        argv = ("bracket", "--integrand", integrand, "--pair", pair,
                "--panels", "4", "--prec")
        verdicts = []
        for bits in (prec, "53"):
            code, out, _ = run(capsys, *argv, bits)
            assert code == 0
            assert "note: sign check failed, the bracket is unverified\n" \
                in out
            verdicts.append(next(l for l in out.splitlines()
                                 if l.startswith("assumption check")))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0].startswith(
            f"assumption check (order {order}): A! (sign change in [")

    def test_sampled_verdict_is_labelled_not_proven(self, capsys):
        # f' dips below zero near x = 0.3, between two of the 257 samples
        argv = ("bracket", "--integrand", "x + 0.001/(1+(10000*(x-0.3))^2)",
                "--a", "0", "--b", "1", "--pair", "L,R", "--panels", "4")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "assumption check (order 1): A+ (all_positive)\n" \
            "note: sign sampled at 257 points, not proven\n" in out
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["assumption"] == "A+"
        assert payload["assumption_basis"] == "sampled"

    @pytest.mark.xfail(strict=True, reason=(
        "bracket takes [min, max] of the rounded composite values without "
        "widening them for rounding error; ROADMAP item 3 (outward-rounded "
        "brackets) fixes it"))
    def test_low_precision_bracket_contains_the_reference(self, capsys):
        # at 6 bits M_3 and T_3 both round to 3.1875, below pi, so the
        # zero-width bracket misses the integral its sign check vouches for
        code, out, _ = run(capsys, "bracket", "--integrand", "asin6",
                           "--pair", "M,T", "--panels", "3", "--prec", "6")
        assert code == 0
        assert "assumption check (order 2): A+ (all_positive)\n" in out
        assert "contains reference: true\n" in out

    def test_pair_needs_two_rules(self, capsys):
        code, _, err = run(capsys, "bracket", "--integrand", "asin6",
                           "--pair", "L,R,M", "--panels", "4")
        assert code == 1

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "bracket", "--integrand", "asin6",
                           "--pair", "T2,S", "--panels", "4",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["weights"] == [2, 3]
        assert payload["assumption"] == "A+"
        assert payload["contains_reference"] is True
        lo, hi = (mpf(v) for v in payload["bracket"])
        assert lo <= pi_at(85) <= hi


class TestTable:
    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, "table", "--integrand", "asin6",
                           "--rules", "L,R,M,T,S,T2",
                           "--panels", "1,2,4", "--format", "csv")
        assert code == 0
        # the library's CSV, whose round trip tests/test_analysis.py checks
        names = ("L", "R", "M", "T", "S", "T2")
        rows = convergence_table(builtin_integrand("asin6"), rules=names,
                                 n_list=(1, 2, 4))
        assert out == table_to_csv(rows, names, 53)

    def test_text_table_shows_orders_and_flags(self, capsys):
        code, out, _ = run(capsys, "table", "--integrand", "asin6",
                           "--panels", "1,4")
        assert code == 0
        assert "LMT2STR" in out
        assert "(L,R)=A+" in out

    def test_json_table(self, capsys):
        code, out, _ = run(capsys, "table", "--integrand", "atan2",
                           "--rules", "L,M", "--panels", "1,2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rules"] == ["L", "M"]
        assert len(payload["rows"]) == 2

    def test_tiny_errors_are_printed_not_zeroed(self, capsys):
        # at 4000 bits the errors are far below the double range
        argv = ("table", "--integrand", "sin2", "--rules", "M,T",
                "--panels", "2,3", "--prec", "4000")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        row = next(line.split() for line in out.splitlines()
                   if line.split()[:1] == ["2"])
        assert row[2:] == ["2.4949e-1204", "-5.3949e-1205"]
        _, out, _ = run(capsys, *argv, "--format", "json")
        err_m = json.loads(out)["rows"][0]["errors"]["M"]
        assert err_m.startswith("2.4949") and err_m.endswith("e-1204")

    def test_sci_cells(self):
        assert _sci(mpf(0)) == "0"
        assert _sci(mpf("-0.00125")) == "-1.2500e-03"  # in range: as before
        assert _sci(mpf(2) ** -1100) == "7.3622e-332"  # 7.36215...e-332
        assert _sci(mpf(2) ** 1100) == "1.3583e+331"   # 1.35829...e+331
        assert _sci(-mpf(2) ** -1030) == "-8.6917e-311"  # a subnormal

    def test_order_and_flags_stable_across_precisions(self, capsys):
        outputs = []
        for prec in ("53", "128", "256"):
            code, out, _ = run(capsys, "table", "--integrand", "asin6",
                               "--panels", "1,2,4,8", "--format", "json",
                               "--prec", prec)
            assert code == 0
            payload = json.loads(out)
            outputs.append([(r["order"], tuple(sorted(r["assumptions"].items())))
                            for r in payload["rows"]])
        assert outputs[0] == outputs[1] == outputs[2]


class TestDegree:
    def test_q_reports_five_with_note(self, capsys):
        code, out, _ = run(capsys, "degree", "--rule", "Q")
        assert code == 0
        assert "degree 5" in out
        assert "note:" in out and "3" in out

    def test_r_reports_zero_with_note(self, capsys):
        code, out, _ = run(capsys, "degree", "--rule", "R")
        assert code == 0
        assert "degree 0" in out
        assert "quoted degree for R is 1" in out

    def test_simpson_matches_quote_no_note(self, capsys):
        code, out, _ = run(capsys, "degree", "--rule", "S")
        assert code == 0
        assert "degree 3" in out
        assert "note:" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "degree", "--rule", "Q",
                           "--format", "json")
        payload = json.loads(out)
        assert payload == {"rule": "Q", "degree": 5, "at_least": False,
                           "quoted_degree": 3,
                           "note": payload["note"]}
        assert "5" in payload["note"]


class TestPi:
    def test_example_3_digit_claim(self, capsys):
        code, out, _ = run(capsys, "pi", "--example", "3",
                           "--panels", "1024", "--prec", "256")
        assert code == 0
        digits = int(next(l for l in out.splitlines()
                          if l.startswith("digits_correct")).split("=")[1])
        assert digits >= 19

    def test_example_1_exact_at_two_panels(self, capsys):
        code, out, _ = run(capsys, "pi", "--example", "1", "--rule", "T",
                           "--panels", "2")
        assert code == 0
        digits = int(next(l for l in out.splitlines()
                          if l.startswith("digits_correct")).split("=")[1])
        assert digits >= 15

    def test_json(self, capsys):
        code, out, _ = run(capsys, "pi", "--example", "2", "--panels", "64",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["example"] == 2 and payload["panels"] == 64
        assert payload["digits_correct"] >= 3

    def test_digits_past_the_integer_string_limit(self, capsys):
        # at 4,240 bits the exact decimal of a value has more digits than
        # Python converts from an integer (4,300); 4,236 bits stays under
        code, out, err = run(capsys, "pi", "--example", "3", "--panels", "4",
                             "--prec", "4240")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "digits_correct = 3"


def test_stdout_ignores_the_environment(capsys, monkeypatch):
    # --prec and --format have fixed defaults; no variable stands in for them
    argv = ("integrate", "--integrand", "sin2", "--rule", "M", "--panels", "2")
    for name in ("QUAD_PREC", "QUAD_FORMAT"):
        monkeypatch.delenv(name, raising=False)
    unset = run(capsys, *argv)
    monkeypatch.setenv("QUAD_PREC", "128")
    monkeypatch.setenv("QUAD_FORMAT", "json")
    assert run(capsys, *argv) == unset
    assert unset[0] == 0 and "53-bit precision" in unset[1]


def test_the_cli_imports_neither_argparse_nor_gettext():
    # the option tables replace argparse, which alone imported gettext
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = ("import contextlib, io, sys\n"
            "import quadrules.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert quadrules.cli.main(['degree', '--rule', 'Q']) == 0\n"
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("argv, flags", [
    (("integrate", "--integrand", "sin2"),
     {"integrand": "sin2", "a": None, "b": None, "rule": "S", "panels": "1"}),
    (("bracket", "--integrand", "sin2"),
     {"integrand": "sin2", "a": None, "b": None, "pair": "L,R",
      "panels": "1"}),
    (("table", "--integrand", "sin2"),
     {"integrand": "sin2", "a": None, "b": None, "rules": "L,R,M,T,S,T2",
      "panels": "2^0..2^10"}),
    (("degree", "--rule", "Q"), {"rule": "Q"}),
    (("pi", "--example", "1"), {"example": 1, "rule": "S", "panels": None}),
], ids=["integrate", "bracket", "table", "degree", "pi"])
def test_each_subcommand_keeps_its_flags(argv, flags):
    # every flag and default of each subcommand's minimal command line
    namespace = vars(_parse_args(list(argv)))
    assert namespace.pop("func").__name__ == "cmd_" + argv[0]
    assert namespace == {"command": argv[0], **flags, "prec": 53,
                         "format": "text"}


@pytest.mark.parametrize("argv", [
    ("integrate", "--integrand", "sin2", "--prec", "2"),
    ("integrate", "--integrand", "sin2", "--prec", "65537"),
    ("integrate", "--integrand", "x", "--a", "0.1", "--b", "0.2",
     "--prec", "99999999999999999999"),
    ("degree", "--rule", "Q", "--max", "0"),
    ("integrate", "--integrand", "x^x", "--a", "1", "--b", "2",
     "--rule", "T2"),
    ("table", "--integrand", "asin6", "--rules", "L,L"),
    ("table", "--integrand", "asin6", "--rules", "L,R,L"),
    ("bracket", "--integrand", "asin6", "--pair", "L,L"),
    ("integrate", "--integrand", "sin2", "--rule", "T",
     "--panels", "99999999999"),
    ("table", "--integrand", "sin2", "--panels", "2^0..2^2000000"),
])
def test_bad_input_is_one_line_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("quad: error: ") and err.count("\n") == 1


def test_unknown_format_lists_the_choices(capsys):
    assert run(capsys, "integrate", "--integrand", "sin2",
               "--format", "xml") == (
        1, "", "quad: error: argument --format: invalid choice: 'xml' "
               "(choose from 'text', 'csv', 'json')\n")


@pytest.mark.parametrize("option, value, rest", [
    ("--integrand", "-x", ("--a", "0", "--b", "1")),
    ("--a", "-pi", ("--integrand", "x", "--b", "0")),
    ("--b", "-1e-3", ("--integrand", "x", "--a", "-1")),
    ("--a", "-(1)", ("--integrand", "x^2", "--b", "1")),
    # argparse takes any prefix of --integrand from --i on for it
    ("--int", "-x", ("--a", "0", "--b", "1")),
    ("--in", "-x", ("--a", "0", "--b", "1")),
    ("--i", "-sin(x)", ("--a", "0", "--b", "1")),
    ("--integran", "-1/(2+x)", ("--a", "0", "--b", "1")),
    # every other option too: the value is read, and refused by its reader
    ("--rule", "-S", ("--integrand", "sin2")),
    ("--panels", "-2", ("--integrand", "sin2")),
    ("--prec", "-53", ("--integrand", "sin2")),
])
def test_option_values_may_start_with_a_minus(capsys, option, value, rest):
    # a value that starts with "-" is read as the option's value, spaced
    # or after "="
    spaced = run(capsys, "integrate", option, value, *rest)
    assert spaced == run(capsys, "integrate", f"{option}={value}", *rest)
    refused = {"--rule": "unknown rule '-S'",
               "--panels": "panel counts must be integers from 1 to 2^20",
               "--prec": "must be an integer from 4 to 65536 bits, got '-53'"}
    if option in refused:
        assert spaced[:2] == (1, "") and refused[option] in spaced[2]
    else:
        assert spaced[0] == 0 and spaced[1]


def test_a_rule_that_starts_with_a_minus_is_an_unknown_rule(capsys):
    # argparse took -S for an option and printed "argument --rule:
    # expected one argument"
    assert run(capsys, "degree", "--rule", "-S") == (
        1, "", "quad: error: unknown rule '-S' (known rules: L, R, M, T, S, "
               "T2, Q)\n")


@pytest.mark.parametrize("argv, message", [
    (("--integrand", "x", "--a", "--b", "1"),
     "argument --a: expected one argument"),
    (("--integrand", "x", "--b", "1", "--a"),
     "argument --a: expected one argument"),
    (("--integrand", "x", "--a", "-h", "--b", "1"),
     "argument --a: expected one argument"),
    (("--integrand", "--a", "-1", "--b", "1"),
     "argument --integrand: expected one argument"),
    # -h is never joined to a prefix of --integrand either
    (("--int", "-h", "--a", "0"),
     "argument --integrand: expected one argument"),
])
def test_an_option_after_an_option_is_still_an_option(capsys, argv, message):
    assert run(capsys, "integrate", *argv) == (1, "",
                                               f"quad: error: {message}\n")


_CHOICES = "'integrate', 'bracket', 'table', 'degree', 'pi'"


@pytest.mark.parametrize("argv, message", [
    ((), "the following arguments are required: command"),
    (("nope",), f"argument command: invalid choice: 'nope' (choose from "
                f"{_CHOICES})"),
    # a subcommand is never abbreviated
    (("integ",), f"argument command: invalid choice: 'integ' (choose from "
                 f"{_CHOICES})"),
    (("integrate",), "the following arguments are required: --integrand"),
    (("pi",), "the following arguments are required: --example"),
    (("integrate", "--integrand"),
     "argument --integrand: expected one argument"),
    (("integrate", "--integrand", "x", "--p", "3"),
     "ambiguous option: --p could match --panels, --prec"),
    (("integrate", "--integrand", "x", "--p=3"),
     "ambiguous option: --p=3 could match --panels, --prec"),
    (("bracket", "--integrand", "x", "--pa", "3"),
     "ambiguous option: --pa could match --pair, --panels"),
    (("pi", "--example", "x"), "argument --example: invalid int value: 'x'"),
    (("integrate", "--integrand", "sin2", "-x"), "unrecognized arguments: -x"),
    (("integrate", "--integrand", "sin2", "--", "x"),
     "unrecognized arguments: -- x"),
    # options after "--" are not read, and a missing one is named first
    (("integrate", "--", "--integrand", "sin2"),
     "the following arguments are required: --integrand"),
    (("degree", "--rule", "Q", "--wat", "1"),
     "unrecognized arguments: --wat 1"),
], ids=["no_command", "unknown_command", "command_prefix", "no_integrand",
        "no_example", "no_value", "ambiguous_prefix", "ambiguous_prefix_eq",
        "ambiguous_pair_prefix", "example_not_int", "single_dash",
        "double_dash", "option_after_double_dash", "unknown_option"])
def test_usage_diagnostics_are_pinned(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"quad: error: {message}\n")


def test_a_repeated_option_keeps_its_last_value(capsys):
    assert run(capsys, "degree", "--rule", "Q", "--rule", "S") == \
        run(capsys, "degree", "--rule", "S")
    code, out, _ = run(capsys, "integrate", "--integrand", "sin2",
                       "--prec=113", "--pre", "99", "--prec", "113")
    assert code == 0 and "113-bit precision" in out
    assert (code, out) == run(capsys, "integrate", "--integrand", "sin2",
                              "--prec=113")[:2]


def test_minus_h_after_a_value_option_still_prints_help(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["integrate", "--integrand", "x", "-h"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quad integrate")


@pytest.mark.parametrize("argv, usage", [
    (("pi", "--he"), ["pi [-h] --example EXAMPLE [--rule S] [--panels PANELS] "
                      "[--prec 53] [--format text]"]),
    (("degree", "--format", "json", "-h", "--wat"),
     ["degree [-h] --rule RULE [--prec 53] [--format text]"]),
    (("-h",), ["integrate [-h] --integrand INTEGRAND [--a A] [--b B] "
               "[--rule S] [--panels 1] [--prec 53] [--format text]",
               "bracket [-h] --integrand INTEGRAND [--a A] [--b B] "
               "[--pair L,R] [--panels 1] [--prec 53] [--format text]",
               "table [-h] --integrand INTEGRAND [--a A] [--b B] "
               "[--rules L,R,M,T,S,T2] [--panels 2^0..2^10] [--prec 53] "
               "[--format text]",
               "degree [-h] --rule RULE [--prec 53] [--format text]",
               "pi [-h] --example EXAMPLE [--rule S] [--panels PANELS] "
               "[--prec 53] [--format text]"]),
], ids=["command_help_prefix", "command_help_before_unknown", "all"])
def test_help_prints_usage_lines_with_the_defaults(capsys, argv, usage):
    # -h is read where it stands: an unknown option after it is not reached
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 0
    assert capsys.readouterr() == (
        "".join(f"usage: quad {line}\n" for line in usage), "")


def test_output_bytes_are_deterministic(capsys):
    argv = ("table", "--integrand", "atan2", "--rules", "L,R,M,T",
            "--panels", "1,2,4", "--format", "csv")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_ends_without_a_traceback(unbuffered):
    # stdout is a pipe whose reader is gone before quad starts, as after
    # `quad ... | head` has exited; buffered output fails only on flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quadrules.cli", "table", "--integrand",
             "asin6", "--panels", "1,2", "--format", "json"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def _run_cli(*argv):
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, "-m", "quadrules.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("text", [
    # it parses, but the tape builder and the printer recurse, one frame a
    # level; the tape builder, which the integrand calls first, gives out
    "sin(" * 1000 + "x" + ")" * 1000,
    # the tape builder recurses into every operand, so down the
    # left-leaning sum too, one frame a term, and gives out first again
    " + ".join(["sin(x)"] * 994),
], ids=["1000_nested_sin", "994_term_sum"])
def test_deep_nesting_is_one_line_usage_error(text):
    # a quad process, at the interpreter's own recursion limit
    proc = _run_cli("integrate", "--integrand", text, "--a", "0", "--b", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (1, "", "quad: error: expression nested too deeply\n")


@pytest.mark.parametrize("text", [
    " + ".join(["sin(x)"] * 900),
    "x^(" * 900 + "x" + ")" * 900,
    "(" * 900 + "x" + "^1)" * 900,
], ids=["900_term_sum", "900_nested_x_powers", "900_constant_powers"])
def test_a_bracket_differentiates_as_deep_as_integrate_evaluates(text):
    # the sign check reads f'', and differentiation steps through the
    # tape, so the tape builder's one frame a level is the only limit; x
    # in the exponents leaves the sign unknown, which still exits 0
    proc = _run_cli("bracket", "--integrand", text, "--a", "0", "--b", "1",
                    "--pair", "M,T")
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("text", ["(" * 10000 + "x" + ")" * 10000,
                                  "-" * 10000 + "x"],
                         ids=["10000_parentheses", "10000_minus_signs"])
def test_parentheses_and_minus_signs_nest_to_any_depth(text):
    # the parser keeps them on a stack, and both fold away to x; "=" joins
    # a value that starts with "--", which would otherwise be an option
    argv = ["integrate", "--a", "0", "--b", "1"]
    proc = _run_cli(*argv, "--integrand=" + text)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == _run_cli(*argv, "--integrand", "x").stdout


@pytest.mark.parametrize("text, prec, message", [
    # a sine reduces 10^(10^6)/2 by pi to about 3.3 million bits
    ("sin(10^10^6*x)", "53", "sine argument beyond 2^131072 in "
                             "sin(10 ^ 10 ^ 6 * x) at x = 0.5 (panel 1 of 1)"),
    # 0.5^(10^(10^4)) has a 33,220-bit exponent, which mp.nstr would
    # turn into a power of ten
    ("x^(10^10^4)", "53", "cannot print a value whose binary exponent is "
                          "2^64 or more in magnitude"),
    # 1.5^(10^(10^4)) would square 33,220 times at over 130,000 bits
    ("(1+x)^(10^10^4)", "53", "integer exponent of 2^128 or more in "
                              "(1 + x) ^ 10 ^ 10 ^ 4 at x = 0.5 "
                              "(panel 1 of 1)"),
    # at 53 bits 10^(10^4) + 0.5 rounds to an integer; at 65,536 bits it
    # keeps its half, and mpf_pow would square 33,220 times as well
    ("(1+x)^(10^10^4+0.5)", "53", "integer exponent of 2^128 or more in "
                                  "(1 + x) ^ (10 ^ 10 ^ 4 + 0.5) at x = 0.5 "
                                  "(panel 1 of 1)"),
    ("(1+x)^(10^10^4+0.5)", "65536", "fractional exponent of 2^128 or more "
                                     "in (1 + x) ^ (10 ^ 10 ^ 4 + 0.5) at "
                                     "x = 0.5 (panel 1 of 1)"),
], ids=["trig_argument", "printed_exponent", "integer_power",
        "fractional_power_53", "fractional_power_65536"])
def test_astronomical_magnitudes_are_one_line_domain_errors(text, prec,
                                                            message):
    proc = _run_cli("integrate", "--integrand", text, "--a", "0", "--b", "1",
                    "--rule", "M", "--panels", "1", "--prec", prec)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", f"quad: domain error: {message}\n")


_ZEROS = "0" * 5000
_LONG = "1" + _ZEROS
_Z4 = "0" * 4000
_KNOWN = "(known rules: L, R, M, T, S, T2, Q)"


def _integrate(*flags, integrand="x", a="0", b="1"):
    return ("integrate", "--integrand", integrand, "--a", a, "--b", b,
            *flags)


# each request, its exit status and kind, and a phrase from the start of
# its diagnostic (the reason) and one from the end; a line over 300 bytes
# keeps only its first 200 and last 90 around " ... "
@pytest.mark.parametrize("argv, code, start, end", [
    (_integrate(a="1", b=f"1.{_Z4}"), 1,
     "error: bad interval: interval requires a < b, got [1, 1.000",
     "000], equal to 65536 bits"),
    (_integrate(a="1", b=f"1.{_Z4}1"), 2,
     "domain error: the endpoints of [1, 1.000",
     "001] round to a >= b at 53-bit precision"),
    (_integrate("--rule", "M", integrand=f"sqrt(x - 1.{_Z4}1)"), 2,
     "domain error: square root of a negative value in sqrt(x - 1.000",
     "001) at x = 0.5 (panel 1 of 1)"),
    (_integrate("--rule", "T2", integrand=f"x^(x+1.{_Z4}1)"), 1,
     "error: cannot differentiate x ^ (x + 1.000",
     "001): exponent contains x"),
    (_integrate("--rule", "M", "--panels", "3", "--prec", "65536",
                integrand="sqrt(x - 0.7)"), 2,
     "domain error: square root of a negative value in sqrt(x - 0.7) at "
     "x = 0.1666", "667 (panel 1 of 3)"),
    (_integrate("--format", "a" * 5000), 1,
     "error: argument --format: invalid choice: 'aaa",
     "aaa' (choose from 'text', 'csv', 'json')"),
    (("pi", "--example", "9" * 3000), 1,
     "error: argument --example: invalid choice: 999",
     "999 (choose from 1, 2, 3)"),
    (_integrate("a" * 4997 + "end"), 1,
     "error: unrecognized arguments: aaa", "aaaend"),
    (_integrate("foo\nbar"), 1,
     "error: unrecognized arguments: foo bar", "foo bar"),
    (_integrate(b"\xff"), 1,
     "error: unrecognized arguments: \\udcff", "\\udcff"),
    (_integrate(integrand=f"{_LONG}*x"), 1,
     "error: --integrand is neither a built-in (sin2, asin6, atan2) nor a "
     "valid expression: syntax error at byte offset 0: integer literal of "
     "5001 digits is too long", "5001 digits is too long"),
    (_integrate(b=_LONG), 1,
     "error: bad interval: syntax error at byte offset 0: integer literal "
     "of 5001 digits is too long", "5001 digits is too long"),
    (_integrate(integrand=f"1.{_ZEROS}1*x"), 1,
     "error: --integrand is neither",
     "byte offset 0: decimal literal of 5003 characters is too long"),
    (_integrate(integrand=f"1e{'9' * 5000}*x"), 1,
     "error: --integrand is neither",
     "byte offset 0: decimal literal of 5002 characters is too long"),
    (_integrate(b=f"1.{_ZEROS}1"), 1,
     "error: bad interval: syntax error at byte offset 0: decimal literal "
     "of 5003 characters is too long", "5003 characters is too long"),
    (_integrate(integrand="a" * 5000), 1,
     "error: --integrand is neither a built-in (sin2, asin6, atan2) nor a "
     "valid expression: syntax error at byte offset 0: unknown identifier "
     "'aaa", "aaa'"),
    (_integrate("--prec", _LONG), 1,
     "error: argument --prec: precision must be an integer from 4 to 65536 "
     "bits, got '1000", "000'"),
    (("table", "--integrand", "sin2", "--panels", f"2^{_LONG}..2^1"), 1,
     "error: bad panel count '2^1000", "000..2^1'"),
    (("degree", "--rule", f"S{_LONG}"), 1, "error: unknown rule 'S1000",
     f"000' {_KNOWN}"),
    # a two-byte character: the cut keeps whole characters
    (("degree", "--rule", "\u00e9" * 5000), 1,
     "error: unknown rule '\u00e9\u00e9", f"\u00e9\u00e9' {_KNOWN}"),
    # an undefined endpoint names its node, and no point or panel
    (_integrate(a="1/0"), 2, "domain error: division by zero in 1 / 0",
     "division by zero in 1 / 0"),
    (_integrate(b="sqrt(-1)"), 2,
     "domain error: square root of a negative value in sqrt(-1)",
     "square root of a negative value in sqrt(-1)"),
    # node 513 of 2,049, met by the 113-bit tuple program compiled at the
    # 300th run, which the interpreted loop then runs again
    (_integrate("--rule", "T", "--panels", "1024", "--prec", "113",
                integrand="1/(x-0.5)"), 2,
     "domain error: division by zero in 1 / (x - 0.5) at x = 0.5 ",
     "(panel 512 of 1024)"),
], ids=["b_equal_to_a", "b_rounding_to_a", "sqrt_domain", "derivative",
        "point_at_65536_bits", "format", "example", "unrecognized",
        "newline", "undecodable", "integer_integrand", "integer_b",
        "decimal_integrand", "exponent_integrand", "decimal_b",
        "identifier", "prec", "panels", "rule", "rule_of_two_byte_chars",
        "undefined_a", "undefined_b", "zero_divisor_compiled"])
def test_every_diagnostic_is_one_bounded_line(argv, code, start, end):
    # a quad process, so that the bytes are the ones written to stderr
    proc = _run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    # the cut falls between characters, so none is replaced
    assert len(proc.stderr.encode()) <= 300 and "\ufffd" not in proc.stderr
    assert proc.stderr.startswith(f"quad: {start}")
    assert proc.stderr.endswith(f"{end}\n")


def test_stdout_keeps_a_long_interval_whole(capsys):
    # the bound is on diagnostics; the header prints the interval whole
    b = f"1.{_Z4}1"
    code, out, err = run(capsys, *_integrate("--rule", "M", b=b))
    assert (code, err) == (0, "")
    assert out.startswith(f"integrand x on [0, {b}]\n")


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    # 1 + 10^-20 rounds to 1 at 64 bits, not at 128
    (("integrate", "--b", "1.00000000000000000001", "--prec", "256"), 0,
     "integrand x on [1, 1.00000000000000000001]\n"
     "rule M with 1 panel(s) at 256-bit precision\n"
     "value = 0.00000000000000000001000000000000000000004999999999999999999"
     "99999999999999999950269480158432013\n", ""),
    # 1 + 10^-19 rounds to 1 at 53 bits, where it once integrated to 0.0
    (("integrate", "--b", "1.0000000000000000001"), 2, "",
     "quad: domain error: the endpoints of [1, 1.0000000000000000001] "
     "round to a >= b at 53-bit precision\n"),
    (("bracket", "--b", "1.0000000000000000001", "--pair", "L,R"), 2, "",
     "quad: domain error: the endpoints of [1, 1.0000000000000000001] "
     "round to a >= b at 53-bit precision\n"),
    (("integrate", "--b", "1"), 1, "",
     "quad: error: bad interval: interval requires a < b, got [1, 1], "
     "equal to 65536 bits\n"),
], ids=["apart_at_256_bits", "equal_at_53_bits", "bracket_at_53_bits",
        "equal_at_every_precision"])
def test_endpoints_are_compared_at_the_working_precision(argv, code, stdout,
                                                         stderr):
    command, *flags = argv
    proc = _run_cli(command, "--integrand", "x", "--a", "1", *flags,
                    *(("--rule", "M") if command == "integrate" else ()))
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (code, stdout, stderr)


# a grammar of command lines over every subcommand and format: built-in
# and expression integrands, nested functions past the recursion limit,
# long sums, long literals, extreme and undefined interval endpoints,
# panel counts up to 64 and precisions up to 256 bits, valid or not
_NESTED = st.builds(lambda name, n: f"{name}(" * n + "x" + ")" * n,
                    st.sampled_from(["sin", "cos", "sqrt", "x^"]),
                    st.integers(1, 2000))
_SUMS = st.builds(lambda terms, n: " + ".join(terms[k % len(terms)]
                                              for k in range(n)),
                  st.lists(st.sampled_from(["sin(x)", "x^2", "1/(1+x)",
                                            "0.5", "sqrt(x)"]),
                           min_size=1, max_size=3),
                  st.integers(1, 1200))
_LITERALS = st.builds(lambda lead, zeros, tail: f"{lead}{'0' * zeros}{tail}",
                      st.sampled_from(["1", "1.", "0."]),
                      st.integers(0, 5000), st.sampled_from(["*x", "1*x"]))
_BUILTINS = st.sampled_from(["sin2", "asin6", "atan2"])
_EXPRESSIONS = st.one_of(
    st.sampled_from(["x", "-x", "1/x", "x^x", "sqrt(x - 0.5)",
                     "x*cos(2*x) + sqrt(1+x^2)", "2^2^2^2^2*x",
                     "x^(10^10^4)", "sin(10^10^6*x)"]),
    _NESTED, _SUMS, _LITERALS)
_ENDPOINTS = st.sampled_from([
    "0", "1", "-1", "0.5", "-pi", "1e-300", "-1e300", "1e4000",
    "1" + "0" * 5000, "1/0", "sqrt(-1)", "x", "10^10^4"])
_INTERVALS = st.one_of(
    st.tuples(st.sampled_from(["0", "-1", "0.25", "-pi"]),
              st.sampled_from(["0.5", "1", "2", "pi"])),
    st.sampled_from([("1e-300", "1e300"), ("-1e4000", "1e4000"),
                     ("2^-1100", "2^1100"), ("1e300", "2e300"),
                     ("-1e-4000", "1e-4000"), ("1", "1." + "0" * 4000 + "1"),
                     ("1", "1." + "0" * 4000)]),
    st.tuples(_ENDPOINTS, _ENDPOINTS))
_PANELS = st.one_of(st.integers(1, 64).map(str),
                    st.sampled_from(["0", "65", "two", "1,2"]))
_RULES = st.sampled_from(["L", "R", "M", "T", "S", "T2", "Q", "Z"])
# every subcommand's own options; the default table runs to 1,024 panels
_OPTIONS = {
    "integrate": {"--rule": _RULES, "--panels": _PANELS},
    "bracket": {"--pair": st.sampled_from(["L,R", "M,T", "T2,S", "S,T2",
                                           "L,Q", "M"]),
                "--panels": _PANELS},
    "table": {"--rules": st.sampled_from(["L,R", "M,T,S", "T2,Q",
                                          "L,R,M,T,S,T2", "L,L"]),
              "--panels": _PANELS | st.sampled_from(["1,2,4", "2^0..2^6",
                                                     "3,2^1..2^2"])},
    "degree": {"--rule": _RULES},
    "pi": {"--example": st.sampled_from(["1", "2", "3", "4"]),
           "--rule": _RULES, "--panels": _PANELS},
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for option, values in _OPTIONS[command].items():
        argv += [option, draw(values)]
    if command in ("integrate", "bracket", "table"):
        # half are built-ins and half have no interval, so that tables,
        # which take only a built-in on its own interval, reach their rows
        integrands = _BUILTINS if draw(st.booleans()) else _EXPRESSIONS
        argv += ["--integrand", draw(integrands)]
        if draw(st.booleans()):
            a, b = draw(_INTERVALS)
            argv += ["--a", a, "--b", b]
    for option, values in (("--prec", st.integers(4, 256).map(str)),
                           ("--format", st.sampled_from(["text", "csv",
                                                         "json"]))):
        if draw(st.booleans()):
            argv += [option, draw(values)]
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=_argvs())
# a tower of powers of two, whose exponent at x = 2 was built as an int of
# 2^65536 bits and raised OverflowError
@example(argv=["bracket", "--integrand", "x^(" * 6 + "x" + ")" * 6,
               "--a", "0", "--b", "2", "--panels", "1"])
def test_every_request_ends_in_a_status_and_at_most_one_bounded_line(argv):
    # in-process, so the limit on nesting is the test's own stack depth
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert code == 0 or out.getvalue() == ""
    assert err.count("\n") <= 1 and err.endswith("\n") == (err != "")
    assert len(err.encode()) <= 300 and "Traceback" not in err


_REFERENCE = reference_parser()
# the extra arguments a command line may carry: an unknown option, with or
# without a value, a stray word, a single-dash word and "--", after which
# nothing is read
_EXTRAS = st.sampled_from(["--wat", "--wat=1", "extra", "-x", "--", "7"])


def _spellings(draw, argv):
    """``argv`` with its options in any order, each spelled in full or by a
    prefix that names it alone, its value spaced or after "=", a few left
    out or given twice, extra arguments put between them, and maybe one
    last option without a value.  A value that starts with "-" always
    follows "=", where argparse takes it."""
    command, pairs = argv[0], list(zip(argv[1::2], argv[2::2]))
    options = ["--help", "--prec", "--format",
               *(o for o, _ in pairs), *_OPTIONS[command]]
    if command in ("integrate", "bracket", "table"):
        options += ["--integrand", "--a", "--b"]
    pairs = draw(st.permutations(pairs))
    pairs = [p for p in pairs if draw(st.integers(0, 19))]  # 1 in 20 out
    if pairs and draw(st.integers(0, 9)) == 0:
        pairs.append(draw(st.sampled_from(pairs)))
    words = []
    for option, value in pairs:
        shortest = next(n for n in range(3, len(option) + 1)
                        if [o for o in set(options)
                            if o.startswith(option[:n])] == [option])
        option = option[:draw(st.integers(shortest, len(option)))]
        if value.startswith("-") or draw(st.booleans()):
            words.append(f"{option}={value}")
        else:
            words += [option, value]
        if draw(st.integers(0, 9)) == 0:
            words.append(draw(_EXTRAS))
    if draw(st.integers(0, 19)) == 0:
        words.append(draw(st.sampled_from(sorted(set(options) - {"--help"}))))
    return [command, *words]


def _read(parse, argv):
    """The namespace that ``parse`` reads from ``argv``, or its message."""
    try:
        return vars(parse(list(argv)))
    except UsageError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), argv=_argvs())
@example(data=None, argv=["pi", "--example", "4", "--prec", "3"])
def test_the_option_reader_reads_as_argparse_did(data, argv):
    if data is not None:
        argv = _spellings(data.draw, argv)
    assert _read(_parse_args, argv) == _read(_REFERENCE.parse_args, argv)
