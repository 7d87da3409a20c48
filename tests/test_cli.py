import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mpf

from quadrules.analysis import convergence_table, table_to_csv
from quadrules.cli import (UsageError, _sci, build_parser, main,
                           parse_panels)
from quadrules.integrand import builtin_integrand
from quadrules.precision import pi_at

from oracles import ulp


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

    @pytest.mark.xfail(strict=True, reason=(
        "mpf_sum(..., 0) drops a term more than 10^6 bits below the running "
        "sum, so the node sums are not exact (ROADMAP Known defects)"))
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


def test_parser_is_built_once(capsys, monkeypatch):
    # argparse construction costs about as much as a short request, so
    # main must not rebuild it per call; subcommand parsers are counted
    # apart from the top-level one
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        assert run(capsys, "degree", "--rule", "S")[0] == 0
    assert built.count("quad") <= 1


def test_import_builds_no_parser():
    # any ArgumentParser construction fails in this child, so the import
    # succeeds only if the parser waits for its first use
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = ("import argparse\n"
            "argparse.ArgumentParser.__init__ = None\n"
            "import quadrules.cli\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


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
    namespace = vars(build_parser().parse_args(list(argv)))
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


@pytest.mark.parametrize("text", [
    # the recursive parser gives out first
    "(" * 198 + "x" + ")" * 198,
    # it parses, but the tape builder recurses down the left-leaning sum
    " + ".join(["sin(x)"] * 994),
], ids=["198_parentheses", "994_term_sum"])
def test_deep_nesting_is_one_line_usage_error(text):
    # a quad process, at the interpreter's own recursion limit
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "quadrules.cli", "integrate", "--integrand",
         text, "--a", "0", "--b", "1"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (1, "", "quad: error: expression nested too deeply\n")


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
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "quadrules.cli", "integrate", "--integrand",
         text, "--a", "0", "--b", "1", "--rule", "M", "--panels", "1",
         "--prec", prec],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", f"quad: domain error: {message}\n")


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
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    command, *flags = argv
    proc = subprocess.run(
        [sys.executable, "-m", "quadrules.cli", command, "--integrand", "x",
         "--a", "1", *flags, *(("--rule", "M") if command == "integrate"
                              else ())],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (code, stdout, stderr)
