import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mpf

from quadrules.analysis import convergence_table, table_from_csv
from quadrules.cli import UsageError, _sci, main, parse_panels
from quadrules.integrand import builtin_integrand
from quadrules.precision import pi_at, ulp


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

    def test_left_rule_never_reads_the_right_end(self, capsys):
        # f(0) is undefined, but L over [-1, 0] reads only left ends
        code, out, err = run(capsys, "integrate", "--integrand", "1/x",
                             "--a", "-1", "--b", "0", "--rule", "L",
                             "--panels", "4")
        assert code == 0 and err == ""
        assert "value = -2.0833333333333335\n" in out

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
        back = table_from_csv(out, 53)
        f = builtin_integrand("asin6")
        rows = convergence_table(f, rules=("L", "R", "M", "T", "S", "T2"),
                                 n_list=(1, 2, 4))
        assert [r.panels for r in back] == [r.panels for r in rows]
        for mine, theirs in zip(rows, back):
            assert mine.order == theirs.order
            assert mine.assumptions == theirs.assumptions
            for name in mine.errors:
                assert mine.errors[name] == theirs.errors[name]

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
        code, out, _ = run(capsys, "degree", "--rule", "Q", "--max", "8")
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


class TestEnvironmentDefaults:
    def test_quad_prec(self, capsys, monkeypatch):
        monkeypatch.setenv("QUAD_PREC", "128")
        code, out, _ = run(capsys, "integrate", "--integrand", "sin2",
                           "--rule", "M", "--panels", "2")
        assert code == 0
        assert "128-bit precision" in out

    def test_quad_format(self, capsys, monkeypatch):
        monkeypatch.setenv("QUAD_FORMAT", "json")
        code, out, _ = run(capsys, "degree", "--rule", "L")
        assert code == 0
        assert json.loads(out)["degree"] == 0

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QUAD_FORMAT", "json")
        code, out, _ = run(capsys, "degree", "--rule", "L",
                           "--format", "text")
        assert code == 0
        assert out.startswith("rule L")


@pytest.mark.parametrize("env, argv", [
    ({}, ("integrate", "--integrand", "sin2", "--prec", "2")),
    ({"QUAD_PREC": "2"}, ("integrate", "--integrand", "sin2")),
    ({"QUAD_PREC": "abc"}, ("degree", "--rule", "Q")),
    ({"QUAD_FORMAT": "xml"}, ("degree", "--rule", "Q")),
    ({}, ("degree", "--rule", "Q", "--max", "0")),
    ({}, ("integrate", "--integrand", "x^x", "--a", "1", "--b", "2",
          "--rule", "T2")),
    ({}, ("table", "--integrand", "asin6", "--rules", "L,L")),
    ({}, ("table", "--integrand", "asin6", "--rules", "L,R,L")),
    ({}, ("bracket", "--integrand", "asin6", "--pair", "L,L")),
])
def test_bad_input_is_one_line_usage_error(capsys, monkeypatch, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("quad: error: ") and err.count("\n") == 1


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
