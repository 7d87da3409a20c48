"""Tests of the benchmark's own counters and output checks.

    python3 -m pytest -q perfbench
"""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quadrules import cli, composite, integrand  # noqa: E402

SMALL_OPS = (
    ("pi", "--example", "3", "--panels", "16", "--prec", "256"),
    ("bracket", "--integrand", "asin6", "--pair", "M,T", "--panels", "8"),
    ("table", "--integrand", "asin6", "--panels", "1,2"),
    ("integrate", "--integrand", "sin(x) + x^2", "--a=0", "--b=1",
     "--rule", "T2", "--panels", "5", "--format", "json"),
    ("degree", "--rule", "Q"),
)


def traced_counts(argvs):
    """Per-operation counters (not timings) of a traced run of ``argvs``."""
    tracer = tracing.Tracer()
    outputs = []
    for argv in argvs:
        with tracer:
            outputs.append(run.run_op(argv))
        tracer.end_op()
    per_op = tracer.per_op(len(argvs))
    counts = {name: per_op[name] for name, unit in tracing.METRICS.items()
              if unit != "ms"}
    return counts, outputs


def test_two_traced_runs_give_identical_counters():
    first, _ = traced_counts(SMALL_OPS)
    second, _ = traced_counts(SMALL_OPS)
    assert first == second
    assert first["mpmath.mpf_calls"] > 0


def test_tracing_changes_no_output_and_restores_the_package():
    before = (cli.main, composite.composite_values,
              vars(integrand.Integrand)["eval_at"])
    plain = [run.run_op(argv) for argv in SMALL_OPS]
    _, traced = traced_counts(SMALL_OPS)
    assert traced == plain
    assert (cli.main, composite.composite_values,
            vars(integrand.Integrand)["eval_at"]) == before


@pytest.mark.parametrize("argv", [
    ("integrate", "--integrand", "sin2", "--rule", "S", "--panels", "7"),
    ("bracket", "--integrand", "atan2", "--pair", "M,T", "--panels", "12"),
    ("table", "--integrand", "asin6", "--rules", "L,R,M,T,S,T2",
     "--panels", "1,2,4"),
])
def test_each_node_is_evaluated_once(argv):
    counts, _ = traced_counts([argv])
    assert counts["composite.evals_per_node"] == 1.0


@pytest.mark.parametrize("n", [1, 5, 16])
@pytest.mark.parametrize("argv", [
    ("integrate", "--integrand", "sin2", "--rule", "S"),
    ("bracket", "--integrand", "asin6", "--pair", "M,T"),
])
def test_f_evals_of_an_n_panel_m_t_s_request(argv, n):
    counts, _ = traced_counts([argv + ("--panels", str(n))])
    assert counts["integrand.f_evals"] == 2 * n + 1
    assert counts["composite.panels"] == n


def test_sign_checks_take_257_samples_each():
    counts, _ = traced_counts([("table", "--integrand", "asin6",
                                "--panels", "1,2")])
    assert counts["associate.sign_check_calls"] == 3
    assert counts["associate.sign_check_samples"] == 3 * 257
    counts, _ = traced_counts([("bracket", "--integrand", "sin2",
                                "--pair", "L,R", "--panels", "4")])
    assert counts["associate.sign_check_samples"] == 257


def test_differentiate_is_timed_once_per_outermost_call():
    tracer = tracing.Tracer()
    with tracer:
        f = integrand.builtin_integrand("asin6")
        f.derivative_expr(4)
    assert tracer.ms["expr.differentiate_ms"] > 0
    assert tracer.counts["expr.differentiate_calls"] == 4


def test_tree_sizes_count_repeats_and_distinct_structure():
    f = integrand.builtin_integrand("asin6")
    assert tracing.tree_sizes([f.derivative_expr(0)]) == (8, 8)
    assert tracing.tree_sizes([f.derivative_expr(1)]) == (25, 15)
    assert tracing.tree_sizes([f.derivative_expr(4)]) == (4036, 115)


def test_mixed_requests_are_seeded():
    def argvs(seed, n=50):
        ops = workloads.mixed_requests_ops(seed)
        return [next(ops).argv for _ in range(n)]
    assert argvs(3) == argvs(3)
    assert argvs(3) != argvs(4)


def test_mixed_requests_pass_their_checks():
    ops = workloads.mixed_requests_ops(11)
    outcomes = run.Outcomes()
    kinds = set()
    for _ in range(120):
        op = next(ops)
        outcomes.record(op, run.run_op(op.argv))
        kinds.add(op.argv[0])
    assert outcomes.failed == 0
    assert kinds == {"integrate", "bracket", "degree", "pi", "table"}


def test_checks_reject_wrong_outputs():
    rc, out, err = run.run_op(workloads.TABLE_ASIN6)
    assert workloads.check_table_asin6(rc, out, err) is None
    assert workloads.check_table_asin6(rc, out.replace("A+", "A!", 1), err)
    assert workloads.check_table_asin6(rc, out.replace("LMT2STR", "LMTST2"),
                                       err)
    lines = out.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.split()[:1] == ["1"])
    err_r = lines[row].split()[3]
    flipped = lines[row].replace(err_r, err_r.lstrip("-"))
    assert workloads.check_table_asin6(
        rc, "".join(lines[:row] + [flipped] + lines[row + 1:]), err)
    assert workloads.check_table_asin6(1, out, "quad: error: x\n")

    rc, out, err = run.run_op(workloads.PI_256)
    assert workloads.check_pi_256(rc, out, err) is None
    assert workloads.check_pi_256(
        rc, re.sub(r"digits_correct = \d+", "digits_correct = 18", out), err)

    rejected = workloads._check_rejected(2)
    assert rejected(2, "", "quad: domain error: sqrt\n") is None
    assert rejected(1, "", "quad: error: x\n")
    assert rejected(2, "", "Traceback (most recent call last):\n  x\n")


def test_host_speed_scales_each_stretch_by_its_probes():
    speed = run.HostSpeed()
    nominal = run.PROBE_NOMINAL_S
    speed.probes = [(0.0, 1.0, 2 * nominal), (5.0, 6.0, nominal),
                    (10.0, 11.0, 3 * nominal)]
    # 2..5 lies between probes of 2 and 1 nominal, 6..8 between 1 and 3;
    # the probe from 5 to 6 is cut out
    seconds, scaled = speed.scale(2.0, 8.0)
    assert seconds == pytest.approx(5.0)
    assert scaled == pytest.approx(3.0 / 1.5 + 2.0 / 2.0)
    assert speed.scale(6.5, 7.0) == pytest.approx((0.5, 0.25))


def test_host_speed_probes_inside_a_long_operation():
    argv = ("pi", "--example", "3", "--panels", "4096", "--prec", "256")
    with run.HostSpeed() as speed:
        start, end, result, exc = run.timed_op(
            workloads.Op(argv, workloads.check_pi_256))
    assert exc is None and workloads.check_pi_256(*result) is None
    inside = [p for p in speed.probes if start < p[0] < end]
    assert inside
    seconds, scaled = speed.scale(start, end)
    assert seconds == pytest.approx(
        end - start - sum(p[1] - p[0] for p in inside))
    assert scaled > 0
