"""Acceptance suite: eight criteria, one PASS/FAIL line each.

Run ``pytest -s tests/test_acceptance.py`` to see every line; without -s
the lines still appear for failing criteria.

Criterion 5 checks the (T2_n, M_n) opposite-sign window quoted for
2/(1+x^2) on the legacy width-squared corrected midpoint, the variant it
belongs to, computed by an oracle.  The package's T2 is the order-4
width-cubed rule (criteria 3, 4 and 7 pin it), so for that rule the
criterion records the discrepancy instead: its error has M's sign and is
smaller, as criterion 7 records the quoted degrees of R and Q.
"""

import random
import time
from fractions import Fraction

from mpmath import mp, mpf

from quadrules.analysis import degree_probe
from quadrules.associate import associate_value, bracket, derive_weights
from quadrules.composite import composite_values
from quadrules.expr import differentiate, eval_expr
from quadrules.integrand import Integrand, builtin_integrand
from quadrules.precision import pi_at, ulp, workprec
from quadrules.rules import Interval, QUOTED_DEGREES, RULES, simple_rule_values

from oracles import (central_diff, composite_value, legacy_t2_composite,
                     mpf_from_fraction, random_poly_tree, simple_value)

SIX = ("L", "R", "M", "T", "S", "T2")
SWEEP = tuple(2 ** k for k in range(0, 11))  # 1 .. 1024


def _report(number, description, failures, elapsed=None):
    status = "PASS" if not failures else "FAIL"
    timing = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\ncriterion {number}: {status} - {description}{timing}")
    for item in failures:
        print(f"    {item}")
    assert not failures, f"criterion {number} ({description}): {failures}"


def test_criterion_1_example_1_exactness():
    start = time.perf_counter()
    failures = []
    f = builtin_integrand("sin2")
    tol = 4 * ulp(pi_at(53), 53)
    pi_ref = pi_at(85)

    values = composite_values(f, f.interval, SIX, 2, 53)
    for name in ("L", "R", "M", "T", "T2", "S"):
        if not abs(values[name] - pi_ref) <= tol:
            failures.append(f"composite {name} at n=2 missed pi: "
                            f"{values[name]}")

    simple_s = simple_value("S", f, 53)
    with workprec(53):
        a, b = f.interval.bounds()
        chain = simple_rule_values(f, a, b, ("M", "T"))
        closed = (2 * chain["M"] + chain["T"]) / 3
    if not abs(simple_s - closed) <= 4 * ulp(closed, 53):
        failures.append(f"simple S {simple_s} != weighted mean {closed}")
    if not abs(simple_s - pi_ref) > 1000 * tol:
        failures.append("simple S unexpectedly equals pi")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "Example 1 exactness at n=2; simple S is the weighted mean",
            failures, elapsed)


def test_criterion_2_weight_derivation():
    failures = []
    cases = {
        ("L", "R"): (1, 1),
        ("M", "T"): (2, 1),
        ("T2", "S"): (2, 3),
    }
    for (pos, neg), expected in cases.items():
        w = derive_weights(RULES[pos].error_denominator,
                           RULES[neg].error_denominator)
        if (w.c1, w.c2) != expected:
            failures.append(f"({pos},{neg}) gave ({w.c1},{w.c2}), "
                            f"wanted {expected}")
    _report(2, "gcd weight derivation for the three companion pairs",
            failures)


def test_criterion_3_example_2_bracketing_and_limits():
    start = time.perf_counter()
    failures = []
    f = builtin_integrand("asin6")

    # difference law at the default precision, where ulp tolerances live
    with workprec(85):
        gap_full = 4 * mp.sqrt(3) - 6
    pi53_ref = pi_at(85)
    for n in SWEEP:
        vals = composite_values(f, f.interval, ("L", "R"), n, 53)
        if not vals["L"] <= pi53_ref <= vals["R"]:
            failures.append(f"53-bit bracket failed at n={n}")
        diff = vals["R"] - vals["L"]
        tol = 4 * ulp(max(abs(vals["L"]), abs(vals["R"])), 53)
        if not abs(diff - gap_full / (2 * n)) <= tol:
            failures.append(f"difference law off at n={n}: {diff}")

    # monotonicity and the S-vs-T2 comparison need headroom below the
    # 53-bit evaluation noise floor (the true gaps reach ~1e-15 at n=1024),
    # so they are checked at 128 bits
    pi128_ref = pi_at(192)
    previous = None
    for n in SWEEP:
        vals = composite_values(f, f.interval, SIX, n, 128)
        errors = {name: pi128_ref - vals[name] for name in SIX}
        if not vals["L"] <= pi128_ref <= vals["R"]:
            failures.append(f"128-bit bracket failed at n={n}")
        if previous is not None:
            for name in SIX:
                if not abs(errors[name]) < abs(previous[name]):
                    failures.append(f"|err {name}| not shrinking at n={n}")
        if not abs(errors["S"]) < abs(errors["T2"]):
            failures.append(f"|err S| >= |err T2| at n={n}")
        previous = errors

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(3, "Example 2 brackets, difference law, monotone columns, "
               "S beats T2", failures, elapsed)


def test_criterion_4_observed_orders():
    start = time.perf_counter()
    failures = []
    f = builtin_integrand("asin6")
    reference = pi_at(224)
    targets = {"L": 1, "R": 1, "M": 2, "T": 2, "S": 4, "T2": 4}
    v128 = composite_values(f, f.interval, SIX, 128, 128)
    v256 = composite_values(f, f.interval, SIX, 256, 128)
    for name, want in targets.items():
        err_n = reference - v128[name]
        err_2n = reference - v256[name]
        order = float(mp.log(abs(err_n) / abs(err_2n), 2))
        if not abs(order - want) <= 0.1:
            failures.append(f"{name}: observed order {order:.4f}, "
                            f"wanted {want} +- 0.1")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(4, "two-point orders at n=128->256 on Example 2",
            failures, elapsed)


def test_criterion_5_example_3_sign_windows():
    start = time.perf_counter()
    failures = []
    f = builtin_integrand("atan2")
    reference = pi_at(192)

    for n in (1, 2, 4):
        vals = composite_values(f, f.interval, ("L", "M"), n, 128)
        err_l = reference - vals["L"]
        err_m = reference - vals["M"]
        if not (err_l > 0 > err_m or err_m > 0 > err_l):
            failures.append(f"(L, M) errors share a sign at n={n}")

    # the quoted (T2, M) window, on the width-squared variant it belongs to;
    # then the recorded discrepancy for the package's order-4 T2, through
    # both its composite path and its simple rule applied per panel
    with workprec(128):
        a, b = f.interval.bounds()
        for n in (8, 16, 32):
            vals = composite_values(f, f.interval, ("T2", "M"), n, 128)
            err_m = reference - vals["M"]
            err_legacy = reference - legacy_t2_composite(
                f.eval_at, lambda x: f.derivative_at(x, 2), a, b, n)
            if not (err_legacy > 0 > err_m or err_m > 0 > err_legacy):
                failures.append(
                    f"(T2, M) errors share a sign at n={n} for the "
                    f"width-squared variant (err T2 = "
                    f"{mp.nstr(err_legacy, 4)}, err M = {mp.nstr(err_m, 4)})")

            h = (b - a) / n
            simple_t2 = sum(simple_rule_values(f, a + i * h, a + (i + 1) * h,
                                               ("T2",))["T2"]
                            for i in range(n))
            for path, value in (("composite", vals["T2"]),
                                ("simple", simple_t2)):
                err_t2 = reference - value
                if not (err_t2 * err_m > 0 and abs(err_t2) < abs(err_m)):
                    failures.append(
                        f"{path} T2 at n={n}: err T2 = "
                        f"{mp.nstr(err_t2, 4)}, err M = {mp.nstr(err_m, 4)};"
                        f" the order-4 rule should keep M's sign with a "
                        f"smaller error")

    elapsed = time.perf_counter() - start
    if elapsed >= 2.0:
        failures.append(f"runtime {elapsed:.2f}s >= 2s")
    _report(5, "Example 3 sign windows: (L,M) at n in {1,2,4}; quoted (T2,M) "
               "at n in {8,16,32} on the width-squared variant, with the "
               "order-4 T2 discrepancy recorded", failures, elapsed)


def test_criterion_6_example_3_digit_claim(capsys=None):
    start = time.perf_counter()
    failures = []
    from quadrules.analysis import Reference, digits_correct
    f = builtin_integrand("atan2")
    value = composite_value("S", f, 1024, 256)
    digits = digits_correct(value, Reference.for_integrand(f), precision=256)
    if digits < 19:
        failures.append(f"only {digits} digits correct, wanted >= 19")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _report(6, "Simpson with 1024 panels at 256 bits matches pi to >= 19 "
               "digits", failures, elapsed)


def test_criterion_7_degree_probes():
    start = time.perf_counter()
    failures = []
    expected = {"L": 0, "M": 1, "T": 1, "S": 3, "T2": 3, "R": 0, "Q": 5}
    for name, want in expected.items():
        probe = degree_probe(name, 8)
        if probe.degree != want or probe.at_least:
            failures.append(f"{name}: probe gave {probe}, wanted {want}")
    # R and Q must come with a recorded discrepancy against the quoted table
    for name, quoted in (("R", 1), ("Q", 3)):
        if QUOTED_DEGREES[name] != quoted:
            failures.append(f"quoted degree for {name} is not {quoted}")
        if degree_probe(name, 8).degree == QUOTED_DEGREES[name]:
            failures.append(f"{name}: no discrepancy to report")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(7, "exact degree probes match, with R and Q discrepancy notes",
            failures, elapsed)


def test_criterion_8_property_suites():
    start = time.perf_counter()
    failures = []

    # monomial exactness up to each rule's metadata degree
    prec = 256
    for name, spec in RULES.items():
        for k in range(spec.degree + 1):
            f = Integrand.from_text(f"x^{k}" if k != 1 else "x", 0, 1)
            v = simple_value(name, f, precision=prec)
            exact = mpf_from_fraction(Fraction(1, k + 1), prec + 32)
            if not abs(v - exact) <= abs(exact) * mpf(2) ** (8 - prec):
                failures.append(f"{name} inexact on x^{k}")

    # associate containment for 100 random polynomial integrands
    rng = random.Random(8811)
    pairs = ((("M", "T"), (24, 12)), (("L", "R"), (2, 2)),
             (("T2", "S"), (1920, 2880)))
    for _ in range(100):
        tree, _ = random_poly_tree(rng)
        a = rng.randint(-4, 3)
        f = Integrand(tree, Interval(a, a + rng.randint(1, 4)))
        with workprec(53):
            lo, hi = f.interval.bounds()
            values = simple_rule_values(f, lo, hi, SIX)
        for (x_name, y_name), (d1, d2) in pairs:
            x, y = values[x_name], values[y_name]
            v = associate_value(x, y, derive_weights(d1, d2))
            if not bracket(x, y).contains(v):
                failures.append(f"associate of ({x_name},{y_name}) escaped "
                                f"its bracket on {tree}")

    # composite/associate commutation at every tested panel count
    f = builtin_integrand("asin6")
    for n in (1, 2, 3, 7, 16, 100):
        vals = composite_values(f, f.interval, ("M", "T", "S"), n, 53)
        mean = (2 * vals["M"] + vals["T"]) / 3
        scale = max(abs(vals["M"]), abs(vals["T"]))
        if not abs(vals["S"] - mean) <= 16 * ulp(scale, 53):
            failures.append(f"S != (2M+T)/3 at n={n}")

    # symbolic versus finite-difference derivatives on 1000 random trees
    rng = random.Random(90210)
    for _ in range(1000):
        tree, _ = random_poly_tree(rng)
        deriv = differentiate(tree)
        x = mpf(rng.uniform(-1.0, 1.0))
        sym = eval_expr(deriv, x)
        with workprec(53):
            fd = central_diff(lambda t: eval_expr(tree, t), x, mpf("1e-5"))
        if not abs(sym - fd) <= 1e-5 * (1 + abs(sym)):
            failures.append(f"derivative mismatch on {tree} at x={x}")
            break

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s >= 30s")
    _report(8, "exactness, containment, commutation and derivative "
               "property suites", failures, elapsed)
