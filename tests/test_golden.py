"""Golden outputs: CLI bytes and exact rule values, pinned bit for bit.

``golden.json`` holds, for fixed inputs, the exit code, stdout and stderr
of ``quad`` invocations across every subcommand and output format, the
exact ``_mpf_`` tuples of simple and composite rule values, the exact
rational values behind the degree probe, and the stdout of every demo
(checked by ``tests/test_demos.py``).  A refactor must reproduce every
entry.  After an intended change of output, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

which first prints ``section: key`` for every entry whose value changes.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from quadrules.rules import _monomial_rule_value
from quadrules.cli import main
from quadrules.composite import composite_values
from quadrules.integrand import BUILTIN_NAMES, Integrand, builtin_integrand
from quadrules.precision import workprec
from quadrules.rules import RULE_ORDER, simple_rule_values
from test_demos import demo_outputs

GOLDEN = Path(__file__).with_name("golden.json")

CLI_CASES = [
    ("integrate", "--integrand", "sin2", "--rule", "M", "--panels", "2"),
    ("integrate", "--integrand", "asin6", "--rule", "T2", "--panels", "16",
     "--prec", "256", "--format", "json"),
    ("integrate", "--integrand", "x^3*cos(x) + 1/(2+x)", "--a", "0.1",
     "--b", "0.7", "--rule", "Q", "--panels", "7"),
    ("integrate", "--integrand", "atan2", "--rule", "T", "--panels", "3",
     "--format", "csv"),
    ("bracket", "--integrand", "asin6", "--pair", "L,R", "--panels", "8"),
    ("bracket", "--integrand", "atan2", "--pair", "M,T", "--panels", "4",
     "--prec", "256", "--format", "json"),
    ("bracket", "--integrand", "sin2", "--pair", "M,S", "--panels", "3",
     "--format", "csv"),
    ("table", "--integrand", "asin6", "--rules", "L,R,M,T",
     "--panels", "1,2,4", "--format", "csv"),
    ("table", "--integrand", "atan2", "--rules", "L,R,M,T,S,T2,Q",
     "--panels", "2^0..2^3", "--prec", "256", "--format", "json"),
    ("table", "--integrand", "sin2", "--rules", "M,T,S", "--panels", "1,2,5"),
    ("degree", "--rule", "Q"),
    ("degree", "--rule", "R", "--format", "json"),
    ("degree", "--rule", "T2", "--max", "3", "--format", "csv"),
    ("pi", "--example", "3", "--panels", "1024", "--prec", "256",
     "--format", "json"),
    ("pi", "--example", "1"),
    ("pi", "--example", "2", "--rule", "T", "--panels", "64",
     "--format", "csv"),
    ("integrate", "--integrand", "sin2", "--rule", "XYZ"),
    ("integrate", "--integrand", "1/x", "--a", "-1", "--b", "1",
     "--rule", "M"),
    ("integrate", "--integrand", "sqrt(x - 1)", "--a", "0", "--b", "2",
     "--rule", "S", "--panels", "2", "--format", "json"),
    ("integrate", "--integrand", "x^2", "--a", "0", "--b", "1", "--rule", "T",
     "--panels", "3", "--format", "json"),
    ("bracket", "--integrand", "sin2", "--pair", "L,M", "--panels", "2",
     "--format", "json"),
    ("bracket", "--integrand", "x^3 + 1", "--a", "0", "--b", "2",
     "--pair", "M,T", "--panels", "4", "--format", "json"),
    ("bracket", "--integrand", "atan2", "--pair", "T2,S", "--panels", "4"),
    ("degree", "--rule", "Q", "--max", "3", "--format", "json"),
    ("degree", "--rule", "S", "--format", "json"),
    ("table", "--integrand", "sin2", "--rules", "L,M", "--panels", "1,2"),
]

VALUE_PRECISIONS = (53, 256)
VALUE_PANELS = (1, 2, 3, 7, 16)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _exact(value):
    sign, man, exp, bc = value._mpf_
    return [sign, int(man), exp, bc]


def _value_cases():
    """Each value entry's key and its (integrand, precision, panels); panels
    None is the simple rule on the whole interval."""
    cases = {}
    for name in (*BUILTIN_NAMES, "user"):
        for prec in VALUE_PRECISIONS:
            cases[f"simple {name} {prec}"] = (name, prec, None)
            for n in VALUE_PANELS:
                cases[f"composite {name} {prec} {n}"] = (name, prec, n)
    return cases


VALUE_CASES = _value_cases()


def rule_value_entry(name, prec, panels):
    """Exact simple or composite values of all seven rules.

    The integrands are the built-ins and one off-centre user interval,
    ``"user"``, where (a+b)/2 and a + h/2 round differently.
    """
    if name == "user":
        f = Integrand.from_text("x^3*cos(x) + 1/(2+x)", "0.1", "0.7")
    else:
        f = builtin_integrand(name)
    if panels is None:
        with workprec(prec):
            a, b = f.interval.bounds()
            values = simple_rule_values(f, a, b, RULE_ORDER)
    else:
        values = composite_values(f, f.interval, RULE_ORDER, panels, prec)
    return {r: _exact(v) for r, v in values.items()}


def monomial_values():
    """Exact rule values on x^k over [0, 1], as the degree probe sees them."""
    return {f"{r} x^{k}": str(_monomial_rule_value(r, k))
            for r in RULE_ORDER for k in range(10)}


def record():
    return {"cli": {" ".join(argv): run_cli(argv) for argv in CLI_CASES},
            "demos": demo_outputs(),
            "values": {key: rule_value_entry(*case)
                       for key, case in VALUE_CASES.items()},
            "monomials": monomial_values()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", CLI_CASES, ids=" ".join)
def test_cli_output_bytes(golden, argv):
    assert run_cli(argv) == golden["cli"][" ".join(argv)]


@pytest.mark.parametrize("key", VALUE_CASES)
def test_rule_values_are_bit_identical(golden, key):
    assert rule_value_entry(*VALUE_CASES[key]) == golden["values"][key]


def test_monomial_values_are_exact(golden):
    assert monomial_values() == golden["monomials"]


def drifted(old, new):
    """``section: key`` for every entry whose recorded value changes."""
    return [f"{section}: {key}" for section in sorted(new)
            for key in sorted(set(old.get(section, {})) | set(new[section]))
            if old.get(section, {}).get(key) != new[section].get(key)]


if __name__ == "__main__":
    new = record()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for line in drifted(old, new):
        print(line)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
