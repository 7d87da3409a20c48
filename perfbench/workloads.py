"""The benchmark's workloads: the `quad` requests each one sends and the
check each request's output must pass.

A workload is a function ``ops(seed)`` returning an endless iterator of
``Op`` objects, plus a few fixed settings.  ``Op.check(rc, out, err)``
returns None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Iterator


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Callable

    @property
    def label(self):
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int], Iterator[Op]]
    digest_ops: int   # the stdout digest covers this many leading ops
    trace_ops: int    # per-layer counters are taken over this many ops


# ---------------------------------------------------------------------------
# output parsing shared by the checks

def _lines(out):
    return out.splitlines()


def _field(out, prefix):
    """Text after ``prefix`` on the first line that starts with it."""
    for line in _lines(out):
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise ValueError(f"no line starting with {prefix!r}")


def _finite(text):
    if not math.isfinite(float(text)):
        raise ValueError(f"non-finite value {text!r}")


def _checked(fn):
    """Turn a check that raises or returns a reason into one that returns."""
    def check(rc, out, err):
        try:
            return fn(rc, out, err)
        except (ValueError, KeyError, IndexError, TypeError,
                StopIteration) as exc:
            return f"unparsable output: {exc}"
    return check


def _expect_success(rc, err):
    if rc != 0:
        return f"exit {rc}: {err.strip()}"
    if err:
        return f"unexpected stderr: {err.strip()}"
    return None


# ---------------------------------------------------------------------------
# table-asin6: the north-star convergence table

TABLE_ASIN6 = ("table", "--integrand", "asin6", "--panels", "2^0..2^10")
_COMPANIONS = (("L", "R"), ("M", "T"), ("T2", "S"))


@_checked
def check_table_asin6(rc, out, err):
    bad = _expect_success(rc, err)
    if bad:
        return bad
    flags = _field(out, "assumption checks:").split()
    if flags != ["(L,R)=A+", "(M,T)=A+", "(T2,S)=A+"]:
        return f"assumption flags {flags}"
    lines = _lines(out)
    header = next(i for i, line in enumerate(lines)
                  if line.split()[:2] == ["n", "order"])
    names = [h[len("err_"):] for h in lines[header].split()[2:]]
    rows = [line.split() for line in lines[header + 1:] if line.strip()]
    if [int(r[0]) for r in rows] != [2 ** k for k in range(11)]:
        return f"panel counts {[r[0] for r in rows]}"
    for row in rows:
        if row[1] != "LMT2STR":
            return f"n={row[0]}: order {row[1]}"
        errors = dict(zip(names, (float(v) for v in row[2:])))
        for pos, neg in _COMPANIONS:
            if not errors[pos] > 0 > errors[neg]:
                return f"n={row[0]}: ({pos},{neg}) does not bracket pi"
    return None


def table_asin6_ops(seed):
    op = Op(TABLE_ASIN6, check_table_asin6)
    while True:
        yield op


# ---------------------------------------------------------------------------
# pi-256: Simpson at 1024 panels and 256 bits

PI_256 = ("pi", "--example", "3", "--panels", "1024", "--prec", "256")
PAPER_DIGITS = 19  # the paper's claim for this request


@_checked
def check_pi_256(rc, out, err):
    bad = _expect_success(rc, err)
    if bad:
        return bad
    _finite(_field(out, "value ="))
    digits = int(_field(out, "digits_correct ="))
    if digits < PAPER_DIGITS:
        return f"digits_correct = {digits} < {PAPER_DIGITS}"
    return None


def pi_256_ops(seed):
    op = Op(PI_256, check_pi_256)
    while True:
        yield op


# ---------------------------------------------------------------------------
# mixed-requests: a seeded stream of short requests with fresh expressions

RULES = ("L", "R", "M", "T", "S", "T2", "Q")
DEGREES = {"L": 0, "R": 0, "M": 1, "T": 1, "S": 3, "T2": 3, "Q": 5}
PRECISIONS = (53, 113, 256)
FORMATS = ("text", "csv", "json")
BUILTINS = ("sin2", "asin6", "atan2")
UNKNOWN_RULES = ("Z", "W", "X9", "LL", "S3")

# (requests per block of 100, kind).  Each block holds exactly these
# counts in a seeded order, so the mix does not vary from run to run.
MIX = (
    (64, "integrate"),
    (12, "bracket"),
    (12, "degree"),
    (4, "pi"),
    (3, "table"),
    (3, "domain_error"),
    (2, "unknown_rule"),
)


def _coef(rng, lo=0.5, hi=3.0):
    return f"{rng.uniform(lo, hi):.3f}"


def _term(rng):
    """One smooth term, defined with all its derivatives on the real line."""
    kind = rng.randrange(6)
    if kind == 0:
        return f"{_coef(rng)}*x^{rng.randint(1, 4)}"
    if kind == 1:
        return f"sin({_coef(rng)}*x)"
    if kind == 2:
        return f"cos({_coef(rng)}*x+{_coef(rng, 0, 2)})"
    if kind == 3:
        return f"sqrt({_coef(rng)}+x^2)"
    if kind == 4:
        return f"{_coef(rng)}/({_coef(rng)}+x^2)"
    return f"{_coef(rng)}*x*cos({_coef(rng)}*x)"


def random_expression(rng):
    terms = [_term(rng) for _ in range(rng.randint(1, 3))]
    if len(terms) >= 2 and rng.random() < 0.25:
        return f"({terms[0]})*({' + '.join(terms[1:])})"
    text = terms[0]
    for t in terms[1:]:
        text += rng.choice((" + ", " - ")) + t
    return text


def _interval(rng):
    a = Decimal(rng.choice(("0", "-1", "0.5", "-0.25", "1")))
    b = a + Decimal(rng.choice(("0.5", "1", "2", "1.5")))
    return str(a), str(b)


def _panels(rng, top=8):
    return int(2 ** rng.uniform(0, top))


def _json_or_text(fmt, out, key, prefix):
    if fmt == "json":
        return json.loads(out)[key]
    return _field(out, prefix)


def _check_integrate(fmt):
    @_checked
    def check(rc, out, err):
        bad = _expect_success(rc, err)
        if bad:
            return bad
        _finite(_json_or_text(fmt, out, "value", "value ="))
        return None
    return check


def _check_bracket(fmt):
    @_checked
    def check(rc, out, err):
        bad = _expect_success(rc, err)
        if bad:
            return bad
        if fmt == "json":
            payload = json.loads(out)
            lo, hi = payload["bracket"]
            assoc = payload["associate"]
        else:
            lo, hi = _field(out, "bracket = ").strip("[]").split(", ")
            assoc = _field(out, "associate (weights").split(" = ")[1]
        for v in (lo, hi, assoc):
            _finite(v)
        if not Decimal(lo) <= Decimal(assoc) <= Decimal(hi):
            return f"associate {assoc} outside [{lo}, {hi}]"
        return None
    return check


def _check_degree(rule, fmt):
    @_checked
    def check(rc, out, err):
        bad = _expect_success(rc, err)
        if bad:
            return bad
        if fmt == "json":
            payload = json.loads(out)
            degree, at_least = payload["degree"], payload["at_least"]
        else:
            words = _field(out, f"rule {rule}: degree").split()
            degree, at_least = int(words[0]), len(words) > 1
        if (degree, at_least) != (DEGREES[rule], False):
            return f"degree of {rule} is {degree} (at least: {at_least})"
        return None
    return check


def _check_pi(fmt):
    @_checked
    def check(rc, out, err):
        bad = _expect_success(rc, err)
        if bad:
            return bad
        _finite(_json_or_text(fmt, out, "value", "value ="))
        digits = int(_json_or_text(fmt, out, "digits_correct",
                                   "digits_correct ="))
        return None if digits >= 0 else f"digits_correct = {digits}"
    return check


def _check_table(rules, n_rows, fmt):
    @_checked
    def check(rc, out, err):
        bad = _expect_success(rc, err)
        if bad:
            return bad
        if fmt == "json":
            rows = [(row["order"], list(row["errors"].values()))
                    for row in json.loads(out)["rows"]]
        elif fmt == "csv":
            records = list(csv.reader(io.StringIO(out)))[1:]
            rows = [(r[1], r[3:]) for r in records]
        else:
            lines = _lines(out)
            start = next(i for i, line in enumerate(lines)
                         if line.split()[:2] == ["n", "order"]) + 1
            rows = [(line.split()[1], line.split()[2:])
                    for line in lines[start:] if line.strip()]
        if len(rows) != n_rows:
            return f"{len(rows)} table rows, expected {n_rows}"
        for order, errors in rows:
            if sorted(order) != sorted("".join(rules)) or \
                    len(errors) != len(rules):
                return f"malformed row: {order} {errors}"
            for v in errors:
                _finite(v)
        return None
    return check


def _check_rejected(expected_rc):
    def check(rc, out, err):
        if rc != expected_rc:
            return f"exit {rc}, expected {expected_rc}"
        if out:
            return "rejected request wrote to stdout"
        lines = err.splitlines()
        if len(lines) != 1 or not lines[0].startswith("quad: ") or \
                "Traceback" in err:
            return f"diagnostic is not one line: {err!r}"
        return None
    return check


def _request(rng, kind):
    prec = str(rng.choice(PRECISIONS))
    fmt = rng.choice(FORMATS)
    common = ("--prec", prec, "--format", fmt)
    if kind == "integrate":
        a, b = _interval(rng)
        argv = ("integrate", "--integrand", random_expression(rng),
                f"--a={a}", f"--b={b}", "--rule", rng.choice(RULES),
                "--panels", str(_panels(rng))) + common
        return Op(argv, _check_integrate(fmt))
    if kind == "bracket":
        a, b = _interval(rng)
        argv = ("bracket", "--integrand", random_expression(rng),
                f"--a={a}", f"--b={b}", "--pair", rng.choice(("L,R", "M,T")),
                "--panels", str(_panels(rng, 6))) + common
        return Op(argv, _check_bracket(fmt))
    if kind == "degree":
        rule = rng.choice(RULES)
        return Op(("degree", "--rule", rule) + common,
                  _check_degree(rule, fmt))
    if kind == "pi":
        argv = ("pi", "--example", str(rng.randint(1, 3)), "--rule",
                rng.choice(RULES), "--panels", str(rng.randint(1, 16))) \
            + common
        return Op(argv, _check_pi(fmt))
    if kind == "table":
        rules = ("L", "R", "M", "T")
        argv = ("table", "--integrand", rng.choice(BUILTINS), "--rules",
                ",".join(rules), "--panels", "2^0..2^5") + common
        return Op(argv, _check_table(rules, 6, fmt))
    if kind == "domain_error":
        a, b = _interval(rng)
        shift = Decimal(b) + Decimal(_coef(rng, 0.1, 2))
        argv = ("integrate", "--integrand", f"sqrt(x - {shift})",
                f"--a={a}", f"--b={b}", "--rule", rng.choice(RULES),
                "--panels", str(_panels(rng))) + common
        return Op(argv, _check_rejected(2))
    argv = ("integrate", "--integrand", random_expression(rng), "--a=0",
            "--b=1", "--rule", rng.choice(UNKNOWN_RULES)) + common
    return Op(argv, _check_rejected(1))


def mixed_requests_ops(seed):
    rng = random.Random(seed)
    block = [kind for count, kind in MIX for _ in range(count)]
    while True:
        rng.shuffle(block)
        for kind in block:
            yield _request(rng, kind)


# Small requests run before timing starts, so module imports, mpmath's
# constant caches and the interpreter's own caches are warm.
WARMUP = (
    ("table", "--integrand", "asin6", "--rules", "L,R,M,T", "--panels",
     "1,2"),
    ("pi", "--example", "3", "--panels", "8", "--prec", "256"),
    ("bracket", "--integrand", "sin(x)", "--a=0", "--b=1", "--pair", "M,T",
     "--prec", "113", "--format", "json"),
    ("degree", "--rule", "Q", "--format", "csv"),
)

# Reasons for each workload are in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("table-asin6", table_asin6_ops, digest_ops=1, trace_ops=1),
        Workload("pi-256", pi_256_ops, digest_ops=10, trace_ops=5),
        Workload("mixed-requests", mixed_requests_ops, digest_ops=200,
                 trace_ops=200),
    )
}
