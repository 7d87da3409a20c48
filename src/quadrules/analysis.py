"""Convergence tables, order strings, degree probes and digit counting.

A convergence table has one row per panel count n.  Each row carries the
signed error (reference minus rule value, so positive means the rule
underestimates) of every active rule, the "order string" obtained by
concatenating the rule names sorted by ascending rule value, and the
sign-check verdicts for the companion pairs among the active rules.

The degree probe is exact: rule values on the monomials x^k over [0, 1]
are computed in rational arithmetic (all node positions and weights are
rational there), so exactness decisions carry no floating-point tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from .associate import COMPANION_PAIRS, check_assumption_A
from .composite import composite_values
from .expr import (DifferentiationError, DomainError, Expression,
                   constant_value)
from .precision import (as_mpf, format_real, parse_real, to_fraction,
                        workprec)
from .rules import (RULE_ORDER, needed_rules, rule_meta, rule_names,
                    rule_values)

#: extra bits used when materializing references and taking differences
GUARD_BITS = 32

CLOSED_FORM = "closed_form"
ORACLE = "oracle"


@dataclass(frozen=True)
class Reference:
    """An authoritative value for the integral.

    Closed-form references hold a constant expression and can be
    materialized at any precision; oracle references hold one number and
    record the precision (and panel count, if any) it was computed with.
    """

    provenance: str
    expression: Expression | None = None
    value: object = None
    precision: int | None = None
    panels: int | None = None

    @classmethod
    def closed_form(cls, expression):
        return cls(CLOSED_FORM, expression=expression)

    @classmethod
    def oracle(cls, value, precision, panels=None):
        return cls(ORACLE, value=as_mpf(value), precision=precision,
                   panels=panels)

    def value_at(self, precision):
        if self.provenance == CLOSED_FORM:
            with workprec(precision):
                return +constant_value(self.expression)
        return self.value

    @classmethod
    def for_integrand(cls, f):
        if getattr(f, "reference", None) is None:
            return None
        return cls.closed_form(f.reference)


def _reference_value(reference, precision):
    if isinstance(reference, Reference):
        return reference.value_at(precision)
    return as_mpf(reference)


def signed_error(value, reference, precision=53):
    """reference - value, differenced with guard bits, rounded to precision.

    Positive means the rule underestimates the integral.
    """
    with workprec(precision + GUARD_BITS):
        diff = _reference_value(reference, precision + GUARD_BITS) - value
    with workprec(precision):
        return +diff


def order_string(values):
    """Rule names concatenated by ascending value.

    Ties fall back to the canonical order L, R, M, T, S, T2, Q.  The
    string is unchanged by adding one constant to every value.
    """
    names = rule_names(tuple(values))
    if len(names) < 2:
        raise ValueError("order string needs at least two rules")
    return "".join(sorted(names,
                          key=lambda r: (values[r], RULE_ORDER.index(r))))


class UndefinedOrderError(ValueError):
    """Observed order is undefined because an error is exactly zero."""


def observed_order(err_n, err_2n):
    """Two-point convergence order log2(|err_n| / |err_2n|)."""
    if err_n == 0 or err_2n == 0:
        raise UndefinedOrderError(
            "observed order undefined: the rule is exact (zero error)")
    with mp.workprec(max(mp.prec, 53)):
        return mp.log(abs(as_mpf(err_n)) / abs(as_mpf(err_2n)), 2)


@dataclass
class TableRow:
    panels: int
    order: str
    errors: dict = field(default_factory=dict)    # rule name -> signed error
    assumptions: dict = field(default_factory=dict)  # "X,Y" -> verdict tag
    note: str | None = None                       # diagnostic for aborted rows


def convergence_table(f, interval=None, rules=("L", "R", "M", "T", "S", "T2"),
                      n_list=(1, 2, 4, 8, 16, 32), reference=None,
                      precision=53, samples=257):
    """One TableRow per panel count, ascending.

    ``interval`` and ``reference`` default to the integrand's own.  The
    sign-check verdicts are computed once per pair (they do not depend on
    n) and repeated on every row.  A row whose evaluation raises a domain
    error is kept, empty, with the diagnostic in ``note``.
    """
    names = rule_names(rules)
    interval = interval or f.interval
    if reference is None:
        reference = Reference.for_integrand(f)
    if reference is None:
        raise ValueError("no reference value: pass reference= explicitly")
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValueError("panel counts must be positive")

    flags = {}
    for pair in COMPANION_PAIRS:
        x_name, y_name = pair.positive.name, pair.negative.name
        if x_name in names and y_name in names:
            try:
                tag = check_assumption_A(
                    f, pair.derivative_order, interval,
                    samples=samples, precision=precision).tag
            except (DomainError, DifferentiationError):
                tag = "A?"
            flags[f"{x_name},{y_name}"] = tag

    rows = []
    for n in n_list:
        try:
            values = composite_values(f, interval, names, n, precision)
        except (DomainError, DifferentiationError) as err:
            rows.append(TableRow(n, "", {}, dict(flags), note=str(err)))
            continue
        errors = {r: signed_error(values[r], reference, precision)
                  for r in names}
        rows.append(TableRow(n, order_string(values), errors, dict(flags)))
    return rows


# ---------------------------------------------------------------------------
# exact-rational degree probe

def _monomial_rule_value(name, k):
    """Exact value of a rule on x^k over [0, 1] (all nodes are rational)."""
    xs = (Fraction(0), Fraction(1, 2), Fraction(1))

    def node(j, order):  # f = x^k, f'' = k (k-1) x^(k-2)
        x = xs[j]
        return k * (k - 1) * x ** (k - 2) if order else x ** k

    return rule_values(needed_rules((name,)), Fraction(1), node)[name]


@dataclass(frozen=True)
class DegreeProbe:
    rule: str
    degree: int
    at_least: bool  # True when no failing monomial was found up to the cap

    def __int__(self):
        return self.degree


def degree_probe(rule, max_k=8):
    """Empirical degree of a rule: exact on x^k for all k <= degree over
    [0, 1], not exact on the next monomial.

    Runs in exact rational arithmetic, so there is no tolerance.  When the
    rule is still exact at max_k + 1 the result carries at_least=True and
    degree == max_k.
    """
    name = rule_meta(rule).name
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    for k in range(max_k + 2):
        if _monomial_rule_value(name, k) != Fraction(1, k + 1):
            return DegreeProbe(name, k - 1, False)
    return DegreeProbe(name, max_k, True)


# ---------------------------------------------------------------------------
# digit counting

def digits_correct(value, reference, precision=None):
    """How many printed digits of ``value`` are correct.

    The count is the largest d such that ``value`` rounded to d
    significant decimal digits reproduces the first d digits of the
    reference (the reference's digit sequence is never rounded): printing
    ``value`` with that many digits shows only correct ones.  All digit
    arithmetic is exact.  ``precision`` (bits, default the ambient
    precision) caps the answer when the two values agree beyond what the
    significand can support; the reference is materialized with 64 extra
    bits.
    """
    if precision is None:
        precision = mp.prec
    cap = int(math.floor(precision * math.log10(2))) + 1
    value = as_mpf(value)
    ref = _reference_value(reference, precision + 64)

    if value == ref:
        return cap
    if value == 0 or ref == 0:
        return 0
    if (value > 0) != (ref > 0):
        return 0

    fv, fr = abs(to_fraction(value)), abs(to_fraction(ref))
    ev, er = _decimal_exponent(fv), _decimal_exponent(fr)
    for d in range(cap, 0, -1):
        scaled = fv * Fraction(10) ** (d - 1 - ev)
        digits, rem = divmod(scaled.numerator, scaled.denominator)
        if 2 * rem >= scaled.denominator:
            digits += 1
        ev_after = ev
        if digits == 10 ** d:  # rounding carried into a new leading digit
            digits //= 10
            ev_after += 1
        truncated = int(fr * Fraction(10) ** (d - 1 - er))
        if ev_after == er and digits == truncated:
            return d
    return 0


def _decimal_exponent(frac):
    """floor(log10(frac)) for a positive rational, exactly."""
    e = len(str(frac.numerator)) - len(str(frac.denominator))
    while Fraction(10) ** e > frac:
        e -= 1
    while Fraction(10) ** (e + 1) <= frac:
        e += 1
    return e


# ---------------------------------------------------------------------------
# table serialization (CSV and JSON); the CSV round-trips exactly at the
# default 53-bit precision, where shortest round-trip printing is used

def table_to_csv(rows, rules, precision=53):
    names = rule_names(rules)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "order", "assumptions"]
                    + [f"err_{r}" for r in names])
    for row in rows:
        flags = ";".join(f"{k}:{v}" for k, v in sorted(row.assumptions.items()))
        cells = [str(row.panels), row.order, flags]
        for r in names:
            err = row.errors.get(r)
            cells.append("" if err is None else format_real(err, precision))
        writer.writerow(cells)
    return out.getvalue()


def table_from_csv(text, precision=53):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header[:3] != ["n", "order", "assumptions"]:
        raise ValueError("not a convergence-table CSV")
    names = [h[len("err_"):] for h in header[3:]]
    rows = []
    for record in reader:
        if not record:
            continue
        flags = {}
        if record[2]:
            for item in record[2].split(";"):
                key, _, tag = item.rpartition(":")
                flags[key] = tag
        errors = {r: parse_real(cell, precision)
                  for r, cell in zip(names, record[3:]) if cell != ""}
        rows.append(TableRow(int(record[0]), record[1], errors, flags))
    return rows


def table_to_json(rows, rules, precision=53):
    names = rule_names(rules)
    payload = {
        "rules": list(names),
        "precision": precision,
        "rows": [
            {
                "n": row.panels,
                "order": row.order,
                "assumptions": dict(sorted(row.assumptions.items())),
                "errors": {r: format_real(row.errors[r], precision)
                           for r in names if r in row.errors},
                **({"note": row.note} if row.note else {}),
            }
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2)
