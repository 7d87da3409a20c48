"""Convergence tables, order strings, degree probes and digit counting.

A convergence table has one row per panel count n.  Each row carries the
signed error (reference minus rule value, so positive means the rule
underestimates) of every active rule, the "order string" obtained by
concatenating the rule names sorted by ascending rule value, and the
sign-check verdicts for the companion pairs among the active rules.

The degree probe reads each rule's degree from ``RULES``, derived from
exact rational rule values on x^k, so it carries no tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_DOWN, ROUND_HALF_UP,
                     Context, Decimal)

from mpmath import mp

from .associate import COMPANION_PAIRS, check_assumption_A
from .composite import composite_values
from .expr import DifferentiationError, DomainError, Expression, eval_expr
from .precision import as_mpf, format_real, workprec
from .rules import RULE_ORDER, rule_meta, rule_names

#: extra bits used when materializing references and taking differences
GUARD_BITS = 32


@dataclass(frozen=True)
class Reference:
    """The exact value of an integral as a constant expression, which can
    be materialized at any precision.  Where a reference is accepted, a
    plain number is too."""

    expression: Expression

    def value_at(self, precision):
        return eval_expr(self.expression, None, precision)

    @classmethod
    def for_integrand(cls, f):
        return None if f.reference is None else cls(f.reference)


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


def convergence_table(f, rules=("L", "R", "M", "T", "S", "T2"),
                      n_list=(1, 2, 4, 8, 16, 32), precision=53):
    """One TableRow per panel count, ascending, on f's interval against
    f's reference.

    The sign-check verdicts are computed once per pair (they do not depend
    on n) and repeated on every row.  A row whose evaluation raises a
    domain error is kept, empty, with the diagnostic in ``note``.
    """
    names = rule_names(rules)
    reference = Reference.for_integrand(f)
    if reference is None:
        raise ValueError("no reference value: the integrand has none")
    n_list = list(n_list)
    if not n_list:
        raise ValueError("no panel counts")
    for n in n_list:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"panel counts must be integers >= 1, got {n!r}")
    n_list = sorted(set(n_list))

    flags = {f"{pair.positive.name},{pair.negative.name}":
             check_assumption_A(f, pair.derivative_order, precision).tag
             for pair in COMPANION_PAIRS
             if pair.positive.name in names and pair.negative.name in names}

    # materialized once, at the precision signed_error works at
    ref = reference.value_at(precision + GUARD_BITS)
    rows = []
    for n in n_list:
        try:
            values = composite_values(f, f.interval, names, n, precision)
        except (DomainError, DifferentiationError) as err:
            rows.append(TableRow(n, "", {}, dict(flags), note=str(err)))
            continue
        errors = {r: signed_error(values[r], ref, precision) for r in names}
        rows.append(TableRow(n, order_string(values), errors, dict(flags)))
    return rows


# ---------------------------------------------------------------------------
# exact-rational degree probe

def degree_probe(rule):
    """Degree of a rule: exact on x^k for all k <= degree over [0, 1], not
    exact on the next monomial."""
    return rule_meta(rule).degree


# ---------------------------------------------------------------------------
# digit counting

def digits_correct(value, reference, precision=53):
    """How many printed digits of ``value`` are correct.

    The count is the largest d such that ``value`` rounded to d
    significant decimal digits reproduces the first d digits of the
    reference (the reference's digit sequence is never rounded): printing
    ``value`` with that many digits shows only correct ones.  All digit
    arithmetic is exact.  ``precision`` (bits) caps the answer when the
    two values agree beyond what the significand can support; the
    reference is materialized with 64 extra bits.
    """
    cap = int(math.floor(precision * math.log10(2))) + 1
    value = as_mpf(value)
    ref = _reference_value(reference, precision + 64)

    if value == ref:
        return cap
    if (value > 0) != (ref > 0):  # a zero is handled by the digit test
        return 0

    v, r = _decimal_magnitude(value), _decimal_magnitude(ref)
    for d in _candidates(v, r, cap):
        if _to_digits(v, d, ROUND_HALF_UP) == _to_digits(r, d, ROUND_DOWN):
            return d
    return 0


def _candidates(v, r, cap):
    """The digit counts d <= cap, largest first, at which ``v`` rounded to
    d digits can equal the first d digits of ``r`` (both exact, >= 0).

    Write both with their leading digits aligned, and let them share their
    first k digits.  A d <= k matches only if rounding ``v`` there does not
    carry, that is if its digit d+1 is at most 4; only the largest such d
    needs trying.  A d > k matches only if the carry reaches digit k+1 and
    makes it r's: r's digit k+1 is one more than v's, and from digit k+2
    to digit d ``v`` has 9s and ``r`` has 0s.  The caller confirms each
    count by rounding, so at most a few are rounded.
    """
    top = max(v.adjusted(), r.adjusted())
    vs, rs = _aligned_digits(v, top), _aligned_digits(r, top)
    width = max(len(vs), len(rs)) + 1  # a trailing 0 ends every run
    vs, rs = vs.ljust(width, b"\0"), rs.ljust(width, b"\0")
    k = next(i for i in range(width) if vs[i] != rs[i])  # vs[i]: digit i+1
    if rs[k] == vs[k] + 1:
        carry = min(_run(vs[k + 1:], 9), _run(rs[k + 1:], 0))
        yield from range(min(k + 1 + carry, cap), k, -1)
    d = max(vs.rfind(bytes([digit]), 1, min(k, cap) + 1)
            for digit in range(5))
    if d > 0:
        yield d


def _run(digits, digit):
    """How many times ``digits`` (bytes) starts with ``digit`` in a row."""
    return len(digits) - len(digits.lstrip(bytes([digit])))


def _aligned_digits(x, top):
    """The decimal digits of ``x`` as bytes, the first one at 10^top."""
    _, digits, exp = x.as_tuple()
    return bytes(top - (exp + len(digits) - 1)) + bytes(digits)


def _to_digits(x, digits, rounding):
    """A Decimal rounded to ``digits`` significant digits, at any exponent."""
    return Context(prec=digits, rounding=rounding, Emin=MIN_EMIN,
                   Emax=MAX_EMAX).plus(x)


# a context that rounds nothing: scaleb in it only moves the exponent
_EXACT = Context(prec=MAX_PREC, Emin=MIN_EMIN, Emax=MAX_EMAX)


def _decimal_magnitude(x):
    """|x| as an exact Decimal, from its significand and exponent."""
    if not mp.isfinite(x):
        raise ValueError("cannot count the digits of a non-finite value")
    _, man, exp, _ = x._mpf_
    if exp >= 0:
        return Decimal(int(man) << exp)
    # man * 2^exp == (man * 5^-exp) * 10^exp; no decimal string is built,
    # so Python's integer-to-string digit limit never applies, and 5^-exp
    # is a Decimal power, as converting the product from int is quadratic
    return _EXACT.scaleb(_EXACT.multiply(Decimal(int(man)),
                                         _EXACT.power(5, -exp)), exp)


# ---------------------------------------------------------------------------
# table serialization (CSV and JSON); at the default 53-bit precision each
# error prints as text that reads back to the same value

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
