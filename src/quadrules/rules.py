"""The seven simple quadrature rules and their signed error laws.

Every rule approximates the integral of f over one interval [a, b] from a
few evaluations of f (and, for T2 and Q, of f'') at the endpoints and the
midpoint.  A rule of degree m is exact on polynomials of degree <= m,
and its error, integral minus rule, is sign * (b-a)^(m+2) f^(m+1)(xi) / d
for some xi in [a, b], with a fixed sign and integer denominator d:

    name  degree  error sign  d       value
    L     0       +           2       (b-a) f(a)
    R     0       -           2       (b-a) f(b)
    M     1       +           24      (b-a) f((a+b)/2)
    T     1       -           12      (b-a)/2 (f(a) + f(b))
    S     3       -           2880    (2 M + T) / 3
    T2    3       +           1920    M + (b-a)^3/24 f''((a+b)/2)
    Q     5       -           806400  (2 T2 + 3 S) / 5

Each rule is one entry of the formula table ``_FORMULAS``; S, T2 and Q
read M, T, T2 and S from it rather than expanded node formulas (the
endpoint Simpson form (b-a)/6 (f(a) + 4 f(mid) + f(b)) is kept to the
test suite as a cross-check).  ``rule_values`` fetches the nodes the
requested rules reach, each once, and evaluates them in any number type:
``simple_rule_values`` calls it on one interval, the composite once on
node sums over all panels, and ``RULES`` with exact rationals.

``RULES`` is derived from the table at import (see ``_derive_law``), and
the test suite proves each law from the rule's Peano kernel.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import mpf_lt

from .expr import DomainError, Expression, Num, Tape, parse
from .precision import MAX_BITS, workprec

# One entry per rule, in display order: a formula of the width w, of node
# values f(j, order) (see ``rule_values``) and of other rules' values
# v(name).
_FORMULAS = {
    "L": lambda w, f, v: w * f(0, 0),
    "R": lambda w, f, v: w * f(2, 0),
    "M": lambda w, f, v: w * f(1, 0),
    "T": lambda w, f, v: w / 2 * (f(0, 0) + f(2, 0)),
    "S": lambda w, f, v: (2 * v("M") + v("T")) / 3,
    "T2": lambda w, f, v: v("M") + w ** 3 / 24 * f(1, 2),
    "Q": lambda w, f, v: (2 * v("T2") + 3 * v("S")) / 5,
}

RULE_ORDER = tuple(_FORMULAS)

POSITIVE, NEGATIVE = "positive", "negative"


@dataclass(frozen=True)
class RuleSpec:
    """Identity and error law of one simple rule."""

    name: str
    degree: int             # exact up to this polynomial degree, not above
    error_sign: str         # sign of integral - rule when f^(degree+1) > 0
    error_denominator: int  # d in the error law


# Degrees as commonly quoted in rule summaries.  R and Q disagree with the
# exact probe (0 and 5); `quad degree` prints a note when they differ.
QUOTED_DEGREES = {"L": 0, "R": 1, "M": 1, "T": 1, "S": 3, "T2": 3, "Q": 3}


class UnknownRuleError(ValueError):
    def __init__(self, name):
        known = ", ".join(RULE_ORDER)
        super().__init__(f"unknown rule {name!r} (known rules: {known})")


def rule_meta(name):
    """The derived RuleSpec for a rule name."""
    try:
        return RULES[name]
    except KeyError:
        raise UnknownRuleError(name) from None


def rule_names(rules):
    """Normalize a rule name or an iterable of names to a tuple of names."""
    if isinstance(rules, str):
        rules = [rules]
    return tuple(rule_meta(r).name for r in rules)


@dataclass(frozen=True)
class Interval:
    """An integration interval with a < b strictly.

    Endpoints are stored as constant expressions (ints, decimal strings and
    parsed text are coerced), so they can be materialized exactly at any
    working precision; ``bounds()`` evaluates them at the ambient one.
    Rounding keeps the order of two values, so endpoints that round apart
    at some precision are ordered there: the constructor compares them at
    64 bits and, while they round equal, at twice as many up to
    ``MAX_BITS``.  Endpoints that still round equal are rejected, and
    ``bounds()`` refuses a precision at which they do.
    """

    a: Expression
    b: Expression

    def __init__(self, a, b):
        (a, a_tape), (b, b_tape) = _as_constant(a), _as_constant(b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        # the endpoint tapes, compiled once; not fields, so == and repr
        # ignore them
        object.__setattr__(self, "_tapes", (a_tape, b_tape))
        bits = 64
        while True:
            with workprec(bits):
                lo, hi = a_tape.run(None), b_tape.run(None)
            if lo < hi:
                return
            if lo > hi or bits >= MAX_BITS:
                break
            bits *= 2
        equal = "" if lo > hi else f", equal to {bits} bits"
        raise ValueError(f"interval requires a < b, got {self}{equal}")

    def bounds(self):
        """The endpoints at the ambient precision, as mpfs.  Raises
        DomainError where they round to a >= b."""
        a, b = (tape._run(None) for tape in self._tapes)
        if not mpf_lt(a, b):
            raise DomainError(f"the endpoints of {self} round to a >= b at "
                              f"{mp.prec}-bit precision")
        return mp.make_mpf(a), mp.make_mpf(b)

    def __str__(self):
        return f"[{self.a}, {self.b}]"


def _as_constant(value):
    """The endpoint ``value`` as a constant expression, with its tape."""
    if isinstance(value, Expression):
        e = value
    elif isinstance(value, int):
        e = Num(value)
    elif isinstance(value, str):
        e = parse(value)
    else:
        raise TypeError(f"cannot use {value!r} as an interval endpoint")
    tape = Tape(e)
    if tape.has_x:
        raise ValueError(f"interval endpoint {e} contains the variable x")
    return e, tape


def _evaluate(names, w, f):
    """The rules ``names`` from the node reader ``f``, each rule once."""
    vals = {}

    def v(name):
        if name not in vals:
            vals[name] = _FORMULAS[name](w, f, v)
        return vals[name]

    return {name: v(name) for name in names}


@functools.cache
def nodes_read(names):
    """The (j, order) nodes that the rules in the frozenset ``names``
    reach, each once, in the order in which the whole table first reads
    them: f(a), f(b), f(m), f''(m)."""
    table, reached = [], set()
    _evaluate(RULE_ORDER, 0, lambda *node: table.append(node) or 0)
    _evaluate(names, 0, lambda *node: reached.add(node) or 0)
    return tuple(node for node in dict.fromkeys(table) if node in reached)


def rule_values(names, w, node):
    """Values of the rules ``names`` on one interval of width ``w``.

    ``node(j, order)`` is f (order 0) or f'' (order 2) at node j: 0 is
    the left end, 1 the midpoint, 2 the right end.  The nodes the rules
    reach are fetched first, each once, in the order f(a), f(b), f(m),
    f''(m); each rule is then evaluated once from ``_FORMULAS``.  The
    arithmetic is generic: mpmath floats give the rounded values at the
    ambient precision, Fractions (with a Fraction width) exact ones.
    """
    fetched = {n: node(*n) for n in nodes_read(frozenset(names))}
    return _evaluate(names, w, lambda *n: fetched[n])


def _monomial_rule_value(name, k):
    """Exact value of a rule on x^k over [0, 1] (all nodes are rational)."""
    xs = (Fraction(0), Fraction(1, 2), Fraction(1))

    def node(j, order):  # f = x^k, f'' = k (k-1) x^(k-2)
        x = xs[j]
        return k * (k - 1) * x ** (k - 2) if order else x ** k

    return rule_values((name,), Fraction(1), node)[name]


def _derive_law(name):
    """The RuleSpec of a rule: its degree m is one less than the first k
    where it is not exact on x^k over [0, 1], and c = E(x^(m+1)) / (m+1)!,
    with E the integral minus the rule, gives the sign and d = 1/|c|."""
    errors = (Fraction(1, k + 1) - _monomial_rule_value(name, k)
              for k in itertools.count())
    degree, error = next((k - 1, e) for k, e in enumerate(errors) if e)
    c = error / math.factorial(degree + 1)
    d = 1 / abs(c)
    if d.denominator != 1:
        raise ArithmeticError(f"rule {name}: error constant {c} is not "
                              f"the reciprocal of an integer")
    return RuleSpec(name, degree, POSITIVE if c > 0 else NEGATIVE,
                    d.numerator)


RULES = {name: _derive_law(name) for name in RULE_ORDER}


def simple_rule_values(f, a, b, rules=RULE_ORDER):
    """Values of the requested rules on one interval, at ambient precision.

    f(a), f(b), f((a+b)/2) and f''((a+b)/2) are each evaluated at most once,
    and only when a requested rule reads them.  Domain errors name the
    offending node and point.
    """
    names = rule_names(rules)
    xs = (a, (a + b) / 2, b)
    return rule_values(names, b - a, lambda j, order:
                       f.derivative_at(xs[j], order) if order
                       else f.eval_at(xs[j]))
