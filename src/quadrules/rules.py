"""The seven simple quadrature rules and their signed error metadata.

Every rule approximates the integral of f over one interval [a, b] from a
few evaluations of f (and, for T2 and Q, of f'') at the endpoints and the
midpoint.  Each rule of degree m carries a leading error term of the form
(b-a)^(m+2) * f^(m+1)(xi) / d with a fixed sign and integer denominator d,
valid whenever f^(m+1) keeps one sign on the interval:

    name  degree  error sign  d      value
    L     0       +           2      (b-a) f(a)
    R     0       -           2      (b-a) f(b)
    M     1       +           24     (b-a) f((a+b)/2)
    T     1       -           12     (b-a)/2 (f(a) + f(b))
    S     3       -           2880   (2 M + T) / 3
    T2    3       +           1920   M + (b-a)^3/24 f''((a+b)/2)
    Q     3       + under the difference-sign assumption; its error is a
          difference of two f''''(xi) terms, so it has no single-term d.
          value: (2 T2 + 3 S) / 5

S and Q are evaluated through those weighted means (reusing M, T, T2, S)
rather than through expanded node formulas; the direct endpoint Simpson
form (b-a)/6 (f(a) + 4 f(mid) + f(b)) is algebraically identical and is
kept to the test suite as a cross-check.

Each formula is written once, in ``rule_values``, which fetches exactly
the nodes its formulas read through a node reader and works in any number
type.  ``simple_rule_values`` calls it on one interval, the composite once
per panel over cached nodes, and the degree probe with exact rationals.

The stored degrees are guaranteed lower bounds.  R is commonly quoted with
degree 1 and Q with degree 3; the exact-rational probe in
``quadrules.analysis.degree_probe`` shows R has degree 0 (it is not exact
on x) and Q has degree 5 (its error difference cancels the degree-4 and
degree-5 monomials).  ``QUOTED_DEGREES`` records the quoted values so the
discrepancy can be reported next to probe output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Expression, Num, Tape, constant_value, parse
from .precision import workprec

RULE_ORDER = ("L", "R", "M", "T", "S", "T2", "Q")

POSITIVE, NEGATIVE, CONDITIONAL = "positive", "negative", "conditional"


@dataclass(frozen=True)
class RuleSpec:
    """Identity and error metadata of one simple rule."""

    name: str
    degree: int                    # guaranteed exactness degree (lower bound)
    error_sign: str                # positive | negative | conditional
    error_denominator: int | None  # d in the leading error term, if single-term


RULES = {
    "L": RuleSpec("L", 0, POSITIVE, 2),
    "R": RuleSpec("R", 0, NEGATIVE, 2),
    "M": RuleSpec("M", 1, POSITIVE, 24),
    "T": RuleSpec("T", 1, NEGATIVE, 12),
    "S": RuleSpec("S", 3, NEGATIVE, 2880),
    "T2": RuleSpec("T2", 3, POSITIVE, 1920),
    "Q": RuleSpec("Q", 3, CONDITIONAL, None),
}

# Degrees as commonly quoted in rule summaries.  R and Q disagree with the
# exact probe (0 and 5); `quad degree` prints a note when they differ.
QUOTED_DEGREES = {"L": 0, "R": 1, "M": 1, "T": 1, "S": 3, "T2": 3, "Q": 3}


class UnknownRuleError(ValueError):
    def __init__(self, name):
        known = ", ".join(RULE_ORDER)
        super().__init__(f"unknown rule {name!r} (known rules: {known})")


def rule_meta(name):
    """The fixed RuleSpec for a rule name."""
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
    """

    a: Expression
    b: Expression

    def __init__(self, a, b):
        object.__setattr__(self, "a", _as_constant(a))
        object.__setattr__(self, "b", _as_constant(b))
        with workprec(64):
            lo, hi = self.bounds()
            if not lo < hi:
                raise ValueError(f"interval requires a < b, got [{lo}, {hi}]")

    def bounds(self):
        return constant_value(self.a), constant_value(self.b)

    def __str__(self):
        return f"[{self.a}, {self.b}]"


def _as_constant(value):
    if isinstance(value, Expression):
        e = value
    elif isinstance(value, int):
        e = Num(value)
    elif isinstance(value, str):
        e = parse(value)
    else:
        raise TypeError(f"cannot use {value!r} as an interval endpoint")
    if Tape(e).has_x:
        raise ValueError(f"interval endpoint {e} contains the variable x")
    return e


# the rules each weighted mean is built from
_CHAIN = {"S": ("M", "T"), "Q": ("T2", "S"), "T2": ("M",)}


def needed_rules(names):
    """The rules ``names`` plus every rule their weighted means reuse."""
    need = set(names)
    stack = list(need)
    while stack:
        for dep in _CHAIN.get(stack.pop(), ()):
            if dep not in need:
                need.add(dep)
                stack.append(dep)
    return need


def rule_values(need, w, node):
    """Values of the rules in ``need`` (closed under ``needed_rules``) on
    one interval of width ``w``: the single home of every rule formula.

    ``node(j, order)`` is f (order 0) or f'' (order 2) at node j: 0 is
    the left end, 1 the midpoint, 2 the right end.  Only nodes the rules
    read are fetched, in the order f(a), f(b), f(m), f''(m).  The
    arithmetic is generic: mpmath floats give the rounded values at the
    ambient precision, Fractions (with a Fraction width) exact ones.
    """
    fa = node(0, 0) if "L" in need or "T" in need else None
    fb = node(2, 0) if "R" in need or "T" in need else None
    fm = node(1, 0) if "M" in need else None
    fpp = node(1, 2) if "T2" in need else None
    vals = {}
    if "L" in need:
        vals["L"] = w * fa
    if "R" in need:
        vals["R"] = w * fb
    if "M" in need:
        vals["M"] = w * fm
    if "T" in need:
        vals["T"] = w / 2 * (fa + fb)
    if "S" in need:
        vals["S"] = (2 * vals["M"] + vals["T"]) / 3
    if "T2" in need:
        vals["T2"] = vals["M"] + w ** 3 / 24 * fpp
    if "Q" in need:
        vals["Q"] = (2 * vals["T2"] + 3 * vals["S"]) / 5
    return vals


def node_value(f, x, order=0):
    """f (order 0) or its order-th derivative at x."""
    return f.derivative_at(x, order) if order else f.eval_at(x)


def simple_rule_values(f, a, b, rules=RULE_ORDER):
    """Values of the requested rules on one interval, at ambient precision.

    f(a), f(b), f((a+b)/2) and f''((a+b)/2) are each evaluated at most once,
    and only when a requested rule reads them.  Domain errors name the
    offending node and point.
    """
    names = rule_names(rules)
    xs = (a, (a + b) / 2, b)
    vals = rule_values(needed_rules(names), b - a,
                       lambda j, order: node_value(f, xs[j], order))
    return {name: vals[name] for name in names}
