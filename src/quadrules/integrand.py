"""Integrands: an expression, its interval, and cached derivatives.

Three built-in integrands are provided, all with the closed-form value pi:

    sin2    2*sin(x)^2      on [0, pi]
    asin6   6/sqrt(1-x^2)   on [0, 1/2]
    atan2   2/(1+x^2)       on [-1, 1]
"""

from __future__ import annotations

import operator

from mpmath import mp

from .expr import (Expression, Num, PiConst, Record, Tape, differentiate,
                   parse, to_text)
from .rules import Interval


class Integrand(Record):
    """A function to integrate, with one lazily built evaluation tape per
    derivative order, which holds that order's tree.  Like every record
    it is frozen and hashes by its fields; ``==``, hash and repr ignore
    the caches.

    ``reference``, when present, is a constant expression for the exact
    value of the integral over ``interval`` (the built-ins use pi).
    Evaluation happens at the ambient mpmath precision; use
    ``mpmath.mp.workprec`` or the precision arguments of the rule and
    composite entry points to control it.

    ``carry(precision)`` holds the exact sums by node kind (f(a), f(b),
    f at the inner boundaries, f and f'' at the midpoints) of the last
    composite at that precision, keyed by its interval's endpoints and
    panel count, so that a composite over twice as many panels evaluates
    only its new nodes (see ``quadrules.composite``).  It holds one entry
    per precision, a few numbers each, whatever the panel count.
    """

    expression: Expression
    interval: Interval
    reference: Expression | None = None
    name: str | None = None

    def __post_init__(self):
        # order -> the tape of the order-th derivative
        object.__setattr__(self, "_tapes", [Tape(self.expression)])
        # precision -> {(a, b, panels): node sums}
        object.__setattr__(self, "_carried", {})

    @classmethod
    def from_text(cls, text, a, b, reference=None, name=None):
        return cls(parse(text), Interval(a, b), reference, name)

    def derivative_expr(self, order):
        """The order-th symbolic derivative (order 0 is f itself), read
        back from its tape.  Order k+1 is differentiated from the tape that
        evaluates order k, so each order's tree is taped once."""
        order = operator.index(order)
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        tapes = self._tapes
        while len(tapes) <= order:
            tapes.append(Tape(differentiate(tapes[-1])))
        return tapes[order].nodes[tapes[order].result]

    def tape(self, order):
        """The evaluation tape of the order-th derivative."""
        try:
            if order >= 0:
                return self._tapes[order]
        except (IndexError, TypeError):
            pass
        self.derivative_expr(order)  # builds it where wrappers see it
        return self._tapes[order]

    def eval_at(self, x):
        return mp.make_mpf(self._tapes[0].run(x._mpf_))

    def derivative_at(self, x, order):
        return mp.make_mpf(self.tape(order).run(x._mpf_))

    def carry(self, precision):
        """The carried node sums at ``precision``, for the composite to
        read and replace."""
        return self._carried.setdefault(precision, {})

    def label(self):
        name = f"{self.name}: " if self.name else ""
        return f"{name}{to_text(self._tapes[0])} on {self.interval}"


_BUILTIN_SOURCES = {
    "sin2": ("2*sin(x)^2", Num(0), PiConst()),
    "asin6": ("6/sqrt(1-x^2)", Num(0), Num("0.5")),
    "atan2": ("2/(1+x^2)", Num(-1), Num(1)),
}

BUILTIN_NAMES = tuple(_BUILTIN_SOURCES)


def builtin_integrand(name):
    """One of the built-in pi integrands, by name."""
    try:
        text, a, b = _BUILTIN_SOURCES[name]
    except KeyError:
        known = ", ".join(BUILTIN_NAMES)
        raise ValueError(f"unknown integrand {name!r} (built-ins: {known})") \
            from None
    return Integrand.from_text(text, a, b, reference=PiConst(), name=name)
