"""Integrands: an expression, its interval, and cached derivatives.

Three built-in integrands are provided, all with the closed-form value pi:

    sin2    2*sin(x)^2      on [0, pi]
    asin6   6/sqrt(1-x^2)   on [0, 1/2]
    atan2   2/(1+x^2)       on [-1, 1]
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import (Expression, Num, PiConst, Tape, differentiate, parse,
                   to_text)
from .rules import Interval


@dataclass
class Integrand:
    """A function to integrate, with lazily cached symbolic derivatives
    and one evaluation tape per derivative order.

    ``reference``, when present, is a constant expression for the exact
    value of the integral over ``interval`` (the built-ins use pi).
    Evaluation happens at the ambient mpmath precision; use
    ``mpmath.mp.workprec`` or the precision arguments of the rule and
    composite entry points to control it.

    ``carry(precision)`` holds the exact node-column sums of the last
    composite at that precision, keyed by its interval's endpoints and
    panel count, so that a composite over twice as many panels evaluates
    only its new nodes (see ``quadrules.composite``).  It holds one entry
    per precision, a few numbers each, whatever the panel count.
    """

    expression: Expression
    interval: Interval
    reference: Expression | None = None
    name: str | None = None
    _derivatives: list = field(init=False, repr=False, compare=False)
    _tapes: dict = field(init=False, repr=False, compare=False)
    _carried: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._derivatives = [self.expression]
        self._tapes = {0: Tape(self.expression)}
        self._carried = {}  # precision -> {(a, b, panels): column sums}

    @classmethod
    def from_text(cls, text, a, b, reference=None, name=None):
        return cls(parse(text), Interval(a, b), reference, name)

    def derivative_expr(self, order):
        """The order-th symbolic derivative (order 0 is f itself)."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        while len(self._derivatives) <= order:
            self._derivatives.append(differentiate(self._derivatives[-1]))
        return self._derivatives[order]

    def tape(self, order):
        """The evaluation tape of the order-th derivative."""
        if order not in self._tapes:
            self._tapes[order] = Tape(self.derivative_expr(order))
        return self._tapes[order]

    def eval_at(self, x):
        return self._tapes[0].run(x)

    def derivative_at(self, x, order):
        return self.tape(order).run(x)

    def carry(self, precision):
        """The carried column sums at ``precision``, for the composite to
        read and replace."""
        return self._carried.setdefault(precision, {})

    def label(self):
        name = f"{self.name}: " if self.name else ""
        return f"{name}{to_text(self.expression)} on {self.interval}"


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
