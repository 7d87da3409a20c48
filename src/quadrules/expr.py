"""Integrand expressions: parsing, printing, evaluation and derivatives.

The input language is one-variable infix arithmetic::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?            right-associative
    atom   := NUMBER | "pi" | "x"
            | ("sin" | "cos" | "sqrt") "(" expr ")"
            | "(" expr ")"

``^`` binds tighter than unary minus, so ``-x^2`` is ``-(x^2)``.  NUMBER is
an integer or decimal literal; integers stay exact, decimal literals are
converted at whatever working precision is active when the tree is
evaluated, so one tree serves every precision.  Whitespace is ignored.
Syntax errors report the byte offset of the offending token.

Trees are immutable (frozen dataclasses, structural equality) and
``parse(to_text(e))`` reproduces ``e`` exactly, so expressions can be
shared between threads and serialized through their printed form.
Evaluation has one path, ``Tape``: a tree compiled once into flat steps
with one register per structurally distinct node, literals materialized
once per precision, and bit-identical to a recursive walk of the tree.
The steps call ``mpmath.libmp`` kernels on raw ``_mpf_`` tuples, and only
the result is wrapped as an mpf.

At 53 bits the same steps first run on Python floats.  IEEE 754 requires
+, -, *, / and sqrt on binary64 to round correctly, ties to even, which is
``round_nearest`` at 53 bits as long as every value stays in the normal
range [2^-1022, 2^1024); mpmath's exponent is unbounded, a double's is
not.  So the float run is an accelerator only: when an input has no
exact double, a register ends up subnormal, infinite or NaN, a product or
quotient of nonzero values underflows to 0, or a step raises, the tuple
run takes over and its value or error is the answer.  Tapes with too few
native float steps to repay the conversions keep the tuple run.  ``grid``
computes equispaced evaluation points the same way: on doubles at 53 bits
where they round as the tuple formula does, by the formula elsewhere.
"""

from __future__ import annotations

import math
import operator
import re
import struct
import sys
from dataclasses import dataclass
from functools import partial

import mpmath.ctx_mp_python
from mpmath import mp, mpf
from mpmath.libmp import (MPZ, fzero, mpf_add, mpf_cos, mpf_mul_int, mpf_pow,
                          mpf_pow_int, mpf_sin, mpf_sqrt, round_nearest)

from .precision import workprec


class ParseError(ValueError):
    """Rejected input text; ``offset`` is the byte position of the fault."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"syntax error at byte offset {offset}: {message}")


class DomainError(ArithmeticError):
    """Evaluation left the real domain (sqrt of a negative, zero division).

    Carries the offending node, the evaluation point it is raised at and,
    via ``located``, the composite panel the point belongs to (numbered
    from 1).
    """

    def __init__(self, reason, node=None, x=None, panel=None, panels=None):
        self.reason = reason
        self.node = node
        self.x = x
        self.panel = panel
        self.panels = panels
        parts = [reason]
        if node is not None:
            parts.append(f"in {to_text(node)}")
        if x is not None:
            parts.append(f"at x = {x}")
        if panel is not None:
            of = f" of {panels}" if panels is not None else ""
            parts.append(f"(panel {panel}{of})")
        super().__init__(" ".join(parts))

    def located(self, panel, panels=None):
        """Copy of the error annotated with a composite panel."""
        return DomainError(self.reason, self.node, self.x, panel, panels)


class DifferentiationError(ValueError):
    """The derivative is not expressible in this node vocabulary."""


class Expression:
    """Base class for all nodes; subclasses are frozen dataclasses."""

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Num(Expression):
    # int for integer literals (exact), str for decimal literals (converted
    # at evaluation precision).  May be negative: unary minus folds in.
    value: object


@dataclass(frozen=True)
class PiConst(Expression):
    pass


@dataclass(frozen=True)
class Var(Expression):
    pass


@dataclass(frozen=True)
class Add(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Sub(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Mul(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Div(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: Expression


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True)
class Sin(Expression):
    arg: Expression


@dataclass(frozen=True)
class Cos(Expression):
    arg: Expression


@dataclass(frozen=True)
class Sqrt(Expression):
    arg: Expression


# ---------------------------------------------------------------------------
# tokenizer / parser

_NUM_RE = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                     r"|\d+(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(r"\d+\Z")

_FUNCTIONS = {"sin": Sin, "cos": Cos, "sqrt": Sqrt}


def _byte_offset(text, index):
    return len(text[:index].encode("utf-8"))


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        off = _byte_offset(text, i)
        m = _NUM_RE.match(text, i)
        if m:
            lexeme = m.group()
            value = int(lexeme) if _INT_RE.match(lexeme) else lexeme
            tokens.append(("num", value, off))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(("ident", m.group(), off))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, off))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", off)
    tokens.append(("eof", "", _byte_offset(text, n)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            got = "end of input" if tok[0] == "eof" else repr(tok[1])
            raise ParseError(f"expected {what}, got {got}", tok[2])
        return tok

    def parse(self):
        if self.peek()[0] == "eof":
            raise ParseError("empty input", self.peek()[2])
        e = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self):
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return _negate(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Pow(base, self.unary())
        return base

    def atom(self):
        tok = self.advance()
        kind, value, off = tok
        if kind == "num":
            return Num(value)
        if kind == "ident":
            if value == "pi":
                return PiConst()
            if value == "x":
                return Var()
            if value in _FUNCTIONS:
                self.expect("(", f"'(' after {value}")
                arg = self.expr()
                self.expect(")", "')'")
                return _FUNCTIONS[value](arg)
            raise ParseError(f"unknown identifier {value!r}", off)
        if kind == "(":
            e = self.expr()
            self.expect(")", "')'")
            return e
        got = "end of input" if kind == "eof" else repr(value)
        raise ParseError(f"expected expression, got {got}", off)


def parse(text):
    """Parse expression text to a tree.  Raises ParseError on bad input."""
    if not isinstance(text, str):
        raise TypeError("expression source must be a string")
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing: canonical parenthesized infix, inverse of parse()

# precedence levels used for minimal parenthesization
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 9


def _prec(e):
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Num) and _num_is_negative(e.value):
        return _PREC_NEG  # prints with a leading minus, parse like a Neg
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _num_is_negative(value):
    return value < 0 if isinstance(value, int) else value.startswith("-")


def _fmt(e, ctx):
    text = _fmt_inner(e)
    return f"({text})" if _prec(e) < ctx else text


def _fmt_inner(e):
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, PiConst):
        return "pi"
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Add):
        return f"{_fmt(e.left, _PREC_ADD)} + {_fmt(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{_fmt(e.left, _PREC_ADD)} - {_fmt(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_fmt(e.left, _PREC_MUL)} * {_fmt(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_fmt(e.left, _PREC_MUL)} / {_fmt(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Neg):
        return f"-{_fmt(e.arg, _PREC_NEG)}"
    if isinstance(e, Pow):
        return f"{_fmt(e.base, _PREC_ATOM)} ^ {_fmt(e.exponent, _PREC_NEG)}"
    if isinstance(e, Sin):
        return f"sin({_fmt(e.arg, 0)})"
    if isinstance(e, Cos):
        return f"cos({_fmt(e.arg, 0)})"
    if isinstance(e, Sqrt):
        return f"sqrt({_fmt(e.arg, 0)})"
    raise TypeError(f"not an expression node: {e!r}")


def to_text(e):
    """Canonical infix text; parse(to_text(e)) is structurally equal to e."""
    return _fmt(e, 0)


# ---------------------------------------------------------------------------
# evaluation: a flat tape of mpmath.libmp kernels over raw _mpf_ tuples

# "is negative" reads the sign bit: mpmath has no negative zero, and the
# bit agrees with mpf_lt(u, fzero) on every tuple, fninf and fnan included

def _checked_power(u, v, prec, rnd):
    sign, man, exp, _ = v
    if exp >= 0:
        # an integer exponent (fzero too), dispatched as mpf_pow does
        n = -(man << exp) if sign else man << exp
        if n < 0 and u == fzero:
            raise DomainError("zero raised to a negative power")
        return mpf_pow_int(u, n, prec, rnd)
    if sign and u == fzero:
        raise DomainError("zero raised to a negative power")
    if u[0]:  # v is a fraction, inf or nan here
        raise DomainError("fractional power of a negative base")
    return mpf_pow(u, v, prec, rnd)


def _checked_sqrt(u, prec, rnd):
    if u[0]:
        raise DomainError("square root of a negative value")
    return mpf_sqrt(u, prec, rnd)


def _nonzero(u, prec, rnd):
    if u == fzero:
        raise DomainError("division by zero")
    return u


def _bound(u, prec, rnd):
    if u is None:
        raise DomainError("free variable x in a constant context")
    return u


# the float run needs binary64 doubles, which CPython floats are on every
# IEEE-754 host
_FLOAT53 = sys.float_info.radix == 2 and sys.float_info.mant_dig == 53
_DBL_MIN = sys.float_info.min
# the byte of a double holding its sign and top 7 exponent bits, and every
# value of that byte where 2^-1007 <= |v| < 2^1009
_HIGH = 7 if sys.byteorder == "little" else 0
_MIDDLE = bytes(c for c in range(256) if c & 0x7F not in (0, 0x7F))


def _to_double(t):
    """The double equal to the tuple ``t``; ValueError when ``t`` has more
    than 53 bits, is infinite or NaN, or lies outside the normal range."""
    sign, man, exp, bc = t
    if man and bc <= 53 and -1022 <= exp + bc - 1 < 1024:
        return math.ldexp(-man if sign else man, exp)
    if t == fzero:
        return 0.0
    raise ValueError("no double equals this value")


def _to_tuple(v):
    """The ``_mpf_`` tuple equal to the finite double ``v``."""
    n, d = v.as_integer_ratio()  # d is a power of two, n is odd unless d is 1
    sign = 0
    if n < 0:
        sign, n = 1, -n
    if d == 1:
        if not n:
            return fzero
        zeros = (n & -n).bit_length() - 1
        n >>= zeros
        return (sign, MPZ(n), zeros, n.bit_length())
    return (sign, MPZ(n), 1 - d.bit_length(), n.bit_length())


def grid(a, step, ks, prec):
    """The points a + k*step for each k of ``ks``, a range of ascending
    non-negative ints, as ``_mpf_`` tuples, each rounded as
    ``mpf_add(a, mpf_mul_int(step, k, prec, "n"), prec, "n")``.

    At 53 bits the points are computed as ``ad + k*hd`` on doubles when a
    and step have exact doubles and every k is below 2^53, so an exact
    double too.  Both operations then round once, ties to even, which is
    ``round_nearest`` while their results stay in the normal range: the
    product does, since |k*hd| >= |hd| for k >= 1 and a normal hd, unless
    it overflows.  The points are monotone in k, so the first and the last
    show any overflow; a subnormal point, or an infinite one, hands the
    whole grid to the tuple formula.
    """
    if prec == 53 and _FLOAT53 and (not ks or ks[-1] < 2 ** 53):
        try:
            ad, hd = _to_double(a), _to_double(step)
        except ValueError:
            pass
        else:
            xs = [ad + k * hd for k in ks]
            if not xs or (math.isfinite(xs[0]) and math.isfinite(xs[-1])
                          and min(map(abs, filter(None, xs)),
                                  default=_DBL_MIN) >= _DBL_MIN):
                return list(map(_to_tuple, xs))
    return _grid_tuples(a, step, ks, prec)


def _grid_tuples(a, step, ks, prec):
    """``grid`` by the tuple formula, at any precision."""
    return [mpf_add(a, mpf_mul_int(step, k, prec, round_nearest), prec,
                    round_nearest) for k in ks]


def _on_tuples(kernel, unary):
    """A float step that runs ``kernel`` at 53 bits on the exact tuples of
    its operands; ValueError when no double equals the result."""
    if unary:
        return lambda u: _to_double(kernel(_to_tuple(u), 53, round_nearest))
    return lambda u, v: _to_double(kernel(_to_tuple(u), _to_tuple(v), 53,
                                          round_nearest))


# float steps by node type; a zero denominator makes truediv raise, and
# math.sqrt raises on a negative value, so the tuple run reports both
_FLOAT_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
              Div: operator.truediv, Neg: operator.neg, Sqrt: math.sqrt}
# u^n for the exponents where mpf_pow_int is one correctly rounded
# operation (u*u, 1/u) or exact; u^2 runs as a Mul of u with itself
_FLOAT_POWERS = {-1: partial(operator.truediv, 1.0), 1: operator.pos,
                 0: lambda u: 1.0}


class Tape:
    """An expression compiled to flat steps over registers, one register
    per structurally distinct node.  Each step calls an ``mpmath.libmp``
    kernel on raw ``_mpf_`` tuples, rounding to nearest at the ambient
    precision exactly as the matching ``mpf`` operation or ``mp``
    function does.  Steps follow the first-visit post-order of a
    recursive walk, operands left to right except that a division checks
    its denominator first, so values are bit-identical to the walk's and
    the first domain error is the one it would raise.  ``has_x`` tells
    whether the variable x occurs.

    At 53 bits ``run`` first tries the steps on doubles: add, sub, mul,
    div, neg, sqrt and the powers u^2, u^-1, u^1 and u^0 natively, every
    other step through its kernel on exact tuples.  Inside the normal
    range IEEE 754's round-half-even equals ``round_nearest`` at 53 bits,
    so the double result is the tuple run's, bit for bit.  The tuple run
    answers instead, with its own value or ``DomainError``, whenever a
    literal or x has no exact double (more than 53 bits, or outside the
    normal range), a register ends up subnormal, infinite or NaN, a
    product or quotient of nonzero values is 0, or a float step raises.
    A tape with too few native steps to repay the conversions, such as
    ``2*sin(x)^2``, keeps the tuple run.
    """

    def __init__(self, e):
        self.nodes = []   # register -> the first node object holding it
        self.steps = []   # (out, kernel, a, b or None if unary, node)
        self._literals = []   # (register, Num or PiConst node)
        self._by_prec = {}    # mp.prec -> registers with literals filled
        self._floats = None   # the float program; False if there is none
        self._var = None
        ops = mpmath.ctx_mp_python  # where perfbench's tracer counts calls
        # kernels by node type, called k(u, prec, rnd) or k(u, v, prec, rnd)
        self._kernels = {
            Var: _bound, Add: ops.mpf_add, Sub: ops.mpf_sub,
            Mul: ops.mpf_mul, Div: ops.mpf_div, Neg: ops.mpf_neg,
            Pow: _checked_power, Sin: mpf_sin, Cos: mpf_cos,
            Sqrt: _checked_sqrt}
        self.result = self._visit(e, {}, {})
        self.has_x = self._var is not None

    def _visit(self, e, seen, registers):
        r = seen.get(id(e))
        if r is not None:
            return r
        t = type(e)
        a = b = None
        if t in (Num, PiConst, Var):
            key = (t, e.value) if t is Num else (t,)
        elif t is Div:
            b = self._visit(e.right, seen, registers)
            mark = len(self.steps)
            self.steps.append((b, _nonzero, b, None, e))
            a = self._visit(e.left, seen, registers)
            key = (t, a, b)
            if key in registers:  # checked where the equal node was built
                del self.steps[mark]
        elif t in (Add, Sub, Mul, Pow):
            left, right = (e.base, e.exponent) if t is Pow else \
                (e.left, e.right)
            a = self._visit(left, seen, registers)
            b = self._visit(right, seen, registers)
            key = (t, a, b)
        elif t in (Neg, Sin, Cos, Sqrt):
            a = self._visit(e.arg, seen, registers)
            key = (t, a)
        else:
            raise TypeError(f"not an expression node: {e!r}")
        r = registers.get(key)
        if r is None:
            r = registers[key] = len(self.nodes)
            self.nodes.append(e)
            if t is Num or t is PiConst:
                self._literals.append((r, e))
            else:
                if t is Var:
                    self._var = a = r
                self.steps.append((r, self._kernels[t], a, b, e))
        seen[id(e)] = r
        return r

    def _template(self, prec):
        """Registers with the literals filled at ``prec``, None elsewhere."""
        template = self._by_prec.get(prec)
        if template is None:
            template = [None] * len(self.nodes)
            for r, e in self._literals:
                value = +mp.pi if type(e) is PiConst else mpf(e.value)
                template[r] = value._mpf_
            self._by_prec[prec] = template
        return template

    def run(self, x):
        """Value at the mpf ``x`` (None for a constant) at the ambient
        precision, as an mpf."""
        prec = mp.prec
        if prec == 53 and (self._floats if self._floats is not None
                           else self._program()):
            value = self._run_floats(x)
            if value is not None:
                return mp.make_mpf(_to_tuple(value))
            return self._fall_back(x)
        return self._run_tuples(x, prec)

    def _fall_back(self, x):
        """The tuple run at 53 bits, where the float run cannot answer."""
        return self._run_tuples(x, 53)

    def _run_tuples(self, x, prec):
        regs = self._template(prec).copy()
        if self._var is not None:
            regs[self._var] = None if x is None else x._mpf_
        try:
            for out, kernel, a, b, e in self.steps:
                if b is None:
                    regs[out] = kernel(regs[a], prec, round_nearest)
                else:
                    regs[out] = kernel(regs[a], regs[b], prec, round_nearest)
        except DomainError as err:
            raise DomainError(err.reason, e, x) from None
        return mp.make_mpf(regs[self.result])

    def _program(self):
        """The float program, built on first use; False if there is none."""
        if self._floats is None:
            self._floats = _FLOAT53 and self._float_program()
        return self._floats

    def _float_program(self):
        """(registers, steps, products, packer) of the float run, or False
        when a literal has no double or the run would not pay.  Steps are
        (out, fn, a, b or None), products lists the (out, a, b) of every
        Mul and Div, and packer packs the registers as native doubles."""
        template = self._template(53)
        try:
            regs = [0.0 if t is None else _to_double(t) for t in template]
        except ValueError:
            return False
        steps, products, kernels = [], [], 0
        for out, kernel, a, b, e in self.steps:
            t = type(e)
            if kernel is _nonzero or t is Var:  # x is filled in by the run
                continue
            fn = _FLOAT_OPS.get(t)
            if t is Pow and template[b] is not None and \
                    regs[b] in (2, -1, 1, 0):
                if regs[b] == 2:
                    t, fn, b = Mul, operator.mul, a
                else:
                    fn, b = _FLOAT_POWERS[regs[b]], None
            if fn is None:
                fn = _on_tuples(kernel, b is None)
                kernels += 1
            if t in (Mul, Div):
                products.append((out, a, b))
            steps.append((out, fn, a, b))
        # each native step saves about one kernel call and each kernel step
        # costs about one more in conversions; converting x and the result
        # and scanning the registers cost about two per run
        if len(steps) - kernels <= kernels + 2:
            return False
        return regs, steps, products, struct.Struct(f"{len(regs)}d")

    def _run_floats(self, x):
        """The 53-bit value as a double from the float program, or None
        where the tuple run must answer instead."""
        regs, steps, products, packer = self._floats
        regs = regs.copy()
        if self._var is not None and x is None:
            return None
        try:
            if self._var is not None:
                regs[self._var] = _to_double(x._mpf_)
            for out, fn, a, b in steps:
                if b is None:
                    regs[out] = fn(regs[a])
                else:
                    regs[out] = fn(regs[a], regs[b])
        except (ArithmeticError, ValueError):
            return None
        # a quick exponent scan: no register zero, tiny, huge or non-finite
        if not packer.pack(*regs)[_HIGH::8].translate(None, _MIDDLE):
            return regs[self.result]
        if not math.isfinite(sum(regs)):  # an infinity or a NaN (or huge)
            return None
        if min(filter(None, map(abs, regs)), default=1.0) <= _DBL_MIN:
            return None  # a subnormal
        for out, a, b in products:
            if not regs[out] and regs[a] and regs[b]:  # underflow to 0
                return None
        return regs[self.result]


def eval_expr(e, x, precision=53):
    """Value of ``e`` at ``x``, every operation rounded at ``precision`` bits.

    ``x`` may be an mpmath float (used as given), an int, a decimal
    string (the latter two converted at the requested precision), or None
    for a tree without x.
    Raises DomainError, naming the evaluation point, when the value
    leaves the real domain.
    """
    with workprec(precision):
        if isinstance(x, (int, str)):
            x = mpf(x)
        return +Tape(e).run(x)


# ---------------------------------------------------------------------------
# simplifying constructors (additive and multiplicative identities plus
# exact integer folding; anything beyond that is out of scope on purpose)

def _is_int(e, k=None):
    return isinstance(e, Num) and isinstance(e.value, int) and \
        (k is None or e.value == k)


def _negate(e):
    if isinstance(e, Num):
        if isinstance(e.value, int):
            return Num(-e.value)
        text = e.value
        return Num(text[1:]) if text.startswith("-") else Num("-" + text)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def _add(a, b):
    if _is_int(a, 0):
        return b
    if _is_int(b, 0):
        return a
    if _is_int(a) and _is_int(b):
        return Num(a.value + b.value)
    return Add(a, b)


def _sub(a, b):
    if _is_int(b, 0):
        return a
    if _is_int(a, 0):
        return _negate(b)
    if _is_int(a) and _is_int(b):
        return Num(a.value - b.value)
    return Sub(a, b)


def _mul(a, b):
    if _is_int(a, 0) or _is_int(b, 0):
        return Num(0)
    if _is_int(a, 1):
        return b
    if _is_int(b, 1):
        return a
    if _is_int(a) and _is_int(b):
        return Num(a.value * b.value)
    return Mul(a, b)


def _div(a, b):
    if _is_int(b, 1):
        return a
    return Div(a, b)


def _pow(a, b):
    if _is_int(b, 1):
        return a
    if _is_int(b, 0):
        return Num(1)
    if _is_int(a) and _is_int(b) and 0 <= b.value <= 16:
        return Num(a.value ** b.value)
    return Pow(a, b)


# ---------------------------------------------------------------------------
# symbolic differentiation

def differentiate(e):
    """d/dx of ``e`` by structural rules, with identity simplification.

    Power nodes must have a constant exponent: the node vocabulary has no
    logarithm, so d/dx of u(x)^v(x) with x in the exponent is not
    expressible and raises DifferentiationError.  A subtree shared by
    reference is differentiated once, and its derivative is shared too.
    """
    memo = {}  # id(node) -> derivative; every key is held alive by e

    def d(e):
        if id(e) not in memo:
            memo[id(e)] = _derivative(e, d)
        return memo[id(e)]

    return d(e)


def _derivative(e, d):
    """d/dx of one node, with ``d`` differentiating its children."""
    if isinstance(e, (Num, PiConst)):
        return Num(0)
    if isinstance(e, Var):
        return Num(1)
    if isinstance(e, Add):
        return _add(d(e.left), d(e.right))
    if isinstance(e, Sub):
        return _sub(d(e.left), d(e.right))
    if isinstance(e, Mul):
        return _add(_mul(d(e.left), e.right), _mul(e.left, d(e.right)))
    if isinstance(e, Div):
        num = _sub(_mul(d(e.left), e.right), _mul(e.left, d(e.right)))
        return _div(num, _pow(e.right, Num(2)))
    if isinstance(e, Pow):
        # literal exponents, by far the most common, need no tape
        if type(e.exponent) is not Num and Tape(e.exponent).has_x:
            raise DifferentiationError(
                f"cannot differentiate {to_text(e)}: exponent contains x")
        r = e.exponent
        du = d(e.base)
        return _mul(_mul(r, _pow(e.base, _sub(r, Num(1)))), du)
    if isinstance(e, Neg):
        return _negate(d(e.arg))
    if isinstance(e, Sin):
        return _mul(Cos(e.arg), d(e.arg))
    if isinstance(e, Cos):
        return _negate(_mul(Sin(e.arg), d(e.arg)))
    if isinstance(e, Sqrt):
        return _div(d(e.arg), _mul(Num(2), Sqrt(e.arg)))
    raise TypeError(f"not an expression node: {e!r}")
