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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import mpmath.ctx_mp_python
from mpmath import mp, mpf
from mpmath.libmp import (fzero, mpf_cos, mpf_pow, mpf_pow_int, mpf_sin,
                          mpf_sqrt, round_nearest)

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


class Tape:
    """An expression compiled to flat steps over registers, one register
    per structurally distinct node.  Each step calls an ``mpmath.libmp``
    kernel on raw ``_mpf_`` tuples, rounding to nearest at the ambient
    precision exactly as the matching ``mpf`` operation or ``mp``
    function does.  Steps follow the first-visit post-order of a
    recursive walk, operands left to right except that a division checks
    its denominator first, so values are bit-identical to the walk's and
    the first domain error is the one it would raise.  ``has_x`` tells
    whether the variable x occurs."""

    def __init__(self, e):
        self.nodes = []   # register -> the first node object holding it
        self.steps = []   # (out, kernel, a, b or None if unary, node)
        self._literals = []   # (register, Num or PiConst node)
        self._by_prec = {}    # mp.prec -> registers with literals filled
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

    def run(self, x):
        """Value at the mpf ``x`` (None for a constant) at the ambient
        precision, as an mpf."""
        prec = mp.prec
        template = self._by_prec.get(prec)
        if template is None:
            template = [None] * len(self.nodes)
            for r, e in self._literals:
                value = +mp.pi if type(e) is PiConst else mpf(e.value)
                template[r] = value._mpf_
            self._by_prec[prec] = template
        regs = template.copy()
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
