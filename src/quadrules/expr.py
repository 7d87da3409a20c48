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
an integer or decimal literal; integers stay exact, decimal literals keep
their text and are converted at whatever working precision is active when
the tree is evaluated, so one tree serves every precision.  ``_decimal``
splits a decimal literal's text into the integers man and e of its value
man * 10^e, for the parser's check and for the tape's conversion.
Whitespace is ignored.  Syntax errors report the byte offset of the
offending token.  Each node class declares its symbol, precedence, text,
evaluation and derivative once (``Expression`` says how); the parser's
tables, the printer, the tape and ``differentiate`` read them there.
``parse`` reads it by operator precedence without recursion, the tape
builder walks the tree on an explicit stack, and the printer ``to_text``
and ``differentiate`` are each one loop over a tape, so expressions nest
as deep as memory allows.

Trees are immutable (frozen ``Record`` subclasses, whose structural
``==``, hash and repr walk any depth) and ``parse(to_text(e))``
reproduces ``e`` exactly, so expressions can be shared between threads and
serialized through their printed form.
Evaluation has one path, ``Tape``: a tree compiled once into flat steps,
one per operator node, with one register per structurally distinct node,
literals materialized once per precision from their integer significand
and decimal exponent, and bit-identical to a recursive walk of the tree in
which ``mpf`` converts each literal's text.  Its one run method,
``Tape.run``, takes x and returns the value as raw ``_mpf_`` tuples, on
which the steps call ``mpmath.libmp`` kernels; mpfs are made only where
the package hands a value out (``eval_expr``, ``Integrand.eval_at`` and
``derivative_at``, and a ``DomainError``'s point).  At 53 bits a tape with
a step and exact doubles for its literals first runs on Python floats.
After 300 runs at one precision a tape compiles its one program there to a
Python function: the float program at 53 bits where it has one, the tuple
run otherwise.  ``Tape`` says when each run answers, and why every run
gives the same value or error text.  The sine and cosine of one register
share one ``mpf_cos_sin`` call.  They refuse arguments of 2^(2^17) or
more, whose reduction by pi would take seconds to minutes, and powers
refuse integer exponents of 2^128 or more unless the base is a power of
two or zero (2^(2^20) then), each with a ``DomainError``.

``grid`` computes equispaced evaluation points on doubles at 53 bits
where they round as the tuple formula does; elsewhere in integers when
every point is exact, as on a dyadic interval split into 2^k panels,
and by the formula otherwise.
"""

from __future__ import annotations

import gc
import math
import operator
import re
import struct
import sys
from functools import partial

import mpmath.ctx_mp_python
from mpmath import mp
from mpmath.libmp import (MPZ, fone, from_int, from_rational, ften, fzero,
                          mpf_add, mpf_cos, mpf_cos_sin, mpf_mul, mpf_mul_int,
                          mpf_pi, mpf_pow, mpf_pow_int, mpf_sin, mpf_sqrt,
                          round_nearest)

from .precision import as_mpf, point_text, workprec


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
            parts.append(f"at x = {point_text(x)}")
        if panel is not None:
            of = f" of {panels}" if panels is not None else ""
            parts.append(f"(panel {panel}{of})")
        super().__init__(" ".join(parts))

    def located(self, panel, panels=None):
        """Copy of an error without a panel, annotated with one; the copy
        reuses its text, so its node and point are printed once."""
        err = DomainError(str(self), None, None, panel, panels)
        err.reason, err.node, err.x = self.reason, self.node, self.x
        return err


class DifferentiationError(ValueError):
    """The derivative is not expressible in this node vocabulary."""


# ---------------------------------------------------------------------------
# domain-checked tuple kernels, which the node classes below declare;
# "is negative" reads the sign bit: mpmath has no negative zero, and the
# bit agrees with mpf_lt(u, fzero) on every tuple, fninf and fnan included

# mpf_pow_int squares once per bit of an integer exponent, at about
# prec + 4 * (its bit length) bits.  On a 2-CPU host 1.5 or 4/3 to a b-bit
# exponent takes 0.05 s at 53 bits for b = 1,024 (0.34 s for 2,048, 1.9 s
# for 4,096), and at 65,536 bits 0.21 s for b = 64, 0.57 s for 128 and
# 1.1 s for 256.  Exponents of 2^128 or more are refused, so every accepted
# power takes under a second, except on a base whose powers mpf_pow_int
# returns at once: a power of two (mantissa 1, +-1 included), zero, an
# infinity or NaN (bc below 2).  mpf_pow takes a fractional exponent n/2
# as sqrt(u)^n, by mpf_pow_int on a root that is no power of two, and any
# other as exp(v*log u), whose argument is as large as v.  At 65,536 bits
# 1.5, 2 or 0.5 to 2^256 + 0.5 takes 0.26 to 0.43 s, 2 or 0.5 to 2^4096 +
# 0.5 6.3 to 6.7 s, and to the largest accepted exponent, 2^128 - 0.5, 0.4
# to 0.56 s.  So fractional exponents of 2^128 or more are refused too,
# on powers of two as well; only a base of 0 or 1 returns at once.  Integer
# exponents are built as ints, so bases answered at once refuse 2^(2^20).
_POW_BITS, _QUICK_POW_BITS = 128, 2 ** 20


def _checked_power(u, v, prec, rnd):
    sign, man, exp, bc = v
    if exp >= 0:
        # an integer exponent (fzero too), dispatched as mpf_pow does
        bits = _POW_BITS if u[3] > 1 else _QUICK_POW_BITS
        if exp + bc > bits:
            raise DomainError(f"integer exponent of 2^{bits} or more")
        n = -(man << exp) if sign else man << exp
        if n < 0 and u == fzero:
            raise DomainError("zero raised to a negative power")
        return mpf_pow_int(u, n, prec, rnd)
    if sign and u == fzero:
        raise DomainError("zero raised to a negative power")
    if u[0]:  # v is a fraction, inf or nan here
        raise DomainError("fractional power of a negative base")
    if exp + bc > _POW_BITS and u not in (fzero, fone):
        raise DomainError(f"fractional exponent of 2^{_POW_BITS} or more")
    return mpf_pow(u, v, prec, rnd)


def _checked_sqrt(u, prec, rnd):
    if u[0]:
        raise DomainError("square root of a negative value")
    return mpf_sqrt(u, prec, rnd)


# sin and cos reduce their argument by pi at its full magnitude.  On a
# 2-CPU host the first mpf_sin of a process near 2^(2^17), which computes
# pi's bits too, takes 0.17 s at 53 bits and 0.65 s at 65,536 (0.03 s and
# 0.36 s with pi's bits at hand); near 2^(2^18) it takes 0.68 s and 1.14 s.
# Larger arguments are refused, so every accepted one reduces within a
# second.
_TRIG_TOP = 2 ** 17


def _reducing(kernel, name):
    """``kernel`` (mpf_sin or mpf_cos), refusing arguments of magnitude
    2^(2^17) or more: their top bit exp + bc exceeds _TRIG_TOP.
    Infinities and NaN pass, their exponent fields are negative."""
    def checked(u, prec, rnd):
        if u[2] + u[3] > _TRIG_TOP:
            raise DomainError(f"{name} argument beyond 2^{_TRIG_TOP}")
        return kernel(u, prec, rnd)
    return checked


_checked_sin = _reducing(mpf_sin, "sine")
_checked_cos = _reducing(mpf_cos, "cosine")


def _trig_pair():
    """Checked sin and cos kernels for the steps sin(u) and cos(u) of one
    tape on one register, by node class.  They share one mpf_cos_sin
    call per argument through a one-entry memo, keyed by the argument,
    precision and rounding; mpf_sin and mpf_cos are that call, each
    keeping one half, so the values are theirs."""
    memo = [None]

    def cos_sin(u, prec, rnd):
        m = memo[0]
        if m is None or m[0] != u or m[1] != prec or m[2] != rnd:
            m = memo[0] = (u, prec, rnd, mpf_cos_sin(u, prec, rnd))
        return m[3]

    return {Sin: _reducing(lambda *a: cos_sin(*a)[1], "sine"),
            Cos: _reducing(lambda *a: cos_sin(*a)[0], "cosine")}


# ---------------------------------------------------------------------------
# records: the package's value classes, without the cost of dataclasses

class _DataclassFields:
    """``dataclasses.fields`` support for records: the Field objects of a
    dataclass with the record's field names, made on first access per
    class, so that only their readers import dataclasses."""

    def __get__(self, record, cls):
        import dataclasses
        fields = dataclasses.make_dataclass(
            cls.__name__, cls.__match_args__).__dataclass_fields__
        cls.__dataclass_fields__ = fields  # the class's own, from now on
        return fields


def _generated(header, body, namespace):
    """The function that ``header`` defines with the given body lines,
    compiled with ``namespace`` as its globals."""
    source = "\n".join([header, *body])
    exec(compile(source, "<generated>", "exec"), namespace)
    return namespace[header[len("def "):header.index("(")]]


class Record:
    """Base of the package's records, a small stand-in for dataclasses.

    A record's fields are its class's annotated names, after those of its
    bases, and ``__match_args__`` lists them; a class attribute of the same
    name is a field's default.  Each class gets a generated ``__init__``
    whose parameters are its fields, in that order, the defaulted ones
    with their defaults, so a bad call raises Python's own ``TypeError``;
    it sets the fields and then calls ``__post_init__`` where the class
    has one.  Two records are equal when they are of one class with equal
    fields, and one prints as ``Name(field=value, ...)``.  Records are
    frozen and hash by their fields; ``__post_init__`` may check or coerce
    them, and store caches beside them, through ``object.__setattr__``.
    ``==`` and hash walk record fields on an explicit stack, each shared
    record once, and repr on another, each occurrence, so any record that
    can be built compares, hashes and prints without recursion.
    """
    __match_args__ = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls).get("__annotations__", {})
        cls.__match_args__ += tuple(name for name in own
                                    if name not in cls.__match_args__)
        names = cls.__match_args__
        defaults = {name: getattr(cls, name) for name in names
                    if hasattr(cls, name)}
        params = [f"{name}={name}" if name in defaults else name
                  for name in names]
        body = [f" object.__setattr__(self, {name!r}, {name})"
                for name in names]
        if hasattr(cls, "__post_init__"):
            body.append(" self.__post_init__()")
        # the defaults are the globals that the parameter defaults read
        cls.__init__ = _generated(
            f"def __init__({', '.join(['self', *params])}):",
            body or [" pass"], defaults)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        stack, seen = [(self, other)], set()
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if type(a) is not type(b):
                return False
            seen.add((id(a), id(b)))
            for name in a.__match_args__:
                u, v = getattr(a, name), getattr(b, name)
                if isinstance(u, Record) and isinstance(v, Record):
                    stack.append((u, v))
                elif u is not v and not u == v:
                    return False
        return True

    def __hash__(self):
        # post-order: a record is hashed once, after its record fields
        hashes, stack = {}, [(self, False)]  # id(record) -> hash
        while stack:
            record, ready = stack.pop()
            values = [getattr(record, name) for name in record.__match_args__]
            if ready:
                hashes[id(record)] = hash((type(record), *[
                    hashes[id(v)] if isinstance(v, Record) else v
                    for v in values]))
            elif id(record) not in hashes:
                stack.append((record, True))
                stack += [(v, False) for v in values if isinstance(v, Record)]
        return hashes[id(self)]

    def __repr__(self):
        # the dataclass text, from fragments on an explicit stack: a record
        # on top is replaced by its text's fragments, its record fields
        # still records, and each text fragment is joined once at the end
        parts, todo = [], [self]
        while todo:
            item = todo.pop()
            if not isinstance(item, Record):
                parts.append(item)
                continue
            frags = [f"{type(item).__qualname__}("]
            for i, name in enumerate(item.__match_args__):
                v = getattr(item, name)
                frags += (f"{', ' * bool(i)}{name}=",
                          v if isinstance(v, Record) else repr(v))
            todo += reversed([*frags, ")"])
        return "".join(parts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# precedence levels used for parsing and minimal parenthesization
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 9


class Expression(Record):
    """Base class for all nodes; every node is a frozen ``Record``.

    Each node class declares once what the parser, printer, tape and
    ``differentiate`` read: its ``symbol`` (operator or name), precedence
    ``prec``, text ``form`` (one ``{}`` per operand) and operand levels
    ``binds``, tuple ``kernel``, ``native`` float step and ``derivative``
    rule.  A kernel is called k(u, prec, rnd) or k(u, v, prec, rnd) on
    raw ``_mpf_`` tuples; a string names an ``mpmath.ctx_mp_python``
    function, looked up when a tape is built, as perfbench's tracer
    counts calls there.  Literals and x have no kernel and no rule.
    Every domain check is inside a kernel; mpf_div's ZeroDivisionError
    on a zero divisor is the only one that is not a ``DomainError``.  A
    native step is a function on doubles, whose source text in the
    compiled float run is the form; truediv raises on a zero denominator
    and math.sqrt on a negative value, so the tuple run reports both.
    The rule derivative(e, da, db) is d/dx of e, built from its operands'
    derivatives da and db (None for one operand).
    """
    prec, kernel, native, derivative = _PREC_ATOM, None, None, None

    def __str__(self):
        return to_text(self)


class Num(Expression):
    # int for integer literals (exact), str for decimal literals (converted
    # at evaluation precision).  May be negative: unary minus folds in.
    value: object
    # its own text; a negative literal prints its minus, binding as a Neg
    form = property(lambda e: str(e.value))
    prec = property(lambda e: _PREC_NEG if e.form[:1] == "-" else _PREC_ATOM)


class PiConst(Expression):
    symbol = form = "pi"


class Var(Expression):
    symbol = form = "x"


class _Infix(Expression):
    """A binary operator node.  All four associate to the left."""
    left: Expression
    right: Expression


class Add(_Infix):
    symbol, prec, kernel = "+", _PREC_ADD, "mpf_add"
    native, form, binds = operator.add, "{} + {}", (_PREC_ADD, _PREC_MUL)
    derivative = lambda e, da, db: _add(da, db)


class Sub(_Infix):
    symbol, prec, kernel = "-", _PREC_ADD, "mpf_sub"
    native, form, binds = operator.sub, "{} - {}", (_PREC_ADD, _PREC_MUL)
    derivative = lambda e, da, db: _sub(da, db)


class Mul(_Infix):
    symbol, prec, kernel = "*", _PREC_MUL, "mpf_mul"
    native, form, binds = operator.mul, "{} * {}", (_PREC_MUL, _PREC_NEG)
    derivative = lambda e, da, db: _add(_mul(da, e.right), _mul(e.left, db))


class Div(_Infix):
    symbol, prec, kernel = "/", _PREC_MUL, "mpf_div"
    native, form, binds = operator.truediv, "{} / {}", (_PREC_MUL, _PREC_NEG)
    derivative = lambda e, da, db: _div(
        _sub(_mul(da, e.right), _mul(e.left, db)), _pow(e.right, Num(2)))


class Pow(Expression):
    """A power, right-associative: ``x^y^z`` is ``x^(y^z)``."""
    base: Expression
    exponent: Expression
    symbol, prec, kernel = "^", _PREC_POW, _checked_power
    form, binds = "{} ^ {}", (_PREC_ATOM, _PREC_NEG)
    # differentiate refuses x in the exponent
    derivative = lambda e, da, db: _mul(
        _mul(e.exponent, _pow(e.base, _sub(e.exponent, Num(1)))), da)


class _Unary(Expression):
    """A node of one argument: negation, or a function, which binds like
    an atom, is named by its ``symbol`` and binds its argument at 0."""
    arg: Expression
    binds = (0,)


class Neg(_Unary):
    symbol, prec, kernel = "-", _PREC_NEG, "mpf_neg"
    native, form, binds = operator.neg, "-{}", (_PREC_NEG,)
    derivative = lambda e, da, db: _negate(da)


class Sin(_Unary):
    symbol, form, kernel = "sin", "sin({})", _checked_sin
    derivative = lambda e, da, db: _mul(Cos(e.arg), da)


class Cos(_Unary):
    symbol, form, kernel = "cos", "cos({})", _checked_cos
    derivative = lambda e, da, db: _negate(_mul(Sin(e.arg), da))


class Sqrt(_Unary):
    symbol, form, kernel = "sqrt", "sqrt({})", _checked_sqrt
    native = math.sqrt
    derivative = lambda e, da, db: _div(da, _mul(Num(2), Sqrt(e.arg)))


# ---------------------------------------------------------------------------
# tokenizer / parser

# one token per match, the alternatives tried in order: whitespace, a
# number, an identifier, an operator, and any other character, which is
# rejected; \s and \d match what str.isspace() and str.isdecimal() accept
_TOKEN = re.compile(r"(?P<space>\s+)"
                    r"|(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?"
                    r"|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
                    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<op>[-+*/^()])|(?P<other>.)", re.DOTALL)

# the infix node classes by symbol
_INFIX = {c.symbol: c for c in (Add, Sub, Mul, Div, Pow)}
_FUNCTIONS = {c.symbol: c for c in (Sin, Cos, Sqrt)}
_NAMES = {c.symbol: c for c in (PiConst, Var)}


def _decimal(text):
    """The integers man and e of a decimal literal's text, optionally
    after a "-", whose value is man * 10^e: mpmath's split, with the
    fraction's trailing zeros dropped (ValueError past the int-string
    limit).  The parser checks each literal with it, and ``_literal``
    converts from it."""
    significand, _, exponent = text.lower().partition("e")
    whole, _, fraction = significand.partition(".")
    fraction = fraction.rstrip("0")
    man = int("0" + whole.lstrip("-") + fraction)
    return -man if whole[:1] == "-" else man, int(exponent or 0) - len(
        fraction)


def _literal(value, prec):
    """The ``_mpf_`` tuple of a literal's ``value``, an int or a decimal
    literal's text, rounded to nearest at ``prec`` bits as ``mpf`` did
    through mpmath's ``from_str``; past 10^+-400 that rounds twice."""
    if isinstance(value, int):
        return from_int(value, prec, round_nearest)
    man, e = _decimal(value)
    if abs(e) > 400:
        return mpf_mul(from_int(man, prec + 10),
                       mpf_pow_int(ften, e, prec + 10), prec, round_nearest)
    if e >= 0:
        return from_int(man * 10 ** e, prec, round_nearest)
    return from_rational(man, 10 ** -e, prec, round_nearest)


def _tokenize(text):
    """(kind, value, byte offset) tokens of ``text``, ending in "eof"."""
    tokens, off = [], 0
    for m in _TOKEN.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "num":
            integer = lexeme.isdecimal()
            try:
                value = int(lexeme) if integer else lexeme
                if not integer:
                    _decimal(lexeme)
            except ValueError:  # past the interpreter's int-string limit
                what = (f"integer literal of {len(lexeme)} digits" if integer
                        else f"decimal literal of {len(lexeme)} characters")
                raise ParseError(f"{what} is too long", off) from None
            tokens.append((kind, value, off))
        elif kind == "ident":
            tokens.append((kind, lexeme, off))
        elif kind == "op":
            tokens.append((lexeme, lexeme, off))
        elif kind == "other":
            raise ParseError(f"unexpected character {lexeme!r}", off)
        off += len(lexeme.encode("utf-8"))
    tokens.append(("eof", "", off))
    return tokens


def _got(kind, value):
    return "end of input" if kind == "eof" else repr(value)


def parse(text):
    """Parse expression text to a tree.  Raises ParseError on bad input.

    One pass over the tokens by operator precedence, without recursion.
    ``e`` is the operand just read, or None while one is due.  Each
    waiting operator is its precedence and the function of its right
    operand: a node class, with the left operand bound if it is infix, or
    ``_negate`` for a unary minus; an open "(" or function waits at
    precedence 0.  An infix operator first applies the waiting ones of
    its precedence or above, so it is left-associative; ``^`` applies
    none, so it is right-associative, and its exponent is read at
    unary-minus level, as ``-`` binds below it.  Any other token first
    applies those above the innermost open one.
    """
    if not isinstance(text, str):
        raise TypeError("expression source must be a string")
    tokens = _tokenize(text)
    if tokens[0][0] == "eof":
        raise ParseError("empty input", tokens[0][2])
    waiting, e = [], None
    tokens = iter(tokens)
    for kind, value, off in tokens:
        if e is None:
            if kind == "num":
                e = Num(value)
            elif kind == "ident" and value in _NAMES:
                e = _NAMES[value]()
            elif kind == "ident" and value in _FUNCTIONS:
                kind, paren, off = next(tokens)
                if kind != "(":
                    raise ParseError(f"expected '(' after {value}, got "
                                     f"{_got(kind, paren)}", off)
                waiting.append((0, _FUNCTIONS[value]))
            elif kind == "ident":
                raise ParseError(f"unknown identifier {value!r}", off)
            elif kind == "(":
                waiting.append((0, None))
            elif kind == "-":
                waiting.append((_PREC_NEG, _negate))
            else:
                raise ParseError(
                    f"expected expression, got {_got(kind, value)}", off)
            continue
        op = _INFIX.get(kind)
        bound = 1 if op is None else op.prec + (op is Pow)
        while waiting and waiting[-1][0] >= bound:
            e = waiting.pop()[1](e)
        if op is not None:
            waiting.append((op.prec, partial(op, e)))
            e = None
        elif waiting and kind == ")":
            close = waiting.pop()[1]
            e = e if close is None else close(e)
        elif waiting:
            raise ParseError(f"expected ')', got {_got(kind, value)}", off)
        elif kind != "eof":
            raise ParseError(f"unexpected trailing input {value!r}", off)
    return e


# ---------------------------------------------------------------------------
# evaluation: a flat tape of mpmath.libmp kernels over raw _mpf_ tuples

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
    """The points a + k*step for each k of ``ks``, any sequence of
    ascending non-negative ints, as ``_mpf_`` tuples, each rounded as
    ``mpf_add(a, mpf_mul_int(step, k, prec, "n"), prec, "n")``.

    At 53 bits the points are computed as ``ad + k*hd`` on doubles when a
    and step have exact doubles and every k is below 2^53, so an exact
    double too.  Both operations then round once, ties to even, which is
    ``round_nearest`` while their results stay in the normal range: the
    product does, since |k*hd| >= |hd| for k >= 1 and a normal hd, unless
    it overflows.  The points are monotone in k, so the first and the last
    show any overflow; a subnormal point, or an infinite one, hands the
    whole grid to ``_grid_tuples``, which builds it in integers when every
    point is exact and by the formula otherwise.
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
    """``grid`` on tuples, at any precision.  With a and step as integers
    A and S times 2^e, point k is exactly (A + k*S) * 2^e, built once in
    integers and its tuple written straight from that integer, when the
    exponents bound A and the largest k*S within ``prec`` bits (checked
    before any shift, so a step 2^(2^20) bits from a is never shifted)
    and A + k*S fits at the largest k: it is linear in k, so every point
    fits and the formula is exact.  Otherwise each point takes the
    formula."""
    sa, ma, ea, bca = a
    ss, ms, es, bcs = step
    if ms and ks and (ma or a == fzero):
        kmax = ks[-1]
        e = min(ea, es) if ma else es
        if max(ea + bca if ma else e,
               es + bcs + kmax.bit_length()) - e <= prec:
            A = (-ma if sa else ma) << (ea - e) if ma else 0
            S = (-ms if ss else ms) << (es - e)
            if abs(A + kmax * S).bit_length() <= prec:
                points = []
                for k in ks:  # from_man_exp(A + k*S, e), built directly
                    n = A + k * S
                    if n > 0:
                        sign = 0
                    elif n:
                        sign, n = 1, -n
                    else:
                        points.append(fzero)
                        continue
                    zeros = (n & -n).bit_length() - 1
                    n >>= zeros
                    points.append((sign, n, e + zeros, n.bit_length()))
                return points
    return [mpf_add(a, mpf_mul_int(step, k, prec, round_nearest), prec,
                    round_nearest) for k in ks]


def _on_tuples(kernel, unary):
    """A float step that runs ``kernel`` at 53 bits on the exact tuples of
    its operands; ValueError when no double equals the result."""
    if unary:
        return lambda u: _to_double(kernel(_to_tuple(u), 53, round_nearest))
    return lambda u, v: _to_double(kernel(_to_tuple(u), _to_tuple(v), 53,
                                          round_nearest))


# At each precision a tape compiles one program to one Python function at
# its _COMPILE_AFTER-th run there: the float program at 53 bits where the
# tape has one, the tuple run otherwise.  That is about when the time
# compiled runs would have saved equals the time compiling takes (ski
# rental).  Timed with perf_counter on a 2-CPU host, over 511 points for
# each of the built-in integrands' tapes f to f'''' (3 to 110 float
# steps): a float compile takes 0.36 to 2.2 ms, about 0.3 ms plus 17 us a
# step, a compiled run is 0.7 to 8 us faster than an interpreted one, and
# the compile repays itself after 250 to 530 runs.  At 113 and 256 bits a
# tuple compile takes 0.06 to 0.1 ms on atan2's f (3 steps) and 1.4 to
# 2.4 ms on asin6's f'''' (110) and saves 0.5 to 13 us a run, where the
# kernels take 4 to 220 us; it repays itself after 110 to 210 runs.  A
# composite of a few hundred panels gets there; a 257-sample sign check
# alone stays interpreted.
_COMPILE_AFTER = 300


def _normal(regs, products):
    """Whether the registers of a float run that the exponent scan flagged
    are all zero or normal, and no product or quotient of nonzero values
    underflowed to 0."""
    if not math.isfinite(sum(regs)):  # an infinity or a NaN (or huge)
        return False
    if min(filter(None, map(abs, regs)), default=1.0) <= _DBL_MIN:
        return False  # a subnormal
    return not any(not regs[out] and regs[a] and regs[b]
                   for out, a, b in products)


def _compile(program, var, result):
    """The float program of a tape as one generated function of an
    ``_mpf_`` tuple x, answering as ``Tape._run_floats`` does.  Registers
    are locals, native steps their node class's ``form``, and kernel steps
    call the same ``_on_tuples`` closures, in the interpreted loop's order;
    x converts by ``_to_double``'s rule, and the same exponent scan and
    exact checks decide between the result's tuple and None."""
    regs, steps, products, packer = program
    namespace = {"ldexp": math.ldexp, "fzero": fzero, "sqrt": math.sqrt,
                 "pack": packer.pack, "MIDDLE": _MIDDLE, "normal": _normal,
                 "products": products, "to_tuple": _to_tuple}
    written = {var} | {step[0] for step in steps}
    lines = [f" r{r} = {v!r}" for r, v in enumerate(regs) if r not in written]
    if var is not None:
        lines += [" sign, man, exp, bc = x",
                  " if man and bc <= 53 and -1022 <= exp + bc - 1 < 1024:",
                  f"  r{var} = ldexp(-man if sign else man, exp)",
                  " elif x == fzero:", f"  r{var} = 0.0",
                  " else:", "  return None"]
    lines.append(" try:")
    for i, (out, fn, a, b, text) in enumerate(steps):
        if text is None:
            namespace[f"k{i}"] = fn
            text = f"k{i}({{}})" if b is None else f"k{i}({{}}, {{}})"
        lines.append(f"  r{out} = " + text.format(f"r{a}", f"r{b}"))
    every = ", ".join(f"r{r}" for r in range(len(regs)))
    lines += [" except (ArithmeticError, ValueError):", "  return None",
              f" if not pack({every})[{_HIGH}::8].translate(None, MIDDLE)"
              f" or normal([{every}], products):",
              f"  return to_tuple(r{result})"]
    return _generated("def run(x):", lines, namespace)


def _compile_tuples(tape, prec):
    """A tape's tuple run at ``prec`` as one generated function of an
    ``_mpf_`` tuple x, answering as ``Tape.run``'s interpreted loop does
    where that returns, and None where it raises, so that the loop runs
    the point again to name the node and the point.  Registers are
    locals, and literal registers globals of the same names bound to their
    tuples at ``prec``.  Step i calls the same kernel object, the global
    k<i>, in the interpreted loop's order with the precision and the
    rounding mode as constants."""
    values, tail = tape._state(prec).regs, f"{prec}, {round_nearest!r}"
    namespace = {f"r{r}": values[r] for r, _ in tape._literals}
    namespace["DomainError"] = DomainError
    lines = [] if tape._var is None else [f" r{tape._var} = x"]
    lines.append(" try:")
    for i, (out, kernel, a, b, _) in enumerate(tape.steps):
        namespace[f"k{i}"] = kernel
        operands = f"r{a}" if b is None else f"r{a}, r{b}"
        lines.append(f"  r{out} = k{i}({operands}, {tail})")
    lines += [f"  return r{tape.result}",
              " except (DomainError, ZeroDivisionError):", "  return None"]
    return _generated("def run(x):", lines, namespace)


# on the tape builder's stack, the mark above an operator node whose
# operands are pushed above it
_OPERANDS = object()


class _RunState:
    """A tape's run state at one precision: its registers with the
    literals filled, its float program at 53 bits (else None), its runs so
    far and, from the ``_COMPILE_AFTER``-th, its one compiled program."""
    __slots__ = "regs", "floats", "runs", "program"

    def __init__(self, regs, floats):
        self.regs, self.floats, self.runs, self.program = regs, floats, 0, None


class Tape:
    """An expression compiled to flat steps over registers, one register
    per structurally distinct node.  Each step calls an ``mpmath.libmp``
    kernel on raw ``_mpf_`` tuples, rounding to nearest at the ambient
    precision exactly as the matching ``mpf`` operation or ``mp``
    function does.  Steps follow the first-visit post-order of the tree,
    operands left to right, one step per operator node, so values are
    bit-identical to a recursive walk's and the first domain error is the
    one it would raise; the builder walks on an explicit stack, so any
    depth takes the one path.  ``has_x`` tells whether the variable x
    occurs; x and the literals hold registers and no step, and a run
    without x on a tape with x raises before any step.  ``_state``
    builds a precision's run state on its first run there, filling each
    literal by ``_literal`` from the integers of its text and pi by
    ``mpf_pi``.  The sin and cos steps of one register take the kernels
    of one ``_trig_pair``, so one ``mpf_cos_sin`` call serves both; each
    checks its argument first, as the unshared kernel does.  ``run`` is
    the one run method: it takes and returns raw ``_mpf_`` tuples and
    holds the interpreted tuple loop itself.

    One rule puts a tape on doubles at 53 bits: it has a step, and every
    literal has an exact double.  ``run`` then tries its float program
    first: add, sub, mul, div, neg, sqrt and u^2 (u*u) natively, every
    other step through its kernel on exact tuples.  IEEE 754 rounds +, -,
    *, / and sqrt on binary64 correctly, ties to even, which inside the
    normal range [2^-1022, 2^1024) is ``round_nearest`` at 53 bits; so
    the double result is the tuple run's, bit for bit.  The float run
    returns None, and ``run`` goes on to the tuple run that every other
    precision takes, whose value or ``DomainError`` answers, whenever x
    has no exact double (more than 53 bits, or outside the normal range),
    a register ends up subnormal, infinite or NaN, a product or quotient
    of nonzero values is 0, or a float step raises.

    Each precision counts its runs in its ``_RunState`` and compiles one
    program at the ``_COMPILE_AFTER``-th: ``_compile`` the float program,
    at 53 bits where the tape has one, else ``_compile_tuples`` the tuple
    run, each into one straight-line function that returns the run's
    tuple or None.  The float function performs the same float operations
    in the same order and applies the same checks; a float tape's 53-bit
    fallbacks stay on the interpreted tuple loop.  The tuple function
    calls the same kernel objects, which a tracer that rebinds
    ``mpmath.ctx_mp_python`` still counts, and returns None where a
    kernel raises, so that the interpreted loop runs the point again and
    names its node and point.  So the answers are the interpreted loop's,
    and so are the counted calls of every run that returns a value; a
    compiled run that fails makes the calls before its failing step
    twice.  All runs read their steps from the node classes' ``kernel``,
    ``native`` and ``form`` declarations, and call the same kernel
    objects, the pairs' included.
    """

    def __init__(self, e):
        self.nodes = []   # register -> the first node object holding it
        self.steps = []   # (out, kernel, a, b or None if unary, node)
        self._literals = []   # (register, Num or PiConst node)
        self._states = {}     # mp.prec -> its _RunState, from its first run
        self._var = None
        nodes, steps = self.nodes, self.steps
        seen, registers = {}, {}   # id(node), and node key -> register
        trig = {}   # (Sin or Cos, operand register) -> index of its step
        # nodes to visit, each operator node pushed back under _OPERANDS
        # above its operands; done holds the registers of visited operands
        todo, done = [e], []
        pop = todo.pop
        # the build makes no reference cycles, so the passes of the cyclic
        # collector that its many new tuples set off are pure cost
        collecting = gc.isenabled()
        gc.disable()
        try:
            while todo:
                e = pop()
                if e is _OPERANDS:  # the node below's operands are in done
                    e = pop()
                    t = type(e)
                    b = done.pop() if len(t.__match_args__) == 2 else None
                    a = done.pop()
                    key = (t, a, b)
                else:
                    r = seen.get(id(e))
                    if r is not None:
                        done.append(r)
                        continue
                    if not isinstance(e, Expression):
                        raise TypeError(f"not an expression node: {e!r}")
                    t = type(e)
                    names = t.__match_args__
                    if t.kernel is not None:  # 1 or 2 operands, left first
                        if len(names) == 2:
                            todo += (e, _OPERANDS, getattr(e, names[1]),
                                     getattr(e, names[0]))
                        else:
                            todo += (e, _OPERANDS, getattr(e, names[0]))
                        continue
                    # x, or a literal filled in per precision
                    key = (t, getattr(e, names[0])) if names else (t,)
                r = registers.get(key)
                if r is None:
                    r = registers[key] = len(nodes)
                    nodes.append(e)
                    kernel = t.kernel
                    if t is Var:  # the run puts x in its register
                        self._var = r
                    elif kernel is None:
                        self._literals.append((r, e))
                    else:
                        if isinstance(kernel, str):
                            kernel = getattr(mpmath.ctx_mp_python, kernel)
                        elif t is Sin or t is Cos:  # sin and cos of a share
                            partner = Cos if t is Sin else Sin
                            i = trig.get((partner, a))
                            if i is not None:
                                pair = _trig_pair()
                                other = steps[i]
                                steps[i] = (other[0], pair[partner],
                                            *other[2:])
                                kernel = pair[t]
                            trig[t, a] = len(steps)
                        steps.append((r, kernel, a, b, e))
                seen[id(e)] = r
                done.append(r)
        finally:
            if collecting:
                gc.enable()
        self.result = done.pop()
        self.has_x = self._var is not None

    def _state(self, prec):
        """The run state at ``prec``, built on first use: the registers
        with the literals filled, and at 53 bits the float program of a
        tape with steps."""
        state = self._states.get(prec)
        if state is None:
            regs = [None] * len(self.nodes)
            for r, e in self._literals:
                regs[r] = mpf_pi(prec, round_nearest) \
                    if type(e) is PiConst else _literal(e.value, prec)
            floats = self._float_program(regs) \
                if prec == 53 and _FLOAT53 and self.steps else None
            state = self._states[prec] = _RunState(regs, floats)
        return state

    def run(self, x):
        """The value at the ``_mpf_`` tuple ``x`` (None for a constant) at
        the ambient precision, as an ``_mpf_`` tuple.  A tape with x
        refuses None before any run.  The precision's compiled program
        answers where it can, or before it is built, at 53 bits, the
        interpreted float program; then the interpreted loop, one step a
        turn."""
        if x is None and self._var is not None:
            raise DomainError("free variable x in a constant context",
                              self.nodes[self._var])
        prec = mp.prec
        state = self._states.get(prec) or self._state(prec)
        program = state.program
        if program is not None:
            value = program(x)
            if value is not None:
                return value
        else:
            state.runs += 1
            floats = state.floats
            if state.runs == _COMPILE_AFTER:
                state.program = _compile(floats, self._var, self.result) \
                    if floats else _compile_tuples(self, prec)
            if floats:
                value = self._run_floats(floats, x)
                if value is not None:
                    return value
        regs = state.regs.copy()
        if self._var is not None:
            regs[self._var] = x
        try:
            for out, kernel, a, b, e in self.steps:
                if b is None:
                    regs[out] = kernel(regs[a], prec, round_nearest)
                else:
                    regs[out] = kernel(regs[a], regs[b], prec, round_nearest)
        except ZeroDivisionError:  # mpf_div's, on a zero divisor
            reason = "division by zero"
        except DomainError as err:
            reason = err.reason
        else:
            return regs[self.result]
        raise DomainError(reason, e, None if x is None else mp.make_mpf(x))

    def _float_program(self, template):
        """(registers, steps, products, packer) of the float run from the
        53-bit registers ``template``, or None when a literal has no exact
        double.  Steps are (out, fn, a, b or None, source text or None for
        a kernel step), products lists the (out, a, b) of every Mul and
        Div, and packer packs the registers as native doubles."""
        try:
            regs = [0.0 if t is None else _to_double(t) for t in template]
        except ValueError:
            return None
        steps, products = [], []
        for out, kernel, a, b, e in self.steps:
            t = type(e)
            native, text = t.native, t.form
            # u^2 is mpf_pow_int's one correctly rounded product u*u
            if t is Pow and template[b] is not None and regs[b] == 2:
                t, native, text, b = Mul, Mul.native, Mul.form, a
            if native is None:
                native, text = _on_tuples(kernel, b is None), None
            if t is Mul or t is Div:
                products.append((out, a, b))
            steps.append((out, native, a, b, text))
        return regs, steps, products, struct.Struct(f"{len(regs)}d")

    def _run_floats(self, program, x):
        """The 53-bit value at the tuple ``x`` as a tuple from the
        interpreted float ``program``, or None where the tuple run must
        answer instead."""
        regs, steps, products, packer = program
        regs = regs.copy()
        try:
            if self._var is not None:
                regs[self._var] = _to_double(x)
            for out, fn, a, b, _ in steps:
                if b is None:
                    regs[out] = fn(regs[a])
                else:
                    regs[out] = fn(regs[a], regs[b])
        except (ArithmeticError, ValueError):
            return None
        # a quick exponent scan: no register zero, tiny, huge or non-finite
        if not packer.pack(*regs)[_HIGH::8].translate(None, _MIDDLE) or \
                _normal(regs, products):
            return _to_tuple(regs[self.result])
        return None


def eval_expr(e, x, precision=53):
    """Value of ``e`` at ``x``, every operation rounded at ``precision`` bits.

    ``x`` may be an mpmath float (used as given), an int, a Python float,
    a string that ``parse`` reads as one number literal, such as "-.5"
    (these three converted at the requested precision by ``as_mpf``, a
    string as the tape converts a literal, else ValueError), or None for
    a tree without x.
    Raises DomainError, naming the evaluation point, when the value
    leaves the real domain.
    """
    with workprec(precision):
        if isinstance(x, (int, float, str)):
            x = as_mpf(x)
        return +mp.make_mpf(Tape(e).run(None if x is None else x._mpf_))


# ---------------------------------------------------------------------------
# printing: canonical parenthesized infix, inverse of parse()

def to_text(e):
    """Canonical infix text of ``e``, an expression or its ``Tape``;
    parse(to_text(e)) is structurally equal to e.

    One forward pass over the tape's registers, operands first: each
    register's text is its node's ``form`` with its operands' texts filled
    in, an operand in parentheses where its ``prec`` is below the level
    that the node ``binds`` it at.  A text is dropped after its last read,
    so a long sum or a deep nest does not hold every prefix's text.
    """
    tape = e if isinstance(e, Tape) else Tape(e)
    nodes = tape.nodes
    texts = [node.form for node in nodes]
    reads = [0] * len(nodes)
    for _, _, a, b, _ in tape.steps:
        reads[a] += 1
        if b is not None:
            reads[b] += 1
    for out, _, a, b, e in tape.steps:
        parts = []
        for r, level in zip((a, b), e.binds):
            text = texts[r]
            reads[r] -= 1
            if not reads[r]:
                texts[r] = None
            parts.append(f"({text})" if nodes[r].prec < level else text)
        texts[out] = e.form.format(*parts)
    return texts[tape.result]


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
    """d/dx of ``e``, an expression or its ``Tape``, by each node class's
    ``derivative`` rule, with identity simplification.

    One forward pass over the tape's steps, which take each structurally
    distinct node once, operands first: ``ds[r]`` is the derivative of
    register r and ``xs[r]`` whether it holds x, so equal subtrees share
    one derivative.  Power nodes must have a constant exponent: the node
    vocabulary has no logarithm, so d/dx of u(x)^v(x) with x in the
    exponent is not expressible and raises DifferentiationError, naming
    the first such power in step order, the innermost.
    """
    tape = e if isinstance(e, Tape) else Tape(e)
    ds = [Num(0)] * len(tape.nodes)  # a literal's stays Num(0)
    xs = [False] * len(tape.nodes)
    if tape.has_x:
        ds[tape._var], xs[tape._var] = Num(1), True
    for out, _, a, b, e in tape.steps:
        xs[out] = xs[a] or b is not None and xs[b]
        if type(e) is Pow and xs[b]:
            raise DifferentiationError(
                f"cannot differentiate {to_text(e)}: exponent contains x")
        ds[out] = e.derivative(ds[a], None if b is None else ds[b])
    return ds[tape.result]
