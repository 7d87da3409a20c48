"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's evaluation paths: rule
values come from the direct textbook formulas (Simpson through its
endpoint form, not the weighted mean), sums are plain sequential loops,
polynomial integrals are exact rational antiderivatives obtained by
interpolation, derivatives are checked by central differences,
expressions are evaluated by a recursive walk of the tree, literals
converted by ``mpf`` of their text, correct digits are counted by trying
every digit count from the cap down, and the sign check's sample points
are built and classified by mpf operators.  Each rule's error law is
proven from its Peano kernel, with exact rationals only; the kernel reads
the package's rule formulas, which are what it certifies.
Tolerances are counted in ulps by ``ulp``.
The rule kernel is also written out the long way, as the reference for
the package's formula table, the parser as recursive descent, one
method per grammar level, as the reference for the package's precedence
loop, the tape builder, differentiation, printing and the record repr as
recursive walks of the tree, as the references for the package's loops,
argparse, as the reference for the command line's option reader, and a
composite chunk's node list by one membership test per node, as the
reference for its range arithmetic.
The last section holds two one-rule shorthands over the package's own
entry points; they are conveniences, not oracles.
"""

from __future__ import annotations

import argparse
import re
from decimal import ROUND_DOWN, ROUND_HALF_UP
from fractions import Fraction
from math import comb, factorial, floor, log10

import mpmath.ctx_mp_python
from mpmath import mp, mpf

from quadrules.analysis import (_decimal_magnitude, _reference_value,
                                _to_digits)
from quadrules.associate import (ALL_NEGATIVE, ALL_POSITIVE,
                                 IDENTICALLY_ZERO, SAMPLES, SIGN_CHANGE,
                                 UNKNOWN, AssumptionVerdict)
from quadrules.cli import (UsageError, cmd_bracket, cmd_degree,
                           cmd_integrate, cmd_pi, cmd_table)
from quadrules.composite import composite_values
from quadrules.expr import (_FUNCTIONS, _NAMES, _PREC_ADD, _PREC_ATOM,
                            _PREC_MUL, _PREC_NEG, Add, Cos,
                            DifferentiationError, Div, DomainError,
                            Expression, Mul, Neg, Num, ParseError, PiConst,
                            Pow, Record, Sin, Sqrt, Sub, Tape, Var, _add,
                            _div, _mul, _negate, _pow, _sub, _tokenize,
                            _trig_pair, to_text)
from quadrules.precision import MAX_BITS, as_mpf, workprec
from quadrules.rules import rule_values, simple_rule_values


def brute_composite(fcall, a, b, n, names, fpp=None):
    """Composite rule values from direct formulas, plain summation."""
    h = (b - a) / n
    totals = {k: mpf(0) for k in names}
    for i in range(n):
        ai = a + i * h
        bi = a + (i + 1) * h
        w = bi - ai
        m = (ai + bi) / 2
        fa, fb, fm = fcall(ai), fcall(bi), fcall(m)
        per = {
            "L": w * fa,
            "R": w * fb,
            "M": w * fm,
            "T": w / 2 * (fa + fb),
            "S": w / 6 * (fa + 4 * fm + fb),  # endpoint Simpson form
        }
        if fpp is not None:
            per["T2"] = w * fm + w ** 3 / 24 * fpp(m)
            per["Q"] = (2 * per["T2"] + 3 * per["S"]) / 5
        for k in names:
            totals[k] += per[k]
    return totals


def legacy_t2_composite(fcall, fpp, a, b, n):
    """Composite legacy corrected midpoint: h f(mid) + h^2/24 f''(mid).

    This width-squared scaling is not the package's T2 (which uses h^3/24
    and has order 4); it is the variant that carries the (T2, M)
    opposite-sign window quoted for Example 3.  Plain summation.
    """
    h = (b - a) / n
    total = mpf(0)
    for i in range(n):
        m = a + (2 * i + 1) * h / 2
        total += h * fcall(m) + h ** 2 / 24 * fpp(m)
    return total


def central_diff(fcall, x, h):
    return (fcall(x + h) - fcall(x - h)) / (2 * h)


def central_second_diff(fcall, x, h):
    return (fcall(x + h) - 2 * fcall(x) + fcall(x - h)) / (h * h)


# ---------------------------------------------------------------------------
# expression values by a recursive walk of the tree

def tree_eval(e, x):
    """Value of ``e`` at ``x`` (None in a constant context) at the ambient
    precision, every shared subtree evaluated again at each occurrence.

    Operands are evaluated left to right, and a division checks its
    denominator for zero after evaluating both; domain errors name the
    node and x as the package does.  In a constant context a tree that
    contains x raises the free-variable error before anything is
    evaluated.
    """
    if x is None and _contains_x(e):
        raise DomainError("free variable x in a constant context", Var())
    return _walk(e, x)


def _contains_x(e):
    """Whether x occurs in ``e``; a shared subtree is searched once."""
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            return True
        if id(node) not in seen:
            seen.add(id(node))
            stack += [v for v in vars(node).values()
                      if isinstance(v, Expression)]
    return False


def reference_literal(value):
    """A literal's ``value``, an int or a decimal literal's text, as an
    mpf at the ambient precision: ``mpf`` of the int or of the text, with
    a 0 put after any leading minus, since mpmath refuses ".0" and
    "-.0", whose significands have no digit left once its split drops
    trailing zeros of the fraction."""
    if isinstance(value, str):
        value = re.sub("^-?", r"\g<0>0", value)
    return mpf(value)


def _walk(e, x):
    if isinstance(e, Num):
        return reference_literal(e.value)
    if isinstance(e, PiConst):
        return +mp.pi
    if isinstance(e, Var):
        return x
    if isinstance(e, Add):
        return _walk(e.left, x) + _walk(e.right, x)
    if isinstance(e, Sub):
        return _walk(e.left, x) - _walk(e.right, x)
    if isinstance(e, Mul):
        return _walk(e.left, x) * _walk(e.right, x)
    if isinstance(e, Div):
        num, den = _walk(e.left, x), _walk(e.right, x)
        if den == 0:
            raise DomainError("division by zero", e, x)
        return num / den
    if isinstance(e, Pow):
        base = _walk(e.base, x)
        expo = _walk(e.exponent, x)
        if base == 0 and expo < 0:
            raise DomainError("zero raised to a negative power", e, x)
        if base < 0 and not mp.isint(expo):
            raise DomainError("fractional power of a negative base", e, x)
        # the package's bound on integer exponents, lifted for bases whose
        # significand is one bit: powers of two, +-1
        if mp.isint(expo) and abs(expo) >= 2 ** 128 and \
                base._mpf_[3] > 1:
            raise DomainError("integer exponent of 2^128 or more", e, x)
        # and on fractional ones, lifted for the bases 0 and 1 only
        if mp.isfinite(expo) and not mp.isint(expo) and \
                abs(expo) >= 2 ** 128 and base not in (0, 1):
            raise DomainError("fractional exponent of 2^128 or more", e, x)
        return base ** expo
    if isinstance(e, Neg):
        return -_walk(e.arg, x)
    if isinstance(e, Sin):
        return mp.sin(_walk(e.arg, x))
    if isinstance(e, Cos):
        return mp.cos(_walk(e.arg, x))
    if isinstance(e, Sqrt):
        v = _walk(e.arg, x)
        if v < 0:
            raise DomainError("square root of a negative value", e, x)
        return mp.sqrt(v)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# random polynomial trees with a tracked degree bound

def random_poly_tree(rng, max_degree=6, max_depth=4):
    """A random polynomial expression tree and an upper degree bound."""

    def leaf(budget):
        if budget >= 1 and rng.random() < 0.6:
            return Var(), 1
        return Num(rng.randint(-4, 4)), 0

    def gen(depth, budget):
        if depth <= 0 or rng.random() < 0.2:
            return leaf(budget)
        op = rng.choice(("add", "sub", "mul", "mul", "neg", "pow"))
        if op in ("add", "sub"):
            left, dl = gen(depth - 1, budget)
            right, dr = gen(depth - 1, budget)
            node = Add(left, right) if op == "add" else Sub(left, right)
            return node, max(dl, dr)
        if op == "mul":
            split = rng.randint(0, budget)
            left, dl = gen(depth - 1, split)
            right, dr = gen(depth - 1, budget - split)
            return Mul(left, right), dl + dr
        if op == "neg":
            child, d = gen(depth - 1, budget)
            if isinstance(child, Num):  # parser folds -literal, mirror that
                return Num(-child.value), d
            return Neg(child), d
        k = rng.randint(2, 3)
        if budget < k:
            return leaf(budget)
        child, d = gen(depth - 1, budget // k)
        return Pow(child, Num(k)), d * k

    return gen(max_depth, max_degree)


def eval_fraction(e, x):
    """Exact rational evaluation (polynomial node subset only)."""
    if isinstance(e, Num):
        if not isinstance(e.value, int):
            raise TypeError("only integer literals are exact")
        return Fraction(e.value)
    if isinstance(e, Var):
        return x
    if isinstance(e, Add):
        return eval_fraction(e.left, x) + eval_fraction(e.right, x)
    if isinstance(e, Sub):
        return eval_fraction(e.left, x) - eval_fraction(e.right, x)
    if isinstance(e, Mul):
        return eval_fraction(e.left, x) * eval_fraction(e.right, x)
    if isinstance(e, Div):
        den = eval_fraction(e.right, x)
        return eval_fraction(e.left, x) / den
    if isinstance(e, Neg):
        return -eval_fraction(e.arg, x)
    if isinstance(e, Pow):
        if not (isinstance(e.exponent, Num)
                and isinstance(e.exponent.value, int)
                and e.exponent.value >= 0):
            raise TypeError("only nonnegative integer powers are exact")
        return eval_fraction(e.base, x) ** e.exponent.value
    raise TypeError(f"not a polynomial node: {e!r}")


def poly_coefficients(e, degree):
    """Exact coefficients via interpolation at 0..degree."""
    return interpolate([(Fraction(i), eval_fraction(e, Fraction(i)))
                        for i in range(degree + 1)])


def interpolate(points):
    """Coefficients, lowest degree first, of the polynomial through the
    rational points (x, y), by Gauss-Jordan elimination."""
    n = len(points)
    rows = [[x ** j for j in range(n)] + [y] for x, y in points]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [v / pv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w
                           for v, w in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def exact_poly_integral(e, degree, a, b):
    """Exact integral of a polynomial tree over [a, b] (a, b rational)."""
    coeffs = poly_coefficients(e, degree)
    return sum((c * (b ** (i + 1) - a ** (i + 1)) / (i + 1)
                for i, c in enumerate(coeffs)), Fraction(0))


def mpf_from_fraction(fr, bits):
    with workprec(bits + 32):
        v = mpf(fr.numerator) / mpf(fr.denominator)
    with workprec(bits):
        return +v


# ---------------------------------------------------------------------------
# the rule kernel written out
#
# Each rule's weighted-mean inputs are listed and closed over, the nodes
# the closure reads are fetched in the order f(a), f(b), f(m), f''(m),
# and every formula is guarded by the closure.

BUILT_FROM = {"S": ("M", "T"), "Q": ("T2", "S"), "T2": ("M",)}


def reference_rule_values(names, w, node):
    """The rules ``names`` on one interval of width ``w``, from the node
    reader ``node(j, order)`` of ``quadrules.rules.rule_values``."""
    closed = set(names)
    stack = list(closed)
    while stack:
        for dep in BUILT_FROM.get(stack.pop(), ()):
            if dep not in closed:
                closed.add(dep)
                stack.append(dep)
    fa = node(0, 0) if "L" in closed or "T" in closed else None
    fb = node(2, 0) if "R" in closed or "T" in closed else None
    fm = node(1, 0) if "M" in closed else None
    fpp = node(1, 2) if "T2" in closed else None
    vals = {}
    if "L" in closed:
        vals["L"] = w * fa
    if "R" in closed:
        vals["R"] = w * fb
    if "M" in closed:
        vals["M"] = w * fm
    if "T" in closed:
        vals["T"] = w / 2 * (fa + fb)
    if "S" in closed:
        vals["S"] = (2 * vals["M"] + vals["T"]) / 3
    if "T2" in closed:
        vals["T2"] = vals["M"] + w ** 3 / 24 * fpp
    if "Q" in closed:
        vals["Q"] = (2 * vals["T2"] + 3 * vals["S"]) / 5
    return {name: vals[name] for name in names}


# ---------------------------------------------------------------------------
# the parser by recursive descent, one method per level of the grammar in
# quadrules.expr's docstring, over the package's tokens

# the infix node classes by precedence, then by symbol
_INFIX_LEVELS = {prec: {c.symbol: c for c in (Add, Sub, Mul, Div)
                        if c.prec == prec} for prec in (_PREC_ADD, _PREC_MUL)}


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

    def parse(self):
        if self.peek()[0] == "eof":
            raise ParseError("empty input", self.peek()[2])
        e = self.expr()
        kind, value, off = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {value!r}", off)
        return e

    def expr(self, prec=_PREC_ADD):
        """Operands joined left to right by the infix operators of ``prec``,
        each operand parsed at the next level; past the infix levels, a
        negation or a power."""
        ops = _INFIX_LEVELS.get(prec)
        if ops is None:
            if self.peek()[0] == "-":
                self.advance()
                return _negate(self.expr(prec))
            return self.power()
        e = self.expr(prec + 1)
        while self.peek()[0] in ops:
            e = ops[self.advance()[0]](e, self.expr(prec + 1))
        return e

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Pow(base, self.expr(_PREC_NEG))
        return base

    def atom(self):
        kind, value, off = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "ident" and value not in _FUNCTIONS:
            if value in _NAMES:
                return _NAMES[value]()
            raise ParseError(f"unknown identifier {value!r}", off)
        if kind == "ident":
            self.expect("(", f"'(' after {value}")
        elif kind != "(":
            got = "end of input" if kind == "eof" else repr(value)
            raise ParseError(f"expected expression, got {got}", off)
        e = self.expr()
        self.expect(")", "')'")
        return _FUNCTIONS[value](e) if kind == "ident" else e


def reference_parse(text):
    """``expr.parse`` by recursive descent: the same tree, or a ParseError
    with the same text and offset."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# differentiation by a recursive walk of the tree, each node object once

def reference_differentiate(e):
    """``expr.differentiate`` as a recursive walk: a structurally equal
    derivative, or a DifferentiationError that names the outermost power
    with x in its exponent, where the package names the innermost."""
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


# ---------------------------------------------------------------------------
# printing by a recursive walk of the tree

def reference_to_text(e, ctx=0):
    """``expr.to_text`` as a recursive walk: the text of ``e``,
    parenthesized where it binds below ``ctx``."""
    if isinstance(e, (Add, Sub, Mul, Div)):
        text = (f"{reference_to_text(e.left, e.prec)} {e.symbol} "
                f"{reference_to_text(e.right, e.prec + 1)}")
    elif isinstance(e, Neg):
        text = f"{e.symbol}{reference_to_text(e.arg, e.prec)}"
    elif isinstance(e, (Sin, Cos, Sqrt)):
        text = f"{e.symbol}({reference_to_text(e.arg)})"
    elif isinstance(e, Pow):
        text = (f"{reference_to_text(e.base, _PREC_ATOM)} {e.symbol} "
                f"{reference_to_text(e.exponent, _PREC_NEG)}")
    elif isinstance(e, Num):
        text = str(e.value)
    elif isinstance(e, (PiConst, Var)):
        text = e.symbol
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({text})" if _binding(e) < ctx else text


def _binding(e):
    """The level ``e`` binds at; a negative literal prints with a leading
    minus, and parses like a Neg."""
    if isinstance(e, Num):
        value = e.value
        negative = value < 0 if isinstance(value, int) else \
            value.startswith("-")
        return _PREC_NEG if negative else _PREC_ATOM
    return e.prec


# ---------------------------------------------------------------------------
# the record repr as a recursive walk, one frame per level

def reference_repr(record):
    """``repr`` of a ``Record`` as the dataclass text, each record field
    by a recursive call: ``Name(field=value, ...)``."""
    fields = [getattr(record, name) for name in record.__match_args__]
    text = ", ".join(
        f"{name}={reference_repr(v) if isinstance(v, Record) else repr(v)}"
        for name, v in zip(record.__match_args__, fields))
    return f"{type(record).__qualname__}({text})"


# ---------------------------------------------------------------------------
# the tape builder as a recursive walk of the tree, one frame per level

def reference_tape(e):
    """``expr.Tape(e)`` built by a recursive walk: a tape with the same
    node object in each register, the same steps, kernels and sin/cos
    pairs, literals, x register and result, or the same TypeError."""
    tape = Tape.__new__(Tape)
    tape.nodes, tape.steps, tape._literals = [], [], []
    tape._states, tape._var = {}, None
    seen, registers = {}, {}

    def visit(e):
        r = seen.get(id(e))
        if r is not None:
            return r
        if not isinstance(e, Expression):
            raise TypeError(f"not an expression node: {e!r}")
        t = type(e)
        kernel, names = t.kernel, t.__match_args__
        a = b = None
        if kernel is None:  # x, or a literal filled in per precision
            key = (t, *[getattr(e, f) for f in names])
        else:
            a = visit(getattr(e, names[0]))
            if len(names) == 2:
                b = visit(getattr(e, names[1]))
            key = (t, a, b)
        r = registers.get(key)
        if r is None:
            r = registers[key] = len(tape.nodes)
            tape.nodes.append(e)
            if t is Var:
                tape._var = r
            elif kernel is None:
                tape._literals.append((r, e))
            else:
                if isinstance(kernel, str):
                    kernel = getattr(mpmath.ctx_mp_python, kernel)
                elif t is Sin or t is Cos:
                    partner = Cos if t is Sin else Sin
                    other = registers.get((partner, a, None))
                    if other is not None:
                        pair = _trig_pair()
                        i = [step[0] for step in tape.steps].index(other)
                        tape.steps[i] = (other, pair[partner],
                                         *tape.steps[i][2:])
                        kernel = pair[t]
                tape.steps.append((r, kernel, a, b, e))
        seen[id(e)] = r
        return r

    tape.result = visit(e)
    tape.has_x = tape._var is not None
    return tape


# ---------------------------------------------------------------------------
# a composite chunk's node list, one membership test per node

def reference_chunk_nodes(bounds, start, stop, panels, midpoints):
    """The node indices k of panels ``start`` to ``stop - 1`` of
    ``panels`` that the composite pass evaluates, ascending: each boundary
    (even k) that the range ``bounds`` holds, and each midpoint (odd k)
    when ``midpoints``; the last chunk reaches k = 2 * panels."""
    return [k for k in range(2 * start, 2 * stop + (stop == panels))
            if k in bounds or k % 2 and midpoints]


# ---------------------------------------------------------------------------
# error laws from Peano kernels, exactly
#
# A rule of degree m on [0, 1] has the error E(f) = integral(K f^(m+1))
# with the Peano kernel K(t) = E[(x - t)_+^m] / m!.  When K keeps one sign,
# E(f) = f^(m+1)(xi) * integral(K) for some xi, which is the rule's error
# law with d = 1/|integral(K)|.  The rules read nodes 0, 1/2 and 1 only, so
# K is one polynomial of degree <= m+1 on each of [0, 1/2] and [1/2, 1].

KERNEL_PIECES = ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)))


def exact_rule_value(name, b, f, fpp):
    """Exact value of the package's rule ``name`` on [0, b] for the f and
    f'' given as functions of a rational x."""
    xs = (Fraction(0), b / 2, b)
    return rule_values((name,), b,
                       lambda j, order: fpp(xs[j]) if order else f(xs[j]))[name]


def _kernel_at(name, m, t):
    def f(x):  # (x - t)_+^m; x == t never happens at the sampled t
        return (x - t) ** m if x > t else Fraction(0)

    def fpp(x):
        return m * (m - 1) * (x - t) ** (m - 2) if x > t else Fraction(0)

    error = (1 - t) ** (m + 1) / (m + 1) - exact_rule_value(
        name, Fraction(1), f, fpp)
    return error / factorial(m)


def peano_kernel(name, m):
    """The two pieces of the order-m Peano kernel of rule ``name``, as
    coefficient lists, lowest degree first, on ``KERNEL_PIECES``.

    Each piece is interpolated from m+2 points strictly inside it and
    checked at one more, which fails if a rule reads another node.
    """
    pieces = []
    for lo, hi in KERNEL_PIECES:
        ts = [lo + (hi - lo) * Fraction(i + 1, m + 4) for i in range(m + 3)]
        coeffs = interpolate([(t, _kernel_at(name, m, t)) for t in ts[:-1]])
        t = ts[-1]
        if sum(c * t ** j for j, c in enumerate(coeffs)) \
                != _kernel_at(name, m, t):
            raise ValueError(f"{name}: the kernel is not one polynomial "
                             f"on [{lo}, {hi}]")
        pieces.append(coeffs)
    return pieces


def _bernstein(coeffs, lo, hi):
    """Bernstein coefficients on [lo, hi] of a polynomial in t."""
    n = len(coeffs) - 1
    # power coefficients of p(lo + (hi - lo) u) in u
    shifted = [sum(c * comb(j, i) * lo ** (j - i)
                   for j, c in enumerate(coeffs) if j >= i)
               * (hi - lo) ** i for i in range(n + 1)]
    return [sum(Fraction(comb(i, j), comb(n, j)) * shifted[j]
                for j in range(i + 1)) for i in range(n + 1)]


def _sign_on(b, depth):
    """+1 or -1 when the polynomial with Bernstein coefficients ``b`` keeps
    that weak sign on its interval, else None (after ``depth`` halvings)."""
    if all(c >= 0 for c in b) and any(b):
        return 1
    if all(c <= 0 for c in b) and any(b):
        return -1
    if depth == 0:
        return None
    left, right, row = [], [], list(b)  # de Casteljau split at the middle
    while row:
        left.append(row[0])
        right.append(row[-1])
        row = [(p + q) / 2 for p, q in zip(row, row[1:])]
    signs = {_sign_on(left, depth - 1), _sign_on(right[::-1], depth - 1)}
    return signs.pop() if len(signs) == 1 else None


def kernel_sign(pieces, depth=24):
    """+1 or -1 when the kernel is proven to keep that sign on [0, 1]
    (zeros allowed), else None."""
    signs = {_sign_on(_bernstein(c, lo, hi), depth)
             for c, (lo, hi) in zip(pieces, KERNEL_PIECES)}
    return signs.pop() if len(signs) == 1 else None


def kernel_integral(pieces):
    """The exact integral of the kernel over [0, 1]."""
    return sum((c * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
                for coeffs, (lo, hi) in zip(pieces, KERNEL_PIECES)
                for j, c in enumerate(coeffs)), Fraction(0))


# ---------------------------------------------------------------------------
# the sign check on mpf objects: the grid by mpf operators, the verdict by
# mpf abs, max and comparisons

def check_assumption_A_mpf(f, order, precision=53):
    """``associate.check_assumption_A`` with its sample grid a + i*step
    built by mpf operators and its samples classified as mpf objects.  The
    samples themselves come from the package's tape, which ``tree_eval``
    checks elsewhere."""
    precision = max(precision, 53)
    with workprec(precision):
        a, b = f.interval.bounds()
        step = (b - a) / (SAMPLES - 1)
        xs = [a + step * i for i in range(SAMPLES - 1)] + [b]
        try:
            tape = f.tape(order)
            values = [mp.make_mpf(tape.run(x._mpf_)) for x in xs]
        except (DomainError, DifferentiationError):
            return AssumptionVerdict(UNKNOWN)
        return sign_verdict_mpf(xs, values, precision)


def sign_verdict_mpf(xs, values, precision):
    """The verdict on the mpf samples ``values`` at the mpf points ``xs``,
    with the zero tolerance of a ``precision``-bit check."""
    with workprec(precision):
        if not all(mp.isfinite(v) for v in values):
            return AssumptionVerdict(UNKNOWN)
        scale = max(abs(v) for v in values)
        if scale == 0:
            return AssumptionVerdict(IDENTICALLY_ZERO)
        tol = scale * mpf(2) ** (8 - precision)

        positive = None  # sign of the strictly signed samples so far
        for i, v in enumerate(values):
            if abs(v) <= tol:
                continue
            if positive is None:
                positive = v > 0
            elif positive != (v > 0):
                return AssumptionVerdict(SIGN_CHANGE, (xs[last], xs[i]))
            last = i  # index of the last strictly signed sample
        return AssumptionVerdict(ALL_POSITIVE if positive else ALL_NEGATIVE)


# ---------------------------------------------------------------------------
# digit counting by a scan of every digit count from the cap down

def digits_correct_full_scan(value, reference, precision=53):
    """``analysis.digits_correct`` without its starting bound: every d
    from the precision cap down is tried."""
    cap = int(floor(precision * log10(2))) + 1
    value = as_mpf(value)
    ref = _reference_value(reference, precision + 64)

    if value == ref:
        return cap
    if (value > 0) != (ref > 0):  # a zero is handled by the digit test
        return 0

    v, r = _decimal_magnitude(value), _decimal_magnitude(ref)
    for d in range(cap, 0, -1):
        if _to_digits(v, d, ROUND_HALF_UP) == _to_digits(r, d, ROUND_DOWN):
            return d
    return 0


# ---------------------------------------------------------------------------
# tolerances in units in the last place

def ulp(x, bits):
    """Unit in the last place of ``x`` at a ``bits``-bit significand.

    For x == 0 this returns the ulp of 1, which is the conventional
    absolute floor when a relative spacing is meaningless.
    """
    x = as_mpf(x)
    if x == 0:
        return mpf(2) ** (1 - bits)
    if not mp.isfinite(x):
        raise ValueError("ulp of a non-finite value")
    _, man, exp, bc = x._mpf_
    return mpf(2) ** (exp + bc - bits)


# ---------------------------------------------------------------------------
# the command line, read by argparse

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _precision(text):
    try:
        bits = int(text)
    except ValueError:
        bits = None
    if bits is None or not 4 <= bits <= MAX_BITS:
        raise argparse.ArgumentTypeError(
            f"precision must be an integer from 4 to {MAX_BITS} bits, "
            f"got {text!r}")
    return bits


def reference_parser():
    """The argparse parser that read ``quad``'s command line before its
    option tables: the same namespace, or a UsageError with the same
    text, for every command line whose values do not start with "-"
    (argparse reads most of those as options, unless joined to their
    option by "=")."""
    parser = _ArgumentParser(prog="quad",
                             description="companion/associate quadrature")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(func, help, integrand=True):
        p = subs.add_parser(func.__name__[len("cmd_"):], help=help)
        p.set_defaults(func=func)
        if integrand:
            p.add_argument("--integrand", required=True,
                           help="built-in name or expression in x")
            p.add_argument("--a")
            p.add_argument("--b")
        return p

    p = command(cmd_integrate, "apply one composite rule")
    p.add_argument("--rule", default="S")
    p.add_argument("--panels", default="1")

    p = command(cmd_bracket, "two-rule enclosure of the integral")
    p.add_argument("--pair", default="L,R", help="two rule names, e.g. L,R")
    p.add_argument("--panels", default="1")

    p = command(cmd_table, "convergence table over panel counts")
    p.add_argument("--rules", default="L,R,M,T,S,T2")
    p.add_argument("--panels", default="2^0..2^10")

    p = command(cmd_degree, "exact-rational degree probe", integrand=False)
    p.add_argument("--rule", required=True)

    p = command(cmd_pi, "the three built-in pi integrals", integrand=False)
    p.add_argument("--example", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--rule", default="S")
    p.add_argument("--panels", default=None)

    # added last, so an ambiguous prefix --p lists --panels before --prec
    for p in subs.choices.values():
        p.add_argument("--prec", type=_precision, default=53,
                       help=f"working precision in bits, 4 to "
                            f"{MAX_BITS} (default 53)")
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text",
                       help="output format: text, csv or json "
                            "(default text)")
    return parser


# ---------------------------------------------------------------------------
# one-rule shorthands over the package's own entry points (not oracles)

def simple_value(name, f, precision=53):
    """The package's simple rule ``name`` on f's whole interval."""
    with workprec(precision):
        a, b = f.interval.bounds()
        return simple_rule_values(f, a, b, (name,))[name]


def composite_value(name, f, panels, precision=53):
    """The package's composite rule ``name`` over ``panels`` panels of f's
    interval."""
    return composite_values(f, f.interval, (name,), panels, precision)[name]
