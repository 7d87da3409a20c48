"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's evaluation paths: rule
values come from the direct textbook formulas (Simpson through its
endpoint form, not the weighted mean), sums are plain sequential loops,
polynomial integrals are exact rational antiderivatives obtained by
interpolation, and derivatives are checked by central differences.
The last section holds two one-rule shorthands over the package's own
entry points; they are conveniences, not oracles.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mpf

from quadrules.composite import composite_values
from quadrules.expr import Add, Div, Mul, Neg, Num, Pow, Sub, Var
from quadrules.precision import workprec
from quadrules.rules import simple_rule_values


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
    n = degree + 1
    rows = []
    for i in range(n):
        x = Fraction(i)
        rows.append([x ** j for j in range(n)] + [eval_fraction(e, x)])
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
