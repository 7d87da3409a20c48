"""Companion pairs, associate rules (gcd-weighted means), and brackets.

Two rules of the same degree whose error laws have opposite signs form a
companion pair.  Dividing their error denominators d1 (positive rule)
and d2 (negative rule) by gcd(d1, d2) gives coprime weights (c1, c2), and
the associate rule

    (c1 * X + c2 * Y) / (c1 + c2)

cancels the leading error terms.  Because it is a mean, the associate lies
between X and Y; when the relevant derivative of f keeps one sign on the
interval, the exact integral does too, so [min(X, Y), max(X, Y)] is a
guaranteed enclosure.  ``check_assumption_A`` decides that sign condition
numerically by sampling the symbolic derivative over the integrand's
interval.  Its sample points come from ``quadrules.expr.grid``, on doubles
at 53 bits wherever they round as the tuple formula does, otherwise in
integers wherever every sample is exact, as on a dyadic interval;
its verdict is read from the samples' raw ``_mpf_`` tuples: sign bits, top
bits, and exact magnitude comparisons by ``mpmath.libmp`` kernels where
top bits tie.

``COMPANION_PAIRS`` pairs each positive rule of ``RULES`` with the first
negative rule of its degree, which gives these weights and associates:

    (L, R)   d = (2, 2)       weights (1, 1)   associate T
    (M, T)   d = (24, 12)     weights (2, 1)   associate S
    (T2, S)  d = (1920, 2880) weights (2, 3)   associate Q
"""

from __future__ import annotations

import math
from functools import cmp_to_key

from mpmath import mp
from mpmath.libmp import fzero, mpf_abs, mpf_cmp, mpf_le, mpf_shift

from .expr import DifferentiationError, DomainError, Record, Tape, grid
from .precision import as_mpf, point_text, workprec
from .rules import NEGATIVE, POSITIVE, RULES, RuleSpec, rule_meta


class CompanionPair(Record):
    positive: RuleSpec
    negative: RuleSpec

    def __post_init__(self):
        if self.positive.degree != self.negative.degree:
            raise ValueError("companion rules must share a degree")
        if (self.positive.error_sign, self.negative.error_sign) != \
                (POSITIVE, NEGATIVE):
            raise ValueError("companion pair needs one positive and one "
                             "negative rule, in that order")

    @property
    def derivative_order(self):
        """Order of the f derivative whose sign realizes the bracket."""
        return self.positive.degree + 1

    def weights(self):
        return derive_weights(self.positive.error_denominator,
                              self.negative.error_denominator)


def _companion_pairs():
    for pos in RULES.values():
        neg = next((s for s in RULES.values() if s.error_sign == NEGATIVE
                    and s.degree == pos.degree), None)
        if pos.error_sign == POSITIVE and neg is not None:
            yield CompanionPair(pos, neg)


COMPANION_PAIRS = tuple(_companion_pairs())


def companion_pair(x_rule, y_rule):
    """The known companion pair containing both rules, or None."""
    names = {rule_meta(x_rule).name, rule_meta(y_rule).name}
    for pair in COMPANION_PAIRS:
        if names == {pair.positive.name, pair.negative.name}:
            return pair
    return None


class AssociateWeights(Record):
    c1: int
    c2: int

    def __post_init__(self):
        if self.c1 < 1 or self.c2 < 1:
            raise ValueError("weights must be positive integers")
        if math.gcd(self.c1, self.c2) != 1:
            raise ValueError("weights must be coprime")


def derive_weights(d1, d2):
    """Coprime mean weights (d1/g, d2/g), g = gcd(d1, d2), exact integers.

    d1 belongs to the positive rule of the pair and d2 to the negative
    one; the weights bind to the same operands in ``associate_value``.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError("error denominators must be positive integers")
    g = math.gcd(d1, d2)
    return AssociateWeights(d1 // g, d2 // g)


def associate_value(x_val, y_val, weights):
    """(c1*x + c2*y)/(c1 + c2), clamped into [min(x, y), max(x, y)].

    The mean is computed at a precision wide enough for the operands'
    significands, so no input digits are dropped.  The clamp only absorbs
    final-rounding overshoot of at most one ulp; it keeps the mean's
    containment property exact in floating point.
    """
    x_val, y_val = as_mpf(x_val), as_mpf(y_val)
    if x_val == y_val:
        return x_val
    with workprec(max(53, x_val._mpf_[3], y_val._mpf_[3])):
        v = (weights.c1 * x_val + weights.c2 * y_val) \
            / (weights.c1 + weights.c2)
    lo, hi = min(x_val, y_val), max(x_val, y_val)
    return min(max(v, lo), hi)


class Bracket(Record):
    lo: object
    hi: object

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError("bracket requires lo <= hi")

    def contains(self, value):
        return self.lo <= value <= self.hi

    @property
    def width(self):
        return self.hi - self.lo


def bracket(x_val, y_val):
    """Ordered enclosure [min, max] of two rule values.

    Under a verified sign condition for the companion pair, the exact
    integral lies inside; the nest of these over growing panel counts
    gives ever-tighter bounds.
    """
    x_val, y_val = as_mpf(x_val), as_mpf(y_val)
    if not (mp.isfinite(x_val) and mp.isfinite(y_val)):
        raise ValueError("bracket endpoints must be finite")
    return Bracket(min(x_val, y_val), max(x_val, y_val))


# ---------------------------------------------------------------------------
# numeric sign check for the derivative that controls the error signs

ALL_POSITIVE = "all_positive"
ALL_NEGATIVE = "all_negative"
IDENTICALLY_ZERO = "identically_zero"
SIGN_CHANGE = "sign_change"
UNKNOWN = "unknown"

SAMPLES = 257  # equispaced sign-check points, both endpoints included

_eval = Tape.run  # the sign check's one call per sample goes through here
_BY_MAGNITUDE = cmp_to_key(mpf_cmp)  # orders non-negative tuples exactly

_TAGS = {ALL_POSITIVE: "A+", ALL_NEGATIVE: "A-", IDENTICALLY_ZERO: "A0",
         SIGN_CHANGE: "A!", UNKNOWN: "A?"}


class AssumptionVerdict(Record):
    kind: str
    subinterval: tuple | None = None  # (x_lo, x_hi) bracketing the first flip

    @property
    def tag(self):
        return _TAGS[self.kind]

    @property
    def uniform(self):
        """True when the sampled sign supports a guaranteed bracket."""
        return self.kind in (ALL_POSITIVE, ALL_NEGATIVE, IDENTICALLY_ZERO)

    def __str__(self):
        if self.kind == SIGN_CHANGE and self.subinterval is not None:
            lo, hi = self.subinterval
            return (f"{self.tag} (sign change in [{point_text(lo)}, "
                    f"{point_text(hi)}])")
        return f"{self.tag} ({self.kind})"


def check_assumption_A(f, order, precision=53):
    """Sample the order-th derivative of f and classify its sign.

    The derivative is taken symbolically and evaluated at ``SAMPLES``
    equispaced points a + i*step of ``f.interval``, both endpoints
    included, at p = max(precision, 53) bits.  Samples whose magnitude is
    at most 2^(8-p) times the largest sampled magnitude count as zero.
    That tolerance is at most 2^-45 of the largest sample, which therefore
    always clears it; below 53 bits it could swallow a whole lobe of a
    derivative that changes sign.  Verdicts: all samples
    zero -> identically_zero; strict positives only -> all_positive (zeros
    allowed); strict negatives only -> all_negative; both strict signs ->
    sign_change, carrying the first subinterval between strictly signed
    samples where the flip happens; a derivative that cannot be taken, or
    a sample that is non-finite or outside its domain -> unknown.
    """
    precision = max(precision, 53)
    with workprec(precision):
        a, b = f.interval.bounds()
        step = ((b - a) / (SAMPLES - 1))._mpf_
        xs = grid(a._mpf_, step, range(SAMPLES - 1), precision) + [b._mpf_]
        try:
            tape = f.tape(order)
            values = [_eval(tape, x) for x in xs]
        except (DomainError, DifferentiationError):
            return AssumptionVerdict(UNKNOWN)
    return _sign_verdict(xs, values, precision)


def _sign_verdict(xs, values, precision):
    """The verdict on the samples ``values`` of a derivative at the points
    ``xs``, both lists of ``_mpf_`` tuples, with the zero tolerance of a
    ``precision``-bit check.  The sign is the tuple's sign bit (mpmath has
    no negative zero), and a tuple with a zero mantissa other than
    ``fzero`` is infinite or NaN.  Magnitudes are ordered by their top bit
    exp + bc first: a sample whose top bit is above the tolerance's is
    strictly signed and one below it counts as zero, and only samples that
    share the scale's or the tolerance's top bit are compared exactly, by
    ``mpmath.libmp`` kernels."""
    if any(not v[1] and v != fzero for v in values):
        return AssumptionVerdict(UNKNOWN)
    tops = [v[2] + v[3] if v[1] else -math.inf for v in values]
    top = max(tops)
    if top == -math.inf:
        return AssumptionVerdict(IDENTICALLY_ZERO)
    scale = max((mpf_abs(v) for v, t in zip(values, tops) if t == top),
                key=_BY_MAGNITUDE)
    tol, tol_top = mpf_shift(scale, 8 - precision), top + 8 - precision

    negative = None  # sign bit of the strictly signed samples so far
    for i, (v, t) in enumerate(zip(values, tops)):
        if t < tol_top or t == tol_top and mpf_le(mpf_abs(v), tol):
            continue
        if negative is None:
            negative = v[0]
        elif negative != v[0]:
            return AssumptionVerdict(SIGN_CHANGE, (mp.make_mpf(xs[last]),
                                                   mp.make_mpf(xs[i])))
        last = i  # index of the last strictly signed sample
    return AssumptionVerdict(ALL_NEGATIVE if negative else ALL_POSITIVE)
