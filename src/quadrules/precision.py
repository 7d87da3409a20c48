"""Working-precision plumbing shared by the whole package.

Numeric values are mpmath floats: sign, binary significand and exponent,
rounded at the active working precision.  The default precision is 53 bits
(the usual double width).  For a fixed precision every operation here is
deterministic, and mpmath guarantees correct rounding for field operations
and sqrt and faithful, near-correct rounding for the trigonometric
functions.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

# the normal range of a double: 2^-1022 <= |x| < 2^1024
_DOUBLE_MIN, _DOUBLE_OVER = mpf(2) ** -1022, mpf(2) ** 1024


def workprec(bits):
    """Context manager that sets the working precision to ``bits``."""
    if bits < 4:
        raise ValueError(f"precision must be at least 4 bits, got {bits}")
    return mp.workprec(bits)


def pi_at(bits):
    """The constant pi rounded to ``bits`` bits."""
    with workprec(bits):
        return +mp.pi


def as_mpf(x):
    """mpmath float from ``x``; values that already are pass through.

    Converting an existing mpmath float with ``mpf(x)`` would re-round it
    at the ambient precision, silently truncating extended-precision
    values; this helper never does that.
    """
    return x if isinstance(x, mpf) else mpf(x)


def decimal_digits(bits):
    """Decimal digits reliably carried by a ``bits``-bit significand."""
    return int(math.floor(bits * math.log10(2)))


def format_real(x, bits=53):
    """Decimal text for ``x``.

    At 53 bits, reading the text back at 53 bits recovers the value: it is
    the shortest round-tripping double text in the double's normal range,
    and 17 significant digits outside it.  Above 53 bits a fixed significant-
    digit count of ``decimal_digits(bits) - 2`` is printed, which is
    deliberately two digits short of exact round-trip.
    """
    x = as_mpf(x)
    if bits > 53:
        return mp.nstr(x, max(decimal_digits(bits) - 2, 3))
    if fits_double(x):
        return repr(float(x))
    return mp.nstr(x, 17)


def fits_double(x):
    """True when ``float(x)`` keeps x's magnitude: x is zero, non-finite,
    or in the double's normal range."""
    return not x or not mp.isfinite(x) or _DOUBLE_MIN <= abs(x) < _DOUBLE_OVER

