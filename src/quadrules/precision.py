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

# The CLI's cap on --prec, and the highest precision at which an Interval
# tries to tell its endpoints apart.  A 16-panel Simpson rule on sin2 takes
# about 10 s at 2^16 bits on a 2-CPU host; far larger values ask mpmath
# for integers it cannot finish or store.
MAX_BITS = 2 ** 16


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
    values; this helper never does that.  Other values convert at the
    ambient precision, a string only when ``parse`` reads it as one
    number literal, such as "-.5", and then as the tape converts a
    literal (else ValueError).
    """
    if isinstance(x, str):
        from .expr import Num, _literal, parse, to_text  # expr imports this
        e = parse(x)
        if type(e) is not Num:
            raise ValueError(f"not a number literal: {to_text(e)}")
        return mp.make_mpf(_literal(e.value, mp.prec))
    return x if isinstance(x, mpf) else mpf(x)


def decimal_digits(bits):
    """Decimal digits reliably carried by a ``bits``-bit significand."""
    return int(math.floor(bits * math.log10(2)))


# mp.nstr finds a value's power of ten by arithmetic on its binary
# exponent at the exponent's own bit length.  On a 2-CPU host a value near
# 2^(2^64) or 2^(-2^64) prints in 0.3 ms at 53 bits and 0.2 s at 65,536,
# one near 2^(2^1024) in 20 ms and 2.3 s, one near 2^(2^4096) in 0.9 s and
# 11 s.  Values whose binary exponent has more bits than this are refused.
_EXPONENT_BITS = 64


def format_real(x, bits=53):
    """Decimal text for ``x``.

    At 53 bits, reading the text back at 53 bits recovers the value: it is
    the shortest round-tripping double text in the double's normal range,
    and 17 significant digits outside it.  Above 53 bits a fixed significant-
    digit count of ``decimal_digits(bits) - 2`` is printed, which is
    deliberately two digits short of exact round-trip.  A value whose
    binary exponent is 2^64 or more in magnitude raises DomainError.
    """
    x = as_mpf(x)
    _, man, exp, bc = x._mpf_
    if man and abs(exp + bc).bit_length() > _EXPONENT_BITS:
        from .expr import DomainError  # expr imports this module
        raise DomainError(f"cannot print a value whose binary exponent is "
                          f"2^{_EXPONENT_BITS} or more in magnitude")
    if bits > 53:
        return mp.nstr(x, max(decimal_digits(bits) - 2, 3))
    if fits_double(x):
        return repr(float(x))
    return mp.nstr(x, 17)


def point_text(x):
    """``str(x)``, for messages, when x's binary exponent is below 2^64 in
    magnitude, as in ``format_real``.  Beyond that, where ``str`` takes
    seconds, its sign and the binary logarithm of its exponent to six
    digits, as in ``about 2^(2^10000)``."""
    sign, man, exp, bc = as_mpf(x)._mpf_
    if not man or abs(exp + bc).bit_length() <= _EXPONENT_BITS:
        return str(x)
    top = exp + bc - 1  # |x| lies in [2^top, 2^(top + 1))
    shift = abs(top).bit_length() - 53
    log = math.log2(abs(top) >> shift) + shift
    return (f"about {'-' if sign else ''}2^({'-' if top < 0 else ''}"
            f"2^{log:.6g})")


def fits_double(x):
    """True when ``float(x)`` keeps x's magnitude: x is zero, non-finite,
    or in the double's normal range, 2^-1022 <= |x| < 2^1024."""
    _, man, exp, bc = x._mpf_  # zero, inf and nan have no significand
    return not man or -1022 <= exp + bc - 1 < 1024

