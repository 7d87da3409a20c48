import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from quadrules.expr import DomainError
from quadrules.precision import (fits_double, format_real, point_text,
                                 workprec)


def _at53(text):
    with workprec(53):
        return +mpf(text)


def _old_fits_double(x):
    # the comparison of mpfs that fits_double replaced
    return (not x or not mp.isfinite(x)
            or mpf(2) ** -1022 <= abs(x) < mpf(2) ** 1024)


@pytest.mark.parametrize("value", [
    mpf(0), mpf(2) ** -1022, -mpf(2) ** -1022,
    mpf(2) ** -1022 - mpf(2) ** -1074,   # the largest subnormal
    mpf(2) ** 1024 - mpf(2) ** 971,      # the largest finite double
    mpf(2) ** 1024, mp.inf, -mp.inf, mp.nan,
], ids=["0", "2^-1022", "-2^-1022", "largest_subnormal", "largest_double",
        "2^1024", "inf", "-inf", "nan"])
def test_fits_double_reads_the_range_from_the_exponent(value):
    assert fits_double(value) == _old_fits_double(value)


@pytest.mark.parametrize("value", [
    _at53("1e400"), _at53("-1e400"), _at53("1e-400"),
    3 * mpf(2) ** -1070,                  # subnormal as a double
    mpf(2) ** 1024,                       # just past the largest double
    mpf(2) ** -1023,                      # just below the normal range
], ids=["1e400", "-1e400", "1e-400", "subnormal", "2^1024", "2^-1023"])
def test_values_outside_the_double_range_round_trip(value):
    text = format_real(value)
    assert "inf" not in text
    assert _at53(text) == value


@pytest.mark.parametrize("value", [
    _at53("0.1"), _at53("-3.141592653589793"), mpf(0), mpf(2) ** -1022,
    (2 - mpf(2) ** -52) * mpf(2) ** 1023,  # the largest double
])
def test_doubles_print_shortest_round_trip_text(value):
    text = format_real(value)
    assert text == repr(float(value))
    assert _at53(text) == value


@pytest.mark.parametrize("bits", [53, 256])
def test_binary_exponents_from_2_to_the_64_are_refused(bits):
    # the top bit exp + bc of 3 * 2^exp is exp + 2
    def top(t):
        return mp.make_mpf(from_man_exp(3, t - 2))

    for t in (2 ** 64 - 1, 1 - 2 ** 64):
        assert "e" in format_real(top(t), bits)
    for t in (2 ** 64, -2 ** 64, 2 ** 200):
        with pytest.raises(DomainError, match="2\\^64 or more"):
            format_real(top(t), bits)


def test_point_text_bounds_the_exponents_format_real_refuses():
    # the top bit exp + bc of 3 * 2^exp is exp + 2, and |x| lies in
    # [2^(top - 1), 2^top)
    def top(t, sign=1):
        return sign * mp.make_mpf(from_man_exp(3, t - 2))

    for t in (2 ** 64 - 1, 1 - 2 ** 64, 5, 0):
        assert point_text(top(t)) == str(top(t))
    for x in (mpf(0), mp.inf, -mp.inf, mp.nan):
        assert point_text(x) == str(x)
    assert point_text(top(2 ** 64 + 1)) == "about 2^(2^64)"
    assert point_text(top(2 ** 10000 + 1, -1)) == "about -2^(2^10000)"
    assert point_text(top(1 - 2 ** 70)) == "about 2^(-2^70)"
