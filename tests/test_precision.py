import pytest
from mpmath import mpf

from quadrules.precision import format_real, workprec


def _at53(text):
    with workprec(53):
        return +mpf(text)


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
