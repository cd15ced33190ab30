"""The vectorised "%.17g" text of csvtext against Python's own formatting,
value by value: random bit patterns, powers of ten and their neighbours,
exact ties, the ends of the double range and non-finite values."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nwspectral import csvtext


def _texts(values):
    """csvtext's text of each value, one per CSV row."""
    body = csvtext.rows(csvtext.slots(values)).decode("ascii")
    assert body.endswith("\r\n")
    return body[:-2].split("\r\n")


def _assert_matches(values):
    values = np.asarray(values, dtype=np.float64)
    want = ["%.17g" % v for v in values.tolist()]
    got = _texts(values)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def _neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # past the largest double is inf
        return np.concatenate([values, np.nextafter(values, math.inf),
                               np.nextafter(values, -math.inf)])


def test_random_bit_patterns():
    rng = np.random.default_rng(20201)
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64,
                        endpoint=False)
    _assert_matches(bits.view(np.float64))


def test_scaled_normals():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-30, 30,
                                                                 20_000)
    _assert_matches(values)


def test_powers_of_ten_and_neighbours():
    powers = np.array([float("1e%d" % k) for k in range(-323, 309)])
    _assert_matches(np.concatenate([_neighbours(powers),
                                    -_neighbours(powers)]))


def test_exact_ties_round_half_even():
    # r / 2^(j+1) with r odd is a double whose 17-digit scaling
    # r 5^j / 2 ends in exactly .5
    rng = np.random.default_rng(3)
    ties = [12345678901234.0625, 12345678901234.1875]
    for j in range(1, 25):
        lo, hi = -(-2 * 10 ** 16 // 5 ** j), min(2 * 10 ** 17 // 5 ** j,
                                                 2 ** 53)
        for r in rng.integers(lo, hi, 50).tolist():
            if (r | 1) < hi:
                ties.append((r | 1) / 2 ** (j + 1))
    assert _texts([12345678901234.0625, 12345678901234.1875]) == [
        "12345678901234.062", "12345678901234.188"]
    _assert_matches(ties)


def test_range_ends_and_non_finite_values():
    ends = _neighbours([5e-324, 2.2250738585072014e-308, 1e-270, 1e270,
                        1.7976931348623157e308])
    values = np.concatenate([ends, -ends,
                             [0.0, -0.0, math.nan, -math.nan, math.inf,
                              -math.inf]])
    _assert_matches(values)
    assert _texts([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]) \
        == ["0", "-0", "nan", "nan", "inf", "-inf"]


def test_blocks_and_columns_join_into_rows():
    x = np.linspace(-3.0, 3.0, 2 * csvtext.BLOCK + 5)
    u = np.exp(-x * x)
    body = csvtext.rows(csvtext.slots(x), csvtext.slots(-x),
                        csvtext.slots(u))
    want = "".join("%.17g,%.17g,%.17g\r\n" % (a, -a, b)
                   for a, b in zip(x, u))
    assert body == want.encode()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float_matches(values):
    _assert_matches(values)
