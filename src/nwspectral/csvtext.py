"""Exact "%.17g" text of float64 columns from whole-array numpy passes.

A finite nonzero v is written from its decimal exponent X and its 17
significant digits N = round(|v| 10^(16-X)), an integer in [10^16, 10^17).
N is a double-double product: |v| times a (hi, lo) pair for 10^(16-X),
by Dekker's two-product with a Veltkamp split. Its absolute error is below
1e-13, so frac > 0.5 decides the rounding wherever |frac - 0.5| > 1e-6.
Values inside that margin (it holds the exact ties, which "%.17g" rounds
half-even) and finite nonzero values with |v| outside [1e-270, 1e270]
(where the product's low parts leave the normal range) go to the scalar
`fmt17`. Zeros, nan (of either sign, written "nan") and infinities stay
on the vectorised path.

Text is held in slots: a (slot, value) uint8 matrix whose column is one
value's text, left to right, with 0 in unused slots. Each pass runs along
the long axis, and a value's text is the nonzero bytes of its column.
"""

import functools

import numpy as np

BLOCK = 4096          # values per pass; bounds the temporaries
_LIMIT = 1e270        # |v| in [1/_LIMIT, _LIMIT] takes the vectorised path
_XMAX = 272           # table rows cover X in [-_XMAX, _XMAX]
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_E16, _E17 = 10 ** 16, 10 ** 17

# slots of one value: sign, "0.000" prefix, 17 digits and a point, exponent
_SIGN, _PREFIX, _MANT, _EXP = 0, slice(1, 6), slice(6, 24), slice(24, 29)
WIDTH = 29
_SPECIALS = ("nan", "inf", "-inf")


def fmt17(value):
    """One value as "%.17g" text, which every vectorised value matches."""
    return "%.17g" % float(value)


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _tables():
    """Power, digit and layout tables, built once on first use from exact
    integers. Tables indexed by X hold row X + _XMAX."""
    xs = range(-_XMAX, _XMAX + 1)
    # 10^(16-X) as a (hi, lo) pair, both correctly rounded
    hi, lo = [], []
    for x in xs:
        if x <= 16:
            exact = 10 ** (16 - x)
            hi.append(float(exact))
            lo.append(float(exact - int(hi[-1])))
        else:
            m = 10 ** (x - 16)
            hi.append(1 / m)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * m) / (den * m))
    hi = np.array(hi)
    power = (hi,) + _split(hi) + (np.array(lo),)

    # q digits go before the point (q = 17: no point); at least keep_min
    # digits are written (the integer part of a fixed-point value); the
    # "0.000" prefix fills bytes 0-4 and the exponent bytes 8-12 of affix
    point = np.ones(len(xs), dtype=np.uint8)
    keep_min = np.zeros(len(xs), dtype=np.uint8)
    affix = np.zeros((len(xs), 16), dtype=np.uint8)
    for i, x in enumerate(xs):
        if 0 <= x < 17:
            point[i] = keep_min[i] = x + 1
        elif -4 <= x < 0:
            point[i] = 17
            text = "0." + "0" * (-x - 1)
            affix[i, :len(text)] = list(text.encode())
        else:
            text = "e%+03d" % x
            affix[i, 8:8 + len(text)] = list(text.encode())

    g = np.arange(10000, dtype=np.uint16)
    digits = np.array([g // 1000, g // 100 % 10, g // 10 % 10, g % 10],
                      dtype=np.uint8).T + np.uint8(ord("0"))
    zeros = ((g % 10 == 0).astype(np.uint8) + (g % 100 == 0)
             + (g % 1000 == 0) + (g == 0))
    specials = np.zeros((WIDTH, len(_SPECIALS)), dtype=np.uint8)
    for i, text in enumerate(_SPECIALS):
        specials[:len(text), i] = list(text.encode())
    return {"power": power, "point": point, "keep_min": keep_min,
            "affix": affix,
            "digits": np.ascontiguousarray(digits).view(np.uint32).ravel(),
            "zeros": zeros, "specials": specials}


def _scaled(a, x, power):
    """|v| 10^(16-X) as hi + lo, hi = fl(a 10^(16-X)), by a two-product."""
    row = x + _XMAX
    b, bh, bl, b_lo = (table.take(row) for table in power)
    hi = a * b
    ah, al = _split(a)
    err = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi, err + a * b_lo


def _outside(hi, lo):
    """Masks of hi + lo below 10^16 and at or above 10^17."""
    return ((hi < _E16) | ((hi == _E16) & (lo < 0)),
            (hi > _E17) | ((hi == _E17) & (lo >= 0)))


def _digits(v, power):
    """X, N and the slow mask of one block. X and N hold where not slow;
    0.0 gets N = 0, and other values outside the vectorised range get the
    X and N of 2.0."""
    a = np.abs(v)
    fast = (a >= 1.0 / _LIMIT) & (a <= _LIMIT)
    slow = ~fast & (a != 0)
    a = np.where(fast, a, 2.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, x, power)
    # log10 can miss by one next to a power of ten
    near = np.flatnonzero((hi < 1.000001 * _E16) | (hi > 0.999999 * _E17))
    if near.size:
        down, up = _outside(hi[near], lo[near])
        xn = x[near] + up - down
        hn, ln = _scaled(a[near], xn, power)
        x[near], hi[near], lo[near] = xn, hn, ln
        down, up = _outside(hn, ln)
        slow[near[down | up]] = True
    floor = np.floor(lo)
    frac = lo - floor
    slow |= np.abs(frac - 0.5) <= _TIE_MARGIN
    n = hi.astype(np.int64) + (floor + (frac > 0.5)).astype(np.int64)
    n *= v != 0
    carry = np.flatnonzero(n == _E17)
    n[carry] = _E16
    x[carry] += 1
    return x, n, slow


def slots(values):
    """(WIDTH, len(values)) uint8 slots holding "%.17g" of every value."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty((WIDTH, values.size), dtype=np.uint8)
    for start in range(0, values.size, BLOCK):
        _fill(out[:, start:start + BLOCK], values[start:start + BLOCK])
    return out


def rows(*columns):
    """CSV rows of equal-length slot columns, joined by "," and ended by
    CRLF, as bytes."""
    parts = []
    for start in range(0, columns[0].shape[1], BLOCK):
        block = [c[:, start:start + BLOCK] for c in columns]
        # slots empty in every row of the block are left out
        used = [np.flatnonzero(c.any(axis=1)) for c in block]
        m = np.empty((sum(map(len, used)) + len(block) + 1,
                      block[0].shape[1]), dtype=np.uint8)
        at = 0
        for c, k in zip(block, used):
            np.take(c, k, axis=0, out=m[at:at + len(k)])
            m[at + len(k)] = ord(",")
            at += len(k) + 1
        m[at - 1:] = np.array([[ord("\r")], [ord("\n")]], dtype=np.uint8)
        m = m.T.copy()
        parts.append(m[m != 0])
    return b"".join(parts)


def _fill(out, v):
    """Write the slots of one block of values into out."""
    tab = _tables()
    x, n, slow = _digits(v, tab["power"])
    row = x + _XMAX

    # N = d0 g1 g2 g3 g4, four-digit groups after the leading digit
    top = n // 10 ** 8
    low = n - top * 10 ** 8
    d0 = top // 10 ** 8
    g1 = top - d0 * 10 ** 8
    g2 = g1 % 10 ** 4
    g1 //= 10 ** 4
    g3 = low // 10 ** 4
    g4 = low - g3 * 10 ** 4
    zeros = tab["zeros"]
    trailing = zeros.take(g4)
    run = np.flatnonzero(g4 == 0)
    for g in (g3, g2, g1):
        g = g[run]
        trailing[run] += zeros.take(g)
        run = run[g == 0]
    q = tab["point"][row]
    keep = np.maximum(17 - trailing, tab["keep_min"][row])
    end = keep + (keep > q)  # mantissa length, point included

    # digit j of N sits in row j + 1 of buf; rows 0 and 18 stay 0
    cols = v.size
    buf = np.zeros((19, cols), dtype=np.uint8)
    buf[1] = d0.astype(np.uint8) + np.uint8(ord("0"))
    for i, g in enumerate((g1, g2, g3, g4)):
        buf[2 + 4 * i:6 + 4 * i] = \
            tab["digits"].take(g).view(np.uint8).reshape(cols, 4).T
    j = np.arange(18, dtype=np.uint8)[:, None]
    # mantissa slot j: digit j before the point, digit j - 1 after it
    # (uint8 sums wrap, so the difference adds back to buf[:18] exactly)
    mant = buf[:18] - buf[1:]
    mant *= (j > q).view(np.uint8)
    mant += buf[1:]
    mant.reshape(-1)[q.astype(np.intp) * cols + np.arange(cols)] = ord(".")
    mant *= (j < end).view(np.uint8)

    affix = tab["affix"].take(row, axis=0)
    out[_SIGN] = np.signbit(v) * np.uint8(ord("-"))
    out[_PREFIX] = affix[:, :5].T
    out[_MANT] = mant
    out[_EXP] = affix[:, 8:13].T

    if slow.any():
        special = np.flatnonzero(~np.isfinite(v))
        if special.size:
            code = np.where(np.isnan(v[special]), 0,
                            1 + np.signbit(v[special]))
            out[:, special] = tab["specials"][:, code]
        for i in np.flatnonzero(slow & np.isfinite(v)):
            text = fmt17(v[i]).encode()
            out[:, i] = 0
            out[:len(text), i] = list(text)
