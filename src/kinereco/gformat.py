"""``"%.<p>g" % x`` for arrays of floats, with numpy.

Python's ``%`` rounds |x| to p significant digits correctly, ties to even
on the exact binary value.  :func:`format_g` gets the same digits without a
decimal conversion: with e = floor(log10|x|) and k = p - 1 - e in [0, 22],
10**k is exact, so the Dekker/Veltkamp TwoProduct gives |x| * 10**k exactly
as s + err (Dekker 1971, "A floating-point technique for extending the
available precision"), and the p digits are the integer nearest to that
sum.  Cells with k outside [0, 22] (|x| < 10**(p - 23) or |x| >= 10**p),
NaN and the infinities are formatted by ``%``.

``ingest.write_table`` imports this module for the first table it formats
with it, so a process that writes none does not load it.
"""

from __future__ import annotations

import functools

import numpy as np

#: The largest p format_g takes: an integer part of p digits, its sign and
#: the separator before it fit in the 16 bytes before the point.
MAX_DIGITS = 14
#: Veltkamp's splitter for float64: 2**27 + 1.
_SPLITTER = 134217729.0
_POW10 = 10.0 ** np.arange(23)
_POW10_U64 = 10 ** np.arange(20, dtype=np.uint64)
#: Bytes per cell that format_g returns.  Bytes 0-15 hold the integer part,
#: right-aligned; byte 16 the point; bytes 17-35 the fraction, left-aligned.
#: The sign and the separator go just in front of the integer part, an
#: exponent just after the trimmed fraction, and the caller drops the NUL
#: bytes.
_CELL = 36


@functools.cache
def _digit_groups():
    """Three tables of 4-byte ASCII groups of four digits, indexed by the
    group's value, and by value + 10000 where its zeros are blanked (NUL):
    a fraction's last nonzero group without its trailing zeros (the groups
    after it are blank), an integer part's first group without its leading
    zeros (the groups before it are blank), and the same for the units
    group, which keeps a single 0."""
    value = np.arange(10000)
    digit = np.stack([value // 1000, value // 100 % 10, value // 10 % 10,
                      value % 10], axis=1)
    ascii = (digit + 48).astype(np.uint8)
    nonzero = digit != 0
    leading = np.cumsum(nonzero, axis=1) == 0
    trailing = np.cumsum(nonzero[:, ::-1], axis=1)[:, ::-1] == 0

    def table(blank):
        return np.concatenate([ascii, np.where(blank, 0, ascii)]).view(
            np.uint32).ravel()

    units = leading.copy()
    units[:, 3] = False
    return table(trailing), table(leading), table(units)


_EXPONENTS = np.frombuffer("".join("e%+03d" % x for x in range(-30, 31))
                           .encode("ascii"), np.uint8).reshape(-1, 4)


def _two_product_error(a, b, s):
    """a * b - s, exactly, for s = fl(a * b) (Dekker 1971), without FMA."""
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLITTER * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return a_lo * b_lo - (((s - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _decade(a):
    """floor(log10(a)) of positive finite floats: log10 rounds, so it may be
    one off near a power of ten, which format_g checks and mends."""
    return np.floor(np.log10(a)).astype(np.int64)


def format_g(x, p: int, seps) -> np.ndarray:
    """The bytes of ``"%.<p>g" % v`` for each float64 cell ``v`` of ``x``,
    each preceded by its byte of ``seps`` (0: none), for 1 <= p <= MAX_DIGITS:
    one row of ``_CELL`` bytes per cell, padded with NUL bytes, so that
    ``cells[cells != 0]`` is the text."""
    n = len(x)
    a = np.abs(x)
    zero = a == 0
    finite = np.isfinite(a) & ~zero
    e = _decade(np.where(finite, a, 1.0))
    vector = (finite & (e >= p - 23) & (e < p)) | zero
    a[~vector | zero] = 1.0
    e[~vector] = 0
    scale = np.take(_POW10, p - 1 - e)
    s = a * scale
    # The exact product must lie in [10**(p-1), 10**p).  Where s is on a
    # bound, the exact product is within half an ulp of it, and either e
    # rounds to the same p digits: 10**(p-1), or 10**p, which carries.
    below, above = s < _POW10[p - 1], s > _POW10[p]
    fix = np.flatnonzero(below | above)
    if len(fix):
        e[fix] += above[fix].astype(np.int64) - below[fix]
        k = p - 1 - e[fix]
        vector[fix] &= (k >= 0) & (k <= 22)
        scale[fix] = _POW10[np.clip(k, 0, 22)]
        s[fix] = a[fix] * scale[fix]
    e[~vector] = 0
    # Round to the nearest integer, ties to even.  half = s - floor(s) - 0.5
    # is exact, and the exact product's fraction exceeds a half where half
    # exceeds -err, which differs from half > 0 only within an ulp of s.
    whole = np.floor(s)
    half = s - whole
    half -= 0.5
    digits = whole.astype(np.int64)
    up = half > 0
    near = np.flatnonzero(np.abs(half) <= np.spacing(s))
    if len(near):
        err = -_two_product_error(a[near], scale[near], s[near])
        half = half[near]
        up[near] = (half > err) | ((half == err) & (digits[near] % 2 == 1))
    digits += up
    carry = digits == 10 ** p
    digits[carry] = 10 ** (p - 1)
    e += carry
    digits[~vector | zero] = 0
    # The point splits the p digits after e + 1 of them in fixed notation
    # (-4 <= e < p, the rule of %g), after the first in exponent notation.
    exponent = (e < -4) | (e >= p)
    frac_digits = np.where(exponent, p - 1, p - 1 - e)
    # The quotient of a p-digit integer by 10**f is an integer or at least
    # 10**-p of one away, so its floor is exact.  The fraction is scaled to
    # 19 digits, left-aligned from byte 17.
    exact = digits.astype(np.float64)
    unit = np.take(_POW10, frac_digits)
    whole = np.floor(exact / unit)
    frac = (exact - whole * unit).astype(np.uint64)
    frac *= np.take(_POW10_U64, 19 - frac_digits)
    whole = whole.astype(np.int64)
    int_digits = np.where(exponent | (e < 0), 1, e + 1)
    top = int(int_digits.max(initial=1))

    trail_groups, lead_groups, unit_groups = _digit_groups()
    groups = np.zeros((n, _CELL // 4), np.uint32)
    # The integer part's groups, from its first possible one on.
    first = (16 - top) // 4
    values = []
    for _ in range(3 - first):
        rest = whole // 10000
        values.append(whole - rest * 10000)
        whole = rest
    values.append(whole)
    blank = True
    for j, value in zip(range(first, 4), reversed(values)):
        table = unit_groups if j == 3 else lead_groups
        groups[:, j] = np.take(table, value + blank * 10000)
        blank = blank & (value == 0)
    # The fraction's groups, from byte 16, which the point replaces, to its
    # last possible digit.
    last = (16 + int(frac_digits.max(initial=0))) // 4
    frac //= _POW10_U64[4 * (8 - last)]
    blank = True
    for j in range(last, 3, -1):
        rest = frac // np.uint64(10000)
        value = (frac - rest * np.uint64(10000)).astype(np.intp)
        groups[:, j] = np.take(trail_groups, value + blank * 10000)
        blank = blank & (value == 0)
        frac = rest
    cells = groups.view(np.uint8)
    cells[:, 16] = np.where(blank, 0, 46)
    flat = cells.reshape(-1)
    at = np.arange(15, n * _CELL, _CELL) - int_digits
    neg = np.signbit(x)
    flat[at] = np.where(neg, 45, 0)
    flat[at - neg] = seps
    ex = np.flatnonzero(exponent & vector)
    if len(ex):
        at = ex * _CELL + 16 + np.count_nonzero(cells[ex, 16:], axis=1)
        text = _EXPONENTS[e[ex] + 30]
        for j in range(4):
            flat[at + j] = text[:, j]
    fb = np.flatnonzero(~vector)
    if len(fb):
        fmt = f"%.{p}g"
        text = [(chr(sep) if sep else "") + fmt % v
                for sep, v in zip(seps[fb].tolist(), x[fb].tolist())]
        cells[fb] = np.array(text, dtype=f"S{_CELL}").view(np.uint8).reshape(
            -1, _CELL)
    return cells
