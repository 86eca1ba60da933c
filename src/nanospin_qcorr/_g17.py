"""format(x, ".17g") for a float64 array at once.

``format_g17`` gives, for every double, the bytes of Python's
``format(x, ".17g")``.  It takes an array of any shape and can write into a
given array (``out=``), such as the CSV writer's strided view of the value
cells in its row buffer.  The CSV writer in ``cli`` imports this module on
its first write: ``verify`` and JSON sweeps need none of it.

A cell is CELL_WORDS uint64 words of text in fixed slots, with zero bytes
between and after the slots' text; the writer drops the zero bytes.  Word 0
holds the sign and the "0.000" lead of a fixed cell below 1; words 1-3 the
digits before the point (d0-d7, d8-d15, d16) and the point (byte 7 of
word 3); words 4-5 the digits d1-d16 after it; word 6 "e+dd" or "e+ddd",
and the CSV separator "," in its byte 7.  A zero cell is the constant "0,"
or "-0,".  The digits split into the groups d0-d3, d4-d7, d8-d11, d12-d15
and d16 by floor division and a multiply-subtract, and each word of a cell
is one 1-D gather from its own contiguous table row (words 1-5 ANDed with a
mask row).
"""

from __future__ import annotations

import numpy as np

__all__ = ["CELL_BYTES", "CELL_WORDS", "format_g17"]

CELL_WORDS = 7
CELL_BYTES = 8 * CELL_WORDS
_X_MIN, _X_MAX = -290, 300  # decimal exponents the tables below cover
_DEKKER = 134217729.0  # 2**27 + 1


def _split(x):
    # Dekker's split: hi + lo == x, each with at most 26 significant bits.
    t = _DEKKER * x
    hi = t - (t - x)
    return hi, x - hi


def _two_product(a, b, b_split):
    # a b == p + e exactly (Dekker), b_split = _split(b).
    p, (ah, al), (bh, bl) = a * b, _split(a), b_split
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _pow10_table():
    # 10^k as hi + lo for k in [_X_MIN, _X_MAX]: hi is 10^k rounded and lo
    # is 10^k - hi rounded, both from exact integer ratios (int / int rounds
    # correctly), so hi + lo is within 2^-104 of 10^k (tested).
    hi, lo = [], []
    for k in range(_X_MIN, _X_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        a, b = (num / den).as_integer_ratio()
        hi.append(a / b)
        lo.append((num * b - a * den) / (den * b))
    return np.array(hi), np.array(lo)


def _text_tables():
    # Per 4-digit group g: its ASCII digits (bytes 0-3 of a word) and its
    # length without trailing zeros, 4 j + that as the j-th group of the 17
    # digits (0 for 0000), one row per j.  Per decimal exponent: words 0 and
    # 6 (the comma in its byte 7), one row each, and the digits before the
    # point (0: all of them).
    # Per digit count n_int before the point and digits kept, 1..17 each:
    # the masks of words 1-5, one row each.
    d = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # the digits of g
    digits = np.ascontiguousarray((d + np.uint8(48)).T).view(np.uint32)[:, 0]
    last = ((d != 0) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(0)
    length = (last + 4 * np.arange(4, dtype=np.uint8)[:, None]) * (last > 0)
    x = np.arange(_X_MIN, _X_MAX + 1)
    m, fixed = np.abs(x), (x >= -4) & (x < 17)
    zone = np.zeros((2, len(x), 8), np.uint8)
    zone[0, :, 1:6] = np.frombuffer(b"0.000", np.uint8) * (
        np.arange(5) < np.where(fixed & (x < 0), 1 - x, 0)[:, None]
    )
    sign, hundreds = np.where(x < 0, 45, 43), (48 + m // 100) * (m >= 100)
    exp = [np.full(len(x), 101), sign, hundreds, 48 + m // 10 % 10, 48 + m % 10]
    zone[1, :, :5] = np.stack(exp, 1) * ~fixed[:, None]
    zone[1, :, 7] = ord(",")
    n_int = np.where(fixed, np.where(x >= 0, x + 1, 0), 1).astype(np.int8)
    # The digit index of each byte of words 1-5; 17 is the point, -1 unused.
    index = np.full((5, 8), -1)
    index[:2] = np.arange(16).reshape(2, 8)
    index[2, [0, 7]] = 16, 17
    index[3:] = np.arange(1, 17).reshape(2, 8)
    n, k = np.arange(18)[:, None, None, None], np.arange(18)[:, None, None]
    before = np.where(index == 17, k > n, (index >= 0) & (index < n))
    after = (index >= n) & (index < k)
    keep = np.concatenate([before[..., :3, :], after[..., 3:, :]], -2)
    masks = (keep.astype(np.uint8) * 255).view(np.uint64)[..., 0].reshape(-1, 5)
    masks = np.ascontiguousarray(masks.T)
    return digits.astype(np.uint64), length, zone.view(np.uint64)[..., 0], n_int, masks


_P10_HI, _P10_LO = _pow10_table()
_P10_HH, _P10_HL = _split(_P10_HI)
# The least double >= 10^k: |v| < 10^k exactly when |v| < _P10_UP[k].
_P10_UP = np.where(_P10_LO > 0.0, np.nextafter(_P10_HI, np.inf), _P10_HI)
_DIGITS, _LENGTH, _ZONE, _N_INT, _MASKS = _text_tables()
_D16 = np.arange(48, 58, dtype=np.uint64) | np.uint64(ord(".") << 56)
_SIGN = np.array([0, ord("-")], np.uint64)
# The cell of 0.0 (-0.0 adds the sign), and a cell as one item.
_ZERO = np.zeros(CELL_WORDS, np.uint64)
_ZERO[1], _ZERO[6] = ord("0"), ord(",") << 56
_CELL = np.dtype((np.void, CELL_BYTES))


def format_g17(x, out=None):
    """format(v, ".17g") of each v in the float64 array x, as x.shape + (7,) uint64.

    The bytes of cell i, zero bytes dropped, are format(x[i], ".17g") and a
    comma, the cell's last byte.  The cells go to ``out`` when it is given:
    a uint64 array of that shape whose last axis is contiguous, such as a
    strided view of a row buffer.  Zero cells take _ZERO; the others run as
    a chunk of their own.  The decimal exponent X is floor(log10|v|),
    corrected against the table of powers of ten.  The 17-digit significand
    D = round-half-even(|v| 10^(16-X)) comes from Dekker's exact product of
    |v| with 10^(16-X) as a double-double, with an error below 2^-45.
    Python formats a cell whose product lies within 2^-36 of a rounding tie,
    and one with |v| outside [1e-280, 1e280] (where the split could leave
    the normal range), inf or nan.
    """
    if out is None:
        out = np.empty(x.shape + (CELL_WORDS,), np.uint64)
    nonzero = x != 0.0
    if not nonzero.all():
        cells = out.view(_CELL)[..., 0]
        cells[...] = _ZERO.view(_CELL)
        np.copyto(out[..., 0], _SIGN[1], where=np.signbit(x))
        cells[nonzero] = format_g17(x[nonzero]).view(_CELL)[:, 0]
        return out
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280)
    a = np.where(ok, a, 1.0)
    X = np.log10(a).astype(np.intp) - _X_MIN  # the floor, or 1 above it
    X -= a < _P10_UP[X]
    X += a >= _P10_UP[X + 1]
    k = 16 - 2 * _X_MIN - X  # the table index of 10^(16 - exponent)
    p, r = _two_product(a, _P10_HI[k], (_P10_HH[k], _P10_HL[k]))
    r += a * _P10_LO[k]
    near = np.rint(r)
    python = ~ok | (np.abs(r - near) > 0.5 - 2.0**-36)
    # p >= 2^53 is an even integer, so p + round(r) is D rounded half-even.
    D = p.astype(np.int64) + near.astype(np.int64)
    up = D == 10**17
    X += up
    D[up] = 10**16
    # d0-d3, d4-d7, d8-d11, d12-d15 and d16 (np.divmod is several times slower).
    hi = D // 10**9
    lo = D - hi * 10**9
    mid = lo // 10
    d16 = lo - mid * 10
    g0, g2 = hi // 10**4, mid // 10**4
    g1, g3 = hi - g0 * 10**4, mid - g2 * 10**4
    A = _DIGITS[g0] | (_DIGITS[g1] << np.uint64(32))
    B = _DIGITS[g2] | (_DIGITS[g3] << np.uint64(32))
    C = _D16[d16]
    s = np.maximum(np.maximum(_LENGTH[0][g0], _LENGTH[1][g1]), _LENGTH[2][g2])
    s = np.where(d16 > 0, 17, np.maximum(s, _LENGTH[3][g3]))
    # The point follows digit n_int - 1, if more digits are kept.
    n_int = _N_INT[X]
    n_int = np.where(n_int > 0, n_int, s)
    kept = n_int.astype(np.intp) * 18 + np.maximum(s, n_int)
    np.bitwise_or(_ZONE[0][X], _SIGN[np.signbit(x).view(np.uint8)], out=out[..., 0])
    after = [(w >> np.uint64(8)) | (v << np.uint64(56)) for w, v in ((A, B), (B, C))]
    for j, (word, mask) in enumerate(zip([A, B, C, *after], _MASKS), 1):
        np.bitwise_and(word, mask[kept], out=out[..., j])
    out[..., 6] = _ZONE[1][X]
    text = out.view(np.uint8)
    for i in zip(*np.nonzero(python)):
        cell = format(float(x[i]), ".17g").encode()
        text[i] = 0
        text[i][: len(cell)] = np.frombuffer(cell, np.uint8)
        text[i][-1] = ord(",")
    return out
