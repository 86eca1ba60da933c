"""The CSV formatter against Python: format(v, ".17g") is the reference."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nanospin_qcorr import _g17
from nanospin_qcorr._g17 import format_g17


def _texts(values):
    # The formatter's cells, one string each.
    cells = format_g17(np.asarray(values, dtype=float))
    cells[:, -1] ^= np.uint64((ord(",") ^ ord("\n")) << 56)  # each ends in ","
    text = cells.view(np.uint8).ravel()
    return text[text != 0].tobytes().decode().splitlines()


def _assert_exact(values):
    got = _texts(values)
    want = [format(v, ".17g") for v in np.asarray(values, dtype=float).tolist()]
    bad = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1))
def test_any_floats(values):
    _assert_exact(values)


def test_random_bit_patterns():
    rng = np.random.default_rng(20240917)
    for _ in range(16):
        bits = rng.integers(0, 2**64, 62_500, dtype=np.uint64, endpoint=False)
        _assert_exact(bits.view(np.float64))


def _powers_of_ten():
    return np.array([float(f"1e{k}") for k in range(-310, 309)])


def test_boundaries():
    p10 = _powers_of_ten()
    p10 = p10[p10 > 0]
    values = [p10, np.nextafter(p10, np.inf), np.nextafter(p10, 0.0)]
    values.append(
        [
            # The fixed/exponent switches, each side.
            1e-5, 9.9999999999999991e-06, 1e-4, 9.9999999999999991e-05,
            9.9999999999999999e-05, 1e16, 9999999999999998.0, 1e17,
            99999999999999984.0, 1.0000000000000002e17,
            # Three-digit exponents.
            1e100, 1.5e-100, 2.4247657066047952e-210, 2.5e250, -3.3e-300,
            # Ties at the 18th digit, and the usual suspects.
            1.0 + 2.0**-17, 0.5, 2.5, 1e23, 0.1, 1.0 / 3.0,
            5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            0.0, -0.0, math.inf, -math.inf, math.nan,
        ]
    )
    values = np.concatenate([np.ravel(v) for v in values])
    _assert_exact(np.concatenate([values, -values]))


def test_boundaries_include_values_that_round_up_a_decade():
    # Doubles just below 10^k whose 17 digits round up to 10^17: the exponent
    # moves up by one, as %g's does.
    up = [
        v
        for k, v in zip(range(-310, 309), _powers_of_ten().tolist())
        if 0 < v and Fraction(v) < Fraction(10) ** k and format(v, ".17g")[:2] == "1e"
    ]
    assert len(up) > 10
    _assert_exact(up)


def _digits(v):
    # The 17 significant digits of format(v, ".17g").
    text = format(abs(v), ".16e")
    return text[0] + text[2:18]


def test_digit_split_edges():
    # The 17 digits split into the groups d0-d3, d4-d7, d8-d11, d12-d15 and
    # the digit d16.  Each target puts 0000 or 9999 into group j (the first
    # holds d0 >= 1, so 1000 is its least), alone or with the same digit
    # after it, and ends in d16 = 0 or 9.  Where a 1 leads, doubles lie at
    # most 5 units of d16 apart, so the 19 around each target reach its
    # group, and d16 takes both edges.  The exponents take the fixed form
    # (-4 to 16) and the exponent form, each with both signs.
    base = "1234567812345678"
    targets = [
        (j, base[: 4 * j] + group + rest + d16)
        for j in range(4)
        for fill, group in (("0", "1000" if j == 0 else "0000"), ("9", "9999"))
        for rest in (base[4 * j + 4 :], fill * (12 - 4 * j))
        for d16 in "09"
    ]
    steps = np.arange(-9, 10)
    for x in (-4, -1, 0, 7, 16, -5, 17, -123, 250):
        centres = np.array([float(f"{t[0]}.{t[1:]}e{x}") for _, t in targets])
        values = (centres[:, None] + np.spacing(centres)[:, None] * steps).ravel()
        digits = [_digits(v) for v in values.tolist()]
        for j, t in targets:
            assert any(d[4 * j : 4 * j + 4] == t[4 * j : 4 * j + 4] for d in digits)
        # At x = 16 the doubles are even integers, so d16 is even.
        assert {d[16] for d in digits} >= ({"0"} if x == 16 else {"0", "9"})
        assert ("e" in format(centres[0], ".17g")) == (x < -4 or x > 16)
        _assert_exact(np.concatenate([values, -values]))
    # D = 10^16 after a decade round-up: a double just below 10^k whose 17
    # digits round up to 10^17.  None lies in the fixed form's range.
    up = [
        v
        for k, v in zip(range(-310, 309), _powers_of_ten().tolist())
        if 0 < Fraction(v) < Fraction(10) ** k and _digits(v) == "1" + "0" * 16
    ]
    assert len(up) > 10
    _assert_exact(np.concatenate([up, np.negative(up)]))


def _near_ties():
    # Doubles v = m 2^-(j + n), 10^x <= v < 10^(x + 1) and n = 16 - x, whose
    # scaled value v 10^n lies 2^-j from a tie: 5^n m = 2^(j-1) +- 1
    # (mod 2^j), m of 53 bits.
    for x in range(-12, 16):
        n = 16 - x
        for j in range(20, 53):
            for step in (1, -1):
                m = (2 ** (j - 1) + step) * pow(5**n, -1, 2**j) % 2**j
                m += -(-(2**52 - m) // 2**j) * 2**j
                v = math.ldexp(m, -(j + n))
                if m < 2**53 and 10.0**x <= v < 10.0 ** (x + 1):
                    yield v


def test_near_ties():
    # Within the double-double's error of a tie, only Python can tell.
    values = list(_near_ties())
    assert len(values) > 20
    _assert_exact(values)


def test_power_of_ten_table_is_exact_to_2_pow_104():
    table = zip(*_g17._pow10_table())
    for k, (hi, lo) in zip(range(_g17._X_MIN, _g17._X_MAX + 1), table, strict=True):
        exact = Fraction(10) ** k
        assert hi == float(exact)
        assert lo == float(exact - Fraction(hi))  # the rounded residual
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2**104


def test_zero_cells_take_the_constant_cell():
    # Zero cells skip the digit pipeline: chunks of zeros alone, of no zeros,
    # zeros among near-ties, inf and nan, and single cells.
    near = list(_near_ties())[:40]
    rng = np.random.default_rng(7)
    mixed = near + [0.0, -0.0] * 20 + [math.inf, -math.inf, math.nan] * 3
    chunks = [
        [0.0] * 50,
        [-0.0, 0.0, -0.0],
        rng.uniform(-1.0, 1.0, 500),
        near,
        rng.permutation(np.array(mixed)),
        [0.0],
        [-0.0],
        [0.1],
        [math.nan],
    ]
    for chunk in chunks:
        _assert_exact(chunk)


def test_strided_destination_matches_the_1d_result():
    # The CSV writer formats a chunk's (rows, V) cells straight into its row
    # buffer: a strided (rows, V, 7) view between other words.  Each cell
    # equals the 1-D call's for 0.0 and -0.0, cells that Python formats
    # (near-ties, subnormals, |v| > 1e280, inf, nan) and the formatter's
    # own; the words around the view keep their bytes.
    near = list(_near_ties())[:12]
    python = [5e-324, -2.2250738585072014e-308, 1e300, -1e281, math.inf, math.nan]
    rng = np.random.default_rng(11)
    cells = near + python + [0.0, -0.0] * 6 + rng.uniform(-1.0, 1.0, 12).tolist()
    for chunk in (cells, [0.1, 2.5, -3e-7] * 4, [0.0, -0.0] * 6):
        x = rng.permutation(np.array(chunk)).reshape(-1, 3)
        flat = format_g17(x.ravel())
        assert (flat.view(np.uint8)[:, -1] == ord(",")).all()
        buf = np.full((len(x), 4 + 7 * 3 + 2), 0xA5A5A5A5A5A5A5A5, np.uint64)
        out = buf[:, 4:-2].reshape(len(x), 3, 7)
        assert format_g17(x, out=out) is out
        assert np.array_equal(out.reshape(-1, 7), flat)
        assert (buf[:, :4] == 0xA5A5A5A5A5A5A5A5).all()
        assert (buf[:, -2:] == 0xA5A5A5A5A5A5A5A5).all()
