"""Float64 arrays as the text of Python's ``repr``, a whole array at a time.

Every finite nonzero double has one shortest decimal that reads back as it
(the closest one when several are that short); ``repr`` prints it in the
``'r'`` layout: positional for 1e-4 <= |x| < 1e16 with ``.0`` on integers,
else ``d.ddde+XX`` with at least two exponent digits.  :func:`repr_cells`
finds those digits with Schubfach's rule (Giulietti, "The Schubfach way to
render doubles", 2020) on uint64 arrays.  For x = c 2^q and U = 2^q / 10^k,
the spacing of x's binade in units of 10^k, 4x / 10^k and the ends of x's
rounding interval are V = 4c U and (4c +- 2) U.  Each is formed from 32-bit
limb products against U to 64 fraction bits, within 2^-33 of its exact value.
A cell whose ends lie more than 2^-32 from an integer, and whose V does too
or is an integer by a test of c's trailing bits (x is then a short decimal,
like 3.0 or 0.25), has every decision fixed exactly.  Any other cell (a tie,
an interval end that is a short decimal, a zero, an infinity, a NaN, or a
power of two, whose interval is lopsided) is formatted by ``repr`` itself, as
in Grisu3 (Loitsch, PLDI 2010): a gap in the fast path costs speed, never
bytes.  Only uint64 arithmetic is used, so every platform writes the same
bytes.  The tables are built on first use, not at import.
"""
from __future__ import annotations

import numpy as np

CELL = 48  # bytes a cell: sign, "0.000", 17 digits each with a dot slot, "e-308", ","
_M32 = 0xFFFFFFFF
_NUL_WORD = 10000  # the digit-word index of eight NUL bytes
_tables = None


def _scales() -> np.ndarray:
    """One 56-byte row per biased exponent: the 94-bit U 2^90 as three 32-bit limbs,
    2U as 64.64 fixed point, k + 1000, and the mask of the low bits of c that must be
    zero for 4c U to be an integer (for q >= 0 with k > 0, a mask no nonzero c passes).
    Infinities and NaNs get a zero U, which the certificate in :func:`_digits` refuses,
    as it refuses zeros."""
    # g(k) = floor(10^-k 2^(125 - f)) + 1 with f = floor(-k log2 10), so 2^125 <= g < 2^126
    ks = np.arange(-324, 293)
    fs = (-ks * 913124641741) >> 38
    g = [(10 ** max(-k, 0) << max(125 - f, 0)) // (10 ** max(k, 0) << max(f - 125, 0)) + 1
         for k, f in zip(ks.tolist(), fs.tolist())]
    limbs = np.array([[v >> s & _M32 for s in (32, 64, 96)] for v in g], dtype=np.uint64)
    q = np.maximum(np.arange(2048), 1) - 1075
    k = (q * 661971961083) >> 41  # floor(q log10 2)
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)  # 2..5; U ~ g 2^(h-127)
    l1, l2, l3 = limbs[k + 324].T

    def shr(s):  # the three 32-bit limbs of floor(g / 2^(32 + s)), 0 <= s < 32
        return (l1 >> s | l2 << 32 - s) & _M32, (l2 >> s | l3 << 32 - s) & _M32, l3 >> s

    lo, mid, hi = shr(30 - h)  # 2U = g 2^(h-126) with 64 fraction bits
    # for q < 0, 4c U = c 5^-k 2^(q - k + 2): an integer once c has -q + k - 2 trailing zeros;
    # for q >= 0 it is one if 5^k divides c, which only k = 0 makes sure of
    exact = np.where(q < 0, (1 << np.clip(k - q - 2, 0, 62)) - 1, np.where(k == 0, 0, -1))
    rows = np.stack([*shr(5 - h), hi, lo | mid << 32, (k + 1000).astype(np.uint64),
                     exact.astype(np.uint64)], axis=1)
    rows[2047, :5] = 0
    return rows.view("V56").ravel()


def _digit_words() -> np.ndarray:
    """Eight-byte words of a cell's digits: 0-9999 put a 4-digit group at the odd bytes,
    10000-19999 the same with its trailing zeros as NUL, 20000-20009 a leading digit at
    byte 7 and 20010-20019 that with a "-" at byte 0."""
    v = np.arange(10000, dtype=np.int16)
    digits = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1)
    digits = digits.astype(np.uint8) + 48
    words = np.zeros((20020, 8), np.uint8)
    words[:10000, 1::2] = digits
    kept = np.maximum.accumulate(digits[:, ::-1] != 48, axis=1)[:, ::-1]  # to the last nonzero
    words[10000:20000, 1::2] = digits * kept
    words[20000:, 7] = np.tile(np.arange(48, 58), 2)
    words[20010:, 0] = ord("-")
    return words.view("<u8").ravel()


def _layouts() -> np.ndarray:
    """The cell bytes that depend on the decimal exponent E alone, one row per
    (E + 324) 2 + (one significant digit): "0." and zeros before the digits,
    zeros the integer part and one fraction digit need, the dot, "e+XX", ","."""
    e = np.arange(-324, 309).repeat(2)
    rows = np.zeros((e.size, CELL), np.uint8)
    rows[:, -1] = ord(",")
    sci = (e < -4) | (e > 15)
    rows[sci & np.tile([True, False], 633), 8] = ord(".")  # after the first of several digits
    exponents = "".join(f"e{x:+03d}".ljust(5, "\0") for x in e[sci].tolist())
    rows[sci, 41:46] = np.frombuffer(exponents.encode(), np.uint8).reshape(-1, 5)
    # positional E: "0." and zeros before the digits if E < 0; else zeros under the first
    # E + 2 digits (the integer part and one fraction digit) and the dot after E + 1 of them
    for x in range(-4, 16):
        row = rows[2 * (x + 324):2 * (x + 325)]
        if x < 0:
            row[:, 1:2 - x] = np.frombuffer(b"0.000"[:1 - x], np.uint8)
        else:
            row[:, 7:10 + 2 * x:2] = ord("0")
            row[:, 8 + 2 * x] = ord(".")
    return rows.view("V48").ravel()


def _digits(x: np.ndarray, scales: np.ndarray):
    """(d, k + 1000, sure, sign) with |x| = d 10^k, d its shortest round-trip digits,
    wherever ``sure``."""
    bits = x.view(np.uint64)
    be = bits >> 52 & 0x7FF
    t = bits & 0xFFFFFFFFFFFFF
    row = np.take(scales, be.astype(np.intp)).view(np.uint64).reshape(-1, 7)
    c = t | (be != 0) << np.uint64(52)
    b0, b1 = c & _M32, c >> 32
    a0, a1, a2 = row[:, 0], row[:, 1], row[:, 2]
    # V = 4c U = (a2 2^64 + a1 2^32 + a0) c / 2^88: the integer part vi and 64 fraction bits vf
    t0 = a0 * b0
    t1 = a1 * b0 + (t0 >> 32)
    u1 = a0 * b1 + (t1 & _M32)
    t2 = a2 * b0 + a1 * b1 + (t1 >> 32) + (u1 >> 32)
    vi = (a2 * b1 + (t2 >> 32)) << 8 | (t2 & _M32) >> 24
    vf = t2 << 40 | (u1 & _M32) << 8 | t0 >> 24 & 0xFF
    rf = vf + row[:, 4]  # the interval's ends (4c + 2) U and (4c - 2) U
    ri = vi + row[:, 3] + (rf < vf)
    lf = vf - row[:, 4]
    li = vi - row[:, 3] - (vf < row[:, 4])
    margin = 1 << 32
    exact = (c & row[:, 6]) == 0  # V is an integer: x is a short decimal
    vi += exact & (vf >= 1 << 63)
    sure = (exact | (vf + margin >= 2 * margin)) & (
        np.minimum(rf + margin, lf + margin) >= 2 * margin)
    # and x is neither a power of two, whose lower neighbour is half as far, nor a tie
    sure &= (t != 0) & ~(exact & (vi & 3 == 2))
    # Schubfach: the multiple of 10 in the interval if there is exactly one, else
    # whichever of s = floor(V / 4) and s + 1 is in it, the closer if both are
    s = vi >> 2
    sp = s // 10 * 10
    upin, wpin = li < sp << 2, ri >= (sp << 2) + 40
    s4 = vi & ~np.uint64(3)
    up = (li >= s4) | (ri >= s4 + 4) & (vi & 2 != 0)
    d = np.where(upin ^ wpin, sp + wpin * np.uint64(10), s + up)
    return d, row[:, 5], sure, bits >> 63


def repr_cells(x) -> np.ndarray:
    """(len(x), CELL) uint8 array: row i is ``repr(float(x[i]))`` followed by ",", with
    NUL bytes between and after its characters; dropping them gives the text."""
    global _tables
    if _tables is None:
        _tables = _scales(), _digit_words(), _layouts()
    scales, words, layouts = _tables
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    m, e, sure, neg = _digits(x, scales)
    # |x| = m 10^(e - 16) once m = d 10^j has 17 digits and e = k + 16 - j
    e = e.astype(np.intp) - 984
    while True:
        short = sure & (m < 10 ** 16)
        if not short.any():
            break
        m = np.where(short, m * 10, m)
        e -= short
    lead = m // 10 ** 16
    rest = m - lead * 10 ** 16
    hi = rest // 10 ** 8
    lo = rest - hi * 10 ** 8
    g1, g3 = hi // 10000, lo // 10000
    g2, g4 = hi - g1 * 10000, lo - g3 * 10000
    strip = np.uint64(10000)  # groups with only zeros after them drop their trailing zeros
    words_at = np.empty((x.size, CELL // 8), np.intp)
    words_at[:, 0] = lead + neg * 10 + 20000
    words_at[:, 1] = g1 + ((g2 | lo) == 0) * strip
    words_at[:, 2] = g2 + (lo == 0) * strip
    words_at[:, 3] = g3 + (g4 == 0) * strip
    words_at[:, 4] = g4 + strip
    words_at[:, 5] = _NUL_WORD
    out = np.take(words, words_at, mode="clip")
    out |= np.take(layouts, (e + 324) * 2 + (rest == 0), mode="clip").view("<u8").reshape(out.shape)
    cells = out.view(np.uint8)
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        cells[unsure] = text_cells(map(repr, x[unsure].tolist()), unsure.size)
    return cells


def text_cells(strings, n: int) -> np.ndarray:
    """(n, CELL) uint8 cells of ``n`` ASCII strings of at most CELL - 1 characters."""
    cells = np.zeros((n, CELL), np.uint8)
    text = np.array(list(strings), dtype=f"S{CELL - 1}")
    cells[:, :-1] = text.view(np.uint8).reshape(n, CELL - 1)
    cells[:, -1] = ord(",")
    return cells
