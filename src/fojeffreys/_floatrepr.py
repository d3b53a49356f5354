"""Python's float ``repr`` for whole arrays, with the same bytes.

The digits come from Ryu's d2s (U. Adams, "Ryu: fast float-to-string
conversion", PLDI 2018): the shortest decimal that reads back to x, nearest
to x among those, as CPython's repr finds it. Ryu needs only 64-bit integer
arithmetic, so here it runs on whole numpy uint64 arrays; the digits are then
laid out as CPython lays them out. ``dataio`` imports this module on its first
long table, so commands that write none do not pay to build its tables.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)


def _pow5_limbs() -> np.ndarray:
    """Ryu's multipliers 5^i cut to their top 125 bits, i < 326, as four 32-bit limbs."""
    rows, p = [], 1
    for _ in range(326):
        bits = p.bit_length()
        rows.append(p >> (bits - 125) if bits > 125 else p << (125 - bits))
        p *= 5
    return np.array([[(v >> s) & 0xFFFFFFFF for v in rows] for s in (0, 32, 64, 96)], np.uint64)


_POW5 = _pow5_limbs()
_POW10 = _U64(10) ** np.arange(20, dtype=np.uint64)
_RYU_BELOW = 2.0**50  # Ryu's branch for q >= 2, the only one here, covers 0 < |x| < 2^50


def _pow5_bits(e):
    """Bit length of 5^e, for 0 <= e <= 3528."""
    return ((e * 1217359) >> 19) + 1


def _scaled_interval(mv, mm_shift, i, shift):
    """Ryu's vr, vp, vm: (mv + d) * _POW5[:, i] >> shift, d = 0, 2, -1 - mm_shift.

    The products of mv - 2 are summed in columns of 32-bit limbs that carry
    lazily: a column holds less than 2^57 before its carry moves up.
    """
    a = mv - _U64(2)
    low, high = a & _LOW32, a >> _U64(32)
    m = [limb[i] for limb in _POW5]
    cols, carry = [], _U64(0)
    for limb in m:
        product = low * limb
        cols.append((product & _LOW32) + carry)
        carry = (product >> _U64(32)) + high * limb
    left = (128 - shift).astype(np.uint64)  # shift is 118..125
    right = (shift - 96).astype(np.uint64)
    bounds = []
    for d in (_U64(2), _U64(4), (~mm_shift).astype(np.uint64)):
        c = [col + d * limb for col, limb in zip(cols, m)]
        c[1] += c[0] >> _U64(32)
        c[2] += c[1] >> _U64(32)
        c[3] += c[2] >> _U64(32)
        bounds.append(((carry + (c[3] >> _U64(32))) << left) + ((c[3] & _LOW32) >> right))
    return bounds


def shortest(x: np.ndarray):
    """Ryu's shortest round-trip decimal of doubles with 0 < |x| < 2^50.

    Returns (digits, exponent) with |x| = digits * 10^exponent. Names follow
    Ryu's d2s.c: vm < vr < vp bound the reals that round to x, scaled by
    10^-e10, and digits are cut from all three while vm and vp differ above
    the cut. Below 2^50 only vr can end in zeros that are cut (vr_tz), for
    dyadics with few bits such as 1.0 or 0.25; a cut of exactly one half
    then rounds to even.
    """
    bits = x.view(np.uint64)
    biased = (bits >> _U64(52)).astype(np.int32) & 0x7FF
    mantissa = bits & _U64((1 << 52) - 1)
    e2 = np.maximum(biased, 1) - 1077  # 1023 + 52 + 2: |x| = mv * 2^e2
    mv = (mantissa | ((biased != 0).astype(np.uint64) << _U64(52))) << _U64(2)
    mm_shift = (mantissa != 0) | (biased <= 1)
    q = ((-e2 * 732923) >> 20) - 1  # log10(5^-e2) - 1
    i = -e2 - q
    vr, vp, vm = _scaled_interval(mv, mm_shift, i, q - _pow5_bits(i) + 125)
    # The shift cut no fraction off vr when 2^q divides mv.
    vr_tz = (q < 63) & ((mv & ((_U64(1) << np.minimum(q, 63).astype(np.uint64)) - _U64(1))) == 0)
    # Cut the most digits r with vp // 10^r > vm // 10^r, which holds for
    # every r up to the largest: a binary search, 16 + 8 + 4 + 2 + 1 >= 19.
    removed = np.zeros(x.shape, np.int64)
    for r in (16, 8, 4, 2, 1):
        cut_p, cut_m = vp // _POW10[r], vm // _POW10[r]
        more = cut_p > cut_m
        removed += more * r
        vp, vm = np.where(more, cut_p, vp), np.where(more, cut_m, vm)
    head = vr // _POW10[np.maximum(removed - 1, 0)]
    cut = removed > 0
    digits = np.where(cut, head // _U64(10), vr)
    last = np.where(cut, head - digits * _U64(10), _U64(0))
    tie = np.flatnonzero(vr_tz & (last == 5))
    if tie.size:
        halfway = vr[tie] % _POW10[np.maximum(removed[tie] - 1, 0)] == 0
        last[tie] -= halfway & ((digits[tie] & _U64(1)) == 0)
    round_up = (digits == vm) | (last >= 5)  # vm is cut too
    return digits + round_up, q + e2 + removed


def _exponent_words() -> np.ndarray:
    """b"e-324" .. b"e+308" as NUL-padded uint64 words, then an empty word."""
    text = b"".join(f"e{e:+03d}".encode().ljust(8, b"\0") for e in range(-324, 309))
    return np.frombuffer(text + bytes(8), np.uint64)


_DIGITS = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
_DIGITS = _DIGITS.view(np.uint32).ravel()  # b"0000" .. b"9999" as words
_EXPONENTS = _exponent_words()
_SLOTS = np.arange(3, 24, dtype=np.int16)[:, None]
CELL = 29  # sign, 21 digits and a point, 5 exponent bytes, a separator


def repr_cells(values) -> np.ndarray:
    """The bytes of ``repr(float(v))`` for each value, one NUL-padded column each.

    Returns a (CELL, n) array; NULs may sit anywhere in a column, and its
    last byte is always NUL. The layout is CPython's: fixed notation with a
    digit on each side of the point for 1e-4 <= |v| < 1e16, else d.ddde±XX.
    """
    x = np.asarray(values, dtype=float)
    size = x.size
    ryu = (np.abs(x) < _RYU_BELOW) & (x != 0)
    if ryu.all():
        digits, e10 = shortest(x)
    else:
        digits = np.zeros(size, np.uint64)
        e10 = np.zeros(size, np.int64)
        digits[ryu], e10[ryu] = shortest(x[ryu])
    n = np.floor(np.log10(np.maximum(digits, _U64(1)).astype(float))).astype(np.int64) + 1
    n += (digits >= _POW10[np.minimum(n, 19)]).astype(np.int64) - (digits < _POW10[n - 1])
    k = e10 + n  # the point sits after digit k
    fixed = (k > -4) & (k <= 16)
    whole = fixed & (k >= n)
    # "ddd", "0.000ddd" and "ddd000.0" are the last ilen + flen <= 21 of 24
    # digits, with the point before the last flen.
    digits *= _POW10[np.where(whole, k - n + 1, 0)]
    ilen = np.where(fixed, np.maximum(k, 1), 1)
    flen = np.where(whole, 1, np.where(fixed, n - k, n - 1))
    words = np.empty((6, size), np.uint32)
    for w in (5, 4, 3, 2, 1):
        rest = digits // _U64(10000)
        words[w] = _DIGITS[digits - rest * _U64(10000)]
        digits = rest
    words[0] = _DIGITS[digits]
    field = words.view(np.uint8).reshape(6, size, 4).transpose(0, 2, 1).reshape(24, size)[3:]
    field *= _SLOTS >= (24 - ilen - flen).astype(np.int16)
    point = (24 - flen).astype(np.int16)
    before = _SLOTS < point
    cells = np.zeros((CELL, size), np.uint8)
    cells[0] = np.signbit(x) * np.uint8(ord("-"))
    cells[1:22] = field * before
    cells[2:23] |= field * ~before
    dot = np.flatnonzero(flen > 0)
    cells.reshape(-1)[(point[dot] - 2).astype(np.intp) * size + dot] = ord(".")
    exponent = _EXPONENTS[np.where(fixed, 633, k + 323)]
    cells[23:28] = exponent.view(np.uint8).reshape(size, 8)[:, :5].T
    other = np.flatnonzero(~ryu)
    if other.size:  # 0, nan, inf and |x| >= 2^50: repr once per distinct value
        distinct, index = np.unique(x[other].view(np.uint64), return_inverse=True)
        text = b"".join(repr(v).encode().ljust(24, b"\0") for v in distinct.view(float).tolist())
        cells[:, other] = 0
        cells[:24, other] = np.frombuffer(text, np.uint8).reshape(-1, 24)[index.ravel()].T
    return cells


def join_cells(columns) -> bytes:
    """CSV rows from equal-length (CELL, n) arrays of ``repr_cells``."""
    table = np.ascontiguousarray(np.stack(columns).transpose(2, 0, 1))
    table[:, :, -1] = ord(",")
    table[:, -1, -1] = ord("\n")
    return table[table != 0].tobytes()
