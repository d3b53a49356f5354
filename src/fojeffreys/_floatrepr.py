"""Python's float ``repr`` for whole arrays, with the same bytes.

The digits come from Ryu's d2s (U. Adams, "Ryu: fast float-to-string
conversion", PLDI 2018): the shortest decimal that reads back to x, nearest
to x among those, as CPython's repr finds it. Ryu needs only 64-bit integer
arithmetic, so here it runs on whole numpy uint64 arrays. A value in row k
that equals k*t_1, for a step t_1 with a short decimal, needs no search:
its digits are k times the step's. That is decided value by value, so the
column need not be a grid.

The digits are then laid out as CPython lays them out, in row order, into
cells of four uint64 words of text with NUL holes: the sign, the digits and
the point, then the exponent. The values alone: the last byte stays NUL, for
the writer to put each file's separator in. Each word is masked and marked
by whole-word operations whose masks come from small tables, gathered per
value. ``dataio`` imports this module on its first long
table, so commands that write none do not pay to build its tables.
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
    m = [np.take(limb, i) for limb in _POW5]
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
    biased = (bits >> _U64(52)).view(np.int64) & 0x7FF
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
    head = vr // np.take(_POW10, np.maximum(removed - 1, 0))
    cut = removed > 0
    digits = np.where(cut, head // _U64(10), vr)
    last = np.where(cut, head - digits * _U64(10), _U64(0))
    tie = np.flatnonzero(vr_tz & (last == 5))
    if tie.size:
        halfway = vr[tie] % np.take(_POW10, np.maximum(removed[tie] - 1, 0)) == 0
        last[tie] -= halfway & ((digits[tie] & _U64(1)) == 0)
    round_up = (digits == vm) | (last >= 5)  # vm is cut too
    return digits + round_up, q + e2 + removed


def grid_digits(stamps: np.ndarray, k0: int, step: float):
    """Digits and exponents of each stamp t_k, k = k0, k0 + 1, ..., that is k*step, without Ryu.

    With repr(step) = m*10^-p, p <= 22 so that 10^p is an exact double,
    stamp k is k*m*10^-p whenever k*m < 10^15 and float(k*m) / 10^p == t_k:
    both sides are exact or correctly rounded, and a double's rounding
    interval holds at most one decimal of 15 or fewer significant digits, so
    that decimal is the shortest. The test is made for each stamp on its
    own, so the others may hold anything: the column need not be a grid.
    Returns (known, digits, exponents), the digits with trailing zeros cut
    and 0 where not known; t = 0 is never known. ``step`` is positive.
    """
    mantissa, _, exponent = repr(float(step)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    fraction = fraction.rstrip("0")
    m, p = int(whole + fraction), len(fraction) - int(exponent or 0)
    m, p = (m * 10**-p, 0) if p < 0 else (m, p)
    last = (10**15 - 1) // m if p <= 22 else 0  # the largest k with k*m < 10^15
    k = np.arange(k0, k0 + stamps.size, dtype=np.uint64)
    if last == 0:
        return np.zeros(k.size, bool), np.zeros(k.size, np.uint64), np.zeros(k.size, np.int64)
    digits = np.minimum(k, _U64(last)) * _U64(m)
    known = (k > 0) & (k <= _U64(last)) & (digits.astype(float) / 10.0**p == stamps)
    digits = np.where(known, digits, _U64(0))
    exponents = known * np.int64(-p)
    ten = _U64(10)
    cut = np.flatnonzero(known & (digits == digits // ten * ten))
    while cut.size:  # trailing zeros
        digits[cut] //= ten
        exponents[cut] += 1
        cut = cut[digits[cut] == digits[cut] // ten * ten]
    return known, digits, exponents


def _exponent_words() -> np.ndarray:
    """The exponent of a value with point position k = -323 .. 309, as a uint64 word.

    d.ddde±XX is written for k <= -4 or k >= 17, with XX = k - 1; fixed
    notation, for the k in between, writes no exponent: an empty word.
    """
    text = b"".join(
        (b"" if -4 < k <= 16 else f"e{k - 1:+03d}".encode()).ljust(8, b"\0")
        for k in range(-323, 310)
    )
    return np.frombuffer(text, np.uint64)


def _layouts():
    """The masks and digit scale of every layout, by (sign, n, kc).

    A value of n digits whose point sits after digit k has kc = k + 4
    clipped to 0 .. 21: 1 .. 20 in fixed notation, 0 and 21 in scientific.
    Its digits, scaled by 10^(k - n + 1) for "ddd000.0", end at byte 23 of a
    zero-padded 24-digit field, of which ``kept`` are written, the last flen
    after the point. Three 4-word cells per layout: one keeps the digits
    before the point, taken from the field shifted down one byte; one keeps
    those after it, unshifted; one holds the "." between them and the "-" at
    byte 0.
    """
    sign = np.arange(2)[:, None, None, None]
    n = np.arange(18)[:, None, None]
    k = np.arange(22)[:, None] - 4
    fixed = (k > -4) & (k <= 16)
    whole = fixed & (k >= n)
    flen = np.where(whole, 1, np.where(fixed, n - k, n - 1))
    kept = np.where(fixed, np.maximum(k, 1), 1) + flen
    byte = np.arange(32)
    before = (byte >= 23 - kept) & (byte < 23 - flen)
    after = (byte >= 24 - flen) & (byte < 24)
    marks = ((byte == 23 - flen) & (flen > 0)) * ord(".") + ((byte == 0) & (sign == 1)) * ord("-")
    masks = np.stack(np.broadcast_arrays(before * 0xFF, after * 0xFF, marks)).astype(np.uint8)
    scale = np.broadcast_to(_POW10[np.where(whole, k - n + 1, 0)], (2, 18, 22, 1))
    return masks.view(np.uint64).reshape(3, -1, 4), scale.ravel()


_DIGITS = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
_DIGITS = _DIGITS.view(np.uint32).ravel().astype(np.uint64)  # b"0000" .. b"9999", low half
_DIGITS_HIGH = _DIGITS << _U64(32)
_ZEROS = _U64(0x3030303030303030)  # b"00000000"
_EXPONENTS = _exponent_words()
_MASKS, _SCALES = _layouts()


def _eight_digits(group):
    """Words of the 8 ASCII digits of each group < 10^8."""
    high = group // _U64(10000)
    low = group - high * _U64(10000)
    return np.take(_DIGITS, high.view(np.int64)) | np.take(_DIGITS_HIGH, low.view(np.int64))


def text_cells(values) -> np.ndarray:
    """Cells of ``repr`` itself, one per value."""
    text = b"".join(repr(v).encode().ljust(32, b"\0") for v in np.asarray(values, float).tolist())
    return np.frombuffer(text, np.uint64).reshape(-1, 4)


def cells(values: np.ndarray, grid=None) -> np.ndarray:
    """The bytes of ``repr(float(v))`` for a (rows, columns) array, row by row.

    Returns (rows, columns, 4) uint64 words, 32 bytes of text per value with
    NUL holes: a "-" at byte 0, the digits and point ending at byte 23 and
    the exponent from byte 24. Byte 31, the top byte of word 3, is NUL: a
    writer may put a separator there. The layout is CPython's: fixed notation
    with a digit on each side of the point for 1e-4 <= |v| < 1e16, else
    d.ddde±XX. ``grid`` = (k0, step) says that row r of column 0 may hold
    the stamp k*step, k = k0 + r; :func:`grid_digits` checks each one, and
    the values that are not such stamps go to Ryu.
    """
    rows, columns = values.shape
    x = values.ravel()
    digits = np.zeros(x.size, np.uint64)
    e10 = np.zeros(x.size, np.int64)
    finite = np.abs(x) < _RYU_BELOW  # nan, inf and |x| >= 2^50 are left to repr
    ryu = finite & (x != 0)  # 0 is laid out from 0 digits
    if grid is not None:
        known, stamp_digits, stamp_e10 = grid_digits(values[:, 0], *grid)
        digits[::columns] = stamp_digits
        e10[::columns] = stamp_e10
        ryu[::columns] &= ~known
    index = np.flatnonzero(ryu)
    digits[index], e10[index] = shortest(x[index])
    # n digits (1 for 0) from the bit length b of float(digits): b*1233 >> 12
    # is n or n - 1. The float may round up to the next power of 2, which
    # has n digits too: no power of 10 lies that close below a power of 2.
    count = np.maximum(digits, _U64(1))
    n = ((count.astype(float).view(np.int64) >> 52) - 1022) * 1233 >> 12
    n += count >= np.take(_POW10, n)
    k = e10 + n  # the point sits after digit k
    layout = (np.signbit(x) * 18 + n) * 22 + np.clip(k + 4, 0, 21)
    digits *= np.take(_SCALES, layout)
    high = digits // _U64(10**8)
    top = high // _U64(10**8)  # digits < 10^17, so one digit
    field = np.empty((x.size, 4), np.uint64)  # word 3 is scratch: every mask clears it
    field[:, 0] = _ZEROS + (top << _U64(56))
    field[:, 1] = _eight_digits(high - top * _U64(10**8))
    field[:, 2] = _eight_digits(digits - high * _U64(10**8))
    words = field.reshape(-1)
    out = words >> _U64(8)
    out[:-1] |= words[1:] << _U64(56)  # byte 23 takes the next word's byte: masked
    before, after, marks = np.take(_MASKS, layout, axis=1)
    out = out.reshape(-1, 4)
    out &= before
    field &= after
    out |= field
    out |= marks
    out[:, 3] = np.take(_EXPONENTS, k + 323)
    other = np.flatnonzero(~finite)
    if other.size:  # repr once per distinct value; its <= 24 bytes leave word 3 as it is
        distinct, index = np.unique(x[other].view(np.uint64), return_inverse=True)
        text = text_cells(distinct.view(float))
        out[other, :3] = text[index.ravel(), :3]
    return out.reshape(rows, columns, 4)
