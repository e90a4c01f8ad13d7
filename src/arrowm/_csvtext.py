"""CSV lines in bulk: floats as the bytes of Python's ``"%.17g" % x``, other cells by str.

:func:`csv_lines` formats a block of rows with numpy operations.  A finite,
nonzero float x has the 17 significant digits D = round-half-even(y), where
y = |x| 10^s and s = 16 - floor(log10 |x|), so that 1e16 <= y < 1e17.  y is
formed in double-double arithmetic: 10^s is a pair hi + lo of doubles,
|x| hi is Dekker's exact product p + e, and |x| lo is added to e.  p is an
even integer (y > 2^53), so D and the rounding decision come from p and the
fraction of e.  The computed y is within 1e-13 of the exact one (1.7e-15
at most over 62,000 values, random bit patterns and every power of two
among them), so the rounding is certain unless the fraction lies within
``_NEAR_TIE`` of 1/2 (exact ties occur: 2^-25 is one).  Python's own ``%``
writes those values, the ones whose y lies within about 1e-9 of 1e16 or 1e17
(where the rounded digits may change decade), the ones with |s| > 250 (|x| <
1e-234 or |x| >= 1e267, where 10^s or the error terms may leave the normal
range), whole numbers in fixed notation whose last whole digit is 0 (10, 120,
3000), and ±0, inf and nan.

The digits are laid out by Python's ``g`` rules: fixed notation for decimal
exponents -4 to 16, exponent notation otherwise, trailing zeros of the
fraction dropped.  Each float gets a 48-byte field with a slot for every
byte its text may hold: sign, "0.000" prefix, each digit followed by a slot
for the point, the exponent and the separator.  Any other cell gets its
str, UTF-8 encoded, and its separator.  Bytes a cell does not use are NUL,
and one ``bytes.translate`` drops them all, so no cell may hold a NUL.

The 501 powers 10^s are computed from Python integers on the first call and
cached, as the digit tables are; nothing is computed at import.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

__all__ = ["csv_lines"]

# |fraction of y - 1/2| below which a value goes through Python's "%": the
# computed y is within 1e-13 of the exact one, so the rounding direction
# is certain beyond this distance.
_NEAR_TIE = 1e-9
# floor(y) outside these bounds (within 1e-9 of 1e16 or 1e17, or a decade
# off where log10 misjudged the exponent) goes through Python's "%".
_D_LOW = 10**16 + 10**7
_D_HIGH = 10**17 - 10**8

_S_MAX = 250  # largest |s| = |16 - X| of the power-of-ten table
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles

# A float's field, as six little-endian 8-byte words: word 0 holds the sign,
# the "0.000" prefix, d1 and the slot after it; words 1-4 hold d2..d17,
# each followed by its slot; word 5 holds "e", the exponent's sign and
# digits, and the separator.
_FIELD = 48
_FIRST_DIGIT = 6  # d1; d_j for j >= 2 sits at 8 + 2 (j - 2)
_SEP = 45
_NUL = 47  # never written
_X_MIN = -324  # the tables below have one entry per X from -324 to 308


@functools.cache
def _pow10() -> np.ndarray:
    """10^s as the pair hi + lo of doubles: rows hi and lo, one column per s from -250 to 250."""
    table = np.empty((2, 2 * _S_MAX + 1))
    for j, s in enumerate(range(-_S_MAX, _S_MAX + 1)):
        num, den = 10**max(s, 0), 10**max(-s, 0)  # 10^s = num / den exactly
        hi = num / den  # int / int rounds correctly
        n, d = hi.as_integer_ratio()
        table[:, j] = hi, (num * d - n * den) / (den * d)
    return table


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@functools.cache
def _tables():
    """Lookup tables: field words by 4-digit group and by exponent, and byte offsets."""
    # d2..d17 four at a time, each digit followed by an empty slot; entry
    # g + 10000 has the group's trailing zeros dropped
    quad = (np.arange(10000, dtype=np.int16)[:, None]
            // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
    spaced = np.zeros((2, 10000, 4, 2), dtype=np.uint8)
    spaced[..., 0] = quad + ord("0")
    trailing = np.cumprod(quad[:, ::-1] == 0, axis=1, dtype=np.uint8)[:, ::-1].astype(bool)
    spaced[1, trailing, 0] = 0
    digits = spaced.reshape(20000, 8).view("<u8").ravel()
    heads, tails, point_next, last_whole = [], [], [], []
    for x in range(_X_MIN, 309):
        fixed = -4 <= x <= 16
        heads.append(_word(b"\0" + (b"0." + b"0" * (-x - 1) if x < 0 and fixed else b"")))
        tails.append(0 if fixed else _word(b"e%+03d" % x))
        # the digit after the point's slot: d2 in exponent notation, d_{x+2}
        # in fixed notation with x + 1 whole digits, none for x < 0 or x = 16
        point_next.append(8 + 2 * x if 0 <= x <= 15 else 8 if not fixed else _NUL)
        # the last whole digit d_{x+1}; d1 is never dropped
        last_whole.append(6 + 2 * x if 1 <= x <= 16 else _FIRST_DIGIT)
    head = np.array(heads, dtype=np.uint64)
    return (digits, np.concatenate([head, head | ord("-")]), np.array(tails, dtype=np.uint64),
            np.array(point_next, dtype=np.intp), np.array(last_whole, dtype=np.intp))


def _decimal(x: np.ndarray):
    """(D, X, slow): x's 17 significant digits as an integer and its decimal exponent.

    slow marks the values left to Python's "%"; their D is 10^16.
    """
    finite = np.isfinite(x) & (x != 0.0)
    a = np.where(finite, np.abs(x), 1.0)
    X = np.floor(np.log10(a)).astype(np.intp)
    rare = np.abs(16 - X) > _S_MAX
    a[rare] = 1.0
    X[rare] = 0
    hi, lo = _pow10().take((16 + _S_MAX) - X, axis=1)
    # Dekker: a hi = p + e exactly, from the Veltkamp halves of a and hi
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = hi * _SPLIT
    h_hi = t - (t - hi)
    h_lo = hi - h_hi
    p = a * hi
    e = a_hi * h_hi - p
    e += a_hi * h_lo
    e += a_lo * h_hi
    e += a_lo * h_lo
    e += a * lo
    whole = np.floor(e)
    e -= whole
    D = p.astype(np.int64) + whole.astype(np.int64)
    slow = ~finite | rare | (np.abs(e - 0.5) < _NEAR_TIE) | (D < _D_LOW) | (D > _D_HIGH)
    D += e > 0.5
    D[slow] = 10**16
    return D, X, slow


def csv_lines(columns, floats) -> bytearray:
    """The CSV lines of a block of equally long columns, each line ending in "\\n".

    ``floats[k]`` says whether column k is written as ``"%.17g" % x`` of its
    values as float64; any other column is written by ``str``.  Raises
    ValueError where a str cell holds a NUL.
    """
    rows = len(columns[0])
    ends = [b","] * (len(columns) - 1) + [b"\n"]
    cells = [None if f else _str_cells(c, end) for c, f, end in zip(columns, floats, ends)]
    widths = [_FIELD if f else cells[k].itemsize for k, f in enumerate(floats)]
    buffer = bytearray(rows * sum(widths))  # translated in place of a copy below
    table = np.frombuffer(buffer, dtype=np.uint8).reshape(rows, -1)
    at = 0
    for is_float, run in itertools.groupby(range(len(columns)), key=floats.__getitem__):
        run = list(run)
        if is_float:  # adjacent float columns share one pass
            values = np.stack([np.asarray(columns[k], dtype=np.float64) for k in run], axis=1)
            _floats_into(table, at, values, b"".join(ends[k] for k in run))
            at += len(run) * _FIELD
            continue
        for k in run:
            table[:, at:at + widths[k]] = cells[k].view(np.uint8).reshape(rows, -1)
            at += widths[k]
    return buffer.translate(None, b"\0")


def _str_cells(values, end: bytes) -> np.ndarray:
    """str(v) + end for each value, UTF-8 encoded, NUL-padded to a multiple of 8 bytes."""
    if isinstance(values, np.ndarray):
        values = values.tolist()  # str of Python scalars, not of numpy's
    encoded = [str(v).encode() + end for v in values]
    if b"\0" in b"".join(encoded):
        raise ValueError("a CSV cell may not hold a NUL character")
    return np.array(encoded, dtype=f"S{-(-max(map(len, encoded)) // 8) * 8}")


def _floats_into(table: np.ndarray, at: int, x: np.ndarray, ends: bytes) -> None:
    """Write ``"%.17g" % v`` and its end into the 48-byte field of each value v of x.

    x[r, j] and ends[j] fill table[r, at + 48 j : at + 48 (j + 1)], which
    must hold only NUL bytes before.
    """
    rows, m = x.shape
    x = x.ravel()
    digits, heads, tails, point_next, last_whole = _tables()
    D, X, slow = _decimal(x)
    # D = lead 10^16 + g1 10^12 + g2 10^8 + g3 10^4 + g4, in 32-bit parts
    high = D // 10**8
    low = (D - high * 10**8).astype(np.int32)
    del D
    high = high.astype(np.int32)
    lead = high // 10**8
    high -= lead * 10**8
    g1 = high // 10**4
    g2 = high - g1 * 10**4
    g3 = low // 10**4
    g4 = low - g3 * 10**4
    fields = table[:, at:at + m * _FIELD].reshape(rows, m, _FIELD)
    words = fields.view("<u8")
    # a group's trailing zeros are dropped when every later group is 0
    strip = g4 == 0
    words[..., 4] = digits[g4 + 10**4].reshape(rows, m)
    words[..., 3] = digits[g3 + strip * 10**4].reshape(rows, m)
    strip &= g3 == 0
    words[..., 2] = digits[g2 + strip * 10**4].reshape(rows, m)
    strip &= g2 == 0
    words[..., 1] = digits[g1 + strip * 10**4].reshape(rows, m)
    X -= _X_MIN
    words[..., 0] = (heads.take(X + (x < 0) * (heads.size // 2)) | (
        lead + ord("0")).astype(np.uint64) << 48).reshape(rows, m)
    words[..., 5] = tails[X].reshape(rows, m)
    fields[..., _SEP] = np.frombuffer(ends, dtype=np.uint8)
    # byte offsets of the fields in the flat table
    base = (np.arange(0, table.size, table.shape[1])[:, None]
            + np.arange(at, at + m * _FIELD, _FIELD)).ravel()
    flat = table.reshape(-1)
    # a point goes before the digit after it when that digit was not dropped
    after = base + point_next[X]
    flat[after[flat[after] != 0] - 1] = ord(".")
    # a whole number whose last whole digit was dropped as a 0 lost its zeros
    # before the point with the fraction's
    slow = np.flatnonzero(slow | (flat[base + last_whole[X]] == 0))
    if slow.size:
        texts = [("%.17g" % v).encode() for v in x[slow].tolist()]
        flat[base[slow, None] + np.arange(_SEP)] = np.array(
            texts, dtype=f"S{_SEP}").view(np.uint8).reshape(-1, _SEP)
