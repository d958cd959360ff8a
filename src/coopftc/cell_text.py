"""Text of float64 cells, byte for byte as ``'%.17g' % x`` writes it.

``'%.17g' % x`` prints the 17 significant digits of x, correctly rounded
from its exact binary value (Gay's dtoa), in %g's layout.
:class:`CellText` finds the same digits for a block of cells at once.
With E = floor(log10 |x|) and s = 16 - E, the digits are
N = round(|x| 10**s), an integer in [1e16, 1e17).  10**s is held as a
double-double hi + lo, and |x| hi is formed exactly by Dekker's
two-product (Numer. Math. 18, 1971; numpy has no fma), so
|x| 10**s = p + t with p an integer and t known to within 1e-14.  That
settles the rounding unless the fraction of t lies within
``_TIE_MARGIN`` of one half; such a cell, like every cell outside the
kernel's range or not a finite double, is formatted by ``'%.17g' %``
(:func:`python_cells`) and written into its place.

The text follows %g's rules: fixed notation for -4 <= E < 17, otherwise
``d.ddde-XX`` with at least two exponent digits, trailing zeros and a
bare point stripped, and ``-`` from the sign bit, so -0.0 prints as
``-0``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["CellText", "python_cells"]

#: Far above the 1e-14 bound on the error of t, far below any fraction
#: that is not a tie: about one random cell in a million lands inside it.
_TIE_MARGIN = 1e-6

_DEKKER_SPLIT = 2.0**27 + 1

# A cell is assembled in a row of 28 bytes, seven uint32 words:
#   0 '-'   1 '0'   2 '.'   3 the first digit   4-19 the other sixteen
#   20-22 the exponent's three digits   23 NUL   24 'e'   25 '-'
#   26 the separator or the newline   27 unused
# A layout lists, for one (sign, notation, E, significant digits) key, the
# row bytes of the cell's text and its end in order, padded with the NUL at
# 23, which is dropped after the gather.  The longest text '%.17g' writes,
# '-1.2345678901234567e-308', has 24 bytes, so a cell with its end fits.
_ROW = 28
_LAYOUT_WIDTH = 25

# Notation classes: 0-20 fixed with E = class - 4, then these.
_EXP_2, _EXP_3, _ZERO, _PYTHON = 21, 22, 23, 24
_CLASSES = 25


def _layouts() -> np.ndarray:
    """Row byte positions, padded with the NUL at 23, of every key
    ``(sign * _CLASSES + class) * 17 + significant digits - 1``."""
    layouts = []
    for sign in (0, 1):
        for cls in range(_CLASSES):
            for k in range(1, 18):
                digits = list(range(3, 3 + k))
                if cls in (_EXP_2, _EXP_3):  # d[.ddd]e-XX[X]
                    text = digits[:1] + ([2] if k > 1 else []) + digits[1:]
                    text += [24, 25] + [20, 21, 22][_EXP_3 - cls:]
                elif cls == _ZERO:
                    text = [1]
                elif cls == _PYTHON:  # the slot is written over
                    text = []
                elif cls >= 4:  # E >= 0: all E + 1 digits before the point
                    fraction = digits[cls - 3:]
                    text = list(range(3, cls)) + ([2] if fraction else [])
                    text += fraction
                else:  # 0.000ddd
                    text = [1, 2] + [1] * (3 - cls) + digits
                text = ([0] if sign and cls != _PYTHON else []) + text + [26]
                layouts.append(bytes(text).ljust(_LAYOUT_WIDTH, b"\x17"))
    return (np.frombuffer(b"".join(layouts), dtype=np.uint8)
            .reshape(-1, _LAYOUT_WIDTH))


@dataclass(frozen=True)
class _Tables:
    """The kernel's tables.  Index s of the ``pow`` tables is the scale
    s = 16 - E: for 1e-280 <= |x| < 1e17, |x| 10**s lies in [1e16, 1e17)
    with s in [0, 296], and one more covers a log10 of |x| near 1e-280
    that rounds down."""

    pow_hi: np.ndarray  # 10**s rounded to a double
    pow_lo: np.ndarray  # 10**s - pow_hi rounded: relative error < 2**-106
    pow_hi_hi: np.ndarray  # pow_hi split in two halves for Dekker
    pow_hi_lo: np.ndarray
    digit_words: np.ndarray  # the four ASCII digits of 0..9999 as uint32
    trailing_zeros: np.ndarray  # of 0..9999 written with four digits
    exponent_words: np.ndarray  # per s: the three digits of |16 - s|, NUL
    layouts: np.ndarray  # per key: row bytes of the text, then NULs


@functools.cache
def _tables() -> _Tables:
    """Built on first use (a few ms), so that a run that writes no table
    does not pay for them."""
    hi = np.array([float(10**s) for s in range(298)])
    hi_hi = hi * _DEKKER_SPLIT - (hi * _DEKKER_SPLIT - hi)
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    quads = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"),
                     axis=-1).reshape(-1, 4)
    return _Tables(
        pow_hi=hi,
        pow_lo=np.array([float(10**s - int(h)) for s, h in enumerate(hi)]),
        pow_hi_hi=hi_hi, pow_hi_lo=hi - hi_hi,
        digit_words=quads.view(np.uint32)[:, 0],
        trailing_zeros=np.cumprod(quads[:, ::-1] == ord("0"), axis=1,
                                  dtype=np.int8).sum(axis=1, dtype=np.int8),
        exponent_words=np.frombuffer(b"".join(
            f"{abs(16 - s):03d}\0".encode() for s in range(hi.size)),
            dtype=np.uint32),
        layouts=_layouts())


def _scaled(tables: _Tables, a: np.ndarray, s: np.ndarray):
    """``(n, f)`` with ``a * 10**s = n + f`` to within 1e-14: n the nearest
    integer (int64) and f in [-1/2, 1/2]; ``a * 10**s`` must stay below
    about 1e18."""
    hi, lo = tables.pow_hi[s], tables.pow_lo[s]
    hi_hi, hi_lo = tables.pow_hi_hi[s], tables.pow_hi_lo[s]
    p = a * hi  # an integer: a * hi >= 2**53 wherever it matters
    c = a * _DEKKER_SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    # a * hi - p exactly, then a * lo
    t = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi + a_lo * hi_lo
         + a * lo)
    r = np.rint(t)
    return p.astype(np.int64) + r.astype(np.int64), t - r


def _off_scale(n: np.ndarray, f: np.ndarray) -> np.ndarray:
    """+1 where ``n + f`` lies below 1e16, -1 where it reaches 1e17, 0 in
    between: the change of scale that brings it into range."""
    below = (n < 10**16) | ((n == 10**16) & (f < 0))
    above = (n > 10**17) | ((n == 10**17) & (f >= 0))
    return below.astype(np.int64) - above


def python_cells(values: np.ndarray) -> list[str]:
    """``'%.17g' % v`` for each of ``values``: the text of every cell the
    kernel cannot prove."""
    return ["%.17g" % v for v in values.tolist()]


class CellText:
    """Formats blocks of up to ``cells`` float64 cells as ``'%.17g'``
    does, each cell followed by its end: the ends of one row, ``ends``,
    repeat from cell to cell, so ``",,\n"`` writes rows of three cells
    and ``" "`` a column whose every cell is followed by a space.  The
    work arrays are made once and reused for every block."""

    def __init__(self, cells: int, ends: str):
        self.tables = _tables()
        self.rows = np.zeros((cells, _ROW), dtype=np.uint8)
        for at, char in enumerate("-0."):
            self.rows[:, at] = ord(char)
        self.rows[:, 24:26] = np.frombuffer(b"e-", dtype=np.uint8)
        self.rows[:, 26] = np.tile(
            np.frombuffer(ends.encode(), dtype=np.uint8), cells // len(ends))
        self.starts = (np.arange(cells, dtype=np.int32) * _ROW)[:, None]
        self.gather = np.empty((cells, _LAYOUT_WIDTH), dtype=np.int32)
        self.text = np.empty((cells, _LAYOUT_WIDTH), dtype=np.uint8)

    @staticmethod
    def fits(sep: str) -> bool:
        """Whether the kernel can write ``sep``: one ASCII byte, not NUL."""
        return len(sep) == 1 and "\0" < sep < "\x80"

    def padded(self, block: np.ndarray) -> np.ndarray:
        """The text of ``block``, a float64 array of whole rows, as a
        ``(cells, _LAYOUT_WIDTH)`` uint8 array: each cell's text and its
        end, padded with NULs.  It is a work array, which the next call
        overwrites."""
        tables = self.tables
        x = block.reshape(-1)
        a = np.abs(x)
        ok = (a >= 1e-280) & (a < 1e17)
        zero = x == 0
        a = np.where(ok, a, 1.0)  # keeps the rest quiet and in range
        last = tables.pow_hi.size - 1
        s = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, last)
        n, f = _scaled(tables, a, s)
        shift = _off_scale(n, f)
        redo = np.flatnonzero(shift)  # log10 rounded across a power of 10
        if redo.size:
            s[redo] = np.clip(s[redo] + shift[redo], 0, last)
            n[redo], f[redo] = _scaled(tables, a[redo], s[redo])
            ok[redo[_off_scale(n[redo], f[redo]) != 0]] = False
        # rounding carried to 1e17: one digit more is one scale less (never
        # at s = 0, where a * 10**s is a double below 1e17, so an integer)
        carry = n == 10**17
        n[carry] = 10**16
        s[carry] -= 1
        python = ~zero & (~ok | (np.abs(np.abs(f) - 0.5) < _TIE_MARGIN))

        first, rest = np.divmod(n, 10**16)
        high, low = np.divmod(rest, 10**8)
        quads = np.divmod(high, 10**4) + np.divmod(low, 10**4)
        rows = self.rows[:x.size]
        rows[:, 3] = 48 + first
        words = rows.view(np.uint32)
        for col, quad in enumerate(quads, start=1):
            words[:, col] = tables.digit_words[quad]
        words[:, 5] = tables.exponent_words[s]
        tz = tables.trailing_zeros
        zeros = tz[quads[3]] + (quads[3] == 0) * (
            tz[quads[2]] + (quads[2] == 0) * (
                tz[quads[1]] + (quads[1] == 0) * tz[quads[0]]))
        e10 = 16 - s
        cls = np.where(e10 >= -4, e10 + 4,
                       np.where(e10 > -100, _EXP_2, _EXP_3))
        cls[zero] = _ZERO
        cls[python] = _PYTHON
        key = ((np.signbit(x) & ~python) * _CLASSES + cls) * 17 + 16 - zeros

        gather = self.gather[:x.size]
        # np.take: far faster than fancy indexing for whole rows
        np.add(np.take(tables.layouts, key, axis=0), self.starts[:x.size],
               out=gather)
        text = self.text[:x.size]
        np.take(rows.reshape(-1), gather, out=text)
        cells = np.flatnonzero(python)
        if cells.size:
            ends = rows[cells, 26].tobytes().decode("ascii")
            text[cells] = np.frombuffer(b"".join(
                (cell + end).encode().ljust(_LAYOUT_WIDTH, b"\0")
                for cell, end in zip(python_cells(x[cells]), ends)),
                dtype=np.uint8).reshape(-1, _LAYOUT_WIDTH)
        return text

    def __call__(self, block: np.ndarray) -> str:
        """The text of ``block``, a float64 array of whole rows."""
        return (self.padded(block).tobytes().translate(None, b"\0")
                .decode("ascii"))
