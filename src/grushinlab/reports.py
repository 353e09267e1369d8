"""Report serialisation: canonical JSON, content hashes, atomic file writes.

Every output file is written whole or not at all (bytes streamed into a temp
file in the target directory, then renamed).  ``write_csv`` alone turns
numbers into table text, one format per column, so reruns of the same config
produce byte-identical files.  Its floats carry 17 significant digits, the
exact text of ``'%.17g' % x``: a vectorised decimal conversion, exact or
checked, makes it for zeros, nan, inf and every normal double, and ``%``
formats only subnormals and the rare cells whose rounding that conversion
cannot decide.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "jsonable",
    "canonical_json",
    "content_hash",
    "atomic_write_lines",
    "write_json_report",
    "write_csv",
]


def jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses / numpy values to plain JSON types,
    leaving out dataclass fields declared ``repr=False`` (raw sample arrays)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.repr}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None if np.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, Path):
        return str(obj)
    return obj


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variance."""
    return json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":"))


def content_hash(payload: Any) -> str:
    """Git-blob style SHA-1 of the canonical JSON form of ``payload``."""
    body = canonical_json(payload).encode("utf-8")
    return hashlib.sha1(b"blob %d\0" % len(body) + body).hexdigest()


def atomic_write_lines(path: Path, lines: Iterable[bytes]) -> None:
    """Stream the byte strings ``lines`` into a sibling temp file, then rename
    it over ``path``.

    Readers never see a partial file: on any error the temp file is removed
    and ``path`` keeps its old content.  The file gets the mode that
    ``open(path, "w")`` would give it, 0o666 less the umask, not the 0o600
    of ``mkstemp``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)  # reading the umask means setting it; it is put back at once
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_report(path: Path, payload: Any) -> None:
    atomic_write_lines(path, [(json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n").encode("utf-8")])


# Rows are formatted a block at a time: memory stays bounded by a block
# whatever the table's length, and the text is the same for any block size.
_BLOCK_ROWS = 4096

# Each cell of a block is a fixed-width byte row padded with 0xFF, a byte no
# UTF-8 text holds; the joined block drops every 0xFF at once.
_PAD = 0xFF
_FLOAT_WIDTH = 24  # the longest '%.17g' text: "-1.2345678901234567e-300"
_BOOLS = np.frombuffer(b"false" + b"true\xff", np.uint8).reshape(2, 5)

# '%.17g' writes a double x as its 17 digits, the integer
# D = round(|x| 10**(16 - X)) in [10**16, 10**17), and its decimal exponent
# X: in fixed notation for _X_MIN <= X <= _X_MAX, else as d.ddd...e+XX.  A
# normal double has _E_MIN <= X <= _E_MAX.
_X_MIN, _X_MAX = -4, 16
_E_MIN, _E_MAX = -308, 308
_TINY, _HUGE = float(np.finfo(np.float64).tiny), float(np.finfo(np.float64).max)
_GUARD = 2.0**-30  # a checked product decides D when its fraction is this far from 1/2


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into halves of 26 bits, a == hi + lo."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# The powers 10**j for j = _J_MIN ... _J_MAX: 10**(16 - X) and 10**X for
# every normal X, and 10**(X + 1).  |x| 10**(16 - X) is formed as it is for
# _PLAIN_MIN <= X <= _PLAIN_MAX, where Veltkamp's split of both factors
# stays finite; past that range, both are scaled by powers of 2 first.
# 10**(16 - X) is a double for _EXACT_MIN <= X <= 16.
_J_MIN, _J_MAX = _E_MIN, 16 - _E_MIN
_PLAIN_MIN, _PLAIN_MAX = -283, 299
_EXACT_MIN = 16 - 22


def _power_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**j = 2**t (hi + lo) for each j from _J_MIN to _J_MAX: t = 0 for
    16 - _PLAIN_MAX <= j <= 16 - _PLAIN_MIN and +-128 past it, hi the
    double nearest to 10**j / 2**t and lo the rest to within 2**-116 hi,
    with the rest's sign; lo = 0 exactly where 10**j is a double.

    Made from Python's integers: v is 10**j 2**e truncated to 118 bits (or
    a bit past) and made odd when the truncation drops anything, so that
    float(v) is correctly rounded and v - float(v) is 0 only for an exact
    power.
    """
    shifts, highs, lows = [], [], []
    for j in range(_J_MIN, _J_MAX + 1):
        if j >= 0:
            num = 10**j
            e = 118 - num.bit_length()
            v = num << e if e >= 0 else (num >> -e) | (num & ((1 << -e) - 1) != 0)
        else:
            e = 117 + (10**-j).bit_length()
            v, rest = divmod(1 << e, 10**-j)
            v |= rest != 0
        t = 128 if j > 16 - _PLAIN_MIN else -128 if j < 16 - _PLAIN_MAX else 0
        high = float(v)
        shifts.append(t)
        highs.append(math.ldexp(high, -e - t))
        lows.append(math.ldexp(float(v - int(high)), -e - t))
    return np.array(shifts, np.int32), np.array(highs), np.array(lows)


_SHIFT, _POW_HI, _POW_LO = _power_table()
_POW_HI_HI, _POW_HI_LO = _split(_POW_HI)
with np.errstate(over="ignore"):
    _AT_LEAST = np.ldexp(_POW_HI, _SHIFT)  # the double nearest to 10**j (inf past the range)
# ... then the least double >= 10**j: one step up where that double is below 10**j.
_AT_LEAST = np.where(_POW_LO > 0, np.nextafter(_AT_LEAST, np.inf), _AT_LEAST)


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4 ASCII digits of each n < 10**4 as one uint32, then the word of
    bytes FF FF FF "0"; and the place (0-3) of the last digit of n other
    than 0, far below 0 for n = 0."""
    digits = np.indices((10, 10, 10, 10)).reshape(4, -1)  # digit i of each n, in the order of n
    words = np.vstack([48 + digits.T, [_PAD, _PAD, _PAD, 48]]).astype(np.uint8, order="C").view(np.uint32).ravel()
    last = np.select(digits[::-1] != 0, np.arange(3, -1, -1), -99)
    return words, last.astype(np.int8)


_DIGITS4, _LAST4 = _digit_tables()

# A cell's layout class: fixed notation at X = _X_MIN + class, then
# exponent notation, and the cells whose text is their layout alone.
_EXPONENT = _X_MAX - _X_MIN + 1
_ZERO, _INF, _NAN = _EXPONENT + 1, _EXPONENT + 2, _EXPONENT + 3
_CLASSES = _NAN + 1
_SPECIAL_TEXT = {_ZERO: b"0", _INF: b"inf", _NAN: b"nan"}


def _layouts() -> list[np.ndarray]:
    """Byte masks giving the text of each (sign, class, last).

    ``last`` is the place in D of its last digit other than 0.  The six
    digit words of a cell spell Z = "0000" + the 17 digits of D, from its
    fourth byte in fixed notation and from its first in exponent notation
    (the words move one to the left).  Z comes twice: ``left`` holds digit
    i of D at byte o + i and ``right`` at byte o + 1 + i, o = 5 in fixed
    notation and 1 in exponent notation.  The text is ``left`` before the
    decimal point and ``right`` after it, and the sign, the point or
    padding elsewhere: ``(left & L) | (right & R) | F`` with the rows
    ``(sign * _CLASSES + class) * 17 + last`` of the tables L, R, F.  In
    exponent notation F leaves bytes 19-23 at 0 for the exponent's text.
    """
    neg, cls, last = np.indices((2, _CLASSES, 17))[..., None]
    fixed, exponent = cls < _EXPONENT, cls == _EXPONENT
    x = np.where(fixed, cls + _X_MIN, 0)  # digits before the point, less one
    o = np.where(fixed, 5, 1)
    pos = np.arange(_FLOAT_WIDTH)
    dot = o + 1 + x  # the point follows digit X of D (digit 0 in exponent notation)
    fraction = last > x  # a digit other than 0 follows the point
    end = np.where(fraction, o + 2 + last, dot)  # trailing zeros are dropped, as %g does
    take_left = (fixed | exponent) & (o + np.minimum(x, 0) <= pos) & (pos < dot)  # "0" before the point if X < 0
    take_right = (fixed | exponent) & (dot < pos) & (pos < end)
    sign = np.where(neg & (cls != _NAN), ord("-"), _PAD)
    fill = np.where(pos == 0, sign, np.where((pos == dot) & fraction, ord("."), _PAD))
    fill = np.where(exponent & (pos >= 19), 0, fill)
    for special, text in _SPECIAL_TEXT.items():
        fill[:, special, :, 1 : 1 + len(text)] = np.frombuffer(text, np.uint8)
    layouts = (np.where(take_left, _PAD, 0), np.where(take_right, _PAD, 0), np.where(take_left | take_right, 0, fill))
    return [m.astype(np.uint8).reshape(-1, _FLOAT_WIDTH) for m in layouts]


_LAYOUTS = _layouts()


def _exponent_suffixes() -> np.ndarray:
    """Bytes 16-23 of each cell for X = _E_MIN ... _E_MAX, as one uint64:
    "e+XX" or "e-XXX" from byte 19 in exponent notation, 0 in fixed."""
    x = np.arange(_E_MIN, _E_MAX + 1)
    size = np.abs(x)
    digits = size[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    short = size < 100  # two exponent digits, then padding
    text = np.zeros((x.size, 8), np.uint8)
    text[:, 3] = ord("e")
    text[:, 4] = np.where(x < 0, ord("-"), ord("+"))
    text[:, 5:] = np.where(short[:, None], np.append(digits[:, 1:], np.full((x.size, 1), _PAD), axis=1), digits)
    text[(_X_MIN <= x) & (x <= _X_MAX)] = 0
    return text.view(np.uint64).ravel()


_SUFFIXES = _exponent_suffixes()


def _padded(strings: np.ndarray) -> np.ndarray:
    """Byte rows of a bytes array, each padded with 0xFF past its length."""
    cells = strings.view(np.uint8).reshape(len(strings), strings.itemsize)
    keep = np.arange(strings.itemsize) < np.char.str_len(strings)[:, None]
    return np.where(keep, cells, np.uint8(_PAD))


class _Scratch:
    """The buffers of one ``write_csv`` call, reused by each of its blocks:
    the joined row matrix, the digit words and the layout masks of a float
    column's cells."""

    def __init__(self, rows: int):
        self.words = np.full((rows + 1, 6), _DIGITS4[-1])  # one spare row that ``left`` may read into
        self.masks = [np.empty((rows, _FLOAT_WIDTH), np.uint8) for _ in _LAYOUTS]
        self.joined = np.empty(0, np.uint8)

    def rows(self, n: int, width: int) -> np.ndarray:
        """An (n, width) byte matrix on the reused buffer, grown when short."""
        if self.joined.size < n * width:
            self.joined = np.empty(n * width, np.uint8)
        return self.joined[: n * width].reshape(n, width)


def _float_cells(values: np.ndarray, out: np.ndarray | None = None, scratch: _Scratch | None = None) -> np.ndarray:
    """The '%.17g' text of each float as a padded byte row, written into
    ``out`` (a new (n, _FLOAT_WIDTH) matrix by default).

    For a normal double x, k = floor(log10|x|) is guessed from ``log10``
    and made exact by comparing |x| with the least double >= 10**k.  Then
    |x| 10**(16 - k) = hi + lo with Dekker's two-product of |x| 2**t and
    the double-double 10**(16 - k) / 2**t (t = 0 but at the ends of the
    exponent range, ``_power_table``).  Where 10**(16 - k) is a double the
    product is exact, and D = hi + rint(lo) is rounded half to even as '%'
    rounds it (hi is an even integer, being past 2**53).  Elsewhere its
    error is below 1e-13, so D is decided when the fraction of lo is more
    than ``_GUARD`` away from 1/2.  A D that rounds up to 10**17 is 10**16
    with X = k + 1.  Zeros, nan and inf are made by their layout alone.
    Only subnormals and the undecided cells are formatted by '%' itself.
    """
    x = values.astype(np.float64, copy=False)
    n = len(x)
    scratch = scratch or _Scratch(n)
    out = np.empty((n, _FLOAT_WIDTH), np.uint8) if out is None else out
    a = np.abs(x)
    normal = (a >= _TINY) & (a <= _HUGE)
    special = None if normal.all() else ~normal
    if special is not None:
        subnormal = special & (a > 0.0) & (a < _TINY)
        cls_special = _ZERO + (a > _HUGE) + 2 * (a != a)  # 0, inf, nan
        a[special] = 1.0
    # log10 is off by far less than 1e-12, so k is X or X + 1 until |x| is
    # compared with the least double >= 10**k.
    k = np.floor(np.log10(a) + 1e-12).astype(np.int32)
    k -= a < _AT_LEAST.take(k - _J_MIN, mode="clip")
    lowest, highest = int(k.min()), int(k.max())
    row = 16 - _J_MIN - k
    plain = _PLAIN_MIN <= lowest and highest <= _PLAIN_MAX
    scaled = a if plain else np.ldexp(a, _SHIFT.take(row, mode="clip"))
    hi = scaled * _POW_HI.take(row, mode="clip")
    s_hi, s_lo = _split(scaled)
    p_hi, p_lo = _POW_HI_HI.take(row, mode="clip"), _POW_HI_LO.take(row, mode="clip")
    lo = ((s_hi * p_hi - hi) + s_hi * p_lo + s_lo * p_hi) + s_lo * p_lo
    exact = _EXACT_MIN <= lowest and highest <= 16
    if not exact:
        rest = _POW_LO.take(row, mode="clip")
        lo += scaled * rest
    rounded = np.rint(lo)
    digits = hi.astype(np.int64) + rounded.astype(np.int64)
    carry = digits == 10**17  # 99999999999999999.5 and up: 10**16 at the next exponent
    k += carry
    digits[carry] = 10**16
    undecided = (digits < 10**16) | (digits >= 10**17)
    if not exact:
        undecided |= (rest != 0.0) & (np.abs(lo - rounded) > 0.5 - _GUARD)
    cls = np.minimum((k - _X_MIN).view(np.uint32), _EXPONENT)  # X < _X_MIN wraps past _EXPONENT
    exponent = cls == _EXPONENT
    if special is not None:
        undecided &= normal
        undecided |= subnormal
        cls[special] = cls_special[special]
    digits[undecided] = 10**16

    # Six digit words per cell ("___0", "000d", four of "dddd"): word
    # ``column`` > 1 holds digits 4 * column - 7 to 4 * column - 4 of D.  In
    # exponent notation each word sits one to the left, word 5 being spare.
    words = scratch.words[: n + 1]
    shift = int(exponent.all())
    mixed = not shift and exponent.any()
    last = np.zeros(n, np.int8)
    moved = _DIGITS4[-1]
    for column in range(5, 0, -1):
        if column > 1:
            quotient = digits // 10_000
            group = digits - quotient * 10_000
            digits = quotient
            np.maximum(last, _LAST4.take(group) + np.int8(4 * column - 7), out=last)
        else:
            group = digits
        word = _DIGITS4.take(group)
        words[:n, column - shift] = word
        if mixed:
            np.copyto(words[:n, column], moved, where=exponent)
        moved = word
    if not shift:
        words[:n, 0] = _DIGITS4[-1]
    if mixed:
        np.copyto(words[:n, 0], moved, where=exponent)
    z = words.view(np.uint8).ravel()
    left = z[2 : 2 + n * _FLOAT_WIDTH].reshape(n, _FLOAT_WIDTH)
    right = z[1 : 1 + n * _FLOAT_WIDTH].reshape(n, _FLOAT_WIDTH)

    key = (np.signbit(x) * _CLASSES + cls) * 17 + last
    left_mask, right_mask, fill = (
        np.take(table, key, axis=0, out=mask[:n], mode="clip") for table, mask in zip(_LAYOUTS, scratch.masks)
    )
    left_mask &= left
    right_mask &= right
    left_mask |= right_mask
    if shift or mixed:
        fill.view(np.uint64)[:, 2] |= _SUFFIXES.take(k - _E_MIN, mode="clip")
    np.bitwise_or(left_mask, fill, out=out)

    missed = np.flatnonzero(undecided)
    if missed.size:
        text = np.array(["%.17g" % v for v in x[missed].tolist()], dtype=f"S{_FLOAT_WIDTH}")
        out[missed] = _padded(text)
    return out


def _column(index: int, column: Sequence[Any]) -> np.ndarray:
    """A column as a 1-d array of a kind ``write_csv`` writes."""
    values = np.asarray(column)
    if values.ndim != 1:
        raise ValueError(f"column {index} must be 1-d, got shape {values.shape}")
    if values.dtype.kind not in "fbiuU":
        raise ValueError(f"column {index} has unsupported dtype {values.dtype}")
    return values


def _text_cells(block: np.ndarray) -> np.ndarray:
    """The padded byte rows of a block of bools, integers or strings."""
    kind = block.dtype.kind
    if kind == "b":
        return _BOOLS.take(block.view(np.uint8), axis=0)
    if kind in "iu":
        return _padded(block.astype("S"))
    return _padded(np.char.encode(block, "utf-8"))


def write_csv(path: Path, header: Sequence[str] | None, columns: Sequence, sep: str = ",") -> None:
    """Write equal-length columns as ``sep``-separated lines, atomically.

    Float columns carry 17 significant digits, byte for byte the text of
    ``'%.17g' % x``; bool columns are ``true``/``false``, integer and string
    columns ``str``; any other dtype raises ``ValueError``.  ``header=None``
    writes no header line.  A block of rows at a time, each column's cells
    are written as fixed-width byte rows padded with 0xFF into one row
    matrix, between ``sep`` and before a newline, and the padding is
    deleted from its bytes.  Floats go through a vectorised conversion
    (Dekker's two-product with exact or double-double powers of ten,
    rounded half to even; zeros, nan and inf by their layout); ``%``
    formats only subnormals and the rare products too near a tie to
    decide.  The buffers are reused from block to block, so memory does
    not grow with the table beyond the columns themselves.
    """
    converted = [_column(i, c) for i, c in enumerate(columns)]
    if header is not None and len(header) != len(converted):
        raise ValueError(f"header has {len(header)} names for {len(converted)} columns")
    lengths = [len(values) for values in converted]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns have unequal lengths {lengths}")
    total = lengths[0] if lengths else 0
    sep_bytes = np.frombuffer(sep.encode("utf-8"), np.uint8)
    scratch = _Scratch(min(total, _BLOCK_ROWS))

    def block_bytes(start: int) -> bytes:
        blocks = [values[start : start + _BLOCK_ROWS] for values in converted]
        texts = [None if block.dtype.kind == "f" else _text_cells(block) for block in blocks]
        widths = [_FLOAT_WIDTH if text is None else text.shape[1] for text in texts]
        rows = scratch.rows(len(blocks[0]), sum(widths) + sep_bytes.size * (len(widths) - 1) + 1)
        col = 0
        for block, text, width in zip(blocks, texts, widths):
            if col:
                rows[:, col : col + sep_bytes.size] = sep_bytes
                col += sep_bytes.size
            if text is None:
                _float_cells(block, rows[:, col : col + width], scratch)
            else:
                rows[:, col : col + width] = text
            col += width
        rows[:, col] = ord("\n")
        return rows.tobytes().translate(None, b"\xff")

    lines = map(block_bytes, range(0, total, _BLOCK_ROWS))
    if header is not None:
        lines = itertools.chain([(sep.join(header) + "\n").encode("utf-8")], lines)
    atomic_write_lines(path, lines)
