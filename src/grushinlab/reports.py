"""Report serialisation: canonical JSON, content hashes, atomic file writes.

Every output file is written whole or not at all (lines streamed into a temp
file in the target directory, then renamed).  ``write_csv`` alone turns
numbers into table text, one format per column, so reruns of the same config
produce byte-identical files.  Its floats carry 17 significant digits, the
exact text of ``'%.17g' % x``: an exact vectorised decimal conversion makes
it for 1e-4 <= |x| < 1e16, and ``%`` formats each other float one at a time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
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


def atomic_write_lines(path: Path, lines: Iterable[str]) -> None:
    """Stream ``lines`` into a sibling temp file, then rename it over ``path``.

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
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_report(path: Path, payload: Any) -> None:
    atomic_write_lines(path, [json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"])


# Rows are formatted a block at a time: memory stays bounded by a block
# whatever the table's length, and the text is the same for any block size.
_BLOCK_ROWS = 4096

# Each cell of a block is a fixed-width byte row padded with 0xFF, a byte no
# UTF-8 text holds; the joined block drops every 0xFF at once.
_PAD = 0xFF
_FLOAT_WIDTH = 24  # the longest '%.17g' text: "-1.2345678901234567e-300"
_BOOLS = np.frombuffer(b"false" + b"true\xff", np.uint8).reshape(2, 5)

# The exact conversion covers 1e-4 <= |x| < 1e16, where '%.17g' writes fixed
# notation with a decimal exponent X in [-4, 15].  The 17 digits of x are
# the integer D = round(|x| 10**(16 - X)), and 10**(16 - X) is an exact double.
_LOW, _HIGH, _X_MIN, _X_MAX = 1e-4, 1e16, -4, 15
_EXPONENTS = _X_MAX - _X_MIN + 1
_POW10 = np.cumprod(np.full(_EXPONENTS, 10.0))[::-1]  # 10**(16 - X), X = _X_MIN + row


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into halves of 26 bits, a == hi + lo."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4 ASCII digits of each n < 10**4 as one uint32, then the word of
    bytes FF FF FF "0"; and the place (0-3) of the last digit of n other
    than 0, far below 0 for n = 0."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    words = np.append(48 + digits, [[_PAD, _PAD, _PAD, 48]], axis=0).astype(np.uint8).view(np.uint32).ravel()
    last = np.where(digits.any(axis=1), 3 - np.argmax(digits[:, ::-1] != 0, axis=1), -99)
    return words, last.astype(np.int8)


_DIGITS4, _LAST4 = _digit_tables()


def _fixed_layouts() -> list[np.ndarray]:
    """Byte masks giving the fixed-notation text of each (sign, X, last).

    ``last`` is the place in D of its last digit other than 0.  A cell's
    body Z = "0000" + the 17 digits of D comes twice: ``left`` holds Z[j]
    at byte 1 + j and ``right`` at byte 2 + j.  The text is ``left`` before
    the decimal point and ``right`` after it, and the sign, the point or
    padding elsewhere: ``(left & L) | (right & R) | F`` with the rows
    ``(sign * _EXPONENTS + X - _X_MIN) * 17 + last`` of the tables L, R, F.
    """
    neg, x, last = np.indices((2, _EXPONENTS, 17))[..., None]
    x = x + _X_MIN
    pos = np.arange(_FLOAT_WIDTH)
    dot = 6 + x  # the point follows digit X of D
    fraction = last > x  # a digit other than 0 follows the point
    end = np.where(fraction, 7 + last, dot)  # trailing zeros are dropped, as %g does
    take_left = (5 + np.minimum(x, 0) <= pos) & (pos < dot)  # one 0 before the point if X < 0
    take_right = (dot < pos) & (pos < end)
    sign = np.where(neg, ord("-"), _PAD)
    fill = np.where(pos == 0, sign, np.where((pos == dot) & fraction, ord("."), _PAD))
    layouts = (np.where(take_left, _PAD, 0), np.where(take_right, _PAD, 0), np.where(take_left | take_right, 0, fill))
    return [m.astype(np.uint8).reshape(-1, _FLOAT_WIDTH) for m in layouts]


_LAYOUTS = _fixed_layouts()


def _padded(strings: np.ndarray) -> np.ndarray:
    """Byte rows of a bytes array, each padded with 0xFF past its length."""
    cells = strings.view(np.uint8).reshape(len(strings), strings.itemsize)
    keep = np.arange(strings.itemsize) < np.char.str_len(strings)[:, None]
    return np.where(keep, cells, np.uint8(_PAD))


def _float_cells(values: np.ndarray) -> np.ndarray:
    """The '%.17g' text of each float as a padded byte row.

    For 1e-4 <= |x| < 1e16, with k = floor(log10|x|), Dekker's two-product
    gives |x| 10**(16 - k) exactly as hi + lo.  When 10**16 <= hi + lo and
    D = hi + rint(lo) < 10**17, k is the exponent X and D the 17 digits,
    rounded half to even as '%' rounds them (hi is an even integer, being
    past 2**53).  Every other cell is formatted by '%' itself: the cells
    outside that window (zeros, subnormals, nan, inf, huge values), and
    the rare ones whose k missed, such as the last doubles below a power of
    ten, where log10 rounds up.
    """
    x = values.astype(np.float64)
    n = len(x)
    a = np.abs(x)
    inside = (a >= _LOW) & (a < _HIGH)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.clip(np.floor(np.log10(a)), _X_MIN, _X_MAX)
    row = np.where(inside, k - _X_MIN, 0).astype(np.intp)
    a = np.where(inside, a, 1.0)
    a_hi, a_lo = _split(a)
    hi = a * _POW10[row]
    p_hi, p_lo = _POW10_HI[row], _POW10_LO[row]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    exact = inside & ((hi > 1e16) | ((hi == 1e16) & (lo >= 0)))
    digits = np.where(exact, hi, 1e16).astype(np.int64) + np.rint(lo).astype(np.int64)
    exact &= digits < 10**17
    digits[~exact] = 10**16

    # Z as six digit words per cell ("___0", "000d", four of "dddd"), and
    # one spare cell so that ``left`` may read two bytes past the last.
    # Word ``column`` > 1 holds digits 4 * column - 7 to 4 * column - 4 of D.
    z = np.full((n + 1, 6), _DIGITS4[-1])
    last = np.zeros(n, np.int8)
    for column in range(5, 1, -1):
        quotient = digits // 10_000
        group = digits - quotient * 10_000
        digits = quotient
        z[:n, column] = _DIGITS4.take(group)
        np.maximum(last, _LAST4.take(group) + np.int8(4 * column - 7), out=last)
    z[:n, 1] = _DIGITS4.take(digits)
    z = z.view(np.uint8).ravel()
    left, right = z[2 : 2 + n * _FLOAT_WIDTH], z[1 : 1 + n * _FLOAT_WIDTH]
    key = (np.signbit(x) * _EXPONENTS + row) * 17 + last
    cells, right_mask, fill = (table.take(key, axis=0).ravel() for table in _LAYOUTS)
    cells &= left
    right_mask &= right
    cells |= right_mask
    cells |= fill
    cells = cells.reshape(n, _FLOAT_WIDTH)

    missed = np.flatnonzero(~exact)
    if missed.size:
        text = np.array(["%.17g" % v for v in x[missed].tolist()], dtype=f"S{_FLOAT_WIDTH}")
        cells[missed] = _padded(text)
    return cells


def _cells(index: int, column: Sequence[Any]) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """A column as a 1-d array, and the function giving a block's byte rows."""
    values = np.asarray(column)
    if values.ndim != 1:
        raise ValueError(f"column {index} must be 1-d, got shape {values.shape}")
    kind = values.dtype.kind
    if kind == "f":
        return values, _float_cells
    if kind == "b":
        return values, lambda block: _BOOLS.take(block.view(np.uint8), axis=0)
    if kind in "iu":
        return values, lambda block: _padded(block.astype("S"))
    if kind == "U":
        return values, lambda block: _padded(np.char.encode(block, "utf-8"))
    raise ValueError(f"column {index} has unsupported dtype {values.dtype}")


def write_csv(path: Path, header: Sequence[str] | None, columns: Sequence, sep: str = ",") -> None:
    """Write equal-length columns as ``sep``-separated lines, atomically.

    Float columns carry 17 significant digits, byte for byte the text of
    ``'%.17g' % x``; bool columns are ``true``/``false``, integer and string
    columns ``str``; any other dtype raises ``ValueError``.  ``header=None``
    writes no header line.  A block of rows at a time, each column becomes
    a byte matrix of fixed-width cells padded with 0xFF, the columns are
    joined with ``sep`` and newlines, and the padding is deleted.  Floats
    with 1e-4 <= |x| < 1e16 go through an exact vectorised conversion
    (Dekker's two-product, rounded half to even); ``%`` formats any other
    float one cell at a time.  Memory does not grow with the table beyond
    the columns themselves.
    """
    converted = [_cells(i, c) for i, c in enumerate(columns)]
    if header is not None and len(header) != len(converted):
        raise ValueError(f"header has {len(header)} names for {len(converted)} columns")
    lengths = [len(values) for values, _ in converted]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns have unequal lengths {lengths}")
    sep_bytes = np.frombuffer(sep.encode("utf-8"), np.uint8)

    def block_text(start: int) -> str:
        parts = []
        for values, cells in converted:
            block = cells(values[start : start + _BLOCK_ROWS])
            if parts:
                parts.append(np.broadcast_to(sep_bytes, (len(block), sep_bytes.size)))
            parts.append(block)
        parts.append(np.full((len(block), 1), ord("\n"), np.uint8))
        return np.concatenate(parts, axis=1).tobytes().translate(None, b"\xff").decode("utf-8")

    lines = map(block_text, range(0, lengths[0] if lengths else 0, _BLOCK_ROWS))
    if header is not None:
        lines = itertools.chain([sep.join(header) + "\n"], lines)
    atomic_write_lines(path, lines)
