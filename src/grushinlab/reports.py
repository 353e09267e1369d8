"""Report serialisation: canonical JSON, content hashes, atomic file writes.

Every output file is written whole or not at all (lines streamed into a temp
file in the target directory, then renamed).  ``write_csv`` alone turns
numbers into table text, one format per column, floats with 17 significant
digits, so reruns of the same config produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Sequence

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
    """Recursively convert dataclasses / numpy values to plain JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
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
    and ``path`` keeps its old content.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_report(path: Path, payload: Any) -> None:
    atomic_write_lines(path, [json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"])


# Rows converted to Python values and formatted by one ``%`` at a time: the
# text is the same for any block size, and memory stays bounded by a block.
_BLOCK_ROWS = 4096


def _column_format(index: int, column: Sequence[Any]) -> tuple[str, np.ndarray]:
    """The ``%`` format of one column and its cells as a 1-d array."""
    values = np.asarray(column)
    if values.ndim != 1:
        raise ValueError(f"column {index} must be 1-d, got shape {values.shape}")
    kind = values.dtype.kind
    if kind == "f":
        return "%.17g", values
    if kind == "b":
        return "%s", np.where(values, "true", "false")
    if kind in "iuU":
        return "%s", values
    raise ValueError(f"column {index} has unsupported dtype {values.dtype}")


def write_csv(path: Path, header: Sequence[str] | None, columns: Sequence, sep: str = ",") -> None:
    """Write equal-length columns as ``sep``-separated lines, atomically.

    Float columns carry 17 significant digits (``%.17g``), bool columns
    ``true``/``false``, integer and string columns ``str``; any other dtype
    raises ``ValueError``.  ``header=None`` writes no header line.  Cells
    are converted and formatted a block of rows at a time, one ``%`` per
    block, so memory does not grow with the table beyond the columns
    themselves.
    """
    formatted = [_column_format(i, c) for i, c in enumerate(columns)]
    cells = [values for _, values in formatted]
    if header is not None and len(header) != len(cells):
        raise ValueError(f"header has {len(header)} names for {len(cells)} columns")
    if len({len(c) for c in cells}) > 1:
        raise ValueError(f"columns have unequal lengths {[len(c) for c in cells]}")
    row = sep.join(fmt for fmt, _ in formatted) + "\n"

    def block_text(start: int) -> str:
        block = [c[start : start + _BLOCK_ROWS].tolist() for c in cells]
        flat = [None] * sum(map(len, block))
        for j, column in enumerate(block):
            flat[j :: len(block)] = column
        return row * len(block[0]) % tuple(flat)

    lines = map(block_text, range(0, len(cells[0]) if cells else 0, _BLOCK_ROWS))
    if header is not None:
        lines = itertools.chain([sep.join(header) + "\n"], lines)
    atomic_write_lines(path, lines)
