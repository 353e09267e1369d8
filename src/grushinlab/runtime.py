"""Worker-thread bound for the chunked ellipticity audit."""

from __future__ import annotations

import os
from typing import Callable, TypeVar

THREADS_ENV = "GRUSHINLAB_THREADS"

T = TypeVar("T")


def thread_budget() -> int:
    """Worker bound from the GRUSHINLAB_THREADS env var; 0 or unset means 1."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as err:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from err
    return max(1, value)


def map_chunks(fn: Callable[[int, int], T], total: int, workers: int | None = None) -> list[T]:
    """Apply ``fn(start, stop)`` over contiguous chunks of range(total), in order.

    With workers > 1 the chunks run on a thread pool but the returned list is
    always in chunk order, so reductions over it are deterministic.  The
    pool's module (and ``logging`` with it) is imported only then.
    """
    if workers is None:
        workers = thread_budget()
    if total <= 0:
        return []
    if workers <= 1 or total < 2 * workers:
        return [fn(0, total)]
    edges = [total * k // workers for k in range(workers + 1)]
    spans = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(spans)) as pool:
        return list(pool.map(lambda span: fn(*span), spans))
