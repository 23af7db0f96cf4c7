"""Execution helpers: thread budget and deterministic chunked evaluation."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

ENV_THREADS = "CR_SPECTRA_THREADS"

# points per chunk of the ray projection and of the frame's order-2 jets
CHUNK_POINTS = 8192


def max_threads() -> int:
    """Worker budget from CR_SPECTRA_THREADS; hardware concurrency by default."""
    value = os.environ.get(ENV_THREADS)
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            pass
    return os.cpu_count() or 1


def map_chunks(fn, total, chunk_size):
    """Apply fn(slice) over fixed-size chunks and concatenate results in order.

    Chunk boundaries are independent of the thread budget, so results are
    bit-identical whatever parallelism is used.  total = 0 is one empty chunk.
    """
    slices = [slice(s, min(s + chunk_size, total)) for s in range(0, max(total, 1), chunk_size)]
    workers = min(max_threads(), len(slices))
    if workers <= 1 or len(slices) == 1:
        parts = [fn(s) for s in slices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(fn, slices))
    first = parts[0]
    if isinstance(first, tuple):
        return tuple(np.concatenate([p[i] for p in parts], axis=0) for i in range(len(first)))
    return np.concatenate(parts, axis=0)

