"""Chunked evaluation on the calling thread: chunk boundaries depend only on
the total and the chunk size, and chunks run and combine in chunk order."""

from __future__ import annotations

import numpy as np

# points per chunk of the ray projection and of the frame's order-2 jets
CHUNK_POINTS = 8192


def max_threads() -> int:
    """1: every chunk runs on the calling thread.  Nothing in crspectra calls
    it; ``perfbench/tracer.py``, its only importer, reads it."""
    return 1


def chunk_slices(total, chunk_size):
    """Contiguous slices of chunk_size items covering range(total) in order
    (the last may be shorter); total = 0 is one empty chunk."""
    return [slice(s, min(s + chunk_size, total)) for s in range(0, max(total, 1), chunk_size)]


def map_chunks(fn, total, chunk_size):
    """fn(slice) over chunk_slices(total, chunk_size), concatenated in order
    along axis 0."""
    return np.concatenate([fn(s) for s in chunk_slices(total, chunk_size)], axis=0)


def sum_chunks(fn, total, chunk_size):
    """The sum of the fresh arrays fn(slice) over chunk_slices(total,
    chunk_size), each added into one running sum in chunk order as it is
    made: bit-identical to np.stack(parts).sum(axis=0), one part alive."""
    slices = chunk_slices(total, chunk_size)
    running = fn(slices[0])
    for sl in slices[1:]:
        running += fn(sl)
    return running
