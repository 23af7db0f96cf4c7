import numpy as np
import pytest

from crspectra.runtime import chunk_slices, map_chunks, max_threads, sum_chunks

CHUNK = 7


@pytest.mark.parametrize("total", [0, 1, CHUNK, CHUNK + 1, 3 * CHUNK])
def test_chunk_slices_cover_the_range_in_order(total):
    # contiguous full chunks from 0, the last one ending at total; no points
    # is one empty chunk
    slices = chunk_slices(total, CHUNK)
    starts = [sl.start for sl in slices]
    assert starts == list(range(0, max(total, 1), CHUNK))
    assert [sl.stop for sl in slices] == starts[1:] + [total]


def test_running_sum_adds_chunks_as_axis_zero_sum_does():
    data = np.random.default_rng(5).standard_normal((3 * CHUNK + 2, 4, 5))
    got = sum_chunks(lambda sl: data[sl].sum(axis=0), len(data), CHUNK)
    want = np.stack([data[sl].sum(axis=0) for sl in chunk_slices(len(data), CHUNK)]).sum(axis=0)
    assert np.array_equal(got, want)
    assert np.array_equal(map_chunks(lambda sl: 2 * data[sl], len(data), CHUNK), 2 * data)


def test_max_threads_is_one():
    assert max_threads() == 1
