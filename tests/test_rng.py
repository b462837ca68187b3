"""Tests for the numpy Philox4x64-10 streams and the variates drawn from them."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from collapse_lab import ensemble
from collapse_lab.ensemble import draw_traj_variates
from collapse_lab.rng import philox4x64

SEEDS = (0, 2**64 - 1)


def stream_words(seed, indices, n_blocks, first_block=0):
    """The rows' words in stream order: word 4b+j is x_j[:, b]."""
    x = philox4x64(seed, indices, n_blocks, first_block)
    assert len(x) == 4 and all(w.shape == (len(indices), n_blocks) for w in x)
    return np.stack(x, axis=-1).reshape(len(indices), 4 * n_blocks)


@pytest.mark.parametrize("seed", SEEDS)
def test_words_are_numpy_philox_words(seed):
    indices = [0, 1, 2**32 + 5, 2**64 - 1]
    words = stream_words(seed, indices, 3)
    for row, i in zip(words, indices):
        key = np.array([seed, i], dtype=np.uint64)
        np.testing.assert_array_equal(row, np.random.Philox(key=key).random_raw(12))
    # windows from block 1 and 2 on are the same streams less their first
    # blocks
    np.testing.assert_array_equal(stream_words(seed, indices, 2, first_block=1), words[:, 4:])
    x = philox4x64(seed, indices, 1, first_block=2)
    for j in range(4):
        np.testing.assert_array_equal(x[j][:, 0], words[:, 8 + j])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("index", [0, 2**32 + 7])
@pytest.mark.parametrize("n_steps", [1, 6, 13])
def test_uniforms_are_generator_random_bits(seed, index, n_steps):
    words = stream_words(seed, [index], -(-n_steps // 4))[0, :n_steps]
    key = np.array([seed, index], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key)).random(n_steps)
    np.testing.assert_array_equal((words >> np.uint64(11)) * 2.0**-53, want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_steps", [1, 4, 7])
def test_rows_across_chunk_boundaries_match_the_reference(
        monkeypatch, stream_reference, seed, n_steps):
    whole = draw_traj_variates(seed, range(8), n_steps)
    n_blocks = -(-(1 + 2 * -(-n_steps // 2)) // 4)
    # three rows per chunk: rows 2|3 and 5|6 straddle chunk boundaries; then
    # windows of one and two blocks split each row, and at n_steps = 4 and 7
    # one-block windows split the second Box-Muller pair (words 3 and 4)
    for chunk_blocks in (3 * n_blocks, 1, 2):
        monkeypatch.setattr(ensemble, "_CHUNK_BLOCKS", chunk_blocks)
        uniforms, normals = draw_traj_variates(seed, range(8), n_steps)
        assert uniforms.shape == (8,) and normals.shape == (8, n_steps)
        np.testing.assert_array_equal(uniforms, whole[0])
        np.testing.assert_array_equal(normals, whole[1])
        for i in range(8):
            want_u, want_z = stream_reference(seed, i, n_steps)
            assert uniforms[i] == want_u
            np.testing.assert_array_equal(normals[i], want_z)


def test_long_row_draws_in_bounded_memory():
    # 8 MB of output; whole-row temporaries would add about 56 MB
    n_steps = 10**6
    tracemalloc.start()
    try:
        uniforms, normals = draw_traj_variates(3, range(1), n_steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert uniforms.shape == (1,) and normals.shape == (1, n_steps)
    assert peak < 16 * n_steps + 2**23


def test_normals_are_standard_normal():
    _, normals = draw_traj_variates(2024, range(1000), 200)
    z = normals.ravel()
    assert z.size == 200_000
    assert abs(z.mean()) < 5.0 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / z.size)
    assert stats.kstest(z, "norm").pvalue > 0.01


def test_draw_raises_no_floating_point_error():
    # scalar uint64 overflow would raise here; array arithmetic wraps
    with np.errstate(all="raise"):
        uniforms, normals = draw_traj_variates(2**64 - 1, range(5), 9)
    assert np.all((uniforms >= 0) & (uniforms < 1)) and np.all(np.isfinite(normals))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_refused(seed):
    with pytest.raises(ValueError):
        philox4x64(seed, [0], 1)
