from __future__ import annotations

import numpy as np
import pytest

from forecast_stability.seeding import (
    Rng,
    _argsort_distinct,
    derive_seed,
    fnv1a64,
    splitmix64,
)

MASK = (1 << 64) - 1


def reference_splitmix64(seed: int, count: int) -> list[int]:
    """Independent transcription of the published splitmix64 generator."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append((z ^ (z >> 31)) & MASK)
    return out


def test_splitmix64_matches_reference_first_output():
    assert splitmix64(0) == reference_splitmix64(0, 1)[0]
    assert splitmix64(0) == 0xE220A8397B1DCDAF  # published test vector


def test_derive_seed_zero_zero_is_reference_first_output():
    assert derive_seed(0, 0) == reference_splitmix64(0, 1)[0]


def test_derive_seed_collision_scan():
    for master in (0, 1, 42):
        seen = {derive_seed(master, tag) for tag in range(1001)}
        assert len(seen) == 1001


def test_derive_seed_is_pure():
    assert derive_seed(123, 456) == derive_seed(123, 456)
    assert derive_seed(2**64 - 1, 17) == derive_seed(2**64 - 1, 17)


def test_fnv1a64_known_vectors():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("abc") == 0xE71FA2190541574B


def test_rng_stream_matches_reference():
    rng = Rng(99)
    draws = [rng.u64_array(1).tolist() for _ in range(8)]
    assert sum(draws, []) == reference_splitmix64(99, 8)


def test_rng_batch_equals_scalar_draws():
    # consecutive batches continue one stream: the state advances by each batch
    rng = Rng(7)
    batches = [rng.u64_array(n).tolist() for n in (50, 0, 1, 13)]
    assert sum(batches, []) == reference_splitmix64(7, 64)
    assert Rng(2**64 - 1).u64_array(3).tolist() == reference_splitmix64(2**64 - 1, 3)


def test_uniforms_in_unit_interval():
    u = Rng(3).uniforms(1000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_normals_are_finite_and_seeded():
    x = Rng(5).normals(1000)
    y = Rng(5).normals(1000)
    assert np.array_equal(x, y)
    assert np.all(np.isfinite(x))
    assert abs(float(x.mean())) < 0.2  # loose sanity on centering


def test_permutation_is_a_permutation():
    perm = Rng(11).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))
    assert np.array_equal(perm, Rng(11).permutation(100))


@pytest.mark.parametrize("seed", [0, 11, 2**63 + 5, 2**64 - 1])
def test_permutation_equals_stable_argsort(seed):
    # the raw draws never tie, so the default sort gives the stable order;
    # 2**17 rows take 17 index bits in the packed sort and 2**17 + 1 take
    # 18, and 75 800 is the row count of the sgd_refit benchmark panel
    for n in (0, 1, 2, 31, 1000, 2**17, 2**17 + 1, 75_800, 100_000):
        keys = Rng(seed).u64_array(n)
        assert np.array_equal(Rng(seed).permutation(n), np.argsort(keys, kind="stable"))


def test_packed_key_sort_falls_back_to_argsort_when_high_bits_tie():
    # Five keys take 3 index bits. Keys 1 and 2 differ only in their low 3
    # bits, so the packed words would order them by row index, not by key.
    keys = np.array([5 << 40, (9 << 40) | 1, 9 << 40, 1 << 40, 7 << 40], dtype=np.uint64)
    assert _argsort_distinct(keys).tolist() == [3, 0, 4, 2, 1]
    # All four keys share their high bits: the packed order would be 0, 1, 2, 3.
    keys = (np.uint64(0xDEADBEEF) << np.uint64(32)) | np.array([3, 2, 1, 0], dtype=np.uint64)
    assert _argsort_distinct(keys).tolist() == [3, 2, 1, 0]
