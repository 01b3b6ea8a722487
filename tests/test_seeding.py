from __future__ import annotations

import numpy as np
import pytest

from forecast_stability.seeding import Rng, derive_seed, fnv1a64, splitmix64

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
    # the raw draws never tie, so the default sort gives the stable order
    for n in (1, 2, 31, 1000, 100_000):
        keys = Rng(seed).u64_array(n)
        assert np.array_equal(Rng(seed).permutation(n), np.argsort(keys, kind="stable"))
