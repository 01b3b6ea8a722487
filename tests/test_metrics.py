from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from forecast_stability import (
    cv_cell,
    cv_grid,
    histogram,
    postprocess,
    quantiles,
    rmse,
)
from forecast_stability.metrics import (
    AccuracyReport,
    CvGrid,
    EmptyInput,
    EmptySample,
    NonFiniteInput,
    OutOfRange,
    ProbOutOfRange,
    ShapeMismatch,
    accuracy_report,
)


def brute_force_cell(sample):
    """Independent per-cell recomputation: sequential mean/std/cv."""
    n = len(sample)
    total = 0.0
    for v in sample:
        total += float(v)
    mean = total / n
    ssq = 0.0
    for v in sample:
        d = float(v) - mean
        ssq += d * d
    std = math.sqrt(ssq / (n - 1)) if n > 1 else 0.0
    cv = std / mean if mean != 0.0 else 0.0
    return cv, mean, std


# ---------------------------------------------------------------- postprocess

def test_postprocess_clips_then_rounds():
    out = postprocess(np.array([-0.4, 2.6]))
    assert out.tolist() == [0, 3]


def test_postprocess_zero_identity():
    assert postprocess(np.zeros(3)).tolist() == [0, 0, 0]


def test_postprocess_half_away_from_zero():
    out = postprocess(np.array([1.5, 2.5, -2.5]))
    assert out.tolist() == [2, 3, 0]


def test_postprocess_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        postprocess(np.array([1.0, float("nan")]))
    with pytest.raises(NonFiniteInput):
        postprocess(np.array([float("inf")]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_postprocess_rejects_values_int64_cannot_hold():
    # 2**63 - 1024 is the largest float64 below 2**63; it still fits
    assert postprocess(np.array([2.0**63 - 1024])).tolist() == [2**63 - 1024]
    for value in (2.0**63, 1e300):
        with pytest.raises(OutOfRange):
            postprocess(np.array([1.0, value]))
    assert postprocess(np.array([-1e300])).tolist() == [0]


@given(
    st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1, max_size=40
    )
)
def test_postprocess_idempotent(raw):
    once = postprocess(np.array(raw))
    twice = postprocess(once)
    assert np.array_equal(once, twice)
    assert np.all(once >= 0)


# ---------------------------------------------------------------------- cv

def test_cv_cell_constant_sample():
    assert cv_cell([10, 10, 10]) == (0.0, 10.0, 0.0)


def test_cv_cell_all_zero_sample():
    assert cv_cell([0, 0, 0]) == (0.0, 0.0, 0.0)


def test_cv_cell_hand_checked():
    cv, mean, std = cv_cell([1, 2, 3])
    assert mean == 2.0
    assert std == 1.0
    assert cv == 0.5


def test_cv_cell_single_observation_has_zero_std():
    assert cv_cell([4]) == (0.0, 4.0, 0.0)


def test_cv_cell_empty_rejected():
    with pytest.raises(EmptySample):
        cv_cell([])


@given(
    st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2, max_size=20),
    st.floats(min_value=0.001, max_value=1e3),
)
def test_raw_cv_scale_invariance(sample, factor):
    # On strictly positive raw samples (pre-rounding), cv is scale-free.
    base = cv_cell(sample)[0]
    scaled = cv_cell([v * factor for v in sample])[0]
    assert scaled == pytest.approx(base, abs=1e-12, rel=1e-9)


def test_cv_grid_identical_runs_are_all_zero():
    runs = np.tile(np.array([[1.0, 2.0], [3.0, 4.0]]), (5, 1, 1))
    grid = cv_grid(runs)
    assert np.all(grid.cv == 0.0)
    assert np.all(grid.std == 0.0)


def test_cv_grid_single_cell_matches_cv_cell():
    runs = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
    grid = cv_grid(runs)
    assert grid.cv[0, 0] == 0.5
    assert grid.mean[0, 0] == 2.0
    assert grid.std[0, 0] == 1.0


def test_cv_grid_applies_postprocessing_first():
    runs = np.array([-0.4, 0.4]).reshape(2, 1, 1)
    grid = cv_grid(runs)
    assert grid.cv[0, 0] == 0.0
    assert grid.mean[0, 0] == 0.0


def test_cv_grid_requires_two_runs():
    with pytest.raises(EmptySample):
        cv_grid(np.ones((1, 1, 1)))


def test_cv_grid_requires_a_three_dimensional_grid():
    with pytest.raises(ShapeMismatch):
        cv_grid(np.ones((2, 3)))


def test_cv_grid_exhaustive_oracle_small_samples():
    # every post-processed sample with R <= 4 and values in {0..3}
    for r in (2, 3, 4):
        for sample in itertools.product(range(4), repeat=r):
            runs = np.array(sample, dtype=float).reshape(r, 1, 1)
            grid = cv_grid(runs)
            cv, mean, std = brute_force_cell(sample)
            assert grid.cv[0, 0] == cv
            assert grid.mean[0, 0] == mean
            assert grid.std[0, 0] == std
            assert cv_cell(sample) == (cv, mean, std)


def test_cv_grid_randomized_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        r = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        h = int(rng.integers(1, 5))
        runs = rng.uniform(-3, 9, size=(r, m, h))
        grid = cv_grid(runs)
        processed = postprocess(runs)
        for i in range(m):
            for t in range(h):
                cv, mean, std = brute_force_cell(processed[:, i, t].tolist())
                assert grid.cv[i, t] == cv
                assert grid.mean[i, t] == mean
                assert grid.std[i, t] == std


def test_degenerate_mean_closure_exhaustive():
    # mu = 0 forces sigma = 0 and cv = 0; cv always finite and nonnegative
    for r in (1, 2, 3, 4):
        for sample in itertools.product(range(4), repeat=r):
            cv, mean, std = cv_cell(sample)
            if mean == 0.0:
                assert set(sample) == {0}
                assert std == 0.0
                assert cv == 0.0
            assert math.isfinite(cv)
            assert cv >= 0.0


def test_cv_grid_rejects_nonfinite():
    runs = np.full((2, 1, 1), np.nan)
    with pytest.raises(NonFiniteInput):
        cv_grid(runs)


def test_cv_grid_invariants_on_random_corpus():
    rng = np.random.default_rng(7)
    runs = rng.normal(20, 15, size=(10, 30, 6))
    grid = cv_grid(runs)
    assert np.all(np.isfinite(grid.cv))
    assert np.all(grid.cv >= 0)
    zero_mean = grid.mean == 0
    assert np.all(grid.std[zero_mean] == 0)
    assert np.all(grid.cv[zero_mean] == 0)


# -------------------------------------------------------------------- rmse

def test_rmse_zero_when_equal():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert rmse(a, a) == 0.0


def test_rmse_hand_checked_sqrt_ten():
    value = rmse(np.array([[3.0, 5.0]]), np.array([[1.0, 1.0]]))
    assert value == pytest.approx(math.sqrt(10.0), abs=1e-12)


def test_rmse_constant_offset_is_exact():
    a = np.array([[1.0, 7.0], [2.0, 9.0]])
    assert rmse(a + 2.0, a) == 2.0


def test_rmse_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        rmse(np.ones((1, 2)), np.ones((2, 1)))


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=4),
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=4),
)
def test_rmse_symmetry(a, b):
    fa = np.array(a).reshape(2, 2)
    fb = np.array(b).reshape(2, 2)
    assert rmse(fa, fb) == rmse(fb, fa)


def test_rmse_permutation_invariance():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(4, 5))
    perm = rng.permutation(20)
    pa = a.reshape(-1)[perm].reshape(4, 5)
    pb = b.reshape(-1)[perm].reshape(4, 5)
    assert rmse(pa, pb) == pytest.approx(rmse(a, b), rel=1e-12)


def test_accuracy_report_from_a_run_grid():
    runs = np.stack([np.array([[3.0, 5.0]]), np.array([[1.0, 1.0]])])
    report = accuracy_report(runs, np.array([[1.0, 1.0]]), "m")
    assert report.rmse_per_run[0] == pytest.approx(math.sqrt(10.0), abs=1e-12)
    assert report.rmse_per_run[1] == 0.0


def test_accuracy_report_requires_a_three_dimensional_grid():
    with pytest.raises(ShapeMismatch):
        accuracy_report(np.ones((2, 3)), np.ones((2, 3)), "m")


def test_accuracy_report_requires_a_run():
    with pytest.raises(EmptySample):
        accuracy_report(np.ones((0, 1, 2)), np.ones((1, 2)), "m")


# --------------------------------------------------------------- quantiles

def test_quantiles_linear_interpolation():
    values = list(range(1, 11))
    assert quantiles(values, [0.5]) == [5.5]


def test_quantiles_extremes():
    values = [9.0, 2.0, 5.0, 7.0]
    assert quantiles(values, [0.0]) == [2.0]
    assert quantiles(values, [1.0]) == [9.0]


def test_quantiles_default_probs():
    out = quantiles([0.0, 0.1, 0.2, 0.3])
    assert out == pytest.approx([0.075, 0.15, 0.225, 0.27], abs=1e-12)


def test_quantiles_against_numpy_oracle():
    rng = np.random.default_rng(11)
    values = rng.normal(size=257).tolist()
    probs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    expected = np.quantile(values, probs).tolist()
    assert quantiles(values, probs) == pytest.approx(expected, abs=1e-12)


def test_quantiles_errors():
    with pytest.raises(EmptyInput):
        quantiles([], [0.5])
    with pytest.raises(ProbOutOfRange):
        quantiles([1.0], [1.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quantiles_reject_values_that_are_not_finite(bad):
    with pytest.raises(NonFiniteInput):
        quantiles([1.0, bad, 2.0], (0.5, 1.0))


# --------------------------------------------------------------- histogram

def test_histogram_hand_placed():
    hist = histogram([0.0, 0.5, 1.0], bin_count=2, clip_upper=1.0)
    assert hist.bins == ((0.0, 0.5, 1), (0.5, 1.0, 2))
    assert hist.excluded == 0


def test_histogram_all_above_clip():
    hist = histogram([2.0, 3.0, 9.9], bin_count=4, clip_upper=1.0)
    assert all(count == 0 for _, _, count in hist.bins)
    assert hist.excluded == 3


def test_histogram_single_zero_value():
    hist = histogram([0.0], bin_count=1, clip_upper=1.0)
    assert hist.bins == ((0.0, 1.0, 1),)
    assert hist.excluded == 0


def test_histogram_conservation():
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 2, size=500).tolist()
    hist = histogram(values, bin_count=7, clip_upper=1.0)
    assert hist.total_count + hist.excluded == 500


def test_histogram_errors():
    with pytest.raises(EmptyInput):
        histogram([], 3, 1.0)
    with pytest.raises(ValueError):
        histogram([0.1], 0, 1.0)
    with pytest.raises(ValueError):
        histogram([0.1], 3, 0.0)


def test_accuracy_report_validation():
    with pytest.raises(ValueError):
        AccuracyReport(model_label="m", rmse_per_run=(-1.0,))


def test_cv_grid_type_rejects_inconsistent_zero_mean():
    with pytest.raises(ValueError):
        CvGrid(
            cv=np.array([[0.5]]), mean=np.array([[0.0]]), std=np.array([[1.0]])
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_histogram_rejects_values_that_are_not_finite(bad):
    with pytest.raises(NonFiniteInput):
        histogram([0.1, bad], 4, 1.0)


def test_histogram_rejects_negative_values():
    with pytest.raises(OutOfRange, match="nonnegative"):
        histogram([-5.0, 0.1], 4, 1.0)
