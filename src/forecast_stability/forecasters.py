"""Point forecasters spanning the deterministic/stochastic divide.

Two deterministic baselines (seasonal naive, per-series mean) ignore their
fit seed entirely. Two learned models (linear autoregressor, tiny MLP) are
trained by mini-batch SGD with seed-driven weight initialization and
seed-driven shuffling each epoch, so they reproduce the mechanism by which
large neural forecasters emit different outputs on identical inputs. Same
(kind, data, seed) always gives bit-identical parameters.

``fit`` takes a tuple of seeds and fits them all in one pass: one SGD loop
with a leading run axis, whose per-run results are bit-identical to
fitting each seed alone.

Learned models pool training windows across series after per-series mean
scaling, so series of different magnitudes share one set of weights;
predictions are scaled back per series. Multi-step prediction is
recursive: each predicted value feeds the lag window for the next step.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .dataset import TimeSeriesDataset
from .errors import ForecastStabilityError
from .seeding import Rng


class ForecasterError(ForecastStabilityError):
    pass


class InsufficientHistory(ForecasterError):
    pass


class Diverged(ForecasterError):
    """A learned model's parameters or forecasts blew up.

    ``runs`` holds the positions, in the seeds tuple of the failing call,
    of the runs that diverged.
    """

    def __init__(self, message: str, runs: tuple[int, ...]):
        super().__init__(message)
        self.runs = tuple(runs)


def _require_positive(obj, *names: str) -> None:
    for name in names:
        if getattr(obj, name) <= 0:
            raise ValueError(f"{type(obj).__name__}.{name} must be positive")


@dataclass(frozen=True)
class SeasonalNaive:
    """Repeat the last observed season; deterministic."""

    period: int = 7

    def __post_init__(self):
        _require_positive(self, "period")


@dataclass(frozen=True)
class GlobalMean:
    """Per-series training mean, constant across the horizon; deterministic."""


@dataclass(frozen=True)
class LinearAR:
    """Linear map from the last ``lags`` values to the next, trained by SGD."""

    lags: int = 7
    epochs: int = 10
    learning_rate: float = 0.05
    batch_size: int = 32

    def __post_init__(self):
        _require_positive(self, "lags", "epochs", "learning_rate", "batch_size")


@dataclass(frozen=True)
class TinyMLP:
    """One tanh hidden layer over the lag window; a nonconvex stochastic model."""

    lags: int = 7
    hidden_dim: int = 8
    epochs: int = 10
    learning_rate: float = 0.05
    batch_size: int = 32

    def __post_init__(self):
        _require_positive(
            self, "lags", "hidden_dim", "epochs", "learning_rate", "batch_size"
        )


ForecasterKind = SeasonalNaive | GlobalMean | LinearAR | TinyMLP

_KIND_NAMES: dict[type, str] = {
    SeasonalNaive: "seasonal_naive",
    GlobalMean: "global_mean",
    LinearAR: "linear_ar",
    TinyMLP: "tiny_mlp",
}
_KIND_TYPES = {name: cls for cls, name in _KIND_NAMES.items()}


def kind_to_json(kind: ForecasterKind) -> dict:
    """JSON object form: ``{"kind": name, "params": {...}}``."""
    return {"kind": _KIND_NAMES[type(kind)], "params": asdict(kind)}


def kind_from_json(obj: Mapping) -> ForecasterKind:
    try:
        cls = _KIND_TYPES[obj["kind"]]
    except KeyError as exc:
        raise ValueError(f"unknown forecaster kind in {obj!r}") from exc
    return cls(**obj.get("params", {}))


@dataclass(frozen=True, eq=False)
class FittedForecaster:
    """A trained forecaster: kind, seed used, and learned state arrays.

    ``predict`` is a pure function of this object and the horizon.
    """

    kind: ForecasterKind
    fit_seed: int
    state: dict[str, np.ndarray]

    def __post_init__(self):
        for arr in self.state.values():
            arr.flags.writeable = False


def fit(
    kind: ForecasterKind, train: TimeSeriesDataset, seeds: tuple[int, ...]
) -> tuple[FittedForecaster, ...]:
    """Fit one forecaster per seed on a panel; the seed is the only stochastic input.

    Returns one :class:`FittedForecaster` per seed, in seed order.
    Deterministic kinds ignore the seed: they fit once, and every returned
    forecaster shares that read-only state. Learned kinds fit all seeds in
    one batched SGD pass; run ``r`` initializes its weights from
    ``Rng(seeds[r])`` and shuffles each epoch with the same stream, so its
    parameters are bit-identical to those of ``fit(kind, train,
    (seeds[r],))[0]``. Raises :class:`Diverged` naming every seed whose
    final parameters are not finite.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("fit needs at least one seed")
    values = train.values
    if isinstance(kind, SeasonalNaive):
        if train.length < kind.period:
            raise InsufficientHistory(
                f"need at least {kind.period} observations, have {train.length}"
            )
        states = [{"season": values[:, -kind.period :].copy()}] * len(seeds)
    elif isinstance(kind, GlobalMean):
        states = [{"means": values.mean(axis=1)}] * len(seeds)
    elif isinstance(kind, (LinearAR, TinyMLP)):
        states = _fit_sgd(kind, values, seeds)
    else:
        raise TypeError(f"not a forecaster kind: {kind!r}")
    return tuple(
        FittedForecaster(kind=kind, fit_seed=seed, state=state)
        for seed, state in zip(seeds, states)
    )


def predict(fitted: FittedForecaster, horizon: int) -> np.ndarray:
    """Forecast ``horizon`` steps ahead; returns a raw (M, horizon) matrix.

    Outputs are unconstrained reals (negatives possible, and inf or NaN
    from a model whose finite weights are huge); post-processing happens
    in the metrics layer, which rejects what it cannot deliver.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    kind = fitted.kind
    state = fitted.state
    if isinstance(kind, SeasonalNaive):
        season = state["season"]
        cols = [season[:, h % kind.period] for h in range(horizon)]
        return np.stack(cols, axis=1)
    if isinstance(kind, GlobalMean):
        return np.repeat(state["means"][:, None], horizon, axis=1)
    if isinstance(kind, (LinearAR, TinyMLP)):
        return _predict_recursive(kind, state, horizon)
    raise TypeError(f"not a forecaster kind: {kind!r}")


def _scale_factors(values: np.ndarray) -> np.ndarray:
    # Per-series mean scaling; all-zero series keep scale 1 so they stay zero.
    scales = values.mean(axis=1)
    scales[scales == 0.0] = 1.0
    return scales


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Per-run (m, n) @ (n,): numpy makes the same BLAS call for each run's
    # slab as for the unstacked product, so every run's bits match.
    return np.matmul(a, v[:, :, None])[:, :, 0]


def _linear_ar_init(kind: LinearAR, rng: Rng) -> tuple:
    return rng.normals(kind.lags) * (0.1 / np.sqrt(kind.lags)), 0.0


def _linear_ar_step(kind: LinearAR, params: tuple, xb: np.ndarray, yb: np.ndarray):
    w, b = params
    err = _matvec(xb, w) + b[:, None] - yb
    scale = 2.0 * kind.learning_rate / xb.shape[1]
    return w - scale * _matvec(xb.transpose(0, 2, 1), err), b - scale * err.sum(axis=1)


def _tiny_mlp_init(kind: TinyMLP, rng: Rng) -> tuple:
    w1 = rng.normals(kind.lags * kind.hidden_dim).reshape(
        kind.lags, kind.hidden_dim
    ) * np.sqrt(1.0 / kind.lags)
    w2 = rng.normals(kind.hidden_dim) * np.sqrt(1.0 / kind.hidden_dim)
    return w1, np.zeros(kind.hidden_dim), w2, 0.0


def _tiny_mlp_step(kind: TinyMLP, params: tuple, xb: np.ndarray, yb: np.ndarray):
    w1, b1, w2, b2 = params
    hidden = np.tanh(np.matmul(xb, w1) + b1[:, None, :])
    err = _matvec(hidden, w2) + b2[:, None] - yb
    d_out = (2.0 / xb.shape[1]) * err
    d_hidden = (d_out[:, :, None] * w2[:, None, :]) * (1.0 - hidden * hidden)
    lr = kind.learning_rate
    return (
        w1 - lr * np.matmul(xb.transpose(0, 2, 1), d_hidden),
        b1 - lr * d_hidden.sum(axis=1),
        w2 - lr * _matvec(hidden.transpose(0, 2, 1), d_out),
        b2 - lr * d_out.sum(axis=1),
    )


# Per learned kind: state names of its parameters, initializer, SGD step.
_SGD = {
    LinearAR: (("weights", "bias"), _linear_ar_init, _linear_ar_step),
    TinyMLP: (("w1", "b1", "w2", "b2"), _tiny_mlp_init, _tiny_mlp_step),
}


def _fit_sgd(
    kind: LinearAR | TinyMLP, values: np.ndarray, seeds: tuple[int, ...]
) -> list[dict[str, np.ndarray]]:
    """Mini-batch SGD of every seed's run at once, over a leading run axis.

    Training rows are the pooled (window -> next value) pairs in
    series-major, time-ascending order. Each step gathers every run's
    batch of windows straight from a sliding view of the scaled panel.
    All runs share the row count, so their batches line up.
    """
    n_series, length = values.shape
    if length <= kind.lags:
        raise InsufficientHistory(
            f"need more than {kind.lags} observations, have {length}"
        )
    names, init, step = _SGD[type(kind)]
    scales = _scale_factors(values)
    scaled = values / scales[:, None]
    flat = scaled.reshape(-1)
    windows = np.lib.stride_tricks.sliding_window_view(flat, kind.lags)
    targets = flat[kind.lags :]
    per_series = length - kind.lags
    n = n_series * per_series

    rngs = [Rng(seed) for seed in seeds]
    params = tuple(np.array(p) for p in zip(*(init(kind, rng) for rng in rngs)))
    # starts[r, i]: offset in ``flat`` of run r's i-th window this epoch.
    index_type = np.int32 if flat.size <= np.iinfo(np.int32).max else np.intp
    starts = np.empty((len(seeds), n), dtype=index_type)
    # A diverging run overflows to inf/NaN quietly; it is reported once, below.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(kind.epochs):
            for row, rng in zip(starts, rngs):
                perm = rng.permutation(n)
                # Row k is window k % per_series of series k // per_series.
                np.add(perm, perm // per_series * kind.lags, out=row, casting="unsafe")
            for first in range(0, n, kind.batch_size):
                index = starts[:, first : first + kind.batch_size]
                params = step(kind, params, windows[index], targets[index])

    finite = np.ones(len(seeds), dtype=bool)
    for p in params:
        finite &= np.isfinite(p.reshape(len(seeds), -1)).all(axis=1)
    if not finite.all():
        runs = tuple(int(r) for r in np.flatnonzero(~finite))
        named = ", ".join(str(seeds[r]) for r in runs)
        raise Diverged(
            f"{_KIND_NAMES[type(kind)]} diverged: non-finite parameters for seeds {named}",
            runs,
        )
    window = scaled[:, -kind.lags :].copy()
    return [
        {
            **{name: np.array(p[r]) for name, p in zip(names, params)},
            "scales": scales,
            "window": window,
        }
        for r in range(len(seeds))
    ]


def _predict_recursive(
    kind: LinearAR | TinyMLP, state: dict[str, np.ndarray], horizon: int
) -> np.ndarray:
    window = state["window"].copy()
    steps = []
    # Huge finite weights overflow quietly; postprocess rejects the result.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(horizon):
            if isinstance(kind, LinearAR):
                step = window @ state["weights"] + float(state["bias"])
            else:
                hidden = np.tanh(window @ state["w1"] + state["b1"])
                step = hidden @ state["w2"] + float(state["b2"])
            steps.append(step)
            window = np.concatenate([window[:, 1:], step[:, None]], axis=1)
        return np.stack(steps, axis=1) * state["scales"][:, None]
