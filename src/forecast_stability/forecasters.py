"""Point forecasters spanning the deterministic/stochastic divide.

Two deterministic baselines (seasonal naive, per-series mean) ignore their
fit seed entirely. Two learned models (linear autoregressor, tiny MLP) are
trained by mini-batch SGD with seed-driven weight initialization and
seed-driven shuffling each epoch, so they reproduce the mechanism by which
large neural forecasters emit different outputs on identical inputs. Same
(kind, data, seed) always gives bit-identical parameters.

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


def fit(kind: ForecasterKind, train: TimeSeriesDataset, seed: int) -> FittedForecaster:
    """Fit a forecaster on a panel; the seed is the only stochastic input.

    Deterministic kinds ignore the seed. Learned kinds initialize weights
    from it and shuffle batches with it; refitting with an equal seed gives
    bit-identical parameters.
    """
    values = train.values
    if isinstance(kind, SeasonalNaive):
        if train.length < kind.period:
            raise InsufficientHistory(
                f"need at least {kind.period} observations, have {train.length}"
            )
        state = {"season": values[:, -kind.period :].copy()}
    elif isinstance(kind, GlobalMean):
        state = {"means": values.mean(axis=1)}
    elif isinstance(kind, (LinearAR, TinyMLP)):
        state = _fit_sgd(kind, values, seed)
    else:
        raise TypeError(f"not a forecaster kind: {kind!r}")
    return FittedForecaster(kind=kind, fit_seed=seed, state=state)


def predict(fitted: FittedForecaster, horizon: int) -> np.ndarray:
    """Forecast ``horizon`` steps ahead; returns a raw (M, horizon) matrix.

    Outputs are unconstrained reals (negatives possible); post-processing
    happens in the metrics layer.
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


def _lag_matrix(scaled: np.ndarray, lags: int) -> tuple[np.ndarray, np.ndarray]:
    # Pooled (window -> next value) pairs in canonical series-major,
    # time-ascending order; window column 0 is the oldest lag.
    windows = np.lib.stride_tricks.sliding_window_view(scaled, lags, axis=1)
    x = windows[:, :-1, :].reshape(-1, lags).copy()
    y = scaled[:, lags:].reshape(-1).copy()
    return x, y


def _fit_sgd(
    kind: LinearAR | TinyMLP, values: np.ndarray, seed: int
) -> dict[str, np.ndarray]:
    length = values.shape[1]
    if length <= kind.lags:
        raise InsufficientHistory(
            f"need more than {kind.lags} observations, have {length}"
        )
    scales = _scale_factors(values)
    scaled = values / scales[:, None]
    x, y = _lag_matrix(scaled, kind.lags)
    n = x.shape[0]
    rng = Rng(seed)

    if isinstance(kind, LinearAR):
        w = rng.normals(kind.lags) * (0.1 / np.sqrt(kind.lags))
        b = 0.0
        for _ in range(kind.epochs):
            perm = rng.permutation(n)
            for start in range(0, n, kind.batch_size):
                idx = perm[start : start + kind.batch_size]
                xb, yb = x[idx], y[idx]
                err = xb @ w + b - yb
                scale = 2.0 * kind.learning_rate / idx.size
                w = w - scale * (xb.T @ err)
                b = b - scale * err.sum()
        return {
            "weights": w,
            "bias": np.array(b, dtype=np.float64),
            "scales": scales,
            "window": scaled[:, -kind.lags :].copy(),
        }

    w1 = rng.normals(kind.lags * kind.hidden_dim).reshape(
        kind.lags, kind.hidden_dim
    ) * np.sqrt(1.0 / kind.lags)
    b1 = np.zeros(kind.hidden_dim)
    w2 = rng.normals(kind.hidden_dim) * np.sqrt(1.0 / kind.hidden_dim)
    b2 = 0.0
    for _ in range(kind.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, kind.batch_size):
            idx = perm[start : start + kind.batch_size]
            xb, yb = x[idx], y[idx]
            hidden = np.tanh(xb @ w1 + b1)
            err = hidden @ w2 + b2 - yb
            d_out = (2.0 / idx.size) * err
            d_hidden = np.outer(d_out, w2) * (1.0 - hidden * hidden)
            lr = kind.learning_rate
            w2 = w2 - lr * (hidden.T @ d_out)
            b2 = b2 - lr * d_out.sum()
            w1 = w1 - lr * (xb.T @ d_hidden)
            b1 = b1 - lr * d_hidden.sum(axis=0)
    return {
        "w1": w1,
        "b1": b1,
        "w2": w2,
        "b2": np.array(b2, dtype=np.float64),
        "scales": scales,
        "window": scaled[:, -kind.lags :].copy(),
    }


def _predict_recursive(
    kind: LinearAR | TinyMLP, state: dict[str, np.ndarray], horizon: int
) -> np.ndarray:
    window = state["window"].copy()
    steps = []
    for _ in range(horizon):
        if isinstance(kind, LinearAR):
            step = window @ state["weights"] + float(state["bias"])
        else:
            hidden = np.tanh(window @ state["w1"] + state["b1"])
            step = hidden @ state["w2"] + float(state["b2"])
        steps.append(step)
        window = np.concatenate([window[:, 1:], step[:, None]], axis=1)
    return np.stack(steps, axis=1) * state["scales"][:, None]
