"""Point forecasters spanning the deterministic/stochastic divide.

Two deterministic baselines (seasonal naive, per-series mean) ignore their
fit seed entirely. Two learned models (linear autoregressor, tiny MLP) are
trained by mini-batch SGD with seed-driven weight initialization and
seed-driven shuffling each epoch, so they reproduce the mechanism by which
large neural forecasters emit different outputs on identical inputs. Same
(kind, data, seed) always gives bit-identical parameters.

A kind is one class: hyperparameter fields, ClassVars for its JSON ``name``
and whether it is ``seeded`` (unseen by the codec and ``asdict``), and the
``_fit`` and ``_predict`` that ``fit`` and ``predict`` call.

``fit`` takes a tuple of seeds and fits them all in one pass: one SGD loop
with a leading run axis, whose per-run results are bit-identical to
fitting each seed alone. All runs' parameters sit in one (R, P) buffer,
updated in place from an (R, P) gradient buffer: the same
``w - scale * g`` per element as a lone run. The scaled panel is read as
one overlapping record of ``lags + 1`` values per start offset, a window's
lags then its target; one fancy index of these records gathers every run's
windows for a few batches, and each step reads them in place. Each kind
builds the temporaries of a step, and every view of them and of the
parameters that the step reads, once per batch size, so a step makes only
its numpy calls. Products read a batch's lags through rows of ``lags + 1``
values: for up to 3 lags, OpenBLAS sums ``xb.T @ err`` over such rows in
another order than over a contiguous (batch, lags) copy, so a run's bits
are those of a per-run loop over the same rows.

Learned models pool training windows across series after per-series mean
scaling, so series of different magnitudes share one set of weights;
predictions are scaled back per series. Multi-step prediction is
recursive: each predicted value feeds the lag window for the next step.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import asdict, dataclass, fields
from typing import Callable, ClassVar, Mapping

import numpy as np

from . import codec, workers
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

    def __reduce__(self):
        # ``args`` holds only the message, which __init__ alone cannot take.
        return type(self), (self.args[0], self.runs), self.__dict__


def _require_positive(obj, *names: str) -> None:
    for name in names:
        if not 0 < getattr(obj, name) < math.inf:
            raise ValueError(f"{type(obj).__name__}.{name} must be positive and finite")


def _require_at_most(obj, **bounds: int) -> None:
    for name, bound in bounds.items():
        if getattr(obj, name, 0) > bound:
            raise ValueError(f"{type(obj).__name__}.{name} must be <= {bound}")


# A season of over 27 years of daily demand fails when the config is read,
# not when a fit finds too few observations.
MAX_PERIOD = 10_000


@dataclass(frozen=True)
class SeasonalNaive:
    """Repeat the last observed season; deterministic."""

    name: ClassVar[str] = "seasonal_naive"
    seeded: ClassVar[bool] = False
    period: int = 7

    def __post_init__(self):
        _require_positive(self, "period")
        _require_at_most(self, period=MAX_PERIOD)

    def _fit(self, values: np.ndarray) -> dict[str, np.ndarray]:
        if values.shape[1] < self.period:
            raise InsufficientHistory(
                f"need at least {self.period} observations, have {values.shape[1]}"
            )
        return {"season": values[:, -self.period :].copy()}

    def _predict(self, state: dict[str, np.ndarray], horizon: int) -> np.ndarray:
        return state["season"][:, np.arange(horizon) % self.period]


@dataclass(frozen=True)
class GlobalMean:
    """Per-series training mean, constant across the horizon; deterministic."""

    name: ClassVar[str] = "global_mean"
    seeded: ClassVar[bool] = False

    def _fit(self, values: np.ndarray) -> dict[str, np.ndarray]:
        return {"means": values.mean(axis=1)}

    def _predict(self, state: dict[str, np.ndarray], horizon: int) -> np.ndarray:
        return np.repeat(state["means"][:, None], horizon, axis=1)


# 1000 times the default: a config asking for more fails at once instead
# of running for good.
MAX_EPOCHS = 10_000
# A run's parameters stay at a few MiB: a TinyMLP at both bounds has
# 1000 * 256 + 2 * 256 + 1 of them, 2 MiB of float64.
MAX_LAGS = 1000
MAX_HIDDEN_DIM = 256
# A step's three (batch, hidden_dim) temporaries stay at 6 MiB per run at
# MAX_HIDDEN_DIM. Without a bound, a batch is cut only to the training rows,
# so its temporaries grow with the panel.
MAX_BATCH_SIZE = 1024

# Batches whose records one fancy index gathers in the SGD loop: few, so the
# gathered windows stay small (about 160 KiB for 10 runs of batch 32 and 7
# lags) and no copy of the window matrix is made.
_CHUNK_BATCHES = 8


class _Learned:
    """Base of the kinds trained by mini-batch SGD: the batched loop and
    recursive prediction. Each kind supplies ``param_names``, ``_init`` (one
    run's initial parameters), ``_step`` (one step of every run) and
    ``_predict_one``.
    """

    seeded: ClassVar[bool] = True
    param_names: ClassVar[tuple[str, ...]]

    def __post_init__(self):
        # Every hyperparameter of a learned kind is a positive number.
        _require_positive(self, *(field.name for field in fields(self)))
        _require_at_most(
            self,
            epochs=MAX_EPOCHS,
            lags=MAX_LAGS,
            hidden_dim=MAX_HIDDEN_DIM,
            batch_size=MAX_BATCH_SIZE,
        )

    def _fit(self, values: np.ndarray, seeds: tuple[int, ...]) -> list[dict[str, np.ndarray]]:
        """Mini-batch SGD of every seed's run at once, over a leading run axis.

        Training rows are the pooled (window -> next value) pairs in
        series-major, time-ascending order. All runs share the row count,
        so their batches line up.
        """
        n_series, length = values.shape
        if length <= self.lags:
            raise InsufficientHistory(
                f"need more than {self.lags} observations, have {length}"
            )
        # Per-series mean scaling; all-zero series keep scale 1 so they stay zero.
        scales = values.mean(axis=1)
        scales[scales == 0.0] = 1.0
        scaled = values / scales[:, None]
        flat = scaled.reshape(-1)
        per_series = length - self.lags
        n = n_series * per_series

        rngs = [Rng(seed) for seed in seeds]
        inits = [self._init(rng) for rng in rngs]
        params = np.array([np.concatenate([np.ravel(p) for p in init]) for init in inits])
        grads = np.empty_like(params)
        shapes = [np.shape(p) for p in inits[0]]
        splits = np.cumsum([math.prod(shape) for shape in shapes])[:-1]

        param_views, grad_views = (
            [part.reshape(len(seeds), *shape) for part, shape in zip(np.split(b, splits, 1), shapes)]
            for b in (params, grads)
        )
        steps = {}  # batch size -> (step size, its grad)
        index_type = np.int32 if flat.size <= np.iinfo(np.int32).max else np.intp
        # Offset in ``flat`` of row k: window k % per_series of series k // per_series.
        row_starts = np.arange(n, dtype=index_type)
        row_starts += row_starts // per_series * self.lags
        # starts[r, i]: offset in ``flat`` of run r's i-th window this epoch.
        starts = np.empty((len(seeds), n), dtype=index_type)
        # records[k]: the lags + 1 values from flat[k] on, a window's lags
        # then its target, as one record over ``flat``'s own memory.
        width = self.lags + 1
        records = np.ndarray(
            (flat.size - self.lags,), np.dtype((np.void, 8 * width)), flat, 0, (8,)
        )
        rows = _CHUNK_BATCHES * self.batch_size
        # A diverging run overflows to inf/NaN quietly; it is reported once, below.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.epochs):
                for row, rng in zip(starts, rngs):
                    np.take(row_starts, rng.permutation(n), out=row)
                for first in range(0, n, rows):
                    chunk = records[starts[:, first : first + rows]]
                    chunk = chunk.view(np.float64).reshape(*chunk.shape, width)
                    xs, ys = chunk[:, :, :-1], chunk[:, :, -1]
                    for at in range(0, chunk.shape[1], self.batch_size):
                        xb = xs[:, at : at + self.batch_size]
                        size = xb.shape[1]
                        if size not in steps:
                            steps[size] = self._step(param_views, grad_views, size)
                        scale, grad = steps[size]
                        grad(xb, ys[:, at : at + size])
                        np.multiply(scale, grads, out=grads)
                        np.subtract(params, grads, out=params)

        finite = np.isfinite(params).all(axis=1)
        if not finite.all():
            runs = tuple(int(r) for r in np.flatnonzero(~finite))
            named = ", ".join(str(seeds[r]) for r in runs)
            raise Diverged(
                f"{self.name} diverged: non-finite parameters for seeds {named}", runs
            )
        window = scaled[:, -self.lags :].copy()
        return [
            {
                **{name: np.array(p[r]) for name, p in zip(self.param_names, param_views)},
                "scales": scales,
                "window": window,
            }
            for r in range(len(seeds))
        ]

    def _predict(self, state: dict[str, np.ndarray], horizon: int) -> np.ndarray:
        window = state["window"]
        steps = []
        # Huge finite weights overflow quietly; postprocess rejects the result.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(horizon):
                step = self._predict_one(state, window)
                steps.append(step)
                window = np.concatenate([window[:, 1:], step[:, None]], axis=1)
            return np.stack(steps, axis=1) * state["scales"][:, None]


# A ``_step`` allocates the temporaries of one step of ``batch`` rows,
# builds every view of them and of the parameter and gradient views that the
# step reads, and returns the step size and ``grad(xb, yb)``, which fills the
# gradient views of every run with numpy calls alone. Each product is one
# np.matmul over the run axis, a vector taken as an (R, n, 1) view: numpy
# makes the same BLAS call for each run's slab as for one run's product, so
# every run's bits match.


@dataclass(frozen=True)
class LinearAR(_Learned):
    """Linear map from the last ``lags`` values to the next, trained by SGD."""

    name: ClassVar[str] = "linear_ar"
    param_names: ClassVar[tuple[str, ...]] = ("weights", "bias")
    lags: int = 7
    epochs: int = 10
    learning_rate: float = 0.05
    batch_size: int = 32

    def _init(self, rng: Rng) -> tuple:
        return rng.normals(self.lags) * (0.1 / np.sqrt(self.lags)), 0.0

    def _step(self, params, grads, batch: int) -> tuple[float, Callable]:
        (w, b), (g_w, g_b) = params, grads
        err = np.empty((len(b), batch))
        w_col, b_col, g_w_col = w[:, :, None], b[:, None], g_w[:, :, None]
        err_col = err[:, :, None]

        def grad(xb: np.ndarray, yb: np.ndarray) -> None:
            np.matmul(xb, w_col, out=err_col)
            np.add(err, b_col, out=err)
            np.subtract(err, yb, out=err)
            np.matmul(xb.transpose(0, 2, 1), err_col, out=g_w_col)
            np.add.reduce(err, axis=1, out=g_b)

        return 2.0 * self.learning_rate / batch, grad

    def _predict_one(self, state: dict[str, np.ndarray], window: np.ndarray) -> np.ndarray:
        return window @ state["weights"] + float(state["bias"])


@dataclass(frozen=True)
class TinyMLP(_Learned):
    """One tanh hidden layer over the lag window; a nonconvex stochastic model."""

    name: ClassVar[str] = "tiny_mlp"
    param_names: ClassVar[tuple[str, ...]] = ("w1", "b1", "w2", "b2")
    lags: int = 7
    hidden_dim: int = 8
    epochs: int = 10
    learning_rate: float = 0.05
    batch_size: int = 32

    def _init(self, rng: Rng) -> tuple:
        w1 = rng.normals(self.lags * self.hidden_dim).reshape(
            self.lags, self.hidden_dim
        ) * np.sqrt(1.0 / self.lags)
        w2 = rng.normals(self.hidden_dim) * np.sqrt(1.0 / self.hidden_dim)
        return w1, np.zeros(self.hidden_dim), w2, 0.0

    def _step(self, params, grads, batch: int) -> tuple[float, Callable]:
        (w1, b1, w2, b2), (g_w1, g_b1, g_w2, g_b2) = params, grads
        # Hidden-layer arrays are batch-major, (batch, run, hidden): their
        # elementwise steps run over contiguous memory, and the sum of
        # d_hidden over the batch adds whole rows in batch order, as one
        # run's sum does.
        by_batch = (batch, len(b2), self.hidden_dim)
        hidden, slope, d_hidden = np.empty(by_batch), np.empty(by_batch), np.empty(by_batch)
        d_out = np.empty((len(b2), batch))
        by_run, d_hidden_by_run = hidden.transpose(1, 0, 2), d_hidden.transpose(1, 0, 2)
        hidden_t = by_run.transpose(0, 2, 1)
        d_out_col, d_out_by_batch = d_out[:, :, None], d_out.T[:, :, None]
        w2_col, b2_col, g_w2_col = w2[:, :, None], b2[:, None], g_w2[:, :, None]
        mean = 2.0 / batch

        def grad(xb: np.ndarray, yb: np.ndarray) -> None:
            np.matmul(xb, w1, out=by_run)
            np.add(hidden, b1, out=hidden)
            np.tanh(hidden, out=hidden)
            np.matmul(by_run, w2_col, out=d_out_col)
            np.add(d_out, b2_col, out=d_out)
            np.subtract(d_out, yb, out=d_out)
            np.multiply(d_out, mean, out=d_out)
            np.multiply(d_out_by_batch, w2, out=d_hidden)
            np.multiply(hidden, hidden, out=slope)
            np.subtract(1.0, slope, out=slope)
            np.multiply(d_hidden, slope, out=d_hidden)
            np.matmul(xb.transpose(0, 2, 1), d_hidden_by_run, out=g_w1)
            np.add.reduce(d_hidden, axis=0, out=g_b1)
            np.matmul(hidden_t, d_out_col, out=g_w2_col)
            np.add.reduce(d_out, axis=1, out=g_b2)

        return self.learning_rate, grad

    def _predict_one(self, state: dict[str, np.ndarray], window: np.ndarray) -> np.ndarray:
        hidden = np.tanh(window @ state["w1"] + state["b1"])
        return hidden @ state["w2"] + float(state["b2"])


ForecasterKind = SeasonalNaive | GlobalMean | LinearAR | TinyMLP

_KIND_TYPES = {cls.name: cls for cls in ForecasterKind.__args__}


def kind_to_json(kind: ForecasterKind) -> dict:
    """JSON object form: ``{"kind": name, "params": {...}}``."""
    return {"kind": kind.name, "params": asdict(kind)}


def kind_from_json(obj: Mapping, where: str = "kind") -> ForecasterKind:
    """Read ``{"kind": name, "params": {...}}``; raises ValueError naming the key path."""
    (name, params), _ = codec.take(obj, where, "kind", "params", only=True)
    cls = _KIND_TYPES.get(codec.read(str, name, f"{where}.kind"))
    if cls is None:
        raise codec.fault(f"{where}.kind", f"unknown forecaster kind {name!r}")
    return codec.from_json(cls, {} if params is codec.MISSING else params, f"{where}.params")


@dataclass(frozen=True, eq=False)
class FittedForecaster:
    """A trained forecaster: its kind and learned state arrays.

    ``predict`` is a pure function of this object and the horizon; a model
    equals and hashes as itself only.
    """

    kind: ForecasterKind
    state: dict[str, np.ndarray]

    def __post_init__(self):
        for arr in self.state.values():
            arr.flags.writeable = False


def fit(
    kind: ForecasterKind, train: TimeSeriesDataset, seeds: tuple[int, ...]
) -> tuple[FittedForecaster, ...]:
    """Fit one forecaster per seed on a panel; the seed is the only stochastic input.

    Returns one :class:`FittedForecaster` per seed, in seed order.
    Deterministic kinds ignore the seed: they fit once and return that one
    forecaster for every seed. Learned kinds fit all seeds in one batched
    SGD pass; run ``r`` initializes its weights from ``Rng(seeds[r])`` and
    shuffles each epoch with the same stream, so its parameters are
    bit-identical to those of ``fit(kind, train, (seeds[r],))[0]``. Raises
    :class:`Diverged` naming every seed whose final parameters are not
    finite.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("fit needs at least one seed")
    if not isinstance(kind, ForecasterKind):
        raise TypeError(f"not a forecaster kind: {kind!r}")
    if kind.seeded:
        return tuple(FittedForecaster(kind, state) for state in kind._fit(train.values, seeds))
    return (FittedForecaster(kind, kind._fit(train.values)),) * len(seeds)


def predict(fitted: FittedForecaster, horizon: int) -> np.ndarray:
    """Forecast ``horizon`` steps ahead; returns a raw (M, horizon) matrix.

    Outputs are unconstrained reals (negatives possible, and inf or NaN
    from a model whose finite weights are huge); post-processing happens
    in the metrics layer, which rejects what it cannot deliver.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return fitted.kind._predict(fitted.state, horizon)


def _fit_jobs(fit: Callable, jobs: list[tuple]) -> list:
    """Call ``fit(kind, panel, seeds)`` for each job; returns, in job order,
    each job's fitted models, the exception it raised, or None for a job
    not run because a job before it failed.

    The seeded jobs are dealt out in turn to ``n`` workers: this process
    is the first, and takes the first share and every deterministic job;
    each other share goes to a child forked by :func:`workers.fork`. ``n``
    is ``min(CPUs, seeded jobs)`` when :func:`workers.cpus` allows a fork,
    and 1 otherwise or for a wrapped ``fit`` (one with ``__wrapped__``), so
    that every job runs here, in order, and nothing forks. A child runs the
    same code on the same BLAS kernel, so its models have the bits of an
    in-process fit; it sends their states back, and they are made read-only
    here again. Each worker stops at its first failure, so the first job in
    order that did not fit holds an exception.
    """
    seeded = [i for i, (kind, _, _) in enumerate(jobs) if getattr(kind, "seeded", False)]
    # A wrapped fit, such as a tracer's, would not see the calls of a child.
    others = set() if len(seeded) < 2 or hasattr(fit, "__wrapped__") else workers.cpus()
    n = min(len(others) + 1, len(seeded)) if others else 1
    results = [None] * len(jobs)
    children = []  # (child, its share)
    here = set(range(len(jobs))) - set(seeded) | set(seeded[::n])
    try:
        for w in range(1, n):
            share = seeded[w::n]
            child = workers.fork(
                lambda share=share: [_sendable(r) for r in _fit_in_order(fit, jobs, share)], others
            )
            if child is None:
                here.update(share)
            else:
                children.append((child, share))
        here = sorted(here)
        for i, r in zip(here, _fit_in_order(fit, jobs, here)):
            results[i] = r
        for child, share in children:
            try:
                sent = child.join()
            except workers.NoResult as exc:
                sent = [ForecasterError(f"a fit worker {exc}")] * len(share)
            for i, r in zip(share, sent):
                if not isinstance(r, Exception):
                    r = tuple(FittedForecaster(jobs[i][0], state) for state in r)
                results[i] = r
    finally:
        for child, _ in children:
            child.close()
    return results


def _fit_in_order(fit: Callable, jobs: list[tuple], indices) -> list:
    """Each job of ``indices``'s fitted models, in turn, up to and
    including the exception of the first that fails."""
    done = []
    for i in indices:
        try:
            done.append(fit(*jobs[i]))
        except Exception as exc:
            done.append(exc)
            break
    return done


def _sendable(result):
    """A worker's result as it goes over the pipe: fitted models as their
    states, and an exception that does not survive a pickle round trip as
    a ForecasterError naming its type and message."""
    if not isinstance(result, Exception):
        return [model.state for model in result]
    try:
        pickle.loads(pickle.dumps(result))
    except Exception:
        return ForecasterError(f"{type(result).__name__}: {result}")
    return result
