"""Euler simulation of the state/posterior pair under both measures.

Two routes to the posterior psi = P(J=1 | observed path):

* the filter SDE driven by the innovation Brownian motion (observation
  measure), with psi clamped to [0,1] after each Euler step;
* the Bayes/likelihood-ratio formula along a path simulated conditionally on
  the regime.

Both converge to the same object as dt -> 0; the self-convergence of their
gap is one of the acceptance checks.

Each loop is a row generator that yields one time row per step, a vector
over the paths, and holds nothing of path-set size besides: ``_filter_rows``
for the filter SDE, ``_regime_rows`` for X under a regime drift, with the
Girsanov log-likelihood behind the Bayes posterior on request, and
``_innovation_rows`` for the filter read off given paths.  Each step reads
the model's ``coefficients`` once, and every loop steps on ``_time_axis``,
which ends at T exactly and is the strategy maps' clock too.

One collector, ``_stack``, fills a preallocated time-major
``(..., steps + 1, paths)`` buffer with rows, for every simulator here and
for ``StrategyMap.evaluate``, and returns its view indexed ``[path, step]``,
whose per-step columns are contiguous; ``_exited`` reads that buffer a row
at a time.  The Monte Carlo verification consumes the rows instead and never
holds a whole path set.

The Brownian increments come from ``_draws``, one row per step from the
device's generator in step order.  From ``_DRAW_AHEAD_PATHS`` paths on, a
helper thread draws them two steps ahead while the Euler loop steps the
paths; numpy releases the GIL while it fills, so the draws run on a second
core, and the values are the same as inline.  The thread starts inside the
simulator call and is joined before the call returns or raises.  Below that
path count the hand-off costs more than the overlap saves, and the rows are
drawn inline.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..core import RandomDevice, _belief_weights, _type_mix
from .model import DiffusionModel, filter_step, signal

__all__ = [
    "PathBundle",
    "simulate_filter_paths",
    "simulate_regime_paths",
    "psi_from_innovation",
    "filter_self_convergence",
    "simulate_fixed_regime",
]

# The path count from which a helper thread draws the increments ahead: the break-even
# of its hand-off against the overlap.  On 2 vCPU, 500 filter steps took 1.14x as long
# with the thread at 4 096 paths and 0.96x at 5 000.
_DRAW_AHEAD_PATHS = 5000


@dataclass(frozen=True)
class PathBundle:
    """Simulated (X, psi) paths sampled on a regular dt-grid."""

    t: np.ndarray
    x: np.ndarray
    psi: np.ndarray
    regime: np.ndarray | None
    exited: np.ndarray
    max_clamp: float = 0.0


def _time_axis(model: DiffusionModel, dt: float) -> np.ndarray:
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    n_steps = int(round(model.horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - model.horizon) > 1e-9 * max(1.0, model.horizon):
        raise ValueError("dt must divide the horizon")
    return np.linspace(0.0, model.horizon, n_steps + 1)


def _regime_rows(
    model: DiffusionModel, regime: np.ndarray, dt: float, increments, posterior: bool = True,
):
    """Rows (x_k, psi_k), k = 0, 1, ..., of Euler paths of X under each path's regime drift.

    ``increments`` yields each step's Brownian increments in turn, one per
    path, so each caller keeps its own draw order.  The posterior is
    sigmoid(log-likelihood + logit(prior)) with the Girsanov log-likelihood
    ratio of mu1 against mu0; a prior of 0 or 1 gives an infinite logit and a
    constant posterior.  psi_k is None when ``posterior`` is false, and the
    likelihood is then skipped.
    """
    n = regime.size
    ones = regime == 1
    xk = np.full(n, model.x0, dtype=float)
    pk = None
    if posterior:
        pk = np.full(n, model.prior, dtype=float)
        loglik = np.zeros(n)
        if model.prior in (0.0, 1.0):
            logit0 = np.inf if model.prior == 1.0 else -np.inf
        else:
            logit0 = float(np.log(model.prior / (1.0 - model.prior)))
    yield xk, pk
    for db in increments:
        (m0, m1), s = model.coefficients(xk)
        dx = np.where(ones, m1, m0) * dt + s * db
        xk = xk + dx
        if posterior:
            loglik += (m1 - m0) / s**2 * dx - 0.5 * (m1**2 - m0**2) / s**2 * dt
            with np.errstate(over="ignore"):
                pk = 1.0 / (1.0 + np.exp(-(loglik + logit0)))
        del db, m0, m1, s, dx  # only the state crosses the yield
        yield xk, pk


def _stack(rows, shape: tuple[int, ...]) -> np.ndarray:
    """``rows`` in a buffer of ``shape`` (..., steps + 1, paths), allocated before the first
    row is drawn, row k at ``[..., k, :]``; returned as its view ``[..., path, step]``.
    Raises ValueError if the rows end before the buffer's last row."""
    out = np.empty(shape)
    k = -1
    for k, row in enumerate(rows):
        out[..., k, :] = row
    if k + 1 != shape[-2]:
        raise ValueError(f"{k + 1} rows for a buffer of {shape[-2]}")
    return np.swapaxes(out, -1, -2)


def _exited(model: DiffusionModel, x: np.ndarray) -> np.ndarray:
    """The paths of ``x`` (``[path, step]``) that left the domain after step 0, also those
    that turn NaN once out."""
    lo, hi = model.domain
    exited = np.zeros(x.shape[0], dtype=bool)
    for xk in x.T[1:]:
        exited |= (xk < lo) | (xk > hi)
    return exited


def _draw_regime(model: DiffusionModel, n: int, device: RandomDevice) -> np.ndarray:
    """Each path's regime J, 1 with probability ``prior``, from the stream after ``device``'s."""
    return (device.with_stream(device.stream + 1).uniforms(n) < model.prior).astype(np.int64)


@contextmanager
def _draws(device: RandomDevice, n: int, dt: float, steps: int):
    """The Brownian increments of n paths over ``steps`` steps, an iterator of one
    ``standard_normal(n) * sqrt(dt)`` row per step from ``device``'s generator.

    From ``_DRAW_AHEAD_PATHS`` paths on, one helper thread draws the rows in
    the same order, two steps ahead of the caller, while the caller steps the
    paths (numpy releases the GIL as it fills).  The thread lives inside the
    ``with`` block, which waits for it, however the block ends; an error in a
    draw is raised where the caller takes that row.
    """
    rng, sqdt = device.generator(), np.sqrt(dt)

    def draw():
        return rng.standard_normal(n) * sqdt

    if n < _DRAW_AHEAD_PATHS:
        yield (draw() for _ in range(steps))
        return
    from concurrent.futures import ThreadPoolExecutor  # large path sets only: no start-up cost

    pool = ThreadPoolExecutor(1)
    ahead = deque(pool.submit(draw) for _ in range(min(2, steps)))

    def rows():
        for k in range(steps):
            row = ahead.popleft().result()
            if k + 2 < steps:
                ahead.append(pool.submit(draw))
            yield row

    try:
        yield rows()
    finally:
        pool.shutdown(cancel_futures=True)


def _filter_rows(model: DiffusionModel, n: int, dt: float, increments, clamp: list):
    """Rows (x_k, psi_k), k = 0, 1, ..., of the observation-law Euler scheme, one step per
    row of ``increments``; ``clamp[0]`` rises to the largest excursion of psi out of
    [0, 1] before its clamp."""
    xk = np.full(n, model.x0, dtype=float)
    pk = np.full(n, model.prior, dtype=float)
    yield xk, pk
    for db in increments:
        mu, s = model.coefficients(xk)
        x_next = xk + _type_mix(_belief_weights(pk), mu) * dt + s * db
        raw = filter_step(signal(mu, s), pk, db)
        clamp[0] = max(clamp[0], float(np.max(raw - 1.0, initial=0.0)), float(np.max(-raw, initial=0.0)))
        xk, pk = x_next, np.clip(raw, 0.0, 1.0)
        del db, mu, s, x_next, raw  # only the state crosses the yield
        yield xk, pk


def simulate_filter_paths(
    model: DiffusionModel, n: int, dt: float, device: RandomDevice
) -> PathBundle:
    """Euler-Maruyama for the coupled (X, psi) SDE under the observation law.

    dX = mu_bar(X, psi) dt + sigma(X) dB and d psi = w(X) psi (1-psi) dB with
    a shared innovation increment; psi is clamped to [0, 1] after each step
    and the largest pre-clamp excursion is reported as a diagnostic.
    """
    t = _time_axis(model, dt)
    clamp = [0.0]
    with _draws(device, n, dt, t.size - 1) as increments:
        x, psi = _stack(_filter_rows(model, n, dt, increments, clamp), (2, t.size, n))
    return PathBundle(t, x, psi, None, _exited(model, x), clamp[0])


def simulate_regime_paths(
    model: DiffusionModel, n: int, dt: float, device: RandomDevice
) -> PathBundle:
    """Draw the regime, simulate X with the true drift, filter by Bayes.

    psi is the exact conditional probability given the discretized path,
    computed from the accumulated Girsanov log-likelihood ratio of drift mu1
    against mu0; the sigmoid form keeps it in (0, 1) without clamping.
    """
    t = _time_axis(model, dt)
    regime = _draw_regime(model, n, device)
    with _draws(device, n, dt, t.size - 1) as increments:
        x, psi = _stack(_regime_rows(model, regime, dt, increments), (2, t.size, n))
    return PathBundle(t, x, psi, regime, _exited(model, x))


def simulate_fixed_regime(
    model: DiffusionModel, regime: int, n: int, dt: float, device: RandomDevice
) -> np.ndarray:
    """Plain Euler paths of X with the drift of one fixed regime."""
    t = _time_axis(model, dt)
    with _draws(device, n, dt, t.size - 1) as increments:
        rows = _regime_rows(model, np.full(n, regime), dt, increments, posterior=False)
        return _stack((x for x, _ in rows), (t.size, n))


def filter_self_convergence(
    model: DiffusionModel, n: int, dts: list[float], device: RandomDevice
) -> list[float]:
    """Pathwise RMS gap between the two posterior routes at each dt.

    A single Brownian skeleton at the finest dt is aggregated to the coarser
    levels; on each level X is simulated conditionally on a common regime
    draw, and the likelihood-ratio posterior is compared with the filter-SDE
    posterior integrated from the reconstructed innovations.  The RMS gap
    shrinks as dt does (both routes converge to the same filter).  Every dt
    must divide the horizon and be an integer multiple of the smallest one.
    """
    dts = sorted(dts, reverse=True)
    dt_min = dts[-1]
    for dt in dts:
        _time_axis(model, dt)
        m = round(dt / dt_min)
        if abs(m * dt_min - dt) > 1e-9 * dt:
            raise ValueError(f"dt {dt!r} is not an integer multiple of the finest dt {dt_min!r}")
    steps = int(round(model.horizon / dt_min))
    rng = device.generator()
    dw_fine = rng.standard_normal((n, steps)) * np.sqrt(dt_min)
    regime = _draw_regime(model, n, device)

    out = []
    for dt in dts:
        m = int(round(dt / dt_min))
        dw = dw_fine[:, : (steps // m) * m].reshape(n, -1, m).sum(axis=2)
        dw = np.ascontiguousarray(dw.T)
        x, psi_lr = _stack(_regime_rows(model, regime, dt, dw), (2, dw.shape[0] + 1, n))
        psi_sde = psi_from_innovation(model, x, dt)
        # a path-major gap keeps the summation order of the mean, so the RMS
        # does not move with the layout of the path arrays
        gap = np.subtract(psi_sde, psi_lr, order="C")
        out.append(float(np.sqrt(np.mean(gap**2))))
    return out


def psi_from_innovation(model: DiffusionModel, x: np.ndarray, dt: float) -> np.ndarray:
    """Filter-SDE posterior reconstructed from observed X increments.

    Integrates d psi = w(X) psi (1-psi) dB with dB read off the path:
    dB = (dX - mu_bar(X, psi) dt) / sigma(X).  This is the uninformed
    player's online computation on an arbitrary trajectory.  ``x`` has
    shape (paths, steps + 1) and at least one column; the result has the
    same shape.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"x must have shape (paths, steps + 1) with steps >= 0, got {x.shape}")
    # time-major: free for simulator output, whose transpose is contiguous
    xt = np.ascontiguousarray(x.T)
    return _stack((pk for _, pk in _innovation_rows(model, xt, dt)), xt.shape)


def _innovation_rows(model: DiffusionModel, x_rows, dt: float):
    """Rows (x_k, psi_k) of the filter-SDE posterior along the time rows ``x_rows`` of X.

    psi_{k+1} is read off the step from x_k to x_{k+1}, so each row is
    yielded as soon as its x_k arrives.
    """
    rows = iter(x_rows)
    xk = next(rows)
    pk = np.full(xk.shape, model.prior, dtype=float)
    yield xk, pk
    for x_next in rows:
        mu, s = model.coefficients(xk)
        db = (x_next - xk - _type_mix(_belief_weights(pk), mu) * dt) / s
        xk, pk = x_next, np.clip(filter_step(signal(mu, s), pk, db), 0.0, 1.0)
        del mu, s, db  # only the state crosses the yield
        yield xk, pk
