"""Euler simulation of the state/posterior pair under both measures.

Two routes to the posterior psi = P(J=1 | observed path):

* the filter SDE driven by the innovation Brownian motion (observation
  measure), with psi clamped to [0,1] after each Euler step;
* the Bayes/likelihood-ratio formula along a path simulated conditionally on
  the regime, psi = sigmoid(log-likelihood + logit(prior)).

Both converge to the same object as dt -> 0; the self-convergence of their
gap is one of the acceptance checks.

The filter update itself is ``model.filter_step``.  Each loop is a row
generator that yields one time row per step, a vector over the paths, and
holds nothing of path-set size besides: ``_filter_rows`` for the filter SDE,
``_regime_rows`` for X under a regime drift, with the Girsanov
log-likelihood behind the Bayes posterior on request, and
``_innovation_rows`` for the filter read off given paths.

One collector, ``_stack``, fills a preallocated time-major
``(..., steps + 1, paths)`` buffer with rows, for every simulator here and
for ``StrategyMap.evaluate``, and returns its view indexed ``[path, step]``,
whose per-step columns are contiguous; ``_exited`` reads that buffer a row
at a time.  The Monte Carlo verification consumes the rows instead and never
holds a whole path set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import RandomDevice
from .model import DiffusionModel, filter_step

__all__ = [
    "PathBundle",
    "simulate_filter_paths",
    "simulate_regime_paths",
    "psi_from_innovation",
    "filter_self_convergence",
    "simulate_fixed_regime",
]


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
    model: DiffusionModel, regime: np.ndarray, steps: int, dt: float, increments,
    posterior: bool = True,
):
    """Rows (x_k, psi_k), k = 0 .. steps, of Euler paths of X under each path's regime drift.

    ``increments(k)`` returns the Brownian increments of step k, so each
    caller keeps its own draw order.  The posterior is sigmoid(log-likelihood
    + logit(prior)) with the Girsanov log-likelihood ratio of mu1 against
    mu0; a prior of 0 or 1 gives an infinite logit and a constant posterior.
    psi_k is None when ``posterior`` is false, and the likelihood is then
    skipped.
    """
    n = regime.size
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
    for k in range(steps):
        m0 = np.asarray(model.mu0(xk), dtype=float)
        m1 = np.asarray(model.mu1(xk), dtype=float)
        s = np.asarray(model.sigma(xk), dtype=float)
        dx = np.where(regime == 1, m1, m0) * dt + s * increments(k)
        xk = xk + dx
        if posterior:
            loglik += (m1 - m0) / s**2 * dx - 0.5 * (m1**2 - m0**2) / s**2 * dt
            with np.errstate(over="ignore"):
                pk = 1.0 / (1.0 + np.exp(-(loglik + logit0)))
        del m0, m1, s, dx  # only the state crosses the yield
        yield xk, pk


def _stack(rows, shape: tuple[int, ...]) -> np.ndarray:
    """``rows`` in a buffer of ``shape`` (..., steps + 1, paths), allocated before the first
    row is drawn, row k at ``[..., k, :]``; returned as its view ``[..., path, step]``."""
    out = np.empty(shape)
    for k, row in enumerate(rows):
        out[..., k, :] = row
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


def _draws(device: RandomDevice, n: int, dt: float):
    """Per-step Brownian increments of n paths, drawn one step at a time."""
    rng = device.generator()
    sqdt = np.sqrt(dt)
    return lambda k: rng.standard_normal(n) * sqdt


def _filter_rows(model: DiffusionModel, n: int, steps: int, dt: float, increments, clamp: list):
    """Rows (x_k, psi_k), k = 0 .. steps, of the observation-law Euler scheme; ``clamp[0]``
    rises to the largest excursion of psi out of [0, 1] before its clamp."""
    xk = np.full(n, model.x0, dtype=float)
    pk = np.full(n, model.prior, dtype=float)
    yield xk, pk
    for k in range(steps):
        db = increments(k)
        x_next = xk + model.mu_bar(xk, pk) * dt + np.asarray(model.sigma(xk)) * db
        raw = filter_step(model, xk, pk, db)
        clamp[0] = max(clamp[0], float(np.max(raw - 1.0, initial=0.0)), float(np.max(-raw, initial=0.0)))
        xk, pk = x_next, np.clip(raw, 0.0, 1.0)
        del db, x_next, raw  # only the state crosses the yield
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
    x, psi = _stack(_filter_rows(model, n, t.size - 1, dt, _draws(device, n, dt), clamp), (2, t.size, n))
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
    x, psi = _stack(_regime_rows(model, regime, t.size - 1, dt, _draws(device, n, dt)), (2, t.size, n))
    return PathBundle(t, x, psi, regime, _exited(model, x))


def simulate_fixed_regime(
    model: DiffusionModel, regime: int, n: int, dt: float, device: RandomDevice
) -> np.ndarray:
    """Plain Euler paths of X with the drift of one fixed regime."""
    t = _time_axis(model, dt)
    rows = _regime_rows(model, np.full(n, regime), t.size - 1, dt, _draws(device, n, dt), posterior=False)
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
        x, psi_lr = _stack(_regime_rows(model, regime, dw.shape[0], dt, lambda k: dw[k]),
                           (2, dw.shape[0] + 1, n))
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
        s = np.asarray(model.sigma(xk), dtype=float)
        db = (x_next - xk - model.mu_bar(xk, pk) * dt) / s
        xk, pk = x_next, np.clip(filter_step(model, xk, pk, db), 0.0, 1.0)
        del s, db  # only the state crosses the yield
        yield xk, pk
