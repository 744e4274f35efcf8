"""Euler simulation of the state/posterior pair under both measures.

Two routes to the posterior psi = P(J=1 | observed path):

* the filter SDE driven by the innovation Brownian motion (observation
  measure), with psi clamped to [0,1] after each Euler step;
* the Bayes/likelihood-ratio formula along a path simulated conditionally on
  the regime, psi = sigmoid(log-likelihood + logit(prior)).

Both converge to the same object as dt -> 0; the self-convergence of their
gap is one of the acceptance checks.

The filter update itself is ``model.filter_step``.  Every simulation of X
under a regime drift -- the regime-conditional paths, the fixed-regime paths
of the Monte Carlo verification and the self-convergence study -- goes
through one Euler loop, ``_regime_euler``, which also accumulates the
Girsanov log-likelihood behind the Bayes posterior when the caller wants it.

Every loop fills time-major ``(steps + 1, paths)`` buffers one contiguous
row per step and returns their transposes: views indexed ``[path, step]``,
with no copy, whose per-step columns are contiguous.  Writing column k + 1
of a path-major array instead touches one cache line per path on every
step.
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


def _regime_euler(
    model: DiffusionModel, regime: np.ndarray, steps: int, dt: float, increments,
    posterior: bool = True,
):
    """Euler paths of X under each path's regime drift, with the Bayes posterior.

    ``increments(k)`` returns the Brownian increments of step k, so each
    caller keeps its own draw order.  The posterior is sigmoid(log-likelihood
    + logit(prior)) with the Girsanov log-likelihood ratio of mu1 against
    mu0; a prior of 0 or 1 gives an infinite logit and a constant posterior.
    Returns (x, psi, exited) with x and psi of shape (paths, steps + 1); psi
    is None when ``posterior`` is false, and the likelihood is then skipped.
    """
    n = regime.size
    lo, hi = model.domain
    x = np.empty((steps + 1, n))
    x[0] = model.x0
    exited = np.zeros(n, dtype=bool)
    psi = None
    if posterior:
        psi = np.empty((steps + 1, n))
        psi[0] = model.prior
        loglik = np.zeros(n)
        if model.prior in (0.0, 1.0):
            logit0 = np.inf if model.prior == 1.0 else -np.inf
        else:
            logit0 = float(np.log(model.prior / (1.0 - model.prior)))
    for k in range(steps):
        xk = x[k]
        m0 = np.asarray(model.mu0(xk), dtype=float)
        m1 = np.asarray(model.mu1(xk), dtype=float)
        s = np.asarray(model.sigma(xk), dtype=float)
        dx = np.where(regime == 1, m1, m0) * dt + s * increments(k)
        x[k + 1] = xk + dx
        if psi is not None:
            loglik += (m1 - m0) / s**2 * dx - 0.5 * (m1**2 - m0**2) / s**2 * dt
            with np.errstate(over="ignore"):
                psi[k + 1] = 1.0 / (1.0 + np.exp(-(loglik + logit0)))
        exited |= (x[k + 1] < lo) | (x[k + 1] > hi)
    return x.T, None if psi is None else psi.T, exited


def _draws(device: RandomDevice, n: int, dt: float):
    """Per-step Brownian increments of n paths, drawn one step at a time."""
    rng = device.generator()
    sqdt = np.sqrt(dt)
    return lambda k: rng.standard_normal(n) * sqdt


def simulate_filter_paths(
    model: DiffusionModel, n: int, dt: float, device: RandomDevice
) -> PathBundle:
    """Euler-Maruyama for the coupled (X, psi) SDE under the observation law.

    dX = mu_bar(X, psi) dt + sigma(X) dB and d psi = w(X) psi (1-psi) dB with
    a shared innovation increment; psi is clamped to [0, 1] after each step
    and the largest pre-clamp excursion is reported as a diagnostic.
    """
    t = _time_axis(model, dt)
    draw = _draws(device, n, dt)
    lo, hi = model.domain
    x = np.empty((t.size, n))
    psi = np.empty((t.size, n))
    x[0], psi[0] = model.x0, model.prior
    exited = np.zeros(n, dtype=bool)
    max_clamp = 0.0
    for k in range(t.size - 1):
        xk, pk = x[k], psi[k]
        db = draw(k)
        x[k + 1] = xk + model.mu_bar(xk, pk) * dt + np.asarray(model.sigma(xk)) * db
        raw = filter_step(model, xk, pk, db)
        max_clamp = max(max_clamp, float(np.max(raw - 1.0, initial=0.0)), float(np.max(-raw, initial=0.0)))
        psi[k + 1] = np.clip(raw, 0.0, 1.0)
        exited |= (x[k + 1] < lo) | (x[k + 1] > hi)
    return PathBundle(t, x.T, psi.T, None, exited, max_clamp)


def simulate_regime_paths(
    model: DiffusionModel, n: int, dt: float, device: RandomDevice
) -> PathBundle:
    """Draw the regime, simulate X with the true drift, filter by Bayes.

    psi is the exact conditional probability given the discretized path,
    computed from the accumulated Girsanov log-likelihood ratio of drift mu1
    against mu0; the sigmoid form keeps it in (0, 1) without clamping.
    """
    t = _time_axis(model, dt)
    regime = (device.with_stream(device.stream + 1).uniforms(n) < model.prior).astype(np.int64)
    x, psi, exited = _regime_euler(model, regime, t.size - 1, dt, _draws(device, n, dt))
    return PathBundle(t, x, psi, regime, exited)


def simulate_fixed_regime(
    model: DiffusionModel, regime: int, n: int, dt: float, device: RandomDevice
) -> np.ndarray:
    """Plain Euler paths of X with the drift of one fixed regime."""
    steps = _time_axis(model, dt).size - 1
    return _regime_euler(model, np.full(n, regime), steps, dt, _draws(device, n, dt),
                         posterior=False)[0]


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
    regime = (device.with_stream(device.stream + 1).uniforms(n) < model.prior).astype(np.int64)

    out = []
    for dt in dts:
        m = int(round(dt / dt_min))
        dw = dw_fine[:, : (steps // m) * m].reshape(n, -1, m).sum(axis=2)
        dw = np.ascontiguousarray(dw.T)
        x, psi_lr, _ = _regime_euler(model, regime, dw.shape[0], dt, lambda k: dw[k])
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
    psi = np.empty(xt.shape)
    psi[0] = model.prior
    for k in range(xt.shape[0] - 1):
        xk, pk = xt[k], psi[k]
        s = np.asarray(model.sigma(xk), dtype=float)
        db = (xt[k + 1] - xk - model.mu_bar(xk, pk) * dt) / s
        psi[k + 1] = np.clip(filter_step(model, xk, pk, db), 0.0, 1.0)
    return psi.T
