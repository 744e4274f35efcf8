"""Monte Carlo verification of the continuous-game sufficiency conditions.

Five statistical checks of a candidate (surfaces, strategies) pair:

(i)  per regime i, the process int g dzeta_i + (1 - zeta_i-) U^i has
     non-negative mean increments along regime-i paths (and flat ones while
     incarnation i still survives);
(ii) the mirrored process on the uninformed side has non-positive mean
     increments under the observation law (flat while zeta survives);
(iii)/(iv) the obstacle inequalities hold at almost every visited point;
(v)  the root identity v = pi u1 + (1-pi) u0 at (0, prior, x0).

The first-to-stop flow is ``core.payoff_flows``: (i) and (ii) add up its
``run`` part, and the obstacles (iii) and (iv) compare the value against
``stop / survival``, the payoff of stopping now given that nobody has.
(iii) reuses the fixed-regime paths of (i), and (iv) the regime-conditional
paths of (ii); the paths come from the Euler loop in ``simulate``.

All checks are report-only: each condition returns pass/fail with its
confidence band, never an exception.
"""

from __future__ import annotations

import numpy as np

from ..core import RandomDevice, payoff_flows
from .model import DiffusionModel
from .pde import PDESurfaces
from .simulate import simulate_fixed_regime, simulate_regime_paths
from .strategies import StrategyMap

__all__ = ["mc_verify_sufficiency", "simulate_fixed_regime"]


def _lookup(surface: np.ndarray, grid, t: np.ndarray, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bilinear (pi, x) interpolation at the nearest time slice.

    ``t`` may be a shared time axis, which the indexing broadcasts against
    (paths, steps) arrays; belief jumps land between pi-nodes, so
    piecewise-linear interpolation keeps the lookup error quadratic in the
    mesh instead of linear.
    """
    ti = grid.time_index(t)
    dpi = grid.pi[1] - grid.pi[0]
    dx = grid.x[1] - grid.x[0]
    fp = np.clip(p / dpi, 0.0, grid.pi.size - 1.0)
    fx = np.clip((x - grid.x[0]) / dx, 0.0, grid.x.size - 1.0)
    i0 = np.minimum(fp.astype(int), grid.pi.size - 2)
    j0 = np.minimum(fx.astype(int), grid.x.size - 2)
    wp = fp - i0
    wx = fx - j0
    s00 = surface[ti, i0, j0]
    s01 = surface[ti, i0, j0 + 1]
    s10 = surface[ti, i0 + 1, j0]
    s11 = surface[ti, i0 + 1, j0 + 1]
    return (
        (1 - wp) * (1 - wx) * s00
        + (1 - wp) * wx * s01
        + wp * (1 - wx) * s10
        + wp * wx * s11
    )


def _band(sample: np.ndarray) -> tuple[float, float]:
    """Sample mean and four standard errors (no band for a single draw)."""
    se = sample.std(ddof=1) / np.sqrt(sample.size) if sample.size > 1 else 0.0
    return sample.mean(), 4.0 * se


def _mean_increment_checks(values: np.ndarray, active: np.ndarray, sign: float, atol: float):
    """Banded tests of E[dM] sign and flatness on the active set.

    ``sign`` +1 demands non-negative mean increments (submartingale), -1
    non-positive.  Flatness is tested on the sub-sample where ``active``
    holds at the step's left endpoint, both step by step and through the
    per-path accumulated active increments (the aggregate statistic has far
    more power against slowly leaking drifts).  ``passed`` holds when both do.
    """
    inc = np.diff(values, axis=1)
    worst_side = worst_flat = 0.0
    for k in range(inc.shape[1]):
        col, sel = inc[:, k], active[:, k]
        mean, band = _band(col)
        worst_side = max(worst_side, -sign * mean - band)
        if sel.sum() > 1:
            mean, band = _band(col[sel])
            worst_flat = max(worst_flat, abs(mean) - band)
    # aggregate statistics over per-path totals
    mean, band = _band(inc.sum(axis=1))
    worst_side = max(worst_side, -sign * mean - band)
    mean, band = _band((inc * active).sum(axis=1))
    worst_flat = max(worst_flat, abs(mean) - band)
    monotone_ok, flat_ok = bool(worst_side <= atol), bool(worst_flat <= atol)
    return {
        "monotone_ok": monotone_ok,
        "flat_ok": flat_ok,
        "passed": monotone_ok and flat_ok,
        "worst_side_excess": float(worst_side),
        "worst_flat_excess": float(worst_flat),
    }


def _left_limits(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-path left limits (0 before the first step) and increments along time."""
    before = np.zeros_like(levels)
    before[:, 1:] = levels[:, :-1]
    return before, levels - before


def _obstacle_check(stop, survival, value, sign: float, tol: float, alpha: float) -> dict:
    """Share of points with sign (stop / survival - value) >= -tol where no one has stopped.

    stop / survival is the payoff of stopping now given that nobody has; it
    bounds the informed values from above (sign +1) and the uninformed value
    from below (sign -1).
    """
    alive = survival > 1e-12
    slack = sign * (stop[alive] / survival[alive] - value[alive])
    frac = float(np.mean(slack >= -tol)) if slack.size else 1.0
    return {
        "fraction_ok": frac,
        "passed": bool(frac >= 1.0 - alpha),
        "worst_slack": float(slack.min(initial=0.0)),
    }


def mc_verify_sufficiency(
    model: DiffusionModel,
    surfaces: PDESurfaces,
    strategies: StrategyMap,
    n: int,
    dt: float,
    alpha: float = 0.05,
    tol: float = 5e-2,
    device: RandomDevice | None = None,
    *,
    f,
    g,
    h,
) -> dict:
    """Statistical certification report for a candidate solution.

    ``f``, ``g`` and ``h`` are the payoff functions of (t, x) that the
    surfaces were solved with; they have no default.
    """
    if device is None:
        device = RandomDevice(seed=0)
    grid = surfaces.grid
    # numerical floor on the statistical bands: grid lookup and Euler biases
    # accumulate to a small deterministic drift that is not evidence against
    # the martingale structure
    atol = 1e-9 + 0.05 * tol
    report: dict = {}

    def payoffs(t, x):
        return [np.asarray(fn(t[None, :], x), dtype=float) for fn in (f, g, h)]

    # (i) informed-side submartingales and (iii) informed obstacles along
    # fixed-regime paths
    for i in range(2):
        x = simulate_fixed_regime(model, i, n, dt, device.with_stream(device.stream + 10 + i))
        traj = strategies.evaluate(x)
        uvals = _lookup(surfaces.u(i), grid, traj.t, traj.p, x)
        zeta_pre, dz = _left_limits(traj.zeta)
        stop, run = payoff_flows(*payoffs(traj.t, x), traj.zeta, dz)
        survival = 1.0 - zeta_pre
        m_hat = _left_limits(np.cumsum(run, axis=1))[0] + survival * uvals
        active = (traj.xi1 if i else traj.xi0)[:, :-1] < 1.0 - 1e-12
        report[f"(i) M0 regime {i}"] = _mean_increment_checks(m_hat, active, +1.0, atol)
        report[f"(iii) obstacle U{i}"] = _obstacle_check(stop, survival, uvals, +1.0, tol, alpha)

    # (ii) uninformed-side supermartingale and (iv) uninformed obstacle under
    # the observation law; the informed side is the psi-weighted incarnations
    bundle = simulate_regime_paths(model, n, dt, device.with_stream(device.stream + 20))
    traj = strategies.evaluate(bundle.x, psi=bundle.psi)
    vvals = _lookup(surfaces.v, grid, traj.t, traj.p, bundle.x)
    fv, gv, hv = payoffs(traj.t, bundle.x)
    stop = run = survival = 0.0
    for weight, xi in ((1.0 - bundle.psi, traj.xi0), (bundle.psi, traj.xi1)):
        xi_pre, dxi = _left_limits(xi)
        stop_i, run_i = payoff_flows(gv, fv, hv, xi, dxi)
        stop = stop + weight * stop_i
        run = run + weight * run_i
        survival = survival + weight * (1.0 - xi_pre)
    n_hat = _left_limits(np.cumsum(run, axis=1))[0] + survival * vvals
    active = traj.zeta[:, :-1] < 1.0 - 1e-12
    report["(ii) N0"] = _mean_increment_checks(n_hat, active, -1.0, atol)
    report["(iv) obstacle V"] = _obstacle_check(stop, survival, vvals, -1.0, tol, alpha)

    # (v) root identity
    pi0 = model.prior
    point = (np.array([0.0]), np.array([pi0]), np.array([model.x0]))
    v0, u0, u1 = (float(_lookup(s, grid, *point)[0])
                  for s in (surfaces.v, surfaces.u0, surfaces.u1))
    gap = abs(v0 - (pi0 * u1 + (1.0 - pi0) * u0))
    report["(v) root identity"] = {"residual": gap, "passed": bool(gap <= tol)}

    report["all_passed"] = all(
        entry["passed"] for key, entry in report.items() if isinstance(entry, dict)
    )
    return report
