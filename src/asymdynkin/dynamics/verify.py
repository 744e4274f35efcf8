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

Each of the three path sets is simulated and checked inside one function,
so its arrays are freed before the next set is drawn.  The strategy maps run
once on all of a set's paths; the lookups, the flows and the assembly of
M_hat / N_hat run ``_BLOCK`` paths at a time into one whole array.

All checks are report-only: each condition returns pass/fail with its
confidence band, never an exception.
"""

from __future__ import annotations

import numpy as np

from ..core import _ACTIVE_BELOW, RandomDevice, _belief_weights, _type_mix, payoff_flows
from .model import DiffusionModel
from .pde import PDESurfaces
from .simulate import simulate_fixed_regime, simulate_regime_paths
from .strategies import StrategyMap

__all__ = ["mc_verify_sufficiency", "simulate_fixed_regime"]


# paths per block of the lookups, the flows and the M_hat / N_hat assembly: a
# block's temporaries stay a small share of one (paths, steps) array
_BLOCK = 250


def _lookup(flat: np.ndarray, grid, t: np.ndarray, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bilinear (pi, x) interpolation at the nearest time slice of a surface raveled to ``flat``.

    ``t`` may be a shared time axis, which the indexing broadcasts against
    (paths, steps) arrays; belief jumps land between pi-nodes, so
    piecewise-linear interpolation keeps the lookup error quadratic in the
    mesh instead of linear.  The four corner terms are formed and added up
    in place, in a fixed order.
    """
    ti = grid.time_index(t)
    mpi, mx = grid.pi.size, grid.x.size
    dpi = grid.pi[1] - grid.pi[0]
    dx = grid.x[1] - grid.x[0]
    fp = np.clip(p / dpi, 0.0, mpi - 1.0)
    fx = np.clip((x - grid.x[0]) / dx, 0.0, mx - 1.0)
    i0 = np.minimum(fp.astype(int), mpi - 2)
    j0 = np.minimum(fx.astype(int), mx - 2)
    wp = fp - i0
    wx = fx - j0
    corner = (ti * mpi + i0) * mx + j0  # the flat index of (ti, i0, j0)
    out = (1 - wp) * (1 - wx)
    out *= flat.take(corner)
    for weight, offset in (((1 - wp) * wx, 1), (wp * (1 - wx), mx), (wp * wx, mx + 1)):
        weight *= flat.take(corner + offset)
        out += weight
    return out


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


def _assemble(flows, n: int, steps: int, sign: float, tol: float, alpha: float):
    """M_hat (or N_hat) of every path and the obstacle report, a block of paths at a time.

    ``flows(b)`` returns (stop, run, survival, value) on the paths of slice b:
    the value process is sum_{s<k} run_s + survival_k value_k.  The obstacle
    report is the share of points with sign (stop / survival - value) >= -tol
    where no one has stopped; stop / survival is the payoff of stopping now
    given that nobody has, which bounds the informed values from above (sign
    +1) and the uninformed value from below (sign -1).
    """
    values = np.empty((n, steps + 1), order="F")  # the layout that fixes the order of the sums
    ok = count = 0
    worst = 0.0
    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        stop, run, survival, value = flows(block)
        values[block] = _left_limits(np.cumsum(run, axis=1))[0] + survival * value
        alive = survival > 1e-12
        slack = sign * (stop[alive] / survival[alive] - value[alive])
        ok += int(np.count_nonzero(slack >= -tol))
        count += slack.size
        worst = min(worst, float(slack.min(initial=0.0)))
    frac = ok / count if count else 1.0
    return values, {"fraction_ok": frac, "passed": bool(frac >= 1.0 - alpha), "worst_slack": worst}


def _informed_paths(model, surfaces, strategies, i: int, n: int, dt: float, device, payoffs,
                    tol: float, alpha: float):
    """(i) and (iii) along regime-i paths: M_hat, its active mask and the U^i obstacle report."""
    x = simulate_fixed_regime(model, i, n, dt, device)
    traj = strategies.evaluate(x)
    surface = surfaces.u(i).ravel()

    def flows(b):
        uvals = _lookup(surface, surfaces.grid, traj.t, traj.p[b], x[b])
        zeta_pre, dz = _left_limits(traj.zeta[b])
        stop, run = payoff_flows(*payoffs(traj.t, x[b]), traj.zeta[b], dz)
        return stop, run, 1.0 - zeta_pre, uvals

    m_hat, obstacle = _assemble(flows, n, x.shape[1] - 1, +1.0, tol, alpha)
    return m_hat, (traj.xi1 if i else traj.xi0)[:, :-1] < _ACTIVE_BELOW, obstacle


def _observation_paths(model, surfaces, strategies, n: int, dt: float, device, payoffs,
                       tol: float, alpha: float):
    """(ii) and (iv) under the observation law: N_hat, its active mask and the V obstacle report.

    The informed side is the psi-weighted incarnations.
    """
    bundle = simulate_regime_paths(model, n, dt, device)
    traj = strategies.evaluate(bundle.x, psi=bundle.psi)
    surface = surfaces.v.ravel()

    def flows(b):
        x, psi = bundle.x[b], bundle.psi[b]
        vvals = _lookup(surface, surfaces.grid, traj.t, traj.p[b], x)
        fv, gv, hv = payoffs(traj.t, x)
        per_type = []  # each incarnation's stop, run and survival, then mixed by the belief psi
        for xi in (traj.xi0[b], traj.xi1[b]):
            xi_pre, dxi = _left_limits(xi)
            per_type.append((*payoff_flows(gv, fv, hv, xi, dxi), 1.0 - xi_pre))
        return (*(_type_mix(_belief_weights(psi), kind) for kind in zip(*per_type)), vvals)

    n_hat, obstacle = _assemble(flows, n, bundle.x.shape[1] - 1, -1.0, tol, alpha)
    return n_hat, traj.zeta[:, :-1] < _ACTIVE_BELOW, obstacle


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
    # fixed-regime paths; each path set's arrays are freed before the next
    for i in range(2):
        m_hat, active, obstacle = _informed_paths(
            model, surfaces, strategies, i, n, dt, device.with_stream(device.stream + 10 + i),
            payoffs, tol, alpha)
        report[f"(i) M0 regime {i}"] = _mean_increment_checks(m_hat, active, +1.0, atol)
        report[f"(iii) obstacle U{i}"] = obstacle

    # (ii) uninformed-side supermartingale and (iv) uninformed obstacle under
    # the observation law
    n_hat, active, obstacle = _observation_paths(
        model, surfaces, strategies, n, dt, device.with_stream(device.stream + 20), payoffs,
        tol, alpha)
    report["(ii) N0"] = _mean_increment_checks(n_hat, active, -1.0, atol)
    report["(iv) obstacle V"] = obstacle

    # (v) root identity
    point = (np.array([0.0]), np.array([model.prior]), np.array([model.x0]))
    v0, u0, u1 = (float(_lookup(s.ravel(), grid, *point)[0])
                  for s in (surfaces.v, surfaces.u0, surfaces.u1))
    gap = abs(v0 - _type_mix(_belief_weights(model.prior), (u0, u1)))
    report["(v) root identity"] = {"residual": gap, "passed": bool(gap <= tol)}

    report["all_passed"] = all(
        entry["passed"] for key, entry in report.items() if isinstance(entry, dict)
    )
    return report
