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

Each of the three path sets is one time-major pass: the row generators of
the simulation, the posterior filter and the strategy maps hand over one time
row at a time, and the checks keep only per-path vectors -- the running sum
of the flows, the previous value and the per-path totals of the increments
-- besides their running bands and obstacle counts.  No whole (paths, steps)
array is ever held, so memory grows with the paths alone.

All checks are report-only: each condition returns pass/fail with its
confidence band, never an exception.
"""

from __future__ import annotations

import numpy as np

from ..core import _ACTIVE_BELOW, RandomDevice, _belief_weights, _type_mix, payoff_flows
from .model import DiffusionModel
from .pde import PDESurfaces
# the whole-array simulators stay bound here, where bench/workloads.py's
# traced mode patches them, although the checks stream their row forms
from .simulate import (_draw_regime, _draws, _innovation_rows, _regime_rows, _time_axis,
                       simulate_fixed_regime, simulate_regime_paths)
from .strategies import StrategyMap

__all__ = ["mc_verify_sufficiency", "simulate_fixed_regime"]


def _lookup(flat: np.ndarray, grid, t: np.ndarray, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bilinear (pi, x) interpolation at the nearest time slice of a surface raveled to ``flat``.

    ``t`` may be a shared time axis, which the indexing broadcasts against
    ``p`` and ``x``; belief jumps land between pi-nodes, so
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


def _path_set_checks(flows, sign: float, atol: float, tol: float, alpha: float):
    """Banded tests of E[dM] sign and flatness, and the obstacle report, one step at a time.

    ``flows`` yields each step's (stop, run, survival, value, active) on all
    paths; the value process is M_k = sum_{s<k} run_s + survival_k value_k.
    ``sign`` +1 demands non-negative mean increments (submartingale), -1
    non-positive.  Flatness is tested on the sub-sample where ``active``
    holds at the step's left endpoint, both step by step and through the
    per-path accumulated active increments (the aggregate statistic has far
    more power against slowly leaking drifts).  ``passed`` holds when both do.

    The obstacle report is the share of points with sign (stop / survival -
    value) >= -tol where no one has stopped; stop / survival is the payoff of
    stopping now given that nobody has, which bounds the informed values from
    above (sign +1) and the uninformed value from below (sign -1).

    The sums run in step order, as numpy's do along the time axis of the
    Fortran-ordered (paths, steps) arrays this replaces: the running sum of
    ``run`` starts from the first term itself, so a -0.0 keeps its sign, and
    the per-path totals start from 0.  A single path's totals are summed
    pairwise, as numpy sums a contiguous row.
    """
    worst_side = worst_flat = worst_slack = 0.0
    ok = count = 0
    ran = total = total_active = 0.0
    lone = []
    for k, (stop, run, survival, value, active) in enumerate(flows):
        alive = survival > 1e-12
        slack = sign * (stop[alive] / survival[alive] - value[alive])
        ok += int(np.count_nonzero(slack >= -tol))
        count += slack.size
        worst_slack = min(worst_slack, float(slack.min(initial=0.0)))
        level = ran + survival * value
        ran = run if k == 0 else ran + run
        # hold only the running vectors while the next step is computed
        del stop, run, survival, value, alive, slack
        if k:
            inc = level - prev
            mean, band = _band(inc)
            worst_side = max(worst_side, -sign * mean - band)
            if prev_active.sum() > 1:
                mean, band = _band(inc[prev_active])
                worst_flat = max(worst_flat, abs(mean) - band)
            if inc.size > 1:
                total = total + inc
                total_active = total_active + inc * prev_active
            else:  # numpy adds a lone path's increments pairwise, so keep them
                lone.append((inc, inc * prev_active))
            del inc
        prev, prev_active = level, active
    if lone:
        total, total_active = (np.concatenate(part).sum(keepdims=True) for part in zip(*lone))
    # aggregate statistics over per-path totals
    mean, band = _band(total)
    worst_side = max(worst_side, -sign * mean - band)
    mean, band = _band(total_active)
    worst_flat = max(worst_flat, abs(mean) - band)
    monotone_ok, flat_ok = bool(worst_side <= atol), bool(worst_flat <= atol)
    frac = ok / count if count else 1.0
    return {
        "monotone_ok": monotone_ok,
        "flat_ok": flat_ok,
        "passed": monotone_ok and flat_ok,
        "worst_side_excess": float(worst_side),
        "worst_flat_excess": float(worst_flat),
    }, {"fraction_ok": frac, "passed": bool(frac >= 1.0 - alpha), "worst_slack": worst_slack}


def _trajectory_rows(model, strategies, n: int, device, regime: int | None):
    """Rows (t, x, psi, p, xi0, xi1, zeta) of the strategy maps along one simulated path set.

    With a ``regime`` the paths follow that regime's drift and are filtered
    by the innovation filter, as ``simulate_fixed_regime`` and ``evaluate``
    do; with None the regime is drawn per path and the Bayes posterior
    filters, as in ``simulate_regime_paths``.  The paths step at the maps' dt,
    and ``t`` is the step's time as a one-element axis, which broadcasts.
    """
    dt = strategies.dt
    steps = _time_axis(model, dt).size - 1
    if regime is None:
        rows = _regime_rows(model, _draw_regime(model, n, device), steps, dt, _draws(device, n, dt))
    else:
        paths = _regime_rows(model, np.full(n, regime), steps, dt, _draws(device, n, dt),
                             posterior=False)
        rows = _innovation_rows(model, (x for x, _ in paths), dt)
    t = np.arange(steps + 1) * dt  # evaluate's clock
    for k, row in enumerate(strategies._rows(rows, t)):
        yield (t[k:k + 1], *row)


def _informed_flows(rows, surfaces, i: int, payoffs, n: int):
    """(i) and (iii) along regime-i paths: M_hat's flows against zeta, U^i, and xi_i's activity.

    Each step's vectors are yielded unnamed, so none outlives its step here.
    """
    surface = surfaces.u[i].ravel()
    zeta_pre = np.zeros(n)
    for t, x, _, p, xi0, xi1, zeta in rows:
        yield (*payoff_flows(*payoffs(t, x), zeta, zeta - zeta_pre), 1.0 - zeta_pre,
               _lookup(surface, surfaces.grid, t, p, x), (xi1 if i else xi0) < _ACTIVE_BELOW)
        zeta_pre = zeta


def _observation_flows(rows, surfaces, payoffs, n: int):
    """(ii) and (iv) under the observation law: N_hat's flows, V, and zeta's activity."""
    surface = surfaces.v.ravel()
    xi_pre = (np.zeros(n), np.zeros(n))
    for t, x, psi, p, *xi, zeta in rows:
        yield (*_mixed_flows(payoffs(t, x), psi, xi, xi_pre),
               _lookup(surface, surfaces.grid, t, p, x), zeta < _ACTIVE_BELOW)
        xi_pre = xi


def _mixed_flows(payoffs, psi, xi, xi_pre):
    """The informed side of N_hat: each incarnation's stop, run and survival, mixed by the belief psi."""
    fv, gv, hv = payoffs
    per_type = [(*payoff_flows(gv, fv, hv, level, level - pre), 1.0 - pre)
                for level, pre in zip(xi, xi_pre)]
    return [_type_mix(_belief_weights(psi), kind) for kind in zip(*per_type)]


def mc_verify_sufficiency(
    model: DiffusionModel,
    surfaces: PDESurfaces,
    strategies: StrategyMap,
    n: int,
    alpha: float = 0.05,
    tol: float = 5e-2,
    device: RandomDevice | None = None,
    *,
    f,
    g,
    h,
) -> dict:
    """Statistical certification report for a candidate solution.

    The paths step at ``strategies.dt``; ``f``, ``g`` and ``h`` are the payoff
    functions of (t, x) that the surfaces were solved with, with no default.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    if device is None:
        device = RandomDevice(seed=0)
    grid = surfaces.grid
    # numerical floor on the statistical bands: grid lookup and Euler biases
    # accumulate to a small deterministic drift that is not evidence against
    # the martingale structure
    atol = 1e-9 + 0.05 * tol
    report: dict = {}

    def payoffs(t, x):
        return [np.asarray(fn(t, x), dtype=float) for fn in (f, g, h)]

    # (i) informed-side submartingales and (iii) informed obstacles along
    # fixed-regime paths
    for i in range(2):
        rows = _trajectory_rows(model, strategies, n, device.with_stream(device.stream + 10 + i), i)
        report[f"(i) M0 regime {i}"], report[f"(iii) obstacle U{i}"] = _path_set_checks(
            _informed_flows(rows, surfaces, i, payoffs, n), +1.0, atol, tol, alpha)

    # (ii) uninformed-side supermartingale and (iv) uninformed obstacle under
    # the observation law
    rows = _trajectory_rows(model, strategies, n, device.with_stream(device.stream + 20), None)
    report["(ii) N0"], report["(iv) obstacle V"] = _path_set_checks(
        _observation_flows(rows, surfaces, payoffs, n), -1.0, atol, tol, alpha)

    # (v) root identity
    point = (np.array([0.0]), np.array([model.prior]), np.array([model.x0]))
    v0, u0, u1 = (float(_lookup(s.ravel(), grid, *point)[0])
                  for s in (surfaces.v, *surfaces.u))
    gap = abs(v0 - _type_mix(_belief_weights(model.prior), (u0, u1)))
    report["(v) root identity"] = {"residual": gap, "passed": bool(gap <= tol)}

    report["all_passed"] = all(
        entry["passed"] for key, entry in report.items() if isinstance(entry, dict)
    )
    return report
