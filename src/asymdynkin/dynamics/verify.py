"""Monte Carlo verification of the continuous-game sufficiency conditions.

The candidate is one ``StrategyMap``: the payoff processes (the surfaces
u0, u1 and v) and the strategies read off their stopping sets, with the model
they were solved for and the clock dt of the strategies.  The verifier reads
all of them off the map.  Five statistical checks of that candidate:

(i)  per regime i, the process int g dzeta_i + (1 - zeta_i-) U^i has
     non-negative mean increments along regime-i paths (and flat ones while
     incarnation i still survives);
(ii) the mirrored process on the uninformed side has non-positive mean
     increments under the observation law (flat while zeta survives);
(iii)/(iv) the obstacle inequalities hold at almost every visited point;
(v)  the root identity v = pi u1 + (1-pi) u0 at (0, prior, x0).

Every player's flows follow one rule, ``_player_flows``: the first-to-stop
flows of ``core.payoff_flows`` against the opponent's rows, mixed by the
player's weights with ``core._mixed_flows``, as the tree pipeline mixes by
the prior.  Incarnation i faces zeta with weight 1, the uninformed player
both incarnations mixed by the belief (1 - psi, psi).  (i) and (ii) add up
the ``run`` part, and the obstacles (iii) and (iv) compare the value against
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

from contextlib import closing

import numpy as np

from ..core import _ACTIVE_BELOW, RandomDevice, _belief_weights, _mixed_flows, _type_mix
# the whole-array simulators stay bound here, where bench/workloads.py's
# traced mode patches them, although the checks stream their row forms
from .simulate import (_draw_regime, _draws, _innovation_rows, _regime_rows, simulate_fixed_regime,
                       simulate_regime_paths)
from .strategies import StrategyMap

__all__ = ["mc_verify_sufficiency"]


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


def _trajectory_rows(strategies: StrategyMap, n: int, device, regime: int | None):
    """Rows (t, x, psi, p, xi, zeta) of the strategy maps along one simulated path set.

    With a ``regime`` the paths follow that regime's drift and are filtered
    by the innovation filter, as ``simulate_fixed_regime`` and ``evaluate``
    do; with None the regime is drawn per path and the Bayes posterior
    filters, as in ``simulate_regime_paths``.  The paths step at the maps' dt,
    and ``t`` is the step's time as a one-element axis, which broadcasts.
    Closing the generator ends the draws.
    """
    model, dt, t = strategies.model, strategies.dt, strategies.clock
    with _draws(device, n, dt, t.size - 1) as increments:
        if regime is None:
            rows = _regime_rows(model, _draw_regime(model, n, device), dt, increments)
        else:
            paths = _regime_rows(model, np.full(n, regime), dt, increments, posterior=False)
            rows = _innovation_rows(model, (x for x, _ in paths), dt)
        for k, row in enumerate(strategies._rows(rows, t)):
            yield (t[k:k + 1], *row)


def _player_flows(rows, surfaces, i: int | None, payoffs, n: int):
    """(stop, run, survival, value, active) of incarnation ``i`` against zeta, valued by U^i, or
    with ``i`` None of the uninformed player against both incarnations, valued by V.

    Each step's vectors are yielded unnamed, so none outlives its step here.
    """
    surface = (surfaces.v if i is None else surfaces.u[i]).ravel()
    opp_pre = np.zeros((2 if i is None else 1, n))
    for t, x, psi, p, xi, zeta in rows:
        weights, opp, own = ((_belief_weights(psi), xi, zeta) if i is None
                             else ((1.0,), zeta[None], xi[i]))
        yield (*_mixed_flows(weights, *payoffs(t, x), opp, opp - opp_pre, opp_pre),
               _lookup(surface, surfaces.grid, t, p, x), own < _ACTIVE_BELOW)
        opp_pre = opp


def mc_verify_sufficiency(
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
    """Statistical certification report for the candidate ``strategies``.

    The model, the surfaces and the dt at which the paths step are the map's;
    ``f``, ``g`` and ``h`` are the payoff functions of (t, x) that the surfaces
    were solved with, with no default.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    if device is None:
        device = RandomDevice(seed=0)
    model, surfaces = strategies.model, strategies.surfaces
    grid = surfaces.grid
    # numerical floor on the statistical bands: grid lookup and Euler biases
    # accumulate to a small deterministic drift that is not evidence against
    # the martingale structure
    atol = 1e-9 + 0.05 * tol
    report: dict = {}

    def payoffs(*fns):
        """A player's (own first, opponent first, tie) payoffs at (t, x)."""
        return lambda t, x: [np.asarray(fn(t, x), dtype=float) for fn in fns]

    # (i) informed-side submartingales and (iii) informed obstacles along
    # fixed-regime paths; each path set's rows are closed, and so end their
    # draws, also when a payoff raises
    for i in range(2):
        device_i = device.with_stream(device.stream + 10 + i)
        with closing(_trajectory_rows(strategies, n, device_i, i)) as rows:
            report[f"(i) M0 regime {i}"], report[f"(iii) obstacle U{i}"] = _path_set_checks(
                _player_flows(rows, surfaces, i, payoffs(f, g, h), n), +1.0, atol, tol, alpha)

    # (ii) uninformed-side supermartingale and (iv) uninformed obstacle under
    # the observation law
    with closing(_trajectory_rows(strategies, n, device.with_stream(device.stream + 20), None)) as rows:
        report["(ii) N0"], report["(iv) obstacle V"] = _path_set_checks(
            _player_flows(rows, surfaces, None, payoffs(g, f, h), n), -1.0, atol, tol, alpha)

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
