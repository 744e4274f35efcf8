"""Grid-indexed equilibrium strategy maps and their path evaluation.

The uninformed player stops at the first grid time the state (t, p, x)
enters her stopping set.  Each informed incarnation, when the belief sits on
or beyond the boundary of its stopping set, adds the minimal stopping mass
that pushes the belief back to the closure of the continuation region (a
discrete Skorokhod-type reflection).  One push rule serves both: the acting
incarnation's survival is multiplied by

    1 - clip((hi - lo) / (hi (1 - lo)), 0, 1)    when hi > lo,

the one-step belief update inverted in closed form, with (hi, lo) = (p, edge)
for incarnation 1, which moves p down, and (edge, p) for incarnation 0,
which moves it up.  The edge is ``pde._run_edges``, the rule the PDE's
belief-flattening copy uses.

Like the Euler loops of ``simulate``, the evaluation is written once, as a
row generator, ``StrategyMap._rows``: it reflects all paths at once with
whole-array operations and yields one time row per step, each a fresh vector
over the paths.  ``evaluate`` collects the rows into time-major
``(steps + 1, paths)`` buffers and returns their transposes; the Monte Carlo
verification consumes them a step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core import _belief_weights, _posterior
from .model import DiffusionModel
from .pde import PDESurfaces, _run_edges
from .simulate import psi_from_innovation

__all__ = ["StrategyMap", "TrajectorySet", "extract_strategies"]


@dataclass(frozen=True)
class TrajectorySet:
    """Generating-process trajectories produced on a batch of X-paths."""

    t: np.ndarray
    x: np.ndarray
    psi: np.ndarray
    p: np.ndarray
    xi0: np.ndarray
    xi1: np.ndarray
    zeta: np.ndarray


def _nearest(axis: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Index of the node of a uniform axis nearest to ``offset`` past its first, clipped."""
    return np.clip(np.rint(offset / (axis[1] - axis[0])).astype(int), 0, axis.size - 1)


@dataclass(frozen=True)
class StrategyMap:
    """Measurable strategy functionals realized as grid-indexed rules."""

    model: DiffusionModel
    surfaces: PDESurfaces
    dt: float

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(floor1, ceil0) per grid cell: incarnation 1 pushes the belief down
        to the first pi-node of its action run, incarnation 0 up to the last.

        Built once per map, so every path set the map reflects shares them.
        """
        surf = self.surfaces
        return surf.grid.pi[_run_edges(surf.in_s1)[0]], surf.grid.pi[_run_edges(surf.in_s0)[1]]

    def evaluate(self, x_paths: np.ndarray, psi: np.ndarray | None = None) -> TrajectorySet:
        """Run the strategy maps along observed X-paths.

        ``psi`` defaults to the innovation-filter posterior computed from the
        paths themselves.  ``p``, ``xi0``, ``xi1`` and ``zeta`` are transposed
        views of time-major buffers, indexed ``[path, step]`` like ``x_paths``.
        """
        n, steps = x_paths.shape[0], x_paths.shape[1] - 1
        if psi is None:
            psi = psi_from_innovation(self.model, x_paths, self.dt)
        t = np.arange(steps + 1) * self.dt
        self._edges  # built before the buffer, so its temporaries never sit on top of it
        levels = np.empty((4, steps + 1, n))  # p, xi0, xi1, zeta
        for k, row in enumerate(self._rows(zip(x_paths.T, psi.T), t)):
            levels[:, k] = row[2:]
        return TrajectorySet(t, x_paths, psi, *(level.T for level in levels))

    def _rows(self, rows, t: np.ndarray):
        """Rows (x, psi, p, xi0, xi1, zeta) of the strategy maps at the times ``t``.

        ``rows`` yields the observed (x_k, psi_k) of every time in ``t``.
        Survivals of the two incarnations evolve through the one push rule,
        and zeta jumps at the first entry into the uninformed stopping set.
        Everyone stops at the last time.
        """
        surf = self.surfaces
        gpi, gx = surf.grid.pi, surf.grid.x
        time_idx = surf.grid.time_index(t)
        steps = t.size - 1
        floor1, ceil0 = self._edges

        for k, (xk, psik) in enumerate(rows):
            if k == 0:
                s = np.ones((2, xk.size))  # informed survivals 1 - xi_i
                stopped_unin = np.zeros(xk.size, dtype=bool)
            weights = _belief_weights(psik)
            if k == steps:  # a forced terminal stop for everyone left
                done = np.ones(xk.size)
                yield xk, psik, _posterior(weights, s, psik)[0], done, done, done
                return
            p = _posterior(weights, s, psik)[0]
            # discrete reflection: push the belief back to the edge node of
            # the action run (the grid image of the free boundary), so the
            # value stays on the obstacle instead of overshooting into the
            # continuation region by a full cell
            xj = _nearest(gx, xk - gx[0])
            cell = (time_idx[k], _nearest(gpi, p), xj)
            in_s1, in_s0 = surf.in_s1[cell], surf.in_s0[cell]
            s[:, in_s1 & in_s0] = 0.0
            for i, acts, hi, lo in ((1, in_s1 & ~in_s0, p, floor1[cell]),
                                    (0, in_s0 & ~in_s1, ceil0[cell], p)):
                push = acts & (hi > lo)
                hi, lo = hi[push], lo[push]
                s[i, push] *= 1.0 - np.clip((hi - lo) / np.maximum(hi * (1.0 - lo), 1e-300), 0.0, 1.0)
            p = _posterior(weights, s, p)[0]
            stopped_unin |= surf.in_s[time_idx[k], _nearest(gpi, p), xj]
            del weights, xj, cell, in_s1, in_s0, acts, push, hi, lo  # only the state crosses the yield
            yield xk, psik, p, 1.0 - s[0], 1.0 - s[1], stopped_unin.astype(float)


def extract_strategies(surfaces: PDESurfaces, model: DiffusionModel, dt: float) -> StrategyMap:
    """Wrap converged surfaces into evaluable strategy functionals."""
    return StrategyMap(model=model, surfaces=surfaces, dt=dt)
