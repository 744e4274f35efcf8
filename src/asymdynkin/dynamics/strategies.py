"""Grid-indexed equilibrium strategy maps and their path evaluation.

The uninformed player stops at the first grid time the state (t, p, x)
enters her stopping set.  Each informed incarnation, when the belief sits on
or beyond the boundary of its stopping set, adds the minimal stopping mass
that pushes the belief back to the closure of the continuation region (a
discrete Skorokhod-type reflection): stopping by incarnation 1 moves p down,
by incarnation 0 up, with the one-step belief update inverted in closed form.
The edge the belief is pushed to is ``pde._run_edges``, the rule the PDE's
belief-flattening copy uses; each time step reflects all paths at once with
whole-array operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class StrategyMap:
    """Measurable strategy functionals realized as grid-indexed rules."""

    model: DiffusionModel
    surfaces: PDESurfaces
    dt: float

    def _x_index(self, x: np.ndarray) -> np.ndarray:
        gx = self.surfaces.grid.x
        return np.clip(np.rint((x - gx[0]) / (gx[1] - gx[0])).astype(int), 0, gx.size - 1)

    def _pi_index(self, p: np.ndarray) -> np.ndarray:
        gp = self.surfaces.grid.pi
        return np.clip(np.rint(p / (gp[1] - gp[0])).astype(int), 0, gp.size - 1)

    def evaluate(self, x_paths: np.ndarray, psi: np.ndarray | None = None) -> TrajectorySet:
        """Run the strategy maps along observed X-paths.

        ``psi`` defaults to the innovation-filter posterior computed from the
        paths themselves; survivals of the two incarnations evolve through
        the minimal-push rule, and zeta jumps at the first entry into the
        uninformed stopping set.  Everyone stops at the horizon.
        """
        n, steps = x_paths.shape[0], x_paths.shape[1] - 1
        surf = self.surfaces
        gpi = surf.grid.pi
        if psi is None:
            psi = psi_from_innovation(self.model, x_paths, self.dt)
        t = np.arange(steps + 1) * self.dt
        time_idx = surf.grid.time_index(t)
        # incarnation 1 pushes the belief down to the first node of its run,
        # incarnation 0 up to the last node of its run
        floor1 = gpi[_run_edges(surf.in_s1)[0]]
        ceil0 = gpi[_run_edges(surf.in_s0)[1]]

        s = np.ones((2, n))  # informed survivals 1 - xi_i
        xi = np.zeros((2, n, steps + 1))
        zeta = np.zeros((n, steps + 1))
        p_out = np.empty((n, steps + 1))
        stopped_unin = np.zeros(n, dtype=bool)

        for k in range(steps + 1):
            tk_idx = time_idx[k]
            xk = x_paths[:, k]
            xj = self._x_index(xk)
            psik = psi[:, k]
            den = psik * s[1] + (1.0 - psik) * s[0]
            p = np.where(den > 1e-15, psik * s[1] / np.maximum(den, 1e-300), psik)

            if k == steps:
                # forced terminal stop for every remaining incarnation
                s[0] = 0.0
                s[1] = 0.0
                xi[:, :, k] = 1.0
                zeta[:, k] = 1.0
                p_out[:, k] = p
                break

            # discrete reflection: push the belief back to the edge node of
            # the action run (the grid image of the free boundary), so the
            # value stays on the obstacle instead of overshooting into the
            # continuation region by a full cell
            cell = (tk_idx, self._pi_index(p), xj)
            in_s1 = surf.in_s1[cell]
            in_s0 = surf.in_s0[cell]
            s[:, in_s1 & in_s0] = 0.0
            p_b = floor1[cell]
            down = in_s1 & ~in_s0 & (p > p_b)
            pv, p_b = p[down], p_b[down]
            q = (pv - p_b) / np.maximum(pv * (1.0 - p_b), 1e-300)
            s[1, down] *= 1.0 - np.clip(q, 0.0, 1.0)
            p_b = ceil0[cell]
            up = in_s0 & ~in_s1 & (p < p_b)
            pv, p_b = p[up], p_b[up]
            q = (p_b - pv) / np.maximum(p_b * (1.0 - pv), 1e-300)
            s[0, up] *= 1.0 - np.clip(q, 0.0, 1.0)
            den = psik * s[1] + (1.0 - psik) * s[0]
            p = np.where(den > 1e-15, psik * s[1] / np.maximum(den, 1e-300), p)
            p_out[:, k] = p

            enter = surf.in_s[tk_idx, self._pi_index(p), xj]
            stopped_unin |= enter
            zeta[:, k] = stopped_unin.astype(float)
            xi[0, :, k] = 1.0 - s[0]
            xi[1, :, k] = 1.0 - s[1]

        return TrajectorySet(t, x_paths, psi, p_out, xi[0], xi[1], zeta)


def extract_strategies(surfaces: PDESurfaces, model: DiffusionModel, dt: float) -> StrategyMap:
    """Wrap converged surfaces into evaluable strategy functionals."""
    return StrategyMap(model=model, surfaces=surfaces, dt=dt)
