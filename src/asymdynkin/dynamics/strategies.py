"""Grid-indexed equilibrium strategy maps and their path evaluation.

A ``StrategyMap`` is the candidate equilibrium of the diffusion game: the
surfaces (u0, u1, v) with their stopping sets, the model they were solved
for, and the step dt at which the strategies act.  It refuses surfaces whose
t grid does not span [0, T] or whose x grid does not span the model's domain,
since every lookup would clip silently to the grid's edges, and a dt that
does not divide T.  Its one clock, ``StrategyMap.clock`` = k dt for
k = 0, ..., T / dt, is the time axis of ``evaluate``, which refuses paths with
another number of columns, and of the Monte Carlo verification, which reads
the model, the surfaces, dt and the clock off the map alone.

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

The incarnations are one type axis throughout, row k for incarnation k:
their stopping sets are the rows of ``PDESurfaces.in_sk``, their survivals
the rows of one (2, paths) array, and their generating processes the rows of
``TrajectorySet.xi``, (2, paths, steps + 1).

Like the Euler loops of ``simulate``, the evaluation is written once, as a
row generator, ``StrategyMap._rows``: it reflects all paths at once with
whole-array operations and yields one time row per step, each a fresh vector
over the paths.  ``evaluate`` collects the rows with ``simulate._stack``, the
collector of the simulators, into one time-major ``(4, steps + 1, paths)``
buffer, and refuses a ``psi`` that is not shaped like the paths; the Monte
Carlo verification consumes the rows a step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core import ShapeMismatchError, _belief_weights, _posterior
from .model import DiffusionModel
from .pde import PDESurfaces, _run_edges
from .simulate import _stack, _time_axis, psi_from_innovation

__all__ = ["StrategyMap", "TrajectorySet", "extract_strategies"]


@dataclass(frozen=True)
class TrajectorySet:
    """Generating-process trajectories produced on a batch of X-paths.

    ``xi`` leads with the type axis, (2, paths, steps + 1): ``xi[k]`` is
    incarnation k's process.
    """

    t: np.ndarray
    x: np.ndarray
    psi: np.ndarray
    p: np.ndarray
    xi: np.ndarray
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

    def __post_init__(self):
        grid = self.surfaces.grid
        for name, axis, (lo, hi) in (("t", grid.t, (0.0, self.model.horizon)),
                                     ("x", grid.x, self.model.domain)):
            slack = 1e-9 * (axis[1] - axis[0])  # PDEGrid's spacing slack
            if abs(axis[0] - lo) > slack or abs(axis[-1] - hi) > slack:
                raise ValueError(f"the {name} grid spans [{axis[0]!r}, {axis[-1]!r}], "
                                 f"not the model's [{float(lo)!r}, {float(hi)!r}]")
        self.clock  # a dt that does not divide the horizon is refused here

    @cached_property
    def clock(self) -> np.ndarray:
        """The times k dt, k = 0, ..., T / dt, at which the strategies act."""
        return np.arange(_time_axis(self.model, self.dt).size) * self.dt

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(floor1, ceil0) per grid cell: incarnation 1 pushes the belief down
        to the first pi-node of its action run, incarnation 0 up to the last.

        Built once per map, so every path set the map reflects shares them.
        """
        surf = self.surfaces
        return surf.grid.pi[_run_edges(surf.in_sk[1])[0]], surf.grid.pi[_run_edges(surf.in_sk[0])[1]]

    def evaluate(self, x_paths: np.ndarray, psi: np.ndarray | None = None) -> TrajectorySet:
        """Run the strategy maps along observed X-paths.

        ``psi`` defaults to the innovation-filter posterior computed from the
        paths themselves, and must have their shape otherwise.  The paths must
        have one column per time of ``clock``.  ``p``, ``xi`` and ``zeta`` are
        transposed views of one time-major buffer, indexed ``[..., path, step]``
        like ``x_paths``.
        """
        t = self.clock
        if x_paths.shape[1] != t.size:
            raise ShapeMismatchError(f"the paths have {x_paths.shape[1]} columns, the clock {t.size} times")
        if psi is None:
            psi = psi_from_innovation(self.model, x_paths, self.dt)
        elif psi.shape != x_paths.shape:
            raise ShapeMismatchError(f"psi has shape {psi.shape}, the paths {x_paths.shape}")
        self._edges  # built before the buffer, so its temporaries never sit on top of it
        rows = self._rows(zip(x_paths.T, psi.T), t)
        levels = _stack(((p, *xi, zeta) for _, _, p, xi, zeta in rows), (4, t.size, x_paths.shape[0]))
        return TrajectorySet(t, x_paths, psi, levels[0], levels[1:-1], levels[-1])

    def _rows(self, rows, t: np.ndarray):
        """Rows (x, psi, p, xi, zeta) of the strategy maps at the times ``t``.

        ``rows`` yields the observed (x_k, psi_k) of every time in ``t``.
        Survivals of the two incarnations evolve through the one push rule,
        and zeta jumps at the first entry into the uninformed stopping set.
        Everyone stops at the last time.  ``xi`` is a fresh (2, paths) row,
        never a view of the survivals, which change in place.
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
                yield xk, psik, _posterior(weights, s, psik)[0], np.ones(s.shape), np.ones(xk.size)
                return
            p = _posterior(weights, s, psik)[0]
            # discrete reflection: push the belief back to the edge node of
            # the action run (the grid image of the free boundary), so the
            # value stays on the obstacle instead of overshooting into the
            # continuation region by a full cell
            xj = _nearest(gx, xk - gx[0])
            cell = (time_idx[k], _nearest(gpi, p), xj)
            in_sk = surf.in_sk[(slice(None), *cell)]
            s[:, in_sk[0] & in_sk[1]] = 0.0
            for i, hi, lo in ((1, p, floor1[cell]), (0, ceil0[cell], p)):
                push = in_sk[i] & ~in_sk[1 - i] & (hi > lo)
                hi, lo = hi[push], lo[push]
                s[i, push] *= 1.0 - np.clip((hi - lo) / np.maximum(hi * (1.0 - lo), 1e-300), 0.0, 1.0)
            p = _posterior(weights, s, p)[0]
            stopped_unin |= surf.in_s[time_idx[k], _nearest(gpi, p), xj]
            del weights, xj, cell, in_sk, push, hi, lo  # only the state crosses the yield
            yield xk, psik, p, 1.0 - s, stopped_unin.astype(float)


def extract_strategies(surfaces: PDESurfaces, model: DiffusionModel, dt: float) -> StrategyMap:
    """Wrap converged surfaces into evaluable strategy functionals."""
    return StrategyMap(model=model, surfaces=surfaces, dt=dt)
