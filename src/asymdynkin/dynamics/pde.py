"""Coupled free-boundary system for the continuous-state stopping game.

Three surfaces on a (t, pi, x) grid: per-regime informed values u0, u1, on
one type axis as ``PDESurfaces.u``, and the uninformed value v, solved
backward in time.  Each slice is one projected splitting step, with no
iteration inside it:

* each u_i takes one implicit (backward Euler) step of its regime generator
  and is projected onto u_i <= f;
* the belief-flattening constraint d_pi u_i = 0 is enforced across S0 u S1
  by a one-sided copy from the adjacent continuation value, followed by the
  same projection;
* v is the ex-ante mix pi u1 + (1-pi) u0 (``core._type_mix``) of the stepped
  surfaces, and the opponent's stopping set is S = {v <= g}.  On S the
  opponent stops first, so u0, u1 and v are all pinned to g there; the
  identity v = pi u1 + (1-pi) u0 then holds on every cell.

One pass after the backward loop reads every slice's stopping sets off the
solved surfaces: S_k = {u_k >= f - _SET_TOL} and S = {v <= g + _SET_TOL},
where the pinned v equals g.

The regime generators come from ``_operator``, which applies one stencil rule
to each of the x and pi axes (centred diffusion, upwinded drift) and builds
its CSC arrays with ``_compiled.csc_arrays``, as the oracle's LP does.  The
identity's residual is ``PDESurfaces.identity_residual``, derived from the
surfaces alone, so the solver and the file readers report the same number.

The belief-run rule -- where the belief lands when an incarnation acts -- is
``_run_edges``: the first and last pi index of the run of action cells that
holds each cell.  The copy above and ``strategies.StrategyMap`` both read it.

At pi in {0, 1} every pi-coefficient carries a pi(1-pi) factor and vanishes,
so the boundary rows reduce naturally to the one-regime problems; no
artificial boundary data is imposed there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .._compiled import csc_arrays, scipy_extension
from ..core import _belief_weights, _type_mix
from .model import DiffusionModel, generator_coefficients

# the implicit steps are factored by SuperLU's binding alone, loaded on the
# first solve: importing the package, and every CLI command, then skips the
# load time and memory of scipy's sparse package, which only the reference
# solver ``reference_dynkin_1d`` imports

__all__ = [
    "PDEGrid",
    "PDEStats",
    "PDESurfaces",
    "NoConvergence",
    "pde_solve_system",
    "reference_dynkin_1d",
]


class NoConvergence(RuntimeError):
    """A regime's implicit step system is singular, so the solve cannot proceed."""


# a cell belongs to a stopping set when its value is within _SET_TOL of the obstacle
_SET_TOL = 1e-10


@dataclass(frozen=True)
class PDEGrid:
    """Uniform grids in t, pi (odd count so pi = 1/2 is a node) and x."""

    t: np.ndarray
    pi: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        for name in ("t", "pi", "x"):
            pts = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, pts)
            # the operator, the lookups and StrategyMap all assume one step per
            # axis; the slack absorbs linspace and repr round-trip rounding
            step = (pts[-1] - pts[0]) / (pts.size - 1) if pts.size > 1 else 0.0
            if not step > 0.0 or np.any(np.abs(np.diff(pts) - step) > 1e-9 * step):
                raise ValueError(f"{name} grid needs at least two increasing, uniformly spaced points")
        if self.pi.size % 2 == 0:
            raise ValueError("pi grid must have an odd number of points")
        if abs(self.pi[0]) > 1e-14 or abs(self.pi[-1] - 1.0) > 1e-14:
            raise ValueError("pi grid must span [0, 1]")

    @staticmethod
    def regular(horizon: float, domain: tuple[float, float], m_t: int, m_pi: int, m_x: int) -> "PDEGrid":
        return PDEGrid(
            np.linspace(0.0, horizon, m_t),
            np.linspace(0.0, 1.0, m_pi),
            np.linspace(domain[0], domain[1], m_x),
        )

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.t.size, self.pi.size, self.x.size

    def time_index(self, t) -> np.ndarray:
        """Index of the first time node at or after each of ``t`` (within 1e-12), clipped."""
        return np.clip(np.searchsorted(self.t, np.asarray(t) - 1e-12), 0, self.t.size - 1)


@dataclass(frozen=True)
class PDEStats:
    """Deterministic counters of one ``pde_solve_system`` run.

    ``solves`` counts the implicit regime steps, one per regime and slice, so
    2 (m_t - 1); ``factorisations`` counts the LU factors they share, one per
    regime, so 2.
    """

    solves: int
    factorisations: int


@dataclass(frozen=True)
class PDESurfaces:
    """Converged value surfaces with their stopping sets.

    ``u`` (u0, u1) and ``in_sk`` (S0, S1) lead with the type axis, (2, m_t,
    m_pi, m_x); ``v`` and ``in_s`` are (m_t, m_pi, m_x).  ``stats`` is set by
    ``pde_solve_system`` and None for surfaces read back from a file or built
    by hand.
    """

    grid: PDEGrid
    u: np.ndarray
    v: np.ndarray
    in_sk: np.ndarray
    in_s: np.ndarray
    stats: PDEStats | None = None

    @cached_property
    def identity_residual(self) -> float:
        """Largest |v - (pi u1 + (1-pi) u0)| over the continuation cells of slices 0 ... m_t-2.

        The terminal slice is data, not a solve, so it is left out; 0.0 when
        every cell of those slices lies in a stopping set.
        """
        cont = ~(self.in_sk.any(axis=0) | self.in_s)[:-1]
        gap = np.abs(self.v - _type_mix(_belief_weights(self.grid.pi[:, None]), self.u))[:-1]
        return float(np.max(gap[cont], initial=0.0))


def _operator(model: DiffusionModel, grid: PDEGrid, mode: str):
    """Spatial generator on the (pi, x) sheet for one mode of ``MODES``, as ``csc_arrays``.

    Per axis with step h, from ``generator_coefficients``: diffusion a is centred,
    (a, -2a, a) / h^2, and drift b upwinded, b+ / h forward and b- / h backward.  x
    adds reflecting end rows; pi keeps interior rows only (its coefficients vanish
    at 0 and 1).  The cross term is centred on the doubly interior block.  Every
    cell stores its diagonal entry.
    """
    P, X = np.meshgrid(grid.pi, grid.x, indexing="ij")
    ax, bpi, dxx, dpp, cross = generator_coefficients(model, P, X, mode)
    dpi, dx, mx = grid.pi[1] - grid.pi[0], grid.x[1] - grid.x[0], grid.x.size
    # (cells, column offset in the flat (pi, x) index, coefficient) of each block of entries
    terms = []
    for inner, stride, step, diff, drift in (((slice(None), slice(1, -1)), 1, dx, dxx, ax),
                                             ((slice(1, -1), slice(None)), mx, dpi, dpp, bpi)):
        a, up, down = diff / step**2, np.maximum(drift, 0.0) / step, np.minimum(drift, 0.0) / step
        terms += [(inner, stride, a), (inner, -stride, a), (inner, 0, -2 * a)]
        if stride == 1:  # reflecting x ends: the ghost node mirrors the inner neighbour
            terms += [((slice(None), end), off, c) for end, nb in ((0, 1), (-1, -1))
                      for off, c in ((nb, 2 * a), (0, -2 * a))]
        terms += [(inner, stride, up), (inner, 0, -up + down), (inner, -stride, -down)]
    cc = cross / (4.0 * dpi * dx)
    terms += [((slice(1, -1), slice(1, -1)), spi * mx + sxj, sgn * cc)
              for spi, sxj, sgn in ((1, 1, 1.0), (1, -1, -1.0), (-1, 1, -1.0), (-1, -1, 1.0))]
    center = np.arange(P.size).reshape(P.shape)
    rows = np.concatenate([center[cells].ravel() for cells, _, _ in terms])
    cols = np.concatenate([center[cells].ravel() + off for cells, off, _ in terms])
    vals = np.concatenate([c[cells].ravel() for cells, _, c in terms])
    return csc_arrays(rows, cols, vals, P.size)


def _implicit_matrix(op, dt: float):
    """CSC arrays of I - dt L for the CSC arrays of a generator L that stores its diagonal.

    The entries are formed as scipy's sparse subtraction forms them: 1 - m on
    the diagonal and 0 - m elsewhere, m = dt times L's entry, exact zeros dropped.
    """
    indptr, indices, data = op
    n = indptr.size - 1
    cols = np.repeat(np.arange(n), np.diff(indptr))
    m = dt * data
    vals = np.where(indices == cols, 1.0 - m, 0.0 - m)
    keep = vals != 0.0
    return csc_arrays(indices[keep], cols[keep], vals[keep], n)


# splu's default options; SuperLU's own defaults stand for the Nones
_SPLU_OPTIONS = dict(DiagPivotThresh=None, ColPerm=None, PanelSize=None, Relax=None)


def _factor(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
    """SuperLU factor of a CSC matrix, as ``splu`` computes it; RuntimeError if singular."""
    superlu = scipy_extension("sparse.linalg._dsolve._superlu")
    return superlu.gstrf(indptr.size - 1, data.size, data, indices, indptr,
                         csc_construct_func=None, ilu=False, options=_SPLU_OPTIONS)


def _run_edges(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last pi index of the run of True that holds each cell of a (..., pi, x) mask.

    A run starts where the cell below is False and ends where the cell above
    is; the latest start at or below a cell and the earliest end at or above
    it bound its run.  Off the mask both edges are meaningless, but they stay
    valid pi indices.
    """
    mpi = mask.shape[-2]
    idx = np.arange(mpi)[:, None]
    below = np.zeros_like(mask)
    below[..., 1:, :] = mask[..., :-1, :]
    above = np.zeros_like(mask)
    above[..., :-1, :] = mask[..., 1:, :]
    first = np.maximum.accumulate(np.where(mask & ~below, idx, 0), axis=-2)
    ends = np.where(mask & ~above, idx, mpi - 1)
    last = np.flip(np.minimum.accumulate(np.flip(ends, axis=-2), axis=-2), axis=-2)
    return first, last


def _pi_copy(u_other: np.ndarray, run_mask: np.ndarray, from_below: bool) -> np.ndarray:
    """Flatten the opponent incarnation's surface across an action region.

    While incarnation i acts, the belief jumps through the run to the
    nearest continuation point (below for i = 1, above for i = 0), so the
    *other* incarnation's value is constant across the run and equals the
    value at that landing point.  The acting incarnation's own surface
    already sits on the pi-independent obstacle f and needs no copy.  Runs
    reaching the pi-boundary with no landing point are left untouched (the
    acting incarnation stops outright there).
    """
    first, last = _run_edges(run_mask)
    land = first - 1 if from_below else last + 1
    mpi = u_other.shape[-2]
    ok = run_mask & (land >= 0) & (land < mpi)
    return np.where(ok, np.take_along_axis(u_other, np.clip(land, 0, mpi - 1), axis=-2), u_other)


def pde_solve_system(
    model: DiffusionModel,
    f: Callable,
    g: Callable,
    h: Callable,
    grid: PDEGrid,
) -> PDESurfaces:
    """Backward projected splitting solve of the coupled variational system.

    ``f``, ``g``, ``h`` are payoff functions of (t, x) with f >= h >= g;
    terminal data is h(T, .) for all three surfaces.  Each regime's implicit
    system is LU-factorised once; raises NoConvergence if one is singular.
    """
    mt, mpi, mx = grid.shape
    dt = grid.t[1] - grid.t[0]
    lus = []
    for mode in ("regime-0", "regime-1"):
        try:
            lus.append(_factor(*_implicit_matrix(_operator(model, grid, mode), dt)))
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise NoConvergence(f"the implicit {mode} system is singular: {exc}")

    weights = _belief_weights(grid.pi[:, None])
    # f and g at every (t, x), broadcast over pi rather than copied along it
    ft, gt = (np.broadcast_to(np.asarray(fn(grid.t[:, None, None], grid.x), dtype=float), (mt, 1, mx))
              for fn in (f, g))
    u = np.empty((2, mt, mpi, mx))
    v = np.empty((mt, mpi, mx))
    u[0, -1] = u[1, -1] = v[-1] = h(grid.t[-1], grid.x)

    for k in range(mt - 2, -1, -1):
        step = [np.minimum(lu.solve(u[i, k + 1].reshape(-1)).reshape(mpi, mx), ft[k])
                for i, lu in enumerate(lus)]
        s0, s1 = (w >= ft[k] - _SET_TOL for w in step)
        # belief jumps flatten the opponent's surface across each run
        step[0] = np.minimum(_pi_copy(step[0], s1 & ~s0, from_below=True), ft[k])
        step[1] = np.minimum(_pi_copy(step[1], s0 & ~s1, from_below=False), ft[k])
        v_c = _type_mix(weights, step)
        # the opponent stops first on S: pinning all three surfaces to g there
        # keeps the identity exact on S too
        pinned = v_c <= gt[k] + _SET_TOL
        u[0, k], u[1, k], v[k] = (np.where(pinned, gt[k], w) for w in (step[0], step[1], v_c))

    return PDESurfaces(grid, u, v, u >= ft - _SET_TOL, v <= gt + _SET_TOL,
                       PDEStats(2 * (mt - 1), len(lus)))


def reference_dynkin_1d(
    drift: Callable,
    sigma: Callable,
    f: Callable,
    g: Callable,
    h: Callable,
    t: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Full-information double-obstacle value on a (t, x) grid.

    Independent projected implicit scheme: one backward Euler step with the
    one-regime generator, then clip into [g, f].  Used as the reference for
    the degenerate reduction of the coupled system and for spot checks.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    mt, mx = t.size, x.size
    dtau = t[1] - t[0]
    dx = x[1] - x[0]
    mu = np.asarray(drift(x), dtype=float) * np.ones(mx)
    sig = np.asarray(sigma(x), dtype=float) * np.ones(mx)

    main = np.zeros(mx)
    upper = np.zeros(mx)
    lower = np.zeros(mx)
    d2 = 0.5 * sig**2 / dx**2
    ap = np.maximum(mu, 0.0) / dx
    am = np.minimum(mu, 0.0) / dx
    upper[1:-1] = d2[1:-1] + ap[1:-1]
    lower[1:-1] = d2[1:-1] - am[1:-1]
    main[1:-1] = -2 * d2[1:-1] - ap[1:-1] + am[1:-1]
    # reflecting ends
    upper[0] = 2 * d2[0]
    main[0] = -2 * d2[0]
    lower[-1] = 2 * d2[-1]
    main[-1] = -2 * d2[-1]
    l1 = sp.diags(
        [lower[1:], main, upper[:-1]], offsets=[-1, 0, 1], format="csc"
    )
    a = (sp.identity(mx, format="csc") - dtau * l1).tocsc()
    solve = spla.factorized(a)

    out = np.empty((mt, mx))
    out[-1] = np.asarray(h(t[-1], x), dtype=float) * np.ones(mx)
    for k in range(mt - 2, -1, -1):
        stepped = solve(out[k + 1])
        ft = np.asarray(f(t[k], x), dtype=float) * np.ones(mx)
        gt = np.asarray(g(t[k], x), dtype=float) * np.ones(mx)
        out[k] = np.clip(stepped, gt, ft)
    return out
