"""JSON/CSV/.npy schemas for games, equilibria, reports and PDE surfaces.

All writers are byte-deterministic: keys are sorted, floats use shortest
round-trip repr (or their float64 bytes in ``.npy``), and no timestamps or
environment data leak into artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import FiltrationTree, GeneratingProcess, PayoffTriple, TimeGrid
from .dynamics.pde import PDEGrid, PDESurfaces
from .scenario import (
    Certificate,
    MartingaleReport,
    ScenarioGame,
    StrategyProfile,
    SupportReport,
    ValueSurfaces,
)

__all__ = [
    "game_to_dict",
    "game_from_dict",
    "equilibrium_to_dict",
    "equilibrium_from_dict",
    "write_json",
    "nodes_csv",
    "surfaces_csv",
    "surfaces_from_csv",
    "write_surfaces_npy",
    "surfaces_from_npy",
    "paths_csv",
    "trajectories_csv",
]


def _floats(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _csv_lines(*columns) -> list[str]:
    """One CSV line per row of equal-length columns.

    Integer and boolean columns print as integers, every other column as the
    shortest round-trip repr of a float.
    """
    texts = []
    for col in columns:
        col = np.asarray(col)
        values = col.astype(int).tolist() if col.dtype.kind in "biu" else _floats(col)
        texts.append(map(repr, values))
    return [",".join(row) for row in zip(*texts, strict=True)]


def game_to_dict(game: ScenarioGame) -> dict:
    tree = game.tree
    grid = tree.grid or TimeGrid.regular(tree.n_steps)
    return {
        "grid": _floats(grid.points),
        "tree": [
            {"id": int(i), "parent": int(tree.parent[i]), "p": float(tree.prob[i])}
            for i in range(tree.n_nodes)
        ],
        "payoffs": {
            "f": _floats(game.payoffs.f),
            "g": _floats(game.payoffs.g),
            "h": _floats(game.payoffs.h),
        },
        "prior": float(game.prior),
    }


def game_from_dict(data: dict) -> ScenarioGame:
    nodes = sorted(data["tree"], key=lambda n: n["id"])
    if [n["id"] for n in nodes] != list(range(len(nodes))):
        raise ValueError("tree: node ids must be 0..n-1")
    parent = np.array([n["parent"] for n in nodes], dtype=np.int64)
    prob = np.array([n["p"] for n in nodes], dtype=float)
    tree = FiltrationTree(parent, prob, TimeGrid(np.asarray(data["grid"], dtype=float)))
    tree.validate()
    pay = data["payoffs"]
    f = np.asarray(pay["f"], dtype=float)
    g = np.asarray(pay["g"], dtype=float)
    h = np.asarray(pay["h"], dtype=float)
    if f.ndim == 1:
        f, g, h = (np.stack([a, a]) for a in (f, g, h))
    # build the game first so a wrong regime count reports as a shape error
    game = ScenarioGame(tree, PayoffTriple(f=f, g=g, h=h), float(data["prior"]))
    game.payoffs.validate(tree)
    return game


def equilibrium_to_dict(
    profile: StrategyProfile, value: float, surfaces: ValueSurfaces | None = None
) -> dict:
    out = {
        "xi0": _floats(profile.xi0.levels),
        "xi1": _floats(profile.xi1.levels),
        "zeta": _floats(profile.zeta.levels),
        "value": float(value),
    }
    if surfaces is not None:
        out["surfaces"] = {
            "u0_hat": _floats(surfaces.u_hat[0]),
            "u1_hat": _floats(surfaces.u_hat[1]),
            "v_hat": _floats(surfaces.v_hat),
            "p": _floats(surfaces.p),
        }
    return out


def equilibrium_from_dict(data: dict, tree: FiltrationTree) -> tuple[StrategyProfile, float]:
    profile = StrategyProfile(
        xi0=GeneratingProcess.from_levels(np.asarray(data["xi0"], dtype=float), tree),
        xi1=GeneratingProcess.from_levels(np.asarray(data["xi1"], dtype=float), tree),
        zeta=GeneratingProcess.from_levels(np.asarray(data["zeta"], dtype=float), tree),
    )
    return profile, float(data["value"])


def write_json(path: Path, obj: dict) -> None:
    # compact, so that json's C encoder writes it (an indent forces the Python one)
    Path(path).write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "verdict": cert.verdict,
        "value": cert.value,
        "tol": cert.tol,
        "violations": [
            {"condition": c, "index": int(i), "residual": float(r)}
            for c, i, r in cert.violations
        ],
    }


def martingale_report_to_dict(rep: MartingaleReport) -> dict:
    out = {
        "m0_drift": _floats(rep.m0_drift),
        "n0_drift": _floats(rep.n0_drift),
        "m0_node_class": [rep.node_classification(rep.m0_drift[i]) for i in range(2)],
        "n0_node_class": rep.node_classification(rep.n0_drift),
        "m0_submartingale": [bool(b) for b in rep.m0_submartingale],
        "m0_martingale_where_active": [bool(b) for b in rep.m0_martingale_on_active],
        "n0_supermartingale": rep.n0_supermartingale,
        "n0_martingale_where_active": rep.n0_martingale_on_active,
        "tol": rep.tol,
        "ok": rep.ok,
    }
    if rep.m_override_drift is not None:
        out["m_override_drift"] = _floats(rep.m_override_drift)
    if rep.n_override_drift is not None:
        out["n_override_drift"] = _floats(rep.n_override_drift)
    return out


def support_report_to_dict(rep: SupportReport) -> dict:
    return {
        "z": _floats(rep.z),
        "y2": _floats(rep.y2),
        "flat_off_informed": _floats(rep.flat_off_informed),
        "flat_off_uninformed": _floats(rep.flat_off_uninformed),
        "consistency_on_gamma2": _floats(np.where(rep.gamma2, rep.consistency, 0.0)),
        "simultaneous_jump_nodes": [int(i) for i in rep.simultaneous_jumps],
        "max_z": rep.max_z,
        "min_y2": rep.min_y2,
        "max_flat_off": rep.max_flat_off,
        "max_consistency": rep.max_consistency,
    }


def nodes_csv(game: ScenarioGame, surfaces: ValueSurfaces, support: SupportReport) -> str:
    lines = ["node,p,U0,U1,V,Z0,Z1,Y2"]
    lines += _csv_lines(np.arange(game.tree.n_nodes), surfaces.p, surfaces.u[0], surfaces.u[1],
                        surfaces.v, support.z[0], support.z[1], support.y2)
    return "\n".join(lines) + "\n"


def _meta_lines(meta: dict) -> list[str]:
    return [f"# {k}={meta[k]!r}" for k in sorted(meta)]


# the columns of the surfaces table: the CSV's header and the .npy's column order
_SURFACE_COLUMNS = ("t", "pi", "x", "u0", "u1", "v", "in_S0", "in_S1", "in_S")


def _axes(grid: PDEGrid) -> tuple[np.ndarray, ...]:
    """The t, pi and x nodes, each broadcastable to the grid's (t, pi, x) shape."""
    return grid.t[:, None, None], grid.pi[:, None], grid.x


def surfaces_csv(surfaces: PDESurfaces, meta: dict) -> str:
    grid = surfaces.grid
    _, mpi, mx = grid.shape
    pi, x = np.repeat(grid.pi, mx), np.tile(grid.x, mpi)
    lines = _meta_lines(meta)
    lines.append(",".join(_SURFACE_COLUMNS))
    # a slice (or a path, below) at a time, so the Python floats of one chunk,
    # not of the whole array, sit beside the formatted lines
    for it, t in enumerate(grid.t):
        lines += _csv_lines(
            np.full(pi.size, t), pi, x,
            *(arr[it].ravel() for arr in (surfaces.u0, surfaces.u1, surfaces.v,
                                          surfaces.in_s0, surfaces.in_s1, surfaces.in_s)),
        )
    return "\n".join(lines) + "\n"


def surfaces_from_csv(text: str) -> PDESurfaces:
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if len(rows) < 2:
        raise ValueError("surfaces CSV: no header and data rows")
    header = rows[0].split(",")
    if header[:3] != ["t", "pi", "x"]:
        raise ValueError("surfaces CSV: unexpected header")
    data = np.loadtxt(rows[1:], delimiter=",", comments=None, ndmin=2)
    cols = dict(zip(header, data.T, strict=True))
    return _surfaces_from_table(np.column_stack([cols[name] for name in _SURFACE_COLUMNS]))


def write_surfaces_npy(path: Path, surfaces: PDESurfaces) -> None:
    """The CSV's table as one float64 (cells, 9) array, flags 0.0 or 1.0, in a ``.npy``."""
    table = np.empty((*surfaces.grid.shape, len(_SURFACE_COLUMNS)))
    for k, column in enumerate((*_axes(surfaces.grid), surfaces.u0, surfaces.u1, surfaces.v,
                                surfaces.in_s0, surfaces.in_s1, surfaces.in_s)):
        table[..., k] = column
    with open(path, "wb") as fh:  # np.save would append ".npy" to a path without it
        np.save(fh, table.reshape(-1, len(_SURFACE_COLUMNS)), allow_pickle=False)


def surfaces_from_npy(path: Path) -> PDESurfaces:
    with open(path, "rb") as fh:  # an .npz loads lazily from the open file: closed here
        data = np.load(fh, allow_pickle=False)
        if not (isinstance(data, np.ndarray) and data.dtype == np.float64 and data.ndim == 2
                and data.shape[1] == len(_SURFACE_COLUMNS)):
            found = f"{data.dtype} {data.shape}" if isinstance(data, np.ndarray) else type(data).__name__
            raise ValueError(f"need one float64 array of shape (cells, {len(_SURFACE_COLUMNS)}), "
                             f"found {found}")
    return _surfaces_from_table(data)


def _surfaces_from_table(data: np.ndarray) -> PDESurfaces:
    """Surfaces from a (cells, 9) table of ``_SURFACE_COLUMNS``, as either reader found it."""
    grid = PDEGrid(*(np.unique(data[:, i]) for i in range(3)))
    shape = grid.shape
    # every cell exactly once, in the order the writers write them
    if data.shape[0] != np.prod(shape) or not all(
        np.array_equal(data[:, i].reshape(shape), np.broadcast_to(axis, shape))
        for i, axis in enumerate(_axes(grid))
    ):
        raise ValueError("rows are not the t, pi, x grid in order, each cell once")
    u0, u1, v, *flags = (data[:, i].reshape(shape) for i in range(3, len(_SURFACE_COLUMNS)))
    if not all(np.isfinite(w).all() for w in (u0, u1, v)):
        raise ValueError("u0, u1 and v must be finite")
    if not all(np.isin(flag, (0.0, 1.0)).all() for flag in flags):
        raise ValueError("stopping-set flags must be 0 or 1")
    return PDESurfaces(grid, u0, u1, v, *(flag.astype(bool) for flag in flags))


def paths_csv(bundle, meta: dict) -> str:
    lines = _meta_lines(meta)
    with_regime = bundle.regime is not None
    lines.append("path_id,t,X,psi" + (",J" if with_regime else ""))
    steps = bundle.t.size
    for pid in range(bundle.x.shape[0]):
        regime = [np.full(steps, bundle.regime[pid])] if with_regime else []
        lines += _csv_lines(np.full(steps, pid), bundle.t, bundle.x[pid], bundle.psi[pid], *regime)
    return "\n".join(lines) + "\n"


def trajectories_csv(traj, meta: dict) -> str:
    lines = _meta_lines(meta)
    lines.append("path_id,t,X,psi,p,xi0,xi1,zeta")
    steps = traj.t.size
    for pid in range(traj.x.shape[0]):
        lines += _csv_lines(np.full(steps, pid), traj.t, traj.x[pid], traj.psi[pid], traj.p[pid],
                            traj.xi0[pid], traj.xi1[pid], traj.zeta[pid])
    return "\n".join(lines) + "\n"
