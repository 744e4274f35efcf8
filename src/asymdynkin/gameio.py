"""JSON/CSV/.npy schemas for games, equilibria, reports and PDE surfaces.

All writers are byte-deterministic: keys are sorted, floats use shortest
round-trip repr (or their float64 bytes in ``.npy``), and no timestamps or
environment data leak into artifacts.  Per-type keys and columns carry the
type index k < K (``xi{k}``, ``u{k}_hat``, ``U{k}``, ``Z{k}``), in type order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import FiltrationTree, GeneratingProcess, PayoffTriple, TimeGrid, json_numbers
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
    "certificate_to_dict",
    "martingale_report_to_dict",
    "support_report_to_dict",
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


def _text(col):
    """The CSV texts of a column, as an iterator.

    Integer and boolean columns print as integers, every other column as the
    shortest round-trip repr of a float.
    """
    col = np.asarray(col)
    values = col.astype(int).tolist() if col.dtype.kind in "biu" else _floats(col)
    return map(repr, values)


def _csv_lines(*columns) -> list[str]:
    """One CSV line per row of equal-length columns, each an array or a list of its texts."""
    texts = [col if isinstance(col, list) else _text(col) for col in columns]
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
    """The game ``data`` holds; every field is JSON numbers, node ids and parents integers."""
    nodes = data["tree"]

    def column(key, integer=False):
        return json_numbers(f"tree: {key}", [n[key] for n in nodes], (len(nodes),), integer)

    ids = column("id", integer=True)
    if sorted(ids.tolist()) != list(range(len(nodes))):
        raise ValueError("tree: node ids must be 0..n-1")
    order = np.argsort(ids)
    tree = FiltrationTree(column("parent", integer=True)[order], column("p")[order],
                          TimeGrid(json_numbers("grid", data["grid"])))
    tree.validate()
    f, g, h = (json_numbers(f"payoffs: {key}", data["payoffs"][key]) for key in ("f", "g", "h"))
    if f.ndim == 1:
        f, g, h = (np.stack([a, a]) for a in (f, g, h))
    # build the game first so a wrong regime count reports as a shape error
    game = ScenarioGame(tree, PayoffTriple(f=f, g=g, h=h),
                        float(json_numbers("prior", data["prior"], shape=())))
    game.payoffs.validate(tree)
    return game


def equilibrium_to_dict(
    profile: StrategyProfile, value: float, surfaces: ValueSurfaces | None = None
) -> dict:
    out = {f"xi{k}": _floats(x.levels) for k, x in enumerate(profile.xi)}
    out.update(zeta=_floats(profile.zeta.levels), value=float(value))
    if surfaces is not None:
        out["surfaces"] = {f"u{k}_hat": _floats(u) for k, u in enumerate(surfaces.u_hat)}
        out["surfaces"].update(v_hat=_floats(surfaces.v_hat), p=_floats(surfaces.p))
    return out


def _process(data: dict, key: str, tree: FiltrationTree) -> GeneratingProcess:
    """The process whose levels ``data[key]`` lists, one JSON number per tree node."""
    return GeneratingProcess.from_levels(json_numbers(key, data[key], shape=(tree.n_nodes,)), tree)


def equilibrium_from_dict(data: dict, game: ScenarioGame) -> tuple[StrategyProfile, float]:
    """The profile and declared value of ``game`` that ``data`` holds: ``xi{k}`` per type, ``zeta``."""
    xi = tuple(_process(data, f"xi{k}", game.tree) for k in range(len(game.weights)))
    value = float(json_numbers("value", data["value"], shape=()))
    return StrategyProfile(xi, _process(data, "zeta", game.tree)), value


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
        "m0_node_class": [rep.node_classification(d) for d in rep.m0_drift],
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
    types = range(len(game.weights))
    lines = [",".join(["node", "p", *(f"U{k}" for k in types), "V", *(f"Z{k}" for k in types), "Y2"])]
    lines += _csv_lines(np.arange(game.tree.n_nodes), surfaces.p, *surfaces.u, surfaces.v,
                        *support.z, support.y2)
    return "\n".join(lines) + "\n"


def _csv_head(meta: dict, columns) -> list[str]:
    """The lines above a CSV's rows: ``# key=value`` per entry of ``meta``, sorted, then the header."""
    return [*(f"# {k}={meta[k]!r}" for k in sorted(meta)), ",".join(columns)]


# the columns of the surfaces table: the CSV's header and the .npy's column order
_SURFACE_COLUMNS = ("t", "pi", "x", "u0", "u1", "v", "in_S0", "in_S1", "in_S")


def _axes(grid: PDEGrid) -> tuple[np.ndarray, ...]:
    """The t, pi and x nodes, each broadcastable to the grid's (t, pi, x) shape."""
    return grid.t[:, None, None], grid.pi[:, None], grid.x


def _surfaces_table(surfaces: PDESurfaces) -> np.ndarray:
    """The float64 (cells, 9) table of ``_SURFACE_COLUMNS``, flags 0.0 or 1.0, cells in (t, pi, x) order."""
    columns = (*_axes(surfaces.grid), *surfaces.u, surfaces.v, *surfaces.in_sk, surfaces.in_s)
    return np.stack(np.broadcast_arrays(*columns), axis=-1, dtype=float).reshape(-1, len(_SURFACE_COLUMNS))


def surfaces_csv(surfaces: PDESurfaces, meta: dict) -> str:
    lines = _csv_head(meta, _SURFACE_COLUMNS)
    # a time slice at a time, so the Python floats of one slice, not of the
    # whole table, sit beside the formatted lines; the flags print as integers
    for rows in np.split(_surfaces_table(surfaces), surfaces.grid.t.size):
        lines += _csv_lines(*rows[:, :6].T, *rows[:, 6:].T.astype(bool))
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
    """The CSV's table, ``_surfaces_table``, in a ``.npy``."""
    with open(path, "wb") as fh:  # np.save would append ".npy" to a path without it
        np.save(fh, _surfaces_table(surfaces), allow_pickle=False)


def surfaces_from_npy(path: Path) -> PDESurfaces:
    with open(path, "rb") as fh:  # an .npz loads lazily from the open file: closed here
        data = np.load(fh, allow_pickle=False)
        if not (isinstance(data, np.ndarray) and data.dtype == np.float64 and data.ndim == 2
                and data.shape[1] == len(_SURFACE_COLUMNS)):
            found = f"{data.dtype} {data.shape}" if isinstance(data, np.ndarray) else type(data).__name__
            raise ValueError(f"need one float64 array of shape (cells, {len(_SURFACE_COLUMNS)}), "
                             f"found {found}")
    return _surfaces_from_table(data)


def _distinct(column: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a column, as np.unique gives them; np.unique imports numpy.ma."""
    values = np.sort(column)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _surfaces_from_table(data: np.ndarray) -> PDESurfaces:
    """Surfaces from a (cells, 9) table of ``_SURFACE_COLUMNS``, as either reader found it."""
    grid = PDEGrid(*(_distinct(data[:, i]) for i in range(3)))
    shape = grid.shape
    # every cell exactly once, in the order the writers write them
    if data.shape[0] != np.prod(shape) or not all(
        np.array_equal(data[:, i].reshape(shape), np.broadcast_to(axis, shape))
        for i, axis in enumerate(_axes(grid))
    ):
        raise ValueError("rows are not the t, pi, x grid in order, each cell once")
    # the value and flag columns as views shaped like the grid: u0, u1, v, in_S0, in_S1, in_S
    values, flags = np.split(np.moveaxis(data[:, 3:].reshape(*shape, -1), -1, 0), 2)
    if not np.isfinite(values).all():
        raise ValueError("u0, u1 and v must be finite")
    if not np.isin(flags, (0.0, 1.0)).all():
        raise ValueError("stopping-set flags must be 0 or 1")
    return PDESurfaces(grid, values[:2], values[2], flags[:2].astype(bool), flags[2].astype(bool))


def _write_per_path_csv(path: Path, meta: dict, t: np.ndarray, **columns: np.ndarray) -> None:
    """Write a ``path_id,t,<columns>`` table, one row per path and step, each column (paths, steps),
    a path's lines at a time: the memory it takes does not grow with the number of paths."""
    # the t column is formatted once for the table and each path id once for
    # its path, the other columns a path at a time
    t_text = list(_text(t))
    with open(path, "w") as fh:
        fh.write("\n".join(_csv_head(meta, ("path_id", "t", *columns))) + "\n")
        for pid, rows in enumerate(zip(*columns.values())):
            fh.write("\n".join(_csv_lines([repr(pid)] * t.size, t_text, *rows)) + "\n")


def paths_csv(path: Path, bundle, meta: dict) -> None:
    # the drawn regime, if any, repeated along each path
    regime = {} if bundle.regime is None else {
        "J": np.broadcast_to(bundle.regime[:, None], bundle.x.shape)}
    _write_per_path_csv(path, meta, bundle.t, X=bundle.x, psi=bundle.psi, **regime)


def trajectories_csv(path: Path, traj, meta: dict) -> None:
    _write_per_path_csv(path, meta, traj.t, X=traj.x, psi=traj.psi, p=traj.p,
                        **{f"xi{k}": xi for k, xi in enumerate(traj.xi)}, zeta=traj.zeta)
