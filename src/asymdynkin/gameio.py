"""JSON/CSV schemas for games, equilibria, reports and PDE surfaces.

All writers are byte-deterministic: keys are sorted, floats use shortest
round-trip repr, and no timestamps or environment data leak into artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import FiltrationTree, GeneratingProcess, PayoffTriple, TimeGrid
from .dynamics.pde import PDEGrid, PDESurfaces, identity_residual
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
    "paths_csv",
    "trajectories_csv",
]


def _floats(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


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
    path = Path(path)
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


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
    for n in range(game.tree.n_nodes):
        vals = [
            surfaces.p[n], surfaces.u[0, n], surfaces.u[1, n], surfaces.v[n],
            support.z[0, n], support.z[1, n], support.y2[n],
        ]
        lines.append(str(n) + "," + ",".join(repr(float(v)) for v in vals))
    return "\n".join(lines) + "\n"


def _meta_lines(meta: dict) -> list[str]:
    return [f"# {k}={meta[k]!r}" for k in sorted(meta)]


def surfaces_csv(surfaces: PDESurfaces, meta: dict) -> str:
    grid = surfaces.grid
    lines = _meta_lines(meta)
    lines.append("t,pi,x,u0,u1,v,in_S0,in_S1,in_S")
    for it, t in enumerate(grid.t):
        for ip, p in enumerate(grid.pi):
            for ix, x in enumerate(grid.x):
                lines.append(
                    ",".join(
                        [repr(float(t)), repr(float(p)), repr(float(x)),
                         repr(float(surfaces.u0[it, ip, ix])),
                         repr(float(surfaces.u1[it, ip, ix])),
                         repr(float(surfaces.v[it, ip, ix])),
                         str(int(surfaces.in_s0[it, ip, ix])),
                         str(int(surfaces.in_s1[it, ip, ix])),
                         str(int(surfaces.in_s[it, ip, ix]))]
                    )
                )
    return "\n".join(lines) + "\n"


def surfaces_from_csv(text: str) -> PDESurfaces:
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = rows[0].split(",")
    if header[:3] != ["t", "pi", "x"]:
        raise ValueError("surfaces CSV: unexpected header")
    data = np.array([[float(v) for v in ln.split(",")] for ln in rows[1:]])
    t = np.unique(data[:, 0])
    pi = np.unique(data[:, 1])
    x = np.unique(data[:, 2])
    grid = PDEGrid(t, pi, x)
    shape = grid.shape
    cols = {name: data[:, i].reshape(shape) for i, name in enumerate(header)}
    u0, u1, v = cols["u0"], cols["u1"], cols["v"]
    masks = [cols[name].astype(bool) for name in ("in_S0", "in_S1", "in_S")]
    return PDESurfaces(grid, u0, u1, v, *masks, identity_residual(pi, u0, u1, v, *masks))


def paths_csv(bundle, meta: dict) -> str:
    lines = _meta_lines(meta)
    with_regime = bundle.regime is not None
    lines.append("path_id,t,X,psi" + (",J" if with_regime else ""))
    for pid in range(bundle.n_paths):
        for k, t in enumerate(bundle.t):
            row = [str(pid), repr(float(t)), repr(float(bundle.x[pid, k])), repr(float(bundle.psi[pid, k]))]
            if with_regime:
                row.append(str(int(bundle.regime[pid])))
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trajectories_csv(traj, meta: dict) -> str:
    lines = _meta_lines(meta)
    lines.append("path_id,t,X,psi,p,xi0,xi1,zeta")
    n = traj.x.shape[0]
    for pid in range(n):
        for k, t in enumerate(traj.t):
            lines.append(
                ",".join(
                    [str(pid), repr(float(t)), repr(float(traj.x[pid, k])),
                     repr(float(traj.psi[pid, k])), repr(float(traj.p[pid, k])),
                     repr(float(traj.xi0[pid, k])), repr(float(traj.xi1[pid, k])),
                     repr(float(traj.zeta[pid, k]))]
                )
            )
    return "\n".join(lines) + "\n"
