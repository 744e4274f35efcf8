"""Batch front-end: oracle -> verify pipelines and the dynamics toolchain.

Exit codes: 0 success/certified, 1 certification rejected, 2 malformed
input, 4 PDE non-convergence, 5 LP numerical failure (the equilibrium LP
failed or left a duality gap); 3, once "enumeration cap exceeded", is retired.
No command enumerates pure rules: the ``oracle`` LP and every ``verify`` check
work on the tree's nodes, and neither draws a random number.  All randomness
flows through the ``dynamics`` commands' --seed and every artifact embeds its
run configuration, so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import gameio
from .core import RandomDevice
from .dynamics import (
    NoConvergence,
    PDEGrid,
    extract_strategies,
    mc_verify_sufficiency,
    pde_solve_system,
    simulate_filter_paths,
    simulate_regime_paths,
)
from .dynamics.model import model_from_dict, parse_expression
from .dynamics.simulate import _time_axis
from .oracle import NumericalFailure, solve_scenario
from .scenario import (
    best_response_values,
    certify_mart,
    certify_stop,
    ex_ante_check,  # unused here: kept for profilers that wrap cli.ex_ante_check by name
    ex_ante_residuals,
    martingale_report,
    support_report,
)

__all__ = ["main"]


class InputError(ValueError):
    """Malformed configuration or input file (exit code 2)."""


def _load_json(path: str, kind: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise InputError(f"{kind}: file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{kind}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _load_game(path: str):
    data = _load_json(path, "game")
    try:
        return gameio.game_from_dict(data)
    except KeyError as exc:
        raise InputError(f"game: missing field {exc.args[0]!r}")
    except (ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"game: {exc}")


def _base_config(args, command: str) -> dict:
    cfg = {"command": command}
    for key in ("game", "equilibrium", "model", "out", "seed", "tol", "vtol",
                "grid", "dt", "paths", "alpha", "conditional"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def _check_options(args) -> None:
    """Tolerances finite and non-negative, --alpha in (0, 1), a --seed in [0, 2**64)."""
    for key in ("tol", "vtol"):
        value = getattr(args, key, 0.0)
        if not (np.isfinite(value) and value >= 0.0):
            raise InputError(f"{key}: need a finite non-negative number, got {value!r}")
    alpha = getattr(args, "alpha", 0.5)
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha: need a level in (0, 1), got {alpha!r}")
    seed = getattr(args, "seed", 0)
    if not 0 <= seed < 2**64:
        raise InputError(f"seed: need an integer in [0, 2**64), got {seed}")


def cmd_oracle(args) -> int:
    game = _load_game(args.game)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sol = solve_scenario(game)
    payload = gameio.equilibrium_to_dict(sol.profile(game.tree), sol.value, sol.surfaces)
    payload["gap"] = sol.gap
    payload["lp"] = dataclasses.asdict(sol.lp)
    payload["config"] = _base_config(args, "oracle")
    gameio.write_json(out / "equilibrium.json", payload)
    print(f"oracle: value={sol.value!r} gap={sol.gap:.3e}")
    return 0


def cmd_verify(args) -> int:
    game = _load_game(args.game)
    data = _load_json(args.equilibrium, "equilibrium")
    try:
        profile, value = gameio.equilibrium_from_dict(data, game.tree)
    except KeyError as exc:
        raise InputError(f"equilibrium: missing field {exc.args[0]!r}")
    except Exception as exc:
        raise InputError(f"equilibrium: {exc}")
    for name in ("xi0", "xi1", "zeta"):
        if len(data[name]) != game.tree.n_nodes:
            raise InputError(f"equilibrium: {name} has {len(data[name])} levels for "
                             f"{game.tree.n_nodes} tree nodes")
    try:
        profile.validate(game.tree)
    except ValueError as exc:
        raise InputError(f"equilibrium: {exc}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    surfaces = best_response_values(game, profile)
    mrep = martingale_report(game, profile, surfaces, tol=args.tol)
    srep = support_report(game, profile, surfaces)
    cert_m = certify_mart(game, profile, surfaces, tol=args.tol)
    cert_s = certify_stop(game, profile, surfaces=surfaces, tol=args.tol)
    ex_ante = ex_ante_residuals(game, profile, surfaces).tolist()
    cfg = _base_config(args, "verify")

    gameio.write_json(out / "martingale_report.json",
                      dict(gameio.martingale_report_to_dict(mrep), config=cfg))
    gameio.write_json(out / "support_report.json",
                      dict(gameio.support_report_to_dict(srep), config=cfg))
    gameio.write_json(out / "ex_ante.json", {"residuals": ex_ante, "config": cfg})
    gameio.write_json(
        out / "certificates.json",
        {
            "martingale": gameio.certificate_to_dict(cert_m),
            "stopping": gameio.certificate_to_dict(cert_s),
            "declared_value": value,
            "config": cfg,
        },
    )
    (out / "nodes.csv").write_text(gameio.nodes_csv(game, surfaces, srep))

    certified = cert_m.certified and cert_s.certified
    print(
        f"verify: martingale={cert_m.verdict} stopping={cert_s.verdict} "
        f"value={cert_m.value!r} declared={value!r}"
    )
    if not certified:
        worst = sorted(cert_m.violations + cert_s.violations, key=lambda v: -abs(v[2]))[:10]
        for cond, idx, res in worst:
            print(f"  violated {cond} at index {idx}: residual {res:.3e}")
    return 0 if certified else 1


def _parse_grid(spec: str) -> tuple[int, int, int]:
    try:
        mt, mpi, mx = (int(tok) for tok in spec.lower().split("x"))
        return mt, mpi, mx
    except Exception:
        raise InputError(f"grid: expected MtxMpixMx, got {spec!r}")


def _load_model(path: str):
    data = _load_json(path, "model")
    for field in ("mu0", "mu1", "sigma", "x0", "pi", "T", "domain"):
        if field not in data:
            raise InputError(f"model: missing field {field!r}")
    try:
        return model_from_dict(data), data
    except (ValueError, TypeError, IndexError, OverflowError) as exc:
        raise InputError(f"model: {exc}")


def _payoff_callables(data: dict):
    missing = [k for k in ("f", "g", "h") if k not in data]
    if missing:
        raise InputError(f"model: missing payoff field {missing[0]!r} (needed for pde/verify)")
    try:
        fs = {k: parse_expression(data[k]) for k in ("f", "g", "h")}
    except (ValueError, TypeError) as exc:
        raise InputError(f"model: payoff expression: {exc}")
    return (
        lambda t, x: fs["f"](x) + 0.0 * np.asarray(t),
        lambda t, x: fs["g"](x) + 0.0 * np.asarray(t),
        lambda t, x: fs["h"](x) + 0.0 * np.asarray(t),
    )


def cmd_dynamics(args) -> int:
    model, data = _load_model(args.model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _base_config(args, f"dynamics {args.action}")
    meta = {"seed": args.seed, "dt": args.dt, "grid": args.grid}
    if args.action != "pde":
        try:
            _time_axis(model, args.dt)
        except ValueError as exc:
            raise InputError(f"dt: {exc}")
        if args.paths < 1:
            raise InputError("paths: need at least one path")

    if args.action == "simulate":
        device = RandomDevice(seed=args.seed)
        sim = simulate_regime_paths if args.conditional else simulate_filter_paths
        bundle = sim(model, args.paths, args.dt, device)
        (out / "paths.csv").write_text(gameio.paths_csv(bundle, meta))
        gameio.write_json(out / "paths_meta.json",
                          {"exited": int(bundle.exited.sum()), "config": cfg})
        print(f"simulate: {args.paths} paths, {bundle.t.size - 1} steps, "
              f"exited={int(bundle.exited.sum())}")
        return 0

    if args.action == "pde":
        f, g, h = _payoff_callables(data)
        mt, mpi, mx = _parse_grid(args.grid)
        try:
            grid = PDEGrid.regular(model.horizon, model.domain, mt, mpi, mx)
        except ValueError as exc:
            raise InputError(f"grid: {exc}")
        surfaces = pde_solve_system(model, f, g, h, grid, slice_tol=args.tol)
        (out / "surfaces.csv").write_text(gameio.surfaces_csv(surfaces, meta))
        gameio.write_json(out / "pde_meta.json",
                          {"identity_residual": surfaces.identity_residual,
                           **dataclasses.asdict(surfaces.stats), "config": cfg})
        print(f"pde: grid {mt}x{mpi}x{mx}, identity residual "
              f"{surfaces.identity_residual:.3e}")
        return 0

    surf_path = out / "surfaces.csv"
    if not surf_path.exists():
        raise InputError(f"surfaces: {surf_path} not found (run 'dynamics pde' first)")
    try:
        surfaces = gameio.surfaces_from_csv(surf_path.read_text())
    except KeyError as exc:
        raise InputError(f"surfaces: missing column {exc.args[0]!r}")
    except (ValueError, IndexError) as exc:
        raise InputError(f"surfaces: {exc}")
    strategies = extract_strategies(surfaces, model, args.dt)

    if args.action == "extract":
        device = RandomDevice(seed=args.seed)
        bundle = simulate_regime_paths(model, args.paths, args.dt, device)
        traj = strategies.evaluate(bundle.x, psi=bundle.psi)
        (out / "trajectories.csv").write_text(gameio.trajectories_csv(traj, meta))
        gameio.write_json(out / "extract_meta.json", {"config": cfg})
        print(f"extract: {args.paths} strategy trajectories written")
        return 0

    if args.action == "verify":
        f, g, h = _payoff_callables(data)
        report = mc_verify_sufficiency(
            model, surfaces, strategies,
            n=args.paths, dt=args.dt, alpha=args.alpha, tol=args.vtol,
            device=RandomDevice(seed=args.seed), f=f, g=g, h=h,
        )
        gameio.write_json(out / "verify_report.json", {"report": report, "config": cfg})
        print("dynamics verify: " + ("all conditions passed" if report["all_passed"]
                                     else "some conditions FAILED"))
        return 0 if report["all_passed"] else 1

    raise InputError(f"unknown dynamics action {args.action!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymdynkin",
        description="Equilibrium oracle, certification and diffusion toolchain "
        "for stopping games with a hidden regime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_oracle = sub.add_parser("oracle", help="compute an equilibrium by the sequence-form LP")
    p_oracle.add_argument("--game", required=True)
    p_oracle.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run reports and certificates on an equilibrium")
    p_verify.add_argument("--game", required=True)
    p_verify.add_argument("--equilibrium", required=True)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--out", required=True)

    p_dyn = sub.add_parser("dynamics", help="simulate / pde / extract / verify")
    p_dyn.add_argument("action", choices=["simulate", "pde", "extract", "verify"])
    p_dyn.add_argument("--model", required=True)
    p_dyn.add_argument("--grid", default="41x11x81")
    p_dyn.add_argument("--dt", type=float, default=1e-2)
    p_dyn.add_argument("--paths", type=int, default=1000)
    p_dyn.add_argument("--seed", type=int, default=0)
    p_dyn.add_argument("--tol", type=float, default=1e-8,
                       help="slice tolerance of the pde solve")
    p_dyn.add_argument("--vtol", type=float, default=5e-2,
                       help="surface-level tolerance of the statistical verification")
    p_dyn.add_argument("--alpha", type=float, default=0.05)
    p_dyn.add_argument("--conditional", action="store_true",
                       help="simulate conditionally on a drawn regime")
    p_dyn.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_options(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_dynamics(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
