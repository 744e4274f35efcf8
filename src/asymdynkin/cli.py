"""Batch front-end: oracle -> verify pipelines and the dynamics toolchain.

Exit codes: 0 success/certified, 1 certification rejected, 2 malformed
input, 4 PDE non-convergence, 5 LP numerical failure (the equilibrium LP
failed or left a duality gap); 3, once "enumeration cap exceeded", is retired.
No command enumerates pure rules: the ``oracle`` LP and every ``verify`` check
work on the tree's nodes, and neither draws a random number.  Each command or
``dynamics`` action takes only the options it reads, and every artifact embeds
them with the command; all randomness flows through --seed, so identical
invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import gameio
from .core import PayoffTriple, RandomDevice
from .dynamics import (
    NoConvergence,
    PDEGrid,
    extract_strategies,
    mc_verify_sufficiency,
    pde_solve_system,
    simulate_filter_paths,
    simulate_regime_paths,
)
from .dynamics.model import expression_field, model_from_dict
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


@contextmanager
def _reading(kind: str):
    """Report what reading ``kind`` raises on malformed input as an InputError (exit 2).

    An absent key is a missing field; a bad value, a wrong type or index, an
    overflow, nesting too deep to recurse into, or a truncated file (np.load
    raises EOFError on an empty one) is ``<kind>: <message>``.
    """
    try:
        yield
    except json.JSONDecodeError as exc:
        raise InputError(f"{kind}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except KeyError as exc:
        raise InputError(f"{kind}: missing field {exc.args[0]!r}")
    except (ValueError, TypeError, IndexError, OverflowError, RecursionError, EOFError) as exc:
        raise InputError(f"{kind}: {exc}")


def _load_json(path: str, kind: str, parse=lambda data: data):
    """``parse`` of the JSON document at ``path``, read as ``kind``."""
    p = Path(path)
    if not p.is_file():
        raise InputError(f"{kind}: file not found: {path}")
    with _reading(kind):
        return parse(json.loads(p.read_text()))


def _check_options(args) -> None:
    """Finite non-negative tolerances, --alpha in (0, 1), --seed in [0, 2**64), --paths >= 1."""
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
    if getattr(args, "paths", 1) < 1:
        raise InputError("paths: need at least one path")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_oracle(args) -> int:
    game = _load_json(args.game, "game", gameio.game_from_dict)
    out = _out_dir(args)
    sol = solve_scenario(game)
    payload = gameio.equilibrium_to_dict(sol.profile(game.tree), sol.value, sol.surfaces)
    payload["gap"] = sol.gap
    payload["lp"] = dataclasses.asdict(sol.lp)
    payload["config"] = vars(args)
    gameio.write_json(out / "equilibrium.json", payload)
    print(f"oracle: value={sol.value!r} gap={sol.gap:.3e}")
    return 0


def cmd_verify(args) -> int:
    game = _load_json(args.game, "game", gameio.game_from_dict)
    data = _load_json(args.equilibrium, "equilibrium")
    with _reading("equilibrium"):
        profile, value = gameio.equilibrium_from_dict(data, game)
        profile.validate(game.tree)

    out = _out_dir(args)
    surfaces = best_response_values(game, profile)
    mrep = martingale_report(game, profile, surfaces, tol=args.tol)
    srep = support_report(game, profile, surfaces)
    cert_m = certify_mart(game, profile, surfaces, tol=args.tol)
    cert_s = certify_stop(game, profile, surfaces=surfaces, tol=args.tol)
    ex_ante = ex_ante_residuals(game, profile, surfaces).tolist()
    cfg = vars(args)

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


def _pde_grid(spec: str, model) -> PDEGrid:
    with _reading("grid"):
        tokens = spec.lower().split("x")
        if len(tokens) != 3 or not all(tok.strip().isdigit() for tok in tokens):
            raise ValueError(f"expected MtxMpixMx, got {spec!r}")
        return PDEGrid.regular(model.horizon, model.domain, *map(int, tokens))


def _payoff_callables(data: dict, model):
    """f, g and h as functions of (t, x) that do not depend on t.

    On the model's sample points they must pass the tree pipeline's payoff
    rule, ``PayoffTriple.check_order``.
    """
    missing = [k for k in ("f", "g", "h") if k not in data]
    if missing:
        raise InputError(f"model: missing payoff field {missing[0]!r} (needed for pde/verify)")
    with _reading("model: payoff expression"):
        exprs = [expression_field(data, k) for k in ("f", "g", "h")]
    xs = model.sample_points()
    with _reading("model"), np.errstate(all="ignore"):  # inf - inf is non-finite, not a warning
        PayoffTriple(*(e(xs) for e in exprs)).check_order()
    return [lambda t, x, e=e: e(x) + 0.0 * np.asarray(t) for e in exprs]


def _open_dynamics(args):
    """The model, its JSON and the created --out of an action; a --dt must divide T."""
    model, data = _load_json(args.model, "model", lambda data: (model_from_dict(data), data))
    if hasattr(args, "dt"):
        with _reading("dt"):
            _time_axis(model, args.dt)
    return model, data, _out_dir(args)


def _read_strategies(out: Path, model, dt: float):
    """The strategy map of ``out``'s surfaces for ``model``; surfaces solved for another
    horizon or domain are malformed."""
    surf_path = out / "surfaces.npy"
    if not surf_path.is_file():
        raise InputError(f"surfaces: {surf_path} not found (run 'dynamics pde' first)")
    with _reading("surfaces"):
        return extract_strategies(gameio.surfaces_from_npy(surf_path), model, dt)


def cmd_simulate(args) -> int:
    model, _, out = _open_dynamics(args)
    sim = simulate_regime_paths if args.conditional else simulate_filter_paths
    bundle = sim(model, args.paths, args.dt, RandomDevice(seed=args.seed))
    gameio.paths_csv(out / "paths.csv", bundle, vars(args))
    gameio.write_json(out / "paths_meta.json",
                      {"exited": int(bundle.exited.sum()), "config": vars(args)})
    print(f"simulate: {args.paths} paths, {bundle.t.size - 1} steps, "
          f"exited={int(bundle.exited.sum())}")
    return 0


def cmd_pde(args) -> int:
    model, data, out = _open_dynamics(args)
    f, g, h = _payoff_callables(data, model)
    grid = _pde_grid(args.grid, model)
    surfaces = pde_solve_system(model, f, g, h, grid)
    gameio.write_surfaces_npy(out / "surfaces.npy", surfaces)
    gameio.write_json(out / "pde_meta.json",
                      {"identity_residual": surfaces.identity_residual,
                       **dataclasses.asdict(surfaces.stats), "config": vars(args)})
    print(f"pde: grid {'x'.join(map(str, grid.shape))}, identity residual "
          f"{surfaces.identity_residual:.3e}")
    return 0


def cmd_extract(args) -> int:
    model, _, out = _open_dynamics(args)
    strategies = _read_strategies(out, model, args.dt)
    bundle = simulate_regime_paths(model, args.paths, args.dt, RandomDevice(seed=args.seed))
    traj = strategies.evaluate(bundle.x, psi=bundle.psi)
    gameio.trajectories_csv(out / "trajectories.csv", traj, vars(args))
    gameio.write_json(out / "extract_meta.json", {"config": vars(args)})
    print(f"extract: {args.paths} strategy trajectories written")
    return 0


def cmd_dynamics_verify(args) -> int:
    model, data, out = _open_dynamics(args)
    strategies = _read_strategies(out, model, args.dt)
    f, g, h = _payoff_callables(data, model)
    report = mc_verify_sufficiency(
        strategies, n=args.paths, alpha=args.alpha, tol=args.vtol,
        device=RandomDevice(seed=args.seed), f=f, g=g, h=h,
    )
    gameio.write_json(out / "verify_report.json", {"report": report, "config": vars(args)})
    print("dynamics verify: " + ("all conditions passed" if report["all_passed"]
                                 else "some conditions FAILED"))
    return 0 if report["all_passed"] else 1


# each dynamics action: its command and the options it reads between --model and --out
_DYNAMICS_ACTIONS = {
    "simulate": (cmd_simulate, ("dt", "paths", "seed", "conditional")),
    "pde": (cmd_pde, ("grid",)),
    "extract": (cmd_extract, ("dt", "paths", "seed")),
    "verify": (cmd_dynamics_verify, ("dt", "paths", "seed", "vtol", "alpha")),
}
_OPTION_SPECS = {
    "grid": dict(default="41x11x81"),
    "dt": dict(type=float, default=1e-2),
    "paths": dict(type=int, default=1000),
    "seed": dict(type=int, default=0),
    "vtol": dict(type=float, default=5e-2, help="surface-level tolerance of the MC verification"),
    "alpha": dict(type=float, default=0.05),
    "conditional": dict(action="store_true", help="simulate conditionally on a drawn regime"),
}


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
    p_oracle.set_defaults(run=cmd_oracle)

    p_verify = sub.add_parser("verify", help="run reports and certificates on an equilibrium")
    p_verify.add_argument("--game", required=True)
    p_verify.add_argument("--equilibrium", required=True)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--out", required=True)
    p_verify.set_defaults(run=cmd_verify)

    p_dyn = sub.add_parser("dynamics", help="simulate / pde / extract / verify")
    actions = p_dyn.add_subparsers(required=True)
    for action, (run, options) in _DYNAMICS_ACTIONS.items():
        p_action = actions.add_parser(action)
        p_action.add_argument("--model", required=True)
        for name in options:
            p_action.add_argument(f"--{name}", **_OPTION_SPECS[name])
        p_action.add_argument("--out", required=True)
        p_action.set_defaults(run=run, command=f"dynamics {action}")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    run = args.run
    # what is left is the run record that every artifact embeds: the command
    # and the options it parsed
    del args.run
    try:
        _check_options(args)
        return run(args)
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
