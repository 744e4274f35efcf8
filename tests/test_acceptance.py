"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy fixtures
(200-game equilibrium battery, full-size PDE solve) are shared across
criteria and timed where the criterion carries a runtime budget.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

import asymdynkin as ad
from asymdynkin import gameio
from asymdynkin.cli import main as cli_main
from asymdynkin.core import GeneratingProcess, RandomDevice
from asymdynkin.dynamics import (
    DiffusionModel,
    PDEGrid,
    pde_solve_system,
    reference_dynkin_1d,
    simulate_filter_paths,
)
from asymdynkin.dynamics.simulate import filter_self_convergence
from asymdynkin.gamegen import random_profile, random_scenario_game
from asymdynkin.oracle import build_matrix, enumerate_stopping_rules, pure_gap, solve_scenario

from helpers import (atom_count, brute_force_expected, expected_payoff_mc, generator_check,
                     standard_test_functions)

DATA = Path(__file__).parent / "data"
PRIORS = (0.2, 0.5, 0.8)


def _battery_specs():
    # 200 games: 80 two-step, 80 three-step, 40 four-step, priors cycling
    specs = []
    for i in range(200):
        depth = 2 if i < 80 else 3 if i < 160 else 4
        specs.append((depth, PRIORS[i % 3], 1000 + i))
    return specs


@pytest.fixture(scope="module")
def battery():
    games, solutions = [], []
    t0 = time.perf_counter()
    for depth, prior, seed in _battery_specs():
        game = random_scenario_game(depth, seed=seed, prior=prior)
        games.append(game)
        solutions.append(solve_scenario(game))
    elapsed = time.perf_counter() - t0
    return games, solutions, elapsed


def _verdict(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_randomized_value_existence(battery):
    games, solutions, elapsed = battery
    worst_gap = max(s.gap for s in solutions)
    ok = worst_gap <= 1e-9 and elapsed <= 60.0
    _verdict(1, ok, f"200 games solved, worst gap {worst_gap:.2e}, {elapsed:.1f}s (<= 60s)")


def test_criterion_02_necessary_conditions(battery):
    games, solutions, _ = battery
    worst = {"m_sub": 0.0, "m_mart": 0.0, "n_sup": 0.0, "n_mart": 0.0,
             "z": -np.inf, "y2": np.inf, "flat": 0.0, "cons": 0.0}
    for game, sol in zip(games, solutions):
        prof = sol.profile(game.tree)
        surf = ad.best_response_values(game, prof)
        rep = ad.martingale_report(game, prof, surf)
        internal = ~game.tree.is_leaf
        for i in range(2):
            drift = rep.m0_drift[i]
            worst["m_sub"] = max(worst["m_sub"], float(-drift[internal].min(initial=0.0)))
            active = internal & rep.xi_active[i]
            worst["m_mart"] = max(worst["m_mart"], float(np.abs(drift[active]).max(initial=0.0)))
        worst["n_sup"] = max(worst["n_sup"], float(rep.n0_drift[internal].max(initial=0.0)))
        active = internal & rep.zeta_active
        worst["n_mart"] = max(worst["n_mart"], float(np.abs(rep.n0_drift[active]).max(initial=0.0)))
        sup = ad.support_report(game, prof, surf)
        worst["z"] = max(worst["z"], sup.max_z)
        worst["y2"] = min(worst["y2"], sup.min_y2)
        worst["flat"] = max(worst["flat"], sup.max_flat_off)
        worst["cons"] = max(worst["cons"], sup.max_consistency)
    ok = (
        worst["m_sub"] <= 1e-8 and worst["m_mart"] <= 1e-8
        and worst["n_sup"] <= 1e-8 and worst["n_mart"] <= 1e-8
        and worst["z"] <= 1e-8 and worst["y2"] >= -1e-8
        and worst["flat"] <= 1e-8 and worst["cons"] <= 1e-8
    )
    _verdict(2, ok, "drift/slack/flat-off/consistency worst residuals: "
             + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def _perturb_zeta(game, profile, mass=0.1):
    """Add stopping mass at the first interior node that can absorb it."""
    tree = game.tree
    levels = profile.zeta.levels.copy()
    target = None
    for n in range(tree.n_nodes):
        if not tree.is_leaf[n] and levels[n] <= 1.0 - mass:
            target = n
            break
    if target is None:
        return None
    levels[target] += mass
    for m in range(target + 1, tree.n_nodes):
        levels[m] = max(levels[m], levels[tree.parent[m]])
    levels[tree.leaves] = 1.0
    return ad.StrategyProfile(profile.xi, GeneratingProcess.from_levels(levels, tree))


def test_criterion_03_sufficient_conditions(battery):
    games, solutions, _ = battery
    worst_value_gap = 0.0
    material = 0
    rejected = 0
    for game, sol in zip(games, solutions):
        prof = sol.profile(game.tree)
        surf = ad.best_response_values(game, prof)
        cm = ad.certify_mart(game, prof, surf)
        cs = ad.certify_stop(game, prof, surfaces=surf)
        assert cm.certified and cs.certified, "oracle equilibrium not certified"
        worst_value_gap = max(
            worst_value_gap, abs(cm.value - sol.value), abs(cs.value - sol.value)
        )
        bad = _perturb_zeta(game, prof)
        if bad is None:
            continue
        bad_surf = ad.best_response_values(game, bad)
        changes = max(
            float(np.abs(bad_surf.u_hat[:, 0] - surf.u_hat[:, 0]).max()),
            abs(bad_surf.v_hat[0] - surf.v_hat[0]),
        )
        if changes <= 1e-9:
            continue
        material += 1
        if not (
            ad.certify_mart(game, bad, bad_surf).certified
            and ad.certify_stop(game, bad, surfaces=bad_surf).certified
        ):
            rejected += 1
    frac = rejected / material if material else 1.0
    ok = worst_value_gap <= 1e-8 and frac >= 0.95
    _verdict(3, ok, f"all 200 certified (worst value gap {worst_value_gap:.1e}); "
             f"perturbation rejected on {rejected}/{material} material games ({frac:.0%})")


def test_criterion_04_randomization_necessity_witness():
    game = gameio.game_from_dict(json.loads((DATA / "randomization_witness.json").read_text()))
    assert game.tree.n_steps <= 3
    rules = enumerate_stopping_rules(game.tree)
    matrix = build_matrix(game, rules)  # exhaustive pair enumeration
    _, _, gap = pure_gap(matrix)
    sol = solve_scenario(game)
    ok = gap >= 0.05 and sol.gap <= 1e-9
    _verdict(4, ok, f"shipped witness: pure gap {gap:.3f} (>= 0.05), "
             f"randomized gap {sol.gap:.1e} (<= 1e-9)")


def test_criterion_05_general_sub_supermartingale(battery):
    games, solutions, _ = battery
    worst_m = 0.0
    worst_n = 0.0
    for g_idx in range(20):
        game, sol = games[g_idx], solutions[g_idx]
        prof = sol.profile(game.tree)
        surf = ad.best_response_values(game, prof)
        internal = ~game.tree.is_leaf
        for k in range(50):
            override = random_profile(game.tree, seed=90_000 + 100 * g_idx + k)
            rep = ad.martingale_report(
                game, prof, surf,
                xi_override=(override.xi0, override.xi1),
                zeta_override=override.zeta,
            )
            worst_m = max(worst_m, float(-rep.m_override_drift[:, internal].min(initial=0.0)))
            worst_n = max(worst_n, float(rep.n_override_drift[internal].max(initial=0.0)))
    ok = worst_m <= 1e-8 and worst_n <= 1e-8
    _verdict(5, ok, f"1000 overrides: worst submartingale violation {worst_m:.1e}, "
             f"worst supermartingale violation {worst_n:.1e}")


def test_criterion_06_payoff_formula_equivalence():
    worst_z = 0.0
    worst_brute = 0.0
    for k in range(10):
        game = random_scenario_game(2 + k % 2, seed=500 + k, prior=PRIORS[k % 3])
        prof = random_profile(game.tree, seed=600 + k)
        exact = ad.expected_payoff_exact(
            game.tree, game.payoffs, (prof.xi0, prof.xi1), prof.zeta, prior=game.prior
        )
        est, se = expected_payoff_mc(
            game.tree, game.payoffs, (prof.xi0, prof.xi1), prof.zeta,
            n=100_000, device=RandomDevice(seed=700 + k), prior=game.prior,
        )
        worst_z = max(worst_z, abs(est - exact) / max(se, 1e-12))
        assert atom_count(game.tree, (prof.xi0, prof.xi1), prof.zeta) <= 1000
        brute = brute_force_expected(
            game.tree, game.payoffs, (prof.xi0, prof.xi1), prof.zeta, prior=game.prior
        )
        worst_brute = max(worst_brute, abs(exact - brute))
    ok = worst_z <= 4.0 and worst_brute <= 1e-12
    _verdict(6, ok, f"10 profiles: worst MC z-score {worst_z:.2f} (<= 4), "
             f"worst exact-vs-enumeration gap {worst_brute:.1e} (<= 1e-12)")


def _const(c):
    return lambda x: c * np.ones_like(np.asarray(x, dtype=float))


@pytest.fixture(scope="module")
def filter_model():
    return DiffusionModel(
        mu0=_const(-0.4), mu1=_const(0.4), sigma=_const(0.5),
        x0=0.0, prior=0.5, horizon=1.0, domain=(-4.0, 4.0),
    )


def test_criterion_07_filter_correctness(filter_model):
    t0 = time.perf_counter()
    n = 100_000
    bundle = simulate_filter_paths(filter_model, n, 1e-3, RandomDevice(seed=41))
    se = bundle.psi[:, -1].std(ddof=1) / np.sqrt(n)
    mean_gap = abs(bundle.psi[:, -1].mean() - filter_model.prior)
    in_bounds = bundle.psi.min() >= 0.0 and bundle.psi.max() <= 1.0
    rms = filter_self_convergence(filter_model, 4000, [4e-3, 2e-3, 1e-3], RandomDevice(seed=42))
    ratios = (rms[0] / rms[1], rms[1] / rms[2])
    elapsed = time.perf_counter() - t0
    ok = (
        mean_gap <= 4 * se and in_bounds
        and ratios[0] >= 1.2 and ratios[1] >= 1.2 and elapsed <= 120.0
    )
    _verdict(7, ok, f"|mean psi_T - prior| = {mean_gap:.1e} (4se = {4 * se:.1e}), "
             f"psi in [0,1]: {in_bounds}, RMS halving ratios {ratios[0]:.2f}/{ratios[1]:.2f}, "
             f"{elapsed:.0f}s (<= 120s)")


def test_criterion_08_generator_validation(filter_model):
    points = [(0.3, -0.5), (0.5, 0.2), (0.7, 0.8)]
    worst_z = 0.0
    checks = 0
    for phi in standard_test_functions():
        for mode in ("observation", "regime-0", "regime-1"):
            for idx, (p, x) in enumerate(points):
                res = generator_check(
                    filter_model, phi, p, x, mode, n=1_000_000, dt=1e-4,
                    device=RandomDevice(seed=800 + checks),
                )
                checks += 1
                if res["stderr"] > 0:
                    worst_z = max(worst_z, abs(res["discrepancy"]) / res["stderr"])
                else:
                    assert abs(res["discrepancy"]) <= 1e-12
    ok = worst_z <= 4.0
    _verdict(8, ok, f"{checks} generator probes (6 phi x 3 modes x 3 points), "
             f"worst z-score {worst_z:.2f} (<= 4)")


def test_criterion_09_pde_degenerate_reduction():
    t0 = time.perf_counter()
    model = DiffusionModel(
        mu0=_const(0.1), mu1=_const(0.1), sigma=_const(0.4),
        x0=0.0, prior=0.5, horizon=1.0, domain=(-2.0, 2.0),
    )
    f = lambda t, x: 0.5 + 0.0 * np.asarray(t) + 0.0 * np.asarray(x)
    g = lambda t, x: -0.5 + 0.0 * np.asarray(t) + 0.0 * np.asarray(x)
    h = lambda t, x: np.clip(np.asarray(x) + 0.0 * np.asarray(t), -0.5, 0.5)
    grid = PDEGrid.regular(1.0, model.domain, m_t=201, m_pi=21, m_x=201)
    surf = pde_solve_system(model, f, g, h, grid)
    pi_gap = float(np.max(np.abs(surf.v - surf.v[:, :1, :])))
    ref = reference_dynkin_1d(_const(0.1), _const(0.4), f, g, h, grid.t, grid.x)
    ref_gap = float(np.max(np.abs(surf.v[:, grid.pi.size // 2, :] - ref)))
    elapsed = time.perf_counter() - t0
    ok = (
        pi_gap <= 1e-8 and ref_gap <= 5e-2
        and surf.identity_residual <= 5e-2 and elapsed <= 600.0
    )
    _verdict(9, ok, f"201x21x201 grid: pi-independence {pi_gap:.1e} (<= 1e-8), "
             f"sup|v - reference| {ref_gap:.1e} (<= 5e-2), "
             f"identity residual {surf.identity_residual:.1e} (<= 5e-2), "
             f"{elapsed:.0f}s (<= 600s)")


def test_criterion_10_cli_determinism(tmp_path):
    game = random_scenario_game(3, seed=321, prior=0.5)
    game_path = tmp_path / "game.json"
    gameio.write_json(game_path, gameio.game_to_dict(game))
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "mu0": "-0.4", "mu1": "0.4", "sigma": "0.5",
        "x0": 0.0, "pi": 0.5, "T": 1.0, "domain": [-2.0, 2.0],
        "f": "0.6", "g": "-0.6", "h": "tanh(x)*0.5",
    }))

    def digest(d):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(d).iterdir())
        }

    commands = [
        ["oracle", "--game", str(game_path), "--out", str(tmp_path / "eq")],
        ["verify", "--game", str(game_path),
         "--equilibrium", str(tmp_path / "eq" / "equilibrium.json"),
         "--out", str(tmp_path / "ver")],
        ["dynamics", "simulate", "--model", str(model_path), "--dt", "0.01",
         "--paths", "50", "--seed", "7", "--out", str(tmp_path / "dyn")],
        ["dynamics", "pde", "--model", str(model_path), "--grid", "21x11x41",
         "--out", str(tmp_path / "dyn")],
        ["dynamics", "extract", "--model", str(model_path), "--dt", "0.05",
         "--paths", "10", "--seed", "7", "--out", str(tmp_path / "dyn")],
        ["dynamics", "verify", "--model", str(model_path), "--dt", "0.05",
         "--paths", "300", "--seed", "7", "--out", str(tmp_path / "dyn")],
    ]
    outs = [tmp_path / "eq", tmp_path / "ver", tmp_path / "dyn"]
    for argv in commands:
        assert cli_main(argv) == 0
    first = [digest(o) for o in outs]
    for argv in commands:
        assert cli_main(argv) == 0
    identical = [digest(o) == d for o, d in zip(outs, first)]
    ok = all(identical)
    _verdict(10, ok, f"re-running all CLI commands reproduced byte-identical artifacts "
             f"across {sum(len(d) for d in first)} files")
