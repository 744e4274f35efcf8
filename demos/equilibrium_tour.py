"""Tour of the hidden-regime stopping game on a small tree.

Builds a random 3-step binary-tree game where the minimizer knows a binary
regime and the maximizer does not, computes the exact equilibrium with the
LP oracle, and then walks through everything the theory promises about it:
value surfaces, beliefs, martingale drifts, support slacks and the two
independent saddle-point certificates.

Run:  python3 demos/equilibrium_tour.py
"""

import numpy as np

import asymdynkin as ad
from asymdynkin.gamegen import random_profile, random_scenario_game

np.set_printoptions(precision=4, suppress=True)

# ---------------------------------------------------------------------------
# a game and its equilibrium
# ---------------------------------------------------------------------------
game = random_scenario_game(n_steps=3, seed=2024, prior=0.35)
print(f"tree: {game.tree.n_nodes} nodes, {game.tree.leaves.size} leaves, "
      f"prior P(regime=1) = {game.prior}")

solution = ad.solve_scenario(game)
print(f"\nLP oracle: value = {solution.value:.6f}, duality gap = {solution.gap:.2e}")
print(f"informed mixes over {len(solution.rules)} pure rules; "
      f"support sizes: {np.count_nonzero(solution.row_mix0 > 1e-12)} (regime 0), "
      f"{np.count_nonzero(solution.row_mix1 > 1e-12)} (regime 1), "
      f"{np.count_nonzero(solution.col_mix > 1e-12)} (uninformed)")

profile = solution.profile(game.tree)
surfaces = ad.best_response_values(game, profile)

# the root identity <prior, U_0> = V_0 is the only condition that can fail
# for best-response surfaces; at an equilibrium it closes
u0, v0 = surfaces.root_values()
print(f"\nroot values: U0 = {u0}, V0 = {v0:.6f}, "
      f"<prior, U0> - V0 = {game.weights @ u0 - v0:.2e}")

# ---------------------------------------------------------------------------
# necessary conditions, node by node
# ---------------------------------------------------------------------------
report = ad.martingale_report(game, profile, surfaces)
internal = ~game.tree.is_leaf
print("\nmartingale drifts at internal nodes:")
print(f"  informed systems : min drift {report.m0_drift[:, internal].min():+.2e} "
      f"(submartingale needs >= 0)")
print(f"  uninformed system: max drift {report.n0_drift[internal].max():+.2e} "
      f"(supermartingale needs <= 0)")
print(f"  martingale wherever the player still randomizes: "
      f"{report.m0_martingale_on_active.all() and report.n0_martingale_on_active}")

support = ad.support_report(game, profile, surfaces)
print("\nsupport structure:")
print(f"  max informed slack  (must be <= 0): {support.max_z:+.2e}")
print(f"  min uninformed slack (must be >= 0): {support.min_y2:+.2e}")
print(f"  worst flat-off residual along paths: {support.max_flat_off:.2e}")
print(f"  belief consistency |<p,U> - V| on in-play nodes: {support.max_consistency:.2e}")

residuals = ad.ex_ante_residuals(game, profile, surfaces)
print(f"  worst ex-ante linkage residual over nodes: {residuals.max():.2e}")

# any strategy the informed player could try keeps the drift non-negative
override = random_profile(game.tree, seed=7)
override_report = ad.martingale_report(
    game, profile, surfaces,
    xi_override=(override.xi0, override.xi1), zeta_override=override.zeta,
)
print(f"\nrandom override drifts: informed min {override_report.m_override_drift[:, internal].min():+.2e}, "
      f"uninformed max {override_report.n_override_drift[internal].max():+.2e}")

# ---------------------------------------------------------------------------
# sufficient conditions: two certificates
# ---------------------------------------------------------------------------
cert_m = ad.certify_mart(game, profile, surfaces)
cert_s = ad.certify_stop(game, profile, surfaces=surfaces)
print(f"\ncertificates: martingale route -> {cert_m.verdict}, "
      f"pure-deviation route -> {cert_s.verdict}")
print(f"certified value {cert_m.value:.6f} vs LP value {solution.value:.6f}")

# sanity: a deliberately damaged profile is rejected
levels = profile.zeta.levels.copy()
levels[0] = min(1.0, levels[0] + 0.25)
for m in range(1, game.tree.n_nodes):
    levels[m] = max(levels[m], levels[game.tree.parent[m]])
levels[game.tree.leaves] = 1.0
damaged = ad.StrategyProfile(profile.xi, ad.GeneratingProcess.from_levels(levels, game.tree))
damaged_surf = ad.best_response_values(game, damaged)
cert_bad = ad.certify_stop(game, damaged, surfaces=damaged_surf)
print(f"damaged profile -> {cert_bad.verdict} "
      f"({len(cert_bad.violations)} violated conditions)")
