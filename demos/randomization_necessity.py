"""Why randomized stopping is unavoidable under asymmetric information.

Loads the shipped witness game (found by randomized search over small
instances) and shows that pure strategies leave a minimax gap of about 0.25
while mixing closes it to numerical zero.  The informed player's regime-0
incarnation and the uninformed player both genuinely randomize.

Run:  python3 demos/randomization_necessity.py
"""

import json
from pathlib import Path

import numpy as np

from asymdynkin import gameio
from asymdynkin.oracle import build_matrix, enumerate_stopping_rules, pure_gap, solve_scenario

np.set_printoptions(precision=4, suppress=True)

witness_path = Path(__file__).parent.parent / "tests" / "data" / "randomization_witness.json"
game = gameio.game_from_dict(json.loads(witness_path.read_text()))
print(f"witness game: {game.tree.n_steps}-step tree, prior = {game.prior}")
print("payoffs (f / h / g) per regime and node:")
for i in range(2):
    print(f"  regime {i}: f = {game.payoffs.f[i]}")
    print(f"            h = {game.payoffs.h[i]}")
    print(f"            g = {game.payoffs.g[i]}")

rules = enumerate_stopping_rules(game.tree)
matrix = build_matrix(game, rules)
upper, lower, gap = pure_gap(matrix)
print(f"\npure strategies: min-max = {upper:.6f}, max-min = {lower:.6f}, "
      f"gap = {gap:.6f}")

solution = solve_scenario(game)
print(f"randomized value = {solution.value:.6f}, duality gap = {solution.gap:.2e}")

print("\noptimal mixes over pure stopping rules:")
print(f"  informed, regime 0: {solution.row_mix0}")
print(f"  informed, regime 1: {solution.row_mix1}")
print(f"  uninformed:         {solution.col_mix}")

profile = solution.profile(game.tree)
print("\nas generating processes (CDF level per node):")
print(f"  xi0  = {profile.xi0.levels}")
print(f"  xi1  = {profile.xi1.levels}")
print(f"  zeta = {profile.zeta.levels}")
print("\nthe regime-0 incarnation hides behind partial stopping: a pure rule"
      "\nwould reveal the regime through inaction and be exploited.")
