"""Scenario-game builders used by the demos and the test batteries."""

from __future__ import annotations

import numpy as np

from .core import FiltrationTree, GeneratingProcess, PayoffTriple, binary_tree
from .scenario import ScenarioGame, StrategyProfile

__all__ = [
    "random_scenario_game",
    "dominance_game",
    "all_continue_game",
    "random_profile",
]


def random_scenario_game(
    n_steps: int,
    seed: int,
    prior: float = 0.5,
    branch_range: tuple[float, float] = (0.25, 0.75),
) -> ScenarioGame:
    """Binary-tree game with payoffs in [-1, 1] and f >= h >= g per node."""
    rng = np.random.default_rng(seed)
    tree = binary_tree(n_steps, p_up=float(rng.uniform(*branch_range)))
    vals = np.sort(rng.uniform(-1.0, 1.0, size=(2, tree.n_nodes, 3)), axis=-1)
    payoffs = PayoffTriple(f=vals[..., 2], g=vals[..., 0], h=vals[..., 1])
    return ScenarioGame(tree, payoffs, prior)


def dominance_game(prior: float = 0.5) -> tuple[ScenarioGame, StrategyProfile]:
    """2-point game where stopping immediately dominates for the maximizer.

    g at time 0 beats every later payoff, so (informed waits until the end,
    uninformed stops at 0) is a saddle in pure strategies with value
    <prior, g_0>.
    """
    tree = binary_tree(1)
    f = np.array([[2.0, 1.5, 1.6], [2.5, 1.4, 1.7]])
    h = np.array([[1.0, -0.6, -0.5], [1.2, -0.7, -0.4]])
    g = np.array([[0.5, -0.9, -0.8], [0.6, -1.0, -0.9]])
    game = ScenarioGame(tree, PayoffTriple(f=f, g=g, h=h), prior)
    wait = GeneratingProcess.jump_at_depth(1, tree)
    return game, StrategyProfile((wait,) * len(game.weights), GeneratingProcess.jump_at_depth(0, tree))


def all_continue_game(prior: float = 0.5) -> tuple[ScenarioGame, StrategyProfile]:
    """2-point game where both players prefer to wait until the horizon."""
    tree = binary_tree(1)
    f = np.array([[2.0, 1.0, 1.1], [2.1, 1.2, 1.3]])
    h = np.array([[0.5, 0.3, 0.4], [0.6, 0.35, 0.45]])
    g = np.array([[-1.0, -0.2, -0.1], [-1.1, -0.25, -0.15]])
    game = ScenarioGame(tree, PayoffTriple(f=f, g=g, h=h), prior)
    jump_end = GeneratingProcess.jump_at_depth(1, tree)
    return game, StrategyProfile((jump_end,) * len(game.weights), jump_end)


def random_profile(tree: FiltrationTree, seed: int) -> StrategyProfile:
    """Valid random profile of a two-type game, its components drawn in the order xi[0], xi[1], zeta."""
    rng = np.random.default_rng(seed)

    def one() -> GeneratingProcess:
        # each node stops a uniform share in [0, 0.6) of its parent's survival
        levels = tree.scan(rng.uniform(0.0, 0.6, tree.n_nodes), lambda pre, u: pre + (1.0 - pre) * u)
        levels[tree.leaves] = 1.0
        return GeneratingProcess.from_levels(levels, tree)

    return StrategyProfile((one(), one()), one())
