"""Brute-force equilibrium oracle for scenario games.

Enumerates every pure adapted stopping rule on the tree, forms the zero-sum
payoff matrix (informed rows are *pairs* of rules, one per regime; uninformed
columns are single rules) and solves the matrix game exactly by linear
programming.  The resulting mixed strategies convert into generating
processes, giving ground truth for all martingale/support/certificate checks.

The pair payoff A[(t0,t1), s] = (1-prior) B0[t0,s] + prior B1[t1,s] is
additively separable across regimes, so mixing over pairs is payoff-equivalent
to mixing the marginals: the production solver works in marginal space
(2R+1 LP variables instead of R^2) while ``build_matrix``/``solve_zero_sum``
keep the explicit pair form for cross-checks.  Both forms go through one LP
routine, min v s.t. sum_k w_k B_k^T mu_k <= v over k row mixes: the pair form
is k = 1 with weight 1, the marginal form k = 2 with the prior weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .core import FiltrationTree, GeneratingProcess, StoppingRule, flow_value, payoff_flows
from .scenario import ScenarioGame, StrategyProfile

__all__ = [
    "EnumerationCapExceeded",
    "NumericalFailure",
    "RuleSet",
    "GameMatrix",
    "MixedSolution",
    "ScenarioSolution",
    "count_stopping_rules",
    "enumerate_stopping_rules",
    "regime_matrices",
    "build_matrix",
    "solve_zero_sum",
    "pure_gap",
    "mixture_to_generating",
    "solve_scenario",
]

DEFAULT_CAP = 20_000
GAP_TOL = 1e-9
# 1e-10 is the tightest feasibility tolerance HiGHS accepts
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class EnumerationCapExceeded(RuntimeError):
    """The adapted-rule count exceeds the configured cap."""


class NumericalFailure(RuntimeError):
    """The LP failed to close the duality gap within the retry budget."""


@dataclass(frozen=True)
class RuleSet:
    """All pure adapted stopping rules of a tree, in matrix form.

    ``stop_matrix[r, n]`` is 1 where rule r stops at node n and
    ``level_matrix[r, n]`` is 1 where the path to n contains r's stop node
    (i.e. the rule's single-jump generating process evaluated at n).
    """

    rules: tuple[StoppingRule, ...]
    stop_matrix: np.ndarray
    level_matrix: np.ndarray

    def __len__(self) -> int:
        return len(self.rules)


def count_stopping_rules(tree: FiltrationTree) -> int:
    """Exact number of adapted rules: 1 at leaves, 1 + prod over children."""
    counts = [0] * tree.n_nodes
    for node in range(tree.n_nodes - 1, -1, -1):
        kids = tree.children[node]
        if kids.size == 0:
            counts[node] = 1
        else:
            prod = 1
            for k in kids:
                prod *= counts[k]
            counts[node] = 1 + prod
    return counts[0]


def enumerate_stopping_rules(tree: FiltrationTree, cap: int = DEFAULT_CAP) -> RuleSet:
    """Depth-first enumeration of all adapted rules, guarded by ``cap``."""
    total = count_stopping_rules(tree)
    if total > cap:
        raise EnumerationCapExceeded(f"{total} rules exceed the cap of {cap}")

    def rules_at(node: int) -> list[frozenset[int]]:
        kids = tree.children[node]
        if kids.size == 0:
            return [frozenset((node,))]
        combos: list[frozenset[int]] = [frozenset()]
        for k in kids:
            combos = [c | r for c in combos for r in rules_at(int(k))]
        return [frozenset((node,))] + combos

    stop_sets = rules_at(0)
    n = tree.n_nodes
    stop = np.zeros((len(stop_sets), n))
    for r, s in enumerate(stop_sets):
        stop[r, list(s)] = 1.0
    rules = tuple(StoppingRule(stop[r].astype(bool)) for r in range(len(stop_sets)))
    return RuleSet(rules, stop, tree.scan(stop, np.maximum))


def regime_matrices(game: ScenarioGame, rules: RuleSet) -> tuple[np.ndarray, np.ndarray]:
    """Exact pure-vs-pure payoff matrices B_i[tau, sigma], one per regime."""
    pay = game.payoffs
    S, L = rules.stop_matrix, rules.level_matrix
    out = []
    for i in range(2):
        stop, run = payoff_flows(pay.f[i], pay.g[i], pay.h[i], L, S)
        out.append(flow_value(game.tree.reach, stop, run, L, S))
    return out[0], out[1]


@dataclass(frozen=True)
class GameMatrix:
    """Pair-row payoff matrix: rows are (tau0, tau1) pairs, columns sigma."""

    a: np.ndarray
    row_pairs: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a.shape[1]


def build_matrix(
    game: ScenarioGame, rules: RuleSet, max_entries: int = 50_000_000
) -> GameMatrix:
    """Materialize the pair-indexed matrix (small games; tests and dumps)."""
    b0, b1 = regime_matrices(game, rules)
    r = len(rules)
    if r * r * b0.shape[1] > max_entries:
        raise EnumerationCapExceeded(
            f"pair matrix would have {r * r * b0.shape[1]} entries; use solve_scenario"
        )
    w0, w1 = 1.0 - game.prior, game.prior
    pairs = np.stack(np.meshgrid(np.arange(r), np.arange(r), indexing="ij"), axis=-1).reshape(-1, 2)
    a = w0 * b0[pairs[:, 0]] + w1 * b1[pairs[:, 1]]
    return GameMatrix(a, pairs)


@dataclass(frozen=True)
class MixedSolution:
    """Value and optimal mixes of a finite zero-sum matrix game."""

    value: float
    row_mix: np.ndarray
    col_mix: np.ndarray
    gap: float


def _clean_mix(x: np.ndarray) -> np.ndarray:
    # zero out basis-solve noise: vertex solutions have exact zeros, and a
    # ghost weight of 1e-12 keeps spurious survival mass alive downstream
    x = np.where(x < 1e-10, 0.0, x)
    s = x.sum()
    if s <= 0.0:
        raise NumericalFailure("degenerate mix returned by the LP")
    return x / s


def _solve_mixes(blocks: list[np.ndarray], weights, gap_tol: float):
    """Solve min v s.t. sum_k w_k B_k^T mu_k <= v, each mu_k a distribution.

    HiGHS dual simplex; the column mix is read off the inequality duals.  One
    re-solve with presolve off refines the solution if the recomputed gap is
    not closed.  Returns (value, [mu_k], column mix, gap).
    """
    edges = np.cumsum([0] + [b.shape[0] for b in blocks])
    spans = list(zip(edges[:-1], edges[1:]))
    n_vars, n_cols = int(edges[-1]) + 1, blocks[0].shape[1]
    c = np.zeros(n_vars)
    c[-1] = 1.0
    a_ub = np.hstack([w * b.T for w, b in zip(weights, blocks)] + [-np.ones((n_cols, 1))])
    a_eq = np.zeros((len(blocks), n_vars))
    for k, (lo, hi) in enumerate(spans):
        a_eq[k, lo:hi] = 1.0
    for presolve in (True, False):
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=np.zeros(n_cols),
            A_eq=a_eq,
            b_eq=np.ones(len(blocks)),
            bounds=[(0, None)] * (n_vars - 1) + [(None, None)],
            method="highs-ds",
            options=dict(_LP_OPTIONS, presolve=presolve),
        )
        if not res.success:
            raise NumericalFailure(f"LP solver failed: {res.message}")
        mixes = [_clean_mix(res.x[lo:hi]) for lo, hi in spans]
        col_mix = _clean_mix(-res.ineqlin.marginals)
        upper = float(sum(w * (mu @ b) for w, mu, b in zip(weights, mixes, blocks)).max())
        lower = float(sum(w * (b @ col_mix).min() for w, b in zip(weights, blocks)))
        gap = abs(upper - lower)
        if gap <= gap_tol:
            return float(res.x[-1]), mixes, col_mix, gap
    raise NumericalFailure(f"duality gap {gap} above {gap_tol}")


def solve_zero_sum(a: np.ndarray, gap_tol: float = GAP_TOL) -> MixedSolution:
    """Exact minimax of a matrix game; the row player minimizes.

    Solves min v s.t. A^T mu <= v, sum mu = 1 (see ``_solve_mixes``).
    """
    value, (row_mix,), col_mix, gap = _solve_mixes([np.asarray(a, dtype=float)], [1.0], gap_tol)
    return MixedSolution(value, row_mix, col_mix, gap)


def pure_gap(a: np.ndarray) -> tuple[float, float, float]:
    """Pure minimax gap: (min-max, max-min, difference >= 0)."""
    a = np.asarray(a, dtype=float)
    upper = float(a.max(axis=1).min())
    lower = float(a.min(axis=0).max())
    return upper, lower, upper - lower


def mixture_to_generating(
    weights: np.ndarray, rules: RuleSet, tree: FiltrationTree
) -> GeneratingProcess:
    """CDF of a mixture of pure rules: level = sum_k w_k 1{rule k stopped}."""
    w = _clean_mix(np.asarray(weights, dtype=float))
    levels = w @ rules.level_matrix
    levels = np.clip(levels, 0.0, 1.0)
    levels[tree.leaves] = 1.0
    return GeneratingProcess.from_levels(levels, tree)


@dataclass(frozen=True)
class ScenarioSolution:
    """Equilibrium of a scenario game from the marginal-space LP."""

    value: float
    row_mix0: np.ndarray
    row_mix1: np.ndarray
    col_mix: np.ndarray
    gap: float
    rules: RuleSet

    def profile(self, tree: FiltrationTree) -> StrategyProfile:
        return StrategyProfile(
            xi0=mixture_to_generating(self.row_mix0, self.rules, tree),
            xi1=mixture_to_generating(self.row_mix1, self.rules, tree),
            zeta=mixture_to_generating(self.col_mix, self.rules, tree),
        )


def solve_scenario(
    game: ScenarioGame, cap: int = DEFAULT_CAP, gap_tol: float = GAP_TOL
) -> ScenarioSolution:
    """Equilibrium oracle: enumerate rules, solve the LP, report the gap.

    The informed player's pair-mix is replaced by its per-regime marginals
    (payoff-equivalent by separability); the reported gap is still measured
    against best responses in the full pair space.
    """
    rules = enumerate_stopping_rules(game.tree, cap)
    b0, b1 = regime_matrices(game, rules)
    value, (mu0, mu1), nu, gap = _solve_mixes([b0, b1], game.weights, gap_tol)
    return ScenarioSolution(value, mu0, mu1, nu, gap, rules)
