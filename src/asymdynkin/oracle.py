"""Equilibrium oracle for scenario games: one sequence-form LP.

A generating process is a realization plan (Koller, Megiddo & von Stengel
1996): its steps a >= 0 satisfy E a = 1 for the leaf x node path incidence
E.  Against the uninformed steps b the type-k payoff is bilinear,
c_k a + d_k b + a M_k b, read off the one first-to-stop flow
``core.payoff_flows``; E and M_k live on the tree's (node, ancestor-or-self)
pairs, which ``_sequence_form_lp`` reads off the tree's subtree table and
writes straight into the LP.  Dualizing the uninformed player's inner
maximum gives ``solve_scenario``'s single LP over the type axis, one plan
a_k per type k < K and the prior weights w = ``game.weights``,

    min over (a_0, ..., a_{K-1}, y)  sum_k w_k c_k a_k + 1 y
    subject to                       E^T y - sum_k w_k M_k^T a_k >= sum_k w_k d_k,
                                     E a_k = 1,  a_k >= 0,

whose size is O(K n_nodes), in one call to HiGHS's dual simplex through the
binding scipy ships (``_run_highs``); b is read off the duals of the >= rows.
The plans' levels are the equilibrium's K + 1 generating processes; their
best-response surfaces measure the gap and give the value v_hat(root) that
``verify`` certifies.  A pure rule is a generating process whose levels are 0
or 1, and a rule set, ``RuleSet``, is the (steps, levels) matrices of its pure
processes, one row per rule.  ``support_rules`` writes a process as a mixture
of at most n_nodes + 1 threshold rules ("stop at the first node whose level
exceeds u", weighted by the gaps between its sorted levels),
``ScenarioSolution.rules``.

Enumeration of every pure adapted rule (``enumerate_stopping_rules``,
``regime_matrices``, the pair matrix of ``build_matrix`` and ``pure_gap``)
stays only as the reference for tests and the randomization-necessity
witness; no CLI command enumerates.  The rule count grows doubly
exponentially (677 at depth 4, 458 330 at depth 5), so it is guarded by a cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._compiled import csc_arrays, scipy_extension
from .core import FiltrationTree, GeneratingProcess, _type_mix, flow_value, payoff_flows
from .scenario import ScenarioGame, StrategyProfile, ValueSurfaces, _root_gap, best_response_values

# scipy's HiGHS binding is loaded by ``_highs`` on the first solve: importing the
# package, and every CLI command that solves no LP, then skips scipy's load time

__all__ = [
    "EnumerationCapExceeded",
    "NumericalFailure",
    "RuleSet",
    "ScenarioSolution",
    "count_stopping_rules",
    "enumerate_stopping_rules",
    "regime_matrices",
    "build_matrix",
    "pure_gap",
    "LPStats",
    "support_rules",
    "solve_scenario",
]

DEFAULT_CAP = 20_000
PAIR_MATRIX_CAP = 50_000_000  # the most entries ``build_matrix`` forms
GAP_TOL = 1e-9  # the root duality gap; ``scenario``'s docstring relates it to the node-wise 1e-8
# the HiGHS options of scipy's "highs-ds" LP method but for the feasibility
# tolerances, set to 1e-10, and the matrix entries HiGHS drops, those below
# 1e-12 rather than 1e-9: each the least that HiGHS accepts
_LP_OPTIONS = dict(solver="simplex", simplex_strategy=1, highs_debug_level=0,  # dual simplex, no debug
                   output_flag=False, log_to_console=False, small_matrix_value=1e-12,
                   primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10)


class EnumerationCapExceeded(RuntimeError):
    """The adapted-rule count exceeds the configured cap."""


class NumericalFailure(RuntimeError):
    """The LP failed to close the duality gap within the retry budget."""


@dataclass(frozen=True)
class RuleSet:
    """Pure stopping rules as the (steps, levels) matrices of their 0/1 generating processes.

    Row r is one rule: ``stop_matrix[r, n]`` is 1 where it stops at node n, its
    process's step, and ``level_matrix[r, n]`` is 1 where the path to n
    contains that stop, its process's level (``GeneratingProcess.from_levels``).
    """

    stop_matrix: np.ndarray
    level_matrix: np.ndarray

    def __len__(self) -> int:
        return len(self.stop_matrix)


def count_stopping_rules(tree: FiltrationTree) -> int:
    """Exact number of adapted rules: 1 at leaves, 1 + prod over children."""
    counts = [1] * tree.n_nodes
    for node in range(tree.n_nodes - 1, -1, -1):
        if tree.children[node].size:
            counts[node] = 1 + math.prod(counts[k] for k in tree.children[node])
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
    return RuleSet(stop, tree.scan(stop, np.maximum))


def regime_matrices(game: ScenarioGame, rules: RuleSet) -> tuple[np.ndarray, ...]:
    """Exact pure-vs-pure payoff matrices B_k[tau, sigma], one per type."""
    pay, S, L = game.payoffs, rules.stop_matrix, rules.level_matrix
    return tuple(flow_value(game.tree.reach, *payoff_flows(f, g, h, L, S), L, S)
                 for f, g, h in zip(pay.f, pay.g, pay.h))


def build_matrix(game: ScenarioGame, rules: RuleSet) -> np.ndarray:
    """The pair-indexed matrix: row (tau0, tau1) at tau0 * len(rules) + tau1,
    column sigma (small games; tests and the randomization witness)."""
    b0, b1 = regime_matrices(game, rules)
    r = len(rules)
    if r * r * b0.shape[1] > PAIR_MATRIX_CAP:
        raise EnumerationCapExceeded(
            f"pair matrix would have {r * r * b0.shape[1]} entries; use solve_scenario"
        )
    return _type_mix(game.weights, (b0[:, None], b1[None, :])).reshape(r * r, -1)


def pure_gap(a: np.ndarray) -> tuple[float, float, float]:
    """Pure minimax gap: (min-max, max-min, difference >= 0)."""
    a = np.asarray(a, dtype=float)
    upper = float(a.max(axis=1).min())
    lower = float(a.min(axis=0).max())
    return upper, lower, upper - lower


def _sequence_form_lp(game: ScenarioGame):
    """(cost, indptr, indices, data, row_lower, row_upper, col_lower, col_upper).

    ``solve_scenario``'s LP, [A_ub; A_eq] in one CSC matrix with HiGHS's int32
    indices, rows -inf <= A_ub x <= b_ub and A_eq x = 1.  Probing each flow of
    ``core.payoff_flows`` at the opponent's (level, step) (Z, dZ) = (0, 0),
    (1, 0), (0, 1) gives its constant and slopes.  For each strict ancestor m
    of n, M_k[n, m] is n's stop Z-slope and M_k[m, n] minus its run dZ-slope
    (the run flow has no constant and no Z-slope).  Exact zeros of M_k are
    dropped before weighting by w_k.  The pairs come from ``tree.subtree``.
    """
    tree, w, pay, r = game.tree, game.weights, game.payoffs, game.tree.reach
    n, n_leaves, k_types = tree.n_nodes, tree.leaves.size, len(game.weights)
    probe_z, probe_dz = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])[:, :, None, None]
    flows = np.stack(payoff_flows(pay.f, pay.g, pay.h, probe_z, probe_dz))  # (stop/run, probe, type, n)
    (stop_z, stop_dz), (_, run_dz) = r * (flows[:, 1:] - flows[:, :1])
    start, node, _ = tree.subtree
    anc = np.repeat(np.arange(n), np.diff(start))
    below, above, diag = node[node != anc], anc[node != anc], np.arange(n)
    m_row = np.concatenate([below, above, diag])
    m_col = np.concatenate([above, below, diag])
    m_val = np.concatenate([stop_z[:, below], -run_dz[:, below], (stop_z + stop_dz) - run_dz], axis=1)
    leaf = tree.is_leaf[node]
    path_node, leaf_row = anc[leaf], np.searchsorted(tree.leaves, node[leaf])
    # rows 0..n-1: A_ub = [w_0 M_0^T, ..., w_{K-1} M_{K-1}^T, -E^T];  rows n..: A_eq, E a_k = 1 per type
    entries = [(m_col[j], k * n + m_row[j], w[k] * m_val[k, j]) for k, j in enumerate(m_val != 0.0)]
    entries.append((path_node, k_types * n + leaf_row, -np.ones(leaf_row.size)))
    entries += [(n + k * n_leaves + leaf_row, k * n + path_node, np.ones(leaf_row.size)) for k in range(k_types)]
    # no position repeats, so ``csc_arrays`` only sorts them
    indptr, indices, data = csc_arrays(*(np.concatenate(k) for k in zip(*entries)), k_types * n + n_leaves)
    cost = np.concatenate([*(w[:, None] * (r * flows[0, 0])), np.ones(n_leaves)])
    b_ub = -_type_mix(w, 0.0 + run_dz)  # 0.0 +: a zero-reach node's -0.0 becomes 0.0
    row_lower = np.concatenate([np.full(n, -np.inf), np.ones(k_types * n_leaves)])
    col_lower = np.repeat([0.0, -np.inf], [k_types * n, n_leaves])
    return (cost, indptr, indices, data, row_lower,
            np.concatenate([b_ub, row_lower[n:]]), col_lower, np.full(cost.size, np.inf))


def _highs():
    """scipy's HiGHS binding, without ``scipy.optimize``'s ``__init__`` (most of an
    ``oracle`` command's start-up); ``linprog`` uses the same module object."""
    return scipy_extension("optimize._highspy._core")


def _run_highs(lp, presolve: bool):
    """(solution, info) of a fresh HiGHS run with ``_LP_OPTIONS``, or ``NumericalFailure``;
    the arrays go whole through ``passModel``'s array form, every column continuous."""
    highs = _highs()
    cost, indptr, indices, data, row_lower, row_upper, col_lower, col_upper = lp
    options, solver = highs.HighsOptions(), highs._Highs()
    for key, val in dict(_LP_OPTIONS, presolve="on" if presolve else "off").items():
        setattr(options, key, val)
    solver.passOptions(options)
    if solver.passModel(cost.size, row_lower.size, data.size, highs.MatrixFormat.kColwise,
                        highs.ObjSense.kMinimize, 0.0, cost, col_lower, col_upper, row_lower,
                        row_upper, indptr, indices, data,
                        np.zeros(cost.size, np.int32)) == highs.HighsStatus.kError:
        raise NumericalFailure("LP solver failed: HiGHS rejected the model")
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise NumericalFailure(f"LP solver failed: {solver.modelStatusToString(status)}")
    return solver.getSolution(), solver.getInfo()


@dataclass(frozen=True)
class LPStats:
    """Deterministic counters of the sequence-form LP solve, and HiGHS's objective."""

    rows: int
    cols: int
    nnz: int
    nit: int
    presolve: bool
    objective: float


@dataclass(frozen=True)
class ScenarioSolution:
    """Equilibrium of a scenario game from the sequence-form LP.

    ``processes`` are the K + 1 generating processes whose steps are the LP's plans,
    ``surfaces`` their best-response values, and ``value`` is v_hat at the root,
    not the LP objective, which HiGHS reaches within its tolerances and without
    any matrix entry below its ``small_matrix_value`` of 1e-12.  The threshold-rule view,
    ``rules`` (a ``RuleSet``: the (steps, levels) matrices of the pure processes),
    ``row_mix0``, ``row_mix1`` (the mixes of types 0 and 1) and ``col_mix`` (see
    ``support_rules``), is built from ``tree`` when first read.
    """

    value: float
    gap: float
    lp: LPStats
    processes: StrategyProfile
    surfaces: ValueSurfaces
    tree: FiltrationTree

    def profile(self, tree: FiltrationTree) -> StrategyProfile:
        """The equilibrium profile on ``tree``, the tree the game was solved on."""
        return self.processes

    @cached_property
    def _support(self) -> tuple[RuleSet, list[np.ndarray]]:
        prof = self.processes
        return support_rules([*(x.levels for x in prof.xi), prof.zeta.levels], self.tree)

    rules = property(lambda self: self._support[0])
    row_mix0 = property(lambda self: self._support[1][0])
    row_mix1 = property(lambda self: self._support[1][1])
    col_mix = property(lambda self: self._support[1][-1])


def support_rules(levels: list[np.ndarray], tree: FiltrationTree) -> tuple[RuleSet, list[np.ndarray]]:
    """Pure rules and weights that mix to each of the given processes' levels.

    For levels X the rule "stop at the first node whose level exceeds u" is
    the same for every u between two consecutive distinct levels (0 and 1
    included), and weighting it by the gap reproduces X.  That is at most
    n + 1 rules per process; rules shared by several processes appear once.
    """
    stopped, weights = [], []
    for x in levels:
        u = np.unique(np.append(x[x < 1.0], 0.0))
        stopped.append(x > u[:, None])
        weights.append(np.diff(np.append(u, 1.0)))
    unique, inverse = np.unique(np.vstack(stopped), axis=0, return_inverse=True)
    owners = np.split(inverse.ravel(), np.cumsum([w.size for w in weights])[:-1])
    mixes = [np.bincount(k, weights=w, minlength=len(unique)) for k, w in zip(owners, weights)]
    stop = unique.copy()
    stop[:, 1:] &= ~unique[:, tree.parent[1:]]
    return RuleSet(stop.astype(float), unique.astype(float)), mixes


def _plan_levels(steps: np.ndarray, tree: FiltrationTree) -> np.ndarray:
    # clear basis-solve noise: vertex solutions have exact zeros, so steps
    # below 1e-10 are 0 and levels within 1e-10 of 1 are 1, and no ghost
    # survival mass remains downstream
    levels = GeneratingProcess.from_steps(np.where(steps < 1e-10, 0.0, steps), tree).levels
    levels = np.where(levels > 1.0 - 1e-10, 1.0, levels)
    levels[tree.leaves] = 1.0
    return levels


def solve_scenario(game: ScenarioGame) -> ScenarioSolution:
    """Equilibrium oracle: one sequence-form LP, O(K n_nodes) in size.

    min over (a_0, ..., a_{K-1}, y) of sum_k w_k c_k a_k + 1 y subject to
    E^T y - sum_k w_k M_k^T a_k >= sum_k w_k d_k and E a_k = 1, a_k >= 0.
    The uninformed steps b are the duals of the >= rows.  Each attempt is one
    fresh HiGHS dual-simplex run with ``_LP_OPTIONS``, the options of scipy's
    "highs-ds" method.  The gap is |v_hat(root) - sum_k w_k u_hat_k(root)| of
    ``best_response_values`` against the plans' profile, and the value is
    v_hat(root); one re-solve with presolve off refines a solution whose gap
    is above ``GAP_TOL``.
    """
    tree, w, n = game.tree, game.weights, game.tree.n_nodes
    lp = _sequence_form_lp(game)
    size = lp[4].size, lp[0].size, int(lp[1][-1])  # rows, cols, nnz
    for presolve in (True, False):
        solution, info = _run_highs(lp, presolve)
        x = np.array(solution.col_value)
        plans = [*np.split(x[:len(w) * n], len(w)), -np.array(solution.row_dual)[:n]]
        *xi, zeta = (GeneratingProcess.from_levels(_plan_levels(p, tree), tree) for p in plans)
        profile = StrategyProfile(tuple(xi), zeta)
        surf = best_response_values(game, profile)
        gap = _root_gap(w, surf.u_hat[:, 0], surf.v_hat[0])
        if gap <= GAP_TOL:
            stats = LPStats(*size, info.simplex_iteration_count, presolve, info.objective_function_value)
            return ScenarioSolution(float(surf.v_hat[0]), gap, stats, profile, surf, tree)
    raise NumericalFailure(f"duality gap {gap} above {GAP_TOL}")
