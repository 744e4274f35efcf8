"""Independent reference implementations used as test oracles.

Everything here recomputes quantities from first principles (enumeration,
plain backward induction) without touching the library's bookkeeping, so a
bug in the package cannot hide in its own oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import OptimizeWarning, linprog

from asymdynkin.core import (
    FiltrationTree,
    GeneratingProcess,
    PayoffTriple,
    RandomDevice,
    TimeGrid,
    flow_value,
    payoff_flows,
)
from asymdynkin.dynamics.model import DiffusionModel, filter_step, generator_coefficients
from asymdynkin.dynamics.pde import PDEGrid, PDESurfaces
from asymdynkin.dynamics.simulate import simulate_fixed_regime, simulate_regime_paths
from asymdynkin.dynamics.verify import _lookup
from asymdynkin.oracle import _LP_OPTIONS, RuleSet, build_matrix, enumerate_stopping_rules, regime_matrices
from asymdynkin.scenario import Certificate, ScenarioGame


def random_tree(rng: np.random.Generator, depth: int, depth_first: bool) -> FiltrationTree:
    """Random tree of the given depth, arity 1-3 per internal node.

    All leaves sit at the final depth; nodes are numbered level by level or,
    with ``depth_first``, depth first.
    """
    def shape(d):
        return [shape(d + 1) for _ in range(rng.integers(1, 4))] if d < depth else []

    parent, prob = [], []
    pending = [(shape(0), -1, 1.0)]
    while pending:
        node, par, p = pending.pop() if depth_first else pending.pop(0)
        me = len(parent)
        parent.append(par)
        prob.append(p)
        branch = rng.dirichlet(np.ones(len(node))) if node else []
        kids = list(zip(node, [me] * len(node), branch))
        pending.extend(reversed(kids) if depth_first else kids)
    return FiltrationTree(np.array(parent), np.array(prob), TimeGrid.regular(depth))


def random_game(rng: np.random.Generator, tree: FiltrationTree) -> ScenarioGame:
    vals = np.sort(rng.uniform(-1.0, 1.0, size=(2, tree.n_nodes, 3)), axis=-1)
    payoffs = PayoffTriple(f=vals[..., 2], g=vals[..., 0], h=vals[..., 1])
    return ScenarioGame(tree, payoffs, float(rng.uniform(0.05, 0.95)))


def enumeration_value(game: ScenarioGame, pair: bool = False) -> float:
    """Value of the game by the enumeration LP over pure rules.

    The pair payoff (1-prior) B0[t0, s] + prior B1[t1, s] is separable across
    regimes, so the marginal form min v s.t. sum_i w_i B_i^T mu_i <= v over
    one mix mu_i per regime has the value of the pair-matrix game with 2R + 1
    variables.  With ``pair`` the R^2-row matrix of ``build_matrix`` is solved
    instead, over one mix of rule pairs.  The payoff matrices come from the
    package's enumeration reference, which
    ``test_regime_matrices_match_brute_force`` checks against
    ``brute_force_expected``; nothing here shares code with the
    sequence-form LP.
    """
    rules = enumerate_stopping_rules(game.tree)
    if pair:
        blocks = [build_matrix(game, rules)]
    else:
        blocks = [w * b for w, b in zip(game.weights, regime_matrices(game, rules))]
    a = np.vstack(blocks)
    n_rows, n_cols = a.shape
    cost = np.zeros(n_rows + 1)
    cost[-1] = 1.0
    # one simplex per block: the mix over its rows sums to 1
    owner = np.repeat(np.arange(len(blocks)), [b.shape[0] for b in blocks])
    a_eq = np.zeros((len(blocks), n_rows + 1))
    a_eq[owner, np.arange(n_rows)] = 1.0
    res = linprog(cost, A_ub=np.hstack([a.T, -np.ones((n_cols, 1))]), b_ub=np.zeros(n_cols),
                  A_eq=a_eq, b_eq=np.ones(len(blocks)),
                  bounds=[(0, None)] * n_rows + [(None, None)], method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return float(res.x[-1])


def mixture_to_generating(
    weights: np.ndarray, rules: RuleSet, tree: FiltrationTree
) -> GeneratingProcess:
    """CDF of a mixture of pure rules: level = sum_k w_k 1{rule k stopped}.

    The weights are normalized to sum to 1 and otherwise taken as given, so
    the tiny gaps between nearly equal threshold levels keep their weight.
    The reference that ``oracle.support_rules``'s mixtures round-trip against.
    """
    w = np.asarray(weights, dtype=float)
    if w.sum() <= 0.0:
        raise ValueError("mixture weights must have a positive sum")
    levels = (w / w.sum()) @ rules.level_matrix
    levels = np.clip(levels, 0.0, 1.0)
    levels[tree.leaves] = 1.0
    return GeneratingProcess.from_levels(levels, tree)


# The sequence form by sparse matrix algebra: the reference that the oracle's
# entry-by-entry LP assembly must reproduce.


def ref_ancestor_pairs(tree: FiltrationTree) -> tuple[np.ndarray, np.ndarray]:
    """(node, ancestor-or-self) id arrays, climbing all nodes a level per round.

    The pairs come round by round (every node with itself, then with its
    parent, ...), not grouped by ancestor as in ``FiltrationTree.subtree``.
    """
    node = anc = np.arange(tree.n_nodes)
    pairs = []
    while node.size:
        pairs.append((node, anc))
        up = anc > 0
        node, anc = node[up], tree.parent[anc[up]]
    return tuple(np.concatenate(k) for k in zip(*pairs))


def ancestor_matrix(tree: FiltrationTree) -> sparse.csr_array:
    """Sparse A with A[n, m] = 1 where m is n or an ancestor of n.

    ``A @ steps`` are the levels of a process and ``A[tree.leaves]`` is the
    leaf x node path incidence matrix.  Built from ``ref_ancestor_pairs``, so
    it costs O(n_nodes x depth), never a dense n x n array.
    """
    rows, cols = ref_ancestor_pairs(tree)
    return sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(tree.n_nodes,) * 2)


def sequence_form(game: ScenarioGame, ancestors: sparse.csr_array) -> list[tuple]:
    """Per-regime (c, d, M) with payoff c @ a + d @ b + a @ M @ b.

    ``a`` and ``b`` are the steps of the informed and the uninformed process
    and ``ancestors`` is ``ancestor_matrix(game.tree)``.  Each flow of
    ``core.payoff_flows`` is affine in the opponent's level Z = A b and step
    dZ = b at a node, so probing it at (Z, dZ) = (0, 0), (1, 0) and (0, 1)
    gives its constant and slopes.  The payoff is the sum over nodes of
    r (stop dX + run (1 - X)) with X = A a, as in ``core.flow_value``; the run
    flow pays only on opponent steps, so it has no constant.
    """
    pay, r, A = game.payoffs, game.tree.reach, ancestors
    probe_z = np.array([0.0, 1.0, 0.0])[:, None, None]
    probe_dz = np.array([0.0, 0.0, 1.0])[:, None, None]
    flows = np.stack(payoff_flows(pay.f, pay.g, pay.h, probe_z, probe_dz))  # (stop/run, probe, regime, n)
    slope = r * (flows[:, 1:] - flows[:, :1])
    forms = []
    for i in range(2):
        # b -> r * (flow - flow at b = 0), for the stop and the run flow
        s_b, r_b = (sparse.diags_array(z[i]) @ A + sparse.diags_array(dz[i]) for z, dz in slope)
        forms.append((r * flows[0, 0, i], r_b.sum(axis=0), sparse.csr_array(s_b - A.T @ r_b)))
    return forms


def ref_sequence_form_lp(game: ScenarioGame):
    """(cost, A_ub, b_ub, A_eq) of the oracle's LP, stacked from ``sequence_form``."""
    tree, w = game.tree, game.weights
    n_leaves = tree.leaves.size
    A = ancestor_matrix(tree)
    E = A[tree.leaves]
    c, d, m = zip(*sequence_form(game, A))
    cost = np.concatenate([w[0] * c[0], w[1] * c[1], np.ones(n_leaves)])
    a_ub = sparse.hstack([w[0] * m[0].T, w[1] * m[1].T, -E.T], format="csr")
    b_ub = -(w[0] * d[0] + w[1] * d[1])
    a_eq = sparse.hstack([sparse.block_diag([E, E]), sparse.csr_array((2 * n_leaves, n_leaves))],
                         format="csr")
    return cost, a_ub, b_ub, a_eq


def ref_solve_lp(game: ScenarioGame, presolve: bool):
    """``ref_sequence_form_lp`` solved by ``linprog(method="highs-ds")``.

    The call the oracle made before it passed its LP to HiGHS directly: the
    direct call must return the same bits, and a scipy release that changes
    the private binding shows up here.  The oracle keeps matrix entries down
    to its ``small_matrix_value``, which ``linprog`` does not know: it passes
    the option on to HiGHS verbatim and warns that it did.
    """
    cost, a_ub, b_ub, a_eq = ref_sequence_form_lp(game)
    n, n_leaves = game.tree.n_nodes, game.tree.leaves.size
    with pytest.warns(OptimizeWarning, match="small_matrix_value"):
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(2 * n_leaves),
                      bounds=[(0, None)] * (2 * n) + [(None, None)] * n_leaves, method="highs-ds",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10, "presolve": presolve,
                               "small_matrix_value": _LP_OPTIONS["small_matrix_value"]})
    assert res.success, res.message
    return res


# Tree references by plain enumeration and sampling of (path, tau, sigma).


def single_path_tree(n_steps: int, grid: TimeGrid | None = None) -> FiltrationTree:
    """Deterministic filtration: one node per grid time."""
    parent = np.arange(-1, n_steps)
    prob = np.ones(n_steps + 1)
    return FiltrationTree(parent, prob, grid or TimeGrid.regular(n_steps))


def one_regime(payoffs: PayoffTriple, i: int) -> PayoffTriple:
    """Row i of regime payoffs as a single-regime triple."""
    return PayoffTriple(payoffs.f[i], payoffs.g[i], payoffs.h[i])


def sample_stopping_time(proc: GeneratingProcess, path: np.ndarray, z: float) -> int:
    """First grid index k along ``path`` with level strictly above z."""
    levels = proc.levels[np.asarray(path)]
    return int(np.sum(levels <= z))


def realized_payoff(payoffs: PayoffTriple, path: np.ndarray, tau: int, sigma: int) -> float:
    """P(tau, sigma) along one path, for single-regime payoff arrays."""
    path = np.asarray(path)
    if not (0 <= tau < path.size and 0 <= sigma < path.size):
        raise IndexError(f"stop index out of range: tau={tau}, sigma={sigma}")
    if tau < sigma:
        return float(payoffs.f[path[tau]])
    if tau == sigma:
        return float(payoffs.h[path[tau]])
    return float(payoffs.g[path[sigma]])


def brute_force_expected(tree, payoffs: PayoffTriple, xi, zeta, prior=None) -> float:
    """Expectation by full enumeration of (path, tau-atom, sigma-atom).

    Without a prior ``payoffs`` is one regime and ``xi`` one process; with
    one, ``payoffs`` has a row and ``xi`` a process per regime.
    """
    regimes = [(1.0, payoffs, xi)] if prior is None else [
        (1.0 - prior, one_regime(payoffs, 0), xi[0]),
        (prior, one_regime(payoffs, 1), xi[1]),
    ]
    total = 0.0
    for row, leaf in enumerate(tree.leaves):
        path = tree.paths[row]
        p_path = tree.reach[leaf]
        zl = zeta.levels[path]
        dz = np.diff(np.concatenate([[0.0], zl]))
        for w, pay, x in regimes:
            xl = x.levels[path]
            dx = np.diff(np.concatenate([[0.0], xl]))
            for k in range(path.size):
                if dx[k] == 0.0:
                    continue
                for l in range(path.size):
                    if dz[l] == 0.0:
                        continue
                    total += w * p_path * dx[k] * dz[l] * realized_payoff(pay, path, k, l)
    return total


def sample_paths(tree: FiltrationTree, n: int, rng: np.random.Generator) -> np.ndarray:
    """Row indices into ``tree.paths`` for n independently sampled scenarios."""
    current = np.zeros(n, dtype=np.int64)
    for _ in range(tree.n_steps):
        u = rng.random(n)
        nxt = np.empty_like(current)
        for node in np.unique(current):
            kids = tree.children[node]
            cum = np.cumsum(tree.prob[kids])
            sel = current == node
            nxt[sel] = kids[np.searchsorted(cum, u[sel], side="right").clip(max=kids.size - 1)]
        current = nxt
    return np.searchsorted(tree.leaves, current)


def expected_payoff_mc(
    tree: FiltrationTree,
    payoffs: PayoffTriple,
    xi,
    zeta: GeneratingProcess,
    n: int,
    device: RandomDevice,
    prior: float | None = None,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the realized payoff.

    Draws (path, Z1, Z2) -- and, given a prior, the regime -- from distinct
    device streams, so the estimate is deterministic given the seed.  The
    payoff forms are those of ``brute_force_expected``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng_path = device.generator()
    z1 = device.with_stream(device.stream + 1).uniforms(n)
    z2 = device.with_stream(device.stream + 2).uniforms(n)
    rows = sample_paths(tree, n, rng_path)
    paths = tree.paths[rows]

    if prior is not None:
        regime = (device.with_stream(device.stream + 3).uniforms(n) < prior).astype(np.int64)
        xi0, xi1 = xi
        xi_levels = np.where(regime[:, None].astype(bool), xi1.levels[paths], xi0.levels[paths])
        f = np.take_along_axis(payoffs.f[regime], paths, axis=1)
        g = np.take_along_axis(payoffs.g[regime], paths, axis=1)
        h = np.take_along_axis(payoffs.h[regime], paths, axis=1)
    else:
        xi_levels = xi.levels[paths]
        f, g, h = payoffs.f[paths], payoffs.g[paths], payoffs.h[paths]

    zeta_levels = zeta.levels[paths]
    tau = np.sum(xi_levels <= z1[:, None], axis=1)
    sigma = np.sum(zeta_levels <= z2[:, None], axis=1)
    k = np.minimum(tau, sigma)
    idx = np.arange(n)
    vals = np.where(
        tau < sigma, f[idx, k], np.where(tau == sigma, h[idx, k], g[idx, k])
    )
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return est, stderr


def atom_count(tree, xi, zeta, prior=None) -> int:
    """Number of (path, tau, sigma) atoms enumerated by brute_force_expected."""
    count = 0
    xis = [xi] if not isinstance(xi, tuple) else list(xi)
    for row in range(tree.leaves.size):
        path = tree.paths[row]
        zl = zeta.levels[path]
        dz = np.diff(np.concatenate([[0.0], zl]))
        for x in xis:
            xl = x.levels[path]
            dx = np.diff(np.concatenate([[0.0], xl]))
            count += int(np.count_nonzero(dx) * np.count_nonzero(dz))
    return count


def one_sided_stop_value(
    tree: FiltrationTree, running: np.ndarray, terminal: np.ndarray, maximize: bool = True
) -> float:
    """Plain backward-induction optimal stopping on the tree."""
    best = np.zeros(tree.n_nodes)
    for node in range(tree.n_nodes - 1, -1, -1):
        kids = tree.children[node]
        if kids.size == 0:
            best[node] = terminal[node]
        else:
            cont = float(np.dot(tree.prob[kids], best[kids]))
            best[node] = max(running[node], cont) if maximize else min(running[node], cont)
    return float(best[0])


# Per-node references for the level-order tree code: each walks the node ids
# in topological order (or its reverse) the way the recursions are defined.


def ref_children(tree: FiltrationTree) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in range(tree.n_nodes)]
    for i in range(1, tree.n_nodes):
        kids[tree.parent[i]].append(i)
    return kids


def ref_depth(tree: FiltrationTree) -> np.ndarray:
    d = np.zeros(tree.n_nodes, dtype=np.int64)
    for i in range(1, tree.n_nodes):
        d[i] = d[tree.parent[i]] + 1
    return d


def ref_reach(tree: FiltrationTree) -> np.ndarray:
    r = np.ones(tree.n_nodes)
    for i in range(1, tree.n_nodes):
        r[i] = r[tree.parent[i]] * tree.prob[i]
    return r


def ref_paths(tree: FiltrationTree) -> np.ndarray:
    leaves = [i for i, kids in enumerate(ref_children(tree)) if not kids]
    n = int(ref_depth(tree).max()) + 1
    out = np.empty((len(leaves), n), dtype=np.int64)
    for row, node in enumerate(leaves):
        for k in range(n - 1, -1, -1):
            out[row, k] = node
            node = tree.parent[node]
    return out


def ref_accumulate_before(tree: FiltrationTree, increments: np.ndarray) -> np.ndarray:
    out = np.zeros(tree.n_nodes)
    for i in range(1, tree.n_nodes):
        p = tree.parent[i]
        out[i] = out[p] + increments[p]
    return out


def ref_from_steps(tree: FiltrationTree, steps: np.ndarray) -> np.ndarray:
    levels = np.array(steps, dtype=float)
    for i in range(1, tree.n_nodes):
        levels[i] = levels[tree.parent[i]] + steps[i]
    return levels


def ref_stopped_by(tree: FiltrationTree, stops: np.ndarray) -> np.ndarray:
    hit = np.asarray(stops, dtype=float).copy()
    for i in range(1, tree.n_nodes):
        if hit[tree.parent[i]]:
            hit[i] = 1.0
    return hit


def ref_stop_ancestor(tree: FiltrationTree, stops: np.ndarray) -> np.ndarray:
    anc = np.full(tree.n_nodes, -1, dtype=np.int64)
    if stops[0]:
        anc[0] = 0
    for i in range(1, tree.n_nodes):
        p = anc[tree.parent[i]]
        anc[i] = p if p >= 0 else (i if stops[i] else -1)
    return anc


def ref_truncate_control(tree: FiltrationTree, levels: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Levels of (rho_t - rho_{eta-}) / (1 - rho_{eta-}) on {t >= eta}, 0 before."""
    anc = ref_stop_ancestor(tree, stops)
    out = np.zeros(tree.n_nodes)
    for n in range(tree.n_nodes):
        a = anc[n]
        if a < 0:
            continue
        pre = levels[tree.parent[a]] if a > 0 else 0.0
        out[n] = 1.0 if 1.0 - pre <= 0.0 else (levels[n] - pre) / (1.0 - pre)
    return out


def ref_expectation_step(tree: FiltrationTree, values: np.ndarray) -> np.ndarray:
    out = np.zeros(tree.n_nodes)
    for i, kids in enumerate(ref_children(tree)):
        out[i] = sum(tree.prob[k] * values[k] for k in kids)
    return out


def _ref_flows(game, profile):
    """Both players' (stop, run) flows written out from f (1-Z) dX + g (1-X) dZ + h dX dZ."""
    pay, w = game.payoffs, game.weights
    z, dz = profile.zeta.levels, profile.zeta.steps
    stop_u = pay.f * (1.0 - z) + pay.h * dz
    run_u = pay.g * dz
    stop_v = sum(w[i] * (pay.g[i] * (1.0 - profile.xi[i].levels) + pay.h[i] * profile.xi[i].steps)
                 for i in range(2))
    run_v = sum(w[i] * pay.f[i] * profile.xi[i].steps for i in range(2))
    return stop_u, run_u, stop_v, run_v


def ref_best_response(game, profile):
    """Node-by-node backward induction: (u_hat, v_hat, informed stops, uninformed stops)."""
    tree = game.tree
    stop_u, run_u, stop_v, run_v = _ref_flows(game, profile)
    u_hat, v_hat = np.zeros((2, tree.n_nodes)), np.zeros(tree.n_nodes)
    i_stops, u_stops = np.zeros((2, tree.n_nodes), dtype=bool), np.zeros(tree.n_nodes, dtype=bool)
    children = ref_children(tree)
    for node in range(tree.n_nodes - 1, -1, -1):
        kids = children[node]
        if not kids:
            u_hat[:, node], v_hat[node] = stop_u[:, node], stop_v[node]
            continue
        for i in range(2):
            cont = run_u[i, node] + sum(tree.prob[k] * u_hat[i, k] for k in kids)
            i_stops[i, node] = stop_u[i, node] < cont
            u_hat[i, node] = min(stop_u[i, node], cont)
        cont = run_v[node] + sum(tree.prob[k] * v_hat[k] for k in kids)
        u_stops[node] = stop_v[node] > cont
        v_hat[node] = max(stop_v[node], cont)
    return u_hat, v_hat, i_stops, u_stops


def ref_pure_values(game, profile):
    """Enumerated pure-rule values: (informed (rules, 2), uninformed (rules,), rules)."""
    tree = game.tree
    rules = enumerate_stopping_rules(tree)
    L, S = rules.level_matrix, rules.stop_matrix
    stop_u, run_u, stop_v, run_v = _ref_flows(game, profile)
    return (flow_value(tree.reach, stop_u, run_u, L, S),
            flow_value(tree.reach, stop_v, run_v, L, S), rules)


def ref_certify_stop(game, profile, u_root, v_root, tol: float = 1e-8) -> Certificate:
    """The pure-deviation certificate by enumerating every pure adapted rule.

    Reports every beating rule, indexed into the enumeration.
    """
    w = game.weights
    u_root = np.asarray(u_root, dtype=float)
    vals_u, vals, _ = ref_pure_values(game, profile)
    violations = []
    for i in range(2):
        for r in np.flatnonzero(vals_u[:, i] < u_root[i] - tol):
            violations.append((f"(i) pure tau regime {i}", int(r), float(vals_u[r, i] - u_root[i])))
    for r in np.flatnonzero(vals > v_root + tol):
        violations.append(("(ii) pure sigma", int(r), float(vals[r] - v_root)))
    gap = abs(w[0] * u_root[0] + w[1] * u_root[1] - v_root)
    if gap > tol:
        violations.append(("(iii) root values", 0, float(gap)))
    return Certificate(not violations, float(v_root), tuple(violations), tol)


def ref_relative_reach(tree: FiltrationTree, node: int) -> np.ndarray:
    """Per node m: the product of transition probabilities from ``node`` down to m.

    1 at ``node`` and 0 outside its subtree, multiplied root side first.
    """
    rel = np.zeros(tree.n_nodes)
    rel[node] = 1.0
    for m in range(node + 1, tree.n_nodes):
        rel[m] = rel[tree.parent[m]] * tree.prob[m]
    return rel


def ref_ex_ante(game, profile, v_hat: np.ndarray, node: int) -> float:
    """|uninformed payoff flow summed over the subtree of node - survival x v_hat|."""
    tree = game.tree
    rel = ref_relative_reach(tree, node)
    _, _, stop_v, run_v = _ref_flows(game, profile)
    z = profile.zeta
    lhs = sum(rel[m] * (stop_v[m] * z.steps[m] + run_v[m] * (1.0 - z.levels[m]))
              for m in range(tree.n_nodes))
    pre = z.levels[tree.parent[node]] if node else 0.0
    return abs(lhs - (1.0 - pre) * v_hat[node])


# Path-major references for the time-major Euler loops of dynamics.simulate:
# each fills column k + 1 of a (paths, steps + 1) array, with the same
# arithmetic and the same draws, so the simulators must match them bit for bit.


def ref_filter_paths(model, n: int, dt: float, device):
    """(x, psi, exited, max_clamp) of the observation-law Euler scheme."""
    steps = int(round(model.horizon / dt))
    rng, sqdt = device.generator(), np.sqrt(dt)
    lo, hi = model.domain
    x = np.full((n, steps + 1), model.x0)
    psi = np.full((n, steps + 1), model.prior)
    exited = np.zeros(n, dtype=bool)
    max_clamp = 0.0
    for k in range(steps):
        xk, pk = x[:, k], psi[:, k]
        db = rng.standard_normal(n) * sqdt
        x[:, k + 1] = xk + model.mu_bar(xk, pk) * dt + np.asarray(model.sigma(xk)) * db
        raw = filter_step(model.w(xk), pk, db)
        max_clamp = max(max_clamp, float(np.max(raw - 1.0, initial=0.0)), float(np.max(-raw, initial=0.0)))
        psi[:, k + 1] = np.clip(raw, 0.0, 1.0)
        exited |= (x[:, k + 1] < lo) | (x[:, k + 1] > hi)
    return x, psi, exited, max_clamp


def ref_regime_euler(model, regime: np.ndarray, steps: int, dt: float, increments):
    """(x, psi, exited) of the regime-drift Euler scheme with the Bayes posterior."""
    n = regime.size
    lo, hi = model.domain
    x = np.full((n, steps + 1), model.x0)
    psi = np.full((n, steps + 1), model.prior)
    exited = np.zeros(n, dtype=bool)
    loglik = np.zeros(n)
    if model.prior in (0.0, 1.0):
        logit0 = np.inf if model.prior == 1.0 else -np.inf
    else:
        logit0 = float(np.log(model.prior / (1.0 - model.prior)))
    for k in range(steps):
        xk = x[:, k]
        m0 = np.asarray(model.mu0(xk), dtype=float)
        m1 = np.asarray(model.mu1(xk), dtype=float)
        s = np.asarray(model.sigma(xk), dtype=float)
        dx = np.where(regime == 1, m1, m0) * dt + s * increments(k)
        x[:, k + 1] = xk + dx
        loglik += (m1 - m0) / s**2 * dx - 0.5 * (m1**2 - m0**2) / s**2 * dt
        with np.errstate(over="ignore"):
            psi[:, k + 1] = 1.0 / (1.0 + np.exp(-(loglik + logit0)))
        exited |= (x[:, k + 1] < lo) | (x[:, k + 1] > hi)
    return x, psi, exited


def ref_psi_from_innovation(model, x: np.ndarray, dt: float) -> np.ndarray:
    """Filter-SDE posterior integrated along the columns of a (paths, steps + 1) x."""
    n, steps = x.shape[0], x.shape[1] - 1
    psi = np.empty((n, steps + 1))
    psi[:, 0] = model.prior
    for k in range(steps):
        xk, pk = x[:, k], psi[:, k]
        s = np.asarray(model.sigma(xk), dtype=float)
        db = (x[:, k + 1] - xk - model.mu_bar(xk, pk) * dt) / s
        psi[:, k + 1] = np.clip(filter_step(model.w(xk), pk, db), 0.0, 1.0)
    return psi


# Analytic generators of (X, psi) on smooth test functions, and their check
# against one-step Monte Carlo drifts.  Under the observation measure the
# pair is driven by one Brownian motion; conditioning on the regime tilts the
# innovation.  The coefficients are ``model.generator_coefficients``, the
# ones the PDE operator is assembled from, so ``generator_check`` validates
# the PDE's generator.


@dataclass(frozen=True)
class TestFunction:
    """Twice-differentiable phi(pi, x) supplied with its derivatives."""

    __test__ = False  # a probe, not a pytest class

    name: str
    value: Callable
    dx: Callable
    dxx: Callable
    dpi: Callable
    dpipi: Callable
    dxpi: Callable


def standard_test_functions() -> list[TestFunction]:
    """Six smooth probes covering pure, quadratic and mixed dependence."""
    z = lambda p, x: np.zeros_like(np.asarray(x, dtype=float) + p)
    return [
        TestFunction("x", lambda p, x: x + 0 * p, lambda p, x: 1 + 0 * p + 0 * x, z, z, z, z),
        TestFunction("pi", lambda p, x: p + 0 * x, z, z, lambda p, x: 1 + 0 * p + 0 * x, z, z),
        TestFunction(
            "x^2", lambda p, x: x**2 + 0 * p, lambda p, x: 2 * x + 0 * p,
            lambda p, x: 2 + 0 * p + 0 * x, z, z, z,
        ),
        TestFunction(
            "pi^2", lambda p, x: p**2 + 0 * x, z, z,
            lambda p, x: 2 * p + 0 * x, lambda p, x: 2 + 0 * p + 0 * x, z,
        ),
        TestFunction(
            "pi*x", lambda p, x: p * x, lambda p, x: p + 0 * x, z,
            lambda p, x: x + 0 * p, z, lambda p, x: 1 + 0 * p + 0 * x,
        ),
        TestFunction(
            "tanh(x)*pi",
            lambda p, x: np.tanh(x) * p,
            lambda p, x: (1 - np.tanh(x) ** 2) * p,
            lambda p, x: -2 * np.tanh(x) * (1 - np.tanh(x) ** 2) * p,
            lambda p, x: np.tanh(x) + 0 * p,
            z,
            lambda p, x: 1 - np.tanh(x) ** 2 + 0 * p,
        ),
    ]


def analytic_generator(
    model: DiffusionModel, phi: TestFunction, pi: float, x: float, mode: str
) -> float:
    """Evaluate the generator of the requested mode at an interior point."""
    b_x, b_pi, a_x, a_pi, c = generator_coefficients(model, pi, x, mode)
    return float(
        b_x * phi.dx(pi, x) + a_x * phi.dxx(pi, x) + b_pi * phi.dpi(pi, x)
        + a_pi * phi.dpipi(pi, x) + c * phi.dxpi(pi, x)
    )


def mc_generator_drift(
    model: DiffusionModel,
    phi: TestFunction,
    pi: float,
    x: float,
    mode: str,
    n: int,
    dt: float,
    device: RandomDevice,
) -> tuple[float, float]:
    """One-step Monte Carlo drift (E[phi(X_dt, psi_dt)] - phi) / dt and stderr.

    The regime modes simulate X with the true drift and feed the observed
    increment through the filter update, exactly as the simulators do.
    """
    rng = device.generator()
    dw = rng.standard_normal(n) * np.sqrt(dt)
    s = float(np.asarray(model.sigma(x)))
    x1 = x + float(generator_coefficients(model, pi, x, mode)[0]) * dt + s * dw
    if mode == "observation":
        db = dw
    else:
        db = (x1 - x - float(model.mu_bar(x, pi)) * dt) / s
    psi1 = np.clip(filter_step(model.w(x), pi, db), 0.0, 1.0)
    vals = (np.asarray(phi.value(psi1, x1), dtype=float) - float(phi.value(pi, x))) / dt
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))


def generator_check(
    model: DiffusionModel,
    phi: TestFunction,
    pi: float,
    x: float,
    mode: str,
    n: int,
    dt: float,
    device: RandomDevice,
) -> dict:
    """Compare the MC drift against the analytic generator at one point."""
    mc, se = mc_generator_drift(model, phi, pi, x, mode, n, dt, device)
    exact = analytic_generator(model, phi, pi, x, mode)
    return {
        "phi": phi.name,
        "mode": mode,
        "point": (pi, x),
        "mc_drift": mc,
        "analytic": exact,
        "stderr": se,
        "discrepancy": mc - exact,
        "within_4se": bool(abs(mc - exact) <= 4.0 * se + 1e-12),
    }


# Per-column and per-path references for the belief-run rule that
# dynamics.pde._run_edges vectorises: each walks a pi column from the cell
# to the edge of its run, so the PDE copy and the strategy map must match
# them bit for bit.


def ref_pi_copy(u_other: np.ndarray, run_mask: np.ndarray, from_below: bool) -> np.ndarray:
    """Copy each run of a (pi, x) mask from the node below it (or above it)."""
    mpi = u_other.shape[0]
    out = u_other.copy()
    for j in range(u_other.shape[1]):
        col = run_mask[:, j]
        i = 0
        while i < mpi:
            if not col[i]:
                i += 1
                continue
            a = i
            while i < mpi and col[i]:
                i += 1
            b = i - 1
            if from_below and a > 0:
                out[a : b + 1, j] = u_other[a - 1, j]
            elif not from_below and b < mpi - 1:
                out[a : b + 1, j] = u_other[b + 1, j]
    return out


def ref_strategy_evaluate(smap, x_paths: np.ndarray, psi: np.ndarray | None = None):
    """(p, xi0, xi1, zeta) of ``StrategyMap.evaluate``, reflecting one path at a time."""
    surf, dt = smap.surfaces, smap.dt
    grid = surf.grid
    gpi, gx = grid.pi, grid.x
    n, steps = x_paths.shape[0], x_paths.shape[1] - 1
    if psi is None:
        psi = ref_psi_from_innovation(smap.model, x_paths, dt)

    def pi_index(p):
        return np.clip(np.rint(p / (gpi[1] - gpi[0])).astype(int), 0, gpi.size - 1)

    s = np.ones((2, n))
    xi = np.zeros((2, n, steps + 1))
    zeta = np.zeros((n, steps + 1))
    p_out = np.empty((n, steps + 1))
    stopped_unin = np.zeros(n, dtype=bool)
    for k in range(steps + 1):
        tk_idx = int(np.clip(np.searchsorted(grid.t, k * dt - 1e-12), 0, grid.t.size - 1))
        xj = np.clip(np.rint((x_paths[:, k] - gx[0]) / (gx[1] - gx[0])).astype(int), 0, gx.size - 1)
        psik = psi[:, k]
        den = psik * s[1] + (1.0 - psik) * s[0]
        p = np.where(den > 1e-15, psik * s[1] / np.maximum(den, 1e-300), psik)
        if k == steps:
            xi[:, :, k] = 1.0
            zeta[:, k] = 1.0
            p_out[:, k] = p
            break
        in_s1 = surf.in_sk[1, tk_idx, pi_index(p), xj]
        in_s0 = surf.in_sk[0, tk_idx, pi_index(p), xj]
        for path in np.flatnonzero(in_s1 | in_s0):
            col1 = surf.in_sk[1, tk_idx, :, xj[path]]
            col0 = surf.in_sk[0, tk_idx, :, xj[path]]
            pv = p[path]
            idx = pi_index(np.array([pv]))[0]
            if in_s1[path] and in_s0[path]:
                s[:, path] = 0.0
            elif in_s1[path]:
                lo = idx
                while lo > 0 and col1[lo - 1]:
                    lo -= 1
                p_b = gpi[lo]
                if pv > p_b:
                    q = (pv - p_b) / max(pv * (1.0 - p_b), 1e-300)
                    s[1, path] *= 1.0 - np.clip(q, 0.0, 1.0)
            else:
                hi = idx
                while hi < gpi.size - 1 and col0[hi + 1]:
                    hi += 1
                p_b = gpi[hi]
                if pv < p_b:
                    q = (p_b - pv) / max(p_b * (1.0 - pv), 1e-300)
                    s[0, path] *= 1.0 - np.clip(q, 0.0, 1.0)
        den = psik * s[1] + (1.0 - psik) * s[0]
        p = np.where(den > 1e-15, psik * s[1] / np.maximum(den, 1e-300), p)
        p_out[:, k] = p
        stopped_unin |= surf.in_s[tk_idx, pi_index(p), xj]
        zeta[:, k] = stopped_unin.astype(float)
        xi[0, :, k] = 1.0 - s[0]
        xi[1, :, k] = 1.0 - s[1]
    return p_out, xi[0], xi[1], zeta


# Reference for the vectorised surfaces reader: the same arrays as a per-cell
# float parse.


def ref_surfaces_from_csv(text: str) -> PDESurfaces:
    """``gameio.surfaces_from_csv`` parsing each cell with ``float``."""
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = rows[0].split(",")
    if header[:3] != ["t", "pi", "x"]:
        raise ValueError("surfaces CSV: unexpected header")
    data = np.array([[float(v) for v in ln.split(",")] for ln in rows[1:]])
    grid = PDEGrid(*(np.unique(data[:, i]) for i in range(3)))
    shape = grid.shape
    axes = (grid.t[:, None, None], grid.pi[:, None], grid.x)
    if data.shape[0] != np.prod(shape) or not all(
        np.array_equal(data[:, i].reshape(shape), np.broadcast_to(axis, shape))
        for i, axis in enumerate(axes)
    ):
        raise ValueError("surfaces CSV: rows are not the t, pi, x grid in order, each cell once")
    cols = {name: data[:, i].reshape(shape) for i, name in enumerate(header)}
    u = np.stack([cols["u0"], cols["u1"]])
    flags = [cols[name] for name in ("in_S0", "in_S1", "in_S")]
    if not all(np.isin(flag, (0.0, 1.0)).all() for flag in flags):
        raise ValueError("surfaces CSV: stopping-set flags must be 0 or 1")
    return PDESurfaces(grid, u, cols["v"], np.stack(flags[:2]).astype(bool), flags[2].astype(bool))


# Reference for dynamics.model.parse_expression: the tokenizer and
# recursive-descent parser that Python's parser and an AST whitelist replaced.
# Both must accept the same strings and give bit-identical values, except that
# this one refuses trailing whitespace and reads an integer with a leading
# zero (01) as a number, which Python refuses.


_REF_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?)|(x)|(tanh)|([()+\-*]))")


def ref_parse_expression(src: str):
    """The hand-written tokenizer and recursive-descent parser of the expression grammar.

    Grammar: numbers, the state symbol ``x``, ``+``, ``-``, ``*``, ``tanh(...)``
    and parentheses -- enough for constants and affine/tanh drifts without
    ever touching ``eval``.
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(src):
        m = _REF_TOKEN.match(src, pos)
        if not m:
            raise ValueError(f"bad token in expression at {src[pos:]!r}")
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    tokens.append("<end>")
    idx = 0

    def peek() -> str:
        return tokens[idx]

    def take(expected: str | None = None) -> str:
        nonlocal idx
        tok = tokens[idx]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        idx += 1
        return tok

    def expr():
        node = term()
        while peek() in "+-":
            op = take()
            rhs = term()
            node = (lambda a, b: (lambda x: a(x) + b(x))) (node, rhs) if op == "+" else (
                lambda a, b: (lambda x: a(x) - b(x))
            )(node, rhs)
        return node

    def term():
        node = factor()
        while peek() == "*":
            take()
            rhs = factor()
            node = (lambda a, b: (lambda x: a(x) * b(x)))(node, rhs)
        return node

    def factor():
        tok = peek()
        if tok == "-":
            take()
            inner = factor()
            return lambda x: -inner(x)
        if tok == "(":
            take()
            inner = expr()
            take(")")
            return inner
        if tok == "tanh":
            take()
            take("(")
            inner = expr()
            take(")")
            return lambda x: np.tanh(inner(x))
        if tok == "x":
            take()
            return lambda x: np.asarray(x, dtype=float)
        take()
        val = float(tok)
        return lambda x: np.full_like(np.asarray(x, dtype=float), val)

    out = expr()
    take("<end>")
    return out


# The whole-array Monte Carlo verifier that dynamics.verify streams: each path
# set is simulated, evaluated and held as (paths, steps + 1) arrays, and M_hat /
# N_hat are assembled a block of paths at a time into one Fortran-ordered
# array, whose sums along time run in step order.  The streaming verifier must
# reproduce its reports bit for bit.

_REF_BLOCK = 250


def _ref_band(sample: np.ndarray) -> tuple[float, float]:
    se = sample.std(ddof=1) / np.sqrt(sample.size) if sample.size > 1 else 0.0
    return sample.mean(), 4.0 * se


def _ref_mean_increment_checks(values: np.ndarray, active: np.ndarray, sign: float, atol: float):
    inc = np.diff(values, axis=1)
    worst_side = worst_flat = 0.0
    for k in range(inc.shape[1]):
        col, sel = inc[:, k], active[:, k]
        mean, band = _ref_band(col)
        worst_side = max(worst_side, -sign * mean - band)
        if sel.sum() > 1:
            mean, band = _ref_band(col[sel])
            worst_flat = max(worst_flat, abs(mean) - band)
    mean, band = _ref_band(inc.sum(axis=1))
    worst_side = max(worst_side, -sign * mean - band)
    mean, band = _ref_band((inc * active).sum(axis=1))
    worst_flat = max(worst_flat, abs(mean) - band)
    monotone_ok, flat_ok = bool(worst_side <= atol), bool(worst_flat <= atol)
    return {
        "monotone_ok": monotone_ok,
        "flat_ok": flat_ok,
        "passed": monotone_ok and flat_ok,
        "worst_side_excess": float(worst_side),
        "worst_flat_excess": float(worst_flat),
    }


def _ref_left_limits(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    before = np.zeros_like(levels)
    before[:, 1:] = levels[:, :-1]
    return before, levels - before


def _ref_assemble(flows, n: int, steps: int, sign: float, tol: float, alpha: float):
    values = np.empty((n, steps + 1), order="F")
    ok = count = 0
    worst = 0.0
    for lo in range(0, n, _REF_BLOCK):
        block = slice(lo, lo + _REF_BLOCK)
        stop, run, survival, value = flows(block)
        values[block] = _ref_left_limits(np.cumsum(run, axis=1))[0] + survival * value
        alive = survival > 1e-12
        slack = sign * (stop[alive] / survival[alive] - value[alive])
        ok += int(np.count_nonzero(slack >= -tol))
        count += slack.size
        worst = min(worst, float(slack.min(initial=0.0)))
    frac = ok / count if count else 1.0
    return values, {"fraction_ok": frac, "passed": bool(frac >= 1.0 - alpha), "worst_slack": worst}


def ref_mc_verify_sufficiency(strategies, n: int, alpha: float = 0.05, tol: float = 5e-2,
                              device=None, *, f, g, h) -> dict:
    """``mc_verify_sufficiency`` on whole (paths, steps + 1) arrays of each path set."""
    model, surfaces, dt = strategies.model, strategies.surfaces, strategies.dt
    if device is None:
        device = RandomDevice(seed=0)
    grid = surfaces.grid
    atol = 1e-9 + 0.05 * tol
    active_below = 1.0 - 1e-12
    report: dict = {}

    def payoffs(t, x):
        return [np.asarray(fn(t[None, :], x), dtype=float) for fn in (f, g, h)]

    for i in range(2):
        x = simulate_fixed_regime(model, i, n, dt, device.with_stream(device.stream + 10 + i))
        traj = strategies.evaluate(x)
        surface = surfaces.u[i].ravel()

        def flows(b):
            uvals = _lookup(surface, grid, traj.t, traj.p[b], x[b])
            zeta_pre, dz = _ref_left_limits(traj.zeta[b])
            stop, run = payoff_flows(*payoffs(traj.t, x[b]), traj.zeta[b], dz)
            return stop, run, 1.0 - zeta_pre, uvals

        m_hat, obstacle = _ref_assemble(flows, n, x.shape[1] - 1, +1.0, tol, alpha)
        active = traj.xi[i][:, :-1] < active_below
        report[f"(i) M0 regime {i}"] = _ref_mean_increment_checks(m_hat, active, +1.0, atol)
        report[f"(iii) obstacle U{i}"] = obstacle
        del x, traj, m_hat, active

    bundle = simulate_regime_paths(model, n, dt, device.with_stream(device.stream + 20))
    traj = strategies.evaluate(bundle.x, psi=bundle.psi)
    surface = surfaces.v.ravel()

    def flows(b):
        x, psi = bundle.x[b], bundle.psi[b]
        vvals = _lookup(surface, grid, traj.t, traj.p[b], x)
        fv, gv, hv = payoffs(traj.t, x)
        per_type = []
        for xi in traj.xi[:, b]:
            xi_pre, dxi = _ref_left_limits(xi)
            per_type.append((*payoff_flows(gv, fv, hv, xi, dxi), 1.0 - xi_pre))
        return (*((1.0 - psi) * k0 + psi * k1 for k0, k1 in zip(*per_type)), vvals)

    n_hat, obstacle = _ref_assemble(flows, n, bundle.x.shape[1] - 1, -1.0, tol, alpha)
    report["(ii) N0"] = _ref_mean_increment_checks(n_hat, traj.zeta[:, :-1] < active_below, -1.0, atol)
    report["(iv) obstacle V"] = obstacle

    point = (np.array([0.0]), np.array([model.prior]), np.array([model.x0]))
    v0, u0, u1 = (float(_lookup(s.ravel(), grid, *point)[0])
                  for s in (surfaces.v, *surfaces.u))
    gap = abs(v0 - ((1.0 - model.prior) * u0 + model.prior * u1))
    report["(v) root identity"] = {"residual": gap, "passed": bool(gap <= tol)}
    report["all_passed"] = all(
        entry["passed"] for key, entry in report.items() if isinstance(entry, dict)
    )
    return report
