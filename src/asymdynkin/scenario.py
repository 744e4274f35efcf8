"""Regime stopping games where one player observes the regime.

The informed player (minimizer) has one incarnation per type, the regime it
observes; the uninformed player (maximizer) holds a belief about the type,
updated from the opponent's inaction.  A profile holds K processes ``xi[k]``;
K is read from ``game.weights`` or that axis, and every mix over the types is
the ordered sum ``core._type_mix``, so relabelling the types moves no bit.
Best-response surfaces come from exact backward recursion, per level of the
tree and deepest first; on them the module builds node-by-node martingale,
support and consistency reports and two independent saddle-point certifiers.

The player is an array axis: ``_players`` reads a profile into (K + 1, n) rows,
the K incarnations and then the uninformed player, and each report and
certificate states each saddle condition once over those rows.  The only sign
flip lets the maximizer's row minimize (``_minimizing``).

Value surfaces are kept in un-normalized "hat" form (weighted by the
opponent's survival); normalization by survival divides them out with the
0/0 = 1 convention, so exhausted branches never see a division.

Tolerances: the node-wise checks use ``DEFAULT_TOL`` = 1e-8; the oracle's
LP runs at HiGHS's feasibility tolerance 1e-10 (``oracle._LP_OPTIONS``) and
accepts a root duality gap up to ``oracle.GAP_TOL`` = 1e-9.  A hat drift of
tau at a node of reach r moves the root objective by about r tau, so an
epsilon-optimal vertex may drift by epsilon / r at a deep node, above 1e-8.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import (
    FiltrationTree,
    GeneratingProcess,
    IndexOutOfRangeError,
    PayoffTriple,
    ShapeMismatchError,
    _ACTIVE_BELOW,
    _SURVIVAL_FLOOR,
    _belief_weights,
    _mixed_flows,
    _posterior,
    _safe_ratio,
    _type_mix,
    payoff_flows,
    validate_generating,
)

__all__ = [
    "ScenarioGame",
    "StrategyProfile",
    "ValueSurfaces",
    "MartingaleReport",
    "SupportReport",
    "Certificate",
    "belief_update",
    "best_response_values",
    "martingale_report",
    "support_report",
    "ex_ante_check",
    "ex_ante_residuals",
    "certify_mart",
    "certify_stop",
]

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class ScenarioGame:
    """Finite tree + payoff triples for K = 2 types (regimes) + prior P(regime = 1)."""

    tree: FiltrationTree
    payoffs: PayoffTriple
    prior: float

    def __post_init__(self):
        pay = self.payoffs
        if any(a.ndim != 2 or a.shape[0] != 2 for a in (pay.f, pay.g, pay.h)):
            raise ShapeMismatchError("scenario payoffs need exactly two regime rows (2, n_nodes)")
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError("prior must lie in [0, 1]")

    def validate(self) -> None:
        self.tree.validate()
        self.payoffs.validate(self.tree)

    @property
    def weights(self) -> np.ndarray:
        return np.array(_belief_weights(self.prior))


@dataclass(frozen=True)
class StrategyProfile:
    """Informed incarnations ``xi[k]``, one per type, and the uninformed process zeta."""

    xi: tuple[GeneratingProcess, ...]
    zeta: GeneratingProcess

    xi0 = property(lambda self: self.xi[0], doc="The type-0 incarnation, ``xi[0]``.")
    xi1 = property(lambda self: self.xi[1], doc="The type-1 incarnation, ``xi[1]``.")

    def validate(self, tree: FiltrationTree) -> None:
        for name, proc in [*((f"xi{k}", x) for k, x in enumerate(self.xi)), ("zeta", self.zeta)]:
            rep = validate_generating(proc, tree)
            if not rep:
                raise ValueError(f"{name}: " + "; ".join(rep.violations))


def belief_update(prior: float, xi0_pre, xi1_pre):
    """Posterior P(regime=1 | no informed stop yet), with survivals 1-xi_pre.

    Returns (p, degenerate): where both survival weights vanish the belief is
    reported as the prior with the degenerate flag set.
    """
    survivals = [1.0 - np.asarray(x, dtype=float) for x in (xi0_pre, xi1_pre)]
    p, degenerate = _posterior(_belief_weights(prior), survivals, prior)
    if p.ndim == 0:
        return float(p), bool(degenerate)
    return p, degenerate


@dataclass(frozen=True)
class ValueSurfaces:
    """Per-node best-response values of both players against a profile.

    ``u_hat[k]`` (K rows) is the type-k informed value weighted by the opponent's
    survival (1 - zeta_pre); ``v_hat`` the uninformed value weighted by the
    prior-averaged informed survival.  ``u``/``v`` are the normalized
    versions, ``p`` the belief path, and the ``*_stops`` masks record the
    strict-preference stopping decisions of the recursion (ties continue).
    """

    u_hat: np.ndarray
    v_hat: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    degenerate: np.ndarray
    informed_stops: np.ndarray
    uninformed_stops: np.ndarray

    @property
    def value(self) -> float:
        """Root value of the uninformed player's problem."""
        return float(self.v_hat[0])

    def root_values(self) -> tuple[np.ndarray, float]:
        return self.u_hat[:, 0].copy(), float(self.v_hat[0])


_Players = namedtuple("_Players", "stop run levels steps pre surv")


def _players(game: ScenarioGame, profile: StrategyProfile) -> _Players:
    """Both players as rows, (K + 1, n) each: row k < K is incarnation k against zeta, row K
    the uninformed player against the incarnations, mixed by the prior (``_mixed_flows``).
    ``stop``/``run`` are each row's ``payoff_flows``, ``levels``, ``steps`` and ``pre`` its own process, ``surv``
    its opponent's survival.  Raises ``ShapeMismatchError`` unless the profile has the
    game's type and node counts."""
    tree, pay, w = game.tree, game.payoffs, game.weights
    procs = (*profile.xi, profile.zeta)
    if len(profile.xi) != len(w) or any(x.n_nodes != tree.n_nodes for x in procs):
        raise ShapeMismatchError("profile type or node count disagrees with game")
    levels, steps = np.array([x.levels for x in procs]), np.array([x.steps for x in procs])
    pre = np.array([x.pre_levels(tree) for x in procs])
    stop, run, surv = np.empty((3, *levels.shape))
    stop[:-1], run[:-1] = payoff_flows(pay.f, pay.g, pay.h, levels[-1], steps[-1])
    stop[-1], run[-1], surv[-1] = _mixed_flows(w, pay.g, pay.f, pay.h, levels[:-1], steps[:-1], pre[:-1])
    surv[:-1] = 1.0 - pre[-1]
    return _Players(stop, run, levels, steps, pre, surv)


def _minimizing(rows: np.ndarray) -> np.ndarray:
    """``rows`` with the uninformed row negated, so that every row minimizes
    (max(a, b) = -min(-a, -b) exactly)."""
    return np.concatenate([rows[:-1], -rows[-1:]])


def _root_gap(weights, u_root, v_root) -> float:
    """|<weights, U0> - V0|: the root identity's residual."""
    return float(abs(_type_mix(weights, u_root) - v_root))


def best_response_values(game: ScenarioGame, profile: StrategyProfile) -> ValueSurfaces:
    """Backward recursion for both players' best responses to ``profile``.

    Informed incarnation k (zeta fixed): at a leaf the stop value (h_k *
    dzeta, as zeta is 1 there); inside, min(stop, g_k * dzeta + E[next]).
    Uninformed (every xi_k fixed): max of the prior-mixed stop bound against
    sum_k w_k f_k dxi_k + E[next].  Ties prefer continuation.
    """
    tree = game.tree
    players = _players(game, profile)
    stop, run = _minimizing(players.stop), _minimizing(players.run)
    hat = stop.copy()  # leaves stop; internal nodes are set level by level
    stops = np.zeros(stop.shape, dtype=bool)
    for lvl in reversed(tree.levels):
        lvl = lvl[~tree.is_leaf[lvl]]
        cont = run[:, lvl] + tree.expectation_step(hat)[:, lvl]
        stops[:, lvl] = stop[:, lvl] < cont
        hat[:, lvl] = np.where(stops[:, lvl], stop[:, lvl], cont)
    hat[-1] = -hat[-1]  # the maximizer's values, back to their own sign

    normalized = _safe_ratio(hat, players.surv)
    p, degenerate = belief_update(game.prior, *players.pre[:-1])
    return ValueSurfaces(hat[:-1], hat[-1], normalized[:-1], normalized[-1], p, degenerate, stops[:-1], stops[-1])


def _drift(tree: FiltrationTree, values: np.ndarray) -> np.ndarray:
    """One-step conditional drift at internal nodes (0 at leaves), per row."""
    d = tree.expectation_step(values) - values
    d[..., tree.is_leaf] = 0.0
    return d


@dataclass(frozen=True)
class MartingaleReport:
    """Exact one-step drifts of the auxiliary value systems.

    ``m0_drift[k]`` is the drift of sum_{s<t} g_k dzeta + u_hat_k (should be
    a submartingale, and a martingale wherever incarnation k still survives);
    ``n0_drift`` the analogous supermartingale drift on the uninformed side.
    Override drifts check an arbitrary candidate strategy against the same
    equilibrium surfaces.
    """

    m0_drift: np.ndarray
    n0_drift: np.ndarray
    internal: np.ndarray
    xi_active: np.ndarray
    zeta_active: np.ndarray
    tol: float
    m_override_drift: np.ndarray | None = None
    n_override_drift: np.ndarray | None = None

    @property
    def m0_submartingale(self) -> np.ndarray:
        return self.m0_drift.min(axis=-1, initial=0.0, where=self.internal) >= -self.tol

    @property
    def m0_martingale_on_active(self) -> np.ndarray:
        mask = self.internal & self.xi_active
        return np.abs(self.m0_drift).max(axis=-1, initial=0.0, where=mask) <= self.tol

    @property
    def n0_supermartingale(self) -> bool:
        return bool(self.n0_drift[self.internal].max(initial=0.0) <= self.tol)

    @property
    def n0_martingale_on_active(self) -> bool:
        mask = self.internal & self.zeta_active
        return bool(np.abs(self.n0_drift[mask]).max(initial=0.0) <= self.tol)

    def node_classification(self, drift: np.ndarray) -> list[str]:
        """Per-node label for a drift array: martingale / sub / super / leaf."""
        drift = np.asarray(drift)
        return np.select(
            [~self.internal, np.abs(drift) <= self.tol, drift > self.tol],
            ["leaf", "martingale", "submartingale"],
            "supermartingale",
        ).tolist()

    @property
    def override_ok(self) -> bool:
        ok = True
        if self.m_override_drift is not None:
            ok &= bool(self.m_override_drift[:, self.internal].min(initial=0.0) >= -self.tol)
        if self.n_override_drift is not None:
            ok &= bool(self.n_override_drift[self.internal].max(initial=0.0) <= self.tol)
        return ok

    @property
    def ok(self) -> bool:
        return (
            bool(self.m0_submartingale.all())
            and bool(self.m0_martingale_on_active.all())
            and self.n0_supermartingale
            and self.n0_martingale_on_active
            and self.override_ok
        )


def _flow_density(stop, run, levels, steps) -> np.ndarray:
    """Per-node summand of ``core.flow_value`` without the reach: stop dX + run (1 - X)."""
    return stop * steps + run * (1.0 - levels)


def _override_drift(tree: FiltrationTree, stop, run, own: GeneratingProcess, value_hat) -> np.ndarray:
    """Drift of (payoff flow of ``own`` before t) + (1 - own_pre) * value_hat.

    ``stop``/``run`` are one player's flows against the fixed opponent, so
    this serves either side with an arbitrary candidate strategy ``own``.
    """
    inc = _flow_density(stop, run, own.levels, own.steps)
    return _drift(tree, tree.accumulate_before(inc) + (1.0 - own.pre_levels(tree)) * value_hat)


def martingale_report(
    game: ScenarioGame,
    profile: StrategyProfile,
    surfaces: ValueSurfaces,
    xi_override: tuple[GeneratingProcess, ...] | None = None,
    zeta_override: GeneratingProcess | None = None,
    tol: float = DEFAULT_TOL,
) -> MartingaleReport:
    """Exact drift classification of the M/N systems at every node."""
    tree = game.tree
    players = _players(game, profile)
    drift = _drift(tree, tree.accumulate_before(players.run) + np.vstack([surfaces.u_hat, surfaces.v_hat]))

    m_over = n_over = None
    if xi_override is not None:
        m_over = np.stack([_override_drift(tree, s, r, x, u) for s, r, x, u
                           in zip(players.stop[:-1], players.run[:-1], xi_override, surfaces.u_hat, strict=True)])
    if zeta_override is not None:
        n_over = _override_drift(tree, players.stop[-1], players.run[-1], zeta_override, surfaces.v_hat)

    active = players.levels < _ACTIVE_BELOW
    return MartingaleReport(drift[:-1], drift[-1], ~tree.is_leaf, active[:-1], active[-1], tol, m_over, n_over)


@dataclass(frozen=True)
class SupportReport:
    """Support slacks and flat-off residuals of a profile at its surfaces.

    ``z[k] = u_hat_k - informed stop bound`` (non-positive at equilibrium),
    ``y2 = v_hat - uninformed stop bound`` (non-negative); the flat-off sums
    accumulate slack x stopping mass along each root-to-leaf path and vanish
    exactly when mass sits only where the slack is zero.  ``consistency`` is
    |<belief, U> - V|, the belief (1 - p, p) mixing the K rows of U, on the
    still-in-play set Gamma2.
    """

    z: np.ndarray
    y2: np.ndarray
    flat_off_informed: np.ndarray
    flat_off_uninformed: np.ndarray
    consistency: np.ndarray
    gamma2: np.ndarray
    simultaneous_jumps: np.ndarray

    @property
    def max_z(self) -> float:
        return float(self.z.max())

    @property
    def min_y2(self) -> float:
        return float(self.y2.min())

    @property
    def max_flat_off(self) -> float:
        return max(
            float(np.abs(self.flat_off_informed).max(initial=0.0)),
            float(np.abs(self.flat_off_uninformed).max(initial=0.0)),
        )

    @property
    def max_consistency(self) -> float:
        vals = self.consistency[self.gamma2]
        return float(vals.max(initial=0.0))


def support_report(game: ScenarioGame, profile: StrategyProfile, surfaces: ValueSurfaces) -> SupportReport:
    tree = game.tree
    players = _players(game, profile)
    slack = np.vstack([surfaces.u_hat, surfaces.v_hat]) - players.stop
    contrib = _type_mix(players.steps[:-1], slack[:-1]), slack[-1] * players.steps[-1]
    flat_inf, flat_uni = (c[tree.paths].sum(axis=1) for c in contrib)

    gamma2 = (players.pre[:-1].min(axis=0) < _ACTIVE_BELOW) & (players.pre[-1] < _ACTIVE_BELOW)
    consistency = np.abs(_type_mix(_belief_weights(surfaces.p), surfaces.u) - surfaces.v)

    jumps = players.steps > 1e-12
    simt = ~tree.is_leaf & jumps[-1] & jumps[:-1].any(axis=0)
    return SupportReport(slack[:-1], slack[-1], flat_inf, flat_uni, consistency, gamma2, np.flatnonzero(simt))


def ex_ante_check(
    game: ScenarioGame, profile: StrategyProfile, surfaces: ValueSurfaces, node: int = 0
) -> float:
    """``ex_ante_residuals(game, profile, surfaces)[node]``, read from a memo.

    The first call for a (game, profile) computes the whole residual table and
    memoises it on ``surfaces``, keyed by the identity (``is``) of ``game`` and
    ``profile``, which the memo holds, so no other object can take over their
    ids; a call with another game or profile computes it again.  Like
    ``FiltrationTree.subtree``, the memo assumes that no array of the three is
    changed in place between calls.  Raises ``IndexOutOfRangeError`` for a
    node outside [0, n_nodes).
    """
    n = game.tree.n_nodes
    if not 0 <= node < n:
        raise IndexOutOfRangeError(f"node {node} outside [0, {n})")
    memo = surfaces.__dict__.get("_ex_ante")
    if memo is None or memo[0] is not game or memo[1] is not profile:
        memo = game, profile, ex_ante_residuals(game, profile, surfaces)
        surfaces.__dict__["_ex_ante"] = memo  # frozen: bypass __setattr__ as cached_property does
    return float(memo[2][node])


def ex_ante_residuals(
    game: ScenarioGame, profile: StrategyProfile, surfaces: ValueSurfaces
) -> np.ndarray:
    """|remaining-payoff expectation - survival x value| at every tree node.

    At node a the left side is sum over the subtree of a of rel(a, m) times
    the uninformed player's payoff flow at m, stop_m dzeta_m + run_m (1 -
    zeta_m), with rel the reach from a (``FiltrationTree.subtree``); the right
    side is (1 - zeta_pre(a)) v_hat(a).  The two agree to rounding at
    equilibrium, and at the root the residual is |E[P(xi, zeta)] - v_hat(root)|.
    One ``np.add.reduceat`` over the subtree table gives every node at once;
    ``ex_ante_check`` reads single nodes from a memo of this table.
    """
    start, sub, rel = game.tree.subtree
    stop, run, levels, steps, pre, _ = (rows[-1] for rows in _players(game, profile))  # the uninformed row
    lhs = np.add.reduceat(rel * _flow_density(stop, run, levels, steps)[sub], start[:-1])
    return np.abs(lhs - (1.0 - pre) * surfaces.v_hat)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a saddle-point certification."""

    certified: bool
    value: float
    violations: tuple[tuple[str, int, float], ...]
    tol: float

    @property
    def verdict(self) -> str:
        return "certified" if self.certified else "rejected"


def certify_mart(
    game: ScenarioGame, profile: StrategyProfile, surfaces: ValueSurfaces, tol: float = DEFAULT_TOL
) -> Certificate:
    """Martingale-route sufficiency check of a candidate (profile, surfaces).

    Conditions: (i) informed systems are submartingales, (ii) the uninformed
    system is a supermartingale, (iii)/(iv) the normalized surfaces respect
    the stop bounds wherever the respective survival is positive, and (v) the
    root values match across players.  Certified implies value = V at root.
    A NaN fails every check it reaches.
    """
    tree, k = game.tree, len(game.weights)
    players = _players(game, profile)
    hats = np.vstack([surfaces.u_hat, surfaces.v_hat])

    drift = _drift(tree, tree.accumulate_before(players.run) + hats)
    held = np.vstack([drift[:-1] >= -tol, drift[-1:] <= tol])
    names = [*(f"(i) M0[{i}] submartingale" for i in range(k)), "(ii) N0 supermartingale"]
    violations = [(name, int(node), float(d[node])) for name, ok, d in zip(names, held, drift)
                  for node in np.flatnonzero(~tree.is_leaf & ~ok)]

    # the informed surfaces lie below their stop bounds, the uninformed one above
    resid = np.vstack([hats[:-1] - players.stop[:-1], players.stop[-1:] - hats[-1:]])
    resid /= np.maximum(players.surv, _SURVIVAL_FLOOR)
    alive = np.vstack([np.tile(~(players.pre[-1] >= _ACTIVE_BELOW), (k, 1)),
                       ~(players.surv[-1:] <= _SURVIVAL_FLOOR)])
    names = [*(f"(iii) obstacle U[{i}]" for i in range(k)), "(iv) obstacle V"]
    violations += [(name, int(node), float(r[node])) for name, a, r in zip(names, alive, resid)
                   for node in np.flatnonzero(a & ~(r <= tol))]

    u0, v0 = surfaces.root_values()
    gap = _root_gap(game.weights, u0, v0)
    if not gap <= tol:
        violations.append(("(v) root values", 0, gap))

    return Certificate(not violations, float(v0), tuple(violations), tol)


def _best_pure_rules(tree: FiltrationTree, stop: np.ndarray, run: np.ndarray):
    """Least value over pure adapted rules for each row of (stop, run) flows.

    In sequence form (Koller, Megiddo & von Stengel 1996) the pure rules are
    the 0/1 realization plans: one stop per root-to-leaf path.  A rule's value
    sum_n r_n (stop_n dX_n + run_n (1 - X_n)), r the reach, is sum(r run) plus
    the plan cost p_n = r_n stop_n - (r run summed over the subtree of n) at
    each of its stop nodes.  The least sum of costs is W at the root, for
    W = p at leaves and W_n = min(p_n, sum of the children's W) inside: one
    pass from the leaves up, with no rule listed.  Returns (best, p, first),
    ``first`` being the smallest stop-node id of a minimizing rule that
    continues on ties.  A NaN anywhere reaches ``best``.
    """
    r = tree.reach
    sub = r * run  # r run, summed over each subtree level by level
    kids = np.zeros_like(sub)  # the children's W, summed
    p, w = np.empty_like(sub), np.empty_like(sub)
    take = np.empty(sub.shape, dtype=bool)
    for depth in range(tree.n_steps, -1, -1):
        lvl = tree.levels[depth]
        leaf = tree.is_leaf[lvl]
        p[:, lvl] = r[lvl] * stop[:, lvl] - sub[:, lvl]
        take[:, lvl] = leaf | (p[:, lvl] < kids[:, lvl])
        w[:, lvl] = np.where(leaf, p[:, lvl], np.minimum(p[:, lvl], kids[:, lvl]))
        if depth:
            np.add.at(sub, (slice(None), tree.parent[lvl]), sub[:, lvl])
            np.add.at(kids, (slice(None), tree.parent[lvl]), w[:, lvl])
    # the rule stops at the first node on each path where it takes the stop
    ids = np.where(take, np.arange(tree.n_nodes), tree.n_nodes)
    first = tree.scan(ids, np.minimum)[:, tree.leaves].min(axis=1)
    return sub[:, 0] + w[:, 0], p, first


def certify_stop(
    game: ScenarioGame,
    profile: StrategyProfile,
    surfaces: ValueSurfaces,
    tol: float = DEFAULT_TOL,
) -> Certificate:
    """Pure-deviation sufficiency check of a candidate root-value triple.

    Verifies that no pure adapted stopping rule beats the candidate values
    against the candidate profile -- (i) per informed incarnation, (ii) for
    the uninformed player -- plus (iii) the root identity <prior, U0> = V0.
    The candidate root values are those of ``surfaces``.
    The best pure deviation comes from one leaf-to-root pass in plan
    coordinates (``_best_pure_rules``), reach-weighted and independent of the
    best-response recursion; each check reports at most that deviation, at
    the smallest stop-node id of the rule.  A NaN fails every check.
    """
    u_root, v_root = surfaces.root_values()

    players = _players(game, profile)
    best, _, first = _best_pure_rules(game.tree, _minimizing(players.stop), _minimizing(players.run))
    violations: list[tuple[str, int, float]] = []
    for i, (b, u) in enumerate(zip(best[:-1], u_root, strict=True)):
        if not b >= u - tol:
            violations.append((f"(i) pure tau regime {i}", int(first[i]), float(b - u)))
    if not -best[-1] <= v_root + tol:
        violations.append(("(ii) pure sigma", int(first[-1]), float(-best[-1] - v_root)))

    gap = _root_gap(game.weights, u_root, v_root)
    if not gap <= tol:
        violations.append(("(iii) root values", 0, gap))

    return Certificate(not violations, float(v_root), tuple(violations), tol)
