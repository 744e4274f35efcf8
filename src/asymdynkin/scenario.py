"""Binary-regime stopping games where one player observes the regime.

The informed player (minimizer) has two incarnations, one per regime value;
the uninformed player (maximizer) holds a belief about the regime that is
updated from the opponent's inaction.  This module computes best-response
value surfaces by exact backward recursion and produces node-by-node
martingale, support and consistency reports together with two independent
saddle-point certifiers.  The backward recursion runs per level of the tree,
deepest first, with every node of a level updated at once; the root-to-leaf
sums use the tree's level-order scan.

Value surfaces are kept in un-normalized "hat" form (weighted by the
opponent's survival); normalization by survival divides them out with the
0/0 = 1 convention, so exhausted branches never see a division.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FiltrationTree,
    GeneratingProcess,
    IndexOutOfRangeError,
    PayoffTriple,
    ShapeMismatchError,
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
_SURVIVAL_FLOOR = 1e-15  # below this a survival weight counts as exhausted


@dataclass(frozen=True)
class ScenarioGame:
    """Finite tree + per-regime payoff triples + prior P(regime = 1)."""

    tree: FiltrationTree
    payoffs: PayoffTriple
    prior: float

    def __post_init__(self):
        if not self.payoffs.per_regime:
            raise ValueError("scenario games need regime-indexed payoffs (2, n_nodes)")
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
        return np.array([1.0 - self.prior, self.prior])


@dataclass(frozen=True)
class StrategyProfile:
    """Informed incarnations (xi0, xi1) and the uninformed process zeta."""

    xi0: GeneratingProcess
    xi1: GeneratingProcess
    zeta: GeneratingProcess

    def xi(self, i: int) -> GeneratingProcess:
        return self.xi1 if i else self.xi0

    def validate(self, tree: FiltrationTree) -> None:
        for name in ("xi0", "xi1", "zeta"):
            rep = validate_generating(getattr(self, name), tree)
            if not rep:
                raise ValueError(f"{name}: " + "; ".join(rep.violations))


def belief_update(prior: float, xi0_pre, xi1_pre):
    """Posterior P(regime=1 | no informed stop yet), with survivals 1-xi_pre.

    Returns (p, degenerate): where both survival weights vanish the belief is
    reported as the prior with the degenerate flag set.
    """
    s0 = (1.0 - prior) * (1.0 - np.asarray(xi0_pre, dtype=float))
    s1 = prior * (1.0 - np.asarray(xi1_pre, dtype=float))
    den = s0 + s1
    degenerate = den <= _SURVIVAL_FLOOR
    p = np.where(degenerate, prior, s1 / np.where(degenerate, 1.0, den))
    if p.ndim == 0:
        return float(p), bool(degenerate)
    return p, degenerate


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    dead = den <= _SURVIVAL_FLOOR
    return np.where(dead, 1.0, num / np.where(dead, 1.0, den))


@dataclass(frozen=True)
class ValueSurfaces:
    """Per-node best-response values of both players against a profile.

    ``u_hat[i]`` is the regime-i informed value weighted by the opponent's
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


def _informed_flows(game: ScenarioGame, zeta: GeneratingProcess):
    """(stop, run) flows of both informed incarnations against ``zeta``, (2, n) each."""
    pay = game.payoffs
    return payoff_flows(pay.f, pay.g, pay.h, zeta.levels, zeta.steps)


def _uninformed_flows(game: ScenarioGame, profile: StrategyProfile):
    """Prior-weighted (stop, run) flows of the uninformed player against (xi0, xi1)."""
    pay, w = game.payoffs, game.weights
    levels = np.array([profile.xi0.levels, profile.xi1.levels])
    steps = np.array([profile.xi0.steps, profile.xi1.steps])
    stop, run = payoff_flows(pay.g, pay.f, pay.h, levels, steps)
    return w @ stop, w @ run


def best_response_values(game: ScenarioGame, profile: StrategyProfile) -> ValueSurfaces:
    """Backward recursion for both players' best responses to ``profile``.

    Informed incarnation i (zeta fixed): at a leaf the stop value (h_i *
    dzeta, as zeta is 1 there); inside, min(stop, g_i * dzeta + E[next]).
    Uninformed (xi0, xi1 fixed): max of the prior-averaged stop bound against
    sum_i pi_i f_i dxi_i + E[next].  Ties prefer continuation.
    """
    tree, w = game.tree, game.weights
    n = tree.n_nodes
    if profile.zeta.n_nodes != n or profile.xi0.n_nodes != n or profile.xi1.n_nodes != n:
        raise ShapeMismatchError("profile node count disagrees with game tree")

    stop_u, run_u = _informed_flows(game, profile.zeta)
    stop_v, run_v = _uninformed_flows(game, profile)
    # rows: incarnation 0, incarnation 1, then the uninformed player negated,
    # so that every row minimizes (max(a, b) = -min(-a, -b) exactly)
    stop = np.vstack([stop_u, -stop_v])
    run = np.vstack([run_u, -run_v])
    hat = stop.copy()  # leaves stop; internal nodes are set level by level
    stops = np.zeros((3, n), dtype=bool)
    for lvl in reversed(tree.levels):
        lvl = lvl[~tree.is_leaf[lvl]]
        cont = run[:, lvl] + tree.expectation_step(hat)[:, lvl]
        stops[:, lvl] = stop[:, lvl] < cont
        hat[:, lvl] = np.where(stops[:, lvl], stop[:, lvl], cont)
    u_hat, v_hat = hat[:2], -hat[2]
    informed_stops, uninformed_stops = stops[:2], stops[2]

    zeta_pre = profile.zeta.pre_levels(tree)
    xi_pre = np.stack([profile.xi(i).pre_levels(tree) for i in range(2)])
    surv_v = w[0] * (1.0 - xi_pre[0]) + w[1] * (1.0 - xi_pre[1])
    u = _safe_ratio(u_hat, 1.0 - zeta_pre)
    v = _safe_ratio(v_hat, surv_v)
    p, degenerate = belief_update(game.prior, xi_pre[0], xi_pre[1])
    return ValueSurfaces(u_hat, v_hat, u, v, p, degenerate, informed_stops, uninformed_stops)


def _drift(tree: FiltrationTree, values: np.ndarray) -> np.ndarray:
    """One-step conditional drift at internal nodes (0 at leaves), per row."""
    d = tree.expectation_step(values) - values
    d[..., tree.is_leaf] = 0.0
    return d


@dataclass(frozen=True)
class MartingaleReport:
    """Exact one-step drifts of the auxiliary value systems.

    ``m0_drift[i]`` is the drift of sum_{s<t} g_i dzeta + u_hat_i (should be
    a submartingale, and a martingale wherever incarnation i still survives);
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
        return np.array([self.m0_drift[i][self.internal].min(initial=0.0) >= -self.tol for i in range(2)])

    @property
    def m0_martingale_on_active(self) -> np.ndarray:
        out = []
        for i in range(2):
            mask = self.internal & self.xi_active[i]
            out.append(np.abs(self.m0_drift[i][mask]).max(initial=0.0) <= self.tol)
        return np.array(out)

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


def _flow_density(stop, run, own: GeneratingProcess) -> np.ndarray:
    """Per-node summand of ``core.flow_value`` without the reach: stop dX + run (1 - X)."""
    return stop * own.steps + run * (1.0 - own.levels)


def _override_drift(tree: FiltrationTree, stop, run, own: GeneratingProcess, value_hat) -> np.ndarray:
    """Drift of (payoff flow of ``own`` before t) + (1 - own_pre) * value_hat.

    ``stop``/``run`` are one player's flows against the fixed opponent, so
    this serves either side with an arbitrary candidate strategy ``own``.
    """
    inc = _flow_density(stop, run, own)
    return _drift(tree, tree.accumulate_before(inc) + (1.0 - own.pre_levels(tree)) * value_hat)


def martingale_report(
    game: ScenarioGame,
    profile: StrategyProfile,
    surfaces: ValueSurfaces,
    xi_override: tuple[GeneratingProcess, GeneratingProcess] | None = None,
    zeta_override: GeneratingProcess | None = None,
    tol: float = DEFAULT_TOL,
) -> MartingaleReport:
    """Exact drift classification of the M/N systems at every node."""
    tree = game.tree
    stop_u, run_u = _informed_flows(game, profile.zeta)
    stop_v, run_v = _uninformed_flows(game, profile)

    m0_drift = _drift(tree, tree.accumulate_before(run_u) + surfaces.u_hat)
    n0_drift = _drift(tree, tree.accumulate_before(run_v) + surfaces.v_hat)

    m_over = None
    if xi_override is not None:
        m_over = np.stack([
            _override_drift(tree, stop_u[i], run_u[i], xi_override[i], surfaces.u_hat[i])
            for i in range(2)
        ])
    n_over = None
    if zeta_override is not None:
        n_over = _override_drift(tree, stop_v, run_v, zeta_override, surfaces.v_hat)

    return MartingaleReport(
        m0_drift=m0_drift,
        n0_drift=n0_drift,
        internal=~tree.is_leaf,
        xi_active=np.stack([profile.xi(i).levels < 1.0 - 1e-12 for i in range(2)]),
        zeta_active=profile.zeta.levels < 1.0 - 1e-12,
        tol=tol,
        m_override_drift=m_over,
        n_override_drift=n_over,
    )


@dataclass(frozen=True)
class SupportReport:
    """Support slacks and flat-off residuals of a profile at its surfaces.

    ``z[i] = u_hat_i - informed stop bound`` (non-positive at equilibrium),
    ``y2 = v_hat - uninformed stop bound`` (non-negative); the flat-off sums
    accumulate slack x stopping mass along each root-to-leaf path and vanish
    exactly when mass sits only where the slack is zero.  ``consistency`` is
    |<p, U> - V| on the still-in-play set Gamma2.
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


def support_report(
    game: ScenarioGame, profile: StrategyProfile, surfaces: ValueSurfaces
) -> SupportReport:
    tree = game.tree
    z = surfaces.u_hat - _informed_flows(game, profile.zeta)[0]
    y2 = surfaces.v_hat - _uninformed_flows(game, profile)[0]

    contrib_inf = z[0] * profile.xi0.steps + z[1] * profile.xi1.steps
    contrib_uni = y2 * profile.zeta.steps
    flat_inf = contrib_inf[tree.paths].sum(axis=1)
    flat_uni = contrib_uni[tree.paths].sum(axis=1)

    xi_pre = np.stack([profile.xi(i).pre_levels(tree) for i in range(2)])
    zeta_pre = profile.zeta.pre_levels(tree)
    gamma2 = (np.minimum(xi_pre[0], xi_pre[1]) < 1.0 - 1e-12) & (zeta_pre < 1.0 - 1e-12)
    consistency = np.abs(
        surfaces.p * surfaces.u[1] + (1.0 - surfaces.p) * surfaces.u[0] - surfaces.v
    )

    interior = ~tree.is_leaf
    simt = interior & (profile.zeta.steps > 1e-12) & (
        (profile.xi0.steps > 1e-12) | (profile.xi1.steps > 1e-12)
    )
    return SupportReport(z, y2, flat_inf, flat_uni, consistency, gamma2, np.flatnonzero(simt))


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
    tree, zeta = game.tree, profile.zeta
    start, sub, rel = tree.subtree
    density = _flow_density(*_uninformed_flows(game, profile), zeta)
    lhs = np.add.reduceat(rel * density[sub], start[:-1])
    return np.abs(lhs - (1.0 - zeta.pre_levels(tree)) * surfaces.v_hat)


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
    game: ScenarioGame,
    profile: StrategyProfile,
    surfaces: ValueSurfaces,
    tol: float = DEFAULT_TOL,
) -> Certificate:
    """Martingale-route sufficiency check of a candidate (profile, surfaces).

    Conditions: (i) informed systems are submartingales, (ii) the uninformed
    system is a supermartingale, (iii)/(iv) the normalized surfaces respect
    the stop bounds wherever the respective survival is positive, and (v) the
    root values match across players.  Certified implies value = V at root.
    A NaN fails every check it reaches.
    """
    tree, w = game.tree, game.weights
    report = martingale_report(game, profile, surfaces, tol=tol)
    violations: list[tuple[str, int, float]] = []

    for i in range(2):
        d = report.m0_drift[i]
        for node in np.flatnonzero(report.internal & ~(d >= -tol)):
            violations.append((f"(i) M0[{i}] submartingale", int(node), float(d[node])))
    d = report.n0_drift
    for node in np.flatnonzero(report.internal & ~(d <= tol)):
        violations.append(("(ii) N0 supermartingale", int(node), float(d[node])))

    zeta_pre = profile.zeta.pre_levels(tree)
    stop_u = _informed_flows(game, profile.zeta)[0]
    stop_v = _uninformed_flows(game, profile)[0]
    alive_u = ~(zeta_pre >= 1.0 - 1e-12)
    for i in range(2):
        resid = (surfaces.u_hat[i] - stop_u[i]) / np.maximum(1.0 - zeta_pre, _SURVIVAL_FLOOR)
        for node in np.flatnonzero(alive_u & ~(resid <= tol)):
            violations.append((f"(iii) obstacle U[{i}]", int(node), float(resid[node])))

    xi_pre = np.stack([profile.xi(i).pre_levels(tree) for i in range(2)])
    surv_v = w[0] * (1.0 - xi_pre[0]) + w[1] * (1.0 - xi_pre[1])
    alive_v = ~(surv_v <= _SURVIVAL_FLOOR)
    resid_v = (stop_v - surfaces.v_hat) / np.maximum(surv_v, _SURVIVAL_FLOOR)
    for node in np.flatnonzero(alive_v & ~(resid_v <= tol)):
        violations.append(("(iv) obstacle V", int(node), float(resid_v[node])))

    u0, v0 = surfaces.root_values()
    gap = abs(w[0] * u0[0] + w[1] * u0[1] - v0)
    if not gap <= tol:
        violations.append(("(v) root values", 0, float(gap)))

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
    u_root: np.ndarray | None = None,
    v_root: float | None = None,
    tol: float = DEFAULT_TOL,
    surfaces: ValueSurfaces | None = None,
) -> Certificate:
    """Pure-deviation sufficiency check of a candidate root-value triple.

    Verifies that no pure adapted stopping rule beats the candidate values
    against the candidate profile -- (i) per informed incarnation, (ii) for
    the uninformed player -- plus (iii) the root identity <prior, U0> = V0.
    The best pure deviation comes from one leaf-to-root pass in plan
    coordinates (``_best_pure_rules``), reach-weighted and independent of the
    best-response recursion; each check reports at most that deviation, at
    the smallest stop-node id of the rule.  A NaN fails every check.  Root
    values default to the supplied surfaces' roots.
    """
    tree, w = game.tree, game.weights
    if u_root is None or v_root is None:
        if surfaces is None:
            raise ValueError("need either root values or surfaces")
        u_root, v_root = surfaces.root_values()
    u_root = np.asarray(u_root, dtype=float)

    stop_u, run_u = _informed_flows(game, profile.zeta)
    stop_v, run_v = _uninformed_flows(game, profile)
    # the uninformed player maximizes: negated, its row minimizes as well
    best, _, first = _best_pure_rules(tree, np.vstack([stop_u, -stop_v]), np.vstack([run_u, -run_v]))
    violations: list[tuple[str, int, float]] = []
    for i in range(2):
        if not best[i] >= u_root[i] - tol:
            violations.append((f"(i) pure tau regime {i}", int(first[i]), float(best[i] - u_root[i])))
    if not -best[2] <= v_root + tol:
        violations.append(("(ii) pure sigma", int(first[2]), float(-best[2] - v_root)))

    gap = abs(w[0] * u_root[0] + w[1] * u_root[1] - v_root)
    if not gap <= tol:
        violations.append(("(iii) root values", 0, float(gap)))

    return Certificate(not violations, float(v_root), tuple(violations), tol)
