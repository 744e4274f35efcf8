"""Finite-tree machinery for randomized-stopping games.

Time grids, filtration trees, generating processes (the conditional CDFs of
randomized stopping times), counter-based randomization devices, and the
exact evaluation of the first-to-stop payoff

    P(tau, sigma) = f_tau 1{tau<sigma} + h_tau 1{tau=sigma} + g_sigma 1{sigma<tau}.

On a tree with generating processes X (own) and Z (opponent) this becomes the
flow f (1-Z) dX + g (1-X) dZ + h dX dZ.  Against a fixed opponent the flow is
linear in the player's own process, so ``payoff_flows`` is the single place
that combines payoffs with the opponent's process: it returns a (stop, run)
pair, and ``flow_value`` integrates that pair against any own process.  Every
exact payoff, pure-rule matrix, stop bound and drift in the tree pipeline is
built from these two functions.

Everything is node-indexed: a per-node array is automatically adapted because
a node *is* its own history.  Node ids are topological (parents first) and a
valid tree has all its leaves at the final depth, so the nodes fall into the
``n_steps + 1`` levels of ``FiltrationTree.levels``.  Every root-to-leaf
recursion -- reach, levels of a process from its steps, sums over ancestors,
stop indicators and first stops -- is the one level-order scan
``FiltrationTree.scan``; every leaf-to-root one is a loop over the levels
bottom-up around ``FiltrationTree.expectation_step``.  Sums over the nodes
below a node, weighted by the probability of reaching them from it, read the
cached subtree table ``FiltrationTree.subtree``: one entry per
(node, ancestor-or-self) pair, grouped by ancestor, so one node's sum costs
the size of its subtree and every node's sum is one ``np.add.reduceat``.

The belief rules both pipelines share are stated once, here: the weights
(1 - p, p) of a belief p, ``_belief_weights``; every mix over the types,
``_type_mix``; a player's flows against the K opponent rows, mixed by those
weights, ``_mixed_flows``; the Bayes update ``_posterior``; the thresholds
``_SURVIVAL_FLOOR`` (survival exhausted) and ``_ACTIVE_BELOW`` (still in play).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "TimeGrid",
    "FiltrationTree",
    "RandomDevice",
    "GeneratingProcess",
    "PayoffTriple",
    "ValidationReport",
    "ShapeMismatchError",
    "IndexOutOfRangeError",
    "binary_tree",
    "validate_generating",
    "payoff_flows",
    "flow_value",
    "expected_payoff_exact",
]

MONOTONE_TOL = 1e-12  # absolute slack for prefix-sum rounding
_SURVIVAL_FLOOR = 1e-15  # at or below this a survival weight counts as exhausted
_ACTIVE_BELOW = 1.0 - 1e-12  # a player whose level is below this is still in play


class ShapeMismatchError(ValueError):
    """Node count of a per-node array disagrees with the tree."""


class IndexOutOfRangeError(IndexError):
    """A node id lies outside the tree."""


def json_numbers(key: str, value, shape: tuple | None = None, integer: bool = False) -> np.ndarray:
    """The JSON numbers ``value`` (of ``shape``, if given) as float64, or int64 if ``integer``.

    Booleans, strings, nulls, objects, ragged nesting, integers past 64 bits
    and, where ``integer`` asks for integers, fractions are refused with a
    ValueError that names ``key``; NaN and infinities pass, for the readers'
    own checks to report.
    """
    try:
        arr = np.array(value)  # no dtype: strings, booleans and nulls keep theirs
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"{key}: {exc}") from None
    kinds = "iu" if integer else "iuf"
    if (arr.size and arr.dtype.kind not in kinds) or shape not in (None, arr.shape):
        what = "integers" if integer else "numbers"
        need = "" if shape is None else f" of shape {shape}"
        raise ValueError(f"{key}: need JSON {what}{need}, got shape {arr.shape} of {arr.dtype}")
    # a value past int64 raises OverflowError ("Python int too large") here
    return np.array(value, dtype=np.int64 if integer else float)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times t_0 = 0 < t_1 < ... < t_N = horizon."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid times must be finite")
        if pts[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid times must be strictly increasing")

    @property
    def n_steps(self) -> int:
        return self.points.size - 1

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @staticmethod
    def regular(n_steps: int) -> "TimeGrid":
        return TimeGrid(np.linspace(0.0, 1.0, n_steps + 1))


@dataclass(frozen=True)
class FiltrationTree:
    """Finite filtration tree; node ids are topological (parents first).

    ``parent[i]`` is -1 for the root, ``prob[i]`` the transition probability
    from the parent (1.0 at the root).  All leaves sit at the final depth.
    """

    parent: np.ndarray
    prob: np.ndarray
    grid: TimeGrid | None = None

    def __post_init__(self):
        parent = np.asarray(self.parent, dtype=np.int64)
        prob = np.asarray(self.prob, dtype=float)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "prob", prob)
        if parent.shape != prob.shape or parent.ndim != 1 or parent.size == 0:
            raise ValueError("parent/prob must be non-empty 1-d arrays of equal length")
        if parent[0] != -1 or np.any(parent[1:] < 0) or np.any(parent[1:] >= np.arange(1, parent.size)):
            raise ValueError("node ids must be topological with a single root at 0")

    @property
    def n_nodes(self) -> int:
        return self.parent.size

    @cached_property
    def depth(self) -> np.ndarray:
        # pointer jumping: ``d`` counts the steps from each node up to ``anc``,
        # and every round doubles the jump until ``anc`` is the root
        d = (self.parent >= 0).astype(np.int64)
        anc = self.parent.copy()
        live = anc > 0
        while live.any():
            up = anc[live]
            d[live] += d[up]
            anc[live] = anc[up]
            live = anc > 0
        return d

    @cached_property
    def levels(self) -> tuple[np.ndarray, ...]:
        """Node ids by depth, ascending: ``levels[k]`` holds the nodes at grid time k."""
        by_depth = np.argsort(self.depth, kind="stable")
        return tuple(np.split(by_depth, np.cumsum(np.bincount(self.depth))[:-1]))

    def scan(self, values: np.ndarray, op) -> np.ndarray:
        """Root-to-leaf scan along the last axis, one level at a time.

        ``out[..., lvl] = op(out[..., parent[lvl]], values[..., lvl])`` below
        the root, which keeps its ``values``.
        """
        out = np.array(values, copy=True)
        for lvl in self.levels[1:]:
            out[..., lvl] = op(out[..., self.parent[lvl]], values[..., lvl])
        return out

    @property
    def n_steps(self) -> int:
        return len(self.levels) - 1

    @cached_property
    def subtree(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(start, node, rel): every node's descendants-or-self, grouped by node.

        The descendants-or-self of ``a`` are ``node[start[a]:start[a + 1]]``
        (``a`` first) and ``rel`` is the product of transition probabilities
        from ``a`` down to each of them, so ``rel`` is 1 at ``a`` itself.  One
        (node, ancestor-or-self) pair per entry: 12 bytes each, node ids int32.
        """
        # climb every node one level per round, carrying the running product
        node = anc = np.arange(self.n_nodes)
        rel = np.ones(self.n_nodes)
        pairs = []
        while node.size:
            pairs.append((node, anc, rel))
            up = anc > 0
            node, rel, anc = node[up], rel[up] * self.prob[anc[up]], self.parent[anc[up]]
        node, anc, rel = (np.concatenate(k) for k in zip(*pairs))
        order = np.argsort(anc, kind="stable")
        start = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(anc, minlength=self.n_nodes), out=start[1:])
        return start, node[order].astype(np.int32), rel[order]

    @cached_property
    def children(self) -> list[np.ndarray]:
        kids = np.argsort(self.parent[1:], kind="stable") + 1
        return np.split(kids, np.cumsum(np.bincount(self.parent[1:], minlength=self.n_nodes))[:-1])

    @cached_property
    def is_leaf(self) -> np.ndarray:
        return np.bincount(self.parent[1:], minlength=self.n_nodes) == 0

    @cached_property
    def leaves(self) -> np.ndarray:
        return np.flatnonzero(self.is_leaf)

    @cached_property
    def reach(self) -> np.ndarray:
        """Probability of reaching each node from the root."""
        prob = self.prob.copy()
        prob[0] = 1.0
        return self.scan(prob, np.multiply)

    def _leaf_depth_error(self, leaf: int) -> ValueError:
        return ValueError(f"leaf {leaf} at depth {self.depth[leaf]} != {self.n_steps}")

    @cached_property
    def paths(self) -> np.ndarray:
        """(n_leaves, n_steps+1) node ids along each root-to-leaf path.

        Raises ValueError when a leaf sits above the final depth, since its
        path would be shorter than a row.
        """
        shallow = self.leaves[self.depth[self.leaves] != self.n_steps]
        if shallow.size:
            raise self._leaf_depth_error(shallow[0])
        out = np.empty((self.leaves.size, self.n_steps + 1), dtype=np.int64)
        out[:, -1] = self.leaves
        for k in range(self.n_steps, 0, -1):
            out[:, k - 1] = self.parent[out[:, k]]
        return out

    def validate(self) -> None:
        """Raise ValueError on any structural violation."""
        depth, n_steps, leaf = self.depth, self.n_steps, self.is_leaf
        nonfinite = np.flatnonzero(~np.isfinite(self.prob))
        if nonfinite.size:
            i = nonfinite[0]
            raise ValueError(f"non-finite transition probability {float(self.prob[i])!r} at node {i}")
        sums = np.bincount(self.parent[1:], weights=self.prob[1:], minlength=self.n_nodes)
        bad_sum = ~leaf & (np.abs(sums - 1.0) > MONOTONE_TOL)
        bad = np.flatnonzero(bad_sum | (leaf & (depth != n_steps)))
        if bad.size:
            i = bad[0]
            if bad_sum[i]:
                s = self.prob[self.parent == i].sum()  # np.sum's rounding, not bincount's
                raise ValueError(f"children probabilities of node {i} sum to {s!r}")
            raise self._leaf_depth_error(i)
        if np.any(self.prob < -MONOTONE_TOL):
            raise ValueError("negative transition probability")
        if self.grid is not None and self.grid.n_steps != n_steps:
            raise ShapeMismatchError("grid step count disagrees with tree depth")

    def check_nodes(self, arr: np.ndarray, name: str = "array") -> np.ndarray:
        arr = np.asarray(arr, dtype=float)
        if arr.shape[-1] != self.n_nodes:
            raise ShapeMismatchError(
                f"{name} has {arr.shape[-1]} entries for a tree with {self.n_nodes} nodes"
            )
        return arr

    def expectation_step(self, values: np.ndarray) -> np.ndarray:
        """One-step conditional expectation E[X_child | node]; 0 at leaves.

        Broadcasts over leading axes, so stacked rows give stacked expectations.
        """
        values = np.asarray(values, dtype=float)
        weighted = self.prob[1:] * values.reshape(-1, self.n_nodes)[:, 1:]
        rows = [np.bincount(self.parent[1:], weights=w, minlength=self.n_nodes) for w in weighted]
        return np.reshape(rows, values.shape)

    def accumulate_before(self, increments: np.ndarray) -> np.ndarray:
        """Per node n: sum of ``increments`` over strict ancestors of n."""
        increments = np.asarray(increments, dtype=float)
        at_parent = np.zeros(increments.shape)
        at_parent[..., 1:] = increments[..., self.parent[1:]]
        return self.scan(at_parent, np.add)


def binary_tree(n_steps: int, p_up: float = 0.5) -> FiltrationTree:
    """Full binary tree of the given depth with branch probability ``p_up``.

    Nodes are numbered level by level: node i > 0 has parent (i - 1) // 2 and
    is the up branch when i is odd.
    """
    ids = np.arange(1, 2 ** (n_steps + 1) - 1)
    parent = np.concatenate([[-1], (ids - 1) // 2])
    prob = np.concatenate([[1.0], np.where(ids % 2 == 1, p_up, 1.0 - p_up)])
    return FiltrationTree(parent, prob, TimeGrid.regular(n_steps))


@dataclass(frozen=True)
class RandomDevice:
    """Counter-based uniform generator keyed by (seed, stream).

    Identical (seed, stream) pairs reproduce identical draws; distinct
    streams are independent, so each player's randomization device and the
    path sampler get their own stream.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def uniforms(self, n: int) -> np.ndarray:
        return self.generator().random(n)

    def with_stream(self, stream: int) -> "RandomDevice":
        return replace(self, stream=stream)


@dataclass(frozen=True)
class GeneratingProcess:
    """Non-decreasing node-indexed process with terminal value 1.

    ``levels[n]`` is the CDF level at node n, ``steps[n]`` the increment over
    the parent (over 0 at the root).  Increments are stored alongside levels
    to avoid cancellation; levels are recomputed as prefix sums only for
    validation.
    """

    levels: np.ndarray
    steps: np.ndarray

    @staticmethod
    def from_levels(levels: np.ndarray, tree: FiltrationTree) -> "GeneratingProcess":
        levels = tree.check_nodes(levels, "levels").copy()
        steps = levels.copy()
        steps[1:] -= levels[tree.parent[1:]]
        return GeneratingProcess(levels, steps)

    @staticmethod
    def from_steps(steps: np.ndarray, tree: FiltrationTree) -> "GeneratingProcess":
        steps = tree.check_nodes(steps, "steps").copy()
        return GeneratingProcess(tree.scan(steps, np.add), steps)

    @staticmethod
    def jump_at_depth(k: int, tree: FiltrationTree) -> "GeneratingProcess":
        """Pure process jumping to 1 at grid time k on every path."""
        return GeneratingProcess.from_levels((tree.depth >= k).astype(float), tree)

    def pre_levels(self, tree: FiltrationTree) -> np.ndarray:
        """Left limits: the level strictly before each node (0 at the root)."""
        pre = np.zeros(tree.n_nodes)
        pre[1:] = self.levels[tree.parent[1:]]
        return pre

    @property
    def n_nodes(self) -> int:
        return self.levels.size


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_generating(proc: GeneratingProcess, tree: FiltrationTree) -> ValidationReport:
    """Check a generating process against Def-2.2-style invariants.

    Returns a report listing violations tagged ``ShapeMismatch``,
    ``NonFinite``, ``NotMonotone`` or ``TerminalNotOne``; an empty list means OK.
    """
    violations: list[str] = []
    if proc.levels.shape != (tree.n_nodes,) or proc.steps.shape != (tree.n_nodes,):
        return ValidationReport(False, (f"ShapeMismatch: {proc.levels.shape[0]} values for {tree.n_nodes} nodes",))
    finite = np.isfinite(proc.levels) & np.isfinite(proc.steps)
    for i in np.flatnonzero(~finite):
        violations.append(f"NonFinite: level {float(proc.levels[i])!r}, "
                          f"increment {float(proc.steps[i])!r} at node {i}")
    bad = np.flatnonzero(proc.steps < -MONOTONE_TOL)
    for i in bad:
        violations.append(f"NotMonotone: negative increment {proc.steps[i]!r} at node {i}")
    # recompute levels as prefix sums and compare; a non-finite process is rejected above
    if finite.all():
        drift = proc.levels - GeneratingProcess.from_steps(proc.steps, tree).levels
        if np.max(np.abs(drift)) > 1e-9:
            violations.append("NotMonotone: levels are not the prefix sums of the increments")
    leaves = tree.leaves
    for leaf in leaves[np.abs(proc.levels[leaves] - 1.0) > 1e-9]:
        violations.append(f"TerminalNotOne: level {proc.levels[leaf]!r} at leaf {leaf}")
    return ValidationReport(not violations, tuple(violations))


@dataclass(frozen=True)
class PayoffTriple:
    """Payoff processes with f >= h >= g at every node (and regime)."""

    f: np.ndarray
    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        for name in ("f", "g", "h"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def validate(self, tree: FiltrationTree) -> None:
        for name in ("f", "g", "h"):
            if getattr(self, name).shape[-1] != tree.n_nodes:
                raise ShapeMismatchError(f"payoff {name} has wrong node count")
        self.check_order()

    def check_order(self) -> None:
        """The payoff rule: raise ValueError unless f, g and h are finite with
        f >= h >= g (1e-12 slack)."""
        for name in ("f", "g", "h"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"payoff {name} contains non-finite values")
        if np.any(self.f < self.h - 1e-12) or np.any(self.h < self.g - 1e-12):
            raise ValueError("ordering f >= h >= g violated")


def payoff_flows(
    own_first: np.ndarray,
    opp_first: np.ndarray,
    tie: np.ndarray,
    opp_levels: np.ndarray,
    opp_steps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node payoff flows of one player against a fixed opponent process.

    Returns (stop, run): ``stop = own_first (1 - Z) + tie dZ`` is paid per
    unit of the player's own stopping mass, ``run = opp_first dZ`` per unit
    of its survival.  Broadcasts over leading axes, so stacked regimes or
    stacked pure opponent rules give stacked flows.
    """
    return own_first * (1.0 - opp_levels) + tie * opp_steps, opp_first * opp_steps


def flow_value(
    reach: np.ndarray,
    stop: np.ndarray,
    run: np.ndarray,
    own_levels: np.ndarray,
    own_steps: np.ndarray,
) -> np.ndarray:
    """Sum over nodes of reach * (stop dX + run (1 - X)) for own process X.

    With stacked own rows (R, n) and stacked flows (C, n) the result is the
    (R, C) matrix of all pairings; 1-d arguments contract to a vector or a
    scalar.
    """
    return (own_steps * reach) @ stop.T + ((1.0 - own_levels) * reach) @ run.T


def _type_mix(weights, values):
    """sum_k weights[k] values[k] over the leading (type) axis, added in type order from the
    first term, not from 0, so a -0.0 keeps its sign; every mix over the types goes through here."""
    total = weights[0] * values[0]
    for k in range(1, len(weights)):
        total = total + weights[k] * values[k]
    return total


def _belief_weights(p):
    """The type weights (1 - p, p) of a belief p = P(type 1), for ``_type_mix``."""
    return 1.0 - p, p


def _mixed_flows(weights, own_first, opp_first, tie, opp_levels, opp_steps, opp_pre):
    """(stop, run, survival) of a player against K opponent rows, each mixed by ``weights``.

    The rows lead with the type axis: ``payoff_flows`` against each opponent
    row, and the survival 1 - ``opp_pre``, then ``_type_mix`` over that axis.
    """
    stop, run = payoff_flows(own_first, opp_first, tie, opp_levels, opp_steps)
    return tuple(_type_mix(weights, kind) for kind in (stop, run, 1.0 - opp_pre))


def _safe_ratio(num, den, fallback=1.0):
    """num / den, or ``fallback`` where den is at or below ``_SURVIVAL_FLOOR`` (exhausted)."""
    dead = den <= _SURVIVAL_FLOOR
    return np.where(dead, fallback, num / np.where(dead, 1.0, den))


def _posterior(weights, survivals, fallback):
    """(p, degenerate): P(type 1) = w_1 s_1 / sum_k w_k s_k after survivals s_k, and the
    mask of where that sum is exhausted and p is ``fallback``."""
    den = _type_mix(weights, survivals)
    return _safe_ratio(weights[1] * survivals[1], den, fallback), den <= _SURVIVAL_FLOOR


def _exact_single(
    tree: FiltrationTree,
    f: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    xi: GeneratingProcess,
    zeta: GeneratingProcess,
) -> float:
    # discrete Lebesgue-Stieltjes form: the f and g terms die at leaves since
    # both levels are 1 there, leaving the h-tie term
    tree.check_nodes(xi.levels, "xi")
    tree.check_nodes(zeta.levels, "zeta")
    stop, run = payoff_flows(f, g, h, zeta.levels, zeta.steps)
    return float(flow_value(tree.reach, stop, run, xi.levels, xi.steps))


def expected_payoff_exact(
    tree: FiltrationTree,
    payoffs: PayoffTriple,
    xi,
    zeta: GeneratingProcess,
    prior: float,
) -> float:
    """Exact expected payoff of a randomized profile of the regime game.

    ``payoffs`` holds one row per regime and ``xi`` one informed incarnation
    per row, in row order; the expectation mixes the per-regime values with
    the weights (1 - prior, prior) of the prior P(J = 1).
    """
    values = [_exact_single(tree, f, g, h, x, zeta)
              for f, g, h, x in zip(payoffs.f, payoffs.g, payoffs.h, xi, strict=True)]
    return _type_mix(_belief_weights(prior), values)
