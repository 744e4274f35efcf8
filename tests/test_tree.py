"""Level-order tree code against per-node references, and tree validation.

The random trees mix arities 1-3 with random branch probabilities, keep all
leaves at the final depth and are numbered either level by level or depth
first, so a level's node ids need not be contiguous.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymdynkin.core import (
    FiltrationTree,
    GeneratingProcess,
    ShapeMismatchError,
    TimeGrid,
    binary_tree,
)
from asymdynkin.gamegen import random_profile
from asymdynkin.scenario import best_response_values, ex_ante_check, ex_ante_residuals, support_report

from helpers import (
    random_game,
    random_tree,
    ref_accumulate_before,
    ref_best_response,
    ref_children,
    ref_depth,
    ref_ex_ante,
    ref_expectation_step,
    ref_from_steps,
    ref_paths,
    ref_reach,
    ref_relative_reach,
    ref_stopped_by,
)


trees = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans())


class TestLevelOrderAgainstPerNodeReferences:
    @given(trees)
    @settings(max_examples=40, deadline=None)
    def test_root_to_leaf_quantities_exact(self, spec):
        seed, depth, depth_first = spec
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, depth, depth_first)
        tree.validate()
        n = tree.n_nodes

        d = ref_depth(tree)
        np.testing.assert_array_equal(tree.depth, d)
        assert len(tree.levels) == depth + 1
        for k, lvl in enumerate(tree.levels):
            np.testing.assert_array_equal(lvl, np.flatnonzero(d == k))
        kids = ref_children(tree)
        assert [c.tolist() for c in tree.children] == kids
        np.testing.assert_array_equal(tree.is_leaf, [not c for c in kids])
        np.testing.assert_array_equal(tree.reach, ref_reach(tree))
        np.testing.assert_array_equal(tree.paths, ref_paths(tree))

        inc = rng.normal(size=n)
        np.testing.assert_array_equal(tree.accumulate_before(inc), ref_accumulate_before(tree, inc))
        prof = random_profile(tree, seed=seed % 1000)
        for proc in (prof.xi0, prof.zeta):
            np.testing.assert_array_equal(
                GeneratingProcess.from_steps(proc.steps, tree).levels, ref_from_steps(tree, proc.steps)
            )
        for q in (0.1, 0.4, 0.8):
            stops = rng.random(n) < q
            np.testing.assert_array_equal(tree.scan(stops.astype(float), np.maximum),
                                          ref_stopped_by(tree, stops))

    @given(trees)
    @settings(max_examples=30, deadline=None)
    def test_leaf_to_root_quantities_close(self, spec):
        seed, depth, depth_first = spec
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, depth, depth_first)
        game = random_game(rng, tree)
        prof = random_profile(tree, seed=seed % 1000 + 1)

        rows = rng.normal(size=(3, tree.n_nodes))
        expected = np.stack([ref_expectation_step(tree, r) for r in rows])
        np.testing.assert_allclose(tree.expectation_step(rows), expected, rtol=0, atol=1e-14)
        np.testing.assert_allclose(tree.expectation_step(rows[0]), expected[0], rtol=0, atol=1e-14)

        surf = best_response_values(game, prof)
        u_hat, v_hat, i_stops, u_stops = ref_best_response(game, prof)
        np.testing.assert_allclose(surf.u_hat, u_hat, rtol=0, atol=1e-14)
        np.testing.assert_allclose(surf.v_hat, v_hat, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(surf.informed_stops, i_stops)
        np.testing.assert_array_equal(surf.uninformed_stops, u_stops)
        for node in range(tree.n_nodes):
            assert abs(ex_ante_check(game, prof, surf, node)
                       - ref_ex_ante(game, prof, surf.v_hat, node)) <= 1e-14

    @pytest.mark.parametrize("seed, digest", [
        (0, "8fed490448a6bad513b6ef6705ae93006d84e2a1fba972390e366fb63551bb09"),
        (12345, "a1611768b3aab2ea38474e325967d560a67d2fa1a0031a66770ba98fce6976f8"),
    ])
    def test_random_profile_pinned(self, seed, digest):
        # sha256 of the levels as the per-node loop drew them: the level scan
        # does the same arithmetic on the same draws, node by node
        prof = random_profile(binary_tree(10), seed)
        levels = np.concatenate([prof.xi0.levels, prof.xi1.levels, prof.zeta.levels])
        assert hashlib.sha256(levels.tobytes()).hexdigest() == digest

    def test_leaves_above_the_final_depth(self):
        # backward recursion reads leaves off is_leaf, not off the last level
        tree = FiltrationTree(np.array([-1, 0, 0, 1, 1]), np.array([1.0, 0.3, 0.7, 0.5, 0.5]))
        game = random_game(np.random.default_rng(3), tree)
        prof = random_profile(tree, seed=4)
        surf = best_response_values(game, prof)
        u_hat, v_hat, i_stops, u_stops = ref_best_response(game, prof)
        np.testing.assert_allclose(surf.u_hat, u_hat, rtol=0, atol=1e-15)
        np.testing.assert_allclose(surf.v_hat, v_hat, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(surf.informed_stops, i_stops)
        np.testing.assert_array_equal(surf.uninformed_stops, u_stops)

    def test_paths_reject_a_leaf_above_the_final_depth(self):
        # a path row of a shallow leaf would start with -1 and index the last node
        tree = FiltrationTree(np.array([-1, 0, 0, 1, 1]), np.array([1.0, 0.3, 0.7, 0.5, 0.5]))
        with pytest.raises(ValueError, match="^leaf 2 at depth 1 != 2$"):
            tree.paths
        game = random_game(np.random.default_rng(3), tree)
        prof = random_profile(tree, seed=4)
        with pytest.raises(ValueError, match="^leaf 2 at depth 1 != 2$"):
            support_report(game, prof, best_response_values(game, prof))


def _check_subtree_table(tree):
    """Blocks are the descendants-or-self, node first, with the per-node relative reach."""
    start, node, rel = tree.subtree
    n = tree.n_nodes
    assert start.shape == (n + 1,) and start[0] == 0 and start[-1] == node.size == rel.size
    # with every transition probability 1, the relative reach marks the subtree
    unit = FiltrationTree(tree.parent, np.ones(n))
    for a in range(n):
        block = slice(start[a], start[a + 1])
        assert node[block][0] == a
        np.testing.assert_array_equal(np.sort(node[block]), np.flatnonzero(ref_relative_reach(unit, a)))
        np.testing.assert_allclose(rel[block], ref_relative_reach(tree, a)[node[block]], rtol=0, atol=1e-15)


def _check_residuals(tree, seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, tree)
    prof = random_profile(tree, seed=seed % 1000 + 2)
    surf = best_response_values(game, prof)
    per_node = [ref_ex_ante(game, prof, surf.v_hat, node) for node in range(tree.n_nodes)]
    np.testing.assert_allclose(ex_ante_residuals(game, prof, surf), per_node, rtol=0, atol=1e-13)


class TestSubtreeTable:
    @given(trees)
    @settings(max_examples=40, deadline=None)
    def test_random_trees(self, spec):
        seed, depth, depth_first = spec
        tree = random_tree(np.random.default_rng(seed), depth, depth_first)
        _check_subtree_table(tree)
        _check_residuals(tree, seed)

    def test_zero_probability_branch(self):
        # every up branch has probability 0: half of each block has rel 0
        tree = binary_tree(4, p_up=0.0)
        _check_subtree_table(tree)
        assert np.count_nonzero(tree.subtree[2] == 0.0) > 0
        _check_residuals(tree, 9)

    def test_memory_is_the_pairs(self):
        # 12 bytes per (node, ancestor-or-self) pair and 8 per start offset,
        # and nothing else of that size stays behind after the build
        tree = binary_tree(10)
        n = tree.n_nodes
        tracemalloc.start()
        try:
            table = tree.subtree
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        pairs = table[1].size
        assert pairs == sum((d + 1) * 2**d for d in range(11))
        bound = 12 * pairs + 8 * (n + 1)
        assert sum(a.nbytes for a in table) <= bound
        assert held <= bound + 4096


class TestFiltrationTreeValidate:
    @pytest.mark.parametrize("parent, prob, message", [
        ([-1, 0, 0], [1.0, 0.5, 0.4], "children probabilities of node 0 sum to np.float64(0.9)"),
        ([-1, 0, 0, 1, 1, 1, 2], [1.0, 0.5, 0.5, 0.5, 0.3, 0.1, 1.0],
         "children probabilities of node 1 sum to np.float64(0.9)"),
        ([-1, 0, 0, 1, 2, 1], [1.0, 0.5, 0.5, 0.7, 1.0, 0.2],
         "children probabilities of node 1 sum to np.float64(0.8999999999999999)"),
        ([-1, 0, 0, 1], [1.0, 0.5, 0.5, 1.0], "leaf 2 at depth 1 != 2"),
        ([-1, 0, 0, 2, 2, 3], [1.0, 0.5, 0.5, 0.7, 0.2, 1.0], "leaf 1 at depth 1 != 3"),
        ([-1, 0, 0], [1.0, 1.5, -0.5], "negative transition probability"),
    ], ids=["sum_at_root", "sum_of_three", "sum_noncontiguous", "leaf_above",
            "leaf_before_bad_sum", "negative"])
    def test_structural_violation_names_first_node(self, parent, prob, message):
        tree = FiltrationTree(np.array(parent), np.array(prob))
        with pytest.raises(ValueError) as info:
            tree.validate()
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_grid_depth_mismatch(self):
        tree = binary_tree(2)
        bad = FiltrationTree(tree.parent, tree.prob, TimeGrid.regular(3))
        with pytest.raises(ShapeMismatchError, match="^grid step count disagrees with tree depth$"):
            bad.validate()

    def test_valid_trees_pass(self):
        binary_tree(3).validate()
        random_tree(np.random.default_rng(0), 3, depth_first=True).validate()
