import numpy as np
import pytest

from asymdynkin.core import (
    PayoffTriple,
    RandomDevice,
    binary_tree,
    expected_payoff_exact,
    expected_payoff_mc,
    single_path_tree,
    validate_generating,
)
from asymdynkin.gamegen import dominance_game, random_scenario_game
from asymdynkin.oracle import (
    EnumerationCapExceeded,
    build_matrix,
    count_stopping_rules,
    enumerate_stopping_rules,
    mixture_to_generating,
    pure_gap,
    regime_matrices,
    solve_scenario,
    solve_zero_sum,
)
from asymdynkin.scenario import ScenarioGame, certify_stop

from helpers import brute_force_expected


def _single_path_game(seed: int, prior: float) -> ScenarioGame:
    rng = np.random.default_rng(seed)
    tree = single_path_tree(3)
    vals = np.sort(rng.uniform(-1.0, 1.0, size=(2, tree.n_nodes, 3)), axis=-1)
    return ScenarioGame(tree, PayoffTriple(f=vals[..., 2], g=vals[..., 0], h=vals[..., 1]), prior)


class TestEnumeration:
    def test_single_path_counts(self):
        tree = single_path_tree(4)
        rules = enumerate_stopping_rules(tree)
        assert len(rules) == 5 == count_stopping_rules(tree)

    def test_binary_depth_two_has_five_rules(self):
        tree = binary_tree(2)
        assert count_stopping_rules(tree) == 5
        rules = enumerate_stopping_rules(tree)
        assert len(rules) == 5
        for rule in rules.rules:
            rule.validate(tree)

    def test_deep_tree_hits_cap(self):
        tree = binary_tree(10)
        with pytest.raises(EnumerationCapExceeded):
            enumerate_stopping_rules(tree, cap=1_000_000)

    def test_level_matrix_is_stopped_indicator(self):
        tree = binary_tree(2)
        rules = enumerate_stopping_rules(tree)
        for r, rule in enumerate(rules.rules):
            np.testing.assert_array_equal(rules.level_matrix[r], rule.stopped_by(tree))


class TestBuildMatrix:
    def test_both_stop_at_root(self):
        game, _ = dominance_game(prior=0.3)
        rules = enumerate_stopping_rules(game.tree)
        gm = build_matrix(game, rules)
        root_rule = next(
            r for r, rule in enumerate(rules.rules) if rule.stops[0]
        )
        pair_row = root_rule * len(rules) + root_rule
        col = root_rule
        expected = 0.7 * game.payoffs.h[0, 0] + 0.3 * game.payoffs.h[1, 0]
        assert gm.a[pair_row, col] == pytest.approx(expected, abs=1e-14)

    def test_split_pair_row(self):
        # row (tau0 = stop at 0, tau1 = stop at T), column sigma = stop at T
        game, _ = dominance_game(prior=0.3)
        rules = enumerate_stopping_rules(game.tree)
        stop0 = next(r for r, rule in enumerate(rules.rules) if rule.stops[0])
        stopT = next(r for r, rule in enumerate(rules.rules) if not rule.stops[0])
        gm = build_matrix(game, rules)
        pair_row = stop0 * len(rules) + stopT
        h1_T = game.tree.reach[game.tree.leaves] @ game.payoffs.h[1, game.tree.leaves]
        expected = 0.7 * game.payoffs.f[0, 0] + 0.3 * h1_T
        assert gm.a[pair_row, stopT] == pytest.approx(expected, abs=1e-14)

    def test_entry_matches_monte_carlo(self):
        game = random_scenario_game(2, seed=17, prior=0.4)
        rules = enumerate_stopping_rules(game.tree)
        b0, b1 = regime_matrices(game, rules)
        r, c = 3, 1
        xi = rules.rules[r].to_generating(game.tree)
        zeta = rules.rules[c].to_generating(game.tree)
        exact = (1 - game.prior) * b0[r, c] + game.prior * b1[r, c]
        est, se = expected_payoff_mc(
            game.tree, game.payoffs, (xi, xi), zeta,
            n=100_000, device=RandomDevice(5), prior=game.prior,
        )
        assert abs(est - exact) <= 4 * max(se, 1e-6)

    @pytest.mark.parametrize("game", [
        random_scenario_game(2, seed=3, prior=0.2),
        random_scenario_game(2, seed=17, prior=0.4),
        random_scenario_game(2, seed=29, prior=0.8),
        _single_path_game(seed=8, prior=0.35),
    ], ids=["binary-3", "binary-17", "binary-29", "single-path"])
    def test_regime_matrices_match_brute_force(self, game):
        # every pure pair in both regimes, against plain (path, tau, sigma) enumeration
        rules = enumerate_stopping_rules(game.tree)
        procs = [rule.to_generating(game.tree) for rule in rules.rules]
        for i, b in enumerate(regime_matrices(game, rules)):
            ref = np.array([
                [brute_force_expected(game.tree, game.payoffs.regime(i), xi, zeta) for zeta in procs]
                for xi in procs
            ])
            np.testing.assert_allclose(b, ref, rtol=0.0, atol=1e-13)


class TestSolveZeroSum:
    def test_matching_pennies(self):
        sol = solve_zero_sum(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sol.row_mix, [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(sol.col_mix, [0.5, 0.5], atol=1e-9)
        assert sol.gap <= 1e-9

    def test_dominance_game_pure_saddle(self):
        game, _ = dominance_game(prior=0.5)
        gm = build_matrix(game, enumerate_stopping_rules(game.tree))
        sol = solve_zero_sum(gm.a)
        assert sol.value == pytest.approx(0.55, abs=1e-9)
        assert pure_gap(gm.a)[2] == pytest.approx(0.0, abs=1e-12)

    def test_pair_solver_agrees_with_marginal_solver(self):
        for seed in range(4):
            game = random_scenario_game(2, seed=seed, prior=0.35)
            gm = build_matrix(game, enumerate_stopping_rules(game.tree))
            pair = solve_zero_sum(gm.a)
            marg = solve_scenario(game)
            assert pair.value == pytest.approx(marg.value, abs=1e-9)

    def test_value_matches_certify_stop(self):
        game = random_scenario_game(3, seed=23, prior=0.5)
        sol = solve_scenario(game)
        assert sol.gap <= 1e-9
        prof = sol.profile(game.tree)
        from asymdynkin.scenario import best_response_values

        surf = best_response_values(game, prof)
        cert = certify_stop(game, prof, surfaces=surf)
        assert cert.certified
        assert cert.value == pytest.approx(sol.value, abs=1e-8)


class TestPureGap:
    def test_matching_pennies_gap_two(self):
        upper, lower, gap = pure_gap(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert (upper, lower, gap) == (1.0, -1.0, 2.0)

    def test_gap_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(-1, 1, size=(5, 4))
            assert pure_gap(a)[2] >= -1e-15


class TestMixtureToGenerating:
    def test_half_half_on_single_path(self):
        tree = single_path_tree(3)
        rules = enumerate_stopping_rules(tree)
        w = np.zeros(len(rules))
        stop0 = next(r for r, rule in enumerate(rules.rules) if rule.stops[0])
        stopT = next(r for r, rule in enumerate(rules.rules) if rule.stops[3])
        w[stop0] = w[stopT] = 0.5
        xi = mixture_to_generating(w, rules, tree)
        np.testing.assert_allclose(xi.levels, [0.5, 0.5, 0.5, 1.0], atol=1e-15)

    def test_point_mass_is_pure(self):
        tree = binary_tree(2)
        rules = enumerate_stopping_rules(tree)
        w = np.zeros(len(rules))
        w[2] = 1.0
        xi = mixture_to_generating(w, rules, tree)
        np.testing.assert_array_equal(xi.levels, rules.level_matrix[2])
        assert validate_generating(xi, tree).ok

    def test_bilinear_round_trip(self):
        game = random_scenario_game(2, seed=31, prior=0.45)
        sol = solve_scenario(game)
        prof = sol.profile(game.tree)
        payoff = expected_payoff_exact(
            game.tree, game.payoffs, (prof.xi0, prof.xi1), prof.zeta, prior=game.prior
        )
        b0, b1 = regime_matrices(game, sol.rules)
        bilinear = (1 - game.prior) * sol.row_mix0 @ b0 @ sol.col_mix + game.prior * (
            sol.row_mix1 @ b1 @ sol.col_mix
        )
        assert payoff == pytest.approx(bilinear, abs=1e-12)
        assert payoff == pytest.approx(sol.value, abs=1e-9)


class TestSolutionInvariants:
    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_saddle_no_profitable_pure_deviation(self, seed):
        game = random_scenario_game(3, seed=seed, prior=0.2)
        sol = solve_scenario(game)
        b0, b1 = regime_matrices(game, sol.rules)
        w0, w1 = 1 - game.prior, game.prior
        col_payoffs = w0 * sol.row_mix0 @ b0 + w1 * sol.row_mix1 @ b1
        assert col_payoffs.max() <= sol.value + 1e-9
        row_payoffs0 = b0 @ sol.col_mix
        row_payoffs1 = b1 @ sol.col_mix
        assert w0 * row_payoffs0.min() + w1 * row_payoffs1.min() >= sol.value - 1e-9

    def test_constant_shift_moves_value_by_constant(self):
        game = random_scenario_game(2, seed=3, prior=0.5)
        base = solve_scenario(game).value
        c = 0.37
        shifted = ScenarioGame(
            game.tree,
            PayoffTriple(f=game.payoffs.f + c, g=game.payoffs.g + c, h=game.payoffs.h + c),
            game.prior,
        )
        assert solve_scenario(shifted).value == pytest.approx(base + c, abs=1e-9)
