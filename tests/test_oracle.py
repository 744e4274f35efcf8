import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from asymdynkin import oracle
from asymdynkin._compiled import csc_arrays
from asymdynkin.core import (
    GeneratingProcess,
    PayoffTriple,
    RandomDevice,
    _exact_single,
    binary_tree,
    expected_payoff_exact,
    flow_value,
    payoff_flows,
    validate_generating,
)
from asymdynkin.gamegen import dominance_game, random_profile, random_scenario_game
from asymdynkin.oracle import (
    EnumerationCapExceeded,
    NumericalFailure,
    _plan_levels,
    _run_highs,
    _sequence_form_lp,
    build_matrix,
    count_stopping_rules,
    enumerate_stopping_rules,
    pure_gap,
    regime_matrices,
    solve_scenario,
    support_rules,
)
from asymdynkin.scenario import ScenarioGame, best_response_values, certify_mart, certify_stop

from helpers import (
    ancestor_matrix,
    brute_force_expected,
    enumeration_value,
    expected_payoff_mc,
    mixture_to_generating,
    one_regime,
    random_game,
    random_tree,
    ref_ancestor_pairs,
    ref_sequence_form_lp,
    ref_solve_lp,
    sequence_form,
    single_path_tree,
)


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
        a = build_matrix(game, rules)
        root_rule = next(
            r for r, rule in enumerate(rules.rules) if rule.stops[0]
        )
        pair_row = root_rule * len(rules) + root_rule
        col = root_rule
        expected = 0.7 * game.payoffs.h[0, 0] + 0.3 * game.payoffs.h[1, 0]
        assert a[pair_row, col] == pytest.approx(expected, abs=1e-14)

    def test_split_pair_row(self):
        # row (tau0 = stop at 0, tau1 = stop at T), column sigma = stop at T
        game, _ = dominance_game(prior=0.3)
        rules = enumerate_stopping_rules(game.tree)
        stop0 = next(r for r, rule in enumerate(rules.rules) if rule.stops[0])
        stopT = next(r for r, rule in enumerate(rules.rules) if not rule.stops[0])
        a = build_matrix(game, rules)
        pair_row = stop0 * len(rules) + stopT
        h1_T = game.tree.reach[game.tree.leaves] @ game.payoffs.h[1, game.tree.leaves]
        expected = 0.7 * game.payoffs.f[0, 0] + 0.3 * h1_T
        assert a[pair_row, stopT] == pytest.approx(expected, abs=1e-14)

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
                [brute_force_expected(game.tree, one_regime(game.payoffs, i), xi, zeta) for zeta in procs]
                for xi in procs
            ])
            np.testing.assert_allclose(b, ref, rtol=0.0, atol=1e-13)


class TestSolveZeroSum:
    def test_dominance_game_pure_saddle(self):
        game, _ = dominance_game(prior=0.5)
        a = build_matrix(game, enumerate_stopping_rules(game.tree))
        assert enumeration_value(game, pair=True) == pytest.approx(0.55, abs=1e-9)
        assert pure_gap(a)[2] == pytest.approx(0.0, abs=1e-12)

    def test_pair_solver_agrees_with_marginal_solver(self):
        for seed in range(4):
            game = random_scenario_game(2, seed=seed, prior=0.35)
            pair = enumeration_value(game, pair=True)
            assert pair == pytest.approx(enumeration_value(game), abs=1e-9)
            assert pair == pytest.approx(solve_scenario(game).value, abs=1e-9)

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
        # the profile against every pure rule, not only the rules it mixes over
        game = random_scenario_game(3, seed=seed, prior=0.2)
        sol = solve_scenario(game)
        prof = sol.profile(game.tree)
        rules = enumerate_stopping_rules(game.tree)
        L, S = rules.level_matrix, rules.stop_matrix
        pay, reach = game.payoffs, game.tree.reach
        w0, w1 = 1 - game.prior, game.prior
        xi, z = (prof.xi0, prof.xi1), prof.zeta
        col = [flow_value(reach, *payoff_flows(pay.g[i], pay.f[i], pay.h[i], xi[i].levels, xi[i].steps), L, S)
               for i in range(2)]
        row = [flow_value(reach, *payoff_flows(pay.f[i], pay.g[i], pay.h[i], z.levels, z.steps), L, S)
               for i in range(2)]
        assert (w0 * col[0] + w1 * col[1]).max() <= sol.value + 1e-9
        assert w0 * row[0].min() + w1 * row[1].min() >= sol.value - 1e-9

    def test_profile_is_the_plan_levels(self, monkeypatch):
        # no threshold-rule round trip: the profile is the levels of HiGHS's plans, bit for bit
        def fail(*args):
            raise AssertionError("support_rules called")

        monkeypatch.setattr(oracle, "support_rules", fail)
        game = random_scenario_game(4, seed=1190, prior=0.5)
        tree, n = game.tree, game.tree.n_nodes
        sol = solve_scenario(game)
        solution, info = _run_highs(_sequence_form_lp(game), sol.lp.presolve)
        x = np.array(solution.col_value)
        plans = [x[:n], x[n:2 * n], -np.array(solution.row_dual)[:n]]
        prof = sol.profile(tree)
        for proc, plan in zip((prof.xi0, prof.xi1, prof.zeta), plans):
            assert proc.levels.tobytes() == _plan_levels(plan, tree).tobytes()
        surf = best_response_values(game, prof)
        for got, ref in ((sol.surfaces.u_hat, surf.u_hat), (sol.surfaces.v_hat, surf.v_hat)):
            assert got.tobytes() == ref.tobytes()
        assert sol.value == surf.v_hat[0]
        assert sol.lp.objective == info.objective_function_value
        assert not hasattr(oracle, "mixture_to_generating")

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


def _check_against_enumeration(game):
    sol = solve_scenario(game)
    assert sol.gap <= 1e-9
    assert abs(sol.value - enumeration_value(game)) <= 1e-9
    prof = sol.profile(game.tree)
    surf = best_response_values(game, prof)
    assert certify_mart(game, prof, surf, tol=1e-8).certified
    assert certify_stop(game, prof, surfaces=surf, tol=1e-8).certified


def _battery_game(i):
    # criterion 1's battery: 80 games of depth 2, 80 of depth 3, 40 of depth 4
    depth = 2 if i < 80 else 3 if i < 160 else 4
    return random_scenario_game(depth, seed=1000 + i, prior=(0.2, 0.5, 0.8)[i % 3])


trees = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())


class TestSequenceForm:
    @given(trees)
    @settings(max_examples=30, deadline=None)
    def test_bilinear_form_is_the_exact_payoff(self, spec):
        seed, depth, depth_first = spec
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, depth, depth_first)
        game = random_game(rng, tree)
        forms = sequence_form(game, ancestor_matrix(tree))
        pay = game.payoffs
        for k in range(3):
            prof = random_profile(tree, seed=seed % 1000 + k)
            b = prof.zeta.steps
            for i, (c, d, m) in enumerate(forms):
                a = prof.xi[i].steps
                exact = _exact_single(tree, pay.f[i], pay.g[i], pay.h[i], prof.xi[i], prof.zeta)
                assert abs(c @ a + d @ b + a @ (m @ b) - exact) <= 1e-13

    def test_ancestor_matrix_gives_levels_and_paths(self):
        tree = random_tree(np.random.default_rng(5), 3, depth_first=True)
        a = ancestor_matrix(tree)
        steps = random_profile(tree, seed=2).xi0.steps
        np.testing.assert_allclose(a @ steps, GeneratingProcess.from_steps(steps, tree).levels,
                                   rtol=0, atol=1e-15)
        incidence = np.zeros((tree.leaves.size, tree.n_nodes))
        np.put_along_axis(incidence, tree.paths, 1.0, axis=1)
        np.testing.assert_array_equal(a[tree.leaves].toarray(), incidence)

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_battery_matches_enumeration(self, depth):
        # every depth-2 and depth-3 game of criterion 1, and every 5th depth-4 game
        games = {2: range(0, 80), 3: range(80, 160), 4: range(160, 200, 5)}[depth]
        for i in games:
            _check_against_enumeration(_battery_game(i))

    @given(trees)
    @settings(max_examples=25, deadline=None)
    def test_random_trees_match_enumeration(self, spec):
        seed, depth, depth_first = spec
        rng = np.random.default_rng(seed)
        _check_against_enumeration(random_game(rng, random_tree(rng, depth, depth_first)))


def _assert_lp_matches_reference(game):
    """The one CSC matrix and the bounds equal, bit for bit, the LP stacked from sparse matrix algebra."""
    cost, indptr, indices, data, row_lower, row_upper, col_lower, col_upper = _sequence_form_lp(game)
    ref_cost, a_ub, b_ub, a_eq = ref_sequence_form_lp(game)
    ref = sparse.csc_array(sparse.vstack([a_ub, a_eq]))
    n_ub, n_eq = a_ub.shape[0], a_eq.shape[0]
    n_free = game.tree.leaves.size
    assert (row_lower.size, cost.size) == ref.shape
    # -inf <= A_ub x <= b_ub and A_eq x = 1; the plans are >= 0, the leaf prices free
    # HiGHS takes int32 indices; scipy's are int64
    want = [(indptr, ref.indptr.astype(np.int32)), (indices, ref.indices.astype(np.int32)),
            (data, ref.data), (cost, ref_cost),
            (row_lower, np.concatenate([np.full(n_ub, -np.inf), np.ones(n_eq)])),
            (row_upper, np.concatenate([b_ub, np.ones(n_eq)])),
            (col_lower, np.concatenate([np.zeros(cost.size - n_free), np.full(n_free, -np.inf)])),
            (col_upper, np.full(cost.size, np.inf))]
    for x, y in want:
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _assert_pairs_are_the_climbing_pairs(tree):
    """The subtree table holds exactly the (node, ancestor-or-self) pairs of the climbing loop."""
    start, node, _ = tree.subtree
    anc = np.repeat(np.arange(tree.n_nodes), np.diff(start))
    ref_node, ref_anc = ref_ancestor_pairs(tree)
    assert node.size == ref_node.size
    assert set(zip(node.tolist(), anc.tolist())) == set(zip(ref_node.tolist(), ref_anc.tolist()))


class TestLPAssembly:
    def test_csc_arrays_match_scipy(self):
        # a rectangular matrix with repeated positions (ten pairs and a triple)
        # and empty columns, the first and the last among them: the arrays are
        # scipy's canonical CSC arrays, with int32 indices as HiGHS takes them
        rng = np.random.default_rng(7)
        rows, cols = rng.integers(0, 9, 48), rng.choice([1, 2, 4, 5, 6, 9, 10, 12], 48)
        vals = rng.standard_normal(48)
        ref = sparse.csc_array((vals, (rows, cols)), shape=(9, 14))
        got = csc_arrays(rows, cols, vals, 14)
        want = (ref.indptr.astype(np.int32), ref.indices.astype(np.int32), ref.data)
        assert ref.nnz == 36 and np.count_nonzero(np.diff(ref.indptr) == 0) == 6
        for x, y in zip(got, want, strict=True):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_battery_games(self):
        for i in range(200):
            _assert_lp_matches_reference(_battery_game(i))

    def test_battery_pairs_are_the_climbing_pairs(self):
        for i in range(200):
            _assert_pairs_are_the_climbing_pairs(_battery_game(i).tree)

    @given(trees)
    @settings(max_examples=40, deadline=None)
    def test_random_tree_pairs_are_the_climbing_pairs(self, spec):
        seed, depth, depth_first = spec
        _assert_pairs_are_the_climbing_pairs(random_tree(np.random.default_rng(seed), depth, depth_first))

    @pytest.mark.parametrize("prior", [0.0, 1.0])
    def test_degenerate_priors_keep_the_zero_weight_block(self, prior):
        game = random_scenario_game(3, seed=1100, prior=prior)
        _assert_lp_matches_reference(game)
        # the zero-weight regime's block is stored as explicit zeros
        assert solve_scenario(game).lp.nnz == 262

    def test_zero_probability_branch_and_zero_payoffs(self):
        tree = binary_tree(3, p_up=0.0)
        zero = np.zeros((2, tree.n_nodes))
        vals = np.sort(np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, tree.n_nodes, 3)), axis=-1)
        vals[:, ::3] = 0.0
        for pay in (PayoffTriple(zero, zero, zero),
                    PayoffTriple(f=vals[..., 2], g=vals[..., 0], h=vals[..., 1])):
            _assert_lp_matches_reference(ScenarioGame(tree, pay, 0.4))

    @given(trees, st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_random_trees(self, spec, prior):
        seed, depth, depth_first = spec
        rng = np.random.default_rng(seed)
        game = random_game(rng, random_tree(rng, depth, depth_first))
        _assert_lp_matches_reference(dataclasses.replace(game, prior=prior))

    @given(trees)
    @settings(max_examples=30, deadline=None)
    def test_plan_levels_equal_the_ancestor_product(self, spec):
        seed, depth, depth_first = spec
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, depth, depth_first)
        steps = rng.dirichlet(np.ones(tree.n_nodes)) * rng.choice([0.0, 1e-11, 1.0], tree.n_nodes)
        a = ancestor_matrix(tree)
        assert GeneratingProcess.from_steps(steps, tree).levels.tobytes() == (a @ steps).tobytes()
        ref = a @ np.where(steps < 1e-10, 0.0, steps)
        ref = np.where(ref > 1.0 - 1e-10, 1.0, ref)
        ref[tree.leaves] = 1.0
        assert _plan_levels(steps, tree).tobytes() == ref.tobytes()


def _assert_direct_call_matches_linprog(game):
    """x, the >=-row duals, the objective and nit of the direct HiGHS call equal linprog's bit for bit."""
    lp, n = _sequence_form_lp(game), game.tree.n_nodes
    for presolve in (True, False):
        solution, info = _run_highs(lp, presolve)
        ref = ref_solve_lp(game, presolve)
        assert np.array(solution.col_value).tobytes() == ref.x.tobytes()
        assert np.array(solution.row_dual)[:n].tobytes() == ref.ineqlin.marginals.tobytes()
        assert np.float64(info.objective_function_value).tobytes() == np.float64(ref.fun).tobytes()
        assert info.simplex_iteration_count == ref.nit


class TestDirectHiGHS:
    def test_battery_games(self):
        for i in range(200):
            _assert_direct_call_matches_linprog(_battery_game(i))

    @given(trees, st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=40, deadline=None)
    # an entry of 1.02e-11 lies between HiGHS's small_matrix_value of 1e-12 and
    # its 1e-9 default, so the reference must pass the oracle's value on
    @example(spec=(2551624, 3, False), prior=0.3)
    def test_random_trees(self, spec, prior):
        seed, depth, depth_first = spec
        rng = np.random.default_rng(seed)
        game = random_game(rng, random_tree(rng, depth, depth_first))
        _assert_direct_call_matches_linprog(dataclasses.replace(game, prior=prior))

    @pytest.mark.parametrize("presolve", [True, False])
    def test_non_optimal_status_raises_with_its_name(self, presolve):
        # min x subject to x <= -1 and x >= 0
        lp = tuple(np.array(v) for v in ([1.0], [0, 1], [0], [1.0], [-np.inf], [-1.0], [0.0], [np.inf]))
        with pytest.raises(NumericalFailure, match="^LP solver failed: Infeasible$"):
            _run_highs(lp, presolve)

    @pytest.mark.parametrize("presolve", [True, False])
    def test_rejected_model_raises(self, presolve):
        # min x subject to x <= 1 and x >= 0, with an infinite matrix entry
        lp = (np.array([1.0]), np.array([0, 1], np.int32), np.array([0], np.int32), np.array([np.inf]),
              *(np.array([v]) for v in (-np.inf, 1.0, 0.0, np.inf)))
        with pytest.raises(NumericalFailure, match="^LP solver failed: HiGHS rejected the model$"):
            _run_highs(lp, presolve)

    def test_every_matrix_entry_is_kept(self):
        # the depth-12 LP has 13 entries at or below 1e-9, HiGHS's default
        # small_matrix_value; with _LP_OPTIONS passModel keeps all of them
        highs = oracle._highs()
        lp = _sequence_form_lp(random_scenario_game(12, 5012))
        cost, indptr, indices, data, row_lower, row_upper, col_lower, col_upper = lp
        assert np.count_nonzero(np.abs(data) <= 1e-9) == 13
        options, solver = highs.HighsOptions(), highs._Highs()
        for key, val in oracle._LP_OPTIONS.items():
            setattr(options, key, val)
        solver.passOptions(options)
        status = solver.passModel(cost.size, row_lower.size, data.size, highs.MatrixFormat.kColwise,
                                  highs.ObjSense.kMinimize, 0.0, cost, col_lower, col_upper, row_lower,
                                  row_upper, indptr, indices, data, np.zeros(cost.size, np.int32))
        assert status == highs.HighsStatus.kOk
        assert solver.getNumNz() == data.size == 536_582

    def test_open_gap_raises_after_both_attempts(self, monkeypatch):
        # a negative tolerance no gap meets; the spy passes every call on to HiGHS
        attempts, run_highs = [], oracle._run_highs

        def spy(lp, presolve):
            attempts.append(presolve)
            return run_highs(lp, presolve)

        monkeypatch.setattr(oracle, "_run_highs", spy)
        monkeypatch.setattr(oracle, "GAP_TOL", -1.0)
        with pytest.raises(NumericalFailure, match="^duality gap .* above -1.0$"):
            solve_scenario(_battery_game(100))
        assert attempts == [True, False]


class TestSupportRules:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixtures_reproduce_levels(self, seed):
        tree = binary_tree(6, p_up=0.3)
        prof = random_profile(tree, seed=seed)
        levels = [prof.xi0.levels, prof.xi1.levels, prof.zeta.levels]
        rules, mixes = support_rules(levels, tree)
        for x, mix in zip(levels, mixes):
            assert np.count_nonzero(mix) <= tree.n_nodes + 1
            np.testing.assert_allclose(mixture_to_generating(mix, rules, tree).levels, x,
                                       rtol=0, atol=1e-13)
        for rule in rules.rules:
            rule.validate(tree)

    def test_solution_rules_are_shared_threshold_rules(self):
        game = random_scenario_game(4, seed=1190, prior=0.5)
        sol = solve_scenario(game)
        # the rule view is built on first read, once
        assert "_support" not in vars(sol)
        assert sol.rules is sol.rules and "_support" in vars(sol)
        prof = sol.profile(game.tree)
        levels = [prof.xi0.levels, prof.xi1.levels, prof.zeta.levels]
        for x, mix in zip(levels, (sol.row_mix0, sol.row_mix1, sol.col_mix)):
            np.testing.assert_allclose(mixture_to_generating(mix, sol.rules, game.tree).levels, x,
                                       rtol=0, atol=1e-13)
        again, mixes = support_rules(levels, game.tree)
        np.testing.assert_array_equal(again.level_matrix, sol.rules.level_matrix)
        for mix, ref in zip(mixes, (sol.row_mix0, sol.row_mix1, sol.col_mix)):
            np.testing.assert_allclose(mix, ref, rtol=0, atol=1e-13)
        assert len(sol.rules) <= 3 * (game.tree.n_nodes + 1)
        assert len(np.unique(sol.rules.stop_matrix, axis=0)) == len(sol.rules)
