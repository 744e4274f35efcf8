import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asymdynkin import scenario
from asymdynkin.core import (
    GeneratingProcess,
    IndexOutOfRangeError,
    PayoffTriple,
    ShapeMismatchError,
    payoff_flows,
)
from asymdynkin.gamegen import (
    all_continue_game,
    dominance_game,
    random_profile,
    random_scenario_game,
)
from asymdynkin.oracle import count_stopping_rules, solve_scenario
from asymdynkin.scenario import (
    ScenarioGame,
    StrategyProfile,
    ValueSurfaces,
    _best_pure_rules,
    _minimizing,
    _players,
    belief_update,
    best_response_values,
    certify_mart,
    certify_stop,
    ex_ante_check,
    ex_ante_residuals,
    martingale_report,
    support_report,
)

from helpers import (
    ancestor_matrix,
    one_sided_stop_value,
    random_game,
    random_tree,
    ref_certify_stop,
    ref_pure_values,
    ref_truncate_control,
    sequence_form,
)


def oracle_equilibrium(seed, steps=3, prior=0.5):
    game = random_scenario_game(steps, seed=seed, prior=prior)
    sol = solve_scenario(game)
    prof = sol.profile(game.tree)
    surf = best_response_values(game, prof)
    return game, sol, prof, surf


class TestBeliefUpdate:
    def test_equal_survival_keeps_prior(self):
        p, deg = belief_update(0.37, 0.6, 0.6)
        assert p == pytest.approx(0.37, abs=1e-15)
        assert not deg

    def test_direct_evaluation(self):
        p, _ = belief_update(0.5, 0.0, 0.5)
        assert p == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_fully_stopped_type_one(self):
        p, _ = belief_update(0.5, 0.3, 1.0)
        assert p == 0.0

    def test_degenerate_returns_prior_with_flag(self):
        p, deg = belief_update(0.4, 1.0, 1.0)
        assert p == 0.4 and deg


# the six public reports and certificates of a (game, profile, surfaces), as ``verify`` calls them
ANALYSES = {
    "best_response_values": lambda game, prof, surf: best_response_values(game, prof),
    "martingale_report": martingale_report,
    "support_report": support_report,
    "ex_ante_residuals": ex_ante_residuals,
    "certify_mart": certify_mart,
    "certify_stop": lambda game, prof, surf: certify_stop(game, prof, surfaces=surf),
}


class TestPlayerRows:
    @pytest.mark.parametrize("name", ANALYSES)
    @pytest.mark.parametrize("shape", ["one type short", "one type over", "node count"])
    def test_profile_of_another_shape_is_refused(self, name, shape):
        game = random_scenario_game(2, seed=3)
        prof = random_profile(game.tree, seed=4)
        surf = best_response_values(game, prof)
        bad = {
            "one type short": StrategyProfile(prof.xi[:1], prof.zeta),
            "one type over": StrategyProfile((*prof.xi, prof.xi[0]), prof.zeta),
            "node count": random_profile(random_scenario_game(3, seed=3).tree, seed=4),
        }[shape]
        with pytest.raises(ShapeMismatchError, match="^profile type or node count disagrees with game$"):
            ANALYSES[name](game, bad, surf)

    @pytest.mark.parametrize("count", [1, 3])
    def test_override_of_another_type_count_is_refused(self, count):
        game = random_scenario_game(2, seed=3)
        prof = random_profile(game.tree, seed=4)
        over = (prof.xi[0],) * count
        with pytest.raises(ValueError, match="zip"):
            martingale_report(game, prof, best_response_values(game, prof), xi_override=over)

    @pytest.mark.parametrize("name", ANALYSES)
    def test_one_flows_pass_per_call(self, name, monkeypatch):
        # the informed rows and the uninformed row: two payoff_flows calls, however many conditions
        game = random_scenario_game(3, seed=8)
        prof = random_profile(game.tree, seed=9)
        surf = best_response_values(game, prof)
        calls = []

        def counted(*args):
            calls.append(1)
            return payoff_flows(*args)

        monkeypatch.setattr(scenario, "payoff_flows", counted)
        ANALYSES[name](game, prof, surf)
        assert len(calls) <= 2


class TestBestResponseValues:
    def test_dominated_root_value(self):
        game, prof = dominance_game(0.5)
        surf = best_response_values(game, prof)
        # zeta jumps at 0: stop gives h_0, continuing gives g_0 <= h_0
        for i in range(2):
            assert surf.u_hat[i, 0] == pytest.approx(game.payoffs.g[i, 0], abs=1e-15)

    def test_regime_symmetry(self):
        game = random_scenario_game(3, seed=2, prior=0.5)
        sym = ScenarioGame(
            game.tree,
            PayoffTriple(
                f=np.stack([game.payoffs.f[0]] * 2),
                g=np.stack([game.payoffs.g[0]] * 2),
                h=np.stack([game.payoffs.h[0]] * 2),
            ),
            game.prior,
        )
        prof = random_profile(game.tree, 5)
        prof = StrategyProfile((prof.xi0, prof.xi0), prof.zeta)
        surf = best_response_values(sym, prof)
        np.testing.assert_allclose(surf.u_hat[0], surf.u_hat[1], atol=1e-15)

    def test_uninformed_value_is_one_sided_stopping(self):
        game = random_scenario_game(3, seed=8, prior=0.35)
        tree = game.tree
        jump_end = GeneratingProcess.jump_at_depth(tree.n_steps, tree)
        prof = StrategyProfile((jump_end, jump_end), jump_end)
        surf = best_response_values(game, prof)
        w = game.weights
        running = w[0] * game.payoffs.g[0] + w[1] * game.payoffs.g[1]
        terminal = w[0] * game.payoffs.h[0] + w[1] * game.payoffs.h[1]
        ref = one_sided_stop_value(tree, running, terminal, maximize=True)
        assert surf.v_hat[0] == pytest.approx(ref, abs=1e-12)

    def test_surfaces_respect_stop_bounds(self):
        game, _, prof, surf = oracle_equilibrium(seed=11)
        zl, zs = prof.zeta.levels, prof.zeta.steps
        for i in range(2):
            bound = game.payoffs.f[i] * (1 - zl) + game.payoffs.h[i] * zs
            assert np.all(surf.u_hat[i] <= bound + 1e-12)


class TestMartingaleReport:
    def test_dominance_drift_exactly_zero(self):
        game, prof = dominance_game(0.5)
        surf = best_response_values(game, prof)
        rep = martingale_report(game, prof, surf)
        assert rep.m0_drift[:, 0] == pytest.approx([0.0, 0.0], abs=1e-15)

    @pytest.mark.parametrize("seed", [3, 19, 57])
    def test_oracle_equilibrium_classifications(self, seed):
        game, _, prof, surf = oracle_equilibrium(seed=seed)
        rep = martingale_report(game, prof, surf)
        assert rep.ok

    @pytest.mark.parametrize("seed", [4, 21])
    def test_arbitrary_override_keeps_submartingale(self, seed):
        game, _, prof, surf = oracle_equilibrium(seed=seed)
        override = random_profile(game.tree, seed + 1000)
        rep = martingale_report(
            game, prof, surf,
            xi_override=(override.xi0, override.xi1),
            zeta_override=override.zeta,
        )
        assert rep.m_override_drift[:, ~game.tree.is_leaf].min() >= -1e-8
        assert rep.n_override_drift[~game.tree.is_leaf].max() <= 1e-8

    def test_equilibrium_override_is_martingale(self):
        game, _, prof, surf = oracle_equilibrium(seed=29)
        rep = martingale_report(
            game, prof, surf, xi_override=(prof.xi0, prof.xi1), zeta_override=prof.zeta
        )
        internal = ~game.tree.is_leaf
        assert np.abs(rep.m_override_drift[:, internal]).max() <= 1e-8
        assert np.abs(rep.n_override_drift[internal]).max() <= 1e-8


class TestSupportReport:
    def test_dominance_slacks_and_flat_off(self):
        game, prof = dominance_game(0.5)
        surf = best_response_values(game, prof)
        rep = support_report(game, prof, surf)
        for i in range(2):
            assert rep.z[i, 0] == pytest.approx(
                game.payoffs.g[i, 0] - game.payoffs.h[i, 0], abs=1e-15
            )
        assert rep.max_flat_off == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [6, 33])
    def test_oracle_equilibrium_support(self, seed):
        game, _, prof, surf = oracle_equilibrium(seed=seed)
        rep = support_report(game, prof, surf)
        assert rep.max_z <= 1e-8
        assert rep.min_y2 >= -1e-8
        assert rep.max_flat_off <= 1e-8
        assert rep.max_consistency <= 1e-8

    def test_forced_jump_off_support_shows_residual(self):
        game, _, prof, surf = oracle_equilibrium(seed=41)
        rep = support_report(game, prof, surf)
        # find a node where the uninformed slack is strictly positive and
        # force zeta to put mass there
        y2 = rep.y2.copy()
        y2[game.tree.is_leaf] = 0.0
        node = int(np.argmax(y2))
        if y2[node] <= 1e-6:
            pytest.skip("equilibrium has no strictly positive slack node")
        levels = prof.zeta.levels.copy()
        sub = [node]
        for m in range(node + 1, game.tree.n_nodes):
            if game.tree.parent[m] in sub:
                sub.append(m)
        levels[sub] = np.maximum(levels[sub], 0.5)
        levels[game.tree.leaves] = 1.0
        bad = StrategyProfile(prof.xi, GeneratingProcess.from_levels(levels, game.tree))
        bad_rep = support_report(game, bad, surf)
        assert bad_rep.max_flat_off > 1e-8


class TestExAnteCheck:
    def test_oracle_equilibrium_root(self):
        game, _, prof, surf = oracle_equilibrium(seed=12)
        assert ex_ante_check(game, prof, surf, 0) <= 1e-8

    def test_fully_stopped_node_is_zero(self):
        game, prof = dominance_game(0.5)
        # both players fully stopped below the root: zeta jumped at 0 and we
        # exhaust xi at depth 1 too
        tree = game.tree
        prof = StrategyProfile((GeneratingProcess.jump_at_depth(1, tree),) * 2, prof.zeta)
        surf = best_response_values(game, prof)
        leaf = int(tree.leaves[0])
        assert ex_ante_check(game, prof, surf, leaf) == pytest.approx(0.0, abs=1e-15)

    def test_dominance_root_closed_form(self):
        game, prof = dominance_game(0.5)
        surf = best_response_values(game, prof)
        # residual definition: both sides equal <pi, g_0> exactly
        assert ex_ante_check(game, prof, surf, 0) <= 1e-15
        assert surf.v_hat[0] == pytest.approx(0.55, abs=1e-15)

    def test_interior_nodes_at_equilibrium(self):
        game, _, prof, surf = oracle_equilibrium(seed=44)
        for node in range(game.tree.n_nodes):
            assert ex_ante_check(game, prof, surf, node) <= 1e-8
        assert ex_ante_residuals(game, prof, surf).max() <= 1e-8

    def test_node_outside_the_tree_raises(self):
        # node -1 used to index from the end and return 0.003737 here
        game = random_scenario_game(2, seed=1)
        prof = random_profile(game.tree, seed=2)
        surf = best_response_values(game, prof)
        n = game.tree.n_nodes
        assert ex_ante_check(game, prof, surf, n - 1) == 0.0
        for node in (-1, n):
            with pytest.raises(IndexOutOfRangeError, match=rf"^node {node} outside \[0, {n}\)$"):
                ex_ante_check(game, prof, surf, node)


class TestExAnteMemo:
    """``ex_ante_check`` reads one ``ex_ante_residuals`` table per (game, profile)."""

    @pytest.fixture
    def deep(self):
        game = random_scenario_game(10, seed=7, prior=0.3)
        prof = random_profile(game.tree, seed=8)
        return game, prof, best_response_values(game, prof)

    @pytest.fixture
    def tables(self, monkeypatch):
        # the games and profiles of every table ex_ante_check computes
        keys = []

        def counted(game, profile, surfaces):
            keys.append((game, profile))
            return ex_ante_residuals(game, profile, surfaces)

        monkeypatch.setattr(scenario, "ex_ante_residuals", counted)
        return keys

    def test_another_profile_or_game_recomputes(self, deep):
        game, prof_a, surf = deep
        prof_b = random_profile(game.tree, seed=9)
        game_b = dataclasses.replace(game, prior=0.9)
        nodes = range(game.tree.n_nodes)
        for g, p in ((game, prof_a), (game, prof_b), (game_b, prof_b), (game, prof_a)):
            table = ex_ante_residuals(g, p, surf)
            assert [ex_ante_check(g, p, surf, k) for k in nodes] == table.tolist()
        assert not np.array_equal(ex_ante_residuals(game, prof_b, surf),
                                  ex_ante_residuals(game, prof_a, surf))
        assert not np.array_equal(ex_ante_residuals(game_b, prof_b, surf),
                                  ex_ante_residuals(game, prof_b, surf))

    def test_one_table_per_loop(self, deep, tables):
        game, prof, surf = deep
        for k in range(game.tree.n_nodes):
            ex_ante_check(game, prof, surf, k)
        assert len(tables) == 1
        # an equal game that is another object is another key
        twin = dataclasses.replace(game)
        ex_ante_check(twin, prof, surf, 3)
        ex_ante_check(twin, prof, surf, 4)
        assert len(tables) == 2 and tables[1][0] is twin

    def test_node_outside_the_tree_raises_before_the_table(self, deep, tables):
        game, prof, surf = deep
        n = game.tree.n_nodes
        for node in (-1, n):
            with pytest.raises(IndexOutOfRangeError, match=rf"^node {node} outside \[0, {n}\)$"):
                ex_ante_check(game, prof, surf, node)
        assert not tables
        ex_ante_check(game, prof, surf, n - 1)
        for node in (-1, n):
            with pytest.raises(IndexOutOfRangeError):
                ex_ante_check(game, prof, surf, node)
        assert len(tables) == 1


class TestCertifyMart:
    def test_dominance_certified(self):
        game, prof = dominance_game(0.5)
        surf = best_response_values(game, prof)
        cert = certify_mart(game, prof, surf)
        assert cert.certified and cert.value == pytest.approx(0.55, abs=1e-12)

    def test_all_continue_certified_at_terminal_value(self):
        game, prof = all_continue_game(0.5)
        surf = best_response_values(game, prof)
        cert = certify_mart(game, prof, surf)
        assert cert.certified
        w = game.weights
        hT = game.tree.reach[game.tree.leaves] @ (
            w[0] * game.payoffs.h[0, game.tree.leaves]
            + w[1] * game.payoffs.h[1, game.tree.leaves]
        )
        assert cert.value == pytest.approx(float(hT), abs=1e-12)

    def test_scaled_surface_rejected(self):
        game, _, prof, surf = oracle_equilibrium(seed=50)
        if abs(surf.v_hat[0]) < 1e-6:
            pytest.skip("value too close to zero for the scaling test")
        scaled = ValueSurfaces(
            u_hat=surf.u_hat,
            v_hat=surf.v_hat * 1.1,
            u=surf.u,
            v=surf.v * 1.1,
            p=surf.p,
            degenerate=surf.degenerate,
            informed_stops=surf.informed_stops,
            uninformed_stops=surf.uninformed_stops,
        )
        cert = certify_mart(game, prof, scaled)
        assert not cert.certified
        assert any(tag.startswith("(v)") for tag, _, _ in cert.violations)

    def test_nan_fails(self):
        # NaN root values compare false against every bound, so they must fail, not pass
        game, _, prof, surf = oracle_equilibrium(seed=14)
        u_hat, v_hat = surf.u_hat.copy(), surf.v_hat.copy()
        u_hat[0, 0] = v_hat[0] = np.nan
        cert = certify_mart(game, prof, dataclasses.replace(surf, u_hat=u_hat, v_hat=v_hat))
        assert not cert.certified and np.isnan(cert.value)
        assert [c for c, _, _ in cert.violations] == [
            "(i) M0[0] submartingale", "(ii) N0 supermartingale", "(iii) obstacle U[0]",
            "(iv) obstacle V", "(v) root values"]
        assert certify_mart(game, prof, surf, tol=float("nan")).verdict == "rejected"


class TestCertifyStop:
    def test_dominance_certified(self):
        game, prof = dominance_game(0.5)
        surf = best_response_values(game, prof)
        cert = certify_stop(game, prof, surfaces=surf)
        assert cert.certified and cert.value == pytest.approx(0.55, abs=1e-12)

    @pytest.mark.parametrize("seed", [14, 61])
    def test_oracle_equilibrium_certified_at_lp_value(self, seed):
        game, sol, prof, surf = oracle_equilibrium(seed=seed)
        cert = certify_stop(game, prof, surfaces=surf)
        assert cert.certified
        assert cert.value == pytest.approx(sol.value, abs=1e-8)

    def test_mass_moved_off_support_rejected(self):
        game, sol, prof, surf = oracle_equilibrium(seed=16)
        levels = prof.zeta.levels.copy()
        levels[0] = min(1.0, levels[0] + 0.4)
        for m in range(1, game.tree.n_nodes):
            levels[m] = max(levels[m], levels[game.tree.parent[m]])
        levels[game.tree.leaves] = 1.0
        bad = StrategyProfile(prof.xi, GeneratingProcess.from_levels(levels, game.tree))
        bad_surf = best_response_values(game, bad)
        stop_cert = certify_stop(game, bad, surfaces=bad_surf)
        mart_cert = certify_mart(game, bad, bad_surf)
        assert not (stop_cert.certified and mart_cert.certified)

    def test_nan_fails_every_check(self):
        game, sol, prof, surf = oracle_equilibrium(seed=14)
        u_root, v_root = surf.root_values()
        cert = certify_stop(game, prof, np.array([np.nan, u_root[1]]), v_root)
        assert [c for c, _, _ in cert.violations] == ["(i) pure tau regime 0", "(iii) root values"]
        # the informed flows run against zeta, the uninformed ones against xi
        levels = prof.zeta.levels.copy()
        levels[0] = np.nan
        bad = StrategyProfile(prof.xi, GeneratingProcess.from_levels(levels, game.tree))
        cert = certify_stop(game, bad, u_root, v_root)
        assert [c for c, _, _ in cert.violations] == ["(i) pure tau regime 0", "(i) pure tau regime 1"]
        bad = StrategyProfile((GeneratingProcess.from_levels(levels, game.tree), prof.xi1), prof.zeta)
        cert = certify_stop(game, bad, u_root, v_root)
        assert [c for c, _, _ in cert.violations] == ["(ii) pure sigma"]


def _plan_pass(game, prof):
    """The certificate's pass on both informed rows and the negated uninformed row."""
    players = _players(game, prof)
    return _best_pure_rules(game.tree, _minimizing(players.stop), _minimizing(players.run))


def _assert_matches_enumeration(game, prof, eq_roots):
    """Verdicts against the enumerating reference, and the pass's numbers against enumeration."""
    own = best_response_values(game, prof).root_values()
    u_eq, v_eq = eq_roots
    for u_root, v_root in [own, eq_roots, (u_eq + 1e-6, v_eq), (u_eq, v_eq - 1e-6),
                           (u_eq - 1e-6, v_eq + 1e-6)]:
        cert = certify_stop(game, prof, u_root, v_root)
        ref = ref_certify_stop(game, prof, u_root, v_root)
        assert cert.certified == ref.certified
        assert {c for c, _, _ in cert.violations} == {c for c, _, _ in ref.violations}
        assert cert.value == ref.value

    vals_u, vals_v, rules = ref_pure_values(game, prof)
    best, p, first = _plan_pass(game, prof)
    enumerated = [vals_u[:, 0], vals_u[:, 1], -vals_v]
    first_stop = rules.stop_matrix.argmax(axis=1)
    for k, vals in enumerate(enumerated):
        assert abs(best[k] - vals.min()) <= 1e-12
        # the reported index is the smallest stop node of a minimizing rule
        assert first[k] in first_stop[vals <= vals.min() + 1e-12]

    forms = sequence_form(game, ancestor_matrix(game.tree))
    q = sum(w * (d + m.T @ prof.xi[i].steps) for i, (w, (_, d, m)) in enumerate(zip(game.weights, forms)))
    for i, (c, _, m) in enumerate(forms):
        np.testing.assert_allclose(p[i], c + m @ prof.zeta.steps, rtol=0, atol=1e-13)
    np.testing.assert_allclose(-p[2], q, rtol=0, atol=1e-13)


class TestCertifyStopMatchesEnumeration:
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_battery_games(self, depth):
        # every 4th game of criterion 1's battery at this depth
        first = {2: 0, 3: 80, 4: 160}[depth]
        for i in range(first, first + (40 if depth == 4 else 80), 4):
            game = random_scenario_game(depth, seed=1000 + i, prior=(0.2, 0.5, 0.8)[i % 3])
            eq = solve_scenario(game).profile(game.tree)
            roots = best_response_values(game, eq).root_values()
            _assert_matches_enumeration(game, eq, roots)
            _assert_matches_enumeration(game, random_profile(game.tree, seed=i), roots)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_random_trees(self, seed, depth, depth_first):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, depth, depth_first)
        assume(count_stopping_rules(tree) <= 5_000)
        game = random_game(rng, tree)
        eq = solve_scenario(game).profile(tree)
        roots = best_response_values(game, eq).root_values()
        _assert_matches_enumeration(game, eq, roots)
        _assert_matches_enumeration(game, random_profile(tree, seed=seed % 1000), roots)


class TestCrossCertifierAgreement:
    @pytest.mark.parametrize("seed", list(range(8)))
    def test_certifiers_agree_on_best_response_candidates(self, seed):
        game = random_scenario_game(2, seed=seed, prior=0.5)
        if seed % 2:
            prof = random_profile(game.tree, seed + 7)
        else:
            prof = solve_scenario(game).profile(game.tree)
        surf = best_response_values(game, prof)
        a = certify_mart(game, prof, surf).certified
        b = certify_stop(game, prof, surfaces=surf).certified
        assert a == b


def _relabelled(game, prof):
    """The same game and profile with the two types' names swapped: payoff rows, prior, incarnations."""
    pay = game.payoffs
    swapped = PayoffTriple(f=pay.f[::-1], g=pay.g[::-1], h=pay.h[::-1])
    return ScenarioGame(game.tree, swapped, 1.0 - game.prior), StrategyProfile(prof.xi[::-1], prof.zeta)


def _analysis(game, prof):
    """Surfaces, both reports and both certificates, as ``verify`` computes them."""
    surf = best_response_values(game, prof)
    return (surf, martingale_report(game, prof, surf), support_report(game, prof, surf),
            certify_mart(game, prof, surf), certify_stop(game, prof, surfaces=surf))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRelabelling:
    """Which type is called 0 changes no bit: every mix over the types is one ordered sum."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("depth", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("prior", [0.25, 0.375])  # 1 - (1 - p) == p, so the weights swap exactly
    def test_swapped_types_give_the_same_bits(self, prior, depth, seed):
        game = random_scenario_game(depth, seed=10 * depth + seed, prior=prior)
        prof = random_profile(game.tree, seed=seed)
        swapped = _relabelled(game, prof)
        assert swapped[0].prior == 1.0 - prior and 1.0 - swapped[0].prior == prior
        surf, mrep, srep, cert_m, cert_s = _analysis(game, prof)
        surf_s, mrep_s, srep_s, cert_m_s, cert_s_s = _analysis(*swapped)
        for rows, rows_s in [(surf.u_hat, surf_s.u_hat), (mrep.m0_drift, mrep_s.m0_drift), (srep.z, srep_s.z)]:
            _same_bits(rows[::-1], rows_s)
        for same, same_s in [(surf.v_hat, surf_s.v_hat), (surf.v, surf_s.v), (mrep.n0_drift, mrep_s.n0_drift),
                             (srep.y2, srep_s.y2), (cert_m.value, cert_m_s.value), (cert_s.value, cert_s_s.value)]:
            _same_bits(same, same_s)
        assert (cert_m.verdict, cert_s.verdict) == (cert_m_s.verdict, cert_s_s.verdict)
        np.testing.assert_allclose(surf_s.p, 1.0 - surf.p, rtol=0, atol=1e-15)
        assert abs(solve_scenario(swapped[0]).value - solve_scenario(game).value) <= 1e-12


class TestTruncationConsistency:
    @pytest.mark.parametrize("node", [1, 2, 3, 6])
    def test_truncated_profile_reproduces_normalized_surfaces(self, node):
        # restarting the game at a node with the truncated controls and the
        # belief held there as the new prior reproduces the normalized
        # surfaces on that node's subtree
        game = random_scenario_game(3, seed=77, prior=0.5)
        tree = game.tree
        prof = random_profile(tree, 78)
        surf = best_response_values(game, prof)
        stops = tree.depth == tree.depth[node]

        def truncated(proc):
            return GeneratingProcess.from_levels(ref_truncate_control(tree, proc.levels, stops), tree)

        trunc = StrategyProfile(tuple(map(truncated, prof.xi)), truncated(prof.zeta))
        restarted = ScenarioGame(tree, game.payoffs, prior=float(surf.p[node]))
        tsurf = best_response_values(restarted, trunc)
        in_subtree = np.zeros(tree.n_nodes, dtype=bool)
        in_subtree[node] = True
        for m in range(node + 1, tree.n_nodes):
            in_subtree[m] = in_subtree[tree.parent[m]]
        np.testing.assert_allclose(tsurf.u[:, in_subtree], surf.u[:, in_subtree], atol=1e-10)
        np.testing.assert_allclose(tsurf.v[in_subtree], surf.v[in_subtree], atol=1e-10)
        np.testing.assert_allclose(tsurf.p[in_subtree], surf.p[in_subtree], atol=1e-12)


def _battery():
    """(game, profile, other profile) cases and the oracle's gaps: oracle and random profiles on random
    games of depths 2 to 10, and the two closed-form games at priors 0, 0.3 and 1."""
    cases, gaps = [], []
    for depth in (2, 3, 4, 5, 6):
        game = random_scenario_game(depth, seed=900 + depth, prior=0.3)
        sol = solve_scenario(game)
        lp, rnd = sol.profile(game.tree), random_profile(game.tree, seed=depth)
        cases += [(game, lp, rnd), (game, rnd, lp)]
        gaps.append(sol.gap)
    for depth in (8, 10):
        game = random_scenario_game(depth, seed=900 + depth, prior=0.35)
        cases.append((game, random_profile(game.tree, seed=depth), random_profile(game.tree, seed=depth + 1)))
    for build in (dominance_game, all_continue_game):
        for prior in (0.0, 0.3, 1.0):
            game, prof = build(prior)
            cases.append((game, prof, random_profile(game.tree, seed=3)))
    return cases, gaps


def _fold(h, value):
    """Feed every field of a report, certificate or surface set into the hash ``h``, arrays and
    numbers by dtype, shape and bytes, so that a -0.0 or a last-bit move changes the digest."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _fold(h, getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            _fold(h, item)
    elif value is None:
        h.update(b"None")
    else:
        a = np.asarray(value)
        h.update(f"{a.dtype}{a.shape}".encode() + a.tobytes())


class TestBitIdentity:
    def test_battery_digest(self):
        # every report and certificate, at three tolerances and with surfaces of the case's own
        # profile and of the other one, so that violation lists and NaN verdicts are covered
        cases, gaps = _battery()
        h = hashlib.sha256()
        _fold(h, gaps)
        for game, prof, other in cases:
            surf = best_response_values(game, prof)
            _fold(h, surf)
            for s in (surf, best_response_values(game, other)):
                _fold(h, [martingale_report(game, prof, s), support_report(game, prof, s),
                          ex_ante_residuals(game, prof, s)])
                for tol in (1e-8, 1e-3, float("nan")):
                    _fold(h, [martingale_report(game, prof, s, xi_override=other.xi, zeta_override=other.zeta,
                                                tol=tol),
                              certify_mart(game, prof, s, tol=tol), certify_stop(game, prof, surfaces=s, tol=tol)])
        assert h.hexdigest() == "c9ba50eb309c1973fc782dcd579120193a7d79afbeb3d3d102844efbb97dae08"
