import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymdynkin
import asymdynkin.dynamics
from asymdynkin import core
from asymdynkin.core import (
    GeneratingProcess,
    PayoffTriple,
    RandomDevice,
    _exact_single,
    binary_tree,
    expected_payoff_exact,
    validate_generating,
)
from asymdynkin.gamegen import random_profile, random_scenario_game
from asymdynkin.oracle import enumerate_stopping_rules

from helpers import (
    atom_count,
    brute_force_expected,
    expected_payoff_mc,
    realized_payoff,
    ref_truncate_control,
    sample_stopping_time,
    single_path_tree,
)

# references moved to tests/helpers.py, and the twins and single-regime
# payoff form deleted with them: the package exports none of them
REMOVED_NAMES = ["expected_payoff_mc", "sample_paths", "sample_stopping_time", "realized_payoff",
                 "single_path_tree", "TestFunction", "standard_test_functions",
                 "analytic_generator", "mc_generator_drift", "generator_check", "generators",
                 "truncate_control"]
REMOVED = [(owner, name) for owner in (asymdynkin, core, asymdynkin.dynamics)
           for name in REMOVED_NAMES]
REMOVED += [(PayoffTriple, "per_regime"), (PayoffTriple, "regime")]
# a pure rule is a 0/1 generating process, and a rule set only its (steps, levels)
# matrices; the enumeration reference is imported from ``asymdynkin.oracle``
REMOVED += [(asymdynkin, "StoppingRule"), (core, "StoppingRule"),
            (enumerate_stopping_rules(binary_tree(1)), "rules")]
REMOVED += [(asymdynkin, name) for name in
            ("EnumerationCapExceeded", "build_matrix", "enumerate_stopping_rules", "pure_gap")]


@pytest.mark.parametrize("owner, name", REMOVED,
                         ids=[f"{getattr(o, '__name__', type(o).__name__)}.{n}" for o, n in REMOVED])
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)


MODULES = sorted(m.name for m in pkgutil.walk_packages(asymdynkin.__path__, "asymdynkin."))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def line(levels):
    tree = single_path_tree(len(levels) - 1)
    return tree, GeneratingProcess.from_levels(np.asarray(levels, dtype=float), tree)


class TestValidateGenerating:
    def test_valid_three_point(self):
        tree, rho = line([0.0, 0.4, 1.0])
        assert validate_generating(rho, tree).ok

    def test_terminal_not_one(self):
        tree, rho = line([0.0, 0.4, 0.9])
        rep = validate_generating(rho, tree)
        assert not rep.ok
        assert any(v.startswith("TerminalNotOne") for v in rep.violations)

    def test_not_monotone(self):
        tree, rho = line([0.2, 0.1, 1.0])
        rep = validate_generating(rho, tree)
        assert not rep.ok
        assert any(v.startswith("NotMonotone") for v in rep.violations)

    def test_shape_mismatch(self):
        tree, rho = line([0.0, 0.4, 1.0])
        other = binary_tree(2)
        rep = validate_generating(rho, other)
        assert not rep.ok
        assert rep.violations[0].startswith("ShapeMismatch")


class TestSampleStoppingTime:
    def test_first_exceed(self):
        tree, rho = line([0.0, 0.4, 1.0])
        assert sample_stopping_time(rho, tree.paths[0], 0.5) == 2

    def test_strict_inequality(self):
        tree, rho = line([0.0, 0.4, 1.0])
        assert sample_stopping_time(rho, tree.paths[0], 0.4) == 2

    def test_immediate(self):
        tree, rho = line([1.0, 1.0, 1.0])
        assert sample_stopping_time(rho, tree.paths[0], 0.7) == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_always_terminates_within_grid(self, seed):
        rng = np.random.default_rng(seed)
        tree = single_path_tree(5)
        levels = np.sort(rng.uniform(0, 1, 6))
        levels[-1] = 1.0
        rho = GeneratingProcess.from_levels(levels, tree)
        z = rng.uniform(0, 1)
        if z == 1.0:
            z = 0.0
        assert 0 <= sample_stopping_time(rho, tree.paths[0], z) <= 5

    def test_empirical_cdf_matches_levels(self):
        tree, rho = line([0.1, 0.3, 0.3, 0.8, 1.0])
        n = 100_000
        z = RandomDevice(seed=11, stream=0).uniforms(n)
        lv = rho.levels[tree.paths[0]]
        idx = (lv[None, :] <= z[:, None]).sum(axis=1)  # vectorized sample_stopping_time
        assert idx[0] == sample_stopping_time(rho, tree.paths[0], z[0])
        for k, target in enumerate(lv):
            emp = np.mean(idx <= k)
            band = 4 * np.sqrt(max(target * (1 - target), 1e-12) / n)
            assert abs(emp - target) <= max(band, 1e-3)


class TestRealizedPayoff:
    def setup_method(self):
        self.tree = single_path_tree(2)
        self.pay = PayoffTriple(
            f=np.array([4.0, 3.0, 2.5]),
            g=np.array([-1.0, -0.5, 0.0]),
            h=np.array([1.0, 2.0, 1.5]),
        )

    def test_minimizer_first(self):
        assert realized_payoff(self.pay, self.tree.paths[0], 1, 2) == 3.0

    def test_tie(self):
        assert realized_payoff(self.pay, self.tree.paths[0], 0, 0) == 1.0

    def test_maximizer_first(self):
        assert realized_payoff(self.pay, self.tree.paths[0], 2, 0) == -1.0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            realized_payoff(self.pay, self.tree.paths[0], 5, 0)


class TestExpectedPayoffExact:
    def test_terminal_tie_only(self):
        tree = single_path_tree(1)
        pay = PayoffTriple(f=np.array([4.0, 3.0]), g=np.array([-1.0, 0.0]), h=np.array([1.0, 2.0]))
        jump_end = GeneratingProcess.jump_at_depth(1, tree)
        assert _exact_single(tree, pay.f, pay.g, pay.h, jump_end, jump_end) == pytest.approx(2.0, abs=1e-15)

    def test_half_mass_at_zero(self):
        tree = single_path_tree(1)
        pay = PayoffTriple(f=np.array([4.0, 3.0]), g=np.array([-1.0, 0.0]), h=np.array([1.0, 2.0]))
        xi = GeneratingProcess.from_levels(np.array([0.5, 1.0]), tree)
        zeta = GeneratingProcess.jump_at_depth(1, tree)
        # tau=0 w.p. 0.5 gives f_0; tau=1=sigma w.p. 0.5 gives h_1
        assert _exact_single(tree, pay.f, pay.g, pay.h, xi, zeta) == pytest.approx(3.0, abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_enumeration(self, seed):
        game = random_scenario_game(3, seed=seed, prior=0.4)
        prof = random_profile(game.tree, seed + 100)
        exact = expected_payoff_exact(
            game.tree, game.payoffs, (prof.xi0, prof.xi1), prof.zeta, prior=game.prior
        )
        brute = brute_force_expected(
            game.tree, game.payoffs, (prof.xi0, prof.xi1), prof.zeta, prior=game.prior
        )
        assert atom_count(game.tree, (prof.xi0, prof.xi1), prof.zeta) <= 1000
        assert exact == pytest.approx(brute, abs=1e-12)

    def test_matches_monte_carlo(self):
        game = random_scenario_game(3, seed=5, prior=0.6)
        prof = random_profile(game.tree, 42)
        exact = expected_payoff_exact(
            game.tree, game.payoffs, (prof.xi0, prof.xi1), prof.zeta, prior=game.prior
        )
        est, se = expected_payoff_mc(
            game.tree, game.payoffs, (prof.xi0, prof.xi1), prof.zeta,
            n=100_000, device=RandomDevice(seed=2024), prior=game.prior,
        )
        assert abs(est - exact) <= 4 * se

    def test_pure_processes_match_direct_expectation(self):
        game = random_scenario_game(2, seed=9, prior=0.3)
        tree = game.tree
        xi = GeneratingProcess.jump_at_depth(1, tree)
        zeta = GeneratingProcess.jump_at_depth(2, tree)
        exact = expected_payoff_exact(tree, game.payoffs, (xi, xi), zeta, prior=game.prior)
        # tau = 1 < sigma = 2 always: payoff is f at the depth-1 node
        direct = 0.0
        for i, w in enumerate([1.0 - game.prior, game.prior]):
            for row, leaf in enumerate(tree.leaves):
                path = tree.paths[row]
                direct += w * tree.reach[leaf] * game.payoffs.f[i, path[1]]
        assert exact == pytest.approx(direct, abs=1e-12)


class TestExpectedPayoffMC:
    def test_constant_game_zero_stderr(self):
        tree = single_path_tree(2)
        c = 0.7
        pay = PayoffTriple(f=np.full(3, c), g=np.full(3, c), h=np.full(3, c))
        prof = random_profile(tree, 3)
        est, se = expected_payoff_mc(tree, pay, prof.xi0, prof.zeta, n=500, device=RandomDevice(1))
        assert est == pytest.approx(c, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_single_draw(self):
        game = random_scenario_game(2, seed=3)
        prof = random_profile(game.tree, 4)
        est, se = expected_payoff_mc(
            game.tree, game.payoffs, (prof.xi0, prof.xi1), prof.zeta,
            n=1, device=RandomDevice(7), prior=game.prior,
        )
        assert se == 0.0
        assert np.isfinite(est)

    def test_deterministic_given_seed(self):
        game = random_scenario_game(2, seed=3)
        prof = random_profile(game.tree, 4)
        args = (game.tree, game.payoffs, (prof.xi0, prof.xi1), prof.zeta)
        a = expected_payoff_mc(*args, n=2000, device=RandomDevice(99), prior=game.prior)
        b = expected_payoff_mc(*args, n=2000, device=RandomDevice(99), prior=game.prior)
        assert a == b


def _truncated(proc, stops, tree):
    return GeneratingProcess.from_levels(ref_truncate_control(tree, proc.levels, stops), tree)


class TestTruncateControl:
    def test_mid_path_restart(self):
        tree, rho = line([0.0, 0.4, 0.4, 1.0])
        out = _truncated(rho, tree.depth == 2, tree)
        np.testing.assert_allclose(out.levels, [0.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_exhausted_prefix_gives_constant_one(self):
        tree, rho = line([1.0, 1.0, 1.0, 1.0])
        out = _truncated(rho, tree.depth == 2, tree)
        np.testing.assert_allclose(out.levels[2:], [1.0, 1.0])
        np.testing.assert_allclose(out.levels[:2], [0.0, 0.0])

    def test_truncation_at_zero_is_identity(self):
        tree, rho = line([0.2, 0.5, 0.9, 1.0])
        out = _truncated(rho, tree.depth == 0, tree)
        np.testing.assert_allclose(out.levels, rho.levels, atol=1e-15)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_output_always_validates(self, seed, depth):
        tree = binary_tree(3)
        prof = random_profile(tree, seed)
        out = _truncated(prof.zeta, tree.depth == depth, tree)
        assert validate_generating(out, tree).ok


class TestRandomDevice:
    def test_reproducible(self):
        a = RandomDevice(seed=5, stream=2).uniforms(10)
        b = RandomDevice(seed=5, stream=2).uniforms(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RandomDevice(seed=5, stream=0).uniforms(10)
        b = RandomDevice(seed=5, stream=1).uniforms(10)
        assert not np.allclose(a, b)
