import dataclasses
import hashlib
import json

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from asymdynkin import gameio
from asymdynkin.core import RandomDevice, ShapeMismatchError
from asymdynkin.dynamics import (
    DiffusionModel,
    PDEGrid,
    extract_strategies,
    mc_verify_sufficiency,
    pde_solve_system,
    reference_dynkin_1d,
    simulate_fixed_regime,
    simulate_regime_paths,
)
from asymdynkin.dynamics import NoConvergence, pde, strategies, verify
from asymdynkin.dynamics.model import parse_expression
from asymdynkin.dynamics.simulate import _DRAW_AHEAD_PATHS
from asymdynkin.dynamics.pde import (PDEStats, PDESurfaces, _factor, _implicit_matrix, _operator,
                                     _pi_copy)

from helpers import (analytic_generator, ref_mc_verify_sufficiency, ref_pi_copy,
                     ref_strategy_evaluate, standard_test_functions)


def const(c):
    return lambda x: c * np.ones_like(np.asarray(x, dtype=float))


F = lambda t, x: 0.6 + 0.0 * np.asarray(t) + 0.0 * np.asarray(x)
G = lambda t, x: -0.6 + 0.0 * np.asarray(t) + 0.0 * np.asarray(x)
H = lambda t, x: np.clip(np.asarray(x) + 0.0 * np.asarray(t), -0.6, 0.6)


@pytest.fixture(scope="module")
def degenerate():
    model = DiffusionModel(
        mu0=const(0.1), mu1=const(0.1), sigma=const(0.4),
        x0=0.0, prior=0.5, horizon=1.0, domain=(-2.0, 2.0),
    )
    grid = PDEGrid.regular(1.0, model.domain, m_t=41, m_pi=11, m_x=61)
    return model, grid, pde_solve_system(model, F, G, H, grid)


@pytest.fixture(scope="module")
def generic():
    model = DiffusionModel(
        mu0=const(-0.4), mu1=const(0.4), sigma=const(0.5),
        x0=0.0, prior=0.5, horizon=1.0, domain=(-2.0, 2.0),
    )
    grid = PDEGrid.regular(1.0, model.domain, m_t=41, m_pi=13, m_x=61)
    return model, grid, pde_solve_system(model, F, G, H, grid)


def _moving_sets():
    # x-dependent obstacles: the stopping sets S and S1 change from slice to slice
    model = DiffusionModel(
        mu0=const(-0.6), mu1=const(0.6), sigma=const(0.5),
        x0=0.0, prior=0.5, horizon=1.0, domain=(-2.0, 2.0),
    )
    clipx = lambda t, x: np.clip(np.asarray(x) + 0.0 * np.asarray(t), -1.0, 1.0)
    payoffs = (lambda t, x: clipx(t, x) + 0.15, lambda t, x: clipx(t, x) - 0.15, clipx)
    return model, PDEGrid.regular(1.0, model.domain, 21, 9, 41), payoffs


@pytest.fixture(scope="module")
def moving():
    model, grid, payoffs = _moving_sets()
    return model, grid, pde_solve_system(model, *payoffs, grid)


@pytest.fixture(scope="module")
def model_b():
    # asymmetric drifts, prior 0.3 and narrow obstacles that both bind near x = 0
    model = DiffusionModel(
        mu0=const(-0.2), mu1=const(0.5), sigma=const(0.5),
        x0=0.0, prior=0.3, horizon=1.0, domain=(-2.0, 2.0),
    )
    f = lambda t, x: 0.1 + 0.0 * np.asarray(t) + 0.0 * np.asarray(x)
    g = lambda t, x: -0.1 + 0.0 * np.asarray(t) + 0.0 * np.asarray(x)
    h = lambda t, x: np.clip(np.asarray(x) + 0.0 * np.asarray(t), -0.1, 0.1)
    grid = PDEGrid.regular(1.0, model.domain, m_t=101, m_pi=21, m_x=101)
    return model, grid, pde_solve_system(model, f, g, h, grid)


class TestGrid:
    def test_pi_count_must_be_odd(self):
        with pytest.raises(ValueError):
            PDEGrid.regular(1.0, (-1, 1), 11, 10, 21)

    def test_half_is_a_node(self):
        grid = PDEGrid.regular(1.0, (-1, 1), 11, 21, 21)
        assert 0.5 in grid.pi


def _tanh_model():
    # x-dependent drifts and sigma, so the belief coefficients vary along x
    return DiffusionModel(
        mu0=parse_expression("-0.3 + 0.5*tanh(x)"), mu1=parse_expression("0.4 - 0.1*x"),
        sigma=parse_expression("0.5 + 0.2*tanh(x)"),
        x0=0.0, prior=0.5, horizon=1.0, domain=(-1.0, 1.5),
    )


# sha256 of the canonical CSC arrays (indptr, indices, data) of ``_operator``
_OPERATOR_DIGESTS = {
    ("generic", "observation"): "3d223017eca5b0f7c7188ed2663149ef8adb7fc914172234478a532e8ef5311f",
    ("generic", "regime-0"): "577ab95db68de716e960718afa1c887b645c7b46bde45aa5a6ed1bf604283f8d",
    ("generic", "regime-1"): "e090ad954da3bb4426c609675052c24d6869cca7bb326e7c2159acda5b05f618",
    # w = 0: the three modes coincide
    ("degenerate", "observation"): "ea9566997874b328eb3b407d88ef194ef9ebc42b458be288c036380a3f7a2b31",
    ("degenerate", "regime-0"): "ea9566997874b328eb3b407d88ef194ef9ebc42b458be288c036380a3f7a2b31",
    ("degenerate", "regime-1"): "ea9566997874b328eb3b407d88ef194ef9ebc42b458be288c036380a3f7a2b31",
    ("tanh", "observation"): "caff73c10c02e220f71b6a79d6759eb0a579da182dee76461d5401d31528e62d",
    ("tanh", "regime-0"): "b0338c5759476eea1c1e47c4c4ed85c9545c7a65d5a28a67dbb4a8a5b2da445c",
    ("tanh", "regime-1"): "e1d4609776530e600c689d00f15daaa36a28db0c4e1865f5dc171075618ad0fc",
    # one interior pi row and one interior x column
    ("tanh_5x3x3", "observation"): "08aa62f9c2dad25ae2785566639dc5bdf037824a3486854ee01b345bf6d21b23",
    ("tanh_5x3x3", "regime-0"): "e4c4ab2e9fc85187a70e2440957ae9332c344ae18c505433b8976d5a41cba08e",
    ("tanh_5x3x3", "regime-1"): "db1de5d149227432e97c5ba5764dac59e3b348dfd87e20378f7ff9e8e452ed35",
}


_TANH_GRIDS = {"tanh": (3, 9, 11), "tanh_5x3x3": (5, 3, 3), "tanh_101x21x101": (101, 21, 101)}


def _operator_case(request, case):
    """(model, grid) of a tanh case or of a solved fixture."""
    if case in _TANH_GRIDS:
        model = _tanh_model()
        return model, PDEGrid.regular(1.0, model.domain, *_TANH_GRIDS[case])
    model, grid, _ = request.getfixturevalue(case)
    return model, grid


def _scipy_csc(op):
    """The scipy matrix of ``_operator``'s (indptr, indices, data)."""
    n = op[0].size - 1
    return scipy.sparse.csc_matrix(op[::-1], shape=(n, n))


class TestOperator:
    @pytest.mark.parametrize("case, mode", list(_OPERATOR_DIGESTS))
    def test_operator_pinned(self, request, case, mode):
        # a rewrite of the stencil must not move a bit of the assembled matrix
        op = _operator(*_operator_case(request, case), mode)
        assert [a.dtype for a in op] == [np.int32, np.int32, np.float64]
        digest = hashlib.sha256()
        for arr in op:
            digest.update(np.ascontiguousarray(arr).tobytes())
        assert digest.hexdigest() == _OPERATOR_DIGESTS[case, mode]

    @pytest.mark.parametrize("mode", ["regime-0", "regime-1"])
    @pytest.mark.parametrize("case", ["generic", "model_b", "tanh", "tanh_101x21x101"])
    def test_implicit_step_matches_scipy(self, request, case, mode):
        # I - dt L formed by hand is scipy's sparse difference to the bit, and its
        # SuperLU factor solves exactly as splu's does
        model, grid = _operator_case(request, case)
        dt = grid.t[1] - grid.t[0]
        op = _operator(model, grid, mode)
        want = scipy.sparse.identity(op[0].size - 1, format="csc") - dt * _scipy_csc(op)
        want.sum_duplicates()
        got = _implicit_matrix(op, dt)
        for a, b in zip(got, (want.indptr, want.indices, want.data)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        lu, ref = _factor(*got), scipy.sparse.linalg.splu(want)
        rhs = np.random.default_rng(0).standard_normal((3, op[0].size - 1))
        for b in (*rhs, np.tanh(np.tile(grid.x, grid.pi.size))):
            assert lu.solve(b).tobytes() == ref.solve(b).tobytes()

    @pytest.mark.parametrize("mode", ["observation", "regime-0", "regime-1"])
    def test_operator_matches_analytic_generator(self, mode):
        # the assembled stencil is exact on linear functions, and on squares
        # up to the upwind term |drift| * step
        model = _tanh_model()
        grid = PDEGrid.regular(1.0, model.domain, 3, 9, 11)
        dpi, dx = grid.pi[1] - grid.pi[0], grid.x[1] - grid.x[0]
        op = _scipy_csc(_operator(model, grid, mode))
        P, X = np.meshgrid(grid.pi, grid.x, indexing="ij")
        phis = {phi.name: phi for phi in standard_test_functions()}
        worst = 0.0
        for i in range(1, grid.pi.size - 1):
            for j in range(1, grid.x.size - 1):
                p, x = grid.pi[i], grid.x[j]
                drift = {name: analytic_generator(model, phis[name], p, x, mode)
                         for name in ("x", "pi")}
                upwind = {"x^2": abs(drift["x"]) * dx, "pi^2": abs(drift["pi"]) * dpi}
                for name in ("x", "pi", "pi*x", "x^2", "pi^2"):
                    phi = phis[name]
                    applied = (op @ phi.value(P, X).ravel()).reshape(P.shape)[i, j]
                    exact = analytic_generator(model, phi, p, x, mode) + upwind.get(name, 0.0)
                    worst = max(worst, abs(applied - exact))
        assert worst <= 1e-12


class TestDegenerateReduction:
    def test_terminal_slice_is_h(self, degenerate):
        model, grid, surf = degenerate
        expected = np.broadcast_to(H(grid.t[-1], grid.x), surf.v[-1].shape)
        np.testing.assert_allclose(surf.v[-1], expected, atol=1e-14)

    def test_v_is_pi_independent(self, degenerate):
        _, _, surf = degenerate
        assert np.max(np.abs(surf.v - surf.v[:, :1, :])) <= 1e-8

    def test_matches_reference_double_obstacle(self, degenerate):
        # with w = 0 each regime step is the reference's step-then-clip, so all
        # three surfaces match it on every pi row
        model, grid, surf = degenerate
        ref = reference_dynkin_1d(const(0.1), const(0.4), F, G, H, grid.t, grid.x)
        for name, surface in (("v", surf.v), ("u0", surf.u[0]), ("u1", surf.u[1])):
            assert np.max(np.abs(surface - ref[:, None, :])) <= 1e-8, name

    def test_identity_residual_small(self, degenerate):
        _, _, surf = degenerate
        assert surf.identity_residual <= 5e-2

    def test_obstacles_respected(self, degenerate):
        model, grid, surf = degenerate
        assert np.all(surf.u <= 0.6 + 1e-10)
        assert np.all(surf.v >= -0.6 - 1e-10)

    def test_both_obstacles_bind_somewhere(self, degenerate):
        # the comparison with the double-obstacle reference is vacuous if
        # one obstacle never binds
        _, _, surf = degenerate
        assert surf.in_s.any()
        assert surf.in_sk[0].any()


class TestGenericModel:
    def test_identity_residual_on_continuation(self, generic):
        _, _, surf = generic
        assert surf.identity_residual <= 5e-2

    def test_grid_refinement_shrinks_probe_errors(self):
        # every surface moves closer to the finest level at each refinement
        model = DiffusionModel(
            mu0=const(-0.4), mu1=const(0.4), sigma=const(0.5),
            x0=0.0, prior=0.5, horizon=0.5, domain=(-2.0, 2.0),
        )
        probes = [(0.5, 0.0), (0.25, 0.4), (0.75, -0.4)]
        vals = []
        for mt, mpi, mx in [(11, 5, 21), (21, 9, 41), (41, 17, 81), (81, 33, 161)]:
            grid = PDEGrid.regular(0.5, model.domain, mt, mpi, mx)
            surf = pde_solve_system(model, F, G, H, grid)
            ip = [int(round(p * (mpi - 1))) for p, _ in probes]
            ix = [int(round((x + 2.0) / 4.0 * (mx - 1))) for _, x in probes]
            vals.append({name: w[0, ip, ix] for name, w in zip(("v", "u0", "u1"), (surf.v, *surf.u))})
        for name in ("v", "u0", "u1"):
            errors = [np.abs(level[name] - vals[-1][name]).max() for level in vals[:-1]]
            assert errors[0] > errors[1] > errors[2], (name, errors)


class TestIdentityResidual:
    def test_npy_round_trip_keeps_residual(self, generic, tmp_path):
        _, _, surf = generic
        path = tmp_path / "surfaces.npy"
        gameio.write_surfaces_npy(path, surf)
        assert gameio.surfaces_from_npy(path).identity_residual == surf.identity_residual


class TestSplittingStructure:
    @pytest.mark.parametrize("case", ["generic", "degenerate", "moving"])
    def test_two_factors_and_exact_identity(self, request, case):
        _, grid, surf = request.getfixturevalue(case)
        assert surf.stats == PDEStats(2 * (grid.t.size - 1), 2)
        pi_col = grid.pi[:, None]
        assert np.max(np.abs(surf.v - (pi_col * surf.u[1] + (1.0 - pi_col) * surf.u[0]))) <= 1e-15

    def test_singular_step_raises_no_convergence(self, monkeypatch):
        model, _, payoffs = _moving_sets()
        grid = PDEGrid.regular(1.0, model.domain, 3, 3, 5)
        dt, n = grid.t[1] - grid.t[0], grid.pi.size * grid.x.size
        # L = I / dt makes the implicit step I - dt L the zero matrix
        eye = (np.arange(n + 1, dtype=np.int32), np.arange(n, dtype=np.int32), np.full(n, 1.0 / dt))
        monkeypatch.setattr(pde, "_operator", lambda *_: eye)
        with pytest.raises(NoConvergence, match="regime-0 system is singular"):
            pde_solve_system(model, *payoffs, grid)

    @pytest.mark.parametrize("case", [
        "generic", "model_b",
        pytest.param("moving", marks=pytest.mark.xfail(strict=True, reason=(
            "v keeps a concave kink in pi where S meets S1; refinement does not remove it"))),
    ])
    def test_v_is_convex_in_pi(self, request, case):
        # the informed player minimizes, so the value is convex in the prior
        _, _, surf = request.getfixturevalue(case)
        v = surf.v
        assert np.min(v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) >= -1e-9


class TestStrategyExtraction:
    def test_trajectories_are_generating_processes(self, generic):
        model, grid, surf = generic
        smap = extract_strategies(surf, model, dt=0.025)
        x = simulate_fixed_regime(model, 1, 200, 0.025, RandomDevice(13))
        traj = smap.evaluate(x)
        for arr in (*traj.xi, traj.zeta):
            assert np.all(np.diff(arr, axis=1) >= -1e-12)
            np.testing.assert_allclose(arr[:, -1], 1.0, atol=1e-12)
            assert arr.min() >= -1e-12 and arr.max() <= 1.0 + 1e-12

    def test_immediate_stop_when_started_inside_s(self, generic):
        model, grid, surf = generic
        forced = surf.in_s.copy()
        forced[:] = True
        from asymdynkin.dynamics.pde import PDESurfaces

        all_stop = PDESurfaces(grid, surf.u, surf.v, surf.in_sk, forced)
        smap = extract_strategies(all_stop, model, dt=0.05)
        x = np.zeros((3, 21))
        traj = smap.evaluate(x)
        np.testing.assert_allclose(traj.zeta[:, 0], 1.0)

    def test_symmetric_model_identical_incarnations(self):
        model = DiffusionModel(
            mu0=const(0.1), mu1=const(0.1), sigma=const(0.4),
            x0=0.0, prior=0.5, horizon=1.0, domain=(-2.0, 2.0),
        )
        grid = PDEGrid.regular(1.0, model.domain, 21, 11, 41)
        surf = pde_solve_system(model, F, G, H, grid)
        smap = extract_strategies(surf, model, dt=0.05)
        x = simulate_fixed_regime(model, 0, 100, 0.05, RandomDevice(14))
        traj = smap.evaluate(x)
        np.testing.assert_allclose(traj.xi[0], traj.xi[1], atol=1e-12)

    def test_reflection_stays_near_the_boundary(self, generic):
        # the pushed belief never burrows deeper than about one grid cell
        # into the informed action region
        model, grid, surf = generic
        dt = 1e-3
        smap = extract_strategies(surf, model, dt=dt)
        x = simulate_fixed_regime(model, 1, 200, dt, RandomDevice(19))
        traj = smap.evaluate(x)
        dpi = grid.pi[1] - grid.pi[0]
        depths = []
        for k in range(traj.t.size - 1):
            ti = int(np.clip(np.searchsorted(grid.t, traj.t[k] - 1e-12), 0, grid.t.size - 1))
            pj = np.clip(np.rint(traj.p[:, k] / dpi).astype(int), 0, grid.pi.size - 1)
            xj = np.clip(
                np.rint((x[:, k] - grid.x[0]) / (grid.x[1] - grid.x[0])).astype(int),
                0, grid.x.size - 1,
            )
            alive = traj.xi[1][:, k] < 1.0 - 1e-9
            for path in np.flatnonzero(surf.in_sk[1, ti, pj, xj] & alive):
                d = 0
                j = pj[path]
                while j - d - 1 >= 0 and surf.in_sk[1, ti, j - d - 1, xj[path]]:
                    d += 1
                depths.append(d)
        depths = np.asarray(depths) if depths else np.zeros(1, dtype=int)
        assert np.quantile(depths, 0.999) <= 1
        assert depths.max() <= 2

    def test_flat_off_mass_placement(self, generic):
        # stopping mass lands only where the value sits on the obstacle
        model, grid, surf = generic
        smap = extract_strategies(surf, model, dt=0.025)
        x = simulate_fixed_regime(model, 1, 300, 0.025, RandomDevice(15))
        traj = smap.evaluate(x)
        f_gap = 0.6 - _lookup_u(surf, traj, x, regime=1)
        dxi = np.diff(np.concatenate([np.zeros((x.shape[0], 1)), traj.xi[1]], axis=1), axis=1)
        off_mass = np.where(f_gap[:, :-1] > 1e-3, dxi[:, :-1], 0.0).sum(axis=1)
        assert off_mass.max(initial=0.0) <= 1e-6

    @pytest.mark.parametrize("change, axis", [
        (dict(horizon=2.0), "t"), (dict(horizon=0.5), "t"),
        (dict(domain=(-5.0, 5.0)), "x"), (dict(domain=(-2.0, 1.5)), "x"),
    ])
    def test_refuses_surfaces_of_another_model(self, generic, change, axis):
        # the lookups clip to the grid's edges, so surfaces solved for another
        # horizon or domain would be read at the wrong points without a word
        model, _, surf = generic
        with pytest.raises(ValueError, match=f"the {axis} grid spans"):
            extract_strategies(surf, dataclasses.replace(model, **change), dt=0.05)

    def test_grid_ends_within_the_slack(self, generic):
        # within 1e-9 of a grid step of the model's ends, as PDEGrid's spacing check
        model, grid, surf = generic
        near = dataclasses.replace(model, horizon=1.0 + 1e-12, domain=(-2.0 - 1e-12, 2.0))
        extract_strategies(surf, near, dt=0.05)

    @pytest.mark.parametrize("cut", [np.s_[:, :4], np.s_[:5]], ids=["fewer_steps", "fewer_paths"])
    def test_evaluate_refuses_psi_of_another_shape(self, generic, cut):
        # fewer steps left the buffer's last rows unwritten; fewer paths failed in numpy
        model, _, surf = generic
        x, psi = _paths(model, "regime", 10, 0.1, 1)
        with pytest.raises(ShapeMismatchError, match=r"psi has shape"):
            extract_strategies(surf, model, dt=0.1).evaluate(x, psi=psi[cut])

    def test_evaluate_refuses_paths_of_another_clock(self, generic):
        # dt-0.1 paths on a dt-0.05 map ended the map's clock at t = 0.5 and
        # forced every stop there
        model, _, surf = generic
        x = simulate_fixed_regime(model, 1, 5, 0.1, RandomDevice(3))
        smap = extract_strategies(surf, model, dt=0.05)
        np.testing.assert_allclose(smap.clock, np.linspace(0.0, 1.0, 21), rtol=0, atol=1e-15)
        with pytest.raises(ShapeMismatchError, match="the paths have 11 columns, the clock 21 times"):
            smap.evaluate(x)

    @pytest.mark.parametrize("horizon, dt", [(0.3, 0.1), (1.0, 0.01), (1.0, 0.025)])
    def test_clock_is_the_simulators_time_axis(self, horizon, dt):
        # the map's clock was k dt: at T = 0.3, dt = 0.1 it ended at
        # 0.30000000000000004, past the horizon the simulators' axis ends at
        model = DiffusionModel(
            mu0=const(-0.4), mu1=const(0.4), sigma=const(0.5),
            x0=0.0, prior=0.5, horizon=horizon, domain=(-2.0, 2.0),
        )
        surf = pde_solve_system(model, F, G, H, PDEGrid.regular(horizon, model.domain, 7, 5, 11))
        clock = extract_strategies(surf, model, dt=dt).clock
        t = simulate_regime_paths(model, 3, dt, RandomDevice(0)).t
        assert clock.dtype == t.dtype and clock.tobytes() == t.tobytes()
        assert clock[-1] == horizon

    def test_refuses_a_dt_that_does_not_divide_the_horizon(self, generic):
        model, _, surf = generic
        with pytest.raises(ValueError, match="dt must divide the horizon"):
            extract_strategies(surf, model, dt=0.3)


def _lookup_u(surf, traj, x, regime):
    grid = surf.grid
    ti = np.clip(np.searchsorted(grid.t, traj.t - 1e-12), 0, grid.t.size - 1)
    pi_i = np.clip(np.rint(traj.p / (grid.pi[1] - grid.pi[0])).astype(int), 0, grid.pi.size - 1)
    xi_i = np.clip(
        np.rint((x - grid.x[0]) / (grid.x[1] - grid.x[0])).astype(int), 0, grid.x.size - 1
    )
    return surf.u[regime][ti[None, :], pi_i, xi_i]


class TestMCVerify:
    def test_degenerate_model_passes(self, degenerate):
        model, grid, surf = degenerate
        smap = extract_strategies(surf, model, dt=0.025)
        rep = mc_verify_sufficiency(
            smap, n=2000,
            device=RandomDevice(16), f=F, g=G, h=H,
        )
        assert rep["all_passed"]

    def test_scaled_surface_fails_root_identity(self, generic):
        model, grid, surf = generic
        from asymdynkin.dynamics.pde import PDESurfaces

        scaled = PDESurfaces(grid, surf.u, surf.v * 1.1 + 0.2, surf.in_sk, surf.in_s)
        assert scaled.identity_residual > 5e-2
        smap = extract_strategies(scaled, model, dt=0.05)
        rep = mc_verify_sufficiency(
            smap, n=500,
            device=RandomDevice(17), f=F, g=G, h=H,
        )
        assert not rep["(v) root identity"]["passed"]

    def test_never_stopping_uninformed_fails(self):
        # drifting x-dependent payoffs make the skipped stopping region leak
        # through the flatness bands; belief machinery is off (w = 0) so the
        # leak is the only signal
        model = DiffusionModel(
            mu0=const(-0.2), mu1=const(-0.2), sigma=const(0.5),
            x0=0.0, prior=0.5, horizon=1.0, domain=(-2.0, 2.0),
        )
        clipx = lambda t, x: np.clip(np.asarray(x) + 0.0 * np.asarray(t), -1.0, 1.0)
        f2 = lambda t, x: clipx(t, x) + 0.15
        g2 = lambda t, x: clipx(t, x) - 0.15
        grid = PDEGrid.regular(1.0, model.domain, 41, 11, 81)
        surf = pde_solve_system(model, f2, g2, clipx, grid)
        assert surf.in_s.mean() > 0.02  # the skipped set is actually reached
        from asymdynkin.dynamics.pde import PDESurfaces

        good = extract_strategies(surf, model, dt=0.025)
        rep = mc_verify_sufficiency(
            good, n=6000,
            device=RandomDevice(18), f=f2, g=g2, h=clipx,
        )
        assert rep["all_passed"]
        empty = PDESurfaces(grid, surf.u, surf.v, surf.in_sk, np.zeros_like(surf.in_s))
        bad = extract_strategies(empty, model, dt=0.025)
        rep2 = mc_verify_sufficiency(
            bad, n=6000,
            device=RandomDevice(18), f=f2, g=g2, h=clipx,
        )
        assert not rep2["(ii) N0"]["passed"]

    def test_run_edges_built_once_per_map(self, generic, monkeypatch):
        # the push rule's edge tables belong to the map, not to a path set:
        # the three path sets of the verification and a later evaluate share them
        model, _, surf = generic
        calls = []

        def counted(mask):
            calls.append(mask.shape)
            return pde._run_edges(mask)

        monkeypatch.setattr(strategies, "_run_edges", counted)
        smap = extract_strategies(surf, model, dt=0.05)
        mc_verify_sufficiency(smap, n=20, device=RandomDevice(1), f=F, g=G, h=H)
        assert len(calls) == 2
        smap.evaluate(*_paths(model, "regime", 10, 0.05, 1))
        assert len(calls) == 2

    @pytest.mark.parametrize("dt", [0.01, 0.02])
    def test_paths_step_at_the_strategies_dt(self, generic, dt):
        # the simulated paths and the maps' clock both step at strategies.dt:
        # the clock ends at the horizon, and the informed checks pass
        model, _, surf = generic
        smap = extract_strategies(surf, model, dt=dt)
        clock = [t[0] for t, *_ in verify._trajectory_rows(smap, 5, RandomDevice(0), 1)]
        assert len(clock) == round(model.horizon / dt) + 1
        assert clock[-1] == pytest.approx(model.horizon, abs=1e-12)
        rep = mc_verify_sufficiency(smap, n=500, device=RandomDevice(0), f=F, g=G, h=H)
        assert rep["(i) M0 regime 0"]["passed"] and rep["(i) M0 regime 1"]["passed"]

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_paths_raises(self, generic, n):
        # with no path every band is nan, which no excess check would catch
        model, _, surf = generic
        with pytest.raises(ValueError, match="n must be at least 1"):
            mc_verify_sufficiency(extract_strategies(surf, model, dt=0.01), n=n, f=F, g=G, h=H)

    # the streamed checks against the whole-array verifier they replace: one
    # and two paths (no band, the smallest band), the old block size of 250
    # and its neighbours, and a size that is no multiple of it
    @pytest.mark.parametrize("dt", [0.01, 0.025])
    @pytest.mark.parametrize("n", [1, 2, 249, 250, 251, 777])
    @pytest.mark.parametrize("case", ["generic", "moving"])
    def test_matches_whole_array_reference(self, request, case, n, dt):
        model, _, surf = request.getfixturevalue(case)
        payoffs = dict(zip("fgh", (F, G, H) if case == "generic" else _moving_sets()[2]))
        smap = extract_strategies(surf, model, dt=dt)
        reports = [verify(smap, n, device=RandomDevice(n + 40), **payoffs)
                   for verify in (mc_verify_sufficiency, ref_mc_verify_sufficiency)]
        assert json.dumps(reports[0]) == json.dumps(reports[1])

    # just below and at the path count from which a helper thread draws each
    # path set's increments ahead
    @pytest.mark.parametrize("n", [_DRAW_AHEAD_PATHS - 1, _DRAW_AHEAD_PATHS], ids=["inline", "ahead"])
    def test_matches_whole_array_reference_with_draws_ahead(self, moving, n):
        model, _, surf = moving
        payoffs = dict(zip("fgh", _moving_sets()[2]))
        smap = extract_strategies(surf, model, dt=0.1)
        reports = [verify(smap, n, device=RandomDevice(n), **payoffs)
                   for verify in (mc_verify_sufficiency, ref_mc_verify_sufficiency)]
        assert json.dumps(reports[0]) == json.dumps(reports[1])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _paths(model, kind, n, dt, seed):
    """(x, psi) of fixed-regime paths (psi from the filter) or of regime-drawn paths."""
    if kind == "regime":
        bundle = simulate_regime_paths(model, n, dt, RandomDevice(seed))
        return bundle.x, bundle.psi
    return simulate_fixed_regime(model, int(kind[-1]), n, dt, RandomDevice(seed)), None


def _assert_evaluate_matches_reference(smap, x, psi):
    traj = smap.evaluate(x, psi=psi)
    ref = ref_strategy_evaluate(smap, x, psi)
    for got, want in zip((traj.p, *traj.xi, traj.zeta), ref):
        assert np.array_equal(got, want)
    return traj


class TestRunEdges:
    @settings(max_examples=150, deadline=None)
    @given(mask=arrays(bool, st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 5))),
           from_below=st.booleans())
    @example(mask=np.ones((1, 5, 2), dtype=bool), from_below=True)  # one run across all of pi
    @example(mask=np.eye(5, 3, dtype=bool)[None] | np.eye(5, 3, -2, dtype=bool)[None], from_below=False)
    @example(mask=np.array([[[True], [False], [True]]]), from_below=True)  # runs at both ends
    @example(mask=np.array([[[True], [False], [True]]]), from_below=False)
    def test_pi_copy_matches_reference(self, mask, from_below):
        u = np.arange(mask.size, dtype=float).reshape(mask.shape) * 0.37 - 1.0
        want = np.stack([ref_pi_copy(u[k], mask[k], from_below) for k in range(mask.shape[0])])
        assert np.array_equal(_pi_copy(u, mask, from_below), want)
        assert np.array_equal(_pi_copy(u[0], mask[0], from_below), want[0])

    @pytest.mark.parametrize("dt, seed", [(0.01, 5), (0.005, 21)])
    @pytest.mark.parametrize("kind", ["regime-0", "regime-1", "regime"])
    def test_evaluate_matches_reference(self, generic, kind, dt, seed):
        model, _, surf = generic
        x, psi = _paths(model, kind, 200, dt, seed)
        _assert_evaluate_matches_reference(extract_strategies(surf, model, dt=dt), x, psi)

    def test_evaluate_matches_reference_on_random_sets(self, generic):
        # random runs in both informed sets, so pushes go both ways and stop
        # part of the mass, which the converged fixture never does
        model, grid, surf = generic
        rng = np.random.default_rng(3)
        sets = PDESurfaces(grid, surf.u, surf.v, rng.random(surf.u.shape) < 0.35,
                           rng.random(surf.in_s.shape) < 0.01)
        x, psi = _paths(model, "regime", 200, 0.01, 7)
        traj = _assert_evaluate_matches_reference(extract_strategies(sets, model, dt=0.01), x, psi)
        for xi in traj.xi:
            assert np.any((xi[:, :-1] > 1e-9) & (xi[:, :-1] < 1.0 - 1e-9))


class TestPinnedArtifacts:
    # sha256 of the CSV text of the splitting solve's surfaces and of the
    # trajectories the per-path reflection loop drew: a change must not move a
    # digit against them
    def test_surfaces_csv_pinned(self, generic):
        _, _, surf = generic
        text = gameio.surfaces_csv(surf, {"grid": "41x13x61"})
        assert _sha256(text) == "3a7e74550100590f7843e54051128a00ba8fa2660fce4f2e37ba8f800efa1eee"

    def test_trajectories_csv_pinned(self, generic, tmp_path):
        model, _, surf = generic
        x, psi = _paths(model, "regime", 200, 0.01, 5)
        traj = extract_strategies(surf, model, dt=0.01).evaluate(x, psi=psi)
        assert np.any(traj.xi[1][:, :-1] > 0.0)  # informed incarnations act before the horizon
        gameio.trajectories_csv(tmp_path / "trajectories.csv", traj, {"dt": 0.01})
        text = (tmp_path / "trajectories.csv").read_text()
        assert _sha256(text) == "7203d130abe3b570a937783a07322f94c5dd514539ec730593dcb97b5cd2c8bf"

    # sha256 of the compact report JSON of the MC verification: its per-path
    # sums and bands must not move a bit with the layout of the trajectories.
    # On the moving sets the monotone and flat excesses are non-zero, so the
    # sums themselves reach the digest
    @pytest.mark.parametrize("case, n, dt, seed, digest", [
        ("generic", 500, 0.025, 3, "d986693b3c5a151a6ad553fd957cb3a5a1d7df3c14cfb9701ea2e12e18a34fea"),
        ("moving", 300, 0.01, 29, "a3c779c757ffc704bc75cb49f1fb37b25742c86da0bbbfb1dc4c80e3f00d9942"),
        # the size of the benchmark's `dynamics verify`: 2 000 paths at dt 0.01
        ("generic", 2000, 0.01, 0, "526f8fe557c8d82fcdf6c93fe44b0fb428baf801d9a4ff189033c181452722e3"),
    ])
    def test_mc_verify_report_pinned(self, request, case, n, dt, seed, digest):
        model, _, surf = request.getfixturevalue(case)
        payoffs = (F, G, H) if case == "generic" else _moving_sets()[2]
        rep = mc_verify_sufficiency(
            extract_strategies(surf, model, dt=dt), n=n,
            device=RandomDevice(seed), **dict(zip("fgh", payoffs)),
        )
        text = json.dumps(rep, sort_keys=True, separators=(",", ":"))
        assert _sha256(text) == digest
