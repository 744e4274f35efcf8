import dataclasses
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import asymdynkin
from asymdynkin import gameio
from asymdynkin.core import RandomDevice
from asymdynkin.dynamics import (
    DiffusionModel,
    PDEGrid,
    extract_strategies,
    mc_verify_sufficiency,
    model_from_dict,
    parse_expression,
    pde_solve_system,
    psi_from_innovation,
    simulate_filter_paths,
    simulate_fixed_regime,
    simulate_regime_paths,
)
from asymdynkin.dynamics.simulate import _DRAW_AHEAD_PATHS, _stack, filter_self_convergence
from helpers import (analytic_generator, generator_check, mc_generator_drift, ref_filter_paths,
                     ref_parse_expression, ref_psi_from_innovation, ref_regime_euler,
                     standard_test_functions)


def const(c):
    return lambda x: c * np.ones_like(np.asarray(x, dtype=float))


@pytest.fixture
def model():
    return DiffusionModel(
        mu0=const(-0.4), mu1=const(0.4), sigma=const(0.5),
        x0=0.0, prior=0.5, horizon=1.0, domain=(-4.0, 4.0),
    )


class TestExpressionGrammar:
    def test_affine_and_tanh(self):
        fn = parse_expression("0.5*tanh(2*x) - 0.1*x + 1")
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(fn(x), 0.5 * np.tanh(2 * x) - 0.1 * x + 1)

    def test_unary_minus_and_parens(self):
        fn = parse_expression("-(x - 1) * 2")
        np.testing.assert_allclose(fn(np.array([0.0, 3.0])), [2.0, -4.0])

    def test_rejects_unknown_tokens(self):
        with pytest.raises(ValueError):
            parse_expression("__import__('os')")
        with pytest.raises(ValueError):
            parse_expression("x / 2")

    # test_cli's test_model_exits_2 runs the other malformed expressions through the CLI
    @pytest.mark.parametrize("src", ["+x", "tanh", "tanh(*x)", "()", "(x)(2)", "", " ",
                                     pytest.param("-" * 100000 + "0.4", id="100000_signs")])
    def test_refuses(self, src):
        with pytest.raises(ValueError):
            parse_expression(src)

    def test_whitespace_anywhere(self):
        x = np.linspace(-3.0, 3.0, 41)
        want = parse_expression("0.5*tanh(2*x)-1")(x)
        for src in ("0.5*tanh(2*x)-1 ", "\t0.5 * tanh ( 2*x )\n- 1\n", " 0.5*tanh(2*x)-1\r\n"):
            assert parse_expression(src)(x).tobytes() == want.tobytes()

    def test_nesting_limit_is_pythons(self):
        # CPython's parser allows 200 nested parentheses; a chain of signs is
        # limited by the recursion depth
        assert parse_expression("(" * 200 + "x" + ")" * 200)(1.0) == 1.0
        assert parse_expression("tanh(" * 100 + "(" * 100 + "0" + ")" * 200)(1.0) == 0.0
        assert parse_expression("-" * 900 + "1")(1.0) == 1.0

    def test_numbers_are_decimal_literals(self):
        # a literal is read from its text, so Python's other integer forms stay out
        assert parse_expression("1e400")(0.0) == np.inf
        assert parse_expression("9" * 400)(0.0) == np.inf
        assert parse_expression("00 + 01.5 + 2. + 1.E+1")(0.0) == 13.5
        for src in ("0x10", "0x1e5", "01", "007"):
            with pytest.raises(ValueError):
                parse_expression(src)

    def test_matches_reference_parser(self):
        """Seeded differential fuzz against the hand-written parser that this one replaced.

        Grammar-generated strings and random token sequences, neither with
        trailing whitespace (the reference refuses it): both parsers accept the
        same strings, except integers with a leading zero, and give
        bit-identical values at 41 points."""
        rng = random.Random(20260)
        x = np.linspace(-3.0, 3.0, 41)
        gaps = ("", "", "", " ", "  ", "\t", "\n")

        def digits():
            return "".join(rng.choices("0123456789", k=rng.randint(1, 3)))

        def number():
            if rng.random() < 0.03:  # the tokens 0, x and digits: a Python int, but no number
                return "0x" + digits()
            text = digits()
            if rng.random() < 0.5:
                text += "." + (digits() if rng.random() < 0.7 else "")
            if rng.random() < 0.2:
                text += rng.choice("eE") + rng.choice(["", "+", "-"]) + digits()
            return text

        def grammar(depth):
            kind = rng.randrange(6 if depth < 5 else 2)
            if kind == 0:
                return [number()]
            if kind == 1:
                return ["x"]
            if kind == 2:
                return ["-", *grammar(depth + 1)]
            if kind == 3:
                return ["(", *grammar(depth + 1), ")"]
            if kind == 4:
                return ["tanh", "(", *grammar(depth + 1), ")"]
            return [*grammar(depth + 1), rng.choice("+-*"), *grammar(depth + 1)]

        vocabulary = ["x", "tanh", "(", ")", "+", "-", "*", "/", ".", "e", "_"]

        def tokens():
            return [number() if rng.random() < 0.3 else rng.choice(vocabulary)
                    for _ in range(rng.randint(1, 8))]

        def join(toks):
            return rng.choice(gaps) + "".join(t + rng.choice(gaps) for t in toks[:-1]) + toks[-1]

        def outcome(parse, src):
            try:
                fn = parse(src)
            except ValueError:
                return None
            with np.errstate(all="ignore"):
                return np.asarray(fn(x), dtype=float).tobytes()

        accepted = refused = leading_zero = 0
        for k in range(22000):
            src = join(grammar(0) if k % 2 else tokens())
            want, got = outcome(ref_parse_expression, src), outcome(parse_expression, src)
            # Python refuses an integer literal such as 01, which the reference reads as 1.0
            if any(re.fullmatch(r"0+[1-9]\d*", t) for t in re.findall(r"\d+\.?\d*(?:[eE][+-]?\d+)?", src)):
                leading_zero += want is not None
                want = None
            assert got == want, repr(src)
            accepted += got is not None
            refused += got is None
        assert accepted > 8000 and refused > 8000 and leading_zero > 100

    def test_model_from_dict(self):
        m = model_from_dict(
            {"mu0": "-0.2", "mu1": "0.2", "sigma": "0.3 + 0.1*tanh(x)",
             "x0": 0.5, "pi": 0.25, "T": 2.0, "domain": [-3, 3]}
        )
        assert m.prior == 0.25
        assert m.w(0.0) == pytest.approx(0.4 / 0.3)


class TestFilterSimulation:
    def test_psi_constant_when_drifts_match(self):
        flat = DiffusionModel(
            mu0=const(0.1), mu1=const(0.1), sigma=const(0.5),
            x0=0.0, prior=0.3, horizon=1.0, domain=(-4, 4),
        )
        b = simulate_filter_paths(flat, 200, 1e-2, RandomDevice(1))
        assert np.all(b.psi == 0.3)

    def test_absorbing_prior_one(self):
        m = DiffusionModel(
            mu0=const(-0.4), mu1=const(0.4), sigma=const(0.5),
            x0=0.0, prior=1.0, horizon=1.0, domain=(-4, 4),
        )
        b = simulate_filter_paths(m, 100, 1e-2, RandomDevice(2))
        assert np.all(b.psi == 1.0)

    def test_psi_is_bounded_martingale(self, model):
        n = 100_000
        b = simulate_filter_paths(model, n, 1e-2, RandomDevice(3))
        assert b.psi.min() >= 0.0 and b.psi.max() <= 1.0
        se = b.psi[:, -1].std(ddof=1) / np.sqrt(n)
        assert abs(b.psi[:, -1].mean() - model.prior) <= 4 * se
        # pre-clamp excursions past the absorbing boundaries stay O(dt)-small
        assert b.max_clamp <= 10 * 1e-2

    def test_deterministic_given_seed(self, model):
        a = simulate_filter_paths(model, 50, 1e-2, RandomDevice(9))
        b = simulate_filter_paths(model, 50, 1e-2, RandomDevice(9))
        np.testing.assert_array_equal(a.x, b.x)


class TestRegimeSimulation:
    def test_regime_frequency(self, model):
        n = 50_000
        b = simulate_regime_paths(model, n, 1e-2, RandomDevice(4))
        freq = b.regime.mean()
        assert abs(freq - model.prior) <= 4 * np.sqrt(model.prior * (1 - model.prior) / n)

    def test_zero_signal_keeps_prior(self):
        flat = DiffusionModel(
            mu0=const(0.1), mu1=const(0.1), sigma=const(0.5),
            x0=0.0, prior=0.4, horizon=1.0, domain=(-4, 4),
        )
        b = simulate_regime_paths(flat, 200, 1e-2, RandomDevice(5))
        np.testing.assert_allclose(b.psi, 0.4, atol=1e-12)

    def test_measure_consistency_weighted_laws(self, model):
        # psi-weighted law of X under the regime simulation restricted to
        # {J=1} matches the prior-weighted reconstruction on test functionals
        n = 100_000
        b = simulate_regime_paths(model, n, 1e-2, RandomDevice(6))
        sel = b.regime == 1
        xT = b.x[:, -1]
        for fn in [
            np.tanh, np.cos, lambda v: np.clip(v, -1, 1),
            lambda v: np.exp(-np.abs(v)), lambda v: (v > 0).astype(float),
            lambda v: np.sin(2 * v), lambda v: 1.0 / (1.0 + v**2),
            lambda v: np.tanh(v) ** 2, lambda v: np.clip(v, -2, 2) ** 2 / 4,
            lambda v: np.abs(np.tanh(v / 2)),
        ]:
            lhs_vals = fn(xT) * b.psi[:, -1]
            rhs_vals = fn(xT) * sel
            diff = lhs_vals - rhs_vals
            se = diff.std(ddof=1) / np.sqrt(n)
            assert abs(diff.mean()) <= 4 * max(se, 1e-12)

    def test_self_convergence_of_the_two_posteriors(self, model):
        rms = filter_self_convergence(model, 1500, [4e-3, 2e-3, 1e-3], RandomDevice(7))
        assert rms[0] / rms[1] >= 1.2
        assert rms[1] / rms[2] >= 1.2

    @pytest.mark.parametrize("prior", [0.0, 1.0])
    def test_self_convergence_at_a_certain_prior(self, model, prior):
        # both posteriors stay at the prior, with no division by zero on the way
        certain = dataclasses.replace(model, prior=prior)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rms = filter_self_convergence(certain, 50, [2e-2, 1e-2], RandomDevice(7))
        assert rms == [0.0, 0.0]

    @pytest.mark.parametrize("dts, message", [
        ([3e-3, 7e-4], "divide"),  # neither step divides T = 1
        ([5e-3, 2e-3], "multiple"),  # both divide T, but 5e-3 is 2.5 fine steps
    ])
    def test_self_convergence_rejects_incommensurate_dts(self, model, dts, message):
        with pytest.raises(ValueError, match=message):
            filter_self_convergence(model, 10, dts, RandomDevice(7))

    def test_fixed_regime_dt_must_divide_horizon(self, model):
        with pytest.raises(ValueError, match="divide"):
            simulate_fixed_regime(model, 1, 5, 0.03, RandomDevice(8))

    def test_innovation_filter_tracks_likelihood_filter(self, model):
        b = simulate_regime_paths(model, 300, 1e-3, RandomDevice(8))
        psi_sde = psi_from_innovation(model, b.x, 1e-3)
        rms = np.sqrt(np.mean((psi_sde - b.psi) ** 2))
        assert rms <= 0.02


def curved(prior):
    """x-dependent drifts and volatility, strong enough signal to clamp psi."""
    return DiffusionModel(
        mu0=lambda x: -0.8 + 0.2 * np.tanh(x), mu1=lambda x: 0.9 - 0.1 * x,
        sigma=lambda x: 0.3 + 0.1 * np.tanh(x) ** 2,
        x0=0.1, prior=prior, horizon=1.0, domain=(-1.0, 1.5),
    )


def regime_draws(model, n, dt, device):
    """The regime and per-step increments the regime simulators draw."""
    regime = (device.with_stream(device.stream + 1).uniforms(n) < model.prior).astype(np.int64)
    rng, sqdt = device.generator(), np.sqrt(dt)
    return regime, lambda k: rng.standard_normal(n) * sqdt


MODELS = [pytest.param(curved(p), id=f"curved-prior-{p}") for p in (0.0, 0.3, 1.0)] + [
    pytest.param(DiffusionModel(mu0=const(-0.4), mu1=const(0.4), sigma=const(0.5),
                                x0=0.0, prior=0.5, horizon=1.0, domain=(-1.0, 1.0)), id="constant"),
]


class TestTimeMajorLoops:
    """The time-major simulators reproduce the path-major references bit for bit."""

    @pytest.mark.parametrize("m", MODELS)
    def test_filter_paths(self, m):
        n, dt = 300, 1e-2
        b = simulate_filter_paths(m, n, dt, RandomDevice(3))
        x, psi, exited, max_clamp = ref_filter_paths(m, n, dt, RandomDevice(3))
        assert b.x.shape == b.psi.shape == (n, 101)
        assert np.array_equal(b.x, x) and np.array_equal(b.psi, psi)
        assert np.array_equal(b.exited, exited) and b.max_clamp == max_clamp

    @pytest.mark.parametrize("kind", ["filter", "regime"])
    def test_paths_that_turn_nan_after_exit_count_as_exited(self, kind):
        # past the domain the drifts are NaN, so a path turns NaN the step after
        # it leaves, and only the step it left on shows the exit
        m = curved(0.3)
        lo, hi = m.domain

        def nan_outside(fn):
            return lambda x: np.where((x < lo) | (x > hi), np.nan, fn(x))

        m = dataclasses.replace(m, mu0=nan_outside(m.mu0), mu1=nan_outside(m.mu1))
        n, dt = 300, 1e-2
        if kind == "filter":
            b = simulate_filter_paths(m, n, dt, RandomDevice(3))
            x, psi, exited, _ = ref_filter_paths(m, n, dt, RandomDevice(3))
        else:
            b = simulate_regime_paths(m, n, dt, RandomDevice(4))
            regime, draw = regime_draws(m, n, dt, RandomDevice(4))
            x, psi, exited = ref_regime_euler(m, regime, 100, dt, draw)
        assert np.array_equal(b.x, x, equal_nan=True) and np.array_equal(b.psi, psi, equal_nan=True)
        turned = np.isnan(b.x[:, -1])
        assert turned.any() and b.exited[turned].all()
        assert np.array_equal(b.exited, exited)

    def test_filter_paths_exercise_exits_and_clamps(self):
        b = simulate_filter_paths(curved(0.3), 300, 1e-2, RandomDevice(3))
        assert 0 < b.exited.sum() < 300 and b.max_clamp > 0.0

    @pytest.mark.parametrize("m", MODELS)
    def test_regime_paths(self, m):
        n, dt = 300, 1e-2
        b = simulate_regime_paths(m, n, dt, RandomDevice(4))
        regime, draw = regime_draws(m, n, dt, RandomDevice(4))
        x, psi, exited = ref_regime_euler(m, regime, 100, dt, draw)
        assert b.x.shape == b.psi.shape == (n, 101)
        assert np.array_equal(b.regime, regime)
        assert np.array_equal(b.x, x) and np.array_equal(b.psi, psi)
        assert np.array_equal(b.exited, exited)

    @pytest.mark.parametrize("m", MODELS)
    @pytest.mark.parametrize("regime", [0, 1])
    def test_fixed_regime(self, m, regime):
        n, dt = 300, 1e-2
        x = simulate_fixed_regime(m, regime, n, dt, RandomDevice(5))
        _, draw = regime_draws(m, n, dt, RandomDevice(5))
        ref = ref_regime_euler(m, np.full(n, regime), 100, dt, draw)[0]
        assert x.shape == (n, 101) and np.array_equal(x, ref)

    @pytest.mark.parametrize("m", MODELS)
    def test_self_convergence(self, m):
        n, dts = 200, [4e-2, 2e-2, 1e-2]
        rms = filter_self_convergence(m, n, dts, RandomDevice(6))
        device = RandomDevice(6)
        dw_fine = device.generator().standard_normal((n, 100)) * np.sqrt(1e-2)
        regime = (device.with_stream(device.stream + 1).uniforms(n) < m.prior).astype(np.int64)
        ref = []
        for dt in dts:
            k = round(dt / 1e-2)
            dw = dw_fine.reshape(n, -1, k).sum(axis=2)
            x, psi_lr, _ = ref_regime_euler(m, regime, dw.shape[1], dt, lambda j: dw[:, j])
            psi_sde = ref_psi_from_innovation(m, x, dt)
            ref.append(float(np.sqrt(np.mean((psi_sde - psi_lr) ** 2))))
        assert rms == ref

    @pytest.mark.parametrize("m", MODELS)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_psi_from_innovation(self, m, order):
        x = np.asarray(simulate_regime_paths(m, 300, 1e-2, RandomDevice(7)).x, order=order)
        psi = psi_from_innovation(m, x, 1e-2)
        assert psi.shape == x.shape
        assert np.array_equal(psi, ref_psi_from_innovation(m, x, 1e-2))

    @pytest.mark.parametrize("x", [np.zeros(5), np.zeros((5, 0)), np.zeros((2, 3, 4))],
                             ids=["1-D", "no-column", "3-D"])
    def test_psi_from_innovation_rejects_bad_shapes(self, model, x):
        with pytest.raises(ValueError, match="shape"):
            psi_from_innovation(model, x, 1e-2)

    def test_psi_from_innovation_single_column(self, model):
        psi = psi_from_innovation(model, np.zeros((4, 1)), 1e-2)
        assert np.array_equal(psi, np.full((4, 1), 0.5))

    @pytest.mark.parametrize("rows", [0, 3, 10])
    def test_stack_refuses_a_short_row_stream(self, rows):
        # the buffer is np.empty: rows the stream never reached would be garbage
        with pytest.raises(ValueError, match=f"{rows} rows for a buffer of 11"):
            _stack(iter(np.ones((rows, 2, 5))), (2, 11, 5))


# the path counts just below and at the one from which a helper thread draws ahead
AHEAD = [pytest.param(_DRAW_AHEAD_PATHS - 1, id="inline"),
         pytest.param(_DRAW_AHEAD_PATHS, id="ahead")]

# The cases run in a fresh interpreter under a timeout, so that a thread left
# waiting fails the test instead of hanging the session at exit.
_LIFETIME_SCRIPT = """
import threading
import numpy as np
from asymdynkin.core import RandomDevice
from asymdynkin.dynamics import (DiffusionModel, PDEGrid, extract_strategies,
                                 mc_verify_sufficiency, pde_solve_system, simulate_filter_paths)
from asymdynkin.dynamics.simulate import _DRAW_AHEAD_PATHS as N
from asymdynkin.dynamics.verify import _trajectory_rows

BEFORE = threading.active_count()
seen = []  # the thread count while a step of N paths runs


def drift(c, fail_at=None):
    def mu(x):
        if np.size(x) == N:
            seen.append(threading.active_count())
            if fail_at is not None and len(seen) >= fail_at:
                raise ArithmeticError("drift fails mid-path")
        return c + 0.0 * np.asarray(x, dtype=float)
    return mu


def model(fail_at=None):
    return DiffusionModel(mu0=drift(-0.4, fail_at), mu1=drift(0.4), sigma=lambda x: 0.5 + 0.0 * x,
                          x0=0.0, prior=0.5, horizon=1.0, domain=(-2.0, 2.0))


def check(case):
    assert seen and max(seen) == BEFORE + 1, (case, "the helper did not run", seen)
    assert threading.active_count() == BEFORE, (case, threading.enumerate())
    seen.clear()


def raises(case, fn, error, text):
    try:
        fn()
    except error as exc:
        assert text in str(exc), exc
        check(case)  # while the traceback still holds the call's frames
        return str(exc)
    raise AssertionError(f"{case}: no {error.__name__}")


simulate_filter_paths(model(), N, 0.1, RandomDevice(1))
check("return")

raises("coefficient", lambda: simulate_filter_paths(model(fail_at=8), N, 0.1, RandomDevice(1)),
       ArithmeticError, "drift fails mid-path")

payoffs = dict(f=lambda t, x: 0.6 + 0.0 * x + 0.0 * t, g=lambda t, x: -0.6 + 0.0 * x + 0.0 * t,
               h=lambda t, x: 0.0 * x + 0.0 * t)
surf = pde_solve_system(model(), *payoffs.values(), PDEGrid.regular(1.0, (-2.0, 2.0), 11, 5, 21))
smap = extract_strategies(surf, model(), 0.1)
rows = _trajectory_rows(smap, N, RandomDevice(1), 1)
for _ in range(3):
    next(rows)
rows.close()
check("closed rows")


def h_fails(t, x):
    if t[0] >= 0.5:
        raise ArithmeticError("payoff fails mid-path")
    return 0.0 * x + 0.0 * t


raises("payoff", lambda: mc_verify_sufficiency(smap, N, device=RandomDevice(1),
                                               **{**payoffs, "h": h_fails}),
       ArithmeticError, "payoff fails mid-path")


class FailingDraws:
    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def standard_normal(self, n):
        self.calls += 1
        if self.calls == 4:
            raise FloatingPointError(f"draw fails on {threading.current_thread().name}")
        return self.rng.standard_normal(n)


generator = RandomDevice.generator
RandomDevice.generator = lambda self: FailingDraws(generator(self))
text = raises("draw", lambda: simulate_filter_paths(model(), N, 0.1, RandomDevice(1)),
              FloatingPointError, "draw fails on ")
assert "MainThread" not in text, text
print("ok")
"""


class TestDrawAhead:
    """From ``_DRAW_AHEAD_PATHS`` paths a helper thread draws the increments ahead: the
    paths stay bit for bit those of the references, and no thread outlives a call."""

    @pytest.mark.parametrize("n", AHEAD)
    def test_filter_paths(self, n):
        m, dt = curved(0.3), 0.1
        b = simulate_filter_paths(m, n, dt, RandomDevice(3))
        x, psi, exited, max_clamp = ref_filter_paths(m, n, dt, RandomDevice(3))
        assert np.array_equal(b.x, x) and np.array_equal(b.psi, psi)
        assert np.array_equal(b.exited, exited) and b.max_clamp == max_clamp
        assert 0 < exited.sum() < n and max_clamp > 0.0

    @pytest.mark.parametrize("n", AHEAD)
    def test_regime_paths(self, n):
        m, dt = curved(0.3), 0.1
        b = simulate_regime_paths(m, n, dt, RandomDevice(4))
        regime, draw = regime_draws(m, n, dt, RandomDevice(4))
        x, psi, exited = ref_regime_euler(m, regime, 10, dt, draw)
        assert np.array_equal(b.regime, regime)
        assert np.array_equal(b.x, x) and np.array_equal(b.psi, psi)
        assert np.array_equal(b.exited, exited)

    @pytest.mark.parametrize("n", AHEAD)
    @pytest.mark.parametrize("regime", [0, 1])
    def test_fixed_regime(self, n, regime):
        m, dt = curved(0.3), 0.1
        x = simulate_fixed_regime(m, regime, n, dt, RandomDevice(5))
        _, draw = regime_draws(m, n, dt, RandomDevice(5))
        assert np.array_equal(x, ref_regime_euler(m, np.full(n, regime), 10, dt, draw)[0])

    def test_no_thread_outlives_a_call(self):
        # a return, a coefficient or a payoff that raises mid-path, rows closed
        # early, and a draw that raises on the helper thread and reaches the caller
        src = str(Path(asymdynkin.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", _LIFETIME_SCRIPT], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def traced_peak(fn, *args) -> int:
    """Peak bytes numpy and Python hold while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPathMemory:
    """Path simulators hold their output arrays and nothing of that size besides.

    At 2 000 paths x 500 steps one (paths, steps + 1) float array is 8.0 MB; a
    transpose copy of any path array would add a whole array to the peak.  The
    Monte Carlo verifier holds no path array at all.
    """

    n, dt = 2000, 2e-3
    array = n * 501 * 8

    def test_filter_paths_peak_is_x_and_psi(self, model):
        peak = traced_peak(simulate_filter_paths, model, self.n, self.dt, RandomDevice(1))
        assert peak <= 2.1 * self.array

    def test_filter_paths_peak_with_draws_ahead(self, model):
        # the rows drawn ahead are vectors of n floats beside the two path arrays
        n = _DRAW_AHEAD_PATHS
        simulate_filter_paths(model, n, 0.5, RandomDevice(1))  # the helper's first run imports
        peak = traced_peak(simulate_filter_paths, model, n, self.dt, RandomDevice(1))
        assert peak <= 2.1 * n * 501 * 8

    def test_fixed_regime_peak_is_x(self, model):
        peak = traced_peak(simulate_fixed_regime, model, 1, self.n, self.dt, RandomDevice(1))
        assert peak <= 1.1 * self.array

    def test_innovation_filter_reads_simulator_paths_without_copy(self, model):
        x = simulate_fixed_regime(model, 1, self.n, self.dt, RandomDevice(1))
        peak = traced_peak(psi_from_innovation, model, x, self.dt)
        assert peak <= 1.1 * self.array

    @staticmethod
    def verifier(model):
        """(verify(dt, n), the bytes of one grid-sized table) on a 21x11x41 solve."""
        payoffs = dict(f=lambda t, x: 0.6 + 0.0 * x + 0.0 * t, g=lambda t, x: -0.6 + 0.0 * x + 0.0 * t,
                       h=lambda t, x: 0.5 * np.tanh(x) + 0.0 * t)
        grid = PDEGrid.regular(1.0, model.domain, 21, 11, 41)
        surf = pde_solve_system(model, *payoffs.values(), grid)

        def verify(dt, n):
            strategies = extract_strategies(surf, model, dt)
            return mc_verify_sufficiency(strategies, n, device=RandomDevice(1), **payoffs)

        return verify, surf.in_s.size * 8

    def test_mc_verify_peak(self, model):
        # each path set is one time-major pass that holds per-path vectors:
        # about 37 vectors of n floats at the peak, beside the strategy maps'
        # two grid-sized edge tables, however many steps the paths take
        verify, table = self.verifier(model)
        verify(1e-2, 2)  # a first call imports numpy.random, which is not path memory
        peak = {dt: traced_peak(verify, dt, self.n) for dt in (1e-2, 2.5e-3)}
        assert peak[1e-2] <= 48 * self.n * 8 + 2 * table
        assert peak[2.5e-3] <= 1.2 * peak[1e-2]

    def test_mc_verify_peak_with_draws_ahead(self, model):
        # the same bound where a helper thread draws each path set's rows ahead
        verify, table = self.verifier(model)
        n = _DRAW_AHEAD_PATHS
        verify(0.5, n)  # the helper's first run imports, which is not path memory
        assert traced_peak(verify, 1e-2, n) <= 48 * n * 8 + 2 * table

    def test_paths_csv_streams(self, model, tmp_path):
        # paths.csv is written a path's lines at a time: the text of 1 000 paths
        # x 101 steps is about 5 MB, the lines of one path about 5 kB
        bundle = simulate_filter_paths(model, 1000, 1e-2, RandomDevice(1))
        peak = traced_peak(gameio.paths_csv, tmp_path / "paths.csv", bundle, {"dt": 0.01})
        assert (tmp_path / "paths.csv").stat().st_size > 4_500_000
        assert peak <= 2_000_000


class TestGenerators:
    def test_degenerate_reduction_w_zero(self):
        flat = DiffusionModel(
            mu0=const(0.2), mu1=const(0.2), sigma=const(0.5),
            x0=0.0, prior=0.5, horizon=1.0, domain=(-4, 4),
        )
        phi = standard_test_functions()[0]  # phi = x
        val = analytic_generator(flat, phi, 0.5, 0.3, "observation")
        assert val == pytest.approx(0.2, abs=1e-14)
        mc, se = mc_generator_drift(flat, phi, 0.5, 0.3, "observation", 200_000, 1e-4, RandomDevice(10))
        assert abs(mc - 0.2) <= 4 * se

    def test_boundary_absorption_regime0(self, model):
        # at pi = 0 the regime-0 generator is the plain 1-d generator
        phi = standard_test_functions()[2]  # x^2
        val = analytic_generator(model, phi, 0.0, 0.1, "regime-0")
        expected = -0.4 * 2 * 0.1 + 0.5 * 0.25 * 2.0
        assert val == pytest.approx(expected, abs=1e-14)

    def test_cross_term_probe(self, model):
        phi = standard_test_functions()[4]  # pi * x
        r = generator_check(model, phi, 0.5, 0.2, "observation", 400_000, 1e-4, RandomDevice(11))
        assert r["within_4se"]

    @pytest.mark.parametrize("mode", ["observation", "regime-0", "regime-1"])
    def test_all_modes_probe(self, model, mode):
        phi = standard_test_functions()[5]
        r = generator_check(model, phi, 0.4, -0.1, mode, 300_000, 1e-4, RandomDevice(12))
        assert r["within_4se"]
