"""Filtering a hidden drift from one observed diffusion path.

The state follows dX = mu_J dt + sigma dW with J in {0,1} hidden.  The
posterior psi_t = P(J=1 | X up to t) can be computed two ways: through the
filtering SDE driven by the innovation process, or through the Girsanov
likelihood ratio along the observed path.  This script simulates both and
checks the martingale property of psi.

Run:  python3 demos/belief_filtering.py
"""

import numpy as np

from asymdynkin.core import RandomDevice
from asymdynkin.dynamics import DiffusionModel, simulate_filter_paths, simulate_regime_paths
from asymdynkin.dynamics.simulate import filter_self_convergence


def const(c):
    return lambda x: c * np.ones_like(np.asarray(x, dtype=float))


model = DiffusionModel(
    mu0=const(-0.4), mu1=const(0.4), sigma=const(0.5),
    x0=0.0, prior=0.5, horizon=1.0, domain=(-4.0, 4.0),
)
print(f"signal-to-noise ratio w = {model.w(0.0):.3f}; "
      f"prior P(J=1) = {model.prior}")

# --------------------------------------------------------------------------
# the posterior is a bounded martingale under the observation measure
# --------------------------------------------------------------------------
n = 50_000
bundle = simulate_filter_paths(model, n, dt=1e-2, device=RandomDevice(seed=1))
mean_T = bundle.psi[:, -1].mean()
se = bundle.psi[:, -1].std(ddof=1) / np.sqrt(n)
print(f"\nfilter SDE, {n} paths: mean psi_T = {mean_T:.4f} "
      f"(+- {se:.4f}), prior = {model.prior}")
print(f"psi stayed in [0,1] on every step: "
      f"{bundle.psi.min() >= 0 and bundle.psi.max() <= 1}; "
      f"largest pre-clamp excursion {bundle.max_clamp:.2e}")

# by time T the sign of the drift is mostly revealed
split = np.mean((bundle.psi[:, -1] > 0.8) | (bundle.psi[:, -1] < 0.2))
print(f"fraction of paths with psi_T outside (0.2, 0.8): {split:.2f} "
      f"(observation over [0,1] mostly identifies the regime)")

# --------------------------------------------------------------------------
# conditional simulation agrees with the filter
# --------------------------------------------------------------------------
cond = simulate_regime_paths(model, n, dt=1e-2, device=RandomDevice(seed=2))
freq = cond.regime.mean()
print(f"\nregime-conditional simulation: empirical P(J=1) = {freq:.4f}")
brier = np.mean((cond.psi[:, -1] - cond.regime) ** 2)
print(f"Brier score of psi_T against the true regime: {brier:.4f} "
      f"(calibrated filter beats the prior's {model.prior * (1 - model.prior):.4f})")

rms = filter_self_convergence(model, n=2000, dts=[4e-3, 2e-3, 1e-3], device=RandomDevice(3))
print("\nself-convergence of the two posterior computations:")
for dt, r in zip([4e-3, 2e-3, 1e-3], rms):
    print(f"  dt = {dt:.0e}: pathwise RMS gap = {r:.5f}")
print(f"  halving ratios: {rms[0] / rms[1]:.2f}, {rms[1] / rms[2]:.2f} "
      f"(both routes converge to the same filter)")
