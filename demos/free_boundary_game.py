"""The continuous-state game: coupled free boundaries and their verification.

Solves the three-surface variational system (u0, u1 for the informed
incarnations, v for the uninformed player) on a (t, pi, x) grid, first for a
degenerate model where it must collapse to a classical full-information
double-obstacle problem, then for a genuine hidden-drift model.  Extracted
strategies are finally checked by Monte Carlo against the martingale and
obstacle conditions.

Run:  python3 demos/free_boundary_game.py   (about a minute)
"""

import numpy as np

from asymdynkin.core import RandomDevice
from asymdynkin.dynamics import (
    DiffusionModel,
    PDEGrid,
    extract_strategies,
    mc_verify_sufficiency,
    pde_solve_system,
    reference_dynkin_1d,
)


def const(c):
    return lambda x: c * np.ones_like(np.asarray(x, dtype=float))


F = lambda t, x: 0.6 + 0.0 * np.asarray(t) + 0.0 * np.asarray(x)
G = lambda t, x: -0.6 + 0.0 * np.asarray(t) + 0.0 * np.asarray(x)
H = lambda t, x: np.clip(np.asarray(x) + 0.0 * np.asarray(t), -0.6, 0.6)

# --------------------------------------------------------------------------
# degenerate reduction: equal drifts, so beliefs never move
# --------------------------------------------------------------------------
flat = DiffusionModel(
    mu0=const(0.1), mu1=const(0.1), sigma=const(0.4),
    x0=0.0, prior=0.5, horizon=1.0, domain=(-2.0, 2.0),
)
grid = PDEGrid.regular(1.0, flat.domain, m_t=81, m_pi=11, m_x=101)
surf = pde_solve_system(flat, F, G, H, grid)
print("degenerate model (w = 0):")
print(f"  v pi-independent to {np.max(np.abs(surf.v - surf.v[:, :1, :])):.2e}")



def identity_gap(surf):
    """Largest |v - (pi u1 + (1-pi) u0)| over every cell of the grid."""
    pi_col = surf.grid.pi[:, None]
    return np.max(np.abs(surf.v - (pi_col * surf.u[1] + (1.0 - pi_col) * surf.u[0])))


ref = reference_dynkin_1d(const(0.1), const(0.4), F, G, H, grid.t, grid.x)
print(f"  sup|v - double-obstacle reference| = {np.max(np.abs(surf.v - ref[:, None, :])):.2e}")
print(f"  identity |v - (pi u1 + (1-pi) u0)| on every cell: {identity_gap(surf):.2e}")

# --------------------------------------------------------------------------
# hidden drift: the belief becomes a genuine state variable
# --------------------------------------------------------------------------
model = DiffusionModel(
    mu0=const(-0.4), mu1=const(0.4), sigma=const(0.5),
    x0=0.0, prior=0.5, horizon=1.0, domain=(-2.0, 2.0),
)
grid = PDEGrid.regular(1.0, model.domain, m_t=81, m_pi=21, m_x=81)
surf = pde_solve_system(model, F, G, H, grid)
print("\nhidden-drift model (w = 1.6):")
share0, share1 = surf.in_sk.mean(axis=(1, 2, 3))
print(f"  stopping sets cover {share0:.1%} (incarnation 0), "
      f"{share1:.1%} (incarnation 1), {surf.in_s.mean():.1%} (uninformed)")
print(f"  identity residual on every cell: {identity_gap(surf):.2e}")

mid = grid.pi.size // 2
root = surf.v[0, mid, grid.x.size // 2]
print(f"  game value at (t=0, pi=0.5, x=0): {root:.4f}")

# the uninformed player's value rises with the belief: regime 1 drifts up
# and she collects larger terminal payoffs there
slice0 = surf.v[0, :, grid.x.size // 2]
print(f"  v(0, pi, 0) across beliefs: {np.round(slice0, 3)}")

# --------------------------------------------------------------------------
# extract strategies and verify them by simulation
# --------------------------------------------------------------------------
strategies = extract_strategies(surf, model, dt=0.0125)
report = mc_verify_sufficiency(
    strategies, n=4000,
    device=RandomDevice(seed=11), f=F, g=G, h=H,
)
print("\nMonte Carlo verification of the extracted strategies:")
for key, entry in report.items():
    if isinstance(entry, dict):
        print(f"  {key:20s}: {'pass' if entry['passed'] else 'FAIL'}")
print(f"  overall: {'pass' if report['all_passed'] else 'FAIL'}")
