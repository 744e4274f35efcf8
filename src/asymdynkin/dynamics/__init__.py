"""Continuous-state companion: the diffusion pipeline of the stopping game.

``model`` holds the two-regime diffusion and its generator coefficients,
``simulate`` the Euler paths of the state and its posterior, ``pde`` the
coupled (u0, u1, v) free-boundary solver, ``strategies`` the strategy maps
read off its surfaces, and ``verify`` the Monte Carlo check of the
sufficiency conditions.
"""

from .model import DiffusionModel, model_from_dict, parse_expression
from .pde import (
    NoConvergence,
    PDEGrid,
    PDESurfaces,
    pde_solve_system,
    reference_dynkin_1d,
)
from .simulate import (
    PathBundle,
    psi_from_innovation,
    simulate_filter_paths,
    simulate_regime_paths,
)
from .strategies import StrategyMap, TrajectorySet, extract_strategies
from .verify import mc_verify_sufficiency, simulate_fixed_regime
