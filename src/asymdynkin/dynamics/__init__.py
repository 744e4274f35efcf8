"""Continuous-state companion: filtering simulation, PDE system, verification.

``model_from_dict`` builds a ``DiffusionModel`` from a ``model.json`` and keeps
no copy of it; a ``PathBundle`` holds paths, regimes, exits and the filter's
clamp, not the seed or step that made them; ``pde_solve_system`` takes no
tolerance, and its one margin, the stopping-set ``_SET_TOL``, is fixed in ``pde``.
"""

from .generators import (
    TestFunction,
    analytic_generator,
    generator_check,
    mc_generator_drift,
    standard_test_functions,
)
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
