"""Continuous-state companion: filtering simulation, PDE system, verification."""

from .generators import (
    TestFunction,
    analytic_generator,
    generator_check,
    mc_generator_drift,
    standard_test_functions,
)
from .model import DiffusionModel, model_from_dict, model_to_dict, parse_expression
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
