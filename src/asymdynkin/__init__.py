"""asymdynkin: a numerical laboratory for stopping games with asymmetric information.

Three layers:

* :mod:`asymdynkin.core` -- trees, generating processes, randomization
  devices, exact payoff evaluation;
* :mod:`asymdynkin.scenario` / :mod:`asymdynkin.oracle` -- the hidden-regime
  scenario game: belief updates, best-response surfaces, node-by-node
  martingale/support reports, saddle certificates, and the sequence-form LP
  equilibrium oracle;
* :mod:`asymdynkin.dynamics` -- the continuous-state companion: filtering SDE
  simulation, the coupled free-boundary PDE system, strategy extraction and
  Monte Carlo verification.
"""

from .core import (
    FiltrationTree,
    GeneratingProcess,
    PayoffTriple,
    RandomDevice,
    TimeGrid,
    binary_tree,
    expected_payoff_exact,
    validate_generating,
)
from .oracle import solve_scenario
from .scenario import (
    Certificate,
    ScenarioGame,
    StrategyProfile,
    ValueSurfaces,
    belief_update,
    best_response_values,
    certify_mart,
    certify_stop,
    ex_ante_check,
    ex_ante_residuals,
    martingale_report,
    support_report,
)

__version__ = "0.1.0"
