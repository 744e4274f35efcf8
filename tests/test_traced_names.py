"""The names the traced benchmark patches exist on their owners.

In traced runs ``bench/workloads.py`` wraps attributes by name on ``cli``,
``dynamics.verify``, ``oracle``, ``gameio``, ``ScenarioSolution`` and
``StrategyMap``.  A change that drops one of them fails here, in the suite,
rather than first in the benchmark's own smoke tests.  So does a change to
what the oracle item reads off a solution: ``profile``, ``len(sol.rules)``
and the three mixes over those rules.
"""

import importlib
from pathlib import Path

import pytest

from asymdynkin import gameio, oracle
from asymdynkin.gamegen import random_scenario_game

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports tracing as a top-level module
    return importlib.import_module("workloads")


def test_every_patched_name_exists(workloads):
    owners = [(owner, {**names, **counters}) for owner, names, counters in workloads.CLI_SPANS]
    owners += [(oracle, workloads.ORACLE_SPANS), (gameio, workloads.GAMEIO_SPANS)]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, names in owners for attr in names if not hasattr(owner, attr)]
    assert not missing


def test_solution_attributes_the_bench_reads(workloads):
    game = random_scenario_game(2, seed=3, prior=0.5)
    sol = oracle.solve_scenario(game)
    counts = workloads._solution_counts(sol)
    assert counts["oracle.rules"] == len(sol.rules) > 0
    assert counts["oracle.support"] >= 3
    for mix in (sol.row_mix0, sol.row_mix1, sol.col_mix):
        assert mix.shape == (len(sol.rules),)
    assert sol.profile(game.tree) is sol.processes
