"""The names the traced benchmark patches exist on their owners.

In traced runs ``bench/workloads.py`` wraps attributes by name on ``cli``,
``dynamics.verify``, ``oracle``, ``gameio``, ``ScenarioSolution`` and
``StrategyMap``.  A change that drops one of them fails here, in the suite,
rather than first in the benchmark's own smoke tests.
"""

import importlib
from pathlib import Path

import pytest

from asymdynkin import gameio, oracle

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
