"""The four benchmark workloads: inputs, timed items and correctness gates.

Each workload builds its inputs from one seed and hands the timing loop a
fixed list of rounds.  A round is a list of items; an item is one unit a
user waits for (one game, one CLI command, one simulation) and belongs to a
stratum.  The loop always completes every round once, then cycles through
the same rounds again while time is left, so every run times the same items.
``full`` gives the number of items per stratum in the full-size workload,
which turns per-item times into the time of the whole workload.

An item returns an ``Outcome``: whether its correctness gates held, a digest
of its outputs (two runs of the same item must give the same digest), and
counters of the work it did, read from what the package returned or wrote.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import asymdynkin.dynamics.verify as dynamics_verify
from asymdynkin import cli, gameio, oracle
from asymdynkin.core import RandomDevice, expected_payoff_exact
from asymdynkin.dynamics import DiffusionModel, StrategyMap, simulate_filter_paths
from asymdynkin.dynamics.simulate import filter_self_convergence
from asymdynkin.gamegen import random_profile, random_scenario_game
from asymdynkin.oracle import solve_scenario
from asymdynkin.scenario import (
    best_response_values,
    certify_mart,
    certify_stop,
    ex_ante_check,
    martingale_report,
    support_report,
)

from tracing import OFF, Tracer

PRIORS = (0.2, 0.5, 0.8)
ORACLE_SPANS = {
    "enumerate_stopping_rules": "oracle.enumerate",
    "regime_matrices": "oracle.regime_matrices",
}
GAMEIO_SPANS = {
    "game_from_dict": "gameio.json",
    "equilibrium_to_dict": "gameio.json",
    "equilibrium_from_dict": "gameio.json",
    "certificate_to_dict": "gameio.json",
    "martingale_report_to_dict": "gameio.json",
    "support_report_to_dict": "gameio.json",
    "write_json": "gameio.json",
    "nodes_csv": "gameio.nodes_csv",
    "surfaces_csv": "gameio.surfaces_csv",
    "surfaces_from_csv": "gameio.surfaces_from_csv",
    "paths_csv": "gameio.paths_csv",
    "trajectories_csv": "gameio.trajectories_csv",
}


def _path_steps(result) -> dict[str, int]:
    """Euler steps simulated: a path bundle's or a path array's (paths x steps)."""
    x = getattr(result, "x", result)
    return {"dynamics.path_steps": x.size - x.shape[0]}


def _solution_counts(sol) -> dict[str, int]:
    """Rules enumerated, and rules with positive weight in the three mixtures."""
    support = sum(int(np.count_nonzero(m > 0.0)) for m in (sol.row_mix0, sol.row_mix1, sol.col_mix))
    return {"oracle.rules": len(sol.rules), "oracle.support": support}


# (owner, {attribute: span name}, {attribute: counter}) for the in-process CLI
CLI_SPANS = (
    (cli, {
        "solve_scenario": "oracle.solve",
        "best_response_values": "scenario.best_response",
        "martingale_report": "scenario.martingale_report",
        "support_report": "scenario.support_report",
        "certify_mart": "scenario.certify_mart",
        "certify_stop": "scenario.certify_stop",
        "ex_ante_check": "scenario.ex_ante",
        "pde_solve_system": "dynamics.pde_solve",
        "simulate_filter_paths": "dynamics.simulate_filter",
        "simulate_regime_paths": "dynamics.simulate_regime",
        "extract_strategies": "dynamics.extract_strategies",
        "mc_verify_sufficiency": "dynamics.mc_verify",
    }, {"solve_scenario": _solution_counts, "simulate_filter_paths": _path_steps,
        "simulate_regime_paths": _path_steps}),
    (dynamics_verify, {
        "simulate_fixed_regime": "dynamics.simulate_regime",
        "simulate_regime_paths": "dynamics.simulate_regime",
    }, {"simulate_fixed_regime": _path_steps, "simulate_regime_paths": _path_steps}),
    (oracle, ORACLE_SPANS, {}),
    (oracle.ScenarioSolution, {"profile": "oracle.profile"}, {}),
    (StrategyMap, {"evaluate": "dynamics.extract_evaluate"}, {}),
    (gameio, GAMEIO_SPANS, {}),
)


@dataclass
class Outcome:
    ok: bool
    digest: str
    counts: dict[str, float] = field(default_factory=dict)
    detail: str = ""


@dataclass
class Item:
    stratum: str
    key: object  # equal keys mean identical work, so equal digests
    run: Callable[[Tracer], Outcome]
    # the same work in this process, used by the traced run of subprocess items
    in_process: Callable[[Tracer], Outcome] | None = None


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _chunks(strata: dict[str, list[int]], n_chunks: int) -> list[list[tuple[str, int]]]:
    """The first ``n_chunks`` equal rounds of per-stratum index lists, keeping the mix."""
    per = {name: len(idx) // min(len(v) for v in strata.values()) for name, idx in strata.items()}
    return [[(name, i) for name, idx in strata.items() for i in idx[c * per[name]:(c + 1) * per[name]]]
            for c in range(n_chunks)]


class TreeBattery:
    """Criterion 1's 200 games, solved by the LP oracle and certified.

    A run times a fixed sample of the battery: the first ``SAMPLE_ROUNDS``
    rounds of 2 depth-2, 2 depth-3 and 1 depth-4 game, which keep the
    battery's 2:2:1 depth mix and take about 14 s on a 2-vCPU VM.
    """

    name = "tree_battery"
    SAMPLE_ROUNDS = 16

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        if smoke:
            specs = [(2, PRIORS[i % 3], 1000 + 200 * seed + i) for i in range(6)]
        else:
            specs = [
                (2 if i < 80 else 3 if i < 160 else 4, PRIORS[i % 3], 1000 + 200 * seed + i)
                for i in range(200)
            ]
        strata: dict[str, list[int]] = {}
        for i, (depth, _, _) in enumerate(specs):
            strata.setdefault(f"d{depth}", []).append(i)
        self.full = {k: len(v) for k, v in strata.items()}
        chunks = _chunks(strata, min(self.SAMPLE_ROUNDS, *self.full.values()))
        self.games = {i: random_scenario_game(specs[i][0], seed=specs[i][2], prior=specs[i][1])
                      for chunk in chunks for _, i in chunk}
        self.rounds = [[Item(s, i, partial(self._game, i)) for s, i in chunk] for chunk in chunks]

    def warm_up(self) -> None:
        self._game(next(iter(self.games)), OFF)

    def _game(self, i: int, tracer: Tracer) -> Outcome:
        game = self.games[i]
        with tracer.patched(oracle, ORACLE_SPANS):
            try:
                with tracer.span("oracle.solve"):
                    sol = solve_scenario(game)
            except oracle.NumericalFailure as exc:
                return Outcome(False, "", {"oracle.failures": 1}, f"game {i}: {exc}")
            with tracer.span("oracle.profile"):
                prof = sol.profile(game.tree)
            with tracer.span("scenario.best_response"):
                surf = best_response_values(game, prof)
            with tracer.span("scenario.martingale_report"):
                martingale_report(game, prof, surf)
            with tracer.span("scenario.support_report"):
                support_report(game, prof, surf)
            with tracer.span("scenario.certify_mart"):
                cert_m = certify_mart(game, prof, surf)
            with tracer.span("scenario.certify_stop"):
                cert_s = certify_stop(game, prof, surfaces=surf)
            with tracer.span("scenario.ex_ante"):
                ex_ante = [ex_ante_check(game, prof, surf, node) for node in range(game.tree.n_nodes)]
        value_gap = max(abs(cert_m.value - sol.value), abs(cert_s.value - sol.value))
        ok = sol.gap <= 1e-9 and cert_m.certified and cert_s.certified and value_gap <= 1e-8
        counts = {
            **_solution_counts(sol),
            "oracle.failures": 0,
            "scenario.rejected": int(not cert_m.certified) + int(not cert_s.certified),
        }
        detail = "" if ok else f"game {i}: gap {sol.gap:.2e}, value gap {value_gap:.2e}, " \
            f"certificates {cert_m.verdict}/{cert_s.verdict}"
        digest = _digest(sol.value, sol.gap, cert_m.value, cert_s.value,
                         sol.row_mix0, sol.row_mix1, sol.col_mix, np.array(ex_ante))
        return Outcome(ok, digest, counts, detail)


class TreeDeep:
    """Random profiles on depth-10 binary trees, analysed as ``verify`` does."""

    name = "tree_deep"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        depth = 2 if smoke else 10
        self.cases = []
        for k in range(8):
            game = random_scenario_game(depth, seed=20_000 + 8 * seed + k, prior=PRIORS[k % 3])
            self.cases.append((
                game,
                random_profile(game.tree, seed=30_000 + 8 * seed + k),
                random_profile(game.tree, seed=40_000 + 8 * seed + k),
            ))
        self.full = {"game": len(self.cases)}
        self.rounds = [[Item("game", k, partial(self._game, k)) for k in range(len(self.cases))]]
        self.out = workdir
        self.out.mkdir(parents=True, exist_ok=True)

    def warm_up(self) -> None:
        game = random_scenario_game(2, seed=0)
        prof = random_profile(game.tree, seed=1)
        certify_mart(game, prof, best_response_values(game, prof))

    def _game(self, k: int, tracer: Tracer) -> Outcome:
        game, prof, over = self.cases[k]
        n = game.tree.n_nodes
        with tracer.span("scenario.best_response"):
            surf = best_response_values(game, prof)
        with tracer.span("scenario.martingale_report"):
            mrep = martingale_report(game, prof, surf, xi_override=(over.xi0, over.xi1),
                                     zeta_override=over.zeta)
        with tracer.span("scenario.support_report"):
            srep = support_report(game, prof, surf)
        with tracer.span("scenario.certify_mart"):
            cert = certify_mart(game, prof, surf)
        with tracer.span("scenario.ex_ante"):
            ex_ante = [ex_ante_check(game, prof, surf, node) for node in range(n)]
        with tracer.span("core.expected_payoff_exact"):
            exact = expected_payoff_exact(game.tree, game.payoffs, (prof.xi0, prof.xi1),
                                          prof.zeta, prior=game.prior)
        # the reports and node table, serialized as ``asymdynkin verify`` does
        files = {
            "martingale_report.json": lambda: gameio.martingale_report_to_dict(mrep),
            "support_report.json": lambda: gameio.support_report_to_dict(srep),
            "ex_ante.json": lambda: {"residuals": ex_ante},
            "certificates.json": lambda: {"martingale": gameio.certificate_to_dict(cert)},
        }
        with tracer.patched(gameio, GAMEIO_SPANS):
            for name, payload in files.items():
                gameio.write_json(self.out / name, payload())
            (self.out / "nodes.csv").write_text(gameio.nodes_csv(game, surf, srep))
        written = sum((self.out / name).stat().st_size for name in [*files, "nodes.csv"])
        w = game.weights
        lower = float(w[0] * surf.u_hat[0, 0] + w[1] * surf.u_hat[1, 0])
        upper = float(surf.v_hat[0])
        ok = (lower - 1e-12 <= exact <= upper + 1e-12
              and abs(ex_ante[0] - abs(exact - upper)) <= 1e-12)
        detail = "" if ok else f"game {k}: {lower!r} <= {exact!r} <= {upper!r}, " \
            f"ex-ante {ex_ante[0]!r}"
        counts = {"scenario.rejected": int(not cert.certified), "gameio.bytes_written": written}
        digest = _digest(surf.u_hat, surf.v_hat, mrep.m_override_drift, srep.z,
                         np.array(ex_ante), exact, cert.certified)
        return Outcome(ok, digest, counts, detail)


MODEL = {  # criterion 10's model
    "mu0": "-0.4", "mu1": "0.4", "sigma": "0.5", "x0": 0.0, "pi": 0.5, "T": 1.0,
    "domain": [-2.0, 2.0], "f": "0.6", "g": "-0.6", "h": "tanh(x)*0.5",
}
CLI_SIZES = {
    # game depth, pde grid, dt of simulate, paths of simulate / extract / verify, dt of extract/verify
    False: dict(depth=4, grid="61x11x61", sim_dt=1e-2, sim_paths=1000, ext_paths=100,
                ver_paths=2000, dt=1e-2),
    True: dict(depth=2, grid="11x5x11", sim_dt=1e-1, sim_paths=1000, ext_paths=100,
               ver_paths=300, dt=1e-1),
}
COMMANDS = ("oracle", "verify", "simulate", "pde", "extract", "dverify")
ARTIFACTS = {
    "oracle": ("eq/equilibrium.json",),
    "verify": tuple(f"ver/{f}" for f in ("martingale_report.json", "support_report.json",
                                         "ex_ante.json", "certificates.json", "nodes.csv")),
    "simulate": ("dyn/paths.csv", "dyn/paths_meta.json"),
    "pde": ("dyn/surfaces.csv", "dyn/pde_meta.json"),
    "extract": ("dyn/trajectories.csv", "dyn/extract_meta.json"),
    "dverify": ("dyn/verify_report.json",),
}


class CliPipeline:
    """The six README commands as subprocesses, one after another."""

    name = "cli_pipeline"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        size = CLI_SIZES[smoke]
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        # one game for every seed (criterion 10's): LP time differs by ~20% between
        # depth-4 games, which would swamp the pipeline's run-to-run comparison
        game = random_scenario_game(size["depth"], seed=321, prior=0.5)
        gameio.write_json(workdir / "game.json", gameio.game_to_dict(game))
        (workdir / "model.json").write_text(json.dumps(MODEL, sort_keys=True))
        dyn_seed = str(7 + seed)
        dyn = ["--model", "model.json", "--out", "dyn"]
        self.argv = {
            "oracle": ["oracle", "--game", "game.json", "--out", "eq"],
            "verify": ["verify", "--game", "game.json", "--equilibrium", "eq/equilibrium.json",
                       "--out", "ver"],
            "simulate": ["dynamics", "simulate", *dyn, "--dt", str(size["sim_dt"]),
                         "--paths", str(size["sim_paths"]), "--seed", dyn_seed],
            "pde": ["dynamics", "pde", *dyn, "--grid", size["grid"]],
            "extract": ["dynamics", "extract", *dyn, "--dt", str(size["dt"]),
                        "--paths", str(size["ext_paths"]), "--seed", dyn_seed],
            "dverify": ["dynamics", "verify", *dyn, "--dt", str(size["dt"]),
                        "--paths", str(size["ver_paths"]), "--seed", dyn_seed],
        }
        src = str(Path(oracle.__file__).resolve().parent.parent)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.full = {c: 1 for c in COMMANDS}
        self.rounds = [[Item(c, c, partial(self._command, c), partial(self._in_process, c))
                        for c in COMMANDS]]
        self.child_rss_kb = 0
        self.hashes: dict[str, str] = {}

    def warm_up(self) -> None:
        pass  # the timed commands run in fresh interpreters

    def _command(self, name: str, tracer: Tracer) -> Outcome:
        log = self.dir / f"{name}.log"
        with open(log, "wb") as out, open(self.dir / f"{name}.err", "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "asymdynkin.cli", *self.argv[name]],
                                    stdout=out, stderr=err, cwd=self.dir, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        stderr = (self.dir / f"{name}.err").read_text()
        return self._outcome(name, code, log.read_text(), stderr)

    def _in_process(self, name: str, tracer: Tracer) -> Outcome:
        """The same command through ``asymdynkin.cli.main``, in this process."""
        stdout, cwd = io.StringIO(), os.getcwd()
        with contextlib.ExitStack() as stack:
            for owner, spans, counters in CLI_SPANS:
                stack.enter_context(tracer.patched(owner, spans, counters))
            stack.enter_context(contextlib.redirect_stdout(stdout))
            os.chdir(self.dir)
            stack.callback(os.chdir, cwd)
            code = cli.main(self.argv[name])
        return self._outcome(name, code, stdout.getvalue(), "")

    def _outcome(self, name: str, code: int, text: str, stderr: str) -> Outcome:
        """The command's gates, the digest of its output and artifacts, bytes written."""
        ok, detail = code == 0, f"{name}: exit {code}: {(text + stderr).strip()[-300:]}"
        if ok and name == "verify":
            ok = "martingale=certified stopping=certified" in text
        elif ok and name == "pde":
            resid = json.loads((self.dir / "dyn/pde_meta.json").read_text())["identity_residual"]
            ok, detail = resid <= 5e-2, f"pde: identity residual {resid:.3e}"
        elif ok and name == "dverify":
            ok = json.loads((self.dir / "dyn/verify_report.json").read_text())["report"]["all_passed"]
        paths = [self.dir / rel for rel in ARTIFACTS[name] if (self.dir / rel).exists()]
        files = {str(p.relative_to(self.dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in paths}
        self.hashes.update(files)
        counts = {"gameio.bytes_written": sum(p.stat().st_size for p in paths)}
        return Outcome(ok, _digest(sorted(files.items()), text), counts, "" if ok else detail)


def _const(c: float):
    return lambda x: c * np.ones_like(np.asarray(x, dtype=float))


class Filter:
    """Criterion 7's filter simulation and self-convergence study, at 25k paths."""

    name = "filter_25k"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.model = DiffusionModel(mu0=_const(-0.4), mu1=_const(0.4), sigma=_const(0.5),
                                    x0=0.0, prior=0.5, horizon=1.0, domain=(-4.0, 4.0))
        self.paths, self.conv_paths = (1000, 1000) if smoke else (25_000, 4000)
        self.seeds = (41 + 2 * seed, 42 + 2 * seed)
        self.full = {"simulate": 1, "self_convergence": 1}
        self.rounds = [[Item("simulate", "simulate", self._simulate),
                        Item("self_convergence", "self_convergence", self._self_convergence)]]

    def warm_up(self) -> None:
        simulate_filter_paths(self.model, 100, 1e-2, RandomDevice(seed=0))
        filter_self_convergence(self.model, 100, [4e-2, 2e-2], RandomDevice(seed=0))

    def _simulate(self, tracer: Tracer) -> Outcome:
        with tracer.span("dynamics.simulate_filter"):
            bundle = simulate_filter_paths(self.model, self.paths, 1e-3,
                                           RandomDevice(seed=self.seeds[0]))
        psi_t = bundle.psi[:, -1]
        se = psi_t.std(ddof=1) / np.sqrt(psi_t.size)
        gap = abs(psi_t.mean() - self.model.prior)
        ok = gap <= 4 * se and bundle.psi.min() >= 0.0 and bundle.psi.max() <= 1.0
        return Outcome(ok, _digest(psi_t, bundle.max_clamp), _path_steps(bundle),
                       "" if ok else f"|mean psi_T - prior| {gap:.2e} vs 4se {4 * se:.2e}")

    def _self_convergence(self, tracer: Tracer) -> Outcome:
        with tracer.span("dynamics.self_convergence"):
            rms = filter_self_convergence(self.model, self.conv_paths, [4e-3, 2e-3, 1e-3],
                                          RandomDevice(seed=self.seeds[1]))
        ratios = (rms[0] / rms[1], rms[1] / rms[2])
        ok = min(ratios) >= 1.2
        return Outcome(ok, _digest(rms), {},
                       "" if ok else f"RMS halving ratios {ratios[0]:.2f}/{ratios[1]:.2f}")


WORKLOADS = {w.name: w for w in (TreeBattery, TreeDeep, CliPipeline, Filter)}
