"""Layered benchmark of asymdynkin's tree and diffusion pipelines.

Run from the root of a source checkout:

    python3 bench/run.py --workload tree_battery --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --all            # every workload, untraced then traced

One invocation measures one workload in a fresh process: it times set-up in
fresh child interpreters, builds the inputs from ``--seed``, then runs the
workload's items one after another (a closed loop with one caller) for
``--seconds``, checking every output.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports per-layer self times and counters from spans
the benchmark opens around its calls into the package.  The last line of
standard output is one JSON object; the lines before it are for people.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "ASYMDYNKIN_THREADS")
END_TO_END = {"wall_s": "s", "item_p95_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_TIMES = (
    "oracle.enumerate", "oracle.regime_matrices", "oracle.solve", "oracle.profile",
    "scenario.best_response", "scenario.martingale_report", "scenario.support_report",
    "scenario.certify_mart", "scenario.certify_stop", "scenario.ex_ante",
    "core.expected_payoff_exact",
    "dynamics.pde_solve", "dynamics.simulate_filter", "dynamics.self_convergence",
    "dynamics.simulate_regime", "dynamics.extract_strategies", "dynamics.extract_evaluate",
    "dynamics.mc_verify",
    "gameio.json", "gameio.nodes_csv", "gameio.surfaces_csv", "gameio.surfaces_from_csv",
    "gameio.paths_csv", "gameio.trajectories_csv",
)
LAYER_COUNTS = ("oracle.rules", "oracle.failures", "scenario.rejected", "dynamics.path_steps",
                "gameio.bytes_written")
CLI_COMMANDS = ("oracle", "verify", "simulate", "pde", "extract", "dverify")
WORKLOAD_NAMES = ("tree_battery", "tree_deep", "cli_pipeline", "filter_25k")
SETUP_REPEATS = 3


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in LAYER_TIMES}
    units.update({f"oracle.solve_d{d}_s": "s" for d in (2, 3, 4)})
    units.update({name: "count" for name in LAYER_COUNTS})
    units["oracle.support_ratio"] = "ratio"
    units["cli.import_s"] = "s"
    units.update({f"cli.{c}_s": "s" for c in CLI_COMMANDS})
    units.update({"trace.overhead_frac": "ratio", "trace.coverage": "ratio"})
    return units


def environment() -> dict:
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _child_argv(args, *extra) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), *extra]
    return argv + (["--smoke"] if args.smoke else [])


def setup_seconds(args) -> float:
    """Median wall time of fresh interpreters that import, build the inputs and warm up."""
    times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(_child_argv(args, "--setup-only"), check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports the CLI (paid per command)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import asymdynkin.cli"], check=True, env=env)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Record:
    """Item times, failures, layer self times and counters, by stratum."""

    def __init__(self):
        self.times = defaultdict(list)        # untraced item wall times
        self.keys = defaultdict(list)         # the item key of each of those times
        self.traced = defaultdict(list)       # traced wall times (trace run)
        self.subprocess = defaultdict(list)   # CLI command times (trace run)
        self.layers = defaultdict(lambda: defaultdict(float))
        self.first_cycle = defaultdict(lambda: defaultdict(float))  # counters of each item once
        self.covered = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict = {}
        self.compared = 0

    def check(self, key, out) -> None:
        """Count one execution; fail it on a gate or on a digest that changed."""
        self.attempted += 1
        if out.ok and out.digest:
            if key in self.digests:
                self.compared += 1
                if self.digests[key] != out.digest:
                    out.ok, out.detail = False, f"{key}: output differs between two runs"
            else:
                self.digests[key] = out.digest
        if not out.ok:
            self.failures.append(out.detail or str(key))


def execute(fn, tracer):
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        out = fn(tracer)
    except Exception as exc:  # an exception fails the item, not the run
        traceback.print_exc(file=sys.stderr)
        out = Outcome(False, "", {}, f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, out


def measure(workload, seconds: float, trace: bool) -> tuple[Record, float]:
    """Run the workload's rounds, then cycle through them again until
    ``seconds`` have passed; the first cycle always completes.

    Returns the record and the peak resident memory of the process, in MB,
    after the first cycle.
    """
    import resource

    from tracing import OFF, Tracer

    rec = Record()
    tracer = Tracer()
    n_rounds = len(workload.rounds)
    rss_mb = 0.0
    start = time.perf_counter()
    for j in itertools.count():
        for item in workload.rounds[j % n_rounds]:
            if j >= n_rounds and time.perf_counter() - start >= seconds:
                break
            if not trace:
                dt, out = execute(item.run, OFF)
                rec.times[item.stratum].append(dt)
                rec.keys[item.stratum].append(item.key)
                rec.check(item.key, out)
                continue
            fn = item.run
            if item.in_process is not None:
                dt, out = execute(item.run, OFF)
                rec.subprocess[item.stratum].append(dt)
                rec.check(item.key, out)
                fn = item.in_process
            dt, out = execute(fn, OFF)
            rec.times[item.stratum].append(dt)
            rec.check(item.key, out)
            dt, out = execute(fn, tracer)
            rec.traced[item.stratum].append(dt)
            rec.check(item.key, out)
            self_times, covered, counts = tracer.take()
            rec.covered += covered
            for name, value in [*self_times.items(), *counts.items(), *out.counts.items()]:
                rec.layers[item.stratum][name] += value
            if j < n_rounds:
                rec.first_cycle[item.stratum]["items"] += 1
                for name, value in [*counts.items(), *out.counts.items()]:
                    rec.first_cycle[item.stratum][name] += value
        if j == n_rounds - 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if j >= n_rounds - 1 and time.perf_counter() - start >= seconds:
            break
    if rec.compared == 0:
        # nothing ran twice inside the time: repeat the first round, untimed
        for item in workload.rounds[0]:
            _, out = execute(item.run, OFF)
            rec.check(item.key, out)
    return rec, rss_mb


def _scaled(full: dict, per_stratum: dict, count: dict) -> float:
    """Full-workload total from per-stratum sums over ``count`` items."""
    return sum(full[s] * per_stratum[s] / count[s] for s in full if count.get(s))


def end_to_end(workload, rec: Record, rss_mb: float, setup_s: float) -> dict:
    # an item timed more than once is measured once, by the median of its times
    by_key, stratum = defaultdict(list), {}
    for st, times in rec.times.items():
        for key, t in zip(rec.keys[st], times):
            by_key[key].append(t)
            stratum[key] = st
    latency = {key: statistics.median(ts) for key, ts in by_key.items()}
    # every stratum of the full workload at the mean latency of its timed items
    wall = sum(n * statistics.fmean(t for key, t in latency.items() if stratum[key] == st)
               for st, n in workload.full.items())
    p95 = statistics.quantiles(latency.values(), n=20, method="inclusive")[-1] \
        if len(latency) > 1 else next(iter(latency.values()))
    if getattr(workload, "child_rss_kb", None):  # the CLI runs in child processes
        rss_mb = workload.child_rss_kb / 1024.0
    values = {"wall_s": wall, "item_p95_s": p95, "peak_rss_mb": rss_mb, "setup_s": setup_s}
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(workload, rec: Record, import_s: float) -> dict:
    full = workload.full
    count = {s: len(v) for s, v in rec.traced.items()}
    values = {f"{name}_s": _scaled(full, {s: rec.layers[s][name] for s in full}, count)
              for name in LAYER_TIMES}
    # counters come from the first cycle, which runs every item once
    first = {s: rec.first_cycle[s]["items"] for s in full}
    values.update({name: _scaled(full, {s: rec.first_cycle[s][name] for s in full}, first)
                   for name in LAYER_COUNTS})
    for d in (2, 3, 4):
        s = f"d{d}"
        values[f"oracle.solve_d{d}_s"] = (
            full[s] * rec.layers[s]["oracle.solve"] / count[s] if count.get(s) else 0.0)
    rules = sum(rec.layers[s]["oracle.rules"] for s in full)
    support = sum(rec.layers[s]["oracle.support"] for s in full)
    values["oracle.support_ratio"] = support / (3 * rules) if rules else 0.0
    values["cli.import_s"] = import_s
    for c in CLI_COMMANDS:
        values[f"cli.{c}_s"] = statistics.median(rec.subprocess[c]) if rec.subprocess[c] else 0.0
    traced = {s: sum(v) for s, v in rec.traced.items()}
    untraced = {s: sum(rec.times[s]) for s in rec.traced}
    values["trace.overhead_frac"] = _scaled(full, traced, count) / _scaled(full, untraced, count) - 1
    values["trace.coverage"] = rec.covered / sum(traced.values())
    return {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}


def run_one(args) -> int:
    if not (SRC / "asymdynkin" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s = 0.0 if args.setup_only or args.trace else setup_seconds(args)
    import_s = import_seconds() if args.trace and args.workload == "cli_pipeline" else 0.0

    from workloads import WORKLOADS

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    workload.warm_up()
    if args.setup_only:
        return 0

    rec, rss_mb = measure(workload, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(workload, rec, import_s)
    else:
        metrics = end_to_end(workload, rec, rss_mb, setup_s)
    failed = len(rec.failures)
    result = {"correct": failed == 0, "attempted": rec.attempted, "failed": failed,
              "metrics": metrics}
    env = environment()
    hashes = getattr(workload, "hashes", {})
    for detail in rec.failures[:10]:
        print(f"FAILED {detail}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"items={ {s: len(v) for s, v in rec.times.items()} } "
          f"fail_frac={failed / rec.attempted:.4g} ({failed}/{rec.attempted})")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print("env " + json.dumps(env, sort_keys=True))
    if hashes:
        print("artifact sha256 " + json.dumps(hashes, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                             "trace": args.trace, "smoke": args.smoke, "env": env,
                             "artifact_sha256": hashes, "item_times": rec.times, **result},
                            sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, as one table."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
            if not lines:
                print(f"{name}: no result (exit {proc.returncode})")
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            rows.append((name, trace, result))
    print("\nworkload       metric                            value  unit")
    for name, trace, result in rows:
        if not trace:
            frac = result["failed"] / result["attempted"]
            print(f"{name:14s} {'fail_frac':30s} {frac:10.4g}  ratio")
        for metric, m in result["metrics"].items():
            print(f"{name:14s} {metric:30s} {m['value']:10.4g}  {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 gives the acceptance-test seeds")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
