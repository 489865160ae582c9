"""gidsolve benchmark: one seeded workload per run, closed loop, one process.

    python3 perfbench/run.py --workload attack-fast --seed 1 --seconds 25 --trace 0

The run imports gidsolve from the checkout's src directory, builds the
workload's inputs from the seed, runs one round of its operations whose
answers are checked against the reference checker, then runs whole rounds
for --seconds.  The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: end-to-end metrics with
--trace 0, per-layer metrics from a traced run with --trace 1.
--workload all runs the four workloads one after the other, each in its
own process.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUPS = 15  # set-up is repeated and its median reported
MIN_ROUNDS = 2


def fresh_import():
    """Import gidsolve from scratch, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "gidsolve" or m.startswith("gidsolve.")]:
        del sys.modules[name]
    package = importlib.import_module("gidsolve")
    gs = types.SimpleNamespace(package=package)
    for name in ("profiles", "instances", "solvers", "oracle", "partial", "generators", "cli"):
        setattr(gs, name, importlib.import_module("gidsolve." + name))
    return gs


def setup(workload, seed, workdir, size, tracer_factory=None):
    gs = fresh_import()
    tracer = tracer_factory(gs) if tracer_factory else None
    if tracer:
        tracer.install()
    try:
        ops = workload.build(gs, random.Random("%s:%d" % (workload.name, seed)), workdir, size)
    finally:
        if tracer:
            tracer.uninstall()
    return gs, ops, tracer


def run_round(ops):
    """Run every operation once; return (results, latencies ns, failures, wall ns)."""
    results, latencies, failures = [], [], []
    clock = time.perf_counter_ns
    started = clock()
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(None)
            results.append(None)
            failures.append((i, "".join(traceback.format_exception_only(type(exc), exc)).strip()))
            continue
        latencies.append(clock() - t0)
        results.append(result)
    return results, latencies, failures, clock() - started


def measure(name, seed, seconds, trace, size=1.0):
    """Run one workload; return (result dict, route counts, error lines)."""
    from tracing import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = os.path.join(HERE, "_work", "%s-%d" % (name, os.getpid()))
    errors = []
    try:
        if trace:
            gs, ops, tracer = setup(workload, seed, workdir, size, Tracer)
            setup_trace = tracer.snapshot()
            tracer.reset()
        else:
            setup_times = []
            for _ in range(SETUPS):
                started = time.perf_counter()
                gs, ops, _ = setup(workload, seed, workdir, size)
                setup_times.append(time.perf_counter() - started)
        reference, _, first_failures, _ = run_round(ops)
        for i, message in first_failures:
            errors.append("failed: %s: %s" % (ops[i].label, message.splitlines()[-1]))
        failed_at = {i for i, _ in first_failures}
        wrong = workload.check(gs, ops, reference, random.Random("check:%s:%d" % (name, seed)))

        best = [None] * len(ops)  # each operation's fastest untraced time
        walls, traced_walls = [], []
        attempted = failed = rounds = 0
        steady = True
        started = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
            for traced in ((False, True) if trace else (False,)):
                if traced:
                    tracer.install()
                try:
                    results, latencies, failures, wall = run_round(ops)
                finally:
                    if traced:
                        tracer.uninstall()
                (traced_walls if traced else walls).append(wall)
                for i, x in enumerate(latencies):
                    if not traced and x is not None and (best[i] is None or x < best[i]):
                        best[i] = x
                attempted += len(ops)
                failed += len(failures)
                steady = steady and {i for i, _ in failures} == failed_at and results == reference
            rounds += 1
        if not steady:
            wrong.append("a later round gave different answers than the checked one")

        # solve_auto and answer_query name the route that answered
        routes = collections.Counter(
            r[1] for r in reference if isinstance(r, tuple) and len(r) == 2 and isinstance(r[1], str))
        if trace:
            overhead = 100.0 * (sum(traced_walls) / sum(walls) - 1.0)
            metrics = per_layer_metrics(setup_trace, tracer.snapshot(), rounds, overhead)
        else:
            best = [b for b in best if b is not None]
            metrics = {
                "ops_per_s": (len(best) / (sum(best) / 1e9), "op/s"),
                "op_p50_us": (statistics.median(best) / 1e3, "us"),
                "op_p90_us": (statistics.quantiles(best, n=10)[8] / 1e3, "us"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
        errors += wrong
        result = {
            "correct": not wrong,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        }
        return result, routes, errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, "_work"))
        except OSError:
            pass


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gidsolve", "__init__.py")):
        sys.stderr.write("error: no gidsolve sources at %s\n" % SRC)
        return 2
    if args.workload == "all":
        combined = {}
        for name in sorted(WORKLOADS):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                return proc.returncode
            combined[name] = json.loads(proc.stdout.splitlines()[-1])
        print(json.dumps(combined))
        return 0
    sys.path.insert(0, SRC)
    result, routes, errors = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in errors:
        sys.stderr.write(line + "\n")
    for route, n in sorted(routes.items()):
        print("route\t%s\t%d" % (route, n))
    print("ops\tattempted %d failed %d" % (result["attempted"], result["failed"]))
    for key, metric in result["metrics"].items():
        print("metric\t%s\t%r %s" % (key, metric["value"], metric["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
