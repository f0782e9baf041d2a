"""Benchmark of mcplab: time to a checked verdict, layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke [--trace 0|1]
    python3 bench/run.py --self-test

A run builds its inputs from --seed, runs whole operations of the
workload closed-loop from one process until S seconds have passed, checks
every output against values computed apart from mcplab, and prints as
its last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics from spans with --trace 1.  Provenance
and any failures go to stderr.  --smoke runs every workload on tiny
inputs with the fewest operations a run allows (two); --self-test shows
that each check fails on a deliberately wrong input.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys

import common

WORKLOADS = {
    "library": "library",
    "cli-session": "cli_session",
}
SETUP_REPEATS = 5
# Byte-identical reports are compared between sessions, so a cli-session
# run has at least two; a library run has two so that its median always
# covers more than one operation; a traced run alternates untraced and
# traced operations.
MIN_OPS = 2


def setup_probe(workload: str, seed: int, smoke: bool) -> list:
    """Argv of one set-up: a fresh interpreter until mcplab is imported
    and the workload's inputs exist (cli-session: one ``--version``)."""
    if workload == "cli-session":
        return ["-m", "mcplab.cli", "--version"]
    code = (
        f"import sys; sys.path.insert(0, {common.BENCH_DIR!r}); "
        f"import {WORKLOADS[workload]} as w; w.make_inputs({seed}, smoke={smoke})"
    )
    return ["-c", code]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    spec = common.load_benchmark_spec()
    in_process = workload != "cli-session"
    clock = common.HostClock()
    setup_s = None
    if not trace:
        repeats = 1 if smoke else SETUP_REPEATS
        setup_s = common.median_setup_s(clock, setup_probe(workload, seed, smoke), repeats)
    imports = {} if not trace else common.import_breakdown(1 if smoke else 3)

    common.use_src()
    module = importlib.import_module(WORKLOADS[workload])
    inputs = module.make_inputs(seed, smoke=smoke)
    workdir = os.path.join(common.ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        def do_op(k):
            traced = trace and k % 2 == 1
            if in_process:
                return module.run_op(inputs, traced, clock)
            return module.run_op(inputs, workdir, k, traced, clock)

        ops = common.run_ops(0.0 if smoke else seconds, MIN_OPS, do_op)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    slowdown = statistics.median(clock.slowdowns)
    common.log(f"host slowdown: median {slowdown:.3f} over {len(clock.slowdowns)} units")
    for k, op in enumerate(ops):
        common.log(f"op {k}: {op['seconds']:.3f} s wall, {op['scaled']:.3f} s scaled")
        for line in op["failures"]:
            common.log(f"failed: {line}")
        for line in op["errors"]:
            common.log(f"check: {line}")
    if trace:
        declared = spec["per_layer"]
        values = common.per_layer([m["name"] for m in declared], ops[1::2], ops[0::2],
                                  {**imports, "host.slowdown": slowdown})
    else:
        declared = spec["end_to_end"]
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        values = common.end_to_end(ops, setup_s, common.peak_rss_mb(who))
    return {
        "correct": not any(op["errors"] for op in ops),
        "attempted": sum(op["attempted"] for op in ops),
        "failed": sum(op["failed"] for op in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload on tiny inputs, fewest operations")
    parser.add_argument("--self-test", action="store_true",
                        help="show that every check fails on a wrong input")
    args = parser.parse_args(argv)
    if not os.path.isfile(common.PACKAGE_INIT):
        print(f"error: {common.PACKAGE_INIT} not found; run from a checkout "
              "of the repository with its src/ tree", file=sys.stderr)
        return 2
    common.log("provenance: " + json.dumps(common.provenance(), sort_keys=True))
    common.log(f"pinned to core {common.pin_to_one_core()}")

    if args.self_test:
        common.use_src()
        import selftest

        return selftest.main()
    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            result = run_workload(workload, args.seed, 0.0, bool(args.trace), smoke=True)
            print(json.dumps({"workload": workload, **result}), flush=True)
            ok &= result["correct"]
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke or --self-test")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
