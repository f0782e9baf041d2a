"""cli-session: every subcommand as a fresh ``python -m mcplab.cli`` process.

One operation (a session) runs each of the seven subcommands once at a
small size, each writing a .json or .csv report, then three usage errors.
Import and report writing dominate: they take most of each invocation.
The flags are drawn once per run from the workload seed, so every session
of a run repeats the same command lines and must write byte-identical
reports.

Three invocations fail today because of faults in mcplab; each is
counted as failed until it gets the usage-error outcome (exit 2, one line
on stderr, no traceback):

- ``conjugate --t-max nan``: ``int(nan)`` in conjugate_time's grid sizing;
- ``--output`` into a missing directory: FileNotFoundError from
  ``cli._write_json``;
- ``curvature --model`` naming a missing file: FileNotFoundError from
  ``model_from_json``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import checks
from common import BENCH_DIR, HostClock, layer_totals, run_child

# The contract subcommand's sample seed is fixed for the reason given in
# mc_contract.py; at 2000 samples |z| stays below 1.1 over T_RANGE.
CONTRACT_SAMPLES = 2000
CONTRACT_SEED = 0
T_RANGE = (0.2, 0.8)
USAGE_ERROR = "usage_error"
# Invocations whose report verifies one geodesic each.
GEODESIC_COMMANDS = ("riccati", "conjugate", "density-profile")


def _fmt(value: float) -> str:
    return repr(float(value))


def make_inputs(seed: int, smoke: bool = False) -> dict:
    """The command lines of every session of a run.

    Each entry is (kind, argv, flags, report): argv may contain ``{dir}``,
    the session's directory; report is the file a valid invocation writes.
    The sizes are already small, so smoke mode uses the same lines."""
    rng = np.random.default_rng([seed, 3])

    def signed(lo, hi):
        return float(math.copysign(rng.uniform(lo, hi), rng.random() - 0.5))

    f = {
        "curvature": {"n": 1, "eps": float(rng.uniform(0.5, 4.0)),
                      "seed": int(rng.integers(0, 1000))},
        "riccati": {"n": 2, "b": float(rng.uniform(0.1, 1.0)),
                    "c": signed(0.05, math.pi / 2 - 0.05)},
        "conjugate": {"n": 1, "b": float(rng.uniform(0.0, 4.0)),
                      "c": signed(math.pi + 0.1, 2 * math.pi)},
        "mcp-scan": {"n": 1, "b_hi": float(rng.uniform(5.0, 20.0)),
                     "c_hi": float(rng.uniform(2.5, 3.1))},
        "sharpness": {"n": 1, "t": float(rng.uniform(0.2, 0.9))},
        "contract": {"n": 1, "eps": 2.0, "radius": 2.0, "momentum": 5.0,
                     "t": float(rng.uniform(*T_RANGE)),
                     "samples": CONTRACT_SAMPLES},
        "density-profile": {"n": 1, "b": float(rng.uniform(0.0, 10.0)),
                            "c": signed(0.0, 3.0)},
    }
    cur, ric, con, scan = f["curvature"], f["riccati"], f["conjugate"], f["mcp-scan"]
    sh, ct, dp = f["sharpness"], f["contract"], f["density-profile"]
    lines = [
        ("curvature", ["curvature", "--heisenberg", "--n", "1", "--eps", _fmt(cur["eps"]),
                       "--samples", "200", "--seed", str(cur["seed"])], "curvature.json"),
        ("riccati", ["riccati", "--b", _fmt(ric["b"]), "--c", _fmt(ric["c"]), "--n", "2",
                     "--t", "0.1:0.9:9"], "riccati.json"),
        ("conjugate", ["conjugate", "--b", _fmt(con["b"]), "--c", _fmt(con["c"])],
         "conjugate.json"),
        ("mcp-scan", ["mcp-scan", "--n", "1", "--b", f"0:{_fmt(scan['b_hi'])}:30",
                      "--c", f"{_fmt(-scan['c_hi'])}:{_fmt(scan['c_hi'])}:30",
                      "--t", "0.05:0.95:30"], "mcp-scan.json"),
        ("sharpness", ["sharpness", "--n", "1", "--t", _fmt(sh["t"])], "sharpness.json"),
        ("contract", ["contract", "--n", "1", "--eps", "2", "--radius", "2",
                      "--momentum", "5", "--t", _fmt(ct["t"]),
                      "--samples", str(CONTRACT_SAMPLES), "--seed", str(CONTRACT_SEED)],
         "contract.json"),
        ("density-profile", ["density-profile", "--b", _fmt(dp["b"]), "--c", _fmt(dp["c"]),
                             "--t", "0:0.9:19"], "density-profile.csv"),
    ]
    invocations = [
        (kind, argv + ["--output", os.path.join("{dir}", report)], f[kind], report)
        for kind, argv, report in lines
    ]
    invocations += [
        (USAGE_ERROR, ["conjugate", "--b", _fmt(con["b"]), "--c", _fmt(con["c"]),
                       "--t-max", "nan"], None, None),
        (USAGE_ERROR, ["conjugate", "--b", _fmt(con["b"]), "--c", _fmt(con["c"]),
                       "--output", os.path.join("{dir}", "missing", "conjugate.json")],
         None, None),
        (USAGE_ERROR, ["curvature", "--model", os.path.join("{dir}", "missing-model.json")],
         None, None),
    ]
    return {"invocations": invocations, "first_reports": {}}


def run_op(inputs: dict, workdir: str, index: int, traced: bool, clock: HostClock) -> dict:
    """One session, timed invocation by invocation, then checked."""
    session_dir = os.path.join(workdir, f"session-{index}")
    os.makedirs(session_dir)
    seconds, scaled, failed, failures, errors, traces = 0.0, 0.0, 0, [], [], []
    samples = geodesics = 0
    for i, (kind, argv, flags, report) in enumerate(inputs["invocations"]):
        argv = [a.replace("{dir}", session_dir) for a in argv]
        if traced:
            spans = os.path.join(session_dir, f"spans-{i}.json")
            label = kind.replace("-", "_")
            cmd = [os.path.join(BENCH_DIR, "cli_traced.py"), spans, label, "--", *argv]
        else:
            cmd = ["-m", "mcplab.cli", *argv]
        proc, took, took_scaled = clock.call(run_child, cmd)
        seconds += took
        scaled += took_scaled
        if traced:
            with open(spans) as fh:
                traces.append(json.load(fh))
        if kind == USAGE_ERROR:
            if not checks.usage_error(proc.returncode, proc.stderr):
                failed += 1
                last = (proc.stderr.strip().splitlines() or [""])[-1]
                failures.append(f"{' '.join(argv[:1] + argv[-2:])}: exit "
                                f"{proc.returncode}, {last}")
            continue
        if proc.returncode != 0:
            failed += 1
            failures.append(f"{kind}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        with open(os.path.join(session_dir, report), "rb") as fh:
            data = fh.read()
        errors += checks.report(kind, flags, data)
        errors += checks.identical(kind, data, inputs["first_reports"].setdefault(kind, data))
        if kind == "contract":
            samples += flags["samples"]
        if kind in GEODESIC_COMMANDS:
            geodesics += 1
    return {
        "seconds": seconds,
        "scaled": scaled,
        "attempted": len(inputs["invocations"]),
        "failed": failed,
        "failures": failures,
        "errors": errors,
        "samples": samples,
        "geodesics": geodesics,
        "invocations": len(inputs["invocations"]),
        "layers": layer_totals(traces),
    }
