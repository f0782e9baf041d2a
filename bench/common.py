"""Shared pieces of the benchmark: paths, child processes, host speed,
spans, statistics.

Every process the benchmark starts gets the repository's ``src/`` on its
path, because mcplab is run from source rather than from an installation.
"""

from __future__ import annotations

import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE_INIT = os.path.join(SRC, "mcplab", "__init__.py")

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict:
    """Environment for child interpreters: src/ first on PYTHONPATH."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + rest if rest else "")
    return env


def use_src() -> None:
    """Make ``import mcplab`` in this process load the sources in src/."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def provenance() -> dict:
    """Versions, BLAS thread settings and core count of this run."""
    with open(PACKAGE_INIT) as fh:
        match = re.search(r'__version__\s*=\s*"([^"]+)"', fh.read())
    return {
        "mcplab": match.group(1) if match else None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_child(argv) -> subprocess.CompletedProcess:
    """Run a fresh interpreter to its exit."""
    return subprocess.run(
        [sys.executable, *argv],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def pin_to_one_core() -> int:
    """Keep this process and its children on one core, so that the host
    clock's probe and the work it scales share that core's state."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# The probe is a fixed pure-Python loop, its time the best of a few
# passes.  On an idle core of the 2-core Xeon VM the benchmark was built
# on, one pass takes about PROBE_IDLE_S; in the spells, of seconds to
# minutes, when the host's other tenants load that core, it takes about
# 1.45 times as long.
PROBE_LOOPS = 35_000
PROBE_PASSES = 3
PROBE_IDLE_S = 0.0020


def probe_s() -> float:
    best = float("inf")
    for _ in range(PROBE_PASSES):
        start = perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        best = min(best, perf_counter() - start)
    return best


class HostClock:
    """Times units of work in wall seconds and in host-scaled seconds.

    A unit's slowdown is the mean of the probes taken just before and
    just after it, over PROBE_IDLE_S; its scaled time is its wall time
    over its slowdown, i.e. the time it would take on an idle core.  Each
    probe serves the unit before it and the unit after it."""

    def __init__(self):
        self.last_probe = probe_s()
        self.slowdowns = []

    def call(self, fn, *args, **kwargs) -> tuple:
        """``fn(*args, **kwargs)``; returns (result, seconds, scaled seconds)."""
        start = perf_counter()
        result = fn(*args, **kwargs)
        seconds = perf_counter() - start
        after = probe_s()
        slowdown = (self.last_probe + after) / (2.0 * PROBE_IDLE_S)
        self.last_probe = after
        self.slowdowns.append(slowdown)
        return result, seconds, seconds / slowdown


def median_setup_s(clock: HostClock, argv, repeats: int) -> float:
    """Median host-scaled time of ``repeats`` fresh interpreters running argv."""
    times = []
    for _ in range(repeats):
        proc, _, scaled = clock.call(run_child, argv)
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe {argv} exited {proc.returncode}: {proc.stderr[-2000:]}"
            )
        times.append(scaled)
    return statistics.median(times)


def peak_rss_mb(who: int) -> float:
    """Peak resident set size in MB of this process (RUSAGE_SELF) or of
    the largest child waited for (RUSAGE_CHILDREN); Linux reports KiB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# import-time breakdown
# ---------------------------------------------------------------------------

def parse_importtime(stderr: str, prefixes) -> dict:
    """Seconds spent importing each package prefix, from ``-X importtime``.

    A module counts towards a prefix when its name is the prefix or starts
    with ``prefix.``, and no module it was imported from matches the same
    prefix, so nested imports are not counted twice.  The output lists
    each module after the modules it imported, two spaces deeper per
    level, so it is walked backwards with a stack of open ancestors."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    totals = {p: 0.0 for p in prefixes}
    stack = []  # (depth, name) of the ancestors of the current row
    for depth, cumulative_us, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        for p in prefixes:
            if _matches(name, p) and not any(_matches(a, p) for _, a in stack):
                totals[p] += cumulative_us * 1e-6
        stack.append((depth, name))
    return totals


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def import_breakdown(repeats: int = 3) -> dict:
    """Median per-package import seconds of ``import mcplab.cli`` over
    fresh interpreters."""
    prefixes = ("mcplab", "scipy", "numpy")
    samples = {p: [] for p in prefixes}
    for _ in range(repeats):
        proc = run_child(["-X", "importtime", "-c", "import mcplab.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import mcplab.cli failed: {proc.stderr[-2000:]}")
        for p, seconds in parse_importtime(proc.stderr, prefixes).items():
            samples[p].append(seconds)
    return {
        "import.mcplab_cli_s": statistics.median(samples["mcplab"]),
        "import.scipy_s": statistics.median(samples["scipy"]),
        "import.numpy_s": statistics.median(samples["numpy"]),
    }


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """Spans around calls into mcplab, kept in memory.

    ``call`` always counts the call; it records a span (name, start, end,
    parent) only when the tracer is enabled, so an untraced operation pays
    one attribute lookup and one addition per call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.calls = 0
        self.spans = []
        self.counts = {}
        self._open = []

    def call(self, name: str, fn, *args, **kwargs):
        self.calls += 1
        if not self.enabled:
            return fn(*args, **kwargs)
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            self._open.pop()

    def count(self, name: str, value) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def riccati_span_name(c: float) -> str:
    """Layer name of an integrate_inverse_riccati call, by chart behaviour.

    Every geodesic the benchmark draws with |c| < pi/2 comes from a band
    that stays in one chart and every other from one that hops charts
    (geodesic_oracle.ONE_CHART, CHART_HOP), so |c| names the behaviour."""
    kind = "one_chart" if abs(c) < 1.5707963267948966 else "chart_hop"
    return f"riccati.integrate_inverse_riccati.{kind}"


def layer_totals(traces) -> dict:
    """Per-layer seconds of one operation from one or more tracer dumps:
    ``<name>_s`` sums a span's durations, ``<name>.self_s`` subtracts the
    time covered by its child spans (reported for spans that have
    children), and counts are summed."""
    out = {}
    for trace in traces:
        spans = trace["spans"]
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        for s in spans:
            dur = s["end"] - s["start"]
            key = s["name"] + "_s"
            out[key] = out.get(key, 0.0) + dur
            if s["id"] in child_time:
                key = s["name"] + ".self_s"
                out[key] = out.get(key, 0.0) + dur - child_time[s["id"]]
        for name, value in trace["counts"].items():
            out[name] = out.get(name, 0) + value
    return out


# ---------------------------------------------------------------------------
# runs and results
# ---------------------------------------------------------------------------

def run_ops(seconds: float, min_ops: int, do_op) -> list:
    """Closed loop: start operation k only after k - 1 has returned.

    After ``min_ops`` operations, another starts only while half the mean
    wall time per operation so far still fits in what is left of
    ``seconds``, so a run is whole operations that end, on average, when
    its window does, and at most half an operation after it."""
    ops = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(ops) >= min_ops and elapsed + 0.5 * elapsed / len(ops) > seconds:
            return ops
        ops.append(do_op(len(ops)))


def median_of(ops, key: str) -> float:
    return statistics.median(op[key] for op in ops)


def rate(ops, key: str) -> float:
    """Units per host-scaled second, summed over the run so that its last
    partial window never quantizes the figure.  The time is
    ``<key>_scaled`` where an operation times the part that makes those
    units, else its whole scaled time."""
    return (sum(op[key] for op in ops)
            / sum(op.get(key + "_scaled", op["scaled"]) for op in ops))


def end_to_end(ops, setup_s: float, rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "op_p50_s": median_of(ops, "scaled"),
        "mc_samples_per_s": rate(ops, "samples"),
        "geodesics_per_s": rate(ops, "geodesics"),
        "invocations_per_s": rate(ops, "invocations"),
        "peak_rss_mb": rss_mb,
    }


def per_layer(names, traced_ops, untraced_ops, imports: dict) -> dict:
    """Median over traced operations of each layer's per-operation total;
    a layer the workload never calls reads 0."""
    values = dict(imports)
    values["trace.untraced_wall_s"] = median_of(untraced_ops, "seconds")
    values["trace.traced_wall_s"] = median_of(traced_ops, "seconds")
    values["trace.overhead_ratio"] = (median_of(traced_ops, "scaled")
                                      / median_of(untraced_ops, "scaled"))
    for name in names:
        if name not in values:
            values[name] = statistics.median(
                op["layers"].get(name, 0.0) for op in traced_ops
            )
    return values


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
