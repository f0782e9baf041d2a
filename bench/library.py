"""library: Monte Carlo contractions and per-geodesic oracles in one process.

One operation runs, for n = 1 and then n = 2, one Monte Carlo plus
quadrature contraction (``mc_contract``) followed by the sweep over that
n's geodesics (``geodesic_oracle``).  The two parts use mcplab's
propagators in opposite ways: wide batches of samples whose stacks exceed
the L2 cache, and one small system per call where Python overhead
dominates.  Interleaving them spreads each part over the whole run, so a
slow spell of the host weighs on both rates alike instead of on one
part's run.  Each part keeps its own time, and each rate divides by it:
``mc_samples_per_s`` by the contractions' time, ``geodesics_per_s`` by
the sweeps'.
"""

from __future__ import annotations

import geodesic_oracle
import mc_contract
from common import HostClock, Tracer, layer_totals


def make_inputs(seed: int, smoke: bool = False) -> dict:
    """Both parts' inputs: models and t generator, and the geodesic set."""
    geodesics = geodesic_oracle.make_inputs(seed, smoke)["geodesics"]
    return {
        "contract": mc_contract.make_inputs(seed, smoke),
        "geodesics": {n: [g for g in geodesics if g["n"] == n] for n in (1, 2)},
    }


def run_op(inputs: dict, traced: bool, clock: HostClock) -> dict:
    """One operation: each part timed, then checked untimed."""
    tr = Tracer(traced)
    t = mc_contract.next_t(inputs["contract"])
    contracts, sweeps = [], []
    for n in (1, 2):
        contracts.append(mc_contract.run_part(inputs["contract"], n, t, tr, clock))
        sweeps.append(geodesic_oracle.run_part(inputs["geodesics"][n], tr, clock))
    parts = contracts + sweeps
    return {
        "seconds": sum(p["seconds"] for p in parts),
        "scaled": sum(p["scaled"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]],
        "errors": [e for p in parts for e in p["errors"]],
        "samples": sum(p["samples"] for p in contracts),
        "samples_scaled": sum(p["scaled"] for p in contracts),
        "geodesics": sum(p["geodesics"] for p in sweeps),
        "geodesics_scaled": sum(p["scaled"] for p in sweeps),
        "invocations": tr.calls,
        "layers": layer_totals([tr.dump()]),
    }
