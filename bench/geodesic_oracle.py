"""Per-geodesic cross-checks, one small system at a time: one part of the
``library`` workload.

Every operation sweeps the same set of geodesics, drawn once per run
from the seed, with n in {1, 2} and b over a range, in three bands of c:
|c| < pi/2 (the inverse Riccati flow stays in one chart), pi/2 < |c| < pi
(it hops charts) and a few |c| > pi (a conjugate point before time 1).
Every geodesic goes through five checks: ``integrate_inverse_riccati``
against ``closed_forms`` at 9 times; ``geodesic_flow`` and
``adapted_frame``; ``jacobi_determinants_from_params`` and
``det_distortion`` against the benchmark's determinant formula; and
``conjugate_time`` against pi / |c|.  Work per call is at most a 5x5
system, so Python overhead per call dominates: the opposite use of the
propagators from the Monte Carlo contraction's wide batches.
"""

from __future__ import annotations

import math

import numpy as np

import checks
import reference
from common import HostClock, Tracer, riccati_span_name
from mcplab.heisenberg import (
    GeodesicState,
    HeisenbergModel,
    adapted_frame,
    geodesic_flow,
    jacobi_determinants_from_params,
)
from mcplab.riccati import (
    RiccatiParams,
    build_blocks,
    closed_forms,
    conjugate_time,
    det_distortion,
    integrate_inverse_riccati,
)

EPS = 2.0
# Bands as (name, |c| range, |b| range); b = -eps |u_H| / 2 is negative on
# a geodesic.  Whether the inverse Riccati flow hops charts before t = 0.9
# depends on b as well as c: at |b| = 2 it hops already for |c| = 1, and
# at |b| = 0.5 not yet for |c| = 1.6.  These ranges keep the label true:
# one chart for every (b, c) of the first band, a hop in the first block
# for every (b, c) of the second (checked on a 25 x 10 grid of each).
ONE_CHART = ("one_chart", (0.02, math.pi / 2 - 0.02), (0.1, 1.0))
CHART_HOP = ("chart_hop", (math.pi / 2 + 0.02, math.pi - 0.02), (1.0, 4.0))
CONJUGATE_B = (0.1, 4.0)
RICCATI_TIMES = np.linspace(0.1, 0.9, 9)
JACOBI_TIMES = np.linspace(0.1, 1.0, 10)
# Geodesics per n in each band: one chart, chart hop, conjugate point.
BAND_COUNTS = (16, 16, 4)
SMOKE_BAND_COUNTS = (1, 1, 1)
# Near a pole of F(1 - t) the relative error of any integrator grows like
# 1 / distance, so conjugate-band geodesics keep their poles at least this
# far from the 9 comparison times.
POLE_MARGIN = 0.01


def _stratified(rng, lo, hi, count):
    """One uniform draw in each of ``count`` equal slices of [lo, hi], in
    random order, so the set's cost barely depends on the seed."""
    edges = lo + (hi - lo) * (np.arange(count) + rng.random(count)) / count
    return rng.permutation(edges)


def _conjugate_geodesic(rng, gap):
    """(b, c) with pi / |c| inside the gap (0.1 gap, 0.1 (gap + 1)) and
    every pole of F(1 - t) at least POLE_MARGIN from the comparison
    times.  b is redrawn until the second pole clears them."""
    t_star = 0.1 * gap + 0.03 + 0.04 * rng.random()
    c = math.copysign(math.pi / t_star, rng.random() - 0.5)
    while True:
        b = -rng.uniform(*CONJUGATE_B)
        poles = reference.riccati_poles(b, c)
        if all(abs(p - t) >= POLE_MARGIN for p in poles for t in RICCATI_TIMES):
            return b, c


def make_inputs(seed: int, smoke: bool = False) -> dict:
    """The fixed geodesic set of a run: scalars, model and start state."""
    rng = np.random.default_rng([seed, 2])
    counts = SMOKE_BAND_COUNTS if smoke else BAND_COUNTS
    geodesics = []
    for n in (1, 2):
        pairs = []
        for (band, c_range, b_range), count in zip((ONE_CHART, CHART_HOP), counts):
            mags = _stratified(rng, *c_range, count)
            bs = -_stratified(rng, *b_range, count)
            for b, mag in zip(bs, mags):
                pairs.append((band, float(b), float(math.copysign(mag, rng.random() - 0.5))))
        for gap in rng.choice([5, 6, 7, 8], size=counts[2], replace=False):
            pairs.append(("conjugate", *_conjugate_geodesic(rng, int(gap))))
        model = HeisenbergModel(n=n, eps=EPS)
        for band, b, c in pairs:
            direction = rng.normal(size=2 * n)
            direction /= np.linalg.norm(direction)
            vel = np.concatenate(([2.0 * c / EPS], (-2.0 * b / EPS) * direction))
            geodesics.append({
                "band": band,
                "n": n,
                "b": b,
                "c": c,
                "model": model,
                "start": GeodesicState(pos=rng.normal(size=2 * n + 1), vel=vel),
            })
    return {"geodesics": geodesics}


def sweep_one(g: dict, tr: Tracer) -> dict:
    """Every program call for one geodesic; returns the raw outputs."""
    b, c, n = g["b"], g["c"], g["n"]
    params = RiccatiParams(b=b, c=c, n=n)
    grid = np.concatenate(([0.0], RICCATI_TIMES))
    sol = tr.call(
        riccati_span_name(c), integrate_inverse_riccati,
        params, build_blocks(params), grid,
    )
    closed = [tr.call("riccati.closed_forms", closed_forms, params, float(t))
              for t in RICCATI_TIMES]
    traj = tr.call("heisenberg.geodesic_flow", geodesic_flow, g["model"], g["start"], 1.0)
    frame = tr.call("heisenberg.adapted_frame", adapted_frame, g["model"], traj)
    t_star = tr.call("riccati.conjugate_time", conjugate_time, params)
    times = JACOBI_TIMES if t_star is None else np.sort(np.append(JACOBI_TIMES, t_star))
    ode = tr.call("heisenberg.jacobi_determinants", jacobi_determinants_from_params,
                  b, c, times, n=n)
    closed_det = tr.call("riccati.det_distortion", det_distortion, params, times)
    return {
        "riccati_times": RICCATI_TIMES,
        "F1": sol.F1[1:], "F3": sol.F3[1:], "singular": sol.singular[1:],
        "closed": closed,
        "drift": traj.conservation_drift(),
        "frame_bc": (frame.b, frame.c),
        "t_star": t_star,
        "times": times,
        "ode_det": np.asarray(ode),
        "closed_det": np.asarray(closed_det),
    }


def run_part(geodesics: list, tr: Tracer, clock: HostClock) -> dict:
    """One sweep: each geodesic timed, then every one checked untimed."""
    outputs, failures = [], []
    seconds = scaled = 0.0
    for g in geodesics:
        try:
            out, took, took_scaled = clock.call(sweep_one, g, tr)
        except Exception as exc:  # a raising geodesic counts as failed
            failures.append(f"n={g['n']} b={g['b']!r} c={g['c']!r}: "
                            f"{type(exc).__name__}: {exc}")
            continue
        outputs.append((g, out))
        seconds += took
        scaled += took_scaled
    return {
        "seconds": seconds,
        "scaled": scaled,
        "attempted": len(geodesics),
        "failed": len(failures),
        "failures": failures,
        "errors": [e for g, out in outputs for e in checks.geodesic(g, out)],
        "geodesics": len(outputs),
    }
