"""Correctness checks of the benchmark, as pure functions of outputs.

Each check returns a list of error strings, empty when the outputs pass.
Every expected value comes from ``reference`` (computed apart from
mcplab) or is a property the method must have; nothing is compared with
a stored copy of earlier output.  The self-test feeds each check a
deliberately wrong input to show that it fails.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import reference

# Tolerances.  1e-6 relative is acceptance test 02's for the Riccati
# blocks and test 09's for the Jacobi ODE; 1e-8 is test 08's drift bound;
# 1e-9 is the contraction-inequality tolerance of tests 06 and the CLI.
RICCATI_TOL = 1e-6
JACOBI_ODE_TOL = 1e-6
CLOSED_FORM_TOL = 1e-12
DRIFT_TOL = 1e-8
FRAME_TOL = 1e-12
CONJUGATE_TOL = 1e-10
DET_AT_CONJUGATE_TOL = 1e-9
QUADRATURE_TOL = 1e-10
RATIO_TOL = 1e-9
SHARPNESS_MAX = 1.02
IDENTITY_TOL = 1e-10
IDENTITY_MIN_COUNT = 20
FLAT_TOL = 1e-12


# ---------------------------------------------------------------------------
# library: Monte Carlo contraction
# ---------------------------------------------------------------------------

def contraction(n: int, t: float, samples: int, mc: dict, quad: float, ref: float) -> list:
    """One Monte Carlo contraction.  ``mc`` is MonteCarloResult.to_dict(),
    ``quad`` the program's quadrature, ``ref`` the benchmark's adaptive
    quadrature of the written-out determinant."""
    errors = []
    bound = reference.bound(n, t)
    sigma = mc["std_error"]
    where = f"contraction n={n} t={t!r}"
    if not mc["ratio"] >= bound * (1.0 - 3.0 * sigma):
        errors.append(f"{where}: ratio {mc['ratio']!r} below bound*(1-3 sigma)")
    if not abs(mc["ratio"] - quad) <= 3.0 * sigma:
        errors.append(
            f"{where}: Monte Carlo {mc['ratio']!r} not within 3 sigma "
            f"({sigma!r}) of quadrature {quad!r}"
        )
    if not abs(quad - ref) <= QUADRATURE_TOL * abs(ref):
        errors.append(f"{where}: quadrature {quad!r} != reference {ref!r}")
    if mc["rejected_fraction"] != 0.0 or mc["samples_used"] != samples:
        errors.append(
            f"{where}: {mc['samples_used']} of {samples} samples used, "
            f"rejected fraction {mc['rejected_fraction']!r}"
        )
    return errors


# ---------------------------------------------------------------------------
# library: geodesic oracle
# ---------------------------------------------------------------------------

def geodesic(g: dict, out: dict) -> list:
    """One geodesic's outputs from geodesic_oracle.sweep_one."""
    b, c, n = g["b"], g["c"], g["n"]
    where = f"geodesic n={n} b={b!r} c={c!r}"
    errors = []

    eye = np.eye(2 * n - 2)
    for k, t in enumerate(out["riccati_times"]):
        F1c, f3c = out["closed"][k]
        if out["singular"][k]:
            errors.append(f"{where}: inverse Riccati singular at t={t:g}")
            continue
        err = np.max(np.abs(out["F1"][k] - F1c)) / max(1.0, np.max(np.abs(F1c)))
        if n > 1:
            err3 = np.max(np.abs(out["F3"][k] - f3c * eye)) / max(1.0, abs(f3c))
            err = max(err, err3)
        if not err <= RICCATI_TOL:
            errors.append(f"{where}: Riccati blocks off closed forms by {err:.3e} at t={t:g}")

    ref = np.array([reference.det_a(b, c, n, float(s)) for s in out["times"]])
    scale = float(np.max(np.abs(ref)))
    ode_err = float(np.max(np.abs(out["ode_det"] - ref))) / scale
    if not ode_err <= JACOBI_ODE_TOL:
        errors.append(f"{where}: Jacobi ODE det A off the formula by {ode_err:.3e}")
    cf_err = float(np.max(np.abs(out["closed_det"] - ref))) / scale
    if not cf_err <= CLOSED_FORM_TOL:
        errors.append(f"{where}: det_distortion off the formula by {cf_err:.3e}")

    drift = max(out["drift"]["speed"], out["drift"]["vertical"])
    if not drift <= DRIFT_TOL:
        errors.append(f"{where}: geodesic conservation drift {drift:.3e}")
    fb, fc = out["frame_bc"]
    if not (abs(fb - b) <= FRAME_TOL * max(1.0, abs(b))
            and abs(fc - c) <= FRAME_TOL * max(1.0, abs(c))):
        errors.append(f"{where}: adapted frame gives (b, c) = ({fb!r}, {fc!r})")

    expected = reference.conjugate_time(c)
    t_star = out["t_star"]
    if expected is None or t_star is None:
        if expected != t_star:
            errors.append(f"{where}: conjugate time {t_star!r}, expected {expected!r}")
        return errors
    if not abs(t_star - expected) <= CONJUGATE_TOL:
        errors.append(f"{where}: conjugate time {t_star!r}, expected {expected!r}")
    at = reference.det_a(b, c, n, t_star)
    ode_at = float(out["ode_det"][np.searchsorted(out["times"], t_star)])
    if not (abs(at) <= DET_AT_CONJUGATE_TOL * scale
            and abs(ode_at) <= JACOBI_ODE_TOL * scale):
        errors.append(
            f"{where}: |det A(t*)| = {abs(at):.3e} (formula), "
            f"{abs(ode_at):.3e} (ODE) at t* = {t_star!r}"
        )
    return errors


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

def usage_error(returncode: int, stderr: str) -> bool:
    """The usage-error contract: exit 2, one line on stderr, no traceback."""
    lines = [line for line in stderr.splitlines() if line.strip()]
    return returncode == 2 and len(lines) == 1 and "Traceback" not in stderr


def identical(kind: str, data: bytes, first: bytes) -> list:
    """The same flags must give a byte-identical report."""
    return [] if data == first else [f"{kind}: report differs from the first session's"]


def report(kind: str, flags: dict, data: bytes) -> list:
    """One report written by a valid invocation; ``flags`` holds the
    values the benchmark passed on the command line."""
    try:
        if kind == "density-profile":
            return _profile(flags, data.decode())
        payload = json.loads(data)
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"{kind}: unreadable report: {exc}"]
    try:
        return _REPORT_CHECKS[kind](flags, payload)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"{kind}: report lacks an expected field: {exc!r}"]


def _curvature(flags, p):
    errors = []
    ids = p["identities"]
    if p["command"] != "curvature" or p["config"]["eps"] != flags["eps"]:
        errors.append("curvature: report does not echo the flags")
    if not (ids["passed"] is True and ids["precondition_failures"] == []):
        errors.append("curvature: identity catalog did not pass")
    if len(ids["identities"]) < IDENTITY_MIN_COUNT:
        errors.append(f"curvature: only {len(ids['identities'])} identities checked")
    worst = max(r["residual"] for r in ids["identities"])
    if not (worst <= IDENTITY_TOL and all(r["passed"] for r in ids["identities"])):
        errors.append(f"curvature: worst identity residual {worst!r}")
    if p["hypotheses"]["holds"] is not True:
        errors.append("curvature: curvature hypotheses do not hold")
    if not p["tw_curvature_max_abs"] <= FLAT_TOL:
        errors.append(f"curvature: canonical curvature {p['tw_curvature_max_abs']!r} != 0")
    return errors


def _riccati(flags, p):
    errors = []
    b, c = flags["b"], flags["c"]
    times = np.linspace(0.1, 0.9, 9)
    points = p["points"]
    if len(points) != len(times) or not np.allclose(
            [q["t"] for q in points], times, rtol=0.0, atol=1e-15):
        errors.append("riccati: report times differ from the requested grid")
        return errors
    if not p["max_rel_error"] <= RICCATI_TOL:
        errors.append(f"riccati: max relative error {p['max_rel_error']!r}")
    for q in points:
        ref = reference.trace_f1(b, c, q["t"])
        for key in ("tr_F1_closed", "tr_F1_ode"):
            err = abs(q[key] - ref) / max(1.0, abs(ref))
            if not err <= RICCATI_TOL:
                errors.append(f"riccati: {key} {q[key]!r} != {ref!r} at t={q['t']!r}")
    return errors


def _conjugate(flags, p):
    expected = reference.conjugate_time(flags["c"])
    t_star = p["t_star"]
    if expected is None or t_star is None:
        ok = expected == t_star
    else:
        ok = abs(t_star - expected) <= CONJUGATE_TOL
    errors = [] if ok else [f"conjugate: t_star {t_star!r}, expected {expected!r}"]
    if p["vertical_momentum"] != 2.0 * flags["c"]:
        errors.append(f"conjugate: vertical momentum {p['vertical_momentum']!r}")
    return errors


def _mcp_scan(flags, p):
    r = p["report"]
    errors = []
    if not (r["min_ratio"] >= 1.0 - RATIO_TOL and r["ok"] is True and r["violations"] == []):
        errors.append(f"mcp-scan: min ratio {r['min_ratio']!r} with violations")
    am = r["argmin"]
    ref = reference.density(am["b"], am["c"], flags["n"], am["t"]) / reference.bound(
        flags["n"], am["t"])
    if not abs(r["min_ratio"] - ref) <= RATIO_TOL * ref:
        errors.append(f"mcp-scan: min ratio {r['min_ratio']!r} != {ref!r} at its argmin")
    return errors


def _sharpness(flags, p):
    value = p["infimum_estimate"]
    errors = []
    if not 1.0 - RATIO_TOL <= value <= SHARPNESS_MAX:
        errors.append(f"sharpness: infimum {value!r} outside [1-1e-9, {SHARPNESS_MAX}]")
    if p["exponent"] != 2 * flags["n"] + 3:
        errors.append(f"sharpness: exponent {p['exponent']!r}")
    return errors


def _contract(flags, p):
    ref = reference.contraction_ratio(
        flags["n"], flags["eps"], flags["radius"], flags["momentum"], flags["t"])
    errors = contraction(flags["n"], flags["t"], flags["samples"],
                         p["monte_carlo"], p["quadrature"], ref)
    if p["consistent_with_quadrature"] is not True or p["monte_carlo"]["passes"] is not True:
        errors.append("contract: report does not state PASS")
    return errors


def _profile(flags, text):
    rows = list(csv.reader(io.StringIO(text)))
    if rows[:1] != [["b", "c", "t", "density", "bound", "ratio"]] or len(rows) < 3:
        return ["density-profile: unexpected CSV layout"]
    b, c, n = flags["b"], flags["c"], flags["n"]
    errors = []
    values = [[float(v) for v in row] for row in rows[1:]]
    if values[0][2] != 0.0 or not abs(values[0][3] - 1.0) <= 1e-12:
        errors.append(f"density-profile: D(0) = {values[0][3]!r}")
    for _, _, t, dens, bnd, ratio in values:
        ref = reference.density(b, c, n, t)
        if not abs(dens - ref) <= 1e-10 * ref:
            errors.append(f"density-profile: D({t!r}) = {dens!r}, expected {ref!r}")
        if not (abs(bnd - reference.bound(n, t)) <= 1e-12 * bnd
                and ratio >= 1.0 - RATIO_TOL
                and math.isclose(ratio, dens / bnd, rel_tol=1e-12)):
            errors.append(f"density-profile: bound or ratio wrong at t={t!r}")
    return errors


_REPORT_CHECKS = {
    "curvature": _curvature,
    "riccati": _riccati,
    "conjugate": _conjugate,
    "mcp-scan": _mcp_scan,
    "sharpness": _sharpness,
    "contract": _contract,
}
