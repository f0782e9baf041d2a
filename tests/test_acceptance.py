"""Acceptance checklist: one test per verification contract.

Each test evaluates its criterion at the pinned tolerance, prints exactly
one [PASS]/[FAIL] line with the measured numbers (through capture, so the
checklist is always visible in the run log), and asserts the result.
Runtime limits are asserted where the contract states one.
"""

from time import perf_counter

import numpy as np
from scipy.integrate import quad

from mcplab.frame_algebra import (
    build_heisenberg_algebra,
    check_main_hypotheses,
    curvature,
    levi_civita,
    tanaka_webster,
    verify_structure_identities,
)
from mcplab.heisenberg import (
    GeodesicState,
    HeisenbergModel,
    adapted_params,
    geodesic_flow,
    jacobi_determinants_from_params,
)
from mcplab.mcp import (
    VelocitySet,
    mcp_scan,
    monte_carlo_contraction,
    quadrature_contraction,
    sharpness_scan,
)
from mcplab.riccati import (
    RiccatiParams,
    _f1_pieces,
    build_blocks,
    closed_forms,
    conjugate_time,
    integrate_inverse_riccati,
)


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_01_structure_identity_suite(capsys):
    """Identity catalog and canonical-connection flatness over the full
    (n, eps) matrix, with the dual Ricci reading reported but not graded."""
    start = perf_counter()
    worst = 0.0
    flat = 0.0
    all_passed = True
    count = None
    ricci = None
    for n in (1, 2, 3):
        for eps in (0.5, 1.0, 2.0, 4.0):
            alg, cs = build_heisenberg_algebra(n, eps)
            lc = levi_civita(alg)
            tw = tanaka_webster(alg, cs, lc)
            curv_lc = curvature(alg, lc)
            curv_tw = curvature(alg, tw)
            rep = verify_structure_identities(
                alg, cs, lc, tw, curv_lc, curv_tw, tol=1e-10
            )
            all_passed &= rep.passed and not rep.precondition_failures
            worst = max(worst, max(r.residual for r in rep.identities))
            flat = max(flat, float(np.max(np.abs(curv_tw.riem))))
            count = len(rep.identities)
            if n == 1 and eps == 2.0:
                ricci = rep.ricci_comparison
    elapsed = perf_counter() - start
    ok = (
        all_passed
        and count >= 20
        and worst <= 1e-10
        and flat <= 1e-12
        and elapsed < 5.0
    )
    _report(
        capsys,
        "1 identity suite",
        ok,
        f"12 builds x {count} identities, worst residual {worst:.2e} "
        f"(tol 1e-10), canonical curvature max {flat:.2e} (tol 1e-12), "
        f"ricci dual reading printed {ricci['printed']:+.3f} vs traced "
        f"{ricci['traced']:+.3f} (reported, not graded), "
        f"{elapsed:.1f}s (< 5s)",
    )


def test_02_riccati_closed_form_vs_ode(capsys):
    """Closed-form blocks against inverse-Riccati integration on a
    20 x 20 x 9 grid; agreement is relative to the block scale."""
    start = perf_counter()
    b_values = np.linspace(0.0, 4.0, 20)
    c_values = np.linspace(-3.0, 3.0, 22)[1:-1]
    t_values = np.linspace(0.1, 0.9, 9)
    grid = np.concatenate(([0.0], t_values))
    eye3 = np.eye(2)
    worst = 0.0
    for b in b_values:
        for c in c_values:
            params = RiccatiParams(b=float(b), c=float(c), n=2)
            sol = integrate_inverse_riccati(params, build_blocks(params), grid)
            for k, t in enumerate(t_values, start=1):
                F1c, f3c = closed_forms(params, float(t))
                err1 = float(np.max(np.abs(sol.F1[k] - F1c)))
                err1 /= max(1.0, float(np.max(np.abs(F1c))))
                err3 = float(np.max(np.abs(sol.F3[k] - f3c * eye3)))
                err3 /= max(1.0, abs(f3c))
                worst = max(worst, err1, err3)
    elapsed = perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(
        capsys,
        "2 riccati oracle equivalence",
        ok,
        f"20x20x9 grid (n=2), max relative deviation {worst:.2e} "
        f"(tol 1e-6), {elapsed:.1f}s (< 60s)",
    )


def _trace_grids():
    """t tr F1(1 - t) and x cot x (x = ct) of the closed forms over the
    (b, c, t) grid, and the grid axes."""
    b = np.concatenate(([0.0], np.geomspace(1e-2, 1e3, 60)))
    # odd count puts c = 0 on the grid, where the first-block bound is
    # nearly attained at large b and t = 1
    c = np.linspace(-(np.pi - 1e-3), np.pi - 1e-3, 61)
    t = np.linspace(0.02, 1.0, 50)
    f00, _, _, f11, _, f22, xc, _ = _f1_pieces(
        b[:, None, None], c[None, :, None], t[None, None, :]
    )
    return t * (f00 + f11 + f22), xc, (b, c, t)


def test_03_first_block_trace_bound(capsys):
    q1, _, axes = _trace_grids()
    i = np.unravel_index(int(np.argmin(q1)), q1.shape)
    least = float(q1[i])
    near = least <= -4.99
    bm, cm, tm = (float(axis[k]) for axis, k in zip(axes, i))
    # the infimum -5 is approached at large b, small |c| and t = 1
    ok = least >= -5.0 - 1e-9 and near and (bm, tm) == (1e3, 1.0) and abs(cm) < 0.25
    _report(
        capsys,
        "3 trace bound, oscillating block",
        ok,
        f"min t*trF1 = {least:.9f} >= -5-1e-9 at "
        f"(b={bm:g}, c={cm:g}, t={tm:g}); near-attainment <= -4.99: {near}",
    )


def test_04_parallel_block_trace_bound(capsys):
    # t tr F3(1 - t) = -(2n - 2) x cot x
    _, xc, _ = _trace_grids()
    mins = {}
    ok = True
    for n in (2, 3):
        mins[n] = float(np.min(-(2 * n - 2) * xc))
        ok &= mins[n] >= -(2 * n - 2) - 1e-9
    _report(
        capsys,
        "4 trace bound, parallel block",
        ok,
        f"min t*trF3 = {mins[2]:.9f} >= -2-1e-9 (n=2), "
        f"{mins[3]:.9f} >= -4-1e-9 (n=3)",
    )


def test_05_conjugate_time_classification(capsys):
    """Conjugate times exist below 1 exactly when the vertical scalar
    leaves [-pi, pi]; inside, none occur for any horizontal size.

    conjugate_time is the formula pi/|c|, so the independent route is the
    Jacobi flow's det A: positive below t*, zero at t* (a touch point at
    b = 0), and positive on (0, 1] over the grid where none is reported."""
    found = {}
    flow_ok = True
    worst_at_star = 0.0
    for b in (0.0, 2.0):
        for c in (np.pi + 0.01, 3.5, 6.0):
            t_star = conjugate_time(RiccatiParams(b=b, c=float(c)))
            if b == 0.0:
                found[c] = t_star
            if t_star is None:
                flow_ok = False
                continue
            below = np.linspace(0.02, 0.98, 49) * t_star
            dets = jacobi_determinants_from_params(b, c, np.append(below, t_star))
            scale = float(np.max(np.abs(dets)))
            flow_ok &= bool(np.all(dets[:-1] > 0.0))
            worst_at_star = max(worst_at_star, abs(float(dets[-1])) / scale)
    exist_ok = all(v is not None and v < 1.0 for v in found.values())
    spurious = 0
    nonpositive = 0
    times = np.linspace(0.02, 1.0, 50)
    for b in np.concatenate(([0.0], np.geomspace(1e-1, 1e3, 8))):
        for c in np.linspace(-(np.pi - 1e-3), np.pi - 1e-3, 9):
            if conjugate_time(RiccatiParams(b=float(b), c=float(c))) is not None:
                spurious += 1
            dets = jacobi_determinants_from_params(float(b), float(c), times)
            nonpositive += int(np.count_nonzero(dets <= 0.0))
    ok = (
        exist_ok
        and spurious == 0
        and flow_ok
        and worst_at_star <= 1e-6
        and nonpositive == 0
    )
    _report(
        capsys,
        "5 conjugate-point classification",
        ok,
        f"t* = {found[np.pi + 0.01]:.4f}/{found[3.5]:.4f}/{found[6.0]:.4f} "
        f"< 1 for |c| > pi; flow det A > 0 below t* ({flow_ok}), "
        f"|det A(t*)| <= {worst_at_star:.2e} x scale (tol 1e-6, b = 0 and 2); "
        f"{spurious} spurious conjugate points and {nonpositive} flow "
        f"det A <= 0 on (0, 1] over 9x9 (b, c) grid with |c| <= pi - 1e-3",
    )


def test_06_contraction_inequality_and_sharpness(capsys):
    start = perf_counter()
    mins = {}
    ok = True
    for n in (1, 2, 3):
        rep = mcp_scan(n)
        mins[n] = rep.min_ratio
        ok &= rep.ok and not rep.violations
    sharp = {t: sharpness_scan(1, t) for t in (0.3, 0.5, 0.9)}
    sharp_ok = all(1.0 - 1e-9 <= v <= 1.02 for v in sharp.values())
    elapsed = perf_counter() - start
    ok = ok and sharp_ok and elapsed < 120.0
    _report(
        capsys,
        "6 contraction inequality",
        ok,
        f"scan min ratios {mins[1]:.6f}/{mins[2]:.6f}/{mins[3]:.6f} "
        f">= 1-1e-9 (n=1/2/3), sharpness "
        + "/".join(f"{sharp[t]:.6f}" for t in (0.3, 0.5, 0.9))
        + f" <= 1.02, {elapsed:.1f}s (< 120s)",
    )


def test_07_monte_carlo_contraction(capsys):
    start = perf_counter()
    model = HeisenbergModel(n=1, eps=2.0)
    spec = VelocitySet(horizontal_radius=2.0, vertical_momentum=5.0)
    x0 = np.zeros(3)
    details = []
    ok = True
    for t in (0.3, 0.5):
        res = monte_carlo_contraction(
            model, x0, spec, t=t, samples=100_000, seed=0
        )
        ref = quadrature_contraction(model, spec, t=t)
        agree = abs(res.ratio - ref) <= 3.0 * res.std_error
        ok &= res.passes and agree
        details.append(
            f"t={t}: {res.ratio:.5f}+-{res.std_error:.1e} "
            f"(bound {res.bound:.5f}, quadrature {ref:.5f})"
        )
    elapsed = perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(
        capsys,
        "7 Monte Carlo contraction",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s (< 60s)",
    )


def test_08_geodesic_conservation(capsys):
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(100):
        n = 1 + i % 2
        eps = (0.5, 1.0, 2.0, 4.0)[i % 4]
        model = HeisenbergModel(n=n, eps=eps)
        state = GeodesicState(
            pos=rng.normal(size=model.dim), vel=rng.normal(size=model.dim)
        )
        traj = geodesic_flow(model, state, 10.0)
        drift = traj.conservation_drift()
        worst = max(worst, drift["speed"], drift["vertical"])
    ok = worst <= 1e-8
    _report(
        capsys,
        "8 geodesic conservation",
        ok,
        f"max drift of speed and vertical momentum {worst:.2e} "
        f"(tol 1e-8) over 100 random states, T=10",
    )


def _det_along(model, state, t):
    """det A(t) of the Jacobi flow along the geodesic through state."""
    p = adapted_params(model, state)
    return float(jacobi_determinants_from_params(p.b, p.c, [t], n=p.n)[0])


def test_09_jacobi_riccati_cross_check(capsys):
    model = HeisenbergModel(n=1, eps=2.0)

    # vanishing at the conjugate time
    state = GeodesicState(pos=np.zeros(3), vel=np.array([3.5, 0.4, 0.0]))
    params = adapted_params(model, state)
    t_star = conjugate_time(params)
    det_star = _det_along(model, state, t_star)
    vanish_ok = t_star is not None and abs(det_star) <= 1e-6

    # det ratio equals the exponential of the integrated trace where
    # the flow is regular
    state2 = GeodesicState(pos=np.zeros(3), vel=np.array([1.2, 1.0, 0.0]))
    params2 = adapted_params(model, state2)
    s0 = 0.2
    d0 = _det_along(model, state2, s0)
    worst = 0.0
    for t in (0.5, 0.8):
        dt = _det_along(model, state2, t)
        integral, int_err = quad(
            lambda u: float(np.trace(closed_forms(params2, u)[0])),
            s0,
            t,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        assert int_err < 1e-9
        expected = np.exp(-integral)
        worst = max(worst, abs(dt / d0 - expected) / expected)
    ratio_ok = worst <= 1e-6

    ok = vanish_ok and ratio_ok
    _report(
        capsys,
        "9 Jacobi determinant vs Riccati trace",
        ok,
        f"|det A(t*)| = {abs(det_star):.2e} at t* = {t_star:.6f} "
        f"(tol 1e-6); det ratio vs exp(-integral of trace) off by "
        f"{worst:.2e} (tol 1e-6 relative)",
    )
