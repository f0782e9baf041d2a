"""Tests for geodesic flow, adapted frames, and Jacobi determinants.

Oracles for the closed-form geodesic flow: solve_ivp on the frame-matrix
right-hand side with an einsum over the connection coefficients, and the
written-out geodesic equations integrated by 30-digit mpmath.odefun.  The
closed-form det A is checked against central differences of the flow's
exponential map.
"""

import mpmath
import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import quad

from mcplab.errors import DegenerateDirectionError, DomainError
from mcplab.heisenberg import (
    GeodesicState,
    HeisenbergModel,
    adapted_frame,
    adapted_params,
    geodesic_flow,
    jacobi_determinants_from_params,
)
from mcplab.frame_algebra import (
    _jacobi_operator,
    build_heisenberg_algebra,
    curvature,
    levi_civita,
)
from mcplab.riccati import (
    RiccatiParams,
    _det_a,
    build_blocks,
    closed_forms,
    conjugate_time,
    det_distortion,
    jacobi_flow,
)


def _origin_state(model, vel):
    return GeodesicState(pos=np.zeros(model.dim), vel=np.asarray(vel, dtype=float))


def frame_matrix(model: HeisenbergModel, pos) -> np.ndarray:
    """Rows are the coordinate components of (v0, X_i, Y_i) at pos."""
    pos = np.asarray(pos, dtype=float)
    n, d = model.n, model.dim
    assert pos.shape == (d,)
    F = np.zeros((d, d))
    F[0, 2 * n] = 1.0 / model.eps
    for i in range(n):
        F[1 + i, i] = 1.0
        F[1 + i, 2 * n] = -0.5 * pos[n + i]
        F[1 + n + i, n + i] = 1.0
        F[1 + n + i, 2 * n] = 0.5 * pos[i]
    return F


def test_model_validation():
    with pytest.raises(DomainError):
        HeisenbergModel(n=0, eps=1.0)
    with pytest.raises(DomainError):
        HeisenbergModel(n=1, eps=-1.0)
    m = HeisenbergModel(n=2, eps=0.5)
    assert m.dim == 5


def test_state_validation():
    with pytest.raises(DomainError):
        GeodesicState(pos=[0.0, 0.0], vel=[1.0, 0.0])
    with pytest.raises(DomainError):
        GeodesicState(pos=[0.0, 0.0, 0.0], vel=[1.0, 0.0])
    with pytest.raises(DomainError):
        GeodesicState(pos=[0.0, np.inf, 0.0], vel=[1.0, 0.0, 0.0])


def test_frame_matrix_examples():
    m = HeisenbergModel(n=1, eps=1.0)
    F = frame_matrix(m, np.zeros(3))
    assert np.allclose(F, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    # Y_1 = d_y + (x/2) d_z at x = 2
    F = frame_matrix(m, np.array([2.0, 0.0, 0.0]))
    assert np.allclose(F[2], [0, 1, 1])
    assert np.allclose(F[1], [1, 0, 0])
    m2 = HeisenbergModel(n=1, eps=2.0)
    F = frame_matrix(m2, np.array([3.0, -1.0, 5.0]))
    assert np.allclose(F[0], [0, 0, 0.5])
    assert np.allclose(F[1], [1, 0, 0.5])  # -y/2 with y = -1
    assert np.linalg.det(frame_matrix(m2, np.array([9.0, 4.0, -2.0]))) != 0.0


def test_vertical_geodesic_is_vertical_line():
    m = HeisenbergModel(n=1, eps=2.0)
    traj = geodesic_flow(m, _origin_state(m, [1.0, 0.0, 0.0]), T=3.0)
    assert np.allclose(traj.pos[-1], [0.0, 0.0, 1.5], atol=1e-12)
    assert np.allclose(traj.vel[-1], [1.0, 0.0, 0.0], atol=1e-12)


def test_horizontal_geodesic_is_straight_line():
    m = HeisenbergModel(n=1, eps=1.0)
    traj = geodesic_flow(m, _origin_state(m, [0.0, 1.0, 0.0]), T=2.0)
    assert np.allclose(traj.pos[-1], [2.0, 0.0, 0.0], atol=1e-10)
    assert np.allclose(traj.vel[-1], [0.0, 1.0, 0.0], atol=1e-10)


def test_mixed_geodesic_conserves_speed_and_vertical():
    m = HeisenbergModel(n=2, eps=1.5)
    rng = np.random.default_rng(5)
    for _ in range(5):
        vel = rng.normal(size=5)
        traj = geodesic_flow(m, _origin_state(m, vel), T=10.0)
        drift = traj.conservation_drift()
        assert drift["speed"] <= 1e-8
        assert drift["vertical"] <= 1e-8


def test_horizontal_projection_closes_after_one_period():
    # with u_0 != 0 the horizontal projection is a circle traversed with
    # angular rate eps u_0; it closes at t = 2 pi / (eps u_0)
    m = HeisenbergModel(n=1, eps=1.0)
    traj = geodesic_flow(m, _origin_state(m, [1.0, 1.0, 0.0]), T=2 * np.pi)
    end = traj.pos[-1]
    assert abs(end[0]) < 1e-8
    assert abs(end[1]) < 1e-8
    assert end[2] > 0.1  # the vertical displacement accumulates


def test_reversibility():
    m = HeisenbergModel(n=1, eps=2.0)
    start = GeodesicState(pos=[0.2, -0.4, 1.0], vel=[0.3, 0.8, -0.5])
    fwd = geodesic_flow(m, start, T=4.0)
    end = GeodesicState(pos=fwd.pos[-1], vel=fwd.vel[-1])
    back = geodesic_flow(m, end, T=-4.0)
    assert np.max(np.abs(back.pos[-1] - start.pos)) <= 1e-8
    assert np.max(np.abs(back.vel[-1] - start.vel)) <= 1e-8


def test_flow_matches_the_frame_matrix_right_hand_side():
    # the flow is the closed-form helix; integrate u applied to
    # frame_matrix and u' = -Gamma(u, u) as einsum instead, to the same end
    rng = np.random.default_rng(3)
    for n, eps in ((1, 1.0), (2, 0.5), (3, 2.0)):
        m = HeisenbergModel(n=n, eps=eps)
        d = m.dim

        def rhs(_t, y, m=m, d=d):
            u = y[d:]
            u_dot = -np.einsum("i,j,ijk->k", u, u, m.gamma)
            return np.concatenate((u @ frame_matrix(m, y[:d]), u_dot))

        start = GeodesicState(rng.normal(size=d), rng.normal(size=d))
        traj = geodesic_flow(m, start, T=3.0)
        y0 = np.concatenate((start.pos, start.vel))
        ref = scipy.integrate.solve_ivp(rhs, (0.0, 3.0), y0, method="DOP853",
                                        rtol=1e-12, atol=1e-12)
        assert np.max(np.abs(traj.pos[-1] - ref.y[:d, -1])) <= 1e-9
        assert np.max(np.abs(traj.vel[-1] - ref.y[d:, -1])) <= 1e-9


def _mpmath_geodesic(model, start, times):
    """States at times (all of one sign) from mpmath.odefun at 30 digits,
    on the geodesic equations written out: u'_k = -Gamma^k_ij u_i u_j with
    the model's connection coefficients, (x, y)' = (u_X, u_Y) and
    z' = u_0 / eps + (x . u_Y - y . u_X) / 2.  odefun only steps forward,
    so a negative time runs the reversed field to |t|."""
    n, d = model.n, model.dim
    sign = 1 if times[0] > 0 else -1
    with mpmath.workdps(30):
        eps = mpmath.mpf(model.eps)
        gamma = [[[mpmath.mpf(float(g)) for g in row] for row in plane]
                 for plane in model.gamma]

        def field(_s, y):
            x, yy, z, u = y[:n], y[n : 2 * n], y[2 * n], y[d:]
            z_dot = u[0] / eps + (mpmath.fdot(x, u[1 + n :])
                                  - mpmath.fdot(yy, u[1 : 1 + n])) / 2
            u_dot = [-mpmath.fsum(gamma[i][j][k] * u[i] * u[j]
                                  for i in range(d) for j in range(d))
                     for k in range(d)]
            return [sign * v for v in list(u[1:]) + [z_dot] + u_dot]

        y0 = [mpmath.mpf(float(v)) for v in np.concatenate((start.pos, start.vel))]
        sol = mpmath.odefun(field, 0, y0)
        return np.array([[float(v) for v in sol(abs(mpmath.mpf(float(t))))]
                         for t in times])


def test_flow_against_mpmath_odefun():
    # endpoints and three off-grid times of the closed form against a
    # 30-digit Taylor integration of the written-out equations
    rng = np.random.default_rng(11)
    for n, eps, T in ((1, 1.0, 2.5), (2, 0.5, -3.0), (3, 2.0, 1.5)):
        m = HeisenbergModel(n=n, eps=eps)
        start = GeodesicState(rng.normal(size=m.dim), rng.normal(size=m.dim))
        traj = geodesic_flow(m, start, T=T)
        times = np.array([0.137, 0.5003, 0.861, 1.0]) * T
        ref = _mpmath_geodesic(m, start, times)
        got = np.vstack((traj._sol(times[:3]).T, np.concatenate((traj.pos[-1], traj.vel[-1]))))
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.max(np.abs(got - ref) / scale) <= 1e-12, (n, T)


def test_flow_argument_validation():
    m = HeisenbergModel(n=1, eps=1.0)
    s = _origin_state(m, [0.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        geodesic_flow(m, s, T=0.0)
    with pytest.raises(DomainError):
        geodesic_flow(m, s, T=1.0, samples=1)
    s5 = GeodesicState(pos=np.zeros(5), vel=np.ones(5))
    with pytest.raises(DomainError):
        geodesic_flow(m, s5, T=1.0)


def test_adapted_params_examples():
    m = HeisenbergModel(n=1, eps=2.0)
    p = adapted_params(m, _origin_state(m, [0.0, 1.0, 0.0]))
    assert p.b == -1.0 and p.c == 0.0
    # <velocity, V> = eps * u_0 = 2  ->  c = 1
    p = adapted_params(m, _origin_state(m, [1.0, 1.0, 0.0]))
    assert p.c == 1.0 and p.b == -1.0
    with pytest.raises(DegenerateDirectionError):
        adapted_params(m, _origin_state(m, [1.0, 0.0, 0.0]))


def test_adapted_frame_drift_and_residual():
    m = HeisenbergModel(n=1, eps=2.0)
    traj = geodesic_flow(m, _origin_state(m, [0.0, 1.0, 0.0]), T=1.0)
    af = adapted_frame(m, traj)
    assert af.b == -1.0 and af.c == 0.0
    assert np.allclose(af.W[:3, :3], [[0, 0, -1], [0, 0, 0], [1, 0, 0]])
    assert np.max(np.abs(af.W[3:, :]), initial=0.0) == 0.0
    assert af.max_residual <= 1e-7

    traj = geodesic_flow(m, _origin_state(m, [1.0, 1.0, 0.0]), T=1.0)
    af = adapted_frame(m, traj)
    assert af.c == 1.0
    assert af.max_residual <= 1e-7


def test_adapted_frame_rows_stay_orthonormal():
    m = HeisenbergModel(n=2, eps=1.0)
    vel = np.array([0.7, 0.5, -0.3, 0.2, 0.4])
    traj = geodesic_flow(m, _origin_state(m, vel), T=2.0)
    af = adapted_frame(m, traj)
    assert af.frames.shape == (len(traj.t), 5, 5)
    for Fm in af.frames[:: len(traj.t) // 10]:
        assert np.max(np.abs(Fm @ Fm.T - np.eye(5))) < 1e-9
    assert af.max_residual <= 1e-7


def test_curvature_block_is_the_jacobi_operator_in_the_adapted_frame():
    # R of riccati.build_blocks, from the reduction to (b, c), against the
    # Levi-Civita curvature tensor that frame_algebra builds from the
    # brackets: F M F^T with F the adapted frame rows at t = 0 and
    # M[i, l] = <R(e_i, u) u, e_l>
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for eps in (0.5, 2.0):
            alg, _ = build_heisenberg_algebra(n, eps)
            riem = curvature(alg, levi_civita(alg)).riem
            m = HeisenbergModel(n=n, eps=eps)
            for _ in range(24):
                state = GeodesicState(rng.normal(size=m.dim), rng.normal(size=m.dim))
                F = adapted_frame(m, geodesic_flow(m, state, T=1.0)).frames[0]
                M = _jacobi_operator(riem, state.vel)
                R = build_blocks(adapted_params(m, state)).R
                assert np.max(np.abs(F @ M @ F.T - R)) <= 1e-13 * np.max(np.abs(R))


def test_flow_overflow_raises_domain_error():
    # finite starts whose geodesics leave the float range before T
    m = HeisenbergModel(n=1, eps=1.0)
    for pos, vel, T in (
        ([0.0, 0.0, 0.0], [0.0, 1e200, 0.0], 1e200),   # x overflows
        ([0.0, 0.0, 1e308], [1e308, 0.0, 1.0], 10.0),  # z overflows
        ([1e200, 0.0, 0.0], [0.0, 0.0, 1e200], 1.0),   # Im(conj(p0) w0 E)
        ([0.0, 0.0, 0.0], [1e300, 1.0, 0.0], -1e10),   # omega t
    ):
        with pytest.raises(DomainError, match="float range"):
            geodesic_flow(m, GeodesicState(pos, vel), T=T, samples=11)


def test_jacobi_euclidean_powers():
    # b = c = 0: A(t) = t I, det = t^(2n+1)
    for n, t in ((1, 0.7), (2, 0.7)):
        det = jacobi_determinants_from_params(0.0, 0.0, [t], n=n)[0]
        assert det == pytest.approx(t ** (2 * n + 1), rel=1e-10)


def test_jacobi_initial_conditions():
    # short-time expansion A(t) = t I - t^2 W + O(t^3)
    t = 1e-3
    blocks = build_blocks(RiccatiParams(b=-1.0, c=0.5))
    A = jacobi_flow(blocks.W, blocks.R, [t])[0][0]
    W = np.array([[0, 0, -1.0], [0, 0, 0.5], [1.0, -0.5, 0]])
    assert np.max(np.abs(A - (t * np.eye(3) - t * t * W))) < 1e-8
    assert np.linalg.det(A) == pytest.approx(1e-9, rel=1e-3)


def test_jacobi_vanishes_at_conjugate_point():
    # c = pi puts the first conjugate point exactly at t = 1
    det = jacobi_determinants_from_params(0.0, np.pi, [1.0])[0]
    assert abs(det) < 1e-8


def test_jacobi_matches_closed_form_determinant():
    cases = [(-1.0, 1.0, 1), (0.0, 2.0, 1), (-0.5, -2.9, 2), (-2.0, 0.0, 3)]
    ts = np.linspace(0.1, 0.9, 9)
    for b, c, n in cases:
        params = RiccatiParams(b=b, c=c, n=n)
        dets = jacobi_determinants_from_params(b, c, ts, n=n)
        ref = det_distortion(params, ts)
        assert np.max(np.abs(dets - ref)) < 1e-8 * max(1.0, np.max(np.abs(ref)))


def test_jacobi_sign_change_across_conjugate_time():
    params = RiccatiParams(b=-1.0, c=3.5, n=1)
    tstar = conjugate_time(params)
    assert tstar is not None and tstar < 1.0
    before, after = jacobi_determinants_from_params(
        -1.0, 3.5, [tstar - 0.05, tstar + 0.05]
    )
    assert before > 0.0 > after
    # at b = 0 the zero is a touch point: positive on both sides
    params0 = RiccatiParams(b=0.0, c=3.5, n=1)
    t0 = conjugate_time(params0)
    b0, a0 = jacobi_determinants_from_params(0.0, 3.5, [t0 - 0.05, t0 + 0.05])
    assert b0 > 0.0 and a0 > 0.0


def test_jacobi_matches_exp_trace_integral():
    # d/dt log det A(t) = -(tr F1 + tr F3)(t) for the closed-form traces,
    # so det A(t)/det A(s0) = exp(-int_{s0}^t tr)
    for b, c, n in ((1.0, 1.0, 1), (-1.5, 2.0, 2)):
        params = RiccatiParams(b=b, c=c, n=n)

        def total_trace(u):
            F1, f3 = closed_forms(params, u)
            return float(np.trace(F1)) + (2 * n - 2) * f3

        s0, t1 = 0.1, 0.5
        val, err = quad(total_trace, s0, t1, limit=200)
        assert err < 1e-7
        d0, d1 = jacobi_determinants_from_params(b, c, [s0, t1], n=n)
        assert d1 / d0 == pytest.approx(np.exp(-val), rel=1e-6)


def test_jacobi_determinant_from_state_matches_params():
    m = HeisenbergModel(n=1, eps=2.0)
    p = adapted_params(m, _origin_state(m, [1.0, 1.0, 0.0]))
    det_state = jacobi_determinants_from_params(p.b, p.c, [0.6], n=p.n)[0]
    det_params = jacobi_determinants_from_params(-1.0, 1.0, [0.6], n=1)[0]
    assert det_state == pytest.approx(det_params, rel=1e-12)
    with pytest.raises(DegenerateDirectionError):
        adapted_params(m, _origin_state(m, [1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        jacobi_determinants_from_params(p.b, p.c, [-0.5], n=p.n)


def test_det_a_is_the_differential_of_the_exponential_map():
    # eps det(d pos(t) / d vel_0) of the helix is det A(t) of (b, c): eps
    # turns the vertical coordinate into the frame coefficient of v0.
    # Central differences of step 1e-6 are off by at most 1.2e-9 relative
    # on these 48 states.  det A is even in b and c, so this oracle sees a
    # wrong factor in adapted_params but not a wrong sign.
    rng = np.random.default_rng(13)
    t, h = 0.9, 1e-6
    for n in (1, 2, 3):
        for eps in (0.5, 2.0):
            m = HeisenbergModel(n=n, eps=eps)
            for _ in range(8):
                pos, vel = rng.normal(size=(2, m.dim))
                # |c t| = eps |u_0| t / 2 <= 1.8, well below pi
                vel[0] = rng.uniform(-4.0, 4.0) / eps
                columns = [
                    (geodesic_flow(m, GeodesicState(pos, vel + h * e), T=t).pos[-1]
                     - geodesic_flow(m, GeodesicState(pos, vel - h * e), T=t).pos[-1])
                    / (2 * h)
                    for e in np.eye(m.dim)
                ]
                p = adapted_params(m, GeodesicState(pos, vel))
                det_a = float(_det_a(p.b, p.c, n, t))
                got = eps * np.linalg.det(np.array(columns).T)
                assert got == pytest.approx(det_a, rel=1e-8), (n, eps)
