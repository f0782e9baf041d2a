"""Tests for geodesic flow, adapted frames, and Jacobi determinants."""

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import quad

from mcplab.errors import DegenerateDirectionError, DomainError, IntegrationError
from mcplab.heisenberg import (
    GeodesicState,
    HeisenbergModel,
    adapted_frame,
    adapted_params,
    frame_matrix,
    geodesic_flow,
    jacobi_determinant,
    jacobi_determinants_from_params,
    jacobi_matrices_from_params,
)
from mcplab.riccati import RiccatiParams, closed_forms, conjugate_time, det_distortion


def _origin_state(model, vel):
    return GeodesicState(pos=np.zeros(model.dim), vel=np.asarray(vel, dtype=float))


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
    end = traj.at(3.0)
    assert np.allclose(end.pos, [0.0, 0.0, 1.5], atol=1e-12)
    assert np.allclose(end.vel, [1.0, 0.0, 0.0], atol=1e-12)


def test_horizontal_geodesic_is_straight_line():
    m = HeisenbergModel(n=1, eps=1.0)
    traj = geodesic_flow(m, _origin_state(m, [0.0, 1.0, 0.0]), T=2.0)
    end = traj.at(2.0)
    assert np.allclose(end.pos, [2.0, 0.0, 0.0], atol=1e-10)
    assert np.allclose(end.vel, [0.0, 1.0, 0.0], atol=1e-10)


def test_mixed_geodesic_conserves_speed_and_vertical():
    m = HeisenbergModel(n=2, eps=1.5)
    rng = np.random.default_rng(5)
    for _ in range(5):
        vel = rng.normal(size=5)
        traj = geodesic_flow(m, _origin_state(m, vel), T=10.0, tol=1e-10)
        drift = traj.conservation_drift()
        assert drift["speed"] <= 1e-8
        assert drift["vertical"] <= 1e-8


def test_horizontal_projection_closes_after_one_period():
    # with u_0 != 0 the horizontal projection is a circle traversed with
    # angular rate eps u_0; it closes at t = 2 pi / (eps u_0)
    m = HeisenbergModel(n=1, eps=1.0)
    traj = geodesic_flow(m, _origin_state(m, [1.0, 1.0, 0.0]), T=2 * np.pi)
    end = traj.at(2 * np.pi)
    assert abs(end.pos[0]) < 1e-8
    assert abs(end.pos[1]) < 1e-8
    assert end.pos[2] > 0.1  # the vertical displacement accumulates


def test_reversibility():
    m = HeisenbergModel(n=1, eps=2.0)
    start = GeodesicState(pos=[0.2, -0.4, 1.0], vel=[0.3, 0.8, -0.5])
    fwd = geodesic_flow(m, start, T=4.0, tol=1e-10)
    end = fwd.at(4.0)
    back = geodesic_flow(m, end, T=-4.0, tol=1e-10)
    again = back.at(-4.0)
    assert np.max(np.abs(again.pos - start.pos)) <= 1e-8
    assert np.max(np.abs(again.vel - start.vel)) <= 1e-8


def test_flow_matches_the_frame_matrix_right_hand_side():
    # the flow writes the position derivative out; integrate u applied to
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
        traj = geodesic_flow(m, start, T=3.0, tol=1e-12)
        y0 = np.concatenate((start.pos, start.vel))
        ref = scipy.integrate.solve_ivp(rhs, (0.0, 3.0), y0, method="DOP853",
                                        rtol=1e-12, atol=1e-12)
        assert np.max(np.abs(traj.pos[-1] - ref.y[:d, -1])) <= 1e-9
        assert np.max(np.abs(traj.vel[-1] - ref.y[d:, -1])) <= 1e-9


def test_flow_argument_validation():
    m = HeisenbergModel(n=1, eps=1.0)
    s = _origin_state(m, [0.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        geodesic_flow(m, s, T=0.0)
    with pytest.raises(DomainError):
        geodesic_flow(m, s, T=1.0, tol=-1.0)
    with pytest.raises(DomainError):
        geodesic_flow(m, s, T=1.0, samples=1)
    s5 = GeodesicState(pos=np.zeros(5), vel=np.ones(5))
    with pytest.raises(DomainError):
        geodesic_flow(m, s5, T=1.0)
    traj = geodesic_flow(m, s, T=1.0)
    with pytest.raises(DomainError):
        traj.at(1.5)


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
    traj = geodesic_flow(m, _origin_state(m, [0.0, 1.0, 0.0]), T=1.0, tol=1e-10)
    af = adapted_frame(m, traj)
    assert af.b == -1.0 and af.c == 0.0
    assert np.allclose(af.W[:3, :3], [[0, 0, -1], [0, 0, 0], [1, 0, 0]])
    assert np.max(np.abs(af.W[3:, :]), initial=0.0) == 0.0
    assert af.max_residual <= 1e-7

    traj = geodesic_flow(m, _origin_state(m, [1.0, 1.0, 0.0]), T=1.0, tol=1e-10)
    af = adapted_frame(m, traj)
    assert af.c == 1.0
    assert af.max_residual <= 1e-7


def test_adapted_frame_rows_stay_orthonormal():
    m = HeisenbergModel(n=2, eps=1.0)
    vel = np.array([0.7, 0.5, -0.3, 0.2, 0.4])
    traj = geodesic_flow(m, _origin_state(m, vel), T=2.0, tol=1e-10)
    af = adapted_frame(m, traj)
    assert af.frames.shape == (len(traj.t), 5, 5)
    for Fm in af.frames[:: len(traj.t) // 10]:
        assert np.max(np.abs(Fm @ Fm.T - np.eye(5))) < 1e-9
    assert af.max_residual <= 1e-7


def test_flow_failure_raises_integration_error(monkeypatch):
    m = HeisenbergModel(n=1, eps=1.0)
    start = _origin_state(m, [0.0, 1.0, 0.0])
    real = scipy.integrate.solve_ivp

    def stalls(*args, **kwargs):
        sol = real(*args, **kwargs)
        keep = sol.t <= 0.4
        sol.t, sol.y = sol.t[keep], sol.y[:, keep]
        sol.success, sol.status, sol.message = False, -1, "step size too small"
        return sol

    monkeypatch.setattr(scipy.integrate, "solve_ivp", stalls)
    with pytest.raises(IntegrationError) as exc:
        geodesic_flow(m, start, T=1.0, samples=11)
    assert exc.value.last_good_time == pytest.approx(0.4)
    assert "step size too small" in str(exc.value)


def test_jacobi_euclidean_powers():
    # b = c = 0: A(t) = t I, det = t^(2n+1)
    for n, t in ((1, 0.7), (2, 0.7)):
        det = jacobi_determinants_from_params(0.0, 0.0, [t], n=n)[0]
        assert det == pytest.approx(t ** (2 * n + 1), rel=1e-10)


def test_jacobi_initial_conditions():
    # short-time expansion A(t) = t I - t^2 W + O(t^3)
    t = 1e-3
    A = jacobi_matrices_from_params(-1.0, 0.5, t)[0]
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
    start = _origin_state(m, [1.0, 1.0, 0.0])
    det_state = jacobi_determinant(m, start, 0.6)
    det_params = jacobi_determinants_from_params(-1.0, 1.0, [0.6], n=1)[0]
    assert det_state == pytest.approx(det_params, rel=1e-12)
    with pytest.raises(DegenerateDirectionError):
        jacobi_determinant(m, _origin_state(m, [1.0, 0.0, 0.0]), 0.5)
    with pytest.raises(DomainError):
        jacobi_determinant(m, start, -0.5)
