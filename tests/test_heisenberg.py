"""Tests for geodesic flow, adapted frames, and Jacobi determinants.

Oracles for the closed-form geodesic flow: solve_ivp on the frame-matrix
right-hand side with an einsum over the connection coefficients, and the
written-out geodesic equations integrated by 30-digit mpmath.odefun.  The
closed-form det A is checked against central differences of the flow's
exponential map.
"""

import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mcplab.errors import DegenerateDirectionError, DomainError
from mcplab.heisenberg import (
    _FLOW_SAMPLES,
    GeodesicState,
    HeisenbergModel,
    Trajectory,
    _helix,
    _helix_det,
    _helix_kernels,
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
from mcplab.scalars import _SERIES_CUT


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
    # |w_0|^2 past float64 range, |w_0| inside it: still the line t w_0
    # with z = 0, to the bit (|w_0|^2 x S(x) is taken rescaled at x = 0)
    traj = geodesic_flow(m, _origin_state(m, [0.0, 1e200, 1e200]), T=2.0)
    assert np.array_equal(traj.pos, traj.t[:, None] * [1e200, 1e200, 0.0])
    assert np.array_equal(traj.vel, np.tile([0.0, 1e200, 1e200], (len(traj.t), 1)))


def test_mixed_geodesic_conserves_speed_and_vertical():
    m = HeisenbergModel(n=2, eps=1.5)
    rng = np.random.default_rng(5)
    for _ in range(5):
        vel = rng.normal(size=5)
        traj = geodesic_flow(m, _origin_state(m, vel), T=10.0)
        drift = traj.conservation_drift()
        assert drift["speed"] <= 1e-8
        assert drift["vertical"] <= 1e-8


def test_conservation_drift_past_squared_overflow():
    # entries from about 1.3e154 square past float64 range, and entries
    # below about 1.5e-154 below its normal range; the speeds are then
    # taken from the velocities scaled by a power of two, so finite speeds
    # give a finite drift with no warning.  Scaling the velocities by 2^k
    # scales the drift by 2^k to the bit, overflow, underflow or not, and rows
    # whose speed alone leaves float64 range still drift by 0
    vel = np.array([[0.5, 3.0, 4.0], [0.5, 3.0, 4.0], [0.25, 3.0, 4.5], [0.5, 4.0, 3.0]])
    t, pos = np.linspace(0.0, 1.0, 4), np.zeros((4, 3))
    base = Trajectory(t=t, pos=pos, vel=vel).conservation_drift()
    assert base == {"speed": np.sqrt(29.3125) - np.sqrt(25.25), "vertical": 0.25}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-1000, -600, -500, 0, 500, 600, 1000):
            traj = Trajectory(t=t, pos=pos, vel=np.ldexp(vel, k))
            assert traj.conservation_drift() == {key: np.ldexp(v, k) for key, v in base.items()}
        traj = Trajectory(t=np.linspace(0.0, 1.0, 3), pos=np.zeros((3, 3)),
                          vel=np.full((3, 3), 1.7e308))
        assert traj.conservation_drift() == {"speed": 0.0, "vertical": 0.0}


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
        off_grid = np.hstack(_helix(m.eps, start.pos, start.vel, times[:3]))
        got = np.vstack((off_grid, np.concatenate((traj.pos[-1], traj.vel[-1]))))
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.max(np.abs(got - ref) / scale) <= 1e-12, (n, T)


def test_flow_argument_validation():
    m = HeisenbergModel(n=1, eps=1.0)
    s = _origin_state(m, [0.0, 1.0, 0.0])
    for T in (0.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            geodesic_flow(m, s, T=T)
    traj = geodesic_flow(m, s, T=-2.0)
    assert len(traj.t) == _FLOW_SAMPLES
    assert traj.t[0] == 0.0 and traj.t[-1] == -2.0
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
    # a speed whose square overflows (from 1.3e154) is that of the velocity
    # scaled by 2^-k, scaled back to the bit; one past float64 range is refused
    for vel in ([0.0, 1e200, 1e200], [3e160, -1e200, 2e199], [-1e300, 0.0, 2e299]):
        k = int(np.frexp(np.max(np.abs(vel)))[1])
        p, ref = (adapted_params(m, _origin_state(m, np.ldexp(vel, j))) for j in (0, -k))
        assert (p.b, p.c) == (np.ldexp(ref.b, k), np.ldexp(ref.c, k))
    with pytest.raises(DomainError, match="leaves float64 range"):
        adapted_params(m, _origin_state(m, [0.0, 1.7e308, 1.7e308]))


def _frame_bound(af):
    # the frame and its derivative are exact up to rounding, so the
    # residual is a few ulps of the drift's scale
    return 1e-13 * max(1.0, np.max(np.abs(af.W)))


def test_adapted_frame_drift_and_residual():
    m = HeisenbergModel(n=1, eps=2.0)
    traj = geodesic_flow(m, _origin_state(m, [0.0, 1.0, 0.0]), T=1.0)
    af = adapted_frame(m, traj)
    assert af.b == -1.0 and af.c == 0.0
    assert np.allclose(af.W[:3, :3], [[0, 0, -1], [0, 0, 0], [1, 0, 0]])
    assert np.max(np.abs(af.W[3:, :]), initial=0.0) == 0.0
    assert af.max_residual <= _frame_bound(af)

    traj = geodesic_flow(m, _origin_state(m, [1.0, 1.0, 0.0]), T=1.0)
    af = adapted_frame(m, traj)
    assert af.c == 1.0
    assert af.max_residual <= _frame_bound(af)


def test_adapted_frame_rows_stay_orthonormal():
    m = HeisenbergModel(n=2, eps=1.0)
    vel = np.array([0.7, 0.5, -0.3, 0.2, 0.4])
    for T in (2.0, -2.0):
        traj = geodesic_flow(m, _origin_state(m, vel), T=T)
        af = adapted_frame(m, traj)
        assert af.frames.shape == (len(traj.t), 5, 5)
        gram = af.frames @ af.frames.transpose(0, 2, 1)
        assert np.max(np.abs(gram - np.eye(5))) < 1e-14, T
        assert af.max_residual <= _frame_bound(af), T


def test_adapted_frame_fails_on_a_wrong_trajectory():
    # the frame is the model's; the trajectory is what it is checked
    # against.  A geodesic of another eps turns at another rate.
    m = HeisenbergModel(n=1, eps=1.0)
    state = _origin_state(m, [1.0, 0.6, -0.8])
    other = geodesic_flow(HeisenbergModel(n=1, eps=1.5), state, T=1.0)
    assert adapted_frame(m, other).max_residual > 1e-3
    af = adapted_frame(m, geodesic_flow(m, state, T=1.0))
    assert af.max_residual <= _frame_bound(af)
    # a horizontal velocity that vanishes later has no direction for v1:
    # the residual is NaN, never small, although at |u_H| = 1e-5 the drift
    # is off by only |b| = 5e-6 there
    traj = geodesic_flow(m, _origin_state(m, [1.0, 6e-6, -8e-6]), T=1.0)
    traj.vel[-1, 1:] = 0.0
    assert not adapted_frame(m, traj).max_residual <= 1e-3


def test_adapted_frame_past_float64_range_warns_nothing():
    # a finite trajectory whose drift leaves float64 range has a NaN
    # residual; a start whose squared speed does has the frame of the
    # velocities scaled by 2^-k, to the bit, and a start whose speed does
    # is refused with DomainError (it is no vertical velocity), none of
    # them with a warning
    t, pos = np.linspace(0.0, 1.0, 5), np.zeros((5, 3))
    vel = np.tile([0.0, 1.0, 1.0], (5, 1))
    vel[1:] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        af = adapted_frame(HeisenbergModel(1, 1e50), Trajectory(t=t, pos=pos, vel=vel))
        assert np.isnan(af.max_residual)
        m = HeisenbergModel(1, 1.0)
        for vel in ([0.0, 1e200, 1e200], [0.0, 1e200, -3e199]):
            k = int(np.frexp(1e200)[1])
            fast = adapted_frame(m, Trajectory(t=t, pos=pos, vel=np.tile(vel, (5, 1))))
            slow = Trajectory(t=t, pos=pos, vel=np.tile(np.ldexp(vel, -k), (5, 1)))
            assert fast.frames.tobytes() == adapted_frame(m, slow).frames.tobytes()
            assert fast.max_residual <= _frame_bound(fast)
        huge = Trajectory(t=t, pos=pos, vel=np.tile([0.0, 1.7e308, 1.7e308], (5, 1)))
        with pytest.raises(DomainError) as err:
            adapted_frame(m, huge)
        assert type(err.value) is DomainError


def _flip_c(W):
    W = W.copy()
    W[1, 2], W[2, 1] = -W[1, 2], -W[2, 1]
    return W


@pytest.mark.parametrize("mutate", [lambda W: -W, _flip_c, lambda W: 1.01 * W])
def test_adapted_frame_fails_on_a_wrong_drift(monkeypatch, mutate):
    import mcplab.heisenberg as heisenberg

    def wrong(params):
        blocks = build_blocks(params)
        return type(blocks)(W=mutate(blocks.W), R=blocks.R)

    monkeypatch.setattr(heisenberg, "build_blocks", wrong)
    m = HeisenbergModel(n=2, eps=2.0)
    state = _origin_state(m, [0.5, 0.9, -0.4, 0.3, 0.2])  # b = -1.05, c = 0.5
    assert adapted_frame(m, geodesic_flow(m, state, T=1.0)).max_residual > 1e-3


def test_curvature_block_is_the_jacobi_operator_in_the_adapted_frame():
    # R of riccati.build_blocks, from the reduction to (b, c), against the
    # Levi-Civita curvature tensor that frame_algebra builds from the
    # brackets: F M F^T with F the adapted frame rows at a trajectory time
    # and M[i, l] = <R(e_i, u) u, e_l> at that time's velocity, for
    # geodesics run both ways
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 5):
        for eps in (0.5, 2.0):
            alg, _ = build_heisenberg_algebra(n, eps)
            op = curvature(alg, levi_civita(alg)).operator
            m = HeisenbergModel(n=n, eps=eps)
            for T in (1.0, -1.5) * 12:
                state = GeodesicState(rng.normal(size=m.dim), rng.normal(size=m.dim))
                traj = geodesic_flow(m, state, T=T)
                af = adapted_frame(m, traj)
                assert af.max_residual <= _frame_bound(af), (n, eps, T)
                R = build_blocks(adapted_params(m, state)).R
                for k in (0, 100, 200):
                    F = af.frames[k]
                    M = _jacobi_operator(op, alg.metric, traj.vel[k])
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
            geodesic_flow(m, GeodesicState(pos, vel), T=T)


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


def _kernels_and_slopes(x):
    """(h, S, h', (x S)'): the helix's kernels and the slopes that
    _helix_det forms from their sine-cosine pair (s, c) of x / 2,
    h' = x c S - h^2 s / 2 and (x S)' = h^2 / 2 - 2 S."""
    h, S, s, c = _helix_kernels(x)
    half = 0.5 * h * h
    return h, S, x * c * S - half * s, half - 2.0 * S


def _helix_jacobian(eps, vel, t):
    """d pos(t) / d vel of the helix from the origin in the direction of
    vel, rows (x, y, z) and columns (u_0, u_X, u_Y), assembled entry by
    entry from _kernels_and_slopes, with g'(x) = e^{ix/2} (h' + i h / 2)."""
    n = len(vel) // 2
    u0, w = vel[0], vel[1 : 1 + n] + 1j * vel[1 + n :]
    x = eps * u0 * t
    h, S, dh, dxs = _kernels_and_slopes(x)
    E = t * np.exp(0.5j * x) * h
    wD = w * eps * t * t * np.exp(0.5j * x) * (dh + 0.5j * h)
    eye = np.eye(n)
    M = np.zeros((2 * n + 1, 2 * n + 1))
    M[:n, 1 : 1 + n], M[:n, 1 + n :] = E.real * eye, -E.imag * eye
    M[n : 2 * n, 1 : 1 + n], M[n : 2 * n, 1 + n :] = E.imag * eye, E.real * eye
    M[:n, 0], M[n : 2 * n, 0] = wD.real, wD.imag
    M[2 * n, 1:] = t * t * x * S * vel[1:]
    M[2 * n, 0] = t / eps + 0.5 * np.vdot(w, w).real * eps * t**3 * dxs
    return M


def test_helix_det_is_the_determinant_of_the_helix_jacobian():
    # the Schur complement in _helix_det against np.linalg.det of the full
    # analytic Jacobian in random directions w_0 (so the U(n) symmetry is
    # checked, not assumed), and that Jacobian entry by entry against
    # central differences of _helix; at a random start point the
    # differences' determinant is the same (left translations have unit
    # Jacobian).  Measured: 2.7e-15 relative for the analytic determinant;
    # the differences of step 1e-6 are off by 1.5e-9 of the largest entry
    # and by 4.2e-9 relative in the determinant
    rng = np.random.default_rng(17)
    step = 1e-6
    for n in (1, 2, 3):
        d = 2 * n + 1
        for eps in (0.5, 2.0):
            for _ in range(6):
                vel = rng.normal(size=d)
                vel[0] = rng.uniform(-6.0, 6.0) / eps
                t = rng.uniform(0.05, 1.0)
                M = _helix_jacobian(eps, vel, t)
                det = _helix_det(eps, n, vel[0], vel[1:] @ vel[1:], t)
                assert np.linalg.det(M) == pytest.approx(det, rel=1e-12), (n, eps)
                for pos, check in ((np.zeros(d), True), (rng.normal(size=d), False)):
                    fd = np.array([
                        _helix(eps, pos, vel + step * e, np.array([t]))[0, 0]
                        - _helix(eps, pos, vel - step * e, np.array([t]))[0, 0]
                        for e in np.eye(d)
                    ]).T / (2 * step)
                    if check:
                        assert np.max(np.abs(fd - M)) <= 1e-8 * np.max(np.abs(M))
                    assert np.linalg.det(fd) == pytest.approx(det, rel=1e-8)


def _kernel_points():
    """x in [-2 pi, 2 pi], small |x|, the series cut and its neighbours
    one ulp away on either side."""
    cut = [_SERIES_CUT, np.nextafter(_SERIES_CUT, 0.0), np.nextafter(_SERIES_CUT, 1.0)]
    return np.concatenate((
        np.linspace(-2 * np.pi, 2 * np.pi, 401),
        [0.0, 1e-300, 5e-324, 1e-12, 1e-8, 1e-4, 0.05, 0.2999, 0.3001, 1.0],
        [-1e-12, -1e-4, -0.3001], cut, np.negative(cut),
    ))


def test_helix_slopes_against_mpmath():
    # the slopes of g = e^{ix/2} sinc(x/2) and of x S(x), as _helix_det
    # forms them from _helix_kernels, against 40-digit mpmath: g' = -x sxc(x) +
    # i (sinc x - sinc(x/2)^2 / 2), whose parts the test forms from
    # e^{ix/2} (h' + i h / 2), and (x S)' = sinc(x/2)^2 / 2 - 2 S(x) (the
    # oracle's S(x) takes 3 more digits per decade below 1).  Measured:
    # 2.8e-16 for g', 1.7e-15 for (x S)', which inherits the error of S
    # just above the cut
    xs = _kernel_points()
    h, S, dh, dxs = _kernels_and_slopes(xs)
    # the pair the kernels return is the sine and cosine of x / 2
    _, _, s, c = _helix_kernels(xs)
    assert s.tobytes() == np.sin(0.5 * xs).tobytes()
    assert c.tobytes() == np.cos(0.5 * xs).tobytes()
    dg = np.exp(0.5j * xs) * (dh + 0.5j * h)
    for k, x in enumerate(xs):
        if x == 0.0:
            assert (h[k], S[k], dh[k], dxs[k]) == (1.0, 1 / 6, 0.0, 0.5 - 1 / 3)
            continue
        with mpmath.workdps(40 + 3 * max(0, -int(np.log10(abs(x))))):
            X = mpmath.mpf(float(x))
            half = (mpmath.sin(X / 2) / (X / 2)) ** 2 / 2
            S_ref = (X - mpmath.sin(X)) / X**3
            re = -(mpmath.sin(X) - X * mpmath.cos(X)) / X**2
            im = mpmath.sin(X) / X - half
            assert abs(dg[k].real - float(re)) <= 1e-15, x
            assert abs(dg[k].imag - float(im)) <= 1e-15, x
            assert abs(dxs[k] - float(half - 2 * S_ref)) <= 4e-15, x


def test_helix_det_against_mpmath():
    # _helix_det itself against the determinant of the module docstring
    # at 40 digits, over x = eps u0 t in [-2 pi, 2 pi], at 0, at the series
    # cut and one ulp either side of it and at tiny |x|; with eps t = 1,
    # x is each point exactly.  Measured: 2.9e-15 relative at worst
    eps, t = 2.0, 0.5
    xs = _kernel_points()
    for n in (1, 3):
        for w2 in (0.3, 4.0):
            det = _helix_det(eps, n, xs, w2, t)
            for k, x in enumerate(xs):
                with mpmath.workdps(40 + 3 * max(0, -int(np.log10(abs(x) or 1.0)))):
                    X, T, ep, W2 = (mpmath.mpf(float(v)) for v in (x, t, eps, w2))
                    if X == 0:
                        h, S, dh, dxs = 1, mpmath.mpf(1) / 6, 0, mpmath.mpf(1) / 6
                    else:
                        Y = X / 2
                        h = mpmath.sin(Y) / Y
                        S = (X - mpmath.sin(X)) / X**3
                        dh = (Y * mpmath.cos(Y) - mpmath.sin(Y)) / (2 * Y**2)
                        dxs = h**2 / 2 - 2 * S
                    E2 = (T * h) ** 2
                    alpha = T / ep + W2 * ep * T**3 * dxs / 2
                    ref = E2 ** (n - 1) * (
                        E2 * alpha - T**2 * X * S * W2 * ep * T**3 * h * dh
                    )
                    assert abs(det[k] - float(ref)) <= 1e-14 * abs(float(ref)), (n, w2, x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    b=st.one_of(st.floats(-1e3, 1e3), st.floats(-1.0, 1.0)),
    c=st.floats(-3.1, 3.1),
    s=st.floats(1e-3, 1.0),
    eps=st.floats(0.1, 10.0),
    n=st.integers(1, 5),
)
def test_helix_det_matches_closed_form(b, c, s, eps, n):
    # eps times the exponential map's Jacobian at the velocity of scalars
    # (b, c) is det A(s) of the closed form, for |b| up to 1e3 (measured:
    # 5.1e-14 relative at worst over 2e5 uniform draws of these ranges)
    got = eps * _helix_det(eps, n, 2.0 * c / eps, (2.0 * b / eps) ** 2, s)
    assert got == pytest.approx(float(_det_a(b, c, n, s)), rel=1e-12)
