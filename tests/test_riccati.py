"""Tests for the Riccati block machinery.

Oracles: exact Euclidean limits, the c = 0 rational trace formula derived
independently of the scaled-cotangent path, finite differences of the raw
determinant factor, the matrix-exponential Jacobi flow, and the determinant
written out in 40-digit mpmath.
"""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcplab import riccati as rc
from mcplab.errors import DomainError, SingularityError


def test_params_validation():
    with pytest.raises(DomainError):
        rc.RiccatiParams(np.inf, 0.0, 1)
    with pytest.raises(DomainError):
        rc.RiccatiParams(0.0, np.nan, 1)
    with pytest.raises(DomainError):
        rc.RiccatiParams(0.0, 0.0, 0)
    p = rc.RiccatiParams(1, 2, 3)
    assert isinstance(p.b, float) and isinstance(p.n, int)


def test_build_blocks_example():
    p = rc.RiccatiParams(1.0, 2.0, 2)
    bl = rc.build_blocks(p)
    R = np.zeros((5, 5))
    R[:3, :3] = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
    R[3:, 3:] = 4.0 * np.eye(2)
    np.testing.assert_array_equal(bl.R, R)
    W = np.zeros((5, 5))
    W[:3, :3] = [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [-1.0, -2.0, 0.0]]
    np.testing.assert_array_equal(bl.W, W)
    bl0 = rc.build_blocks(rc.RiccatiParams(0.0, 0.0, 1))
    assert not bl0.W.any() and not bl0.R.any()
    assert bl0.R.shape == (3, 3)


def test_build_blocks_sign_conjugation():
    # flipping b conjugates by diag(-1,1,1); flipping c by diag(1,-1,1);
    # scalar outputs are therefore even in each parameter separately
    bl = rc.build_blocks(rc.RiccatiParams(1.0, 1.0, 1))
    blb = rc.build_blocks(rc.RiccatiParams(-1.0, 1.0, 1))
    blc = rc.build_blocks(rc.RiccatiParams(1.0, -1.0, 1))
    Db = np.diag([-1.0, 1.0, 1.0])
    Dc = np.diag([1.0, -1.0, 1.0])
    np.testing.assert_allclose(blb.R, Db @ bl.R @ Db, atol=0)
    np.testing.assert_allclose(blb.W, Db @ bl.W @ Db, atol=0)
    np.testing.assert_allclose(blc.R, Dc @ bl.R @ Dc, atol=0)
    np.testing.assert_allclose(blc.W, Dc @ bl.W @ Dc, atol=0)
    assert np.trace(blb.R) == np.trace(bl.R)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(blb.R), np.linalg.eigvalsh(bl.R), atol=1e-14
    )
    # the (0,1) entry itself is odd in both, so the matrices differ
    assert blb.R[0, 1] == -bl.R[0, 1]


def test_build_blocks_rejects_bad_ambient():
    p = rc.RiccatiParams(0.0, 0.0, 2)
    bad = np.zeros((5, 5))
    bad[0, 4] = 1e-6
    with pytest.raises(DomainError):
        rc.build_blocks(p, rbar=bad)
    with pytest.raises(DomainError):
        rc.build_blocks(p, rbar=np.zeros((3, 3)))


def test_kernels_against_mpmath():
    # both series branches and both sides of the cut, and the old cut at 0.05
    xs = np.concatenate([
        np.geomspace(1e-8, 3.1, 300),
        np.linspace(0.04, 0.08, 41),
        np.linspace(rc._SERIES_CUT - 0.02, rc._SERIES_CUT + 0.02, 81),
    ])
    worst_k2, worst_sxc = 0.0, 0.0
    with mpmath.workdps(40):
        for x, k2, sxc in zip(xs, rc._k2hat(xs), rc._sxc(xs)):
            m = mpmath.mpf(float(x))
            ref_k2 = (m * mpmath.cot(m) - 1) / m**2
            ref_sxc = (mpmath.sin(m) - m * mpmath.cos(m)) / m**3
            worst_k2 = max(worst_k2, float(abs(k2 / ref_k2 - 1)))
            worst_sxc = max(worst_sxc, float(abs(sxc / ref_sxc - 1)))
    assert worst_k2 <= 1e-14 and worst_sxc <= 1e-14
    # both are even, and exact at 0
    np.testing.assert_array_equal(rc._k2hat(-xs), rc._k2hat(xs))
    np.testing.assert_array_equal(rc._sxc(-xs), rc._sxc(xs))
    assert rc._k2hat(0.0) == -1.0 / 3.0 and rc._sxc(0.0) == 1.0 / 3.0


def test_xms_against_mpmath():
    # S(x) = (x - sin x) / x^3 on both sides of the series cut, and far out
    xs = np.concatenate([
        np.geomspace(1e-8, 50.0, 300),
        np.linspace(rc._SERIES_CUT - 0.02, rc._SERIES_CUT + 0.02, 81),
    ])
    worst = 0.0
    with mpmath.workdps(40):
        for x, got in zip(xs, rc._xms(xs)):
            m = mpmath.mpf(float(x))
            worst = max(worst, float(abs(got / ((m - mpmath.sin(m)) / m**3) - 1)))
    assert worst <= 1e-14
    np.testing.assert_array_equal(rc._xms(-xs), rc._xms(xs))
    assert rc._xms(0.0) == 1.0 / 6.0


def test_series_is_polyval_to_the_bit():
    # Horner's rule in np.polyval's operations: a dense grid over the cut,
    # its ends and 0, and arguments that are clipped to the cut, scalar
    # and stacked
    cut = rc._SERIES_CUT
    xs = np.concatenate([
        np.linspace(-cut, cut, 20001),
        [0.0, -0.0, cut, -cut, np.nextafter(cut, 1.0), 1.0, 1e22, 1e300],
        -np.geomspace(1e-300, 1e300, 601),
        np.geomspace(1e-300, 1e300, 601),
    ])
    stacked = np.stack((xs, xs[::-1]))
    near = np.clip(stacked, -cut, cut)
    for coeffs in (rc._K2HAT_SERIES, rc._SXC_SERIES, rc._XMS_SERIES):
        expected = np.polyval(coeffs, near * near)
        assert rc._series(coeffs, stacked).tobytes() == expected.tobytes()
        for x, z in zip(xs[::97], near[0, ::97]):
            got = rc._series(coeffs, x)
            assert got.tobytes() == np.polyval(coeffs, z * z).tobytes()


def test_kernels_are_quiet_at_huge_arguments():
    # each series is taken at |x| clipped to the cut, so no argument
    # overflows it
    xs = np.array([1e22, 1e30, 1e160, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det = rc.det_distortion(rc.RiccatiParams(-1.0, 1e30, 1), [0.5])
        values = [f(s * xs) for f in (rc._k2hat, rc._sxc, rc._xms) for s in (1, -1)]
    assert np.all(np.isfinite(det)) and np.all(np.isfinite(values))


def test_closed_forms_fixed_values():
    # b = 0, c = pi/2, t = 1/2: per-direction parallel-block value is
    # -(pi/2) cot(pi/4) = -pi/2, and F1 is diagonal
    F1, f3 = rc.closed_forms(rc.RiccatiParams(0.0, np.pi / 2, 1), 0.5)
    assert f3 == pytest.approx(-np.pi / 2, rel=1e-14)
    np.testing.assert_allclose(
        F1, np.diag([-2.0, -np.pi / 2, -np.pi / 2]), rtol=1e-14, atol=1e-15
    )
    # Euclidean limit c -> 0 at b = 0
    F1, f3 = rc.closed_forms(rc.RiccatiParams(0.0, 0.0, 1), 0.25)
    np.testing.assert_allclose(F1, -4.0 * np.eye(3), rtol=1e-14)
    assert f3 == pytest.approx(-4.0, rel=1e-14)


def test_closed_forms_c_zero_rational():
    # at c = 0 the entries reduce to rationals in b, t; the trace is
    # -(9 + 5 b^2 t^2) / (t (3 + b^2 t^2)) — an independent hand derivation
    for b in (0.5, 3.0, 40.0, 1e3):
        for t in (0.1, 0.45, 0.93):
            F1, _ = rc.closed_forms(rc.RiccatiParams(b, 0.0, 1), t)
            expected = -(9.0 + 5.0 * b * b * t * t) / (t * (3.0 + b * b * t * t))
            assert np.trace(F1) == pytest.approx(expected, rel=1e-12)
            # the rotated direction decouples at c = 0
            assert F1[0, 1] == 0.0 and F1[1, 2] == 0.0


def test_closed_forms_domain_and_singularities():
    p = rc.RiccatiParams(1.0, 1.0, 1)
    with pytest.raises(DomainError):
        rc.closed_forms(p, 0.0)
    with pytest.raises(DomainError):
        rc.closed_forms(p, 1.0)
    with pytest.raises(SingularityError) as exc:
        rc.closed_forms(rc.RiccatiParams(1.0, 4.0, 1), np.pi / 4.0)
    assert exc.value.factor == "sin(c*t)"
    # K1 vanishes past the first sin zero; construct b to hit it
    c, t = 4.0, 0.9
    k2h = float(rc._k2hat(c * t))
    b = np.sqrt(1.0 / (t * t * k2h))
    with pytest.raises(SingularityError) as exc:
        rc.closed_forms(rc.RiccatiParams(b, c, 1), t)
    assert exc.value.factor == "K1"
    # entries past float64 range (b^3 at b = 1e154) are a DomainError, not
    # the OverflowError of a Python float power
    for b in (1e154, -1e300):
        with pytest.raises(DomainError, match="float64 range"):
            rc.closed_forms(rc.RiccatiParams(b, 1.0, 1), 0.5)


def test_closed_vs_ode_point():
    p = rc.RiccatiParams(1.0, 1.0, 1)
    bl = rc.build_blocks(p)
    sol = rc.integrate_inverse_riccati(p, bl, np.array([0.0, 0.5]))
    F1c, _ = rc.closed_forms(p, 0.5)
    assert np.max(np.abs(F1c - sol.F1[1])) < 1e-8


def test_closed_vs_ode_grid():
    # includes |c| > pi/2 (G passes through infinity) and n > 1
    t_grid = np.concatenate([[0.0], np.linspace(0.1, 0.9, 9)])
    for b, c, n in [(0.0, 0.3, 1), (1.0, -2.0, 2), (2.5, 2.9, 2), (4.0, 0.0, 3)]:
        p = rc.RiccatiParams(b, c, n)
        sol = rc.integrate_inverse_riccati(p, rc.build_blocks(p), t_grid)
        for k, t in enumerate(t_grid[1:], 1):
            assert not sol.singular[k]
            F1c, f3 = rc.closed_forms(p, float(t))
            scale = max(1.0, np.max(np.abs(F1c)))
            assert np.max(np.abs(F1c - sol.F1[k])) / scale < 1e-6
            if n > 1:
                m = 2 * n - 2
                np.testing.assert_allclose(sol.F3[k], f3 * np.eye(m), atol=1e-6)


def test_closed_vs_ode_through_conjugate_point():
    # c = 3.5 puts a zero eigenvalue of F(1-t) at t = pi/7 and a conjugate
    # point at t = pi/3.5; both lie inside the grid
    p = rc.RiccatiParams(1.0, 3.5, 1)
    sol = rc.integrate_inverse_riccati(
        p, rc.build_blocks(p), np.array([0.0, 0.3, 0.46, 0.95])
    )
    for k, t in zip((1, 2, 3), (0.3, 0.46, 0.95)):
        F1c, _ = rc.closed_forms(p, float(t))
        assert np.max(np.abs(F1c - sol.F1[k])) < 1e-7


def _det_envelope(b, n, s):
    """Size of det A(s) at c = 0: s^{2n+1} (1 + b^2 s^2 / 3)."""
    return s ** (2 * n + 1) * (1.0 + b * b * s * s / 3.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    b=st.floats(-50.0, 50.0),
    c=st.floats(-2 * np.pi, 2 * np.pi, exclude_min=True, exclude_max=True),
    n=st.integers(1, 3),
    s=st.floats(1e-6, 1.0),
)
def test_jacobi_flow_matches_closed_forms(b, c, n, s):
    p = rc.RiccatiParams(b, c, n)
    bl = rc.build_blocks(p)
    A, _ = rc.jacobi_flow(bl.W, bl.R, [s])
    det_closed = float(rc.det_distortion(p, s))
    envelope = _det_envelope(b, n, s)
    assert abs(np.linalg.det(A[0]) - det_closed) <= 1e-10 * envelope
    # F(1 - s) is compared where both routes are regular: away from its
    # poles, where det A(s) vanishes and any route loses digits like
    # 1 / distance
    if s == 1.0 or abs(det_closed) < 1e-6 * envelope:
        return
    try:
        F1c, f3c = rc.closed_forms(p, s)
    except SingularityError:
        return
    sol = rc.integrate_inverse_riccati(p, bl, np.array([0.0, s]))
    assert not sol.singular[1]
    assert np.max(np.abs(sol.F1[1] - F1c)) <= 1e-8 * max(1.0, np.max(np.abs(F1c)))
    if n > 1:
        err3 = np.max(np.abs(sol.F3[1] - f3c * np.eye(2 * n - 2)))
        assert err3 <= 1e-8 * max(1.0, abs(f3c))


def _det_mpmath(b, c, n, s):
    """det A(s) written out with mpmath sin/cos at the working precision."""
    b, c, s = mpmath.mpf(b), mpmath.mpf(c), mpmath.mpf(s)
    x = c * s
    sinc = mpmath.sin(x) / x
    sxc = (mpmath.sin(x) - x * mpmath.cos(x)) / x**3
    return (s**3 * sinc**2 + b**2 * s**5 * sinc * sxc) * (s * sinc) ** (2 * n - 2)


# Relative error budgets of the flow's det A by |b|.  The step count grows
# like |b|, and near a zero of det A (c = 3, s = 1 lies 4% before the
# conjugate time pi/3) the error relative to |det A| grows as det A
# shrinks: 6.8e-8 there at |b| = 1e3 (n = 1), 1.1e-9 relative to the
# c = 0 size, and 4.8e-11 at |b| = 100 (n = 2).  At |b| = 1e3 over ten c
# in [0.3, 3], n in {1, 2} and s in {0.2, 0.45, 0.7, 1} the median is
# 3e-10 and the worst 1.8e-8.  How the BLAS rounds matmul moves these
# figures; the CI log names the BLAS that ran.
_MPMATH_BUDGET = {0.0: 1e-12, 1.0: 1e-12, 10.0: 1e-12, 100.0: 1e-10, 1e3: 1e-7}


@pytest.mark.parametrize("b", sorted(_MPMATH_BUDGET))
def test_jacobi_flow_against_mpmath(b):
    times = [0.25, 0.5, 1.0]
    worst = 0.0
    with mpmath.workdps(40):
        for sign in (1.0, -1.0):
            for c in (0.5, 3.0, 3.5):
                for n in (1, 2):
                    bl = rc.build_blocks(rc.RiccatiParams(sign * b, c, n))
                    A, _ = rc.jacobi_flow(bl.W, bl.R, times)
                    for s, det in zip(times, np.linalg.det(A)):
                        exact = _det_mpmath(b, c, n, s)
                        worst = max(worst, float(abs((det - exact) / exact)))
    assert worst <= _MPMATH_BUDGET[b]


def _jacobi_generator(b, c, n):
    """K = [[0, -(W^2 + R)], [I, -2W]] of the full system, and its step rate."""
    W, R = rc._model_blocks(b, c, n)
    d = W.shape[-1]
    K = np.block([[np.zeros((d, d)), -(W @ W + R)], [np.eye(d), -2.0 * W]])
    rate = max(1.0, np.max(np.abs(W)), np.sqrt(np.max(np.abs(R))))
    return K, rate


def test_theta24_from_the_backward_error_series():
    # theta_24 is where sum_{k>=25} |c_k| x^(k-1) = 2^-53 for
    # log(e^-x T_24(x)) = sum_k c_k x^k (Al-Mohy & Higham 2009); the terms
    # past x^120 are below 1e-60 at x = 4
    N = 120
    with mpmath.workdps(50):
        # power series of f = e^-x T_24(x), then of log f through f L' = f'
        f = [mpmath.fsum((-1) ** (k - j) / (mpmath.factorial(k - j) * mpmath.factorial(j))
                         for j in range(min(k, 24) + 1)) for k in range(N)]
        c = [mpmath.mpf(0)] * N
        for k in range(1, N):
            c[k] = f[k] - mpmath.fsum(j * c[j] * f[k - j] for j in range(1, k)) / k
        assert max(abs(ck) for ck in c[:25]) < mpmath.mpf(10) ** -45
        u = mpmath.mpf(2) ** -53
        lo, hi = mpmath.mpf(1), mpmath.mpf(4)
        for _ in range(60):
            mid = (lo + hi) / 2
            if mpmath.fsum(abs(c[k]) * mid ** (k - 1) for k in range(25, N)) <= u:
                lo = mid
            else:
                hi = mid
    assert abs(float(lo) - rc._THETA24) <= 1e-9


def test_expm_against_scipy_on_jacobi_steps():
    # the step exponentials jacobi_flow takes, a full step down to a short
    # one, within a few units of round-off of the largest entry
    from scipy.linalg import expm

    for b in (0.0, 1.0, 10.0, 100.0, 1e3):
        for c in (0.5, 3.0, 3.5):
            for n in (1, 2, 3):
                K, rate = _jacobi_generator(b, c, n)
                h = np.array([1.0, 0.37, 1e-3]) / rate
                E = rc._taylor_expm(rc._taylor_powers(K), h)
                assert E.shape == (3,) + K.shape
                for hk, Ek in zip(h, E):
                    ref = expm(hk * K)
                    assert np.max(np.abs(Ek - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_expm_against_scipy_on_random_stacks():
    from scipy.linalg import expm

    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 6, 10):
        M = rng.standard_normal((40, m, m))
        norms = np.geomspace(1e-3, 100.0, len(M))
        M *= (norms / np.max(np.sum(np.abs(M), axis=-2), axis=-1))[:, None, None]
        h = np.array([1.0, -0.3, 2.5, 1e-4, 0.0])
        E = rc._taylor_expm(rc._taylor_powers(M), h)
        assert E.shape == (len(h),) + M.shape
        # scipy itself is off by 5e-12 of the largest entry on the 2x2 of
        # 1-norm 74 here (50-digit mpmath; _taylor_expm is within 1e-15 there)
        for Mk, Ek in zip(M, E[0]):
            ref = expm(Mk)
            assert np.max(np.abs(Ek - ref)) <= 1e-10 * np.max(np.abs(ref))
        # each pair (h_i, M_k) takes its own squarings: the stack of mixed
        # steps and norms gives exactly the per-pair results
        assert all(np.array_equal(E[i, k],
                                  rc._taylor_expm(rc._taylor_powers(Mk), [hi])[0])
                   for i, hi in enumerate(h) for k, Mk in enumerate(M))


def test_expm_of_zero_is_identity():
    for m in (1, 2, 6):
        E = rc._taylor_expm(rc._taylor_powers(np.zeros((3, m, m))), [1.0, 0.0])
        np.testing.assert_array_equal(E, np.broadcast_to(np.eye(m), (2, 3, m, m)))
    E = rc._taylor_expm(rc._taylor_powers(np.ones((2, 5, 5))), [0.0])
    np.testing.assert_array_equal(E[0], np.broadcast_to(np.eye(5), (2, 5, 5)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       norm=st.floats(1e-6, 20.0))
def test_expm_inverse_property(m, seed, norm):
    A = np.random.default_rng(seed).standard_normal((m, m))
    A *= norm / np.max(np.sum(np.abs(A), axis=0))
    E, Einv = rc._taylor_expm(rc._taylor_powers(A), [1.0, -1.0])
    scale = np.linalg.norm(E, 1) * np.linalg.norm(Einv, 1)
    assert np.max(np.abs(E @ Einv - np.eye(m))) <= 1e-13 * scale


def test_jacobi_flow_memory_is_bounded():
    # the step exponentials of a long grid are taken in groups, so the
    # peak stays a small multiple of the output (A, A' of a 38x38 block on
    # 200 times: 4.6 MB)
    import tracemalloc

    bl = rc.build_blocks(rc.RiccatiParams(1.0, 1.0, 20))
    s = np.linspace(0.005, 1.0, 200)
    tracemalloc.start()
    try:
        A, Ap = rc.jacobi_flow(np.zeros((38, 38)), bl.R[3:, 3:], s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (A.nbytes + Ap.nbytes)


def test_jacobi_flow_step_cap(monkeypatch):
    # the cap applies to ceil(s_max * rate) before any step is taken
    W = np.zeros((3, 3))
    R = 100.0 * np.eye(3)  # rate 10 per unit time
    monkeypatch.setattr(rc, "_MAX_FLOW_STEPS", 10)
    A, _ = rc.jacobi_flow(W, R, [0.5, 1.0])
    np.testing.assert_allclose(A[1], np.sin(10.0) / 10.0 * np.eye(3), rtol=1e-12)
    with pytest.raises(DomainError):
        rc.jacobi_flow(W, R, [0.5, 1.01])
    monkeypatch.undo()
    bl = rc.build_blocks(rc.RiccatiParams(1e9, 1.0, 1))
    with pytest.raises(DomainError):
        rc.jacobi_flow(bl.W, bl.R, [0.1, 1.0])


def test_jacobi_flow_shapes_and_validation():
    W = np.zeros((4, 3, 3))
    R = np.broadcast_to(np.eye(3), (4, 3, 3))
    A, Ap = rc.jacobi_flow(W, R, [0.0, 0.5])
    assert A.shape == Ap.shape == (2, 4, 3, 3)
    # R = I, W = 0: A(s) = sin(s) I, A'(s) = cos(s) I
    np.testing.assert_array_equal(A[0], 0.0)
    np.testing.assert_array_equal(Ap[0], np.broadcast_to(np.eye(3), (4, 3, 3)))
    np.testing.assert_allclose(A[1], np.sin(0.5) * np.broadcast_to(np.eye(3), (4, 3, 3)),
                               atol=1e-15)
    np.testing.assert_allclose(Ap[1], np.cos(0.5) * np.broadcast_to(np.eye(3), (4, 3, 3)),
                               atol=1e-15)
    for bad in ([], [-0.1, 0.5], [0.5, 0.5], [0.5, 0.2], [0.1, np.nan]):
        with pytest.raises(DomainError):
            rc.jacobi_flow(W, R, bad)
    with pytest.raises(DomainError):
        rc.jacobi_flow(W, np.full((3, 3), np.nan), [0.5])
    # one bad entry in W alone or in R alone, in a stack and in a single
    # matrix: Python's max(1.0, nan) is 1.0, so the step rate must not be
    # where a NaN is lost
    for shape, entry in (((4, 3, 3), (2, 1, 2)), ((3, 3), (1, 2))):
        for bad in (np.nan, np.inf, -np.inf):
            for which in ("W", "R"):
                M = {"W": np.zeros(shape), "R": np.zeros(shape) + np.eye(3)}
                M[which][entry] = bad
                with pytest.raises(DomainError, match="finite"):
                    rc.jacobi_flow(M["W"], M["R"], [0.5])


def test_inverse_riccati_euclidean():
    p = rc.RiccatiParams(0.0, 0.0, 2)
    sol = rc.integrate_inverse_riccati(p, rc.build_blocks(p), np.array([0.0, 0.5]))
    assert sol.singular[0] and not sol.singular[1]
    np.testing.assert_allclose(sol.G1[1], -0.5 * np.eye(3), atol=1e-12)
    np.testing.assert_allclose(sol.F1[1], -2.0 * np.eye(3), atol=1e-10)
    assert sol.tr_F1[1] == pytest.approx(-6.0, rel=1e-10)
    assert sol.tr_F3[1] == pytest.approx(-4.0, rel=1e-10)
    assert np.isnan(sol.tr_F1[0])


def test_inverse_riccati_grid_validation():
    p = rc.RiccatiParams(0.0, 0.0, 1)
    bl = rc.build_blocks(p)
    for bad in ([0.0], [0.1, 0.5], [0.0, 0.5, 0.4], [0.0, 0.5, 1.0]):
        with pytest.raises(DomainError):
            rc.integrate_inverse_riccati(p, bl, np.array(bad))
    with pytest.raises(DomainError):
        rc.integrate_inverse_riccati(
            p, rc.build_blocks(rc.RiccatiParams(0.0, 0.0, 2)), np.array([0.0, 0.5])
        )


def test_full_matrix_mixed_block_vanishes():
    # the flow of the full system keeps the model's blocks apart, and its
    # diagonal blocks are the branches of each block flowed on its own
    p = rc.RiccatiParams(1.3, 0.7, 2)
    bl = rc.build_blocks(p)
    t_grid = np.array([0.0, 0.2, 0.5, 0.8])
    G, F, _ = rc._riccati_branch(bl.W, bl.R, t_grid)
    for M in (G[1:], F[1:]):
        assert np.max(np.abs(M[:, :3, 3:])) < 1e-12
        assert np.max(np.abs(M[:, 3:, :3])) < 1e-12
    sol = rc.integrate_inverse_riccati(p, bl, t_grid)
    G1, _, _ = rc._riccati_branch(bl.W[:3, :3], bl.R[:3, :3], t_grid)
    G3, _, _ = rc._riccati_branch(np.zeros((2, 2)), bl.R[3:, 3:], t_grid)
    np.testing.assert_allclose(sol.G1[1:], G1[1:], atol=1e-9)
    np.testing.assert_allclose(sol.G3[1:], G3[1:], atol=1e-9)


def test_det_g1_behavior_at_first_conjugate_time():
    # simple zero for b != 0 (sign change); double zero at b = 0 (touch)
    t_star = np.pi / 3.5
    grid = np.array([0.0, t_star - 0.02, t_star + 0.02])
    p1 = rc.RiccatiParams(1.0, 3.5, 1)
    s1 = rc.integrate_inverse_riccati(p1, rc.build_blocks(p1), grid)
    d_before = np.linalg.det(s1.G1[1])
    d_after = np.linalg.det(s1.G1[2])
    assert d_before < 0.0 < d_after
    p0 = rc.RiccatiParams(0.0, 3.5, 1)
    s0 = rc.integrate_inverse_riccati(p0, rc.build_blocks(p0), grid)
    assert np.linalg.det(s0.G1[1]) < 0.0 and np.linalg.det(s0.G1[2]) < 0.0


def _raw_factor(b, c, t):
    """g(t) = t (b^2 + c^2)(cos 2ct - 1) + t^2 b^2 c sin 2ct, which is
    -2 c^4 det A1(t) written out in plain trigonometric functions."""
    return t * (b * b + c * c) * (np.cos(2 * c * t) - 1.0) + t * t * b * b * c * np.sin(
        2 * c * t
    )


def test_trace_identity_against_raw_factor():
    # tr F1(1-t) = -d/dt ln |g(t)| with g the raw determinant factor
    for b, c in [(1.3, 2.1), (0.0, 1.7), (2.0, -0.9)]:
        p = rc.RiccatiParams(b, c, 1)
        t, h = 0.37, 1e-5
        dlng = (
            np.log(abs(_raw_factor(b, c, t + h))) - np.log(abs(_raw_factor(b, c, t - h)))
        ) / (2 * h)
        F1, _ = rc.closed_forms(p, t)
        assert np.trace(F1) == pytest.approx(-dlng, abs=1e-5)


def test_raw_factor_matches_normalized_determinant():
    b, c = 1.7, 2.3
    ts = np.linspace(0.05, 0.95, 7)
    np.testing.assert_allclose(
        _raw_factor(b, c, ts), -2.0 * c**4 * rc._det_a(b, c, 1, ts), rtol=1e-12
    )


def test_det_distortion_limits():
    for n in (1, 2, 3):
        p = rc.RiccatiParams(0.0, 0.0, n)
        ts = np.array([0.2, 0.7, 1.0])
        np.testing.assert_allclose(rc.det_distortion(p, ts), ts ** (2 * n + 1), rtol=1e-14)
    # vanishes at the conjugate time
    p = rc.RiccatiParams(0.0, np.pi, 1)
    assert abs(float(rc._det_a(p.b, p.c, 1, 1.0))) < 1e-15


def test_trace_bounds_values_and_flags():
    def t_tr_f1(b, c, t):
        f00, _, _, f11, _, f22, _, _ = rc._f1_pieces(b, c, t)
        return t * (f00 + f11 + f22)

    # at c = 0, t = 1 the trace is -(9 + 5 b^2) / (3 + b^2)
    expected = -(9.0 + 5.0e6) / (3.0 + 1.0e6)
    assert t_tr_f1(1e3, 0.0, 1.0) == pytest.approx(expected, rel=1e-12)
    assert -5.0 < t_tr_f1(1e3, 0.0, 1.0) < -4.99
    # small c perturbation stays stable (raw K2/K1 forms lose digits here)
    assert t_tr_f1(1e3, 1e-3, 1.0) == pytest.approx(expected, rel=1e-4)
    # F3 bound for n = 2: t tr F3 = -(2n-2) x cot x >= -(2n-2) on |x| < pi,
    # and past pi/2 the cotangent flips sign
    assert -2.0 * rc._f1_pieces(0.0, 2.8, 1.0)[6] > 0.0


def test_conjugate_time_values():
    assert rc.conjugate_time(rc.RiccatiParams(0.0, 3.5, 1)) == pytest.approx(
        np.pi / 3.5, abs=1e-9
    )
    # the sin factor is unaffected by b
    assert rc.conjugate_time(rc.RiccatiParams(5.0, 3.5, 1)) == pytest.approx(
        np.pi / 3.5, abs=1e-9
    )
    assert rc.conjugate_time(rc.RiccatiParams(0.0, 6.0, 1)) == pytest.approx(
        np.pi / 6.0, abs=1e-9
    )
    t = rc.conjugate_time(rc.RiccatiParams(0.0, np.pi + 0.01, 1))
    assert t is not None and t < 1.0
    # endpoint root
    assert rc.conjugate_time(rc.RiccatiParams(0.0, np.pi, 1)) == pytest.approx(
        1.0, abs=1e-9
    )


def test_conjugate_time_none_cases():
    assert rc.conjugate_time(rc.RiccatiParams(0.0, np.pi - 1e-3, 1)) is None
    assert rc.conjugate_time(rc.RiccatiParams(0.0, 0.0, 1)) is None
    assert rc.conjugate_time(rc.RiccatiParams(3.0, 0.0, 1)) is None
    assert rc.conjugate_time(rc.RiccatiParams(1e3, 3.0, 1)) is None
    # even in the sign of c
    assert rc.conjugate_time(rc.RiccatiParams(0.0, -3.5, 1)) == pytest.approx(
        np.pi / 3.5, abs=1e-9
    )


def test_scalar_outputs_even_in_b_and_c():
    ts = np.linspace(0.1, 0.95, 5)
    for b, c in [(1.2, 2.4), (0.7, -1.1)]:
        base = rc.RiccatiParams(b, c, 2)
        for flipped in (rc.RiccatiParams(-b, c, 2), rc.RiccatiParams(b, -c, 2)):
            np.testing.assert_allclose(
                rc._det_a(b, c, 1, ts), rc._det_a(flipped.b, flipped.c, 1, ts), rtol=1e-13
            )
            for t in ts:
                F1a, f3a = rc.closed_forms(base, float(t))
                F1b, f3b = rc.closed_forms(flipped, float(t))
                assert np.trace(F1a) == pytest.approx(np.trace(F1b), rel=1e-13)
                assert f3a == pytest.approx(f3b, rel=1e-13)


def test_curvature_comparison_orders_riccati_solutions():
    # nonnegative ambient curvature pushes the blow-down branch upward:
    # F(1-t) with rbar >= 0 dominates the flat-model branch, and so do its
    # diagonal blocks when rbar couples them
    rng = np.random.default_rng(11)
    p = rc.RiccatiParams(1.0, 1.0, 2)
    M = rng.normal(size=(3, 3))
    split = np.zeros((5, 5))
    split[:3, :3] = M @ M.T * 0.2
    split[3:, 3:] = 0.3 * np.eye(2)
    M = rng.normal(size=(5, 5))
    coupled = M @ M.T * 0.2
    grid = np.concatenate([[0.0], np.linspace(0.1, 0.9, 9)])
    sf = rc.integrate_inverse_riccati(p, rc.build_blocks(p), grid)
    for rbar in (split, coupled):
        sc = rc.integrate_inverse_riccati(p, rc.build_blocks(p, rbar=rbar), grid)
        for k in range(1, len(grid)):
            # F1 - F1_flat is positive semidefinite; both are symmetric
            for F in (sc.F1[k], sf.F1[k]):
                assert np.max(np.abs(F - F.T)) <= 1e-9
            D = sc.F1[k] - sf.F1[k]
            assert np.linalg.eigvalsh(0.5 * (D + D.T)).min() >= -1e-8
            assert sc.tr_F3[k] >= sf.tr_F3[k] - 1e-8
    # and the flat F3 trace is exactly the comparison solution
    for k in range(1, len(grid)):
        assert sf.tr_F3[k] == pytest.approx(_f3_tilde(p.c, grid[k], p.n), abs=1e-8)


def _f3_tilde(c, t, n):
    """The comparison trace -(2n - 2) c cot(ct) of the parallel block."""
    return -(2 * n - 2) * c / np.tan(c * t)


def test_f3_tilde():
    # c -> 0 limit is -(2n-2)/t
    assert _f3_tilde(1e-12, 0.25, 3) == pytest.approx(-16.0, rel=1e-12)
    # satisfies f' = (2n-2) c^2 + f^2/(2n-2) in the time-to-endpoint variable
    c, t, h = 1.3, 0.4, 1e-6
    df = (_f3_tilde(c, t + h, 2) - _f3_tilde(c, t - h, 2)) / (2 * h)
    f = _f3_tilde(c, t, 2)
    assert df == pytest.approx(2.0 * c**2 + f * f / 2.0, rel=1e-7)
    # the closed form's parallel block is that comparison trace
    for b, c, n in ((2.0, 1.0, 1), (0.0, 1e-12, 3), (0.7, 1.3, 2), (1.5, -2.9, 3)):
        f3 = rc.closed_forms(rc.RiccatiParams(b, c, n), 0.25)[1]
        assert (2 * n - 2) * f3 == pytest.approx(_f3_tilde(c, 0.25, n), rel=1e-12)
