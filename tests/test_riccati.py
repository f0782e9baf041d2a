"""Tests for the Riccati block machinery.

Oracles: exact Euclidean limits, the c = 0 rational trace formula derived
independently of the scaled-cotangent path, finite differences of the raw
determinant factor, the matrix-exponential Jacobi flow, and the determinant
written out in 40-digit mpmath.
"""

import ast
import dataclasses
import math
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcplab import riccati as rc
from mcplab.errors import (
    DomainError, McplabError, ModelValidationError, SingularityError, VelocitySpecError,
)
from mcplab.heisenberg import _helix_kernels


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


def _k2hat(x):
    """k2hat(x) = (x cot x - 1) / x^2 as the closed forms compose it."""
    sinc, sxc = rc._sinc_sxc(x)
    return -sxc / sinc


def _off_multiples_of_pi(xs, gap=1e-3):
    k = np.round(xs / np.pi)
    return xs[(k == 0) | (np.abs(xs - k * np.pi) > gap)]


def _kernel_points():
    """Both series branches and both sides of the cut, and the old cut at
    0.05."""
    return np.concatenate([
        np.geomspace(1e-8, 3.1, 300),
        np.linspace(0.04, 0.08, 41),
        np.linspace(rc._SERIES_CUT - 0.02, rc._SERIES_CUT + 0.02, 81),
    ])


def test_kernels_against_mpmath():
    # k2hat as the closed forms compose it from _sinc_sxc
    xs = _kernel_points()
    worst_k2 = 0.0
    with mpmath.workdps(40):
        for x, k2 in zip(xs, _k2hat(xs)):
            m = mpmath.mpf(float(x))
            ref_k2 = (m * mpmath.cot(m) - 1) / m**2
            worst_k2 = max(worst_k2, float(abs(k2 / ref_k2 - 1)))
    assert worst_k2 <= 1e-14
    # out to 40, where k2hat passes through zeros (tan x = x) and poles
    # (k pi): absolute where it is small, relative where it is large
    far = _off_multiples_of_pi(np.linspace(1e-3, 40.0, 4001))
    worst = 0.0
    with mpmath.workdps(40):
        for x, k2 in zip(far, _k2hat(far)):
            m = mpmath.mpf(float(x))
            ref = (m * mpmath.cot(m) - 1) / m**2
            worst = max(worst, float(abs(k2 - ref) / max(1, abs(ref))))
    assert worst <= 1e-14
    # even, and exact at 0
    np.testing.assert_array_equal(_k2hat(-xs), _k2hat(xs))
    assert _k2hat(0.0) == -1.0 / 3.0


def test_sinc_sxc_against_mpmath():
    # both kernels of one sine-cosine pair.  sinc is one division of the
    # sine (np.sinc(x / pi) was 3.5e-12 off on (2 pi, 40]); sxc is taken on
    # both series branches and both sides of the cut
    xs = _off_multiples_of_pi(np.concatenate([
        np.geomspace(1e-8, 40.0, 1000), np.linspace(2 * np.pi, 40.0, 4001)
    ]))
    near = _kernel_points()
    worst_sinc, worst_sxc = 0.0, 0.0
    with mpmath.workdps(40):
        for x, got in zip(xs, rc._sinc_sxc(xs)[0]):
            m = mpmath.mpf(float(x))
            worst_sinc = max(worst_sinc, float(abs(got / (mpmath.sin(m) / m) - 1)))
        for x, got in zip(near, rc._sinc_sxc(near)[1]):
            m = mpmath.mpf(float(x))
            ref = (mpmath.sin(m) - m * mpmath.cos(m)) / m**3
            worst_sxc = max(worst_sxc, float(abs(got / ref - 1)))
    assert worst_sinc <= 1e-15 and worst_sxc <= 1e-14
    # both are even, and exact at 0 (the float path against the array
    # path: test_sinc_sxc_float_path_matches_the_array_path)
    for k in (0, 1):
        np.testing.assert_array_equal(rc._sinc_sxc(-xs)[k], rc._sinc_sxc(xs)[k])
        np.testing.assert_array_equal(rc._sinc_sxc(-near)[k], rc._sinc_sxc(near)[k])
    assert tuple(map(float, rc._sinc_sxc(0.0))) == (1.0, 1.0 / 3.0)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


_CUT_NEIGHBOURS = (
    math.nextafter(rc._SERIES_CUT, 0.0), rc._SERIES_CUT, math.nextafter(rc._SERIES_CUT, 1.0)
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    x=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-40.0, 40.0),
        st.floats(-1.0, 1.0),
        st.sampled_from(_CUT_NEIGHBOURS + (0.0, -0.0, 5e-324, 1e300)),
    ),
    sign=st.sampled_from((1.0, -1.0)),
)
def test_sinc_sxc_float_path_matches_the_array_path(x, sign):
    # a Python float takes math.sin/cos and Python branches and gives two
    # floats; a numpy scalar and an array take np.where.  All three give
    # the same bits, and the numpy path stays quiet where x^3 overflows
    x = sign * x
    pair = rc._sinc_sxc(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = rc._sinc_sxc(np.array([x, 1.0]))
        scalar = rc._sinc_sxc(np.float64(x))
    for k in (0, 1):
        assert type(pair[k]) is float
        assert isinstance(scalar[k], np.ndarray) and scalar[k].ndim == 0
        assert _bits(pair[k]) == _bits(stacked[k][0]) == _bits(scalar[k])


def _xms(x):
    """S(x) = (x - sin x) / x^3 as the helix's kernels give it."""
    return _helix_kernels(x)[1]


def test_xms_against_mpmath():
    # S(x) = (x - sin x) / x^3 on both sides of the series cut, and far out
    xs = np.concatenate([
        np.geomspace(1e-8, 50.0, 300),
        np.linspace(rc._SERIES_CUT - 0.02, rc._SERIES_CUT + 0.02, 81),
    ])
    worst = 0.0
    with mpmath.workdps(40):
        for x, got in zip(xs, _xms(xs)):
            m = mpmath.mpf(float(x))
            worst = max(worst, float(abs(got / ((m - mpmath.sin(m)) / m**3) - 1)))
    assert worst <= 1e-14
    np.testing.assert_array_equal(_xms(-xs), _xms(xs))
    assert _xms(0.0) == 1.0 / 6.0


def test_series_is_polyval_to_the_bit():
    # Horner's rule in np.polyval's operations on the arguments the
    # kernels take it at, |x| <= the cut: a dense grid over the cut, its
    # ends and 0, and tiny arguments, scalar and stacked
    cut = rc._SERIES_CUT
    xs = np.concatenate([
        np.linspace(-cut, cut, 20001),
        [0.0, -0.0, cut, -cut, np.nextafter(cut, 0.0)],
        -np.geomspace(1e-300, cut, 601),
        np.geomspace(1e-300, cut, 601),
    ])
    stacked = np.stack((xs, xs[::-1]))
    for coeffs in (rc._SXC_SERIES, rc._XMS_SERIES):
        expected = np.polyval(coeffs, stacked * stacked)
        assert rc._series(coeffs, stacked).tobytes() == expected.tobytes()
        for x in xs[::97]:
            got = np.float64(rc._series(coeffs, np.float64(x)))
            assert got.tobytes() == np.polyval(coeffs, x * x).tobytes()


def test_kernels_are_quiet_at_huge_arguments():
    # a series that overflows past the cut is discarded there without a
    # warning, so no argument leaks its overflow
    xs = np.array([1e22, 1e30, 1e160, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det = rc.det_distortion(rc.RiccatiParams(-1.0, 1e30, 1), [0.5])
        values = [f(s * xs) for f in (_k2hat, _xms) for s in (1, -1)]
        values += [k for s in (1, -1) for k in rc._sinc_sxc(s * xs)]
        values += [k for s in (1, -1) for k in rc._sinc_sxc(s * xs[2])]
    assert np.all(np.isfinite(det)) and all(np.all(np.isfinite(v)) for v in values)


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
    k2h = float(_k2hat(c * t))
    b = np.sqrt(1.0 / (t * t * k2h))
    with pytest.raises(SingularityError) as exc:
        rc.closed_forms(rc.RiccatiParams(b, c, 1), t)
    assert exc.value.factor == "K1"
    # entries past float64 range (b^3 at b = 1e154) are a DomainError, not
    # the OverflowError of a Python float power
    for b in (1e154, -1e300):
        with pytest.raises(DomainError, match="float64 range"):
            rc.closed_forms(rc.RiccatiParams(b, 1.0, 1), 0.5)


def _closed_forms_on_numpy(params, t):
    """closed_forms' steps with every entry evaluated on numpy scalars:
    (F1, f3), or the class of the McplabError its checks raise.  Numpy
    scalars, not 1-element arrays: numpy's array power rounds b ** 3 apart
    from libm's pow (which Python floats and numpy scalars both call) in
    about 3 % of draws on AVX-512 hosts."""
    try:
        rc._check_sin_regular(params.c * t)
        with np.errstate(all="ignore"):
            pieces = [
                float(v) for v in rc._f1_pieces(np.float64(params.b), np.float64(params.c), t)
            ]
    except McplabError as exc:
        return type(exc)
    f00, f01, f02, f11, f12, f22, xc, k1h = pieces
    if abs(k1h) < 1e-14:
        return SingularityError
    if not all(map(math.isfinite, pieces)):
        return DomainError
    return np.array([[f00, f01, f02], [f01, f11, f12], [f02, f12, f22]]), -xc / t


@st.composite
def _closed_form_inputs(draw):
    """(b, c, t) over closed_forms' branches: c = 0, x = ct at the series
    cut and one ulp either side, subnormal t, |b| up to 1e120 (b ** 3
    overflows from about 5.6e102), and ct within 1e-12 of a nonzero
    multiple of pi.  The last three take t a power of 2, so that ct = x
    exactly."""
    b = draw(st.one_of(
        st.just(0.0), st.floats(-10.0, 10.0), st.floats(-1e120, 1e120),
        st.floats(5e102, 6e102),
    ))
    kind = draw(st.sampled_from(("plain", "c_zero", "cut", "subnormal_t", "near_pi")))
    if kind == "plain":
        return b, draw(st.floats(-50.0, 50.0)), draw(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        )
    if kind == "c_zero":
        return b, 0.0, draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    if kind == "subnormal_t":
        return b, draw(st.floats(-50.0, 50.0)), draw(st.floats(5e-324, 2.2e-308))
    t = 2.0 ** -draw(st.integers(1, 8))
    sign = draw(st.sampled_from((1.0, -1.0)))
    if kind == "cut":
        return b, sign * draw(st.sampled_from(_CUT_NEIGHBOURS)) / t, t
    x = draw(st.integers(1, 6)) * math.pi + draw(st.floats(-1e-12, 1e-12))
    return b, sign * x / t, t


@settings(max_examples=600, deadline=None, derandomize=True)
@given(bct=_closed_form_inputs())
@example(bct=(1.5942298095231322, 4.0, 0.9))  # K1 = 0 exactly: 1 / (t K1) divides by 0
def test_closed_forms_match_numpy_scalars_to_the_bit(bct):
    # the float path gives numpy's bits wherever numpy's checks pass, and
    # the class they raise where they fail (b ** 3 past float64 range,
    # a divisor that is 0, K1, sin(ct))
    b, c, t = bct
    params = rc.RiccatiParams(b, c, 1)
    expected = _closed_forms_on_numpy(params, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            F1, f3 = rc.closed_forms(params, t)
        except McplabError as exc:
            assert type(exc) is expected
            return
    assert not isinstance(expected, type), expected
    assert F1.tobytes() == expected[0].tobytes()
    assert type(f3) is float and _bits(f3) == _bits(expected[1])


# The numbers that no slot takes: a bool (numpy's too), a string, bytes,
# None, a complex, an integer past float64 range, NaN and infinity.  A
# scalar slot also refuses arrays of one or more numbers, a count slot a
# non-integer, and an array slot lists that hold any of these or that do
# not stack.
_NOT_REAL = ("0.5", b"0.5", None, True, np.True_, 1j, 10**400, np.nan, np.inf)
_REFUSED = {
    "real": _NOT_REAL + (np.array([0.5]), np.array([0.2, 0.5])),
    "count": _NOT_REAL + (np.array([1]), 1.5),
    "reals": _NOT_REAL + (["0.5"], [True], [None], [1j], [10**400], [np.nan],
                          np.array([True]), np.array(["0.5"]), [[0.5], [0.5, 0.6]]),
}

# Public classes and functions with no row in _input_table, and why.
EXEMPT = {
    "BlockMatrices": "a result of build_blocks",
    "RiccatiSolution": "a result of integrate_inverse_riccati",
    "Trajectory": "a result of geodesic_flow",
    "AdaptedFrame": "a result of adapted_frame",
    "DensityProfile": "a result of density_profile",
    "ScanReport": "a result of mcp_scan",
    "MonteCarloResult": "a result of monte_carlo_contraction",
    "CurvatureData": "a result of curvature",
    "IdentityResult": "a result of verify_structure_identities",
    "IdentityReport": "a result of verify_structure_identities",
    "HypothesisReport": "a result of check_main_hypotheses",
    "build_blocks": "takes a RiccatiParams, whose constructor reads b, c and n",
    "adapted_params": "takes a HeisenbergModel and a GeodesicState, which read their numbers",
    "adapted_frame": "takes a model and a trajectory, whose start it reads as a GeodesicState",
    "levi_civita": "takes a FrameAlgebra, whose constructor reads its arrays",
    "model_to_dict": "writes a model that FrameAlgebra and ContactStructure have read",
}
_NUMERICAL_MODULES = ("riccati", "heisenberg", "mcp", "frame_algebra")


def _input_table():
    """(name, what, kind, good, call, error) per numeric slot of each
    public function and constructor: call(x) calls name with x in that
    slot and valid values elsewhere, good is a valid x of the kind
    ("real", "count" or "reals"), and a refused x raises error naming
    what."""
    from mcplab import frame_algebra as fa
    from mcplab import heisenberg as hz
    from mcplab import mcp

    # conjugate_time's first zero, pi / 4, lies below its t_max of 1
    p, p4 = rc.RiccatiParams(-0.7, 1.1, 2), rc.RiccatiParams(-0.7, 4.0, 2)
    blocks = rc.build_blocks(p)
    W, R = blocks.W.tolist(), blocks.R.tolist()
    model = hz.HeisenbergModel(1, 2.0)
    state = hz.GeodesicState([0.0, 0.0, 0.0], [1.0, 0.5, 0.0])
    spec = mcp.VelocitySet(1.0, 1.0)
    alg, cs = fa.build_heisenberg_algebra(1, 2.0)
    lc = fa.levi_civita(alg)
    tw = fa.tanaka_webster(alg, cs, lc)
    curv_lc, curv_tw = fa.curvature(alg, lc), fa.curvature(alg, tw)
    data = fa.model_to_dict(alg, cs)
    mc = mcp.monte_carlo_contraction
    axes = {"b": [0.0, 1.0], "c": [-1.0, 1.0], "t": [0.2, 0.5]}

    def scan(slot, x):
        return mcp.mcp_scan(1, *(x if key == slot else axes[key] for key in "bct"))

    rows = [
        ("RiccatiParams", "b", "real", -0.7, lambda x: rc.RiccatiParams(x, 1.1, 2)),
        ("RiccatiParams", "c", "real", 2.0, lambda x: rc.RiccatiParams(-0.7, x, 2)),
        ("RiccatiParams", "n", "count", 2, lambda x: rc.RiccatiParams(-0.7, 1.1, x)),
        ("closed_forms", "t", "real", 0.5, lambda x: rc.closed_forms(p, x)),
        ("det_distortion", "t", "reals", [0.25, 0.5], lambda x: rc.det_distortion(p, x)),
        ("conjugate_time", "t_max", "real", 1.0, lambda x: rc.conjugate_time(p4, x)),
        ("jacobi_flow", "W", "reals", W, lambda x: rc.jacobi_flow(x, R, [0.5])),
        ("jacobi_flow", "R", "reals", R, lambda x: rc.jacobi_flow(W, x, [0.5])),
        ("jacobi_flow", "flow times", "reals", [0.25, 0.5], lambda x: rc.jacobi_flow(W, R, x)),
        ("integrate_inverse_riccati", "t_grid", "reals", [0.0, 0.5],
         lambda x: rc.integrate_inverse_riccati(p, blocks, x)),
        ("HeisenbergModel", "n", "count", 2, lambda x: hz.HeisenbergModel(x, 2.0)),
        ("HeisenbergModel", "eps", "real", 2.0, lambda x: hz.HeisenbergModel(1, x)),
        ("GeodesicState", "pos", "reals", [0.0, 1.0, 0.5],
         lambda x: hz.GeodesicState(x, [1.0, 0.5, 0.0])),
        ("GeodesicState", "vel", "reals", [1.0, 0.5, 0.0],
         lambda x: hz.GeodesicState([0.0, 0.0, 0.0], x)),
        ("geodesic_flow", "T", "real", 1.0, lambda x: hz.geodesic_flow(model, state, x)),
        ("jacobi_determinants_from_params", "b", "real", -0.7,
         lambda x: hz.jacobi_determinants_from_params(x, 1.1, [0.5])),
        ("jacobi_determinants_from_params", "c", "real", 1.0,
         lambda x: hz.jacobi_determinants_from_params(-0.7, x, [0.5])),
        ("jacobi_determinants_from_params", "evaluation times", "reals", [0.25, 0.5],
         lambda x: hz.jacobi_determinants_from_params(-0.7, 1.1, x)),
        ("jacobi_determinants_from_params", "n", "count", 2,
         lambda x: hz.jacobi_determinants_from_params(-0.7, 1.1, [0.5], n=x)),
        ("density", "t", "reals", [0.25, 0.5], lambda x: mcp.density(p, x)),
        ("contraction_bound", "n", "count", 2, lambda x: mcp.contraction_bound(x, 0.5)),
        ("contraction_bound", "t", "reals", [0.25, 0.5], lambda x: mcp.contraction_bound(2, x)),
        ("density_profile", "t", "reals", [0.0, 0.5], lambda x: mcp.density_profile(p, x)),
        ("mcp_scan", "n", "count", 1, lambda x: mcp.mcp_scan(x, *axes.values())),
        ("mcp_scan", "b values", "reals", axes["b"], lambda x: scan("b", x)),
        ("mcp_scan", "c values", "reals", axes["c"], lambda x: scan("c", x)),
        ("mcp_scan", "t values", "reals", axes["t"], lambda x: scan("t", x)),
        ("mcp_scan", "tol", "real", 0.5, lambda x: mcp.mcp_scan(1, *axes.values(), tol=x)),
        ("sharpness_scan", "n", "count", 1, lambda x: mcp.sharpness_scan(x, 0.5)),
        ("sharpness_scan", "t", "real", 0.5, lambda x: mcp.sharpness_scan(1, x)),
        ("sharpness_scan", "b_max", "real", 2.0, lambda x: mcp.sharpness_scan(1, 0.5, b_max=x)),
        ("VelocitySet", "horizontal_radius", "real", 2.0, lambda x: mcp.VelocitySet(x, 1.0)),
        ("VelocitySet", "vertical_momentum", "real", 1.0, lambda x: mcp.VelocitySet(2.0, x)),
        ("monte_carlo_contraction", "x0", "reals", [0.0, 1.0, 0.5],
         lambda x: mc(model, x, spec, 0.5, samples=1000)),
        ("monte_carlo_contraction", "t", "real", 0.5,
         lambda x: mc(model, [0.0, 0.0, 0.0], spec, x, samples=1000)),
        ("monte_carlo_contraction", "samples", "count", 1000,
         lambda x: mc(model, [0.0, 0.0, 0.0], spec, 0.5, samples=x)),
        ("monte_carlo_contraction", "seed", "count", 3,
         lambda x: mc(model, [0.0, 0.0, 0.0], spec, 0.5, samples=1000, seed=x)),
        ("quadrature_contraction", "t", "real", 0.5,
         lambda x: mcp.quadrature_contraction(model, spec, x)),
        ("FrameAlgebra", "bracket", "reals", alg.bracket.tolist(),
         lambda x: fa.FrameAlgebra(x, alg.metric)),
        ("FrameAlgebra", "metric", "reals", alg.metric.tolist(),
         lambda x: fa.FrameAlgebra(alg.bracket, x)),
        ("ContactStructure", "eta", "reals", cs.eta.tolist(),
         lambda x: fa.ContactStructure(x, cs.reeb, cs.J, cs.eps)),
        ("ContactStructure", "reeb", "reals", cs.reeb.tolist(),
         lambda x: fa.ContactStructure(cs.eta, x, cs.J, cs.eps)),
        ("ContactStructure", "J", "reals", cs.J.tolist(),
         lambda x: fa.ContactStructure(cs.eta, cs.reeb, x, cs.eps)),
        ("ContactStructure", "eps", "real", 2.0,
         lambda x: fa.ContactStructure(cs.eta, cs.reeb, cs.J, x)),
        ("build_heisenberg_algebra", "n", "count", 2,
         lambda x: fa.build_heisenberg_algebra(x, 2.0)),
        ("build_heisenberg_algebra", "eps", "real", 2.0,
         lambda x: fa.build_heisenberg_algebra(1, x)),
        ("tanaka_webster", "lc", "reals", lc.tolist(), lambda x: fa.tanaka_webster(alg, cs, x)),
        ("curvature", "gm", "reals", tw.tolist(), lambda x: fa.curvature(alg, x)),
        ("rescale_vertical", "new_eps", "real", 3.0, lambda x: fa.rescale_vertical(alg, cs, x)),
        ("verify_structure_identities", "tol", "real", 1e-10,
         lambda x: fa.verify_structure_identities(alg, cs, lc, tw, curv_lc, curv_tw, tol=x)),
        ("check_main_hypotheses", "samples", "count", 10,
         lambda x: fa.check_main_hypotheses(curv_tw, cs, alg.metric, samples=x)),
        ("check_main_hypotheses", "seed", "count", 3,
         lambda x: fa.check_main_hypotheses(curv_tw, cs, alg.metric, samples=10, seed=x)),
        ("check_main_hypotheses", "metric", "reals", alg.metric.tolist(),
         lambda x: fa.check_main_hypotheses(curv_tw, cs, x, samples=10)),
    ]
    errors = {"VelocitySet": VelocitySpecError}
    rows = [row + (errors.get(row[0], DomainError),) for row in rows]
    for key, kind in (("dim", "count"), ("metric", "reals"), ("eps", "real")):
        rows.append(("model_from_dict", key, kind, data[key],
                     lambda x, key=key: fa.model_from_dict({**data, key: x}),
                     ModelValidationError))
    return rows


def _same_kind(kind, good):
    """The other spellings of good that a slot of the kind takes: numpy
    scalars and 0-d arrays, Fractions, and int for an integer value, or
    an ndarray, a tuple and lists of numpy scalars or Fractions."""
    if kind == "reals":
        def each(f, v):
            return [each(f, u) for u in v] if isinstance(v, list) else f(v)
        return [np.array(good), tuple(good), each(np.float64, good), each(Fraction, good)]
    out = [np.float64(good), np.array(good), Fraction(good), float(good)]
    if float(good).is_integer():
        out += [int(good), np.int64(good), np.array(int(good))]
    if float(np.float32(good)) == good:
        out.append(np.float32(good))
    return out


def _fingerprint(value):
    """value's numbers as float64 bytes with their shapes, whatever their
    Python or numpy type, through dataclasses, dicts and sequences."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return {k: _fingerprint(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fingerprint(v) for v in value]
    if value is None or isinstance(value, (str, bool, np.bool_)):
        return value
    a = np.asarray(value, dtype=float)
    return a.shape, a.tobytes()


def test_non_real_input_is_a_domain_error():
    # every numeric slot of every public function and constructor of the
    # four numerical modules refuses what is no number of its kind with
    # the documented class, naming the slot, with no warning; and every
    # spelling of a valid number gives the bits of the plain float or int
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, what, kind, good, call, error in _input_table():
            for bad in _REFUSED[kind]:
                with pytest.raises(error) as err:
                    call(bad)
                assert type(err.value) is error, (name, what, bad)
                assert what in str(err.value), (name, what, bad)
            expected = _fingerprint(call(good))
            for same in _same_kind(kind, good):
                assert _fingerprint(call(same)) == expected, (name, what, same)


def test_the_input_table_covers_every_public_name():
    # a public class or function of the numerical modules that is in
    # neither the table nor EXEMPT has skipped the input contract
    root = Path(rc.__file__).parent
    public = set()
    for module in _NUMERICAL_MODULES:
        tree = ast.parse((root / f"{module}.py").read_text())
        public |= {
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
    tabled = {row[0] for row in _input_table()}
    assert not tabled & set(EXEMPT)
    assert sorted(public - tabled - set(EXEMPT)) == []
    assert sorted((tabled | set(EXEMPT)) - public) == []


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
    bl = rc.build_blocks(rc.RiccatiParams(b, c, n))
    W, R = bl.W, bl.R
    d = len(W)
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
                E = rc._taylor_expm(K, h)
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
        for Mk in M:
            E = rc._taylor_expm(Mk, h)
            assert E.shape == (len(h), m, m)
            # scipy itself is off by 5e-12 of the largest entry on the 2x2 of
            # 1-norm 74 here (50-digit mpmath; _taylor_expm is within 1e-15
            # there)
            ref = expm(Mk)
            assert np.max(np.abs(E[0] - ref)) <= 1e-10 * np.max(np.abs(ref))
            # each step h_i takes its own squarings: the mixed steps give
            # exactly the single-step results
            assert all(np.array_equal(E[i], rc._taylor_expm(Mk, [hi])[0])
                       for i, hi in enumerate(h))


def test_expm_of_zero_is_identity():
    for m in (1, 2, 6):
        E = rc._taylor_expm(np.zeros((m, m)), [1.0, 0.0])
        np.testing.assert_array_equal(E, np.broadcast_to(np.eye(m), (2, m, m)))
    E = rc._taylor_expm(np.ones((5, 5)), [0.0])
    np.testing.assert_array_equal(E[0], np.eye(5))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       norm=st.floats(1e-6, 20.0))
def test_expm_inverse_property(m, seed, norm):
    A = np.random.default_rng(seed).standard_normal((m, m))
    A *= norm / np.max(np.sum(np.abs(A), axis=0))
    E, Einv = rc._taylor_expm(A, [1.0, -1.0])
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
    W = np.zeros((3, 3))
    R = np.eye(3)
    A, Ap = rc.jacobi_flow(W, R, [0.0, 0.5])
    assert A.shape == Ap.shape == (2, 3, 3)
    # R = I, W = 0: A(s) = sin(s) I, A'(s) = cos(s) I
    np.testing.assert_array_equal(A[0], 0.0)
    np.testing.assert_array_equal(Ap[0], np.eye(3))
    np.testing.assert_allclose(A[1], np.sin(0.5) * np.eye(3), atol=1e-15)
    np.testing.assert_allclose(Ap[1], np.cos(0.5) * np.eye(3), atol=1e-15)
    for bad in ([], [-0.1, 0.5], [0.5, 0.5], [0.5, 0.2], [0.1, np.nan]):
        with pytest.raises(DomainError):
            rc.jacobi_flow(W, R, bad)
    with pytest.raises(DomainError):
        rc.jacobi_flow(W, np.full((3, 3), np.nan), [0.5])
    # one system only: a stack, a non-square pair, a mismatched pair and
    # an empty pair are refused
    for Wb, Rb in ((np.zeros((4, 3, 3)), np.zeros((4, 3, 3)) + np.eye(3)),
                   (np.zeros((3, 3)), np.zeros((4, 3, 3)) + np.eye(3)),
                   (np.zeros((3, 4)), np.zeros((3, 4))),
                   (W, np.eye(2)), (W, 1.0), (np.zeros((0, 0)), np.zeros((0, 0)))):
        with pytest.raises(DomainError, match="d x d"):
            rc.jacobi_flow(Wb, Rb, [0.5])
    # one bad entry in W alone or in R alone: Python's max(1.0, nan) is
    # 1.0, so the step rate must not be where a NaN is lost
    for bad in (np.nan, np.inf, -np.inf):
        for which in ("W", "R"):
            M = {"W": np.zeros((3, 3)), "R": np.eye(3)}
            M[which][1, 2] = bad
            with pytest.raises(DomainError, match="finite"):
                rc.jacobi_flow(M["W"], M["R"], [0.5])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, 2, 19]),
    b=st.floats(-50.0, 50.0),
    c=st.floats(-5.0, 5.0),
    gaps=st.lists(st.floats(1e-3, 0.2), min_size=2, max_size=30),
    start=st.floats(0.0, 0.5),
    cut=st.floats(0.0, 1.0),
)
def test_jacobi_flow_prefix_is_bit_identical(n, b, c, gaps, start, cut):
    # A and A' at s[:k] are, bit for bit, the first k rows of the flow on
    # s: each interval's exponential does not depend on the other steps
    # or on where the groups of _EXPM_ENTRIES entries end (at n = 19 a
    # group is 10 intervals, so 30 times span three groups)
    bl = rc.build_blocks(rc.RiccatiParams(b, c, n))
    s = start + np.cumsum(gaps)
    k = max(1, int(cut * len(s)))
    A, Ap = rc.jacobi_flow(bl.W, bl.R, s)
    A_k, Ap_k = rc.jacobi_flow(bl.W, bl.R, s[:k])
    assert A_k.tobytes() == A[:k].tobytes()
    assert Ap_k.tobytes() == Ap[:k].tobytes()


def test_inverse_riccati_euclidean():
    p = rc.RiccatiParams(0.0, 0.0, 2)
    sol = rc.integrate_inverse_riccati(p, rc.build_blocks(p), np.array([0.0, 0.5]))
    assert sol.singular[0] and not sol.singular[1]
    np.testing.assert_allclose(sol.F1[1], -2.0 * np.eye(3), atol=1e-10)
    assert np.trace(sol.F1[1]) == pytest.approx(-6.0, rel=1e-10)
    assert np.trace(sol.F3[1]) == pytest.approx(-4.0, rel=1e-10)
    assert np.isnan(np.trace(sol.F1[0]))


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
    F, _ = rc._riccati_branch(bl.W, bl.R, t_grid)
    assert np.max(np.abs(F[1:, :3, 3:])) < 1e-12
    assert np.max(np.abs(F[1:, 3:, :3])) < 1e-12
    sol = rc.integrate_inverse_riccati(p, bl, t_grid)
    F1, _ = rc._riccati_branch(bl.W[:3, :3], bl.R[:3, :3], t_grid)
    F3, _ = rc._riccati_branch(np.zeros((2, 2)), bl.R[3:, 3:], t_grid)
    np.testing.assert_allclose(sol.F1[1:], F1[1:], atol=1e-9)
    np.testing.assert_allclose(sol.F3[1:], F3[1:], atol=1e-9)


def _inverse_branch(p, t_grid):
    """G(t) = F(1 - t)^{-1} = -(A' - A W)^{-1} A from the backward Jacobi
    flow, which stays regular through the conjugate points where F blows
    up."""
    bl = rc.build_blocks(p)
    A, Ap = rc.jacobi_flow(-bl.W, bl.R, t_grid)
    return -np.linalg.solve(Ap - A @ bl.W, A)


def test_det_g1_behavior_at_first_conjugate_time():
    # simple zero for b != 0 (sign change); double zero at b = 0 (touch)
    t_star = np.pi / 3.5
    grid = np.array([t_star - 0.02, t_star + 0.02])
    G = _inverse_branch(rc.RiccatiParams(1.0, 3.5, 1), grid)
    d_before, d_after = np.linalg.det(G)
    assert d_before < 0.0 < d_after
    G = _inverse_branch(rc.RiccatiParams(0.0, 3.5, 1), grid)
    assert np.all(np.linalg.det(G) < 0.0)


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


def test_det_distortion_refuses_non_finite_times():
    # np.sin(inf) is NaN with a RuntimeWarning: a time that is not finite
    # is refused before the kernels see it, and a finite time whose c t
    # leaves float64 range (1e310) gives a det A that is refused after
    p = rc.RiccatiParams(-1.0, 1.0, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (np.inf, -np.inf, np.nan, [0.5, np.inf], [np.nan, 0.5]):
            with pytest.raises(DomainError, match="finite"):
                rc.det_distortion(p, t)
        with pytest.raises(DomainError, match="finite"):
            rc.det_distortion(rc.RiccatiParams(0.0, 1e300), [1e10])
        assert rc.det_distortion(p, [0.5]).shape == (1,)


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
    flat = rc.build_blocks(p)
    sf = rc.integrate_inverse_riccati(p, flat, grid)
    for rbar in (split, coupled):
        blocks = rc.BlockMatrices(W=flat.W, R=flat.R + rbar)
        sc = rc.integrate_inverse_riccati(p, blocks, grid)
        for k in range(1, len(grid)):
            # F1 - F1_flat is positive semidefinite; both are symmetric
            for F in (sc.F1[k], sf.F1[k]):
                assert np.max(np.abs(F - F.T)) <= 1e-9
            D = sc.F1[k] - sf.F1[k]
            assert np.linalg.eigvalsh(0.5 * (D + D.T)).min() >= -1e-8
            assert np.trace(sc.F3[k]) >= np.trace(sf.F3[k]) - 1e-8
    # and the flat F3 trace is exactly the comparison solution
    for k in range(1, len(grid)):
        assert np.trace(sf.F3[k]) == pytest.approx(_f3_tilde(p.c, grid[k], p.n), abs=1e-8)


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
