"""Tests for the contraction density, MCP scans, and set-level estimates."""

import json
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcplab.cli import main
from mcplab.errors import DomainError, OutOfRegimeError, VelocitySpecError
from mcplab.heisenberg import HeisenbergModel, jacobi_determinants_from_params
from mcplab.mcp import (
    DensityProfile,
    VelocitySet,
    contraction_bound,
    density,
    density_profile,
    mcp_scan,
    monte_carlo_contraction,
    quadrature_contraction,
    sharpness_scan,
)
from mcplab.riccati import RiccatiParams, _det_a
from mcplab.scalars import _block_ratios, _density_ratio, _scale_b


def _mp_det_ratio(b, c, n, t):
    """D(t) / (1-t)^(2n+3) at mpmath's working precision, written out from
    det A(s) = (s^3 sinc^2 + b^2 s^5 sinc sxc)(s sinc)^(2n-2) at x = cs."""
    def det_a(s):
        x = mpmath.mpf(c) * s
        sinc = mpmath.sin(x) / x
        sxc = (mpmath.sin(x) - x * mpmath.cos(x)) / x**3
        d1 = s**3 * sinc**2 + mpmath.mpf(b) ** 2 * s**5 * sinc * sxc
        return d1 * (s * sinc) ** (2 * n - 2)

    s = 1 - mpmath.mpf(t)
    return det_a(s) / det_a(mpmath.mpf(1)) / s ** (2 * n + 3)


def _mp_ratio(b, c, n, ts):
    """_mp_det_ratio in 50-digit mpmath, as floats."""
    with mpmath.workdps(50):
        return [float(_mp_det_ratio(b, c, n, t)) for t in ts]


# The c values of the scan that sharpness_scan ran before it took its
# closed form, kept here as an independent oracle of that form.
_SCAN_C = np.geomspace(1e-4, np.pi - 1e-9, 200)


def _c_scan(n, t, b_max):
    """The least ratio on the rows b = 0 and b = b_max at the c of _SCAN_C."""
    with np.errstate(all="ignore"):
        return float(np.min(_density_ratio(np.array([[0.0], [b_max]]), _SCAN_C, n, t)[1]))


def test_density_euclidean_limit():
    for n in (1, 2):
        p = RiccatiParams(b=0.0, c=0.0, n=n)
        t = np.array([0.0, 0.25, 0.5, 0.9])
        assert np.allclose(density(p, t), (1.0 - t) ** (2 * n + 1), rtol=1e-12)
    assert density(RiccatiParams(b=0.0, c=0.0), 0.0) == 1.0


def test_density_quarter_turn_value():
    # b = 0, c = pi/2, n = 1: D(t) = (1-t) sin^2(pi (1-t) / 2)
    p = RiccatiParams(b=0.0, c=np.pi / 2, n=1)
    assert density(p, 0.5) == pytest.approx(0.25, rel=1e-12)
    for t in (0.1, 0.3, 0.7):
        expect = (1 - t) * np.sin(np.pi * (1 - t) / 2) ** 2
        assert density(p, t) == pytest.approx(expect, rel=1e-12)


def test_density_sharp_regime():
    # large b, tiny c: the density approaches the bound (1-t)^5 for n = 1
    p = RiccatiParams(b=1e3, c=1e-3, n=1)
    assert density(p, 0.5) == pytest.approx(0.5**5, rel=1e-2)


def test_density_matches_ode_determinant_ratio():
    for b, c, n in ((-1.0, 1.0, 1), (-0.5, 2.5, 2), (-3.0, -1.5, 1)):
        p = RiccatiParams(b=b, c=c, n=n)
        for t in (0.3, 0.5, 0.9):
            d1, d0 = jacobi_determinants_from_params(b, c, [1.0 - t, 1.0], n=n)
            assert density(p, t) == pytest.approx(d1 / d0, rel=1e-6)


def test_density_even_in_b_and_c():
    t = np.linspace(0.0, 0.9, 7)
    base = density(RiccatiParams(b=-1.2, c=0.7, n=2), t)
    for b, c in ((1.2, 0.7), (-1.2, -0.7), (1.2, -0.7)):
        assert np.allclose(density(RiccatiParams(b=b, c=c, n=2), t), base, rtol=1e-13)


def test_density_monotone_decreasing_up_to_half_turn():
    # D is strictly decreasing whenever |c| <= pi/2 (every closed-form
    # trace term keeps its sign there); past pi/2 this genuinely fails:
    # det A(s) peaks before its first conjugate time, so for larger |c|
    # the ratio D(t) initially rises above 1
    t = np.linspace(0.0, 0.95, 96)
    for b in (0.0, -1.0, -10.0):
        for c in (0.0, 1.0, np.pi / 2):
            d = density(RiccatiParams(b=b, c=c, n=1), t)
            assert np.all(np.diff(d) < 0.0)
    d = density(RiccatiParams(b=0.0, c=2.8, n=1), t)
    assert np.max(d) > 1.0
    assert not np.all(np.diff(d) < 0.0)


def test_density_domain_errors():
    p = RiccatiParams(b=0.0, c=0.0, n=1)
    with pytest.raises(DomainError):
        density(p, 1.0)
    with pytest.raises(DomainError):
        density(p, -0.1)
    with pytest.raises(OutOfRegimeError):
        density(RiccatiParams(b=0.0, c=np.pi, n=1), 0.5)
    with pytest.raises(DomainError):
        density(p, np.array([0.5, np.nan]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    b=st.one_of(st.floats(0.0, 1e4), st.floats(1e2, 1e4)),
    c=st.one_of(
        st.floats(-np.pi, np.pi, exclude_min=True, exclude_max=True),
        st.floats(-1e-3, 1e-3),
    ),
    t=st.floats(0.0, 1.0, exclude_max=True),
    n=st.integers(1, 4),
)
def test_density_properties(b, c, t, n):
    # D(0) = 1, D is even in b and in c, and D(t) >= (1-t)^(2n+3); the
    # large-b, small-|c| draws approach the bound
    d = density(RiccatiParams(b=b, c=c, n=n), t)
    assert density(RiccatiParams(b=b, c=c, n=n), 0.0) == 1.0
    assert density(RiccatiParams(b=-b, c=c, n=n), t) == d
    assert density(RiccatiParams(b=b, c=-c, n=n), t) == d
    assert d >= contraction_bound(n, t) - 1e-9


def test_density_profile_and_csv(tmp_path):
    p = RiccatiParams(b=-2.0, c=1.0, n=1)
    t = np.linspace(0.0, 0.9, 10)
    prof = density_profile(p, t)
    assert isinstance(prof, DensityProfile)
    assert prof.density[0] == 1.0
    assert min(prof.ratio) >= 1.0 - 1e-9
    assert np.allclose(prof.bound, contraction_bound(1, t))
    # the CSV report carries the same numbers
    path = tmp_path / "profile.csv"
    argv = ["density-profile", "--b", "-2", "--c", "1", "--t", "0:0.9:10",
            "--output", str(path)]
    assert main(argv) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "b,c,t,density,bound,ratio"
    assert len(lines) == 11
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all(rows[:, 0] == -2.0) and np.all(rows[:, 1] == 1.0)
    for k, column in enumerate((prof.t_grid, prof.density, prof.bound, prof.ratio), 2):
        np.testing.assert_array_equal(rows[:, k], column)
    # the profile's loop on Python floats rounds each power with the C
    # library's pow, density and contraction_bound on arrays with numpy's:
    # they agree within 4 ulp (2 at most measured, 0 at n = 1)
    t = np.linspace(0.0, 0.95, 20)
    for n in (1, 2, 3, 20):
        for b, c in ((0.0, 0.0), (-2.0, 1.0), (50.0, -3.1), (1e160, 0.7), (-1e-3, 2.5)):
            p = RiccatiParams(b=b, c=c, n=n)
            prof = density_profile(p, t)
            assert prof.t_grid == t.tolist()
            np.testing.assert_array_max_ulp(prof.density, density(p, t), maxulp=4)
            np.testing.assert_array_max_ulp(prof.bound, contraction_bound(n, t), maxulp=4)
            ratio = _density_ratio(b, c, n, t)[1]
            np.testing.assert_array_max_ulp(prof.ratio, ratio, maxulp=4)


def _scan_axes(count):
    """The b, c and t axes of mcp-scan's default ranges, count points each."""
    return (np.linspace(0.0, 10.0, count), np.linspace(-3.0, 3.0, count),
            np.linspace(0.05, 0.95, count))


def test_mcp_scan_holds_on_grid():
    report = mcp_scan(1, *_scan_axes(20))
    assert report.ok
    assert report.violations == []
    assert report.min_ratio >= 1.0 - 1e-9
    b, c, t = report.argmin
    assert 0.0 <= b <= 10.0 and abs(c) <= 3.0 and 0.05 <= t <= 0.95
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["ok"] is True
    assert blob["exponent"] == 5
    # both readings of the two-block display at b = c = 1, t = 0.5: the
    # sum of the block factors exceeds 1 and is clearly not a density,
    # their product is the density
    n, s = 1, 0.5
    d1 = float(_det_a(1.0, 1.0, 1, s) / _det_a(1.0, 1.0, 1, 1.0))
    d3 = float((np.sin(s) / np.sin(1.0)) ** (2 * n - 2))
    assert d1 + d3 > 1.0
    assert 0.0 < d1 * d3 < 1.0
    assert d1 * d3 == pytest.approx(density(RiccatiParams(1.0, 1.0, n), 0.5), rel=1e-14)


def test_mcp_scan_higher_n():
    for n in (2, 3):
        report = mcp_scan(n, *_scan_axes(12))
        assert report.violations == []
        assert json.loads(json.dumps(report.to_dict()))["exponent"] == 2 * n + 3


def test_mcp_scan_validation():
    b, c, t = _scan_axes(50)
    with pytest.raises(DomainError):
        mcp_scan(0, b, c, t)
    with pytest.raises(DomainError):
        mcp_scan(1, b, np.linspace(-np.pi, 1.0, 50), t)
    with pytest.raises(DomainError):
        mcp_scan(1, b, c, np.linspace(0.5, 1.0, 50))
    with pytest.raises(DomainError, match="non-empty"):
        mcp_scan(1, b, c, [])
    with pytest.raises(DomainError, match="non-empty"):
        mcp_scan(1, b, c, t[None, :])
    # the axes are lists of floats (errors._floats): an empty tuple or
    # array, a number and a 0-d array are no axes either
    for axis in ((), np.array([]), 0.5, np.float64(0.5), np.array(0.5)):
        with pytest.raises(DomainError, match="non-empty 1-d"):
            mcp_scan(1, b, c, axis)
    with pytest.raises(DomainError, match="non-decreasing"):
        mcp_scan(1, b, c, np.linspace(0.9, 0.1, 50))


def test_mcp_scan_reports_violations():
    # tol = -1 asks for ratios >= 2, which part of the grid misses
    report = mcp_scan(1, *_scan_axes(3), tol=-1.0)
    expected = []
    for b in report.b_values:
        for c in report.c_values:
            for t in report.t_values:
                ratio = density(RiccatiParams(b=b, c=c, n=1), t) / contraction_bound(1, t)
                if ratio < 2.0:
                    expected.append((b, c, t, ratio))
    assert not report.ok and 0 < len(expected) < 27
    got = [(v["b"], v["c"], v["t"], v["ratio"]) for v in report.violations]
    np.testing.assert_allclose(got, expected, rtol=1e-13)
    # an infinite bound, or a width past float64 range, gives an axis with
    # values that are not finite, refused before the ratio is evaluated;
    # finite b past b^2's range gives no NaN ratio
    # (test_ratios_past_b_squared_overflow)
    _, c, t = _scan_axes(3)
    for b_range in ((0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (-1e308, 1e308)):
        with np.errstate(all="ignore"):
            b = np.linspace(*b_range, 3)
        with pytest.raises(DomainError, match="must be finite"):
            mcp_scan(1, b, c, t)


@pytest.mark.parametrize("n", [1, 2, 3, 20])
def test_mcp_scan_is_the_array_ratio_on_the_full_grid(n):
    # the float scan against _density_ratio on broadcast arrays: the same
    # argmin and the violations in np.argwhere's order.  At n = 1 every
    # ratio agrees to the bit (the powers of s are products on both
    # paths); the parallel factor's float ** is the C library's pow and
    # numpy's array ** may round it an ulp apart
    grids = [
        _scan_axes(9),
        (np.linspace(0.0, 10.0, 4), np.linspace(-3.1, 3.1, 6), np.linspace(0.0, 0.999, 8)),
        # b past 2^512, where b and the b-free term are rescaled
        (np.linspace(0.0, 1e160, 5), np.linspace(-1.0, 1.0, 5), np.linspace(0.1, 0.9, 5)),
        # single points, and equal values whose first minimum wins
        (np.array([2.5]), np.linspace(-3.0, 3.0, 7), np.array([0.5])),
        (np.zeros(3), np.array([-1.0, -1.0, 1.0]), np.array([0.3, 0.3])),
    ]
    for b, c, t in grids:
        with np.errstate(over="ignore"):  # b^2 past 2^1024, as mcp.density runs it
            ratio = _density_ratio(b[:, None, None], c[None, :, None], n, t[None, None, :])[1]
        i = np.unravel_index(np.argmin(ratio), ratio.shape)
        where = np.argwhere(~(ratio >= 2.0))
        scan = mcp_scan(n, b, c, t, tol=-1.0)
        assert scan.argmin == (b[i[0]], c[i[1]], t[i[2]])
        assert [(v["b"], v["c"], v["t"]) for v in scan.violations] == [
            (b[j], c[k], t[m]) for j, k, m in where]
        got = np.array([scan.min_ratio] + [v["ratio"] for v in scan.violations])
        want = np.concatenate(([ratio[i]], ratio[tuple(where.T)]))
        if n == 1:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_array_max_ulp(got, want, maxulp=4)
        assert scan.b_values == b.tolist() and scan.to_dict()["grid_shape"] == list(ratio.shape)
    if n == 20:
        # near c = pi the parallel factor's power overflows: the float **
        # raises OverflowError, read as inf, which the array ** gives
        scan = mcp_scan(n, [0.0], [3.14159265], [0.5])
        with np.errstate(over="ignore"):
            assert scan.min_ratio == np.inf == _density_ratio(0.0, np.array(3.14159265), n, 0.5)[1]
        assert scan.ok and scan.argmin == (0.0, 3.14159265, 0.5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    b=st.one_of(st.floats(0.0, 1e4), st.floats(-10.0, 10.0)),
    c=st.floats(-3.1, 3.1),
    t=st.floats(0.0, 0.999),
    n=st.integers(1, 200),
)
def test_per_block_ratio_matches_density_over_bound(b, c, t, n):
    # the per-block ratio is density / bound wherever neither underflows
    with np.errstate(all="ignore"):
        normal = min(_det_a(b, c, n, 1.0), _det_a(b, c, n, 1.0 - t), (1.0 - t) ** (2 * n + 3))
    assume(normal > 1e-290)
    dens = density(RiccatiParams(b=b, c=c, n=n), t)
    ratio = _density_ratio(b, c, n, t)[1]
    assert ratio == pytest.approx(dens / contraction_bound(n, t), rel=1e-12)


def test_per_block_ratio_against_mpmath_at_large_n():
    # where density and bound underflow, the ratio stays finite and exact
    for b, c, n in ((0.0, 1e-3, 20), (3.0, -2.5, 20), (1.0, 0.5, 200), (50.0, 1.0, 1000)):
        ts = [0.1, 0.5, 0.9, 0.99999999]
        ratio = _density_ratio(b, c, n, np.array(ts))[1]
        np.testing.assert_allclose(ratio, _mp_ratio(b, c, n, ts), rtol=1e-12)


def test_density_where_det_a_underflows_against_mpmath():
    # sinc(c)^(2n) underflows det A(1) here, which once read as a
    # non-positive normalization; per block the density is finite.  The
    # (2n-2)th power can magnify the base's rounding to about 2n ulp
    # (measured: 2.1e-15)
    b, c, n, t = 0.0, 3.0625, 102, 0.3
    with mpmath.workdps(50):
        def det_a(s):
            x = mpmath.mpf(c) * s
            return s**3 * (mpmath.sin(x) / x) ** 2 * (mpmath.sin(x) / c) ** (2 * n - 2)

        expect = float(det_a(1 - mpmath.mpf(t)) / det_a(mpmath.mpf(1)))
    with np.errstate(under="ignore"):
        assert _det_a(b, c, n, 1.0) == 0.0
    assert density(RiccatiParams(b=b, c=c, n=n), t) == pytest.approx(expect, rel=3e-14)
    assert expect == pytest.approx(2.0076e209, rel=1e-4)


def test_ratio_at_small_scalars():
    # b = 0, c -> 0: ratio = (1-t)^(-2) exactly in the limit
    p = RiccatiParams(b=0.0, c=1e-9, n=1)
    for t in (0.3, 0.5):
        ratio = density(p, t) / contraction_bound(1, t)
        assert ratio == pytest.approx((1.0 - t) ** -2, rel=1e-9)


def test_b_zero_slice_not_sharp():
    # on the b = 0 slice the ratio never drops below (1-t)^(-2) > 1
    t = 0.5
    c = np.linspace(1e-6, np.pi - 1e-6, 500)[None, :]
    for n in (1, 2):
        dens = _det_a(0.0, c, n, 1.0 - t) / _det_a(0.0, c, n, 1.0)
        ratio = dens / (1.0 - t) ** (2 * n + 3)
        assert np.min(ratio) >= (1.0 - t) ** -2 - 1e-9
        assert np.min(ratio) == pytest.approx((1.0 - t) ** -2, rel=1e-3)


def test_sharpness_scan():
    # the closed form lies below the scan it replaced, at every n, and the
    # scan's minimum exceeds it by at most n c_min^2 relative, c_min = 1e-4
    # its smallest c: the ratio at small c exceeds its c = 0 value by about
    # c^2 (1 - s^2) (4/15 + (n - 1) / 3).  From n = 17 the scan's ratio
    # overflows to inf near c = pi, above the infimum
    for t, cap in ((0.3, 1.02), (0.5, 1.02), (0.9, 1.05)):
        inf_est = sharpness_scan(t)
        assert 1.0 - 1e-9 <= inf_est <= cap
        for n in (1, 2, 3, 16, 17, 20):
            grid = _c_scan(n, t, 1e4)
            assert inf_est <= grid + 2 * np.spacing(grid), (n, t)
            assert grid - inf_est <= n * _SCAN_C[0] ** 2 * inf_est, (n, t)
    with pytest.raises(DomainError):
        sharpness_scan(1.0)
    for t, b_max in ((0.0, 1e4), (-3.0, 1e4), (0.5, 0.0), (0.5, -5.0), (0.5, np.nan),
                     (0.5, np.inf)):
        with pytest.raises(DomainError):
            sharpness_scan(t, b_max=b_max)


def test_sharpness_scan_below_b_max_of_a_hundredth():
    # the infimum over b in [0, 1e-3], not the ratio at b = 0.01 (3.9999000)
    # above b_max; a 50 x 200 grid lies above it, by at most c_min^2
    b = np.linspace(0.0, 1e-3, 50)[:, None]
    grid_min = float(np.min(_density_ratio(b, _SCAN_C, 1, 0.5)[1]))
    got = sharpness_scan(0.5, b_max=1e-3)
    assert got <= grid_min <= got * (1.0 + _SCAN_C[0] ** 2)
    assert got == pytest.approx(3.999999000, abs=1e-9)


def test_sharpness_formula_against_mpmath():
    # sharpness_scan to 9 roundings of 2^-53 relative of its 40-digit
    # value (8 in the quotient, which is at most the value, and 1 in the
    # sum), which lies below the 40-digit ratio at every point of the scan
    # it replaced, at each n, and within n c_min^2 relative of that scan's
    # minimum
    with mpmath.workdps(40):
        for t in (0.001, 0.3, 0.5, 0.9, 0.999):
            for b_max in (1e-3, 0.5, 1.0, 1e4):
                tt, bb = mpmath.mpf(t), mpmath.mpf(b_max)
                exact = 1 + 3 * tt * (2 - tt) / ((1 - tt) ** 2 * (3 + bb * bb))
                got = sharpness_scan(t, b_max=b_max)
                assert abs(got - exact) <= 9 * 2.0**-53 * exact, (t, b_max)
                if t not in (0.3, 0.9) or b_max not in (1.0, 1e4):
                    continue
                for n in (1, 2, 3, 20):
                    grid = min(_mp_det_ratio(b, c, n, t) for b in (0.0, b_max) for c in _SCAN_C)
                    assert exact < grid <= exact * (1 + n * _SCAN_C[0] ** 2), (t, b_max, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 5),
    t=st.floats(0.01, 0.99),
    c=st.floats(-np.pi + 1e-6, np.pi - 1e-6),
    b_frac=st.floats(0.0, 1.0),
    b_max=st.floats(0.0, 1e6),
)
def test_density_over_bound_is_least_at_an_end_of_the_b_range(n, t, c, b_frac, b_max):
    # the monotonicity in beta that sharpness_scan's closed form rests
    # on, checked on density and contraction_bound, which do not use it
    def ratio(b):
        return density(RiccatiParams(b=b, c=c, n=n), t) / contraction_bound(n, t)

    ends = min(ratio(0.0), ratio(b_max))
    assert ratio(b_frac * b_max) >= ends * (1.0 - 4 * np.finfo(float).eps)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 20),
    t=st.floats(0.0, 0.999, exclude_min=True),
    c=st.one_of(st.floats(-np.pi + 1e-6, np.pi - 1e-6), st.floats(-1e-6, 1e-6)),
    b=st.one_of(st.floats(-1e6, 1e6), st.floats(1e6, 1e300)),
)
def test_ratio_is_at_least_the_sharpness_infimum(n, t, c, b):
    # the ratio at (b, c) is at least the closed-form infimum over
    # [0, |b|] x (0, pi), less its rounding, 4 (2n+3) ulp; near equality,
    # at small c and large b, 2e5 random draws fell at most 0.45 (2n+3)
    # ulp below it
    with np.errstate(all="ignore"):
        ratio = _density_ratio(b, c, n, t)[1]
    bound = sharpness_scan(t, b_max=max(abs(b), 5e-324))
    assert ratio >= bound * (1.0 - 4 * (2 * n + 3) * np.finfo(float).eps)


def test_out_of_float_range_raises_domain_error():
    # finite inputs whose ratio overflows or underflows to inf or NaN;
    # np.errstate keeps the warnings (raised here as exceptions) quiet.
    # b^2 past float64 range no longer does (test_ratios_past_b_squared_overflow);
    # the parallel factor (s sinc(cs) / sinc(c))^(2n-2), here about
    # (1.7e9)^38, still overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge_factor = RiccatiParams(b=1.0, c=3.141592653, n=20)
        with pytest.raises(DomainError):
            density(huge_factor, 0.5)
        with pytest.raises(DomainError):
            density_profile(huge_factor, [0.0, 0.5])
        # (0.01 sinc)^398 underflows to 0 in both density and bound, but
        # the per-block ratio does not
        prof = density_profile(RiccatiParams(b=1.0, c=0.5, n=200), [0.5, 0.99])
        assert prof.density[1] == 0.0 and prof.bound[1] == 0.0
        np.testing.assert_allclose(prof.ratio, _mp_ratio(1.0, 0.5, 200, prof.t_grid), rtol=1e-12)


def test_ratios_past_b_squared_overflow():
    # from |b| = 2^512 b^2 overflows, and the block ratio used to be
    # inf / inf = NaN.  Rescaled, it is finite there and tends to its
    # b -> infinity limit, which |b| = 1e150 (b^2 = 1e300) already reaches
    # within rounding; below 2^512 it is the unscaled quotient to the bit.
    # The closed form's b_max^2 is inf there, and its infimum exactly 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b_max in (1e150, 2.0**512, 1e160, 1e308):
            assert sharpness_scan(0.5, b_max=b_max) == 1.0, b_max
            assert 1.0 < _c_scan(1, 0.5, b_max) <= 1.0 + _SCAN_C[0] ** 2, b_max
        assert sharpness_scan(1e-300, b_max=1e300) == 1.0
        t = np.linspace(0.0, 0.9, 5)
        ref = density_profile(RiccatiParams(b=1e150, c=1.0, n=2), t)
        for b in (2.0**512, 1e160, 1e308):
            prof = density_profile(RiccatiParams(b=b, c=1.0, n=2), t)
            np.testing.assert_allclose(prof.density, ref.density, rtol=4e-16, atol=0)
            np.testing.assert_allclose(prof.ratio, ref.ratio, rtol=4e-16, atol=0)
        scan = mcp_scan(1, np.linspace(0.0, 1e160, 5), np.linspace(-1.0, 1.0, 5),
                        np.linspace(0.1, 0.9, 5))
        assert scan.ok and 1.0 - 1e-9 <= scan.min_ratio
    c = np.linspace(-3.0, 3.0, 7)[:, None]
    s = np.linspace(0.05, 1.0, 6)
    for b in (0.0, -1.0, 1e3, 1e150, np.nextafter(2.0**512, 0.0)):
        f1, f3 = _block_ratios(b, c, s)
        assert f1.tobytes() == (_det_a(b, c, 1, s) / _det_a(b, c, 1, 1.0)).tobytes()
    # _scale_b's float branch (math.frexp, math.ldexp) gives its array
    # branch's bits, on both sides of 2^512
    for b in (0.0, -1.0, 1e150, np.nextafter(2.0**512, 0.0), 2.0**512, -1e200, 1e308, 5e-324):
        pair = _scale_b(float(b), float(b))
        assert all(type(v) is float for v in pair)
        with np.errstate(over="ignore"):  # as its callers run it
            array = _scale_b(np.array([b]), np.array([b]))
        assert np.array(pair).tobytes() == np.concatenate(array).tobytes(), b


def test_mcp_scan_grid_cap():
    # 216^3 > 10^7 points is refused before the grid is built
    with pytest.raises(DomainError, match="points"):
        mcp_scan(1, *_scan_axes(216))
    with pytest.raises(DomainError):
        mcp_scan(1, *_scan_axes(10**6))


def test_velocity_set_validation():
    with pytest.raises(VelocitySpecError):
        VelocitySet(horizontal_radius=0.0, vertical_momentum=1.0)
    with pytest.raises(VelocitySpecError):
        VelocitySet(horizontal_radius=1.0, vertical_momentum=-1.0)
    assert VelocitySet(2.0, 5.0).c_max == 2.5


def test_flow_determinants_match_closed_form():
    # the Monte Carlo weights, the Jacobians of the time-s exponential map,
    # over several chunks and a partial one, against the closed form at
    # the sizes of a radius-2, momentum-5 set: eps times the Jacobian at
    # (u0, |w|) = (2c / eps, -2b / eps) is det A(s) of (b, c)
    from mcplab.mcp import _DET_CHUNK, _exp_dets

    rng = np.random.default_rng(0)
    N = 2 * _DET_CHUNK + 37
    b = -2.0 * rng.random(N)
    c = rng.uniform(-2.5, 2.5, N)
    for n in (1, 2, 3, 5, 20):
        for eps in (0.5, 2.0):
            model = HeisenbergModel(n=n, eps=eps)
            dets = _exp_dets(model, 2.0 * c / eps, (2.0 * b / eps) ** 2, [0.6, 1.0])
            for row, s in zip(dets, (0.6, 1.0)):
                np.testing.assert_allclose(eps * row, _det_a(b, c, n, s), rtol=1e-12, atol=0)


def test_monte_carlo_tiny_ball_is_euclidean():
    for n in (1, 2):
        model = HeisenbergModel(n=n, eps=1.0)
        spec = VelocitySet(horizontal_radius=1e-3, vertical_momentum=1e-3)
        res = monte_carlo_contraction(
            model, np.zeros(model.dim), spec, t=0.5, samples=2000
        )
        expect = 0.5 ** (2 * n + 1)
        # deviation from the Euclidean value is quadratic in the ball size
        assert res.ratio == pytest.approx(expect, abs=3 * res.std_error + 1e-6)
        assert res.std_error < 1e-3
        assert res.rejected_fraction == 0.0


def test_monte_carlo_satisfies_contraction_bound():
    model = HeisenbergModel(n=1, eps=1.0)
    spec = VelocitySet(horizontal_radius=2.0, vertical_momentum=5.0)
    res = monte_carlo_contraction(
        model, np.zeros(3), spec, t=0.3, samples=4000, seed=7
    )
    assert res.passes
    assert res.ratio >= 0.7**5 * (1.0 - 3.0 * res.std_error)
    assert isinstance(res.ratio, float) and isinstance(res.std_error, float)
    assert res.std_error > 0.0
    blob = res.to_dict()
    assert blob["seed"] == 7 and blob["passes"] is True
    assert blob["ratio"] == res.ratio and blob["std_error"] == res.std_error


def test_monte_carlo_matches_quadrature():
    model = HeisenbergModel(n=1, eps=2.0)
    spec = VelocitySet(horizontal_radius=1.5, vertical_momentum=4.0)
    res = monte_carlo_contraction(
        model, np.zeros(3), spec, t=0.4, samples=20_000, seed=3
    )
    ref = quadrature_contraction(model, spec, t=0.4)
    assert abs(res.ratio - ref) <= 3.0 * res.std_error
    assert ref >= (1.0 - 0.4) ** 5 - 1e-12


def test_monte_carlo_std_error_matches_the_spread_over_seeds():
    # the delta-method standard error against the spread of the ratio over
    # 80 seeds (about 1.12 of it here; a ratio estimator's tail is heavier
    # than a normal's at 1000 samples)
    model = HeisenbergModel(n=1, eps=2.0)
    spec = VelocitySet(horizontal_radius=2.0, vertical_momentum=5.0)
    runs = [monte_carlo_contraction(model, np.zeros(3), spec, 0.5, samples=1000, seed=s)
            for s in range(80)]
    spread = np.std([r.ratio for r in runs], ddof=1)
    assert spread / np.mean([r.std_error for r in runs]) == pytest.approx(1.0, abs=0.25)


def test_monte_carlo_deterministic_and_seed_sensitive():
    model = HeisenbergModel(n=1, eps=1.0)
    spec = VelocitySet(horizontal_radius=1.0, vertical_momentum=2.0)
    a = monte_carlo_contraction(model, np.zeros(3), spec, 0.5, samples=2000)
    b = monte_carlo_contraction(model, np.zeros(3), spec, 0.5, samples=2000)
    assert (a.ratio, a.std_error) == (b.ratio, b.std_error)
    c = monte_carlo_contraction(
        model, np.zeros(3), spec, 0.5, samples=2000, seed=1
    )
    assert c.ratio != a.ratio


def test_monte_carlo_rejection_paths():
    model = HeisenbergModel(n=1, eps=1.0)
    # vertical momentum far past the conjugate threshold 2 pi
    spec = VelocitySet(horizontal_radius=1.0, vertical_momentum=2 * np.pi + 1.0)
    with pytest.raises(VelocitySpecError):
        monte_carlo_contraction(model, np.zeros(3), spec, 0.5, samples=2000)
    with pytest.raises(DomainError):
        monte_carlo_contraction(
            model, np.zeros(3), VelocitySet(1.0, 1.0), 0.5, samples=10
        )
    with pytest.raises(DomainError):
        monte_carlo_contraction(
            model, np.zeros(4), VelocitySet(1.0, 1.0), 0.5, samples=2000
        )
    with pytest.raises(DomainError):
        monte_carlo_contraction(
            model, np.zeros(3), VelocitySet(1.0, 1.0), 1.5, samples=2000
        )
    # numpy's generator takes no negative seed; its ValueError is not a
    # McplabError
    with pytest.raises(DomainError, match="seed"):
        monte_carlo_contraction(
            model, np.zeros(3), VelocitySet(1.0, 1.0), 0.5, samples=2000, seed=-1
        )


def test_quadrature_pure_horizontal_set():
    model = HeisenbergModel(n=1, eps=1.0)
    spec = VelocitySet(horizontal_radius=2.0, vertical_momentum=0.0)
    ref = quadrature_contraction(model, spec, t=0.5)
    assert ref >= 0.5**5
    res = monte_carlo_contraction(model, np.zeros(3), spec, 0.5, samples=4000)
    assert abs(res.ratio - ref) <= 3.0 * res.std_error + 1e-9
    with pytest.raises(VelocitySpecError):
        quadrature_contraction(model, VelocitySet(1.0, 7.0), t=0.5)


def test_contract_fails_when_the_reduction_is_wrong(monkeypatch, tmp_path):
    # b = -eps |w_H| / 2 scaled by 1.2 wherever mcp could take it from
    # (b, c): in the closed form det A and in the Jacobi blocks a flow
    # route would build (mcp imports none, hence raising=False).  A Monte
    # Carlo that shared the reduction would move with the quadrature and
    # still agree with it; the exponential map's Jacobian does not move,
    # so contract fails
    import mcplab.mcp as mcp
    from mcplab.riccati import build_blocks

    monkeypatch.setattr(mcp, "_det_a",
                        lambda b, c, n, s, free=1.0: _det_a(1.2 * b, c, n, s, free))
    monkeypatch.setattr(mcp, "build_blocks",
                        lambda p: build_blocks(RiccatiParams(1.2 * p.b, p.c, p.n)),
                        raising=False)
    for n, t in ((1, "0.5"), (2, "0.3")):
        out = tmp_path / f"contract-{n}.json"
        argv = ["contract", "--n", str(n), "--t", t, "--eps", "2",
                "--samples", "20000", "--seed", "0", "--output", str(out)]
        assert main(argv) == 1
        assert json.loads(out.read_text())["consistent_with_quadrature"] is False


def test_gauss_legendre_rule_is_built_once_and_read_only():
    # quadrature_contraction shares one rule between calls: it cannot be
    # written to, and repeated calls give identical floats
    import mcplab.mcp as mcp

    nodes, weights = mcp._gauss_legendre()
    assert mcp._gauss_legendre()[0] is nodes
    for a in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    model, spec = HeisenbergModel(n=2, eps=2.0), VelocitySet(2.0, 5.0)
    first = [quadrature_contraction(model, spec, t) for t in (0.2, 0.5)]
    assert [quadrature_contraction(model, spec, t) for t in (0.2, 0.5)] == first


def test_contract_sums_out_of_float_range_raise_domain_error():
    # a radius whose squared speeds overflow: no NaN ratio, no warning.
    # The quadrature's b^2 overflows too, but it rescales b by a power of
    # two, and b = -eps |w_H| / 2 is that of eps 1e200 at radius 1
    model = HeisenbergModel(n=1, eps=1.0)
    spec = VelocitySet(horizontal_radius=1e200, vertical_momentum=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="Monte Carlo"):
            monte_carlo_contraction(model, np.zeros(3), spec, 0.5, samples=5000)
        quad = quadrature_contraction(model, spec, 0.5)
        far = quadrature_contraction(HeisenbergModel(n=1, eps=1e200), VelocitySet(1.0, 5.0), 0.5)
        assert quad == pytest.approx(far, rel=1e-14)
        # b = -eps |w_H| / 2 past float64 range: no warning from forming it
        with pytest.raises(DomainError, match="quadrature"):
            quadrature_contraction(HeisenbergModel(n=1, eps=1e300), VelocitySet(1e10, 5.0), 0.5)


def test_monte_carlo_weights_near_float_range_are_rescaled():
    # var() would square weights near 1e300 past float64 range, an inf
    # standard error behind a finite ratio.  As eps -> 0, b -> 0 and the
    # results tend to those at eps = 1e-3 (3.5e-8 relative apart); at eps
    # 1e160 and 1e300 the quadrature's b^2 overflows, and it rescales b by
    # a power of two to agree with the Monte Carlo
    spec = VelocitySet(horizontal_radius=1.0, vertical_momentum=5.0)

    def run(eps):
        model = HeisenbergModel(n=1, eps=eps)
        return monte_carlo_contraction(model, np.zeros(3), spec, 0.5, samples=5000)

    near = run(1e-3)
    for eps in (1e-300, 1e-160):
        res = run(eps)
        assert res.ratio == pytest.approx(near.ratio, rel=1e-6)
        assert res.std_error == pytest.approx(near.std_error, rel=1e-6)
    far = [run(eps) for eps in (1e160, 1e300)]
    assert far[0].passes and far[1].passes
    assert far[0].ratio == pytest.approx(far[1].ratio, rel=1e-14)
    assert far[0].std_error == pytest.approx(far[1].std_error, rel=1e-14)
    for eps, res in zip((1e160, 1e300), far):
        quad = quadrature_contraction(HeisenbergModel(n=1, eps=eps), spec, 0.5)
        assert np.isfinite(quad) and abs(quad - res.ratio) <= 3.0 * res.std_error
