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
    _ratio,
    contraction_bound,
    density,
    density_profile,
    mcp_scan,
    monte_carlo_contraction,
    quadrature_contraction,
    sharpness_scan,
)
from mcplab.riccati import RiccatiParams, _det_a


def _mp_ratio(b, c, n, ts):
    """D(t) / (1-t)^(2n+3), written out in 50-digit mpmath from
    det A(s) = (s^3 sinc^2 + b^2 s^5 sinc sxc)(s sinc)^(2n-2) at x = cs."""
    with mpmath.workdps(50):
        def det_a(s):
            x = mpmath.mpf(c) * s
            sinc = mpmath.sin(x) / x
            sxc = (mpmath.sin(x) - x * mpmath.cos(x)) / x**3
            d1 = s**3 * sinc**2 + mpmath.mpf(b) ** 2 * s**5 * sinc * sxc
            return d1 * (s * sinc) ** (2 * n - 2)

        return [
            float(det_a(1 - mpmath.mpf(t)) / det_a(mpmath.mpf(1)) / (1 - mpmath.mpf(t)) ** (2 * n + 3))
            for t in ts
        ]


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
    assert np.all(prof.ratio >= 1.0 - 1e-9)
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


def test_mcp_scan_holds_on_grid():
    report = mcp_scan(1, resolution=20)
    assert report.ok
    assert report.violations == []
    assert report.min_ratio >= 1.0 - 1e-9
    b, c, t = report.argmin
    assert 0.0 <= b <= 10.0 and abs(c) <= 3.0 and 0.05 <= t <= 0.95
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["ok"] is True
    assert blob["exponent"] == 5
    # both readings of the two-block display are recorded; the sum reading
    # exceeds 1 at the reference point and is clearly not a density
    readings = blob["density_readings"]
    assert readings["implemented"] == "product"
    assert readings["sum_reading"] > 1.0
    assert 0.0 < readings["product_reading"] < 1.0


def test_mcp_scan_higher_n():
    for n in (2, 3):
        report = mcp_scan(n, resolution=12)
        assert report.violations == []
        assert json.loads(json.dumps(report.to_dict()))["exponent"] == 2 * n + 3


def test_mcp_scan_validation():
    with pytest.raises(DomainError):
        mcp_scan(0)
    with pytest.raises(DomainError):
        mcp_scan(1, c_range=(-np.pi, 1.0))
    with pytest.raises(DomainError):
        mcp_scan(1, t_range=(0.5, 1.0))
    with pytest.raises(DomainError):
        mcp_scan(1, resolution=1)
    with pytest.raises(DomainError):
        mcp_scan(1, t_range=(0.9, 0.1))


def test_mcp_scan_reports_violations():
    # tol = -1 asks for ratios >= 2, which part of the grid misses
    report = mcp_scan(1, resolution=3, tol=-1.0)
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
    # a ratio that overflows to NaN is a usage error, never a pass
    with pytest.raises(DomainError):
        mcp_scan(1, b_range=(0.0, 1e300), resolution=3)


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
    assert _ratio(b, c, n, t) == pytest.approx(dens / contraction_bound(n, t), rel=1e-12)


def test_per_block_ratio_against_mpmath_at_large_n():
    # where density and bound underflow, the ratio stays finite and exact
    for b, c, n in ((0.0, 1e-3, 20), (3.0, -2.5, 20), (1.0, 0.5, 200), (50.0, 1.0, 1000)):
        ts = [0.1, 0.5, 0.9, 0.99999999]
        np.testing.assert_allclose(_ratio(b, c, n, np.array(ts)), _mp_ratio(b, c, n, ts), rtol=1e-12)


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
    for t, cap in ((0.3, 1.02), (0.5, 1.02), (0.9, 1.05)):
        inf_est = sharpness_scan(1, t)
        assert 1.0 - 1e-9 <= inf_est <= cap
    # from n = 17 the ratio overflows to inf near c = pi, above the infimum
    for n in (16, 17, 20):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 1.0 - 1e-9 <= sharpness_scan(n, 0.5) <= 1.02
    with pytest.raises(DomainError):
        sharpness_scan(1, 1.0)
    for n, b_max in ((0, 1e4), (-3, 1e4), (1, 0.0), (1, -5.0), (1, np.nan), (1, np.inf)):
        with pytest.raises(DomainError):
            sharpness_scan(n, 0.5, b_max=b_max)


def test_out_of_float_range_raises_domain_error():
    # finite inputs whose ratio overflows or underflows to inf or NaN;
    # np.errstate keeps the warnings (raised here as exceptions) quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge_b = RiccatiParams(b=1e308, c=1.0, n=1)
        with pytest.raises(DomainError):
            density(huge_b, 0.5)
        with pytest.raises(DomainError):
            density_profile(huge_b, [0.0, 0.5])
        with pytest.raises(DomainError):
            sharpness_scan(1, 1e-300, b_max=1e300)
        # (0.01 sinc)^398 underflows to 0 in both density and bound, but
        # the per-block ratio does not
        prof = density_profile(RiccatiParams(b=1.0, c=0.5, n=200), [0.5, 0.99])
        assert prof.density[1] == 0.0 and prof.bound[1] == 0.0
        np.testing.assert_allclose(prof.ratio, _mp_ratio(1.0, 0.5, 200, prof.t_grid), rtol=1e-12)


def test_mcp_scan_grid_cap():
    # 216^3 > 10^7 points is refused before the grid is built
    with pytest.raises(DomainError, match="points"):
        mcp_scan(1, resolution=216)
    with pytest.raises(DomainError):
        mcp_scan(1, resolution=10**6)


def test_velocity_set_validation():
    with pytest.raises(VelocitySpecError):
        VelocitySet(horizontal_radius=0.0, vertical_momentum=1.0)
    with pytest.raises(VelocitySpecError):
        VelocitySet(horizontal_radius=1.0, vertical_momentum=-1.0)
    assert VelocitySet(2.0, 5.0).c_max == 2.5


def test_flow_determinants_match_closed_form():
    # the Monte Carlo determinants, over several chunks and a partial one,
    # against the closed form at the sizes of a radius-2, momentum-5 set
    from mcplab.mcp import _CHUNK, _flow_dets

    rng = np.random.default_rng(0)
    N = 2 * _CHUNK + 37
    b = -2.0 * rng.random(N)
    c = rng.uniform(-2.5, 2.5, N)
    for n in (1, 2):
        dets = _flow_dets(b, c, n, [0.6, 1.0])
        for row, s in zip(dets, (0.6, 1.0)):
            np.testing.assert_allclose(row, _det_a(b, c, n, s), rtol=1e-12, atol=0)


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
    ratio, se = res  # tuple unpacking contract
    assert ratio == res.ratio and se == res.std_error
    blob = res.to_dict()
    assert blob["seed"] == 7 and blob["passes"] is True


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


def test_quadrature_pure_horizontal_set():
    model = HeisenbergModel(n=1, eps=1.0)
    spec = VelocitySet(horizontal_radius=2.0, vertical_momentum=0.0)
    ref = quadrature_contraction(model, spec, t=0.5)
    assert ref >= 0.5**5
    res = monte_carlo_contraction(model, np.zeros(3), spec, 0.5, samples=4000)
    assert abs(res.ratio - ref) <= 3.0 * res.std_error + 1e-9
    with pytest.raises(VelocitySpecError):
        quadrature_contraction(model, VelocitySet(1.0, 7.0), t=0.5)
