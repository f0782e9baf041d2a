"""The scalar layer, on Python floats: the data (b, c, n) of one geodesic
direction, its first conjugate time, the sharpness infimum, the density
profile and the grid scan of the contraction inequality, with the
closed-form kernels they use.  It imports the standard library and
errors alone, so the conjugate, sharpness, density-profile and mcp-scan
subcommands never load numpy.  The kernels also take arrays, importing
numpy in their array branches only (as errors._reals does); riccati, mcp
and heisenberg import them from here.  A float ** is the C library's pow
and an array ** numpy's (a SIMD pow where the CPU has one), which may
round a power an ulp apart, so the powers of s in det A's 3x3 block and
in the ratio's s^5 are products on both: at n = 1 mcp_scan's ratios are
_density_ratio's on arrays to the bit.  The parallel factor's power
(n >= 2) stays a pow, and density_profile agrees with mcp.density within
4 ulp in the tests.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, OutOfRegimeError, _count, _floats, _real

# Below this |x| the sxc kernel of _sinc_sxc, and the S kernel of
# heisenberg._helix_kernels, switch to their Taylor series through x^14,
# whose truncation error at the cut is below 1e-16 relative.  The direct
# expressions lose about 1e-16 / x^2 relative to cancellation, so both
# sides stay under 1e-14 against 40-digit mpmath (7e-15 at worst on
# (0, 3.1], 5.6e-15 for S just above the cut; a cut of 0.05 left 2e-13
# just above it).
_SERIES_CUT = 0.3
# Taylor coefficients in x^2, highest power first (Horner order).
_SXC_SERIES = (-1 / 22230464256000, 1 / 93405312000, -1 / 518918400,
               1 / 3991680, -1 / 45360, 1 / 840, -1 / 30, 1 / 3)
_XMS_SERIES = (-1 / 355687428096000, 1 / 1307674368000, -1 / 6227020800,
               1 / 39916800, -1 / 362880, 1 / 5040, -1 / 120, 1 / 6)
# The most (b, c, t) points mcp_scan evaluates.  The scan holds its axes,
# one scaling per b, the kernels of _SCAN_CHUNK t and the violations,
# never the grid, so the cap bounds its time: about 0.2 s per million points on one core, so 10^7
# caps it near 2 s, 80 times the largest grid (50^3) that the tests and
# the benchmark use.
_MAX_SCAN_POINTS = 10_000_000
# The t values whose kernels mcp_scan holds at once, so that a long t
# axis costs no more memory than its list.
_SCAN_CHUNK = 4096


class RiccatiParams(namedtuple("RiccatiParams", "b c n")):
    """Scalar data of one geodesic direction, read by _real and _count.

    b and c may carry either sign; every scalar output is even under
    b -> -b and c -> -c separately (the matrices themselves transform by a
    diagonal sign conjugation, see riccati.build_blocks).
    """

    __slots__ = ()

    def __new__(cls, b, c, n=1):
        return super().__new__(cls, _real(b, "b"), _real(c, "c"), _count(n, "n", 1))


class DensityProfile(namedtuple("DensityProfile", "t_grid density bound ratio")):
    """Density, bound and their ratio on a t grid for one (b, c, n): float lists."""

    __slots__ = ()


class ScanReport(namedtuple("ScanReport",
                            "n tol b_values c_values t_values min_ratio argmin violations")):
    """Minimum of density/bound over a (b, c, t) grid, whose axes are float
    lists, with its (b, c, t) and the violations (dicts in C order)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        axes = self.b_values, self.c_values, self.t_values
        return {
            "n": self.n,
            "tol": self.tol,
            **{f"{x}_range": [a[0], a[-1]] for x, a in zip("bct", axes)},
            "grid_shape": [len(a) for a in axes],
            "exponent": 2 * self.n + 3,
            "min_ratio": self.min_ratio,
            "argmin": dict(zip("bct", self.argmin)),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def conjugate_time(params: RiccatiParams, t_max: float = 1.0):
    """First zero of det A in (0, t_max], or None: pi/|c| when that is at
    most t_max, and None at c = 0.

    With x = ct, det A = det A1 * (t sinc x)^{2n-2} and

        det A1 = t^5 sinc(x) h(t) / x^2,
        h(t) = (b^2 + c^2) sin x - b^2 x cos x.

    sinc x first vanishes at |x| = pi.  h vanishes only where
    tan x = k x with k = b^2 / (b^2 + c^2) < 1 (cos x = 0 would force
    sin x = 0 as well), and that has no root with 0 < x <= pi: on
    (0, pi/2) tan x > x > kx, on (pi/2, pi) tan x < 0 <= kx, and at
    x = pi tan x = 0 < kx unless b = 0, where h = c^2 sin x shares the
    zero of sinc.  So the first zero of det A is t = pi/|c| for every b.
    At c = 0, det A = t^{2n+1} (1 + b^2 t^2 / 3) has no positive zero.
    """
    t_max = _real(t_max, "t_max", 0.0)
    if params.c == 0.0:
        return None
    t_star = math.pi / abs(params.c)
    return t_star if t_star <= t_max else None


def sharpness_scan(t: float, b_max: float = 1e4) -> float:
    """Infimum of D(t) / (1-t)^(2n+3) over b in [0, b_max] and c in
    (0, pi), the same for every n: its c -> 0 limit on the row b = b_max,

        1 + 3 t (2 - t) / ((1 - t)^2 (3 + b_max^2)),

    on Python floats; a b_max^2 past float64 range is inf and gives 1.0.
    At n = 1 the ratio less its c = 0 value has the sign of a quadratic in
    b^2 with coefficients >= 0 on |c| < pi, and at n >= 2 it gains the
    factor (sinc(cs) / sinc(c))^(2n-2) >= 1; the infimum exceeds 1, so
    D(t) >= (1-t)^(2n+3).  tests/test_sharpness_certificate.py proves it."""
    t, b_max = _real(t, "t", 0.0, 1.0), _real(b_max, "b_max", 0.0)
    s = 1.0 - t
    return 1.0 + 3.0 * t * (2.0 - t) / (s * s * (3.0 + b_max * b_max))


# ---------------------------------------------------------------------------
# closed-form kernels, on Python floats or numpy arrays
# ---------------------------------------------------------------------------

def _series(coeffs, x):
    """The Taylor series in x^2 at x, for |x| <= _SERIES_CUT, by Horner's
    rule as np.polyval runs it, less its first step 0 * z + c_0 = c_0."""
    z = x * x
    y = coeffs[0]
    for c in coeffs[1:]:
        y = y * z + c
    return y


def _sinc_sxc(x):
    """(sinc x, sxc x) from one sine-cosine pair, 1 and 1/3 at x = 0; sxc
    takes _SXC_SERIES where |x| <= _SERIES_CUT.

    A Python float (type float exactly: np.float64 subclasses it) takes
    math.sin, math.cos and Python branches, and gives two floats; it must
    be finite, as math.sin raises at inf.  Any other x goes to numpy and
    gives arrays, 0-d for a scalar: the direct sxc everywhere, with the
    series evaluated on the elements inside the cut alone and written over
    it there (not at all when none is).  Both paths run the same
    expressions, and math.sin/cos round as np.sin/cos, so they agree to
    the bit.  np.sinc(x / pi) was 3.5e-12 off 40-digit mpmath on
    (2 pi, 40] (2.1e-16 here)."""
    if type(x) is float:
        sn, cs = math.sin(x), math.cos(x)
        sinc = sn / x if x else 1.0
        if abs(x) <= _SERIES_CUT:
            return sinc, _series(_SXC_SERIES, x)
        return sinc, (sn - x * cs) / (x * x * x)
    import numpy as np

    x = np.asarray(x, dtype=float)
    sn, cs = np.sin(x), np.cos(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sinc = np.where(x == 0.0, 1.0, sn / x)
        sxc = np.asarray((sn - x * cs) / (x * x * x))
    near = abs(x) <= _SERIES_CUT
    if near.any():
        sxc[near] = _series(_SXC_SERIES, x[near])
    return sinc, sxc


def _block_det(b, s, sinc, sxc, free=1.0):
    """det A(s)'s 3x3 factor s^3 sinc(x)^2 + b^2 s^5 sinc(x) sxc(x) from the kernels
    of x = cs, its b-free term times free (2^-2k where b^2 overflows and b is scaled by 2^-k).
    The powers of s are products, which round alike on floats and arrays."""
    s3 = s * s * s
    return free * s3 * sinc * sinc + b * b * (s3 * s * s) * sinc * sxc


def _scale_b(b, big):
    """(b 2^-k, 2^-2k) for _block_det: k = 0 where big^2 is finite, else
    big's binary exponent, so that the scaled b^2 stays in float64 range.
    big is b itself for a k per entry, or max |b| for one k over an
    array; a Python float big takes math.frexp/ldexp, with numpy's bits."""
    if type(big) is float:
        if math.isfinite(big * big):  # k = 0: b itself, so that mcp_scan's list adds no float
            return b, 1.0
        k = math.frexp(big)[1]
        return math.ldexp(b, -k), math.ldexp(1.0, -2 * k)
    import numpy as np

    k = np.where(np.isfinite(big * big), 0, np.frexp(big)[1])
    return np.ldexp(b, -k), np.ldexp(1.0, -2 * k)


def _block_ratios(b, c, s):
    """The two per-block factors of det A(s) / det A(1) for broadcastable
    (b, c, s): d1(s) / d1(1), with d1 the 3x3 block's determinant, and
    sinc(cs) / sinc(c), so that

        det A(s) / det A(1) = [d1(s) / d1(1)] [s sinc(cs) / sinc(c)]^(2n-2).

    Neither factor holds a power of s above the fifth or a power of
    sinc(c) above the second, so neither underflows as n grows, where
    det A(s) and det A(1) both do.  Where b^2 leaves float64 range (|b|
    from 2^512, about 1.3e154), b is scaled by 2^-k and the b-free term
    by 2^-2k (_scale_b): both d1 are then scaled by 2^-2k, which cancels
    in their ratio; elsewhere k = 0 and nothing changes.  The kernels at
    cs and at c are each taken once."""
    b, free = _scale_b(b, b)
    sinc_s, sxc_s = _sinc_sxc(c * s)
    sinc_1, sxc_1 = _sinc_sxc(c)
    d1_s = _block_det(b, s, sinc_s, sxc_s, free)
    return d1_s / _block_det(b, 1.0, sinc_1, sxc_1, free), sinc_s / sinc_1


def _density_ratio(b, c, n: int, t):
    """D(t) and D(t) / (1-t)^(2n+3) for broadcastable (b, c, t), per
    block: with s = 1 - t,

        D(t) = [d1(s) / d1(1)] [s sinc(cs) / sinc(c)]^(2n-2),
        D(t) / s^(2n+3) = [d1(s) / d1(1) / s^5] [sinc(cs) / sinc(c)]^(2n-2).

    Nothing underflows as n grows, where det A and (1-t)^(2n+3) do.  s^5
    is the product _block_det takes; on floats a power past float64 range
    raises OverflowError (_power reads it as inf)."""
    s = 1.0 - t
    f1, f3 = _block_ratios(b, c, s)
    ratio = f1 / (s * s * s * s * s)
    if n == 1:
        return f1, ratio
    return f1 * (s * f3) ** (2 * n - 2), ratio * f3 ** (2 * n - 2)


def _check_regime(params: RiccatiParams, t_in_range: bool) -> None:
    """DomainError unless t_in_range (t in [0, 1)), OutOfRegimeError unless |c| < pi:
    there sinc(c), sxc(c) and so det A(1) are positive for every b (sharpness_scan's lemma)."""
    if not t_in_range:
        raise DomainError("t must lie in [0, 1)")
    if abs(params.c) >= math.pi:
        raise OutOfRegimeError(f"density requires |c| < pi, got c = {params.c!r}")


def _power(x, e):
    """x ** e on floats, inf where it overflows, as numpy's ** gives it."""
    try:
        return x ** e
    except OverflowError:
        return math.inf


def _rows(c, one, n: int, ts):
    """The factors of _density_ratio at one c that hold no b, one row per
    t of ts, lazily: with s = 1 - t and (sinc c, sxc c) = one,
    (s^3, s^5, sinc(cs), sxc(cs), f3^(2n-2)), f3 = sinc(cs) / sinc(c), on
    floats (the parallel factor is 1.0 at n = 1, inf where ** overflows)."""
    for t in ts:
        s = 1.0 - t
        sinc, sxc = _sinc_sxc(c * s)
        s3 = s * s * s
        yield s3, s3 * s * s, sinc, sxc, _power(sinc / one[0], 2 * n - 2)


def _ratios(b, free, one, rows):
    """D(t) / (1-t)^(2n+3) along rows (_rows) at one b, scaled by
    _scale_b to (b, free): _density_ratio's expressions in its order, with
    d1(1) taken once and _block_det's d1(s) written out."""
    d1_1 = _block_det(b, 1.0, *one, free)
    bb = b * b
    return [(free * s3 * sinc * sinc + bb * s5 * sinc * sxc) / d1_1 / s5 * par
            for s3, s5, sinc, sxc, par in rows]


def density_profile(params: RiccatiParams, t_grid) -> DensityProfile:
    """Density, bound (1-t)^(2n+3) and ratio at each t of t_grid (one number
    or a flat sequence, errors._floats), with mcp.density's checks: the
    one-(b, c) case of mcp_scan's loop on Python floats, its rows (_rows)
    taken one t at a time, with each density f1 (s f3)^(2n-2) as
    _density_ratio forms it.  A ratio or density that is not finite
    raises DomainError, as does a power that overflows (the ratio, at
    least the density, is then past float64 range)."""
    ts = _floats(t_grid, "t")
    _check_regime(params, all(0.0 <= t < 1.0 for t in ts))
    b, c, n = params
    b, free = _scale_b(b, b)
    one = _sinc_sxc(c)
    d1_1 = _block_det(b, 1.0, *one, free)
    dens, ratio = [], []
    for t, (_, s5, sinc, sxc, par) in zip(ts, _rows(c, one, n, ts)):
        s = 1.0 - t
        f1 = _block_det(b, s, sinc, sxc, free) / d1_1
        dens.append(f1 * _power(s * (sinc / one[0]), 2 * n - 2))
        ratio.append(f1 / s5 * par)
    for values, what in ((ratio, "density/bound ratio"), (dens, "density")):
        if not all(map(math.isfinite, values)):
            raise DomainError(f"{what} is not finite in float64 for these inputs")
    bound = [(1.0 - t) ** (2 * n + 3) for t in ts]
    return DensityProfile(t_grid=ts, density=dens, bound=bound, ratio=ratio)


def _axis(value, what):
    """value as a list of floats (errors._floats) if it is a list, tuple or
    1-d array, else None: an array of more dimensions is None before its
    values are read, a number after."""
    if getattr(value, "ndim", 1) > 1:
        return None
    xs = _floats(value, what)
    return xs if isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) == 1 else None


def mcp_scan(n: int, b_values, c_values, t_values, tol: float = 1e-9) -> ScanReport:
    """Evaluate ratio = D(t) / (1-t)^(2n+3) on the full grid of three 1-d
    axes (lists, tuples or 1-d arrays, errors._floats), as given: their
    lengths may differ, and one point is an axis.

    Each axis must be non-empty, finite and non-decreasing, every c
    strictly inside (-pi, pi), every t inside [0, 1), and the grid within
    _MAX_SCAN_POINTS points; DomainError otherwise.  Violations, ratios
    below 1 - tol, are collected with their grid coordinates; the
    expected outcome is an empty list.  A NaN ratio (the density out of
    float64 range) raises DomainError; an infinite one lies above 1.

    One loop on Python floats that holds no grid: per b its scaling
    (_scale_b), once; per c the rows of up to _SCAN_CHUNK t (_rows), then
    per b one list of ratios over them (_ratios).  At n = 1 each ratio is
    _density_ratio's on broadcast arrays to the bit.  The argmin is the
    first minimum in (b, c, t) C order and the violations come in that
    order, as np.argmin and np.argwhere give them."""
    n, tol = _count(n, "n", 1), _real(tol, "tol")
    axes = [_axis(v, f"{x} values") for x, v in zip("bct", (b_values, c_values, t_values))]
    if not all(axes):
        raise DomainError("b, c and t values must be non-empty 1-d arrays")
    nb, nc, nt = map(len, axes)
    if nb * nc * nt > _MAX_SCAN_POINTS:
        raise DomainError(f"a {nb}x{nc}x{nt} grid has more than {_MAX_SCAN_POINTS} points")
    if any(y < x for a in axes for x, y in zip(a, a[1:])):
        raise DomainError("b, c and t values must be non-decreasing")
    b_values, c_values, t_values = axes
    if max(-c_values[0], c_values[-1]) >= math.pi:
        raise DomainError("c values must lie strictly inside (-pi, pi)")
    if t_values[0] < 0.0 or t_values[-1] >= 1.0:
        raise DomainError("t values must lie inside [0, 1)")

    scaled = [_scale_b(b, b) for b in b_values]
    floor = 1.0 - tol
    low = (math.inf, nb, 0, 0)  # (ratio, i, j, k), the first minimum in C order
    found = []  # (i, j, k, ratio) of each violation
    for j, c in enumerate(c_values):
        one = _sinc_sxc(c)
        for k0 in range(0, nt, _SCAN_CHUNK):
            rows = list(_rows(c, one, n, t_values[k0:k0 + _SCAN_CHUNK]))
            for i, (b, free) in enumerate(scaled):
                ratios = _ratios(b, free, one, rows)
                total = sum(ratios)
                if total != total:
                    raise DomainError("density/bound ratio is NaN in float64 for these inputs")
                r = min(ratios)
                if r <= low[0]:
                    low = min(low, (r, i, j, k0 + ratios.index(r)))
                if r < floor:
                    found += [(i, j, k0 + k, x) for k, x in enumerate(ratios) if x < floor]
    found.sort()  # into C order: no two share (i, j, k)
    min_ratio, i, j, k = low
    return ScanReport(n=n, tol=tol, b_values=b_values, c_values=c_values, t_values=t_values,
                      min_ratio=min_ratio, argmin=(b_values[i], c_values[j], t_values[k]),
                      violations=[{"b": b_values[i], "c": c_values[j], "t": t_values[k],
                                   "ratio": x} for i, j, k, x in found])
