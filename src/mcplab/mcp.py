"""Volume-contraction density and the MCP(0, 2n+3) inequality.

The contraction toward a point maps the time-1 endpoint of each geodesic to
its time-(1-t) point.  Along a geodesic with scalars (b, c) the volume
density of that map is

    D(t) = det A(1 - t) / det A(1),

where A is the distortion (Jacobi) matrix with A(0) = 0, A'(0) = I; the
closed form of det A is the product of the two block determinants in the
riccati module, so D is evaluated in closed form, stays exact in the
c -> 0 and b -> 0 limits, and is even in b and in c.  The paper displays
D as two block factors; it is read here as their product, the
determinant of the block-diagonal A, which the Jacobi flow reproduces.
Their sum is not a density: at n = 1, b = c = 1, t = 0.5 it exceeds 1.  The
inequality under test is

    D(t) >= (1 - t)^(2n+3)         for |c| < pi, t in [0, 1),

with equality approached as b -> infinity, c -> 0 (the exponent is the
vertical 5 plus 2n - 2 parallel directions, not the dimension 2n + 1).

Three evaluations are provided.  The closed form gives the density and
the grid scans.  The set-level ratio mu(Z_(1-t)) / mu(Z_1), for Z_s the
image of a velocity set under the time-s exponential map (Juillet 2009;
Rifford 2013), comes from two routes.  monte_carlo_contraction samples
the set and weights each velocity by the Jacobian of the closed-form
helix (heisenberg._helix_det), since Haar measure is Lebesgue measure in
the model's coordinates.  quadrature_contraction integrates the closed
form det A over the same set through the reduction b = -eps |w_H| / 2,
c = <w, V> / 2, which the Monte Carlo never forms; eps times the
Jacobian is det A, so the two agree only while the reduction is right.
Sums use numpy's pairwise reduction, so results are deterministic for a
fixed seed and sample count.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DomainError, OutOfRegimeError, VelocitySpecError, _count, _real, _reals, _require_finite,
)
from .riccati import RiccatiParams, _block_det, _det_a, _sinc_sxc

if TYPE_CHECKING:  # annotations only: the scans and profiles never load heisenberg
    from .heisenberg import HeisenbergModel

_MAX_REJECT_FRACTION = 0.01
# Samples per heisenberg._helix_det call in monte_carlo_contraction, so
# that its dozen temporaries (64 KiB each for two times; a traced call
# peaks at 11 of them) do not grow with the sample count: traced peak of
# a 30,000-sample call at n = 1, 2.1 MiB chunked and 6.5 MiB in one call.
_DET_CHUNK = 4096
# The most samples monte_carlo_contraction draws.  It peaks near 57 bytes
# per sample (tracemalloc: 57.0 B at 1e5 and at 4e5 samples, the same at
# n = 1, 2 and 20), so 2e6 caps it near 115 MB, 20 times the CLI's
# default of 1e5.
_MAX_SAMPLES = 2_000_000
# The most (b, c, t) points mcp_scan evaluates.  It holds about 15 MB per
# million points, so 10^7 caps it near 150 MB, 80 times the largest grid
# (50^3) that the tests and the benchmark use.
_MAX_SCAN_POINTS = 10_000_000
# sharpness_scan's log-spaced values of c in (0, pi).
_C_POINTS = 200
# Gauss-Legendre nodes per axis of quadrature_contraction.
_QUAD_NODES = 64


@functools.cache
def _gauss_legendre():
    """The _QUAD_NODES-point Gauss-Legendre rule (nodes, weights) on
    [-1, 1], built on first use and kept read-only, since every
    quadrature_contraction call shares it."""
    rule = np.polynomial.legendre.leggauss(_QUAD_NODES)
    for a in rule:
        a.flags.writeable = False
    return rule


def _scale_b(b, big):
    """(b 2^-k, 2^-2k) for _block_det: k = 0 where big^2 is finite, else
    big's binary exponent, so that the scaled b^2 stays in float64 range.
    big is b itself for a k per entry, or max |b| for one k over an
    array."""
    k = np.where(np.isfinite(big * big), 0, np.frexp(big)[1])
    return np.ldexp(b, -k), np.ldexp(1.0, -2 * k)


def _block_ratios(b, c, s):
    """The two per-block factors of det A(s) / det A(1) for broadcastable
    (b, c, s) arrays: d1(s) / d1(1), with d1 the 3x3 block's determinant,
    and sinc(cs) / sinc(c), so that

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
    """D(t) and D(t) / (1-t)^(2n+3) for broadcastable (b, c, t) arrays,
    per block: with s = 1 - t,

        D(t) = [d1(s) / d1(1)] [s sinc(cs) / sinc(c)]^(2n-2),
        D(t) / s^(2n+3) = [d1(s) / d1(1) / s^5] [sinc(cs) / sinc(c)]^(2n-2).

    Nothing underflows as n grows, where det A and (1-t)^(2n+3) do.  At
    n = 1 the ratio rounds exactly as D(t) / contraction_bound(t)."""
    s = 1.0 - t
    f1, f3 = _block_ratios(b, c, s)
    ratio = f1 / s**5
    if n == 1:
        return f1, ratio
    return f1 * (s * f3) ** (2 * n - 2), ratio * f3 ** (2 * n - 2)


def _ratio(b, c, n: int, t):
    """D(t) / (1-t)^(2n+3) of _density_ratio, for the scans."""
    return _density_ratio(b, c, n, t)[1]


def _regime_t(params: RiccatiParams, t):
    """t as an array, after density's checks: t in [0, 1) (DomainError
    otherwise) and |c| < pi (OutOfRegimeError otherwise).  There sinc(c)
    and sxc(c) are positive (sharpness_scan), so the normalization det A(1)
    is positive for every finite b."""
    t = _reals(t, "t")
    if not np.all((t >= 0.0) & (t < 1.0)):
        raise DomainError("t must lie in [0, 1)")
    if abs(params.c) >= np.pi:
        raise OutOfRegimeError(
            f"density requires |c| < pi, got c = {params.c!r}"
        )
    return t


def density(params: RiccatiParams, t):
    """Contraction density D(t) = det A(1 - t) / det A(1) in closed form,
    per block (_density_ratio).

    Accepts scalar or array t in [0, 1); requires |c| < pi (_regime_t).
    Scalars so large that D leaves float64 range raise DomainError.
    D(0) = 1 exactly."""
    t = _regime_t(params, t)
    with np.errstate(all="ignore"):
        out = _density_ratio(params.b, params.c, params.n, t)[0]
    _require_finite(out, "density")
    return out if out.ndim else float(out)


def contraction_bound(n: int, t):
    """The MCP comparison profile (1 - t)^(2n+3)."""
    return (1.0 - _reals(t, "t")) ** (2 * _count(n, "n", 1) + 3)


@dataclass
class DensityProfile:
    """Density, bound and their ratio on a t grid for one (b, c, n)."""

    t_grid: np.ndarray
    density: np.ndarray
    bound: np.ndarray
    ratio: np.ndarray


def density_profile(params: RiccatiParams, t_grid) -> DensityProfile:
    """Evaluate density, bound, ratio over a t grid in [0, 1), with
    density's checks; density and ratio come from one _density_ratio
    call, and a ratio that is not finite raises DomainError."""
    t_grid = np.atleast_1d(_regime_t(params, t_grid))
    with np.errstate(all="ignore"):
        dens, ratio = _density_ratio(params.b, params.c, params.n, t_grid)
        bound = contraction_bound(params.n, t_grid)
    _require_finite(dens, "density")
    _require_finite(ratio, "density/bound ratio")
    return DensityProfile(t_grid=t_grid, density=dens, bound=bound, ratio=ratio)


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------

@dataclass
class ScanReport:
    """Minimum of density/bound over a (b, c, t) grid."""

    n: int
    tol: float
    b_values: np.ndarray
    c_values: np.ndarray
    t_values: np.ndarray
    min_ratio: float
    argmin: tuple
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "tol": self.tol,
            "b_range": [float(self.b_values.min()), float(self.b_values.max())],
            "c_range": [float(self.c_values.min()), float(self.c_values.max())],
            "t_range": [float(self.t_values.min()), float(self.t_values.max())],
            "grid_shape": [
                len(self.b_values),
                len(self.c_values),
                len(self.t_values),
            ],
            "exponent": 2 * self.n + 3,
            "min_ratio": self.min_ratio,
            "argmin": {
                "b": self.argmin[0],
                "c": self.argmin[1],
                "t": self.argmin[2],
            },
            "violations": list(self.violations),
            "ok": self.ok,
        }


def mcp_scan(n: int, b_values, c_values, t_values, tol: float = 1e-9) -> ScanReport:
    """Evaluate ratio = D(t) / (1-t)^(2n+3) on the full grid of three 1-d
    axes, as given: their lengths may differ, and one point is an axis.

    Each axis must be non-empty, finite and non-decreasing, every c
    strictly inside (-pi, pi), every t inside [0, 1), and the grid within
    _MAX_SCAN_POINTS points; DomainError otherwise.  Violations, ratios
    below 1 - tol, are collected with their grid coordinates; the
    expected outcome is an empty list.  A NaN ratio (the density out of
    float64 range) raises DomainError; an infinite one lies above 1."""
    n, tol = _count(n, "n", 1), _real(tol, "tol")
    axes = [_reals(v, f"{x} values") for x, v in zip("bct", (b_values, c_values, t_values))]
    if any(a.ndim != 1 or a.size == 0 for a in axes):
        raise DomainError("b, c and t values must be non-empty 1-d arrays")
    nb, nc, nt = (a.size for a in axes)
    if nb * nc * nt > _MAX_SCAN_POINTS:
        raise DomainError(f"a {nb}x{nc}x{nt} grid has more than {_MAX_SCAN_POINTS} points")
    if any((np.diff(a) < 0.0).any() for a in axes):
        raise DomainError("b, c and t values must be non-decreasing")
    b_values, c_values, t_values = axes
    if max(-c_values[0], c_values[-1]) >= np.pi:
        raise DomainError("c values must lie strictly inside (-pi, pi)")
    if t_values[0] < 0.0 or t_values[-1] >= 1.0:
        raise DomainError("t values must lie inside [0, 1)")

    b = b_values[:, None, None]
    c = c_values[None, :, None]
    t = t_values[None, None, :]

    with np.errstate(all="ignore"):
        ratio = _ratio(b, c, n, t)
    if np.isnan(ratio).any():
        raise DomainError("density/bound ratio is NaN in float64 for these inputs")

    i = np.unravel_index(int(np.argmin(ratio)), ratio.shape)
    min_ratio = float(ratio[i])
    argmin = (float(b_values[i[0]]), float(c_values[i[1]]), float(t_values[i[2]]))
    violations = [
        {
            "b": float(b_values[j[0]]),
            "c": float(c_values[j[1]]),
            "t": float(t_values[j[2]]),
            "ratio": float(ratio[tuple(j)]),
        }
        for j in np.argwhere(~(ratio >= 1.0 - tol))
    ]
    return ScanReport(
        n=n,
        tol=tol,
        b_values=b_values,
        c_values=c_values,
        t_values=t_values,
        min_ratio=min_ratio,
        argmin=argmin,
        violations=violations,
    )


def sharpness_scan(n: int, t: float, b_max: float = 1e4) -> float:
    """Infimum estimate of D(t) / (1-t)^(2n+3) over b in [0, b_max] and
    c in (0, pi): the rows b = 0 and b = b_max of _ratio on _C_POINTS
    log-spaced c.  With s = 1 - t, x = cs and beta = b^2, _ratio is

        [s^3 sinc(x)^2 + beta s^5 sinc(x) sxc(x)]
        / [s^5 (sinc(c)^2 + beta sinc(c) sxc(c))] * [sinc(x) / sinc(c)]^(2n-2).

    The last factor is positive and free of b; the first is
    linear-fractional in beta with a positive denominator (sinc and sxc
    are positive on |c| < pi), so monotone in beta, and its minimum over
    b lies at b = 0 or b = b_max.  On the b = 0 row the ratio is
    [sinc(x) / sinc(c)]^(2n) / s^2 >= (1-t)^(-2), as sinc decreases on
    [0, pi].  The minimum approaches 1 from above as b grows and c
    shrinks, the empirical sharpness of the exponent 2n + 3.  A NaN ratio
    raises DomainError; an infinite one (near c = pi for n >= 17) lies
    above the infimum."""
    n, t, b_max = _count(n, "n", 1), _real(t, "t", 0.0, 1.0), _real(b_max, "b_max", 0.0)
    b = np.array([[0.0], [b_max]])
    c = np.geomspace(1e-4, np.pi - 1e-9, _C_POINTS)[None, :]
    with np.errstate(all="ignore"):
        infimum = np.min(_ratio(b, c, n, t))
    _require_finite(infimum, "density/bound ratio")
    return float(infimum)


# ---------------------------------------------------------------------------
# Monte Carlo and quadrature over a velocity set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocitySet:
    """Product set of initial velocities at a point: the horizontal part
    ranges over the ball |w_H| <= horizontal_radius, the vertical part over
    |<w, V>| <= vertical_momentum.  The scalars of a member are
    b = -eps |w_H| / 2 and c = <w, V> / 2."""

    horizontal_radius: float
    vertical_momentum: float

    def __post_init__(self):
        for name, closed in (("horizontal_radius", False), ("vertical_momentum", True)):
            value = _real(getattr(self, name), name, 0.0, closed=closed, error=VelocitySpecError)
            object.__setattr__(self, name, value)

    @property
    def c_max(self) -> float:
        return 0.5 * self.vertical_momentum


def _exp_dets(model: HeisenbergModel, u0, w2, s):
    """det d pos(s) / d vel of the helices from the origin at the times s
    for per-sample vertical velocities u0 and squared horizontal speeds
    w2, shape (len(s), len(u0)), from heisenberg._helix_det on _DET_CHUNK
    samples at a time."""
    from .heisenberg import _helix_det

    s = np.asarray(s, dtype=float)[:, None]
    out = np.empty((len(s), len(u0)))
    for lo in range(0, len(u0), _DET_CHUNK):
        hi = lo + _DET_CHUNK
        out[:, lo:hi] = _helix_det(model.eps, model.n, u0[lo:hi], w2[lo:hi], s)
    return out


@dataclass
class MonteCarloResult:
    """Sampled contraction ratio with the delta-method standard error of
    a ratio estimator."""

    ratio: float
    std_error: float
    t: float
    samples_used: int
    rejected_fraction: float
    bound: float
    seed: int

    @property
    def passes(self) -> bool:
        return self.ratio >= self.bound * (1.0 - 3.0 * self.std_error)

    def to_dict(self) -> dict:
        return {**asdict(self), "passes": self.passes}


def monte_carlo_contraction(
    model: HeisenbergModel,
    x0,
    spec: VelocitySet,
    t: float,
    samples: int = 100_000,
    seed: int = 0,
) -> MonteCarloResult:
    """Estimate mu(Z_(1-t)) / mu(Z_1), for Z_s the image of the velocity
    set under the time-s exponential map at x0, by uniform sampling of
    the set.  Haar measure is Lebesgue measure in the model's
    coordinates, so each sampled velocity w weighs by J_w(s) =
    det d exp_x0(s w) / d w, the Jacobian of the closed-form helix
    (heisenberg._helix_det), and

        ratio = sum_w J_w(1 - t) / sum_w J_w(1).

    This route never forms the scalars (b, c) that quadrature_contraction
    integrates over, so it checks the quadrature's reduction.  By
    left-invariance the result does not depend on x0 (it is only
    validated).  Samples whose helix turns by |<w, V>| >= 2 pi before
    time 1 lie past their first conjugate time; they are rejected and
    counted, and more than 1% rejections aborts with VelocitySpecError.
    Sums that leave float64 range raise DomainError.  With x = J(1 - t)
    and y = J(1) per sample and R the ratio, the standard error is the
    delta method's sqrt(var(x - R y) / N) / mean(y) (Cochran, Sampling
    Techniques, 1977, ch. 6)."""
    if _reals(x0, "x0").shape != (model.dim,):
        raise DomainError(f"x0 must be {model.dim} coordinates")
    t = _real(t, "t", 0.0, 1.0)
    samples, seed = _count(samples, "samples", 1000, _MAX_SAMPLES), _count(seed, "seed", 0)
    rng = np.random.default_rng(seed)

    n = model.n
    rho = spec.horizontal_radius * rng.random(samples) ** (1.0 / (2 * n))
    p = spec.vertical_momentum * (2.0 * rng.random(samples) - 1.0)

    # the helix turns at the rate eps u0 = <w, V> = p and reaches its
    # first conjugate point after a full turn, at |p| s = 2 pi
    keep = 0.5 * np.abs(p) < np.pi - 1e-9
    rejected = int(samples - np.count_nonzero(keep))
    frac = rejected / samples
    if frac > _MAX_REJECT_FRACTION:
        raise VelocitySpecError(
            f"{100 * frac:.1f}% of sampled velocities pass their conjugate "
            "time before the endpoint; shrink the vertical momentum bound"
        )
    with np.errstate(all="ignore"):
        u0 = p[keep] / model.eps
        N = len(u0)
        det_t, det_1 = _exp_dets(model, u0, rho[keep] ** 2, [1.0 - t, 1.0])
        # an exact power of two that brings the largest weight near 1, so
        # that var() does not square weights near 1e300 past float64 range
        scale = np.ldexp(1.0, -np.frexp(np.max(det_1))[1])
        det_t, det_1 = det_t * scale, det_1 * scale
        num, den = np.sum(det_t), np.sum(det_1)
        ratio = num / den
        std_error = np.sqrt(np.var(det_t - ratio * det_1, ddof=1) / N) / np.mean(det_1)
    _require_finite((num, den, ratio, std_error), "the Monte Carlo ratio")

    return MonteCarloResult(
        ratio=float(ratio),
        std_error=float(std_error),
        t=t,
        samples_used=N,
        rejected_fraction=float(frac),
        bound=float(contraction_bound(n, t)),
        seed=seed,
    )


def quadrature_contraction(
    model: HeisenbergModel, spec: VelocitySet, t: float
) -> float:
    """Deterministic cross-check of monte_carlo_contraction: the same
    ratio via Gauss-Legendre quadrature of the closed-form determinant
    over (|w_H|, vertical momentum), with the sphere factor |w_H|^(2n-1),
    on the _QUAD_NODES-point rule of _gauss_legendre in each variable.

    Requires the whole set inside the conjugate-time regime
    (c_max < pi).  Where max |b|^2 would leave float64 range (|b| from
    about 1.3e154), b is scaled by a power of two and the b-free term of
    det A by its square (_scale_b), which cancels in the ratio.  det A is
    then evaluated once per time: it is at most free + (b 2^-k)^2 / 3 and
    the weights sum below 2, so neither sum overflows.  A b past float64
    range (eps |w_H| / 2) raises DomainError."""
    t = _real(t, "t", 0.0, 1.0)
    if spec.c_max >= np.pi:
        raise VelocitySpecError(
            "quadrature needs the full set inside |c| < pi"
        )
    n = model.n
    xr, wr = _gauss_legendre()
    # the radial weights leave out radius^(2n), which cancels in the ratio
    # and would underflow den to 0 at small radii
    u = 0.5 * (xr + 1.0)
    rho = spec.horizontal_radius * u
    if spec.vertical_momentum > 0.0:
        p = spec.vertical_momentum * xr
        # the momentum's power of two cancels in the ratio, and would
        # underflow w_p at subnormal momenta
        w_p = np.frexp(spec.vertical_momentum)[0] * wr
    else:
        p = np.zeros(1)
        w_p = np.ones(1)
    c = 0.5 * p[None, :]
    weight = (u ** (2 * n - 1))[:, None] * (0.5 * wr)[:, None] * w_p[None, :]
    with np.errstate(all="ignore"):
        b = -0.5 * model.eps * rho[:, None]
        b, free = _scale_b(b, np.max(np.abs(b)))
        num = np.sum(weight * _det_a(b, c, n, 1.0 - t, free))
        den = np.sum(weight * _det_a(b, c, n, 1.0, free))
        ratio = num / den
    _require_finite((num, den, ratio), "the quadrature ratio")
    return float(ratio)
