"""Volume-contraction density and the MCP(0, 2n+3) inequality.

The contraction toward a point maps the time-1 endpoint of each geodesic to
its time-(1-t) point.  Along a geodesic with scalars (b, c) the volume
density of that map is

    D(t) = det A(1 - t) / det A(1),

where A is the distortion (Jacobi) matrix with A(0) = 0, A'(0) = I; the
closed form of det A is the product of the two block determinants in the
riccati module, so D is evaluated in closed form, stays exact in the
c -> 0 and b -> 0 limits, and is even in b and in c.  The inequality under
test is

    D(t) >= (1 - t)^(2n+3)         for |c| < pi, t in [0, 1),

with equality approached as b -> infinity, c -> 0 (the exponent is the
vertical 5 plus 2n - 2 parallel directions, not the dimension 2n + 1).

Three independent evaluations are provided: the closed form (density and
the grid scans), the Jacobi flow of each sample (riccati.jacobi_flow, which
never evaluates the closed form) driven by Monte Carlo sampling of a
velocity set, and deterministic quadrature of the closed form over the
same set.  Sums use numpy's pairwise reduction, so results are
deterministic for a fixed seed and sample count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, OutOfRegimeError, VelocitySpecError
from .heisenberg import HeisenbergModel
from .riccati import RiccatiParams, _det_a, _model_blocks, _sinc, jacobi_flow

_MAX_REJECT_FRACTION = 0.01
# Samples per jacobi_flow call in monte_carlo_contraction.  A flow holds
# the powers K^0..K^6 of each sample's 6x6 generator (2 KB per sample)
# and, for both times at once, temporaries of 576 B per sample.  At 128
# samples each stays below 300 KB and the allocator reuses them from one
# chunk to the next: one library-benchmark operation (both contractions)
# took under 1k page faults, against 44k at 256 samples and 52k with the
# Pade flow at 512, at about 0.8 us each.
_CHUNK = 128
# The most (b, c, t) points mcp_scan evaluates.  It holds about 15 MB per
# million points, so 10^7 caps it near 150 MB, 80 times the largest grid
# (50^3) that the tests and the benchmark use.
_MAX_SCAN_POINTS = 10_000_000
# sharpness_scan's grid: b = 0 and _B_POINTS log-spaced values, times
# _C_POINTS log-spaced values of c in (0, pi).
_B_POINTS = 160
_C_POINTS = 200
# Gauss-Legendre nodes per axis of quadrature_contraction.
_QUAD_NODES = 64


def _require_finite(values, what: str) -> None:
    """DomainError unless every value is finite: finite inputs that give
    an infinite or NaN value lie outside float range, not in a verdict."""
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} is not finite in float64 for these inputs")


def _block_ratios(b, c, s):
    """The two per-block factors of det A(s) / det A(1) for broadcastable
    (b, c, s) arrays: d1(s) / d1(1), with d1 the 3x3 block's determinant,
    and sinc(cs) / sinc(c), so that

        det A(s) / det A(1) = [d1(s) / d1(1)] [s sinc(cs) / sinc(c)]^(2n-2).

    Neither factor holds a power of s above the fifth or a power of
    sinc(c) above the second, so neither underflows as n grows, where
    det A(s) and det A(1) both do."""
    return _det_a(b, c, 1, s) / _det_a(b, c, 1, 1.0), _sinc(c * s) / _sinc(c)


def density(params: RiccatiParams, t):
    """Contraction density D(t) = det A(1 - t) / det A(1) in closed form,
    per block (_block_ratios).

    Accepts scalar or array t in [0, 1); requires |c| < pi so that the
    normalization det A(1) is positive (OutOfRegimeError otherwise).
    Scalars so large that D leaves float64 range raise DomainError.
    D(0) = 1 exactly."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= 0.0) & (t_arr < 1.0)):
        raise DomainError("t must lie in [0, 1)")
    if abs(params.c) >= np.pi:
        raise OutOfRegimeError(
            f"density requires |c| < pi, got c = {params.c!r}"
        )
    b, c, n = params.b, params.c, params.n
    with np.errstate(all="ignore"):
        if not float(_det_a(b, c, 1, 1.0)) > 0.0:
            raise OutOfRegimeError("det A(1) is not positive for these scalars")
        s = 1.0 - t_arr
        out, f3 = _block_ratios(b, c, s)
        if n > 1:
            out = out * (s * f3) ** (2 * n - 2)
    _require_finite(out, "density")
    return out if out.ndim else float(out)


def contraction_bound(n: int, t):
    """The MCP comparison profile (1 - t)^(2n+3)."""
    return (1.0 - np.asarray(t, dtype=float)) ** (2 * n + 3)


def _ratio(b, c, n: int, t):
    """D(t) / (1-t)^(2n+3) for broadcastable (b, c, t) arrays, per block:
    with s = 1 - t,

        [d1(s) / d1(1) / s^5] [sinc(cs) / sinc(c)]^(2n-2).

    Nothing underflows as n grows, where (1-t)^(2n+3) does.  At n = 1 it
    rounds exactly as density(t) / contraction_bound(t)."""
    s = 1.0 - t
    f1, f3 = _block_ratios(b, c, s)
    ratio = f1 / s**5
    if n == 1:
        return ratio
    return ratio * f3 ** (2 * n - 2)


@dataclass
class DensityProfile:
    """Density, bound and their ratio on a t grid for one (b, c, n)."""

    params: RiccatiParams
    t_grid: np.ndarray
    density: np.ndarray
    bound: np.ndarray
    ratio: np.ndarray


def density_profile(params: RiccatiParams, t_grid) -> DensityProfile:
    """Evaluate density, bound, ratio over a t grid in [0, 1); a ratio
    that is not finite raises DomainError."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    dens = np.atleast_1d(density(params, t_grid))
    with np.errstate(all="ignore"):
        bound = contraction_bound(params.n, t_grid)
        ratio = _ratio(params.b, params.c, params.n, t_grid)
    _require_finite(ratio, "density/bound ratio")
    return DensityProfile(
        params=params,
        t_grid=t_grid,
        density=dens,
        bound=bound,
        ratio=ratio,
    )


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------

def _density_readings(n: int) -> dict:
    """Both readings of the two-block density display at a reference point.

    The per-block factors D1, D3 multiply to exp of the integrated full
    trace (the reading implemented everywhere here); their sum is the
    other literal reading of the displayed formula.  Recorded so the
    discrepancy is documented rather than silently patched; the product
    is the one that matches the ODE oracle."""
    b, c, t = 1.0, 1.0, 0.5
    d1 = float(_det_a(b, c, 1, 1.0 - t) / _det_a(b, c, 1, 1.0))
    x1 = c * (1.0 - t)
    d3 = float((np.sin(x1) / np.sin(c)) ** (2 * n - 2))
    return {
        "reference_point": {"b": b, "c": c, "t": t},
        "block1_factor": d1,
        "block3_factor": d3,
        "product_reading": d1 * d3,
        "sum_reading": d1 + d3,
        "implemented": "product",
    }


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
            "density_readings": _density_readings(self.n),
        }


def mcp_scan(
    n: int,
    b_range=(0.0, 10.0),
    c_range=(-3.0, 3.0),
    t_range=(0.05, 0.95),
    resolution: int = 50,
    tol: float = 1e-9,
) -> ScanReport:
    """Evaluate ratio = D(t) / (1-t)^(2n+3) on a full (b, c, t) grid.

    The c range must stay strictly inside (-pi, pi) and the t range inside
    [0, 1), and the grid within _MAX_SCAN_POINTS points.  Violations,
    ratios below 1 - tol, are collected with their grid coordinates; the
    expected outcome is an empty list.  A NaN ratio (the density out of
    float64 range) raises DomainError; an infinite one lies above 1."""
    if int(n) != n or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if resolution < 2:
        raise DomainError("resolution must be >= 2")
    if resolution**3 > _MAX_SCAN_POINTS:
        raise DomainError(
            f"a {resolution}^3 grid has more than {_MAX_SCAN_POINTS} points"
        )
    b_lo, b_hi = map(float, b_range)
    c_lo, c_hi = map(float, c_range)
    t_lo, t_hi = map(float, t_range)
    if not (b_lo <= b_hi) or not (c_lo < c_hi) or not (t_lo < t_hi):
        raise DomainError("ranges must be ordered")
    if max(abs(c_lo), abs(c_hi)) >= np.pi:
        raise DomainError("c range must stay strictly inside (-pi, pi)")
    if t_lo < 0.0 or t_hi >= 1.0:
        raise DomainError("t range must stay inside [0, 1)")

    b_values = np.linspace(b_lo, b_hi, resolution)
    c_values = np.linspace(c_lo, c_hi, resolution)
    t_values = np.linspace(t_lo, t_hi, resolution)
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
    """Infimum estimate of D(t) / (1-t)^(2n+3) over b in [0, b_max]
    (log-spaced plus zero) and c in (0, pi).

    The minimum approaches 1 from above as b grows and c shrinks, which is
    the empirical sharpness of the exponent 2n + 3; on the b = 0 slice
    alone the ratio never drops below (1-t)^(-2).  A NaN ratio anywhere on
    the grid raises DomainError; an infinite one (near c = pi for n >= 17)
    lies above the infimum."""
    if int(n) != n or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (0.0 < t < 1.0):
        raise DomainError(f"t must lie in (0, 1), got {t!r}")
    if not (0.0 < b_max < np.inf):
        raise DomainError(f"b_max must be positive and finite, got {b_max!r}")
    b = np.concatenate(([0.0], np.geomspace(1e-2, b_max, _B_POINTS)))[:, None]
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
        if not (self.horizontal_radius > 0.0 and np.isfinite(self.horizontal_radius)):
            raise VelocitySpecError("horizontal_radius must be a positive real")
        if not (self.vertical_momentum >= 0.0 and np.isfinite(self.vertical_momentum)):
            raise VelocitySpecError("vertical_momentum must be >= 0")

    @property
    def c_max(self) -> float:
        return 0.5 * self.vertical_momentum


def _flow_dets(b, c, n, s):
    """det A at the increasing times s for per-sample scalars b, c, shape
    (len(s), len(b)), from jacobi_flow on _CHUNK samples at a time.

    W and R are block diagonal, so det A = det A1 a^(2n-2), where A1 is
    the flow of the 3x3 block and a that of one parallel direction
    (W = 0, R = c^2)."""
    out = np.empty((len(s), len(b)))
    for lo in range(0, len(b), _CHUNK):
        W, R = _model_blocks(b[lo : lo + _CHUNK], c[lo : lo + _CHUNK], 2)
        A1, _ = jacobi_flow(W[..., :3, :3], R[..., :3, :3], s)
        out[:, lo : lo + _CHUNK] = np.linalg.det(A1)
        if n > 1:
            a, _ = jacobi_flow(W[..., 3:4, 3:4], R[..., 3:4, 3:4], s)
            out[:, lo : lo + _CHUNK] *= a[..., 0, 0] ** (2 * n - 2)
    return out


@dataclass
class MonteCarloResult:
    """Sampled contraction ratio with the delta-method standard error of
    a ratio estimator.

    Iterable as (ratio, std_error) for tuple unpacking."""

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

    def __iter__(self):
        return iter((self.ratio, self.std_error))

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
    """Estimate mu(U_t) / mu(U_0) for U_0 the exponential image of the
    velocity set at x0, by uniform sampling of the set and the distortion
    determinant of each sample from the Jacobi flow (riccati.jacobi_flow):

        ratio = sum_w det A_w(1 - t) / sum_w det A_w(1).

    By left-invariance the result does not depend on x0 (it is validated
    and recorded only).  Samples whose vertical scalar reaches |c| >= pi
    lie past their first conjugate time before the endpoint; they are
    rejected and counted, and more than 1% rejections aborts with
    VelocitySpecError.  With x = det A(1 - t) and y = det A(1) per sample
    and R the ratio, the standard error is the delta method's
    sqrt(var(x - R y) / N) / mean(y) (Cochran, Sampling Techniques,
    1977, ch. 6)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dim,) or not np.all(np.isfinite(x0)):
        raise DomainError(f"x0 must be {model.dim} finite coordinates")
    if not (0.0 < t < 1.0):
        raise DomainError(f"t must lie in (0, 1), got {t!r}")
    if samples < 1000:
        raise DomainError("samples must be >= 1000")
    rng = np.random.default_rng(seed)

    n = model.n
    rho = spec.horizontal_radius * rng.random(samples) ** (1.0 / (2 * n))
    p = spec.vertical_momentum * (2.0 * rng.random(samples) - 1.0)
    b = -0.5 * model.eps * rho
    c = 0.5 * p

    keep = np.abs(c) < np.pi - 1e-9
    rejected = int(samples - np.count_nonzero(keep))
    frac = rejected / samples
    if frac > _MAX_REJECT_FRACTION:
        raise VelocitySpecError(
            f"{100 * frac:.1f}% of sampled velocities pass their conjugate "
            "time before the endpoint; shrink the vertical momentum bound"
        )
    b, c = b[keep], c[keep]

    det_t, det_1 = _flow_dets(b, c, n, [1.0 - t, 1.0])
    ratio = float(np.sum(det_t) / np.sum(det_1))
    N = len(b)
    std_error = float(
        np.sqrt(np.var(det_t - ratio * det_1, ddof=1) / N) / np.mean(det_1)
    )

    return MonteCarloResult(
        ratio=ratio,
        std_error=std_error,
        t=float(t),
        samples_used=N,
        rejected_fraction=float(frac),
        bound=float((1.0 - t) ** (2 * n + 3)),
        seed=seed,
    )


def quadrature_contraction(
    model: HeisenbergModel, spec: VelocitySet, t: float
) -> float:
    """Deterministic cross-check of monte_carlo_contraction: the same
    ratio via Gauss-Legendre quadrature of the closed-form determinant
    over (|w_H|, vertical momentum), with the sphere factor |w_H|^(2n-1).

    Requires the whole set inside the conjugate-time regime
    (c_max < pi)."""
    if not (0.0 < t < 1.0):
        raise DomainError(f"t must lie in (0, 1), got {t!r}")
    if spec.c_max >= np.pi:
        raise VelocitySpecError(
            "quadrature needs the full set inside |c| < pi"
        )
    n = model.n
    xr, wr = np.polynomial.legendre.leggauss(_QUAD_NODES)
    # the radial weights leave out radius^(2n), which cancels in the ratio
    # and would underflow den to 0 at small radii
    u = 0.5 * (xr + 1.0)
    rho = spec.horizontal_radius * u
    if spec.vertical_momentum > 0.0:
        p = spec.vertical_momentum * xr
        w_p = spec.vertical_momentum * wr
    else:
        p = np.zeros(1)
        w_p = np.ones(1)
    b = -0.5 * model.eps * rho[:, None]
    c = 0.5 * p[None, :]
    weight = (u ** (2 * n - 1))[:, None] * (0.5 * wr)[:, None] * w_p[None, :]
    num = float(np.sum(weight * _det_a(b, c, n, 1.0 - t)))
    den = float(np.sum(weight * _det_a(b, c, n, 1.0)))
    return num / den
