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
sharpness_scan (the infimum of D(t) / (1-t)^(2n+3)), density_profile,
mcp_scan (the grid scan, with its ScanReport) and their kernels live in
scalars, which loads no numpy, and are imported here.

Three evaluations are provided.  The closed form gives the density,
the profile and the grid scan.  The set-level ratio mu(Z_(1-t)) / mu(Z_1), for Z_s the
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

from .errors import DomainError, VelocitySpecError, _count, _real, _reals, _require_finite
from .riccati import _det_a
from .scalars import _check_regime, _density_ratio, _scale_b
from .scalars import (  # re-exported
    DensityProfile, RiccatiParams, ScanReport, density_profile, mcp_scan, sharpness_scan)

if TYPE_CHECKING:  # annotations only: importing mcp loads no heisenberg
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


def density(params: RiccatiParams, t):
    """Contraction density D(t) = det A(1 - t) / det A(1) in closed form,
    per block (_density_ratio).

    Accepts scalar or array t in [0, 1); requires |c| < pi
    (scalars._check_regime).  Scalars so large that D leaves float64 range
    raise DomainError.  D(0) = 1 exactly."""
    t = _reals(t, "t")
    _check_regime(params, np.all((t >= 0.0) & (t < 1.0)))
    with np.errstate(all="ignore"):
        out = _density_ratio(params.b, params.c, params.n, t)[0]
    _require_finite(out, "density")
    return out if out.ndim else float(out)


def contraction_bound(n: int, t):
    """The MCP comparison profile (1 - t)^(2n+3)."""
    return (1.0 - _reals(t, "t")) ** (2 * _count(n, "n", 1) + 3)


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
