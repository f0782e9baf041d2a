"""Matrix Riccati machinery for the contraction analysis.

Everything here lives at the parameter level: a geodesic enters only through
two scalars and the fiber dimension,

    b = -(eps/2) * |horizontal speed|   (so b <= 0 for actual geodesics),
    c = (1/2) * <velocity, vertical field>,
    n = number of horizontal pairs (frame dimension is 2n + 1).

The moving-frame drift ``W`` and the curvature operator ``R`` along a
geodesic decompose into a 3x3 block (vertical direction, velocity direction,
its rotation) and a scalar multiple of the identity on the remaining 2n - 2
directions.  The closed forms below follow that split; the flow takes W and
R whole, so ambient curvature that couples the blocks needs no change
there.  The distortion matrix A(t) solves the row-vector Jacobi system

    A'' + 2 A' W + A (W^2 + R) = 0,   A(0) = 0,  A'(0) = I,

and F = A^{-1} A' + W solves the Riccati equation

    F' = -R - F^2 - F W - W^T F.

The branch of interest blows up at time 1 (the contraction endpoint); its
inverse G(t) = F(1 - t)^{-1} starts at 0 and satisfies

    G' = -G R G - I - W G - G W^T.

Neither Riccati equation is integrated here.  Both matrices are read off
the linear Jacobi flow (Radon's linearisation; W. T. Reid, Riccati
Differential Equations, 1972), which jacobi_flow propagates exactly with
matrix exponentials because W and R are constant.  The linear flow passes
through the poles of F and of G (conjugate points, kernels of F) without
any change of chart.

Closed forms for F(1 - t) are expressed through the scaled cotangent

    k2hat(x) = (x cot x - 1) / x**2,

which is analytic at x = 0; this keeps small-|c| evaluation stable without
case splits.  All scalar helpers accept arrays and broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError

# Below this |x| the helpers _k2hat, _sxc and _xms switch to their Taylor
# series through x^14, whose truncation error at the cut is below 1e-16
# relative.  The direct expressions lose about 1e-16 / x^2 relative to
# cancellation, so both sides stay under 1e-14 against 40-digit mpmath
# (7e-15 at worst on (0, 3.1], 5.4e-15 for _xms just above the cut; a cut
# of 0.05 left 2e-13 just above it).
_SERIES_CUT = 0.3
# Taylor coefficients in x^2, highest power first (Horner order).
_K2HAT_SERIES = (-3617 / 162820783125, -4 / 18243225, -1382 / 638512875,
                 -2 / 93555, -1 / 4725, -2 / 945, -1 / 45, -1 / 3)
_SXC_SERIES = (-1 / 22230464256000, 1 / 93405312000, -1 / 518918400,
               1 / 3991680, -1 / 45360, 1 / 840, -1 / 30, 1 / 3)
_XMS_SERIES = (-1 / 355687428096000, 1 / 1307674368000, -1 / 6227020800,
               1 / 39916800, -1 / 362880, 1 / 5040, -1 / 120, 1 / 6)


def _series(coeffs, x):
    """The Taylor series in x^2 at x clipped to the cut, so that no |x|
    overflows it; callers take it only where |x| <= _SERIES_CUT.  Horner's
    rule as np.polyval runs it, less its first step 0 * z + c_0 = c_0."""
    near = np.clip(x, -_SERIES_CUT, _SERIES_CUT)
    z = near * near
    y = coeffs[0]
    for c in coeffs[1:]:
        y = y * z + c
    return y


def _k2hat(x):
    """(x cot x - 1) / x**2, analytic at 0 with value -1/3."""
    x = np.asarray(x, dtype=float)
    series = _series(_K2HAT_SERIES, x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = (x * np.cos(x) / np.sin(x) - 1.0) / (x * x)
    return np.where(np.abs(x) <= _SERIES_CUT, series, direct)


def _sinc(x):
    """sin x / x, analytic at 0 with value 1."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def _sxc(x):
    """(sin x - x cos x) / x**3, analytic at 0 with value 1/3."""
    x = np.asarray(x, dtype=float)
    series = _series(_SXC_SERIES, x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = (np.sin(x) - x * np.cos(x)) / (x * x * x)
    return np.where(np.abs(x) <= _SERIES_CUT, series, direct)


def _xms(x):
    """(x - sin x) / x**3, analytic at 0 with value 1/6."""
    x = np.asarray(x, dtype=float)
    series = _series(_XMS_SERIES, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (x - np.sin(x)) / x / x / x
    return np.where(np.abs(x) <= _SERIES_CUT, series, direct)


def _check_sin_regular(x, what="sin(c*t)"):
    """Raise if x is (numerically) a nonzero multiple of pi."""
    k = round(float(x) / math.pi)
    if k != 0 and abs(float(x) - k * math.pi) < 1e-12:
        raise SingularityError(what)


@dataclass(frozen=True)
class RiccatiParams:
    """Scalar data of one geodesic direction.

    b and c may carry either sign; every scalar output below is even under
    b -> -b and c -> -c separately (the matrices themselves transform by a
    diagonal sign conjugation, see build_blocks).
    """

    b: float
    c: float
    n: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.b) and np.isfinite(self.c)):
            raise DomainError("b and c must be finite")
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be an integer >= 1, got {self.n!r}")
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class BlockMatrices:
    """Drift W and curvature R along a geodesic, each (2n+1) x (2n+1) in
    the adapted frame (vertical direction, velocity direction, its
    rotation, then the 2n - 2 parallel directions)."""

    W: np.ndarray
    R: np.ndarray


def build_blocks(params: RiccatiParams, rbar=None) -> BlockMatrices:
    """Assemble W and R from (b, c, n) and optional ambient curvature.

    rbar ((2n+1) x (2n+1), symmetric) is the curvature of the ambient
    connection in the adapted frame and is added to R; it defaults to zero,
    which is the exact value for the model group.

    Flipping the sign of b conjugates W and R by diag(-1, 1, 1, ...);
    flipping c conjugates by diag(1, -1, 1, ...).  Traces, determinants
    and eigenvalues are therefore even in each of b, c.
    """
    W, R = _model_blocks(params.b, params.c, params.n)
    if rbar is not None:
        rbar = np.asarray(rbar, dtype=float)
        if rbar.shape != R.shape:
            raise DomainError(f"rbar must have shape {R.shape}, got {rbar.shape}")
        if np.max(np.abs(rbar - rbar.T)) > 1e-9:
            raise DomainError("rbar must be symmetric")
        R = R + rbar
    return BlockMatrices(W=W, R=R)


def _model_blocks(b, c, n: int):
    """Full drift W and curvature R with zero ambient curvature for
    broadcastable arrays b, c: stacks of shape b.shape + (2n+1, 2n+1)."""
    b, c = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(c, dtype=float))
    d = 2 * n + 1
    W = np.zeros(b.shape + (d, d))
    W[..., 0, 2] = b
    W[..., 1, 2] = c
    W[..., 2, 0] = -b
    W[..., 2, 1] = -c
    R = np.zeros(b.shape + (d, d))
    # entries past float64 range are inf, which jacobi_flow refuses
    with np.errstate(over="ignore", invalid="ignore"):
        R[..., 0, 0] = b * b
        R[..., 0, 1] = R[..., 1, 0] = b * c
        R[..., 1, 1] = c * c
        R[..., 2, 2] = c * c - 3.0 * b * b
        for k in range(3, d):
            R[..., k, k] = c * c
    return W, R


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _f1_pieces(b, c, t):
    """Entrywise closed form of F1(1 - t), scaled-cotangent version.

    With x = c t, k2h = k2hat(x) and k1h = b^2 t^2 k2h - 1 (which stays
    <= -1 for |x| < pi), the entries of F1(1 - t) are rational in these
    quantities; the raw expressions with K2 = x^2 k2h and K1 = c^2 k1h are
    algebraically identical but lose all accuracy as c -> 0.
    """
    x = c * t
    k2h = _k2hat(x)
    k1h = b * b * t * t * k2h - 1.0
    xc = 1.0 + x * x * k2h
    f00 = 1.0 / (t * k1h)
    # The (0,1) entry must be odd in c: flipping c conjugates the blocks by
    # diag(1,-1,1).  A c-even form here fails the ODE cross-check whenever
    # c != 1.
    f01 = b * c * t * k2h / k1h
    f02 = b ** 3 * t * t * k2h / k1h
    f11 = (1.0 + (c * c - b * b) * t * t * k2h) / (t * k1h)
    f12 = c * b * b * t * t * k2h / k1h
    f22 = t * b * b / k1h - xc / t
    return f00, f01, f02, f11, f12, f22, xc, k1h


def closed_forms(params: RiccatiParams, t: float):
    """Closed-form (F1(1 - t), per-direction F3(1 - t)) for zero ambient
    curvature.

    t is time-to-endpoint: the returned matrices are the blow-up-at-1
    Riccati branch evaluated at time 1 - t.  Requires 0 < t < 1 and
    c*t away from nonzero multiples of pi (SingularityError naming the
    offending factor otherwise; the factor "K1" can only vanish past the
    first such multiple).  Entries outside float64 range raise DomainError.
    """
    if not (0.0 < t < 1.0):
        raise DomainError(f"t must lie in (0, 1), got {t!r}")
    # numpy scalars, so that overflow gives inf (Python's b ** 3 raises)
    b, c = np.float64(params.b), np.float64(params.c)
    _check_sin_regular(c * t)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pieces = [float(v) for v in _f1_pieces(b, c, t)]
    f00, f01, f02, f11, f12, f22, xc, k1h = pieces
    if abs(k1h) < 1e-14:
        raise SingularityError("K1")
    if not all(map(math.isfinite, pieces)):
        raise DomainError(
            f"closed forms leave float64 range at b = {params.b!r}, c = {params.c!r}"
        )
    F1 = np.array([[f00, f01, f02], [f01, f11, f12], [f02, f12, f22]])
    return F1, float(-xc / t)


# ---------------------------------------------------------------------------
# determinant factors of the distortion matrix
# ---------------------------------------------------------------------------

def _det_a(b, c, n: int, s):
    """Closed-form det A(s) for broadcastable (b, c, s) arrays: the 3x3
    block's s^3 sinc(x)^2 + b^2 s^5 sinc(x) sxc(x), x = cs, times the
    parallel block's (s sinc x)^(2n-2)."""
    x = c * s
    sc = _sinc(x)
    d1 = s**3 * sc * sc + b * b * s**5 * sc * _sxc(x)
    if n == 1:
        return d1
    return d1 * (s * sc) ** (2 * n - 2)


def det_distortion(params: RiccatiParams, t):
    """det A(t) = det A1(t) * (t sinc(ct))^(2n-2), where det A1 is the 3x3
    block's factor t^3 (1 + b^2 t^2 / 3) at c = 0; equals t^{2n+1} at
    b = c = 0."""
    return _det_a(params.b, params.c, params.n, np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# conjugate time
# ---------------------------------------------------------------------------

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
    if not (np.isfinite(t_max) and t_max > 0.0):
        raise DomainError(f"t_max must be positive and finite, got {t_max!r}")
    if params.c == 0.0:
        return None
    t_star = np.pi / abs(params.c)
    return float(t_star) if t_star <= t_max else None


# ---------------------------------------------------------------------------
# the Jacobi flow and the inverse Riccati branch read off it
# ---------------------------------------------------------------------------

# The most steps jacobi_flow will take.  It takes about 1.7 |b| steps per
# unit time, so 10^5 admits |b| up to about 5.8e4 on a unit span, some 50
# times the largest |b| (1e3) that the tests and the benchmark use.
_MAX_FLOW_STEPS = 100_000
# The most matrix entries of the step exponentials that one call to
# _taylor_expm forms in jacobi_flow (512 KB per temporary): consecutive
# intervals go to it together up to this size, so a long time grid on a
# large block does not hold all of them at once.
_EXPM_ENTRIES = 2**16
# The scaled size up to which the degree-24 Taylor polynomial T_24 of exp
# meets double precision: the root of sum_{k>=25} |c_k| x^(k-1) = 2^-53,
# where log(e^-x T_24(x)) = sum_k c_k x^k (Al-Mohy & Higham, SIAM J. Matrix
# Anal. Appl. 31(3), 2009).
_THETA24 = 2.219048869
# 1/k! for k = 0..23 as the four Paterson-Stockmeyer blocks of six, and
# 1/24!, the last coefficient of T_24.
_TAYLOR_BLOCKS = np.array([1.0 / math.factorial(k) for k in range(24)]).reshape(4, 6)
_TAYLOR_LAST = 1.0 / math.factorial(24)


def _taylor_powers(K):
    """What _taylor_expm needs of a (..., m, m) stack K: the powers
    [I, K, ..., K^6] in one (..., 7, m, m) array, and
    eta = min(max(d4, d5), max(d5, d6)) with d_k = ||K^k||_1^(1/k).

    The scaling takes eta from the norms of K^4, K^5 and K^6, not from
    ||hK||_1 (Al-Mohy & Higham 2009).  The Jacobi generators are far from
    normal, so d_k lies well below ||K||_1, and scaling by the plain norm
    would square too often and lose digits (det A off by 2e-9 relative at
    |b| = 100 against mpmath, 4.8e-11 with eta)."""
    K = np.asarray(K, dtype=float)
    P = np.empty(K.shape[:-2] + (7,) + K.shape[-2:])
    P[..., 0, :, :] = np.eye(K.shape[-1])
    P[..., 1, :, :] = K
    for k, (i, j) in enumerate(((1, 1), (2, 1), (2, 2), (4, 1), (3, 3)), start=2):
        np.matmul(P[..., i, :, :], P[..., j, :, :], out=P[..., k, :, :])
    norms = np.max(np.ones(K.shape[-1]) @ np.abs(P[..., 4:, :, :]), axis=-1)
    d4, d5, d6 = np.moveaxis(norms ** (1.0 / np.arange(4.0, 7.0)), -1, 0)
    return P, np.minimum(np.maximum(d4, d5), np.maximum(d5, d6))


def _taylor_expm(powers, h):
    """exp(h_i K) from powers = _taylor_powers(K), shape (len(h),) + K.shape.

    X = a K with a = 2^-s h_i is evaluated by T_24 in Paterson-Stockmeyer
    form, T_24(X) = B_0 + X^6 (B_1 + X^6 (B_2 + X^6 (B_3 + X^6 / 24!))) with
    B_j = sum_{i<6} a^i K^i / (6j + i)!, and squared s times.  Each pair
    (h_i, K) takes its own s = max(0, ceil(log2(|h_i| eta / theta_24))),
    since d_k(hK) = |h| d_k(K), and stops squaring once its own s is
    reached, so its result does not depend on the rest of the stack."""
    P, eta = powers
    h = np.asarray(h, dtype=float).reshape((-1,) + (1,) * eta.ndim)
    s = np.ceil(np.log2(np.maximum(np.abs(h) * eta, _THETA24) / _THETA24)).astype(int)
    ai = (h * np.ldexp(1.0, -s))[..., None] ** np.arange(7.0)
    # the coefficients of B_j per pair, so that B_j is one product with
    # the stacked powers and X^i is never formed
    coef = ai[..., None, :6] * _TAYLOR_BLOCKS
    m = P.shape[-1]
    Pf = P.reshape(P.shape[:-2] + (m * m,))[..., :6, :]
    X6 = ai[..., 6, None, None] * P[..., 6, :, :]
    E = _TAYLOR_LAST * X6
    for j in (3, 2, 1, 0):
        E = (coef[..., j : j + 1, :] @ Pf).reshape(E.shape) + E
        if j:
            E = X6 @ E
    for j in range(int(np.max(s, initial=0))):
        E = np.where((s > j)[..., None, None], E @ E, E)
    return E


def jacobi_flow(W, R, s):
    """(A(s), A'(s)) for A'' + 2 A' W + A (W^2 + R) = 0, A(0) = 0,
    A'(0) = I, with constant coefficients.

    W and R are (..., d, d) stacks of finite matrices that broadcast
    against each other; s is a nonempty 1-d array of increasing times >= 0.
    Returns A and A', each of shape (len(s), ..., d, d).

    The row state Y = [A, A'] satisfies Y' = Y K with
    K = [[0, -(W^2 + R)], [I, -2W]], so Y(s + h) = Y(s) expm(hK) exactly.
    Each interval between consecutive times is split into equal steps
    with h * max(1, max|W|, sqrt(max|R|)) <= 1: |K| grows like b^2, and
    one exponential over the whole span loses digits in its squaring
    phase as it does (with one step per interval, det A is off by 4e-8
    relative at |b| = 100 and 6e-2 at |b| = 1e3 against mpmath).  The
    powers of K and their norms are taken once per flow; the step
    exponentials of all intervals then come from _taylor_expm calls of at
    most _EXPM_ENTRIES entries of output each.  More than _MAX_FLOW_STEPS
    steps up to the last time raise DomainError before any is taken.
    """
    W, R = np.broadcast_arrays(np.asarray(W, dtype=float), np.asarray(R, dtype=float))
    # NaN and inf reach these maxima; Python's max(1.0, nan) is 1.0
    w_max = float(np.max(np.abs(W), initial=0.0))
    r_max = float(np.max(np.abs(R), initial=0.0))
    if not (math.isfinite(w_max) and math.isfinite(r_max)):
        raise DomainError("W and R must be finite")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.ndim != 1 or not len(s) or not np.all(np.isfinite(s)) or s[0] < 0.0:
        raise DomainError("flow times must be a nonempty list of finite reals >= 0")
    span = np.diff(s, prepend=0.0)
    if not np.all(span[1:] > 0.0):
        raise DomainError("flow times must be strictly increasing")
    rate = max(1.0, w_max, math.sqrt(r_max))
    if np.ceil(s[-1] * rate) > _MAX_FLOW_STEPS:
        raise DomainError(
            f"the flow to s = {s[-1]:g} needs about {s[-1] * rate:.3g} steps "
            f"(limit {_MAX_FLOW_STEPS}); coefficients this large are out of range"
        )
    d = W.shape[-1]
    K = np.zeros(W.shape[:-2] + (2 * d, 2 * d))
    K[..., :d, d:] = -(W @ W + R)
    K[..., d:, :d] = np.eye(d)
    K[..., d:, d:] = -2.0 * W
    Y = np.zeros(W.shape[:-2] + (d, 2 * d))
    Y[..., d:] = np.eye(d)
    out = np.empty((len(s),) + Y.shape)
    steps = np.ceil(span * rate).astype(int)
    h = span / np.maximum(steps, 1)
    powers = _taylor_powers(K)
    group = max(1, _EXPM_ENTRIES // max(K.size, 1))
    for lo in range(0, len(s), group):
        E = _taylor_expm(powers, h[lo : lo + group])
        for k in range(lo, min(lo + group, len(s))):
            for _ in range(steps[k]):
                Y = Y @ E[k - lo]
            out[k] = Y
    return out[..., :d], out[..., d:]


@dataclass
class RiccatiSolution:
    """Inverse-Riccati blocks on a grid, with F recovered where regular:
    the 3x3 block (G1, F1) and the parallel block (G3, F3) of one flow.

    F1/F3 hold NaN at grid points flagged in ``singular`` (always at
    t = 0, where G vanishes by construction)."""

    params: RiccatiParams
    t_grid: np.ndarray
    G1: np.ndarray
    G3: np.ndarray
    F1: np.ndarray
    F3: np.ndarray
    tr_F1: np.ndarray
    tr_F3: np.ndarray
    singular: np.ndarray


def _riccati_branch(W, R, t_grid):
    """(G(t), F(1 - t), f_ok) of the blow-up-at-1 Riccati branch of drift
    W and curvature R, on t_grid.

    Running the Jacobi flow backward from the endpoint is the flow of
    (-W, R) forward in t = 1 - s; its (A, A') gives the branch by Radon's
    linearisation, with no change of chart at poles of either matrix:

        F(1 - t) = W - A^{-1} A',      G(t) = -(A' - A W)^{-1} A.

    f_ok is False where A is singular (always at t = 0, and at conjugate
    points); G is NaN where A' - A W is singular (kernels of F)."""
    A, Ap = jacobi_flow(-W, R, t_grid)
    # both systems in one stack: one rank test and one solve
    M, rhs = np.stack((A, Ap - A @ W)), np.stack((Ap, -A))
    ok = np.linalg.matrix_rank(M) == M.shape[-1]
    X = np.full(rhs.shape, np.nan)
    X[ok] = np.linalg.solve(M[ok], rhs[ok])
    return X[1], W - X[0], ok[0]


def integrate_inverse_riccati(
    params: RiccatiParams, blocks: BlockMatrices, t_grid
) -> RiccatiSolution:
    """G(t) = F(1 - t)^{-1} on the grid, which solves
    G' = -G R G - I - W G - G W^T from G(0) = 0, with F(1 - t) where it
    is regular, split into the 3x3 block (G1, F1) and the block of the
    2n - 2 parallel directions (G3, F3).

    One Jacobi flow of the full W and R gives both (see _riccati_branch),
    so grids crossing zero-eigenvalue points of F(1 - t) (|c| > pi/2) or
    conjugate points (|c| > pi) need no special handling, and an R that
    couples the blocks needs none either.  For the model's block-diagonal
    W and R the mixed blocks of F and G are zero.

    Grid points where F is not representable (always the start, where
    G = 0) are flagged in ``singular`` and carry NaN in F1/F3 and in the
    traces of nonempty blocks.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise DomainError("t_grid must be a 1-d array with at least 2 points")
    if t_grid[0] != 0.0:
        raise DomainError("t_grid must start at 0")
    if np.any(np.diff(t_grid) <= 0.0):
        raise DomainError("t_grid must be strictly increasing")
    if t_grid[-1] >= 1.0:
        raise DomainError("t_grid must stay below 1")
    d = 2 * params.n + 1
    if blocks.W.shape != (d, d) or blocks.R.shape != (d, d):
        raise DomainError(f"the blocks must be {d}x{d} for n = {params.n}")
    G, F, f_ok = _riccati_branch(blocks.W, blocks.R, t_grid)
    F1, F3 = F[:, :3, :3], F[:, 3:, 3:]
    return RiccatiSolution(
        params=params,
        t_grid=t_grid,
        G1=G[:, :3, :3],
        G3=G[:, 3:, 3:],
        F1=F1,
        F3=F3,
        tr_F1=np.trace(F1, axis1=1, axis2=2),
        tr_F3=np.trace(F3, axis1=1, axis2=2),
        singular=~f_ok,
    )
