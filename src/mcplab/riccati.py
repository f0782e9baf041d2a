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

The branch of interest blows up at time 1 (the contraction endpoint) and
is read as F(1 - t) for t in [0, 1).  The Riccati equation is not
integrated here: F is read off the linear Jacobi flow (Radon's
linearisation; W. T. Reid, Riccati Differential Equations, 1972), which
jacobi_flow propagates exactly with matrix exponentials because W and R
are constant.  The linear flow passes through the poles of F (conjugate
points) and its kernels without any change of chart.

Closed forms for F(1 - t) are expressed through the scaled cotangent

    k2hat(x) = (x cot x - 1) / x**2 = -sxc(x) / sinc(x),

which is analytic at x = 0, as det A's kernels sinc(x) = sin x / x and
sxc(x) = (sin x - x cos x) / x**3 are, so small |c| needs no case split.
_sinc_sxc takes both from one sine-cosine pair of x (_helix_kernels of
heisenberg the helix's from one pair of x / 2).  It and _block_det live
in scalars, which loads no numpy; both broadcast, and _sinc_sxc also has a
path for one Python float, which closed_forms takes and which rounds as
the array path does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError, _real, _reals, _require_finite
from .scalars import _block_det, _sinc_sxc
from .scalars import RiccatiParams, conjugate_time  # public here as well

def _check_sin_regular(x):
    """Raise if x = c t is (numerically) a nonzero multiple of pi."""
    k = round(float(x) / math.pi)
    if k != 0 and abs(float(x) - k * math.pi) < 1e-12:
        raise SingularityError("sin(c*t)")


@dataclass(frozen=True)
class BlockMatrices:
    """Drift W and curvature R along a geodesic, each (2n+1) x (2n+1) in
    the adapted frame (vertical direction, velocity direction, its
    rotation, then the 2n - 2 parallel directions)."""

    W: np.ndarray
    R: np.ndarray


def build_blocks(params: RiccatiParams) -> BlockMatrices:
    """Assemble W and R of the model group from (b, c, n); its ambient
    curvature is zero.

    Flipping the sign of b conjugates W and R by diag(-1, 1, 1, ...);
    flipping c conjugates by diag(1, -1, 1, ...).  Traces, determinants
    and eigenvalues are therefore even in each of b, c.
    """
    b, c, d = params.b, params.c, 2 * params.n + 1
    W = np.zeros((d, d))
    W[0, 2], W[1, 2], W[2, 0], W[2, 1] = b, c, -b, -c
    # entries past float64 range are inf, which jacobi_flow refuses
    R = np.zeros((d, d))
    R[0, 0] = b * b
    R[0, 1] = R[1, 0] = b * c
    R[1, 1] = c * c
    R[2, 2] = c * c - 3.0 * b * b
    for k in range(3, d):
        R[k, k] = c * c
    return BlockMatrices(W=W, R=R)


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
    sinc, sxc = _sinc_sxc(x)
    k2h = -sxc / sinc
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
    first such multiple).  Entries outside float64 range raise DomainError,
    as does a t that is not one real number.

    The entries are evaluated on Python floats (_sinc_sxc's float path),
    and round as on numpy scalars.  Where Python raises and numpy gives
    inf or NaN (b ** 3 past float64 range, a divisor that is 0), they are
    evaluated on numpy scalars, so the checks below see numpy's values.
    """
    b, c, t = params.b, params.c, _real(t, "t", 0.0, 1.0)
    _check_sin_regular(c * t)
    try:
        pieces = _f1_pieces(b, c, t)
    except (OverflowError, ZeroDivisionError):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            pieces = [float(v) for v in _f1_pieces(np.float64(b), np.float64(c), t)]
    f00, f01, f02, f11, f12, f22, xc, k1h = pieces
    if abs(k1h) < 1e-14:
        raise SingularityError("K1")
    if not all(map(math.isfinite, pieces)):
        raise DomainError(
            f"closed forms leave float64 range at b = {params.b!r}, c = {params.c!r}"
        )
    F1 = np.array([f00, f01, f02, f01, f11, f12, f02, f12, f22]).reshape(3, 3)
    return F1, -xc / t


# ---------------------------------------------------------------------------
# determinant factors of the distortion matrix
# ---------------------------------------------------------------------------

def _det_a(b, c, n: int, s, free=1.0):
    """Closed-form det A(s) for broadcastable (b, c, s) arrays: the 3x3
    block's factor, x = cs, times the parallel block's (s sinc x)^(2n-2)."""
    sinc, sxc = _sinc_sxc(c * s)
    d1 = _block_det(b, s, sinc, sxc, free)
    return d1 if n == 1 else d1 * (s * sinc) ** (2 * n - 2)


def det_distortion(params: RiccatiParams, t):
    """det A(t) = det A1(t) * (t sinc(ct))^(2n-2), where det A1 is the 3x3
    block's factor t^3 (1 + b^2 t^2 / 3) at c = 0; equals t^{2n+1} at
    b = c = 0.  A t that is not finite, or a det A past float64 range (as
    where c t is), raises DomainError."""
    t = _reals(t, "t")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _det_a(params.b, params.c, params.n, t)
    _require_finite(out, "det A")
    return out


# ---------------------------------------------------------------------------
# the Jacobi flow and the Riccati branch read off it
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
# The exponents 1/k of the d_k = ||K^k||_1^(1/k), k = 4, 5, 6, and the
# powers 0..6 of each step's scale a.
_D_ROOTS = 1.0 / np.arange(4.0, 7.0)
_POWERS = np.arange(7.0)


def _taylor_expm(K, h):
    """exp(h_i K), shape (len(h), m, m), for one m x m K and 1-d steps h.

    X = a K with a = 2^-s h_i is evaluated by T_24 in Paterson-Stockmeyer
    form, T_24(X) = B_0 + X^6 (B_1 + X^6 (B_2 + X^6 (B_3 + X^6 / 24!))) with
    B_j = sum_{i<6} a^i K^i / (6j + i)!, and squared s times.  Each h_i
    takes its own s = max(0, ceil(log2(|h_i| eta / theta_24))), since
    d_k(hK) = |h| d_k(K), and stops squaring once its own s is reached, so
    its result does not depend on the other steps.  Where max|h_i| eta <=
    theta_24 every s is 0: a = h_i exactly (2^0 = 1), and the scaling and
    squaring are skipped.  Every flow of the benchmark's geodesic sweep is
    in that case (max|h_i| eta is 1.57 at most over its seeds 1, 7 and
    42); a few of the tests' flows, with |h| eta just above theta_24, are
    not.

    The scaling takes eta = min(max(d4, d5), max(d5, d6)), d_k =
    ||K^k||_1^(1/k), not ||hK||_1 (Al-Mohy & Higham 2009): the Jacobi
    generators are far from normal, so d_k lies well below ||K||_1, and the
    plain norm would square too often and lose digits (det A off by 2e-9
    relative at |b| = 100 against mpmath, 4.8e-11 with eta)."""
    m = K.shape[-1]
    P = np.empty((7, m, m))
    P[0], P[1] = np.eye(m), K
    np.matmul(K, K, out=P[2])
    # K^3 = K^2 K with K^4 = K^2 K^2, then K^5 = K^4 K with K^6 = K^3 K^3
    np.matmul(P[2], P[1:3], out=P[3:5])
    np.matmul(P[4:2:-1], P[1:4:2], out=P[5:7])
    d4, d5, d6 = (np.ones(m) @ abs(P[4:])).max(axis=-1) ** _D_ROOTS
    eta = min(max(d4, d5), max(d5, d6))
    h = np.asarray(h, dtype=float)
    s = None
    if float(abs(h).max()) * eta > _THETA24:
        s = np.ceil(np.log2(np.maximum(np.abs(h) * eta, _THETA24) / _THETA24)).astype(int)
        h = h * np.ldexp(1.0, -s)
    ai = h[:, None] ** _POWERS
    # every B_j of every step in one call, each a product of one row of
    # coefficients with the stacked powers, so that X^i is never formed
    # (one row each: BLAS rounds a block of rows unlike a single row)
    coef = (ai[:, :6] * _TAYLOR_BLOCKS[:, None])[:, :, None, :]
    B = (coef @ P.reshape(7, m * m)[:6]).reshape(4, -1, m, m)
    X6 = ai[:, 6, None, None] * P[6]
    E = _TAYLOR_LAST * X6
    for j in (3, 2, 1, 0):
        E += B[j]
        if j:
            E = X6 @ E
    if s is not None:
        for j in range(s.max()):
            E = np.where((s > j)[:, None, None], E @ E, E)
    return E


def _flow(W, R, s):
    """The rows Y = [A, A'] of jacobi_flow at the times s, shape (len(s),
    d, 2d), for finite float arrays W and R of one shape d x d and float
    times s, all read by the caller (errors._reals); checks the times and
    the step count before any step."""
    s = np.atleast_1d(s)
    if s.ndim != 1 or not len(s) or s[0] < 0.0:
        raise DomainError("flow times must be a nonempty list of finite reals >= 0")
    span = s - np.concatenate(([0.0], s[:-1]))
    if not (span[1:] > 0.0).all():
        raise DomainError("flow times must be strictly increasing")
    rate = max(1.0, float(abs(W).max()), math.sqrt(abs(R).max()))
    if math.ceil(s[-1] * rate) > _MAX_FLOW_STEPS:
        raise DomainError(
            f"the flow to s = {s[-1]:g} needs about {s[-1] * rate:.3g} steps "
            f"(limit {_MAX_FLOW_STEPS}); coefficients this large are out of range"
        )
    d = len(W)
    K = np.zeros((2 * d, 2 * d))
    K[:d, d:] = -(W @ W + R)
    K[d:, d:] = -2.0 * W
    Y = np.zeros((d, 2 * d))
    K[d:, :d] = Y[:, d:] = np.eye(d)
    out = np.empty((len(s), d, 2 * d))
    steps = np.ceil(span * rate).astype(int)
    h = span / np.maximum(steps, 1)
    group = max(1, _EXPM_ENTRIES // K.size)
    for lo in range(0, len(s), group):
        E = _taylor_expm(K, h[lo : lo + group])
        for k, (count, Ek) in enumerate(zip(steps[lo : lo + group].tolist(), E), start=lo):
            if not count:  # s[0] = 0
                out[k] = Y
                continue
            for _ in range(count - 1):
                Y = Y @ Ek
            # the interval's last step lands in its row of out
            Y = np.matmul(Y, Ek, out=out[k])
    return out


def jacobi_flow(W, R, s):
    """(A(s), A'(s)) for A'' + 2 A' W + A (W^2 + R) = 0, A(0) = 0,
    A'(0) = I, with constant coefficients.

    W and R are one pair of finite d x d matrices; s is a nonempty 1-d
    array of increasing times >= 0.  Returns A and A', each of shape
    (len(s), d, d).  W, R and s are read here (errors._reals), which
    refuses the inf entries build_blocks leaves past float64 range; the
    core, _flow, reads nothing, so integrate_inverse_riccati reads its
    grid and blocks once and steps through _flow directly.

    The row state Y = [A, A'] satisfies Y' = Y K with
    K = [[0, -(W^2 + R)], [I, -2W]], so Y(s + h) = Y(s) expm(hK) exactly.
    Each interval between consecutive times is split into equal steps
    with h * max(1, max|W|, sqrt(max|R|)) <= 1: |K| grows like b^2, and
    one exponential over the whole span loses digits in its squaring
    phase as it does (with one step per interval, det A is off by 4e-8
    relative at |b| = 100 and 6e-2 at |b| = 1e3 against mpmath).  The
    step exponentials of all intervals come from _taylor_expm calls of at
    most _EXPM_ENTRIES entries of output each.  More than _MAX_FLOW_STEPS
    steps up to the last time raise DomainError before any is taken.
    """
    W, R = _reals(W, "W"), _reals(R, "R")
    if W.ndim != 2 or not W.size or W.shape != R.shape or len(W) != W.shape[1]:
        raise DomainError(f"W and R must be two d x d matrices, got {W.shape} and {R.shape}")
    Y = _flow(W, R, _reals(s, "flow times"))
    d = len(W)
    return Y[..., :d], Y[..., d:]


@dataclass
class RiccatiSolution:
    """F(1 - t) on a grid where it is regular: the 3x3 block F1 and the
    parallel block F3 of one flow.

    F1/F3 hold NaN at grid points flagged in ``singular`` (always at
    t = 0, where F blows up)."""

    F1: np.ndarray
    F3: np.ndarray
    singular: np.ndarray


# float64's machine epsilon, for the rank test of _riccati_branch
_EPS = np.finfo(float).eps


def _riccati_branch(W, R, t_grid):
    """(F(1 - t), ok) of the blow-up-at-1 Riccati branch of drift W and
    curvature R, on t_grid.

    Running the Jacobi flow backward from the endpoint is the flow of
    (-W, R) forward in t = 1 - s; its (A, A') gives the branch by Radon's
    linearisation, F(1 - t) = W - A^{-1} A', with no change of chart at
    its poles or kernels.  ok is False, and F NaN, where A is singular
    (always at t = 0, and at conjugate points)."""
    d = len(W)
    Y = _flow(-W, R, t_grid)
    A, Ap = Y[..., :d], Y[..., d:]
    # np.linalg.matrix_rank's test; LAPACK returns S in descending order
    S = np.linalg.svd(A, compute_uv=False)
    ok = S[:, -1] > S[:, 0] * (d * _EPS)
    # each matrix is solved on its own, so the singular ones are swapped
    # for I, and their rows set to NaN, instead of gathering the others
    X = np.linalg.solve(np.where(ok[:, None, None], A, np.eye(d)), Ap)
    X[~ok] = np.nan
    return W - X, ok


def integrate_inverse_riccati(
    params: RiccatiParams, blocks: BlockMatrices, t_grid
) -> RiccatiSolution:
    """F(1 - t) on the grid, the Riccati branch that blows up at t = 0,
    where it is regular, split into the 3x3 block F1 and the block F3 of
    the 2n - 2 parallel directions.  The name is that of the inverse
    branch G(t) = F(1 - t)^{-1}, which starts at 0 on the same grid.

    One Jacobi flow of the full W and R gives F (see _riccati_branch),
    so grids crossing zero-eigenvalue points of F(1 - t) (|c| > pi/2) or
    conjugate points (|c| > pi) need no special handling, and an R that
    couples the blocks needs none either.  For the model's block-diagonal
    W and R the mixed blocks of F are zero.

    Grid points where F is not representable (always the start) are
    flagged in ``singular`` and carry NaN in F1/F3.
    """
    t_grid = _reals(t_grid, "t_grid")
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise DomainError("t_grid must be a 1-d array with at least 2 points")
    if t_grid[0] != 0.0 or t_grid[-1] >= 1.0:
        raise DomainError("t_grid must start at 0 and stay below 1")
    d = 2 * params.n + 1
    W, R = _reals(blocks.W, "W"), _reals(blocks.R, "R")
    if W.shape != (d, d) or R.shape != (d, d):
        raise DomainError(f"the blocks must be {d}x{d} for n = {params.n}")
    F, ok = _riccati_branch(W, R, t_grid)
    return RiccatiSolution(F1=F[:, :3, :3], F3=F[:, 3:, 3:], singular=~ok)
