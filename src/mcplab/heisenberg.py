"""Coordinate model of the scaled Heisenberg group: geodesics, adapted
frames, and Jacobi determinants.

Coordinates are (x_1..x_n, y_1..y_n, z) and the orthonormal frame is

    v0  = (1/eps) d_z,
    X_i = d_{x_i} - (y_i/2) d_z,
    Y_i = d_{y_i} + (x_i/2) d_z,

so that [X_i, Y_i] = d_z = eps v0.  Geodesics are explicit helices.  In
frame coefficients u = (u_0, u_X, u_Y) of the velocity the geodesic
equation is u'_k = -Gamma^k(u, u) with constant connection coefficients:
u_0 is constant and the horizontal part turns at the rate omega = eps u_0.
With p = x + i y and w = u_X + i u_Y in C^n,

    w(t) = e^{i omega t} w_0,
    p(t) = p_0 + w_0 E(t),   E(t) = (e^{i omega t} - 1) / (i omega)
                                  = t e^{i omega t / 2} sinc(omega t / 2),
    z(t) = z_0 + u_0 t / eps
           + (1/2) [Im(conj(p_0) . w_0 E(t)) + |w_0|^2 omega t^3 S(omega t)],

with S(x) = (x - sin x) / x^3 (_helix_kernels), so vertical velocities
(w_0 = 0) and horizontal ones (omega = 0) need no case split.  Being
closed form, the helix is evaluated from the start state at the times
geodesic_flow samples, with no step.  Its differential in the initial
velocity, the Jacobian of the exponential map (_helix_det), weights the
samples of mcp.monte_carlo_contraction; it takes one sine and one cosine
of omega t / 2 per sample and time (_helix_kernels).

Along a geodesic with nonvanishing horizontal velocity the adapted moving
frame is v0, v1 = u_H/|u_H|, v2 = J v1, completed by J-paired parallel
vectors; J is multiplication by i on w, so v1 turns with w at 2c and the
pairs at c (adapted_frame).  Its drift is the constant W of
riccati.build_blocks with

    b = -eps |u_H| / 2,      c = eps u_0 / 2,

and the distortion matrix in this frame solves the row-vector system
A'' + 2 A' W + A (W^2 + R) = 0 with A(0) = 0, A'(0) = I, where R is the
Jacobi operator of the Levi-Civita curvature in this frame.  Its
determinant comes from riccati.jacobi_flow, which never evaluates a sinc
or cot closed form, so it serves as the independent oracle for the
closed-form determinant and trace profiles in the riccati module.

No subcommand calls geodesic_flow, adapted_frame (with GeodesicState,
Trajectory and adapted_params) or jacobi_determinants_from_params.  They
are kept as oracles: of acceptance test 08 (conservation along the
helix), and of the per-geodesic checks of the benchmark's ``library``
workload, which run all three on every geodesic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDirectionError, DomainError, _count, _real, _reals
from .riccati import build_blocks, jacobi_flow
from .scalars import _SERIES_CUT, _XMS_SERIES, RiccatiParams, _series

# Horizontal speeds below this fraction of the total speed count as
# vertical: the adapted frame needs a direction for v1.
_DEGENERATE_FRACTION = 1e-10
# The number of equally spaced times, 0 and T included, at which
# geodesic_flow samples a geodesic.
_FLOW_SAMPLES = 201


@dataclass(frozen=True)
class HeisenbergModel:
    """The group H^{2n+1} with vertical length eps."""

    n: int
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "n", 1))
        object.__setattr__(self, "eps", _real(self.eps, "eps", 0.0))

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    # frame_algebra loads on first use: the Monte Carlo does not read gamma
    @cached_property
    def gamma(self) -> np.ndarray:
        from .frame_algebra import build_heisenberg_algebra, levi_civita
        return levi_civita(build_heisenberg_algebra(self.n, self.eps)[0])


@dataclass(frozen=True)
class GeodesicState:
    """Position in coordinates, velocity as frame coefficients.

    pos = (x_1..x_n, y_1..y_n, z); vel = (u_0, u_{X_1}..u_{X_n},
    u_{Y_1}..u_{Y_n}) in the orthonormal frame at pos."""

    pos: np.ndarray
    vel: np.ndarray

    def __post_init__(self):
        pos, vel = _reals(self.pos, "pos").copy(), _reals(self.vel, "vel").copy()
        if pos.shape != vel.shape or pos.ndim != 1 or len(pos) < 3 or len(pos) % 2 == 0:
            raise DomainError(f"pos and vel need one odd length >= 3: {pos.shape}, {vel.shape}")
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "vel", vel)

    @property
    def speed(self) -> float:
        return _norm(self.vel)

    @property
    def horizontal_speed(self) -> float:
        return _norm(self.vel[1:])


def _rescale(v):
    """(v 2^-k, k), k the binary exponent of max |v|: exact, and squares stay in range."""
    k = int(np.frexp(np.max(np.abs(v)))[1])
    return np.ldexp(v, -k), k


def _norm(v) -> float:
    """sqrt(v @ v); where v @ v overflows (|v| from about 1.3e154), the root
    of _rescale(v)'s, scaled back, which is inf only past float64 range."""
    with np.errstate(over="ignore"):
        square = v @ v
        if math.isfinite(square):
            return math.sqrt(square)
        w, k = _rescale(v)
        return float(np.ldexp(math.sqrt(w @ w), k))


def _helix(eps, pos, vel, ts):
    """The state of the exact geodesic from (pos, vel) at the 1-d times
    ts, shape (2, len(ts), d): positions in [0], velocities in [1], each a
    C-contiguous block of one row per time (the helix of the module
    docstring)."""
    n = len(vel) // 2
    p0 = pos[:n] + 1j * pos[n : 2 * n]
    w0 = vel[1 : 1 + n] + 1j * vel[1 + n :]
    x = eps * vel[0] * ts  # omega t
    h, S = _helix_kernels(x)[:2]
    E = ts * np.exp(0.5j * x) * h
    # one row per coordinate, so that each one is a contiguous run of the
    # times, turned into one row per time by the single copy at the end
    y = np.empty((2, 2 * n + 1, len(ts)))
    p = p0[:, None] + w0[:, None] * E
    y[0, :n], y[0, n : 2 * n] = p.real, p.imag
    # omega t^3 S(omega t) as t^2 x S(x): no t^3 to overflow; where |w_0|^2
    # does, from _rescale(w_0) and scaled back, so that it stays 0 at x = 0
    w2 = np.vdot(w0, w0).real
    if math.isfinite(w2):
        area = w2 * ts * ts * x * S
    else:
        u, k = _rescale(vel[1:])
        area = np.ldexp((u @ u) * ts * ts * x * S, 2 * k)
    lift = np.imag(np.vdot(p0, w0) * E) + area
    y[0, 2 * n] = pos[2 * n] + vel[0] * ts / eps + 0.5 * lift
    # u_0 stays constant and w turns at the rate omega
    w = w0[:, None] * np.exp(1j * x)
    y[1, 0] = vel[0]
    y[1, 1 : 1 + n], y[1, 1 + n :] = w.real, w.imag
    return y.transpose(0, 2, 1).copy()


def _helix_kernels(x):
    """The helix's kernels at x = omega t and the sine-cosine pair they
    come from: (h, S, s, c), where h = sinc(x/2), S = S(x) and (s, c) =
    (sin y, cos y) of y = x/2.  g(x) = e^{ix/2} h gives E(t) = t g(x), and

        x - sin x = 2 (y - s + s (1 - c)),

    with the versine 1 - c taken as s^2 / (1 + c) where c > 0, so that it
    does not cancel (just above the cut, (x S)' of _helix_det is then
    within 2.1e-15 of 40-digit mpmath, against 3.1e-15 with 1 - c).  y - s
    is exact wherever it cancels, so S keeps the rounding of one sine
    (5.6e-15 of 40-digit mpmath at worst, just above the cut); S takes the
    series _XMS_SERIES where |x| <= _SERIES_CUT.  Only _helix_det forms
    the slopes from (s, c); _helix reads h and S."""
    x = np.asarray(x, dtype=float)
    y = 0.5 * x
    s, c = np.sin(y), np.cos(y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = np.divide(s, y, out=np.ones_like(y), where=y != 0.0)
        vers = np.where(c > 0.0, s * s / (1.0 + c), 1.0 - c)
        S = np.asarray(y - s)
        S += np.multiply(s, vers, out=vers)
        S /= 4.0 * y * y * y
    near = np.abs(x) <= _SERIES_CUT
    S[near] = _series(_XMS_SERIES, x[near])
    return h, S, s, c


def _helix_det(eps, n: int, u0, w2, t):
    """det d pos(t) / d vel of the helix for broadcastable arrays of the
    vertical velocity u0, the squared horizontal speed w2 = |w_0|^2 and
    the time t: the Jacobian of the exponential map, whose integral over
    a velocity set is the Haar (here Lebesgue) measure of its image.

    Differentiating the helix of the module docstring in (w_0, u_0), with
    x = eps u0 t and D = eps t^2 g'(x) = eps t^2 e^{ix/2} (h' + i h / 2),
    where the slopes h' = x c S - h^2 s / 2 and (x S)' = h^2 / 2 - 2 S come
    from _helix_kernels' (h, S, s, c) and need no series (0 and 1/6 at 0):

        d p / d w_0 = E (complex multiplication),   d p / d u_0 = w_0 D,
        d z / d w_0 = t^2 x S(x) w_0,
        d z / d u_0 = t / eps + |w_0|^2 eps t^3 (x S(x))' / 2 = alpha.

    The Schur complement of the horizontal block then gives

        det = |E|^(2n-2) (|E|^2 alpha - t^2 x S(x) |w_0|^2 Re(D conj E)),

    with Re(D conj E) = eps t^3 h h'.  It depends on w_0 only through
    |w_0| (the U(n) symmetry) and not on the start point (left
    translations have unit Jacobian).  eps times it is det A(t) of
    adapted_params."""
    x = eps * u0 * t
    h, S, s, c = _helix_kernels(x)
    half = 0.5 * h * h
    dh, dxs = x * c * S - half * s, half - 2.0 * S
    t3 = t**3
    E2 = (t * h) ** 2
    alpha = t / eps + 0.5 * w2 * eps * t3 * dxs
    det = E2 * alpha - t * t * x * S * w2 * (eps * t3 * h * dh)
    if n == 1:
        return det
    return det * E2 ** (n - 1)


@dataclass
class Trajectory:
    """Geodesic sampled on a grid: pos and vel have shape (len(t), dim)."""

    t: np.ndarray
    pos: np.ndarray
    vel: np.ndarray

    def conservation_drift(self) -> dict:
        """Maximum drift of the two first integrals over the sample grid;
        where a squared speed overflows, or the first one lies below the
        normal range (its squares lose bits or underflow), the speeds come
        from velocities scaled by a power of two, and their drift is
        scaled back."""
        vel = self.vel
        with np.errstate(over="ignore", invalid="ignore"):
            speed = _speed_drift(vel)
            if not (math.isfinite(speed) and vel[0] @ vel[0] >= sys.float_info.min):
                scaled, k = _rescale(vel)
                speed = float(np.ldexp(_speed_drift(scaled), k))
            return {"speed": speed, "vertical": float(np.abs(vel[:, 0] - vel[0, 0]).max())}


def _speed_drift(vel) -> float:
    """max |speed - speed[0]| over the rows of vel."""
    speed = np.sqrt(np.add.reduce(vel * vel, axis=1))
    speed -= speed[0]
    return float(np.abs(speed, out=speed).max())


def geodesic_flow(model: HeisenbergModel, start: GeodesicState, T: float) -> Trajectory:
    """The geodesic through start for time T (either sign), sampled at
    _FLOW_SAMPLES equally spaced times from 0 to T.

    The solution is the closed-form helix of the module docstring, exact
    up to rounding; it solves the velocity subsystem u'_k = -Gamma^k(u, u)
    and the position equations (x, y)' = (u_X, u_Y),
    z' = u_0 / eps + (x . u_Y - y . u_X) / 2.  A finite start whose
    geodesic leaves the float range on [0, T] raises DomainError."""
    d = model.dim
    if len(start.pos) != d:
        raise DomainError(
            f"state dimension {len(start.pos)} does not match the model ({d})"
        )
    T = _real(T, "T")
    if T == 0.0:
        raise DomainError("T must be nonzero")
    t = np.linspace(0.0, T, _FLOW_SAMPLES)
    with np.errstate(over="ignore", invalid="ignore"):
        y = _helix(model.eps, start.pos, start.vel, t)
    if not np.isfinite(y).all():
        raise DomainError(f"the geodesic leaves the float range before t = {T!r}")
    return Trajectory(t=t, pos=y[0], vel=y[1])


def adapted_params(model: HeisenbergModel, state: GeodesicState) -> RiccatiParams:
    """Scalars (b, c, n) of the adapted frame along the geodesic through
    state: b = -eps |u_H| / 2, c = eps u_0 / 2.

    Raises DegenerateDirectionError for (numerically) vertical velocities,
    where the adapted frame has no v1, and DomainError for a velocity
    whose speed leaves float64 range."""
    if len(state.pos) != model.dim:
        raise DomainError("state dimension does not match the model")
    h, speed = state.horizontal_speed, state.speed
    if not math.isfinite(speed):
        raise DomainError("the speed |u| of the state leaves float64 range")
    if h <= _DEGENERATE_FRACTION * max(speed, 1.0):
        raise DegenerateDirectionError(
            "adapted frame undefined for vertical velocity (|u_H| = 0)"
        )
    return RiccatiParams(
        b=-0.5 * model.eps * h, c=0.5 * model.eps * state.vel[0], n=model.n
    )


@dataclass
class AdaptedFrame:
    """Moving frame along a geodesic: rows of frames[k] are the frame
    coefficients of (v0, v1, v2, ...) at the trajectory's time t[k]; W is
    the constant drift matrix (covariant derivative along the geodesic),
    nonzero only in its leading 3x3 block; max_residual is the largest of
    |Dv/dt - W v| and |v1 - u_H/|u_H||, with u the trajectory's velocity,
    over every trajectory time (NaN if either is)."""

    params: RiccatiParams
    frames: np.ndarray
    W: np.ndarray
    max_residual: float

    @property
    def b(self) -> float:
        return self.params.b

    @property
    def c(self) -> float:
        return self.params.c


def adapted_frame(model: HeisenbergModel, traj: Trajectory) -> AdaptedFrame:
    """The model's adapted frame from the trajectory's start.  Its
    horizontal rows at time t are the columns of Q diag(e^{i rate t}) and
    i times them: Q is unitary with first column w_0/|w_0|, and rate =
    (2c, c, ..., c).  So dF/dt = rate J F exactly, and at every time of
    traj.t, with u = traj.vel, Dv/dt = F' + F Gamma(u) is checked against
    W F and v1 against u_H/|u_H|."""
    d, n = model.dim, model.n
    start = GeodesicState(pos=traj.pos[0], vel=traj.vel[0])
    params = adapted_params(model, start)
    # Q's other columns are those of the Householder reflector
    # I - v v^H / (1 + |q_1|), v = q + (q_1/|q_1|) e_1 (q + e_1 at q_1 = 0),
    # which maps q to a multiple of e_1
    w0 = start.vel[1 : 1 + n] + 1j * start.vel[1 + n :]
    # |w_0| as np.linalg.norm takes it, or horizontal_speed past 1.3e154
    with np.errstate(over="ignore"):
        norm = math.sqrt(w0.real @ w0.real + w0.imag @ w0.imag)
    q = w0 / (norm if math.isfinite(norm) else start.horizontal_speed)
    a = abs(q[0])
    v = q.copy()
    v[0] += q[0] / a if a else 1.0
    Q = np.eye(n) - v[:, None] * v.conj() / (1.0 + a)
    Q[:, 0] = q
    rate = np.array([2.0 * params.c] + [params.c] * (n - 1))
    Z = Q.T * np.exp(1j * (traj.t[:, None] * rate))[:, :, None]  # Z[k, j]: column j
    frames = np.zeros((len(traj.t), d, d))
    frames[:, 0, 0] = 1.0
    frames[:, 1::2, 1 : 1 + n] = Z.real
    frames[:, 1::2, 1 + n :] = Z.imag
    frames[:, 2::2, 1 : 1 + n] = -Z.imag
    frames[:, 2::2, 1 + n :] = Z.real
    # dF/dt = turn @ F: each row pair (f, i f) moves at its rate to (i f, -f)
    # (1, 2), (3, 4), ... and their mirrors: every other entry of the
    # super- and subdiagonal, strided in the flat array
    turn = np.zeros((d, d))
    turn.reshape(-1)[d + 2 :: 2 * d + 2] = rate
    turn.reshape(-1)[2 * d + 1 :: 2 * d + 2] = -rate

    W = build_blocks(params).W
    u = traj.vel
    # a finite trajectory whose velocity is large enough can overflow here:
    # its residual is then not finite, as documented, with no warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        drift = frames @ (u @ model.gamma.reshape(d, d * d)).reshape(-1, d, d)
        drift -= (W - turn) @ frames
        uh = u[:, 1:]
        off = uh / np.sqrt((uh * uh).sum(axis=1, keepdims=True))
        off -= frames[:, 1, 1:]
        residual = np.maximum(np.abs(drift, out=drift).max(), np.abs(off, out=off).max())
    return AdaptedFrame(params=params, frames=frames, W=W, max_residual=float(residual))


# ---------------------------------------------------------------------------
# distortion (Jacobi) matrices
# ---------------------------------------------------------------------------

def jacobi_determinants_from_params(b, c, ts, n: int = 1):
    """det A(t) over the (strictly increasing, positive) times ts for
    A'' + 2 A' W + A (W^2 + R) = 0, A(0) = 0, A'(0) = I, where W, R are
    the constant matrices built from (b, c, n) with zero ambient curvature.
    Propagated by riccati.jacobi_flow, which never evaluates the closed
    forms and checks that the times are a nonempty, finite and increasing
    list; the flow-level oracle for the closed-form determinant profile."""
    params = RiccatiParams(b=b, c=c, n=n)
    ts = _reals(ts, "evaluation times")
    if ts.size and not ts.flat[0] > 0.0:
        raise DomainError("evaluation times must start above 0")
    blocks = build_blocks(params)
    A, _ = jacobi_flow(blocks.W, blocks.R, ts)
    return np.linalg.det(A)
