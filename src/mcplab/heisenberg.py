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

with S(x) = (x - sin x) / x^3 (riccati._xms), so vertical velocities
(w_0 = 0) and horizontal ones (omega = 0) need no case split.

Along a geodesic with nonvanishing horizontal velocity the adapted moving
frame is v0, v1 = u_H/|u_H|, v2 = J v1, completed by J-paired parallel
vectors.  Its drift is the constant W of riccati.build_blocks with

    b = -eps |u_H| / 2,      c = eps u_0 / 2,

and the distortion matrix in this frame solves the row-vector system
A'' + 2 A' W + A (W^2 + R) = 0 with A(0) = 0, A'(0) = I, where R is the
Jacobi operator of the Levi-Civita curvature in this frame.  Its
determinant comes from riccati.jacobi_flow, which never evaluates a sinc
or cot closed form, so it serves as the independent oracle for the
closed-form determinant and trace profiles in the riccati module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDirectionError, DomainError
from .frame_algebra import build_heisenberg_algebra, levi_civita
from .riccati import (
    RiccatiParams,
    _model_blocks,
    _sinc,
    _xms,
    build_blocks,
    jacobi_flow,
)

# Horizontal speeds below this fraction of the total speed count as
# vertical: the adapted frame needs a direction for v1.
_DEGENERATE_FRACTION = 1e-10
# adapted_frame checks its drift by central differences of step
# _FD_STEP * max(T, 1) at _CHECK_POINTS interior times.
_FD_STEP = 1e-6
_CHECK_POINTS = 25


@dataclass(frozen=True)
class HeisenbergModel:
    """The group H^{2n+1} with vertical length eps."""

    n: int
    eps: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if not (self.eps > 0.0 and np.isfinite(self.eps)):
            raise DomainError(f"eps must be a positive real, got {self.eps!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "eps", float(self.eps))

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @cached_property
    def structure(self):
        return build_heisenberg_algebra(self.n, self.eps)

    @cached_property
    def gamma(self) -> np.ndarray:
        alg, _ = self.structure
        return levi_civita(alg).gamma

    @property
    def J(self) -> np.ndarray:
        return self.structure[1].J


@dataclass(frozen=True)
class GeodesicState:
    """Position in coordinates, velocity as frame coefficients.

    pos = (x_1..x_n, y_1..y_n, z); vel = (u_0, u_{X_1}..u_{X_n},
    u_{Y_1}..u_{Y_n}) in the orthonormal frame at pos."""

    pos: np.ndarray
    vel: np.ndarray

    def __post_init__(self):
        pos = np.array(self.pos, dtype=float)
        vel = np.array(self.vel, dtype=float)
        if pos.shape != vel.shape or pos.ndim != 1:
            raise DomainError("pos and vel must be 1-d arrays of equal length")
        d = len(pos)
        if d < 3 or d % 2 == 0:
            raise DomainError(f"state dimension must be odd and >= 3, got {d}")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
            raise DomainError("state entries must be finite")
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "vel", vel)

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.vel))

    @property
    def horizontal_speed(self) -> float:
        return float(np.linalg.norm(self.vel[1:]))


@dataclass(frozen=True)
class _Helix:
    """The exact geodesic through (p0, z0) with initial velocity (u0, w0),
    where p = x + i y and w = u_X + i u_Y.  Called like a dense ODE
    solution: a scalar time gives the state (pos, vel) of shape (2d,), an
    array of times gives shape (2d, len(t))."""

    eps: float
    u0: float
    p0: np.ndarray
    w0: np.ndarray
    z0: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        ts = np.atleast_1d(t)
        x = self.eps * self.u0 * ts  # omega t
        E = ts * np.exp(0.5j * x) * _sinc(0.5 * x)
        p = self.p0[:, None] + self.w0[:, None] * E
        # omega t^3 S(omega t) as t^2 x S(x): no t^3 to overflow
        lift = (np.imag(np.vdot(self.p0, self.w0) * E)
                + np.vdot(self.w0, self.w0).real * ts * ts * x * _xms(x))
        z = self.z0 + self.u0 * ts / self.eps + 0.5 * lift
        y = np.vstack((p.real, p.imag, z, self.velocity(ts)))
        return y if t.ndim else y[:, 0]

    def velocity(self, ts):
        """The lower half of the state, (u_0, u_X, u_Y), at the 1-d times ts."""
        w = self.w0[:, None] * np.exp(1j * (self.eps * self.u0 * ts))
        return np.vstack((np.full_like(ts, self.u0), w.real, w.imag))


@dataclass
class Trajectory:
    """Geodesic sampled on a grid.

    pos and vel have shape (len(t), dim); the exact solution is kept for
    the off-grid times at which adapted_frame checks its drift."""

    model: HeisenbergModel
    t: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    _sol: _Helix

    def conservation_drift(self) -> dict:
        """Maximum drift of the two first integrals over the sample grid."""
        speed = np.linalg.norm(self.vel, axis=1)
        return {
            "speed": float(np.max(np.abs(speed - speed[0]))),
            "vertical": float(np.max(np.abs(self.vel[:, 0] - self.vel[0, 0]))),
        }


def geodesic_flow(
    model: HeisenbergModel,
    start: GeodesicState,
    T: float,
    samples: int = 201,
) -> Trajectory:
    """The geodesic through start for time T (either sign), sampled at
    samples equally spaced times from 0 to T.

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
    if not (np.isfinite(T) and T != 0.0):
        raise DomainError(f"T must be finite and nonzero, got {T!r}")
    if samples < 2:
        raise DomainError("samples must be >= 2")
    n = model.n
    pos, vel = start.pos, start.vel
    sol = _Helix(
        eps=model.eps,
        u0=float(vel[0]),
        p0=pos[:n] + 1j * pos[n : 2 * n],
        w0=vel[1 : 1 + n] + 1j * vel[1 + n :],
        z0=float(pos[2 * n]),
    )
    t = np.linspace(0.0, float(T), samples)
    with np.errstate(over="ignore", invalid="ignore"):
        y = sol(t)
    if not np.all(np.isfinite(y)):
        raise DomainError(f"the geodesic leaves the float range before t = {T!r}")
    return Trajectory(model=model, t=t, pos=y[:d].T.copy(), vel=y[d:].T.copy(), _sol=sol)


def adapted_params(model: HeisenbergModel, state: GeodesicState) -> RiccatiParams:
    """Scalars (b, c, n) of the adapted frame along the geodesic through
    state: b = -eps |u_H| / 2, c = eps u_0 / 2.

    Raises DegenerateDirectionError for (numerically) vertical velocities,
    where the adapted frame has no v1."""
    if len(state.pos) != model.dim:
        raise DomainError("state dimension does not match the model")
    h = state.horizontal_speed
    if h <= _DEGENERATE_FRACTION * max(state.speed, 1.0):
        raise DegenerateDirectionError(
            "adapted frame undefined for vertical velocity (|u_H| = 0)"
        )
    return RiccatiParams(
        b=-0.5 * model.eps * h, c=0.5 * model.eps * state.vel[0], n=model.n
    )


@dataclass
class AdaptedFrame:
    """Moving frame along a geodesic: rows of frames[k] are the frame
    coefficients of (v0, v1, v2, ...) at t[k]; W is the constant drift
    matrix (covariant derivative along the geodesic), nonzero only in its
    leading 3x3 block; max_residual is the verified bound on
    |Dv/dt - W v| along the trajectory."""

    params: RiccatiParams
    t: np.ndarray
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
    """Construct the adapted frame along a trajectory and verify its drift.

    v0 is constant in frame coefficients; v1 tracks the normalized
    horizontal velocity; v2 = J v1; the remaining rows rotate at rate c in
    their J-planes, which is exactly parallel transport here.  The drift
    equation Dv/dt = W v is verified by central finite differences of the
    frame plus the connection term, at _CHECK_POINTS interior times."""
    d = model.dim
    start = GeodesicState(pos=traj.pos[0], vel=traj.vel[0])
    params = adapted_params(model, start)
    c = params.c
    J = model.J
    gamma = model.gamma

    # J-paired orthonormal completion of span{v1, v2} at t = 0
    u0h = np.concatenate(([0.0], start.vel[1:]))
    v1_0 = u0h / np.linalg.norm(u0h)
    comp = []
    basis = [v1_0, J @ v1_0]
    for k in range(1, d):
        if len(comp) == 2 * model.n - 2:
            break
        w = np.eye(d)[k]
        for b_vec in basis:
            w = w - (w @ b_vec) * b_vec
        nw = np.linalg.norm(w)
        if nw < 1e-8:
            continue
        w = w / nw
        jw = J @ w
        comp.extend([w, jw])
        basis.extend([w, jw])
    comp = np.array(comp).reshape(2 * model.n - 2, d)

    # The samples, then the check points and their two neighbours, from one
    # evaluation of the dense solution.
    lo, hi = float(np.min(traj.t)), float(np.max(traj.t))
    delta = _FD_STEP * max(hi - lo, 1.0)
    ts = np.linspace(lo + delta, hi - delta, _CHECK_POINTS)
    times = np.concatenate((traj.t, ts, ts + delta, ts - delta))
    u = traj._sol.velocity(times).T
    uh = u.copy()
    uh[:, 0] = 0.0
    v1 = uh / np.linalg.norm(uh, axis=1, keepdims=True)
    rows = np.empty((len(times), d, d))
    rows[:, 0] = np.eye(d)[0]
    rows[:, 1] = v1
    rows[:, 2] = v1 @ J.T
    if len(comp):
        ct = np.cos(c * times)[:, None, None]
        st = np.sin(c * times)[:, None, None]
        rows[:, 3:] = ct * comp + st * (comp @ J.T)
    k = len(traj.t)
    frames = rows[:k]
    Fm, Fp, Fms = rows[k:].reshape(3, _CHECK_POINTS, d, d)
    um = u[k : k + _CHECK_POINTS]

    W = build_blocks(params).W
    dF = (Fp - Fms) / (2.0 * delta)
    covariant = dF + Fm @ np.tensordot(um, gamma, 1)
    residual = float(np.max(np.abs(covariant - W @ Fm)))
    return AdaptedFrame(
        params=params, t=traj.t.copy(), frames=frames, W=W, max_residual=residual
    )


# ---------------------------------------------------------------------------
# distortion (Jacobi) matrices
# ---------------------------------------------------------------------------

def jacobi_determinants_from_params(b, c, ts, n: int = 1):
    """det A(t) over the (strictly increasing, positive) times ts for
    A'' + 2 A' W + A (W^2 + R) = 0, A(0) = 0, A'(0) = I, where W, R are
    the constant matrices built from (b, c, n) with zero ambient curvature.
    Propagated by riccati.jacobi_flow, which never evaluates the closed
    forms and checks that the times are finite and increasing; the
    flow-level oracle for the closed-form determinant profile."""
    params = RiccatiParams(b=b, c=c, n=n)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.ndim != 1 or len(ts) == 0 or not ts[0] > 0.0:
        raise DomainError("evaluation times must be a nonempty list of positive reals")
    A, _ = jacobi_flow(*_model_blocks(params.b, params.c, params.n), ts)
    return np.linalg.det(A)
