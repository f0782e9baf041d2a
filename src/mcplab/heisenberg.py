"""Coordinate model of the scaled Heisenberg group: geodesics, adapted
frames, and Jacobi determinants.

Coordinates are (x_1..x_n, y_1..y_n, z) and the orthonormal frame is

    v0  = (1/eps) d_z,
    X_i = d_{x_i} - (y_i/2) d_z,
    Y_i = d_{y_i} + (x_i/2) d_z,

so that [X_i, Y_i] = d_z = eps v0.  Geodesics are integrated in
frame-velocity form: the coefficients u of the velocity in this frame
satisfy the autonomous system u'_k = -Gamma^k(u, u) with constant
connection coefficients, and the position follows by applying the frame
matrix.  Both |u| and the vertical coefficient u_0 are first integrals.

Along a geodesic with nonvanishing horizontal velocity the adapted moving
frame is v0, v1 = u_H/|u_H|, v2 = J v1, completed by J-paired parallel
vectors.  Its drift is the constant W block of the riccati module with

    b = -eps |u_H| / 2,      c = eps u_0 / 2,

and the distortion matrix in this frame solves the row-vector system
A'' + 2 A' W + A (W^2 + R) = 0 with A(0) = 0, A'(0) = I.  Its determinant
comes from the matrix-exponential propagator riccati.jacobi_flow, which
never evaluates a sinc or cot closed form, so it serves as the
independent oracle for the closed-form determinant and trace profiles in
the riccati module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDirectionError, DomainError, IntegrationError
from .frame_algebra import build_heisenberg_algebra, levi_civita
from .riccati import RiccatiParams, _model_blocks, build_blocks, jacobi_flow

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


def frame_matrix(model: HeisenbergModel, pos) -> np.ndarray:
    """Rows are the coordinate components of (v0, X_i, Y_i) at pos."""
    pos = np.asarray(pos, dtype=float)
    n, d = model.n, model.dim
    if pos.shape != (d,):
        raise DomainError(f"pos must have shape ({d},), got {pos.shape}")
    F = np.zeros((d, d))
    F[0, 2 * n] = 1.0 / model.eps
    for i in range(n):
        F[1 + i, i] = 1.0
        F[1 + i, 2 * n] = -0.5 * pos[n + i]
        F[1 + n + i, n + i] = 1.0
        F[1 + n + i, 2 * n] = 0.5 * pos[i]
    return F


@dataclass
class Trajectory:
    """Dense geodesic solution sampled on a grid.

    pos and vel have shape (len(t), dim); the dense interpolant is kept for
    off-grid evaluation via at()."""

    model: HeisenbergModel
    t: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    _sol: object

    def at(self, time: float) -> GeodesicState:
        lo, hi = float(np.min(self.t)), float(np.max(self.t))
        if not (lo <= time <= hi):
            raise DomainError(f"time {time!r} outside the integrated span [{lo}, {hi}]")
        y = self._sol(time)
        d = self.model.dim
        return GeodesicState(pos=y[:d], vel=y[d:])

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
    tol: float = 1e-10,
    samples: int = 201,
) -> Trajectory:
    """Integrate the geodesic through start for time T (either sign).

    The velocity subsystem is u'_k = -Gamma^k(u, u); the position moves by
    u applied to the frame matrix, written out: (x, y)' = (u_X, u_Y) and
    z' = u_0 / eps + (x . u_Y - y . u_X) / 2.  Local error is controlled at
    tol by an adaptive high-order Runge-Kutta scheme with dense output."""
    d = model.dim
    if len(start.pos) != d:
        raise DomainError(
            f"state dimension {len(start.pos)} does not match the model ({d})"
        )
    if not (np.isfinite(T) and T != 0.0):
        raise DomainError(f"T must be finite and nonzero, got {T!r}")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    if samples < 2:
        raise DomainError("samples must be >= 2")
    gamma = model.gamma
    n, eps = model.n, model.eps

    def rhs(_t, y):
        u = y[d:]
        z_dot = u[0] / eps + 0.5 * (y[:n] @ u[1 + n :] - y[n : 2 * n] @ u[1 : 1 + n])
        return np.concatenate((u[1:], [z_dot], -(u @ (u @ gamma))))

    # Imported here, not at module level: scipy.integrate takes most of a
    # second to load, and only this nonlinear flow needs it.
    from scipy.integrate import solve_ivp

    y0 = np.concatenate((start.pos, start.vel))
    sol = solve_ivp(
        rhs,
        (0.0, float(T)),
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=True,
        t_eval=np.linspace(0.0, float(T), samples),
    )
    if not sol.success or not np.all(np.isfinite(sol.y)):
        last = float(sol.t[-1]) if len(sol.t) else 0.0
        raise IntegrationError(last, f"geodesic integration stopped: {sol.message}")
    return Trajectory(
        model=model, t=sol.t.copy(), pos=sol.y[:d].T.copy(), vel=sol.y[d:].T.copy(),
        _sol=sol.sol,
    )


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
    u = traj._sol(times)[d:].T
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
    parts = np.cumsum([len(traj.t), _CHECK_POINTS, _CHECK_POINTS])
    frames, Fm, Fp, Fms = np.split(rows, parts)
    um = np.split(u, parts)[1]

    W = build_blocks(params).full_W()
    dF = (Fp - Fms) / (2.0 * delta)
    covariant = dF + np.einsum("si,saj,ijk->sak", um, Fm, gamma)
    residual = float(np.max(np.abs(covariant - W @ Fm)))
    return AdaptedFrame(
        params=params, t=traj.t.copy(), frames=frames, W=W, max_residual=residual
    )


# ---------------------------------------------------------------------------
# distortion (Jacobi) matrices
# ---------------------------------------------------------------------------

def _validate_times(ts):
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.ndim != 1 or len(ts) == 0:
        raise DomainError("need at least one evaluation time")
    if np.any(ts <= 0.0) or not np.all(np.isfinite(ts)):
        raise DomainError("evaluation times must be positive finite reals")
    if np.any(np.diff(ts) <= 0.0):
        raise DomainError("evaluation times must be strictly increasing")
    return ts


def jacobi_matrices_from_params(b, c, ts, n: int = 1):
    """A(t) over the (strictly increasing, positive) times ts for
    A'' + 2 A' W + A (W^2 + R) = 0, A(0) = 0, A'(0) = I, where W, R are
    the constant blocks built from (b, c, n) with zero ambient curvature.
    Propagated by riccati.jacobi_flow, which never evaluates the closed
    forms."""
    params = RiccatiParams(b=b, c=c, n=n)
    ts = _validate_times(ts)
    A, _ = jacobi_flow(*_model_blocks(params.b, params.c, params.n), ts)
    return A


def jacobi_determinants_from_params(b, c, ts, n: int = 1):
    """det A(t) over the times ts; the flow-level oracle for the
    closed-form determinant profile."""
    return np.linalg.det(jacobi_matrices_from_params(b, c, ts, n=n))


def jacobi_determinant(
    model: HeisenbergModel, start: GeodesicState, t: float
) -> float:
    """det A(t) along the geodesic through start (scalars b, c read off the
    initial velocity).  Negative or zero values mean t is at or beyond the
    first conjugate time; the caller interprets the sign."""
    params = adapted_params(model, start)
    return float(jacobi_determinants_from_params(params.b, params.c, [t], n=model.n)[0])
