"""Left-invariant frames, contact structures, connections, and curvature.

A model is a pair (FrameAlgebra, ContactStructure): structure constants and
a constant metric on a fixed frame e_0, ..., e_{2n}, plus the contact data
(eta, V, J, eps).  All fields handled here are left-invariant, i.e. have
constant coefficients in the frame, so derivatives of coefficient functions
vanish and every differential-geometric object reduces to multilinear
algebra on the structure constants:

    [e_i, e_j] = sum_k bracket[i, j, k] e_k,
    2 <grad_i e_j, e_k> = <[e_i,e_j],e_k> - <[e_j,e_k],e_i> + <[e_k,e_i],e_j>,
    R(X, Y)Z = grad_X grad_Y Z - grad_Y grad_X Z - grad_[X,Y] Z.

The exterior derivative of the contact form on frame vectors is
d eta(e_i, e_j) = -eta([e_i, e_j]).

verify_structure_identities evaluates the full identity catalog of a weakly
Sasakian structure with constant |V| (gradient of the vertical field,
covariant derivatives of J, integrability, the curvature relations between
the metric and the canonical connection, and the sectional/Ricci
consequences) and reports one residual per identity.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, ModelValidationError

_VALIDATE_TOL = 1e-10
# check_main_hypotheses counts a hypothesis as holding when its minimum
# is at least -_HYPOTHESIS_TOL.
_HYPOTHESIS_TOL = 1e-10
# The eps build_heisenberg_algebra accepts: beyond it the identity catalog's
# residual norms (squares of terms up to eps^3 and 1/eps) leave float64 range.
_EPS_RANGE = (1e-50, 1e50)


def _contract(u, T):
    """sum_i u[..., i] T[i, ...] for a vector or a stack of row vectors u:
    one pass over T, as a matrix product."""
    return (u @ T.reshape(T.shape[0], -1)).reshape(u.shape[:-1] + T.shape[1:])


def _contract2(v, T):
    """sum_j v_j T[:, j, ...] for one vector v: one pass over T."""
    return (v @ T.reshape(T.shape[:2] + (-1,))).reshape(T.shape[:1] + T.shape[2:])


def _norms(g, A):
    """Metric lengths of the rows (last axis) of A."""
    return np.sqrt(np.maximum(np.einsum("...i,...i->...", A @ g, A), 0.0))


@dataclass(frozen=True)
class FrameAlgebra:
    """Structure constants and metric of a left-invariant frame.

    bracket[i, j, k] is the e_k coefficient of [e_i, e_j]; metric[i, j] is
    <e_i, e_j>.  Both arrays are fixed at construction.
    """

    bracket: np.ndarray
    metric: np.ndarray

    @property
    def dim(self) -> int:
        return self.metric.shape[0]

    def inner(self, u, v) -> float:
        return float(u @ self.metric @ v)

    def validate(self, tol: float = 1e-12) -> list[str]:
        """Names of violated algebra invariants (empty when valid)."""
        out = []
        c, g = self.bracket, self.metric
        d = g.shape[0]
        if c.shape != (d, d, d) or g.shape != (d, d):
            return [f"shape mismatch: bracket {c.shape}, metric {g.shape}"]
        if np.max(np.abs(c + c.swapaxes(0, 1)), initial=0.0) > tol:
            out.append("bracket is not antisymmetric")
        jac = (
            np.einsum("ijm,mkl->ijkl", c, c)
            + np.einsum("jkm,mil->ijkl", c, c)
            + np.einsum("kim,mjl->ijkl", c, c)
        )
        if np.max(np.abs(jac), initial=0.0) > tol:
            out.append("Jacobi identity fails")
        if np.max(np.abs(g - g.T), initial=0.0) > tol:
            out.append("metric is not symmetric")
        elif np.linalg.eigvalsh(0.5 * (g + g.T)).min() <= 0.0:
            out.append("metric is not positive definite")
        return out


@dataclass(frozen=True)
class ContactStructure:
    """Contact data on the frame: covector eta, Reeb vector V (as frame
    coefficients), the (1,1)-tensor J acting by matrix-vector product, and
    the constant length eps of V."""

    eta: np.ndarray
    reeb: np.ndarray
    J: np.ndarray
    eps: float

    def horizontal_projector(self) -> np.ndarray:
        """Projection onto ker eta along V (acts on coefficient vectors)."""
        return np.eye(len(self.eta)) - np.outer(self.reeb, self.eta)

    def validate(self, alg: FrameAlgebra, tol: float = _VALIDATE_TOL) -> list[str]:
        """Names of violated contact invariants (empty when valid)."""
        out = []
        d = alg.dim
        eta, V, J, eps = self.eta, self.reeb, self.J, self.eps
        if eta.shape != (d,) or V.shape != (d,) or J.shape != (d, d):
            return ["contact data shapes do not match the algebra dimension"]
        if not (eps > 0.0 and np.isfinite(eps)):
            return ["eps must be a positive real"]
        if abs(float(eta @ V) - 1.0) > tol:
            out.append("eta(V) != 1")
        # d eta(V, e_j) = -eta([V, e_j])
        dV = _contract(V, alg.bracket) @ eta
        if np.max(np.abs(dV), initial=0.0) > tol:
            out.append("d eta(V, .) != 0")
        if np.max(np.abs(J @ V), initial=0.0) > tol:
            out.append("J V != 0")
        P = self.horizontal_projector()
        if np.max(np.abs((J @ J + np.eye(d)) @ P), initial=0.0) > tol:
            out.append("J^2 != -1 on ker eta")
        # compatibility d eta(X1, X2) = <X1, J X2> on ker eta, on the
        # columns of P: d eta(h_i, h_j) = -(P^T (bracket . eta) P)[i, j]
        comp = np.max(np.abs(P.T @ (alg.bracket @ eta + alg.metric @ J) @ P))
        if comp > tol:
            out.append("d eta and the metric are incompatible on ker eta")
        if abs(alg.inner(V, V) - eps * eps) > tol * max(1.0, eps * eps):
            out.append("|V| != eps")
        if np.max(np.abs((alg.metric @ V) @ P), initial=0.0) > tol:
            out.append("V is not orthogonal to ker eta")
        return out


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Connection coefficients: gamma[i, j, k] is the e_k coefficient of
    the derivative of e_j along e_i."""

    gamma: np.ndarray


@dataclass(frozen=True)
class CurvatureData:
    """Curvature of a connection on a left-invariant frame.

    riem[i, j, k, l] = <R(e_i, e_j) e_k, e_l>; operator[i, j, k, m] is the
    e_m coefficient of R(e_i, e_j) e_k; ricci[a, b] is the trace of
    v -> <R(v, e_a) e_b, v> over a metric-orthonormal frame.
    """

    riem: np.ndarray
    ricci: np.ndarray
    operator: np.ndarray


def build_heisenberg_algebra(n: int, eps: float):
    """The model group: frame (v0 = V/eps, X_1..X_n, Y_1..Y_n), orthonormal
    metric, brackets [X_i, Y_i] = eps v0, J X_i = Y_i, J Y_i = -X_i.
    eps outside _EPS_RANGE raises DomainError.

    Returns (FrameAlgebra, ContactStructure).
    """
    if int(n) != n or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (_EPS_RANGE[0] <= eps <= _EPS_RANGE[1]):
        raise DomainError(f"eps must lie in {list(_EPS_RANGE)}, got {eps!r}")
    n = int(n)
    eps = float(eps)
    d = 2 * n + 1
    bracket = np.zeros((d, d, d))
    for i in range(1, n + 1):
        bracket[i, n + i, 0] = eps
        bracket[n + i, i, 0] = -eps
    metric = np.eye(d)
    eta = np.zeros(d)
    eta[0] = 1.0 / eps
    reeb = np.zeros(d)
    reeb[0] = eps
    J = np.zeros((d, d))
    for i in range(1, n + 1):
        J[n + i, i] = 1.0
        J[i, n + i] = -1.0
    return FrameAlgebra(bracket=bracket, metric=metric), ContactStructure(
        eta=eta, reeb=reeb, J=J, eps=eps
    )


def levi_civita(alg: FrameAlgebra) -> ConnectionCoeffs:
    """Koszul's formula on left-invariant fields:

        2 <grad_i e_j, e_k> =
            <[e_i,e_j],e_k> - <[e_j,e_k],e_i> + <[e_k,e_i],e_j>.
    """
    cg = np.einsum("ijm,mk->ijk", alg.bracket, alg.metric)
    # cg.transpose(2,0,1)[i,j,k] = <[e_j,e_k],e_i>; (1,2,0) gives <[e_k,e_i],e_j>
    K = cg - cg.transpose(2, 0, 1) + cg.transpose(1, 2, 0)
    gamma = 0.5 * np.einsum("ijk,km->ijm", K, np.linalg.inv(alg.metric))
    return ConnectionCoeffs(gamma=gamma)


def tanaka_webster(
    alg: FrameAlgebra, cs: ContactStructure, lc: ConnectionCoeffs
) -> ConnectionCoeffs:
    """The canonical connection

        D_Y1 Y2 = grad_Y1 Y2 + (<V,Y2>/2) J Y1 - (1/2) <J Y1, Y2> V
                  + (<V,Y1>/2) J Y2,

    evaluated on the frame.  Not torsion-free; independent of eps."""
    g, V = alg.metric, cs.reeb
    gV = g @ V
    Je = cs.J.T  # row i is J e_i
    gamma = (
        lc.gamma
        + 0.5 * gV[None, :, None] * Je[:, None, :]
        - 0.5 * (Je @ g)[:, :, None] * V
        + 0.5 * gV[:, None, None] * Je[None, :, :]
    )
    return ConnectionCoeffs(gamma=gamma)


def curvature(alg: FrameAlgebra, conn: ConnectionCoeffs) -> CurvatureData:
    """Frame curvature R(e_i, e_j) e_k with the sign convention

        R(X, Y)Z = grad_X grad_Y Z - grad_Y grad_X Z - grad_[X,Y] Z.
    """
    # order="C" lays the tensors out row-major, so that the catalog's
    # reshapes of them are views, not 23 MB copies at n = 20
    gm = conn.gamma
    op = (
        np.einsum("jkl,ilm->ijkm", gm, gm, order="C")
        - np.einsum("ikl,jlm->ijkm", gm, gm, order="C")
        - np.einsum("ijl,lkm->ijkm", alg.bracket, gm, order="C")
    )
    riem = np.einsum("ijkm,ml->ijkl", op, alg.metric, order="C")
    ginv = np.linalg.inv(alg.metric)
    ricci = np.einsum("vw,vabw->ab", ginv, riem)
    return CurvatureData(riem=riem, ricci=ricci, operator=op)


def rescale_vertical(alg: FrameAlgebra, cs: ContactStructure, new_eps: float):
    """Same structure with the vertical length changed to new_eps: the
    metric on ker eta, the frame, eta, V and J are all kept, only
    <V, V> becomes new_eps^2.  Used for eps-independence checks."""
    if not (new_eps > 0.0 and np.isfinite(new_eps)):
        raise DomainError(f"new_eps must be a positive real, got {new_eps!r}")
    P = cs.horizontal_projector()
    g2 = P.T @ alg.metric @ P + new_eps**2 * np.outer(cs.eta, cs.eta)
    return FrameAlgebra(bracket=alg.bracket, metric=g2), ContactStructure(
        eta=cs.eta, reeb=cs.reeb, J=cs.J, eps=float(new_eps)
    )


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

@dataclass
class IdentityResult:
    name: str
    residual: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        d = {"name": self.name, "residual": self.residual, "passed": self.passed}
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class IdentityReport:
    """Outcome of the identity catalog on one model.

    precondition_failures is nonempty when the model is not a valid
    weakly-contact-metric structure; in that case no identities are
    evaluated.  ricci_comparison carries the two inequivalent readings of
    the Ricci consequence (see verify_structure_identities)."""

    tol: float
    precondition_failures: list
    identities: list
    ricci_comparison: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.precondition_failures and all(
            r.passed for r in self.identities
        )

    def failed_identities(self) -> list:
        return [r for r in self.identities if not r.passed]

    def to_dict(self) -> dict:
        return {
            "tol": self.tol,
            "passed": self.passed,
            "precondition_failures": list(self.precondition_failures),
            "identities": [r.to_dict() for r in self.identities],
            "ricci_comparison": self.ricci_comparison,
        }


def _jacobi_operator(riem, y):
    """M[i, l] = <R(e_i, y) y, e_l>, so that <R(u, y) y, w> = u M w: one
    pass over riem, then one over a d^3 array."""
    return _contract2(y, _contract2(y, riem))


def _adapted_basis(g, cs, Y, rng):
    """Rows of a g-orthonormal basis (v1 = Y_H/|Y_H|, v2 = J v1, then
    J-paired fills) of ker eta; requires |Y_H| > 0."""
    P = cs.horizontal_projector()
    Yh = P @ Y
    h = _norms(g, Yh)
    if h < 1e-12:
        raise DomainError("adapted basis needs a direction with nonzero horizontal part")
    v1 = Yh / h
    basis = np.array([v1, cs.J @ v1])
    for _ in range((len(g) - 3) // 2):
        for _attempt in range(50):
            w = P @ rng.normal(size=len(g))
            w = w - (basis @ g @ w) @ basis
            nw = _norms(g, w)
            if nw > 1e-8:
                break
        else:
            raise DomainError("could not complete an adapted basis")
        w = w / nw
        Jw = cs.J @ w
        Jw = Jw - (basis @ g @ Jw) @ basis
        basis = np.vstack([basis, w, Jw / _norms(g, Jw)])
    return basis


def verify_structure_identities(
    alg: FrameAlgebra,
    cs: ContactStructure,
    lc: ConnectionCoeffs,
    tw: ConnectionCoeffs,
    curv_lc: CurvatureData,
    curv_tw: CurvatureData,
    tol: float = 1e-10,
) -> IdentityReport:
    """Evaluate the weakly-Sasakian identity catalog and report residuals.

    Identities are evaluated on frame vectors (enough by multilinearity),
    on horizontal projections of frame vectors where an argument must lie
    in ker eta, and additionally on a few seeded random constant
    combinations as redundancy.  Each entry records the maximum absolute
    residual found; it passes iff that residual is <= tol.

    The vectors are stacked as rows, and each tensor is contracted with a
    whole stack at once: with U and W stacks, W @ _contract(U, T) holds
    T(u_a, w_b, ...) at [a, b].

    The Ricci consequence admits two inequivalent readings: the printed
    combination n <Y,V>^2 / 2 - 3 eps^2 |Y_H|^2 / 4 + ric_tw(Y, Y), and
    the direct trace of the sectional values (which includes the vertical
    row and differs by eps^2 |Y_H|^2 / 4).  Both are computed and returned
    in ricci_comparison with the discrepancy flagged; neither is graded
    against the other.
    """
    d = alg.dim
    if d % 2 != 1 or d < 3:
        raise DomainError(f"frame dimension must be odd and >= 3, got {d}")
    for arr, shape, what in (
        (lc.gamma, (d, d, d), "levi_civita gamma"),
        (tw.gamma, (d, d, d), "tanaka_webster gamma"),
        (curv_lc.riem, (d, d, d, d), "metric curvature"),
        (curv_tw.riem, (d, d, d, d), "canonical-connection curvature"),
    ):
        if arr.shape != shape:
            raise DomainError(f"{what} has shape {arr.shape}, expected {shape}")

    pre = alg.validate() + cs.validate(alg)
    if pre:
        return IdentityReport(tol=tol, precondition_failures=pre, identities=[])

    n = (d - 1) // 2
    g, J, V, eta, eps = alg.metric, cs.J, cs.reeb, cs.eta, cs.eps
    P = cs.horizontal_projector()
    rng = np.random.default_rng(0)

    # the frame and three seeded random vectors, and their horizontal
    # projections, as rows; J acts on a stack A as A @ J.T
    Y = np.vstack([np.eye(d), rng.normal(size=(3, d))])
    X = Y @ P.T
    JY, JX, JV = Y @ J.T, X @ J.T, J @ V
    m = len(Y)
    c4 = 0.25 * eps**2

    results = []

    def add(name, residuals, note=""):
        residual = float(np.max(residuals))
        results.append(
            IdentityResult(
                name=name,
                residual=residual,
                passed=bool(residual <= tol),
                note=note,
            )
        )

    # eta recovered from the metric: eta(Y) = <V, Y> / eps^2
    Yv = Y @ g @ V
    add("eta_from_metric", np.abs(Y @ eta - Yv / eps**2))

    # Lie derivatives along the Reeb field vanish; [V, u] = u @ ad_V
    ad_V = _contract(V, alg.bracket)
    add("reeb_lie_J", _norms(g, JY @ ad_V - Y @ ad_V @ J.T))
    add("reeb_lie_metric", np.abs(ad_V @ g + g @ ad_V.T))

    # gradient of the vertical field: grad_Y V = -(eps^2/2) J Y, where
    # grad_u V = u @ grad_V, grad_V w = w @ along_V, grad_{x_a} w = w @ along_X[a]
    grad_V = V @ lc.gamma
    along_V = _contract(V, lc.gamma)
    along_X = _contract(X, lc.gamma)
    gradX_V = X @ grad_V
    add("reeb_gradient", _norms(g, Y @ grad_V + 0.5 * eps**2 * JY))
    skew = gradX_V @ g @ X.T
    add("reeb_gradient_skew", np.abs(skew + skew.T))
    add("reeb_autoparallel", _norms(g, V @ grad_V))

    # covariant derivatives of J: (grad_u J) w = grad_u (J w) - J grad_u w
    covXX = X @ along_X
    covJ_XX = JX @ along_X - covXX @ J.T
    covJ_XV = JV @ along_X - gradX_V @ J.T
    covJ_VX = JX @ along_V - X @ along_V @ J.T
    add("covJ_horizontal", _norms(g, covJ_XX - 0.5 * (X @ g @ X.T)[..., None] * V))
    pairing = (gradX_V @ J.T @ g @ X.T)[..., None]
    add("covJ_horizontal_via_gradient", _norms(g, covJ_XX - pairing / eps**2 * V))
    add("covJ_vertical_slot", _norms(g, covJ_XV + 0.5 * eps**2 * X))
    add("covJ_along_reeb", _norms(g, JY @ along_V - Y @ along_V @ J.T))
    add("covJ_along_reeb_mixed", _norms(g, covJ_VX - JX @ grad_V + gradX_V @ J.T))
    add("covJ_reeb_reeb", _norms(g, JV @ along_V - V @ along_V @ J.T))

    # eta paired with the connection reproduces the compatibility pairing
    eta_cov = covXX @ eta
    add("eta_derivative_pairing", np.abs(X @ g @ JX.T + eta_cov - eta_cov.T))

    # splitting of horizontal derivatives
    add(
        "horizontal_derivative_split",
        _norms(g, covXX - covXX @ P.T - 0.5 * (JX @ g @ X.T)[..., None] * V),
    )
    add(
        "derivative_along_reeb",
        _norms(g, X @ along_V - X @ ad_V @ P.T + 0.5 * eps**2 * JX),
    )

    # eps-independence: rebuild the same structure with a different
    # vertical length; the frame is unchanged, so coefficients must agree
    eps_ref = 1.0 if abs(eps - 1.0) > 0.25 else 2.0
    alg2, cs2 = rescale_vertical(alg, cs, eps_ref)
    lc2 = levi_civita(alg2)
    tw2 = tanaka_webster(alg2, cs2, lc2)
    add(
        "horizontal_derivative_eps_independent",
        _norms(g, (covXX - X @ _contract(X, lc2.gamma)) @ P.T),
    )
    add("canonical_connection_eps_independent", np.abs(tw.gamma - tw2.gamma))

    # integrability of the pair (J, eta), with [u_a, w_b] = (W @ ad_U)[a, b]
    ad_Y, ad_JY = _contract(Y, alg.bracket), _contract(JY, alg.bracket)
    br = Y @ ad_Y
    lhs = -(br @ eta)[..., None] * V
    rhs = -br @ J.T @ J.T + (Y @ ad_JY + JY @ ad_Y) @ J.T - JY @ ad_JY
    add("integrability", _norms(g, lhs - rhs))

    # curvature identities: metric connection and canonical connection;
    # V @ R is R(., ., V) and _contract2(V, R) is R(., V, .)
    Rm = curv_lc.operator
    Rt = curv_tw.operator
    add(
        "curvature_reeb_slot",
        _norms(
            g,
            Y @ _contract(Y, V @ Rm)
            - c4 * Yv[None, :, None] * X[:, None, :]
            + c4 * Yv[:, None, None] * X[None, :, :],
        ),
    )
    # R(x2, x3) x1 over x2, x3 in X and x1 in X1 = X[:d+1], at [x2, x3, x1]
    X1, JX1 = X[: d + 1], JX[: d + 1]
    diff = X @ _contract(X, Rt - Rm).reshape(m, d, -1)
    diff = X1 @ diff.reshape(m, m, d, d)
    K = JX @ g @ X.T
    diff -= c4 * K[None, :, : d + 1, None] * JX[:, None, None, :]
    diff += c4 * K[:, None, : d + 1, None] * JX[None, :, None, :]
    diff += 0.5 * eps**2 * K[:, :, None, None] * JX1[None, None, :, :]
    add("canonical_vs_metric_horizontal", _norms(g, diff))
    add("canonical_curvature_reeb_slot", _norms(g, Y @ _contract(Y, V @ Rt)))
    Rt_V = _contract2(V, Rt)
    add(
        "canonical_vs_metric_mixed",
        _norms(
            g,
            X @ _contract(X, Rt_V - _contract2(V, Rm))
            - c4 * (X @ g @ X.T)[..., None] * V,
        ),
    )
    add("canonical_mixed_horizontal_part", _norms(g, X @ _contract(X, Rt_V) @ P.T))

    # sectional consequences in the adapted basis B of each direction y
    # with a horizontal part; from M[i, l] = <R(e_i, y) y, e_l> every basis
    # value is B M B^T.  The last direction is the unit horizontal of the
    # Ricci comparison; the identities grade the others ([:-1]).
    hY = _norms(g, X)
    k = np.flatnonzero(hY[:d] > 1e-6)[0]  # the first frame vector with one
    ys = np.vstack([Y[hY > 1e-6], X[k] / hY[k]])
    B = np.array([_adapted_basis(g, cs, y, rng) for y in ys])
    Bt = B.swapaxes(1, 2)
    v0 = V / eps
    M_lc = np.array([_jacobi_operator(curv_lc.riem, y) for y in ys])
    M_tw = np.array([_jacobi_operator(curv_tw.riem, y) for y in ys])
    S_lc, S_tw = B @ M_lc @ Bt, B @ M_tw @ Bt
    h = _norms(g, ys @ P.T)
    yv = ys @ g @ V
    vertical = M_lc @ v0 @ v0
    # <R(v_i, y) y, v0> is -eps <y, V> |y_H| / 4 at i = 1 and 0 elsewhere
    mixed = B @ M_lc @ v0
    mixed[:, 0] += 0.25 * eps * yv * h
    expected = S_tw + 0.25 * (yv * yv)[:, None, None] * np.eye(2 * n)
    expected[:, 1, 1] -= 0.75 * eps**2 * h * h
    add("sectional_mixed_row", np.abs(mixed[:-1]))
    add("sectional_vertical", np.abs(vertical - c4 * h * h)[:-1])
    add("sectional_horizontal_block", np.abs(S_lc - expected)[:-1])

    # ricci array consistency: the stored quadratic form is the direct trace
    traced = vertical + np.trace(S_lc, axis1=1, axis2=2)
    traced_tw = np.trace(S_tw, axis1=1, axis2=2) + M_tw @ v0 @ v0
    printed = 0.5 * n * yv * yv - 0.75 * eps**2 * h * h + traced_tw
    ricci_form = np.sum(ys @ curv_lc.ricci * ys, axis=1)
    add("ricci_matches_trace", np.abs(ricci_form - traced)[:-1])

    # the two readings of the Ricci consequence, reported side by side
    max_gap = float(np.max(np.abs(printed - traced)[:-1]))
    ricci_comparison = {
        "direction": "unit horizontal",
        "printed": float(printed[-1]),
        "traced": float(traced[-1]),
        "difference": float(printed[-1] - traced[-1]),
        "max_difference_over_samples": max_gap,
        "flagged": bool(max_gap > tol),
        "note": (
            "printed combination omits the vertical-row term "
            "eps^2 |Y_H|^2 / 4 relative to the direct trace"
        ),
    }

    return IdentityReport(
        tol=tol,
        precondition_failures=[],
        identities=results,
        ricci_comparison=ricci_comparison,
    )


# ---------------------------------------------------------------------------
# main curvature hypotheses
# ---------------------------------------------------------------------------

@dataclass
class HypothesisReport:
    """Empirical minima of the two curvature hypotheses over random
    orthonormal bases of ker eta."""

    samples: int
    seed: int
    tol: float
    min_sectional: float
    min_orthogonal_sum: float
    orthogonal_vacuous: bool
    holds: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_main_hypotheses(
    curv_tw: CurvatureData,
    cs: ContactStructure,
    samples: int = 200,
    seed: int = 0,
    metric=None,
) -> HypothesisReport:
    """Sample random orthonormal bases {v, Jv, w_1, ..., w_{2n-2}} of
    ker eta and evaluate the two curvature hypotheses

        <R(Jv, v) v, Jv> >= 0,
        sum_i <R(w_i, v) v, w_i> >= 0

    for the canonical-connection curvature.  Returns the minimum of each
    over the samples; for n = 1 the sum is empty and reported as vacuously
    true.  The frame is assumed orthonormal unless a metric is supplied.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    d = cs.J.shape[0]
    n = (d - 1) // 2
    g = np.eye(d) if metric is None else np.asarray(metric, dtype=float)
    rng = np.random.default_rng(seed)
    P = cs.horizontal_projector()

    min1 = np.inf
    min2 = np.inf if n > 1 else 0.0
    for _ in range(samples):
        v = P @ rng.normal(size=d)
        nv = _norms(g, v)
        if nv < 1e-12:
            continue
        v = v / nv
        basis = _adapted_basis(g, cs, v, rng)
        # <R(w, v) v, w> for each basis row w, from one M_v per sample
        vals = np.sum(basis @ _jacobi_operator(curv_tw.riem, v) * basis, axis=1)
        min1 = min(min1, vals[1])
        if n > 1:
            min2 = min(min2, vals[2:].sum())
    holds = bool(min1 >= -_HYPOTHESIS_TOL and (n == 1 or min2 >= -_HYPOTHESIS_TOL))
    return HypothesisReport(
        samples=samples,
        seed=seed,
        tol=_HYPOTHESIS_TOL,
        min_sectional=float(min1),
        min_orthogonal_sum=float(min2),
        orthogonal_vacuous=bool(n == 1),
        holds=holds,
    )


# ---------------------------------------------------------------------------
# JSON model ingestion
# ---------------------------------------------------------------------------

def model_from_dict(data: dict):
    """Build a validated model from the sparse description

        {"dim": int, "bracket": [[i, j, k, value], ...],
         "metric": [[...]], "J": [[...]], "eta": [...],
         "reeb": [...], "eps": real}

    Bracket entries are zero-based; for each entry the antisymmetric
    mirror is filled in automatically, and supplying both with
    inconsistent values is an error.  Raises ModelValidationError when the
    assembled model violates any structural invariant.
    """
    try:
        d = int(data["dim"])
        entries = data["bracket"]
        metric = np.asarray(data["metric"], dtype=float)
        J = np.asarray(data["J"], dtype=float)
        eta = np.asarray(data["eta"], dtype=float)
        reeb = np.asarray(data["reeb"], dtype=float)
        eps = float(data["eps"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelValidationError([f"malformed model description: {exc}"]) from exc
    if d < 3 or d % 2 != 1:
        raise ModelValidationError([f"dim must be odd and >= 3, got {d}"])
    bracket = np.full((d, d, d), np.nan)
    for entry in entries:
        if len(entry) != 4:
            raise ModelValidationError([f"bad bracket entry {entry!r}"])
        i, j, k, value = int(entry[0]), int(entry[1]), int(entry[2]), float(entry[3])
        if not all(0 <= idx < d for idx in (i, j, k)):
            raise ModelValidationError([f"bracket index out of range in {entry!r}"])
        for a, b, val in ((i, j, value), (j, i, -value)):
            if not np.isnan(bracket[a, b, k]) and bracket[a, b, k] != val:
                raise ModelValidationError(
                    [f"inconsistent bracket entries at ({a},{b},{k})"]
                )
            bracket[a, b, k] = val
    bracket = np.nan_to_num(bracket, nan=0.0)
    alg = FrameAlgebra(bracket=bracket, metric=metric)
    cs = ContactStructure(eta=eta, reeb=reeb, J=J, eps=eps)
    violations = alg.validate() + cs.validate(alg)
    if violations:
        raise ModelValidationError(violations)
    return alg, cs


def model_from_json(path):
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def model_to_dict(alg: FrameAlgebra, cs: ContactStructure) -> dict:
    """Sparse description accepted by model_from_dict (round-trips)."""
    d = alg.dim
    entries = []
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                if alg.bracket[i, j, k] != 0.0:
                    entries.append([i, j, k, float(alg.bracket[i, j, k])])
    return {
        "dim": d,
        "bracket": entries,
        "metric": alg.metric.tolist(),
        "J": cs.J.tolist(),
        "eta": cs.eta.tolist(),
        "reeb": cs.reeb.tolist(),
        "eps": cs.eps,
    }
