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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelValidationError

KIND_LEVI_CIVITA = "levi-civita"
KIND_TANAKA_WEBSTER = "tanaka-webster"

_VALIDATE_TOL = 1e-10


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

    def bracket_of(self, u, v) -> np.ndarray:
        """[u, v] for constant-coefficient vectors u, v."""
        return np.einsum("i,j,ijk->k", u, v, self.bracket)

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

    def d_eta(self, alg: FrameAlgebra, u, v) -> float:
        return float(-self.eta @ alg.bracket_of(u, v))

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
        dV = np.einsum("i,ijk,k->j", V, alg.bracket, eta)
        if np.max(np.abs(dV), initial=0.0) > tol:
            out.append("d eta(V, .) != 0")
        if np.max(np.abs(J @ V), initial=0.0) > tol:
            out.append("J V != 0")
        P = self.horizontal_projector()
        if np.max(np.abs((J @ J + np.eye(d)) @ P), initial=0.0) > tol:
            out.append("J^2 != -1 on ker eta")
        # compatibility d eta(X1, X2) = <X1, J X2> on ker eta
        h = [P[:, k] for k in range(d)]
        comp = max(
            abs(self.d_eta(alg, h[i], h[j]) - alg.inner(h[i], J @ h[j]))
            for i in range(d)
            for j in range(d)
        )
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
    torsion_free: bool

    def apply(self, u, w) -> np.ndarray:
        """Derivative of the constant-coefficient field w along u."""
        return np.einsum("i,j,ijk->k", u, w, self.gamma)


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
    connection_kind: str

    def sectional_like(self, u, w, z, x) -> float:
        """<R(u, w) z, x> for constant-coefficient vectors."""
        return float(np.einsum("i,j,k,l,ijkl->", u, w, z, x, self.riem))


def build_heisenberg_algebra(n: int, eps: float):
    """The model group: frame (v0 = V/eps, X_1..X_n, Y_1..Y_n), orthonormal
    metric, brackets [X_i, Y_i] = eps v0, J X_i = Y_i, J Y_i = -X_i.

    Returns (FrameAlgebra, ContactStructure).
    """
    if int(n) != n or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (eps > 0.0 and np.isfinite(eps)):
        raise DomainError(f"eps must be a positive real, got {eps!r}")
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
    return ConnectionCoeffs(gamma=gamma, torsion_free=True)


def tanaka_webster(
    alg: FrameAlgebra, cs: ContactStructure, lc: ConnectionCoeffs
) -> ConnectionCoeffs:
    """The canonical connection

        D_Y1 Y2 = grad_Y1 Y2 + (<V,Y2>/2) J Y1 - (1/2) <J Y1, Y2> V
                  + (<V,Y1>/2) J Y2,

    evaluated on the frame.  Not torsion-free; independent of eps."""
    d = alg.dim
    g, J, V = alg.metric, cs.J, cs.reeb
    gV = g @ V
    gamma = lc.gamma.copy()
    Je = J  # column j is J e_j
    for i in range(d):
        for j in range(d):
            gamma[i, j] += 0.5 * gV[j] * Je[:, i]
            gamma[i, j] -= 0.5 * float(Je[:, i] @ g[:, j]) * V
            gamma[i, j] += 0.5 * gV[i] * Je[:, j]
    return ConnectionCoeffs(gamma=gamma, torsion_free=False)


def curvature(alg: FrameAlgebra, conn: ConnectionCoeffs) -> CurvatureData:
    """Frame curvature R(e_i, e_j) e_k with the sign convention

        R(X, Y)Z = grad_X grad_Y Z - grad_Y grad_X Z - grad_[X,Y] Z.
    """
    gm = conn.gamma
    op = (
        np.einsum("jkl,ilm->ijkm", gm, gm)
        - np.einsum("ikl,jlm->ijkm", gm, gm)
        - np.einsum("ijl,lkm->ijkm", alg.bracket, gm)
    )
    riem = np.einsum("ijkm,ml->ijkl", op, alg.metric)
    ginv = np.linalg.inv(alg.metric)
    ricci = np.einsum("vw,vabw->ab", ginv, riem)
    kind = KIND_LEVI_CIVITA if conn.torsion_free else KIND_TANAKA_WEBSTER
    return CurvatureData(riem=riem, ricci=ricci, operator=op, connection_kind=kind)


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


def connection_in_scaled_frame(conn: ConnectionCoeffs, scales) -> np.ndarray:
    """Coefficients of the same connection in the rescaled frame
    e_i' = scales[i] e_i."""
    s = np.asarray(scales, dtype=float)
    return np.einsum("i,j,ijk,k->ijk", s, s, conn.gamma, 1.0 / s)


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


def _norm(alg, v):
    return float(np.sqrt(max(v @ alg.metric @ v, 0.0)))


def _adapted_basis(alg, cs, Y, rng):
    """Orthonormal basis (v1 = Y_H/|Y_H|, v2 = J v1, then J-paired fills)
    of ker eta; requires |Y_H| > 0."""
    P = cs.horizontal_projector()
    g = alg.metric
    Yh = P @ Y
    h = _norm(alg, Yh)
    if h < 1e-12:
        raise DomainError("adapted basis needs a direction with nonzero horizontal part")
    v1 = Yh / h
    basis = [v1, cs.J @ v1]
    n = (alg.dim - 1) // 2
    for _ in range(n - 1):
        for _attempt in range(50):
            w = P @ rng.normal(size=alg.dim)
            for b in basis:
                w = w - (w @ g @ b) * b
            nw = _norm(alg, w)
            if nw > 1e-8:
                break
        else:
            raise DomainError("could not complete an adapted basis")
        w = w / nw
        basis.append(w)
        Jw = cs.J @ w
        for b in basis[:-1]:
            Jw = Jw - (Jw @ g @ b) * b
        basis.append(Jw / _norm(alg, Jw))
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

    frame = [np.eye(d)[k] for k in range(d)]
    randoms = [rng.normal(size=d) for _ in range(3)]
    vectors = frame + randoms
    horizontals = [P @ v for v in vectors]

    def vnorm(v):
        return _norm(alg, v)

    def inner(u, v):
        return float(u @ g @ v)

    def cov(conn, u, w):
        return conn.apply(u, w)

    def covJ(conn, u, w):
        return cov(conn, u, J @ w) - J @ cov(conn, u, w)

    results = []

    def add(name, residual, note=""):
        results.append(
            IdentityResult(
                name=name,
                residual=float(residual),
                passed=bool(residual <= tol),
                note=note,
            )
        )

    # eta recovered from the metric: eta(Y) = <V, Y> / eps^2
    add(
        "eta_from_metric",
        max(abs(float(eta @ y) - inner(V, y) / eps**2) for y in vectors),
    )

    # Lie derivatives along the Reeb field vanish
    add(
        "reeb_lie_J",
        max(
            vnorm(alg.bracket_of(V, J @ y) - J @ alg.bracket_of(V, y))
            for y in vectors
        ),
    )
    add(
        "reeb_lie_metric",
        max(
            abs(inner(alg.bracket_of(V, u), w) + inner(u, alg.bracket_of(V, w)))
            for u in frame
            for w in frame
        ),
    )

    # gradient of the vertical field: grad_Y V = -(eps^2/2) J Y
    add(
        "reeb_gradient",
        max(vnorm(cov(lc, y, V) + 0.5 * eps**2 * (J @ y)) for y in vectors),
    )
    add(
        "reeb_gradient_skew",
        max(
            abs(inner(cov(lc, x1, V), x2) + inner(cov(lc, x2, V), x1))
            for x1 in horizontals
            for x2 in horizontals
        ),
    )
    add("reeb_autoparallel", vnorm(cov(lc, V, V)))

    # covariant derivatives of J
    add(
        "covJ_horizontal",
        max(
            vnorm(covJ(lc, x1, x2) - 0.5 * inner(x1, x2) * V)
            for x1 in horizontals
            for x2 in horizontals
        ),
    )
    add(
        "covJ_horizontal_via_gradient",
        max(
            vnorm(covJ(lc, x1, x2) - inner(x2, J @ cov(lc, x1, V)) / eps**2 * V)
            for x1 in horizontals
            for x2 in horizontals
        ),
    )
    add(
        "covJ_vertical_slot",
        max(vnorm(covJ(lc, x, V) + 0.5 * eps**2 * x) for x in horizontals),
    )
    add(
        "covJ_vertical_slot_via_gradient",
        max(vnorm(covJ(lc, x, V) + J @ cov(lc, x, V)) for x in horizontals),
    )
    add("covJ_along_reeb", max(vnorm(covJ(lc, V, y)) for y in vectors))
    add(
        "covJ_along_reeb_mixed",
        max(
            vnorm(covJ(lc, V, x) - cov(lc, J @ x, V) + J @ cov(lc, x, V))
            for x in horizontals
        ),
    )
    add("covJ_reeb_reeb", vnorm(covJ(lc, V, V)))

    # eta paired with the connection reproduces the compatibility pairing
    add(
        "eta_derivative_pairing",
        max(
            abs(
                inner(x1, J @ x2)
                + float(eta @ cov(lc, x1, x2))
                - float(eta @ cov(lc, x2, x1))
            )
            for x1 in horizontals
            for x2 in horizontals
        ),
    )

    # splitting of horizontal derivatives
    add(
        "horizontal_derivative_split",
        max(
            vnorm(
                cov(lc, x1, x2)
                - P @ cov(lc, x1, x2)
                - 0.5 * inner(J @ x1, x2) * V
            )
            for x1 in horizontals
            for x2 in horizontals
        ),
    )
    add(
        "derivative_along_reeb",
        max(
            vnorm(cov(lc, V, x) - P @ alg.bracket_of(V, x) + 0.5 * eps**2 * (J @ x))
            for x in horizontals
        ),
    )

    # eps-independence: rebuild the same structure with a different
    # vertical length; the frame is unchanged, so coefficients must agree
    eps_ref = 1.0 if abs(eps - 1.0) > 0.25 else 2.0
    alg2, cs2 = rescale_vertical(alg, cs, eps_ref)
    lc2 = levi_civita(alg2)
    tw2 = tanaka_webster(alg2, cs2, lc2)
    add(
        "horizontal_derivative_eps_independent",
        max(
            vnorm(P @ (cov(lc, x1, x2) - cov(lc2, x1, x2)))
            for x1 in horizontals
            for x2 in horizontals
        ),
    )
    add(
        "canonical_connection_eps_independent",
        float(np.max(np.abs(tw.gamma - tw2.gamma))),
    )

    # integrability of the pair (J, eta)
    def nij(y1, y2):
        br = alg.bracket_of
        lhs = cs.d_eta(alg, y1, y2) * V
        rhs = (
            -J @ (J @ br(y1, y2))
            + J @ br(J @ y1, y2)
            + J @ br(y1, J @ y2)
            - br(J @ y1, J @ y2)
        )
        return vnorm(lhs - rhs)

    add("integrability", max(nij(u, w) for u in vectors for w in vectors))

    # curvature identities: metric connection and canonical connection
    Rm = curv_lc.operator
    Rt = curv_tw.operator

    def rop(R, u, w, z):
        return np.einsum("i,j,k,ijkm->m", u, w, z, R)

    add(
        "curvature_reeb_slot",
        max(
            vnorm(
                rop(Rm, y1, y2, V)
                - 0.25 * eps**2 * inner(y2, V) * (P @ y1)
                + 0.25 * eps**2 * inner(y1, V) * (P @ y2)
            )
            for y1 in vectors
            for y2 in vectors
        ),
    )
    add(
        "canonical_vs_metric_horizontal",
        max(
            vnorm(
                rop(Rt, x2, x3, x1)
                - rop(Rm, x2, x3, x1)
                - 0.25 * eps**2 * inner(J @ x3, x1) * (J @ x2)
                + 0.25 * eps**2 * inner(J @ x2, x1) * (J @ x3)
                + 0.5 * eps**2 * inner(J @ x2, x3) * (J @ x1)
            )
            for x2 in horizontals
            for x3 in horizontals
            for x1 in horizontals[: d + 1]
        ),
    )
    add(
        "canonical_curvature_reeb_slot",
        max(vnorm(rop(Rt, y1, y2, V)) for y1 in vectors for y2 in vectors),
    )
    add(
        "canonical_vs_metric_mixed",
        max(
            vnorm(
                rop(Rt, x1, V, x2)
                - rop(Rm, x1, V, x2)
                - 0.25 * eps**2 * inner(x1, x2) * V
            )
            for x1 in horizontals
            for x2 in horizontals
        ),
    )
    add(
        "canonical_mixed_horizontal_part",
        max(
            vnorm(P @ rop(Rt, x1, V, x2))
            for x1 in horizontals
            for x2 in horizontals
        ),
    )

    # sectional consequences in the adapted basis of a direction Y
    ys = [v for v in vectors if vnorm(P @ v) > 1e-6]
    sec1 = sec2 = sec3 = 0.0
    ricci_rows = []
    for Y in ys:
        basis = _adapted_basis(alg, cs, Y, rng)
        v0 = V / eps
        h = vnorm(P @ Y)
        yv = inner(Y, V)
        sec2 = max(
            sec2,
            abs(curv_lc.sectional_like(v0, Y, Y, v0) - 0.25 * eps**2 * h * h),
        )
        traced = curv_lc.sectional_like(v0, Y, Y, v0)
        traced_tw = 0.0
        for i, vi in enumerate(basis, start=1):
            expected = -0.25 * eps * yv * h if i == 1 else 0.0
            sec1 = max(
                sec1, abs(curv_lc.sectional_like(vi, Y, Y, v0) - expected)
            )
            traced += curv_lc.sectional_like(vi, Y, Y, vi)
            traced_tw += curv_tw.sectional_like(vi, Y, Y, vi)
            for j, vj in enumerate(basis, start=1):
                expected = 0.25 * yv * yv * (i == j)
                if i == 2 and j == 2:
                    expected -= 0.75 * eps**2 * h * h
                expected += curv_tw.sectional_like(vi, Y, Y, vj)
                sec3 = max(
                    sec3, abs(curv_lc.sectional_like(vi, Y, Y, vj) - expected)
                )
        traced_tw += curv_tw.sectional_like(v0, Y, Y, v0)
        printed = 0.5 * n * yv * yv - 0.75 * eps**2 * h * h + traced_tw
        ricci_rows.append((h, yv, printed, traced))
    add("sectional_mixed_row", sec1)
    add("sectional_vertical", sec2)
    add("sectional_horizontal_block", sec3)

    # ricci array consistency: the stored quadratic form is the direct trace
    ric_arr = max(
        abs(float(Y @ curv_lc.ricci @ Y) - row[3])
        for Y, row in zip(ys, ricci_rows)
    )
    add("ricci_matches_trace", ric_arr)

    # the two readings of the Ricci consequence, reported side by side
    Yc = next(
        (P @ v / vnorm(P @ v) for v in frame if vnorm(P @ v) > 1e-6), None
    )
    basis = _adapted_basis(alg, cs, Yc, rng)
    v0 = V / eps
    traced = curv_lc.sectional_like(v0, Yc, Yc, v0) + sum(
        curv_lc.sectional_like(vi, Yc, Yc, vi) for vi in basis
    )
    traced_tw = curv_tw.sectional_like(v0, Yc, Yc, v0) + sum(
        curv_tw.sectional_like(vi, Yc, Yc, vi) for vi in basis
    )
    printed = -0.75 * eps**2 + traced_tw
    max_gap = max(abs(r[2] - r[3]) for r in ricci_rows)
    ricci_comparison = {
        "direction": "unit horizontal",
        "printed": float(printed),
        "traced": float(traced),
        "difference": float(printed - traced),
        "max_difference_over_samples": float(max_gap),
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
        return {
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "min_sectional": self.min_sectional,
            "min_orthogonal_sum": self.min_orthogonal_sum,
            "orthogonal_vacuous": self.orthogonal_vacuous,
            "holds": self.holds,
        }


def check_main_hypotheses(
    curv_tw: CurvatureData,
    cs: ContactStructure,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-10,
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
    alg_like = FrameAlgebra(bracket=np.zeros((d, d, d)), metric=g)
    rng = np.random.default_rng(seed)
    P = cs.horizontal_projector()

    min1 = np.inf
    min2 = np.inf if n > 1 else 0.0
    for _ in range(samples):
        v = P @ rng.normal(size=d)
        nv = _norm(alg_like, v)
        if nv < 1e-12:
            continue
        v = v / nv
        basis = _adapted_basis(alg_like, cs, v, rng)
        Jv = basis[1]
        min1 = min(min1, curv_tw.sectional_like(Jv, v, v, Jv))
        if n > 1:
            s = sum(curv_tw.sectional_like(w, v, v, w) for w in basis[2:])
            min2 = min(min2, s)
    holds = bool(min1 >= -tol and (n == 1 or min2 >= -tol))
    return HypothesisReport(
        samples=samples,
        seed=seed,
        tol=tol,
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
