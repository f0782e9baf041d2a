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

from dataclasses import asdict, dataclass

import numpy as np

from . import _MAX_N
from .errors import DomainError, ModelValidationError

# The largest violation of an algebra invariant (FrameAlgebra.validate)
# and of a contact invariant (ContactStructure.validate) that passes.
_ALGEBRA_TOL = 1e-12
_CONTACT_TOL = 1e-10
# check_main_hypotheses counts a hypothesis as holding when its minimum
# is at least -_HYPOTHESIS_TOL.
_HYPOTHESIS_TOL = 1e-10
# The most samples check_main_hypotheses draws.  It loops in Python once
# per sample, at about 12 us per sample at n = 1 and 1.3 ms at n = 20
# (2-core Xeon, Python 3.11, numpy 2.4), so 10^5 samples take about 1.2 s
# at n = 1 and 2.2 minutes at n = 20, 500 times the CLI's default of 200.
_MAX_HYPOTHESIS_SAMPLES = 100_000
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


def _exceeds(x, tol) -> bool:
    """Whether some |x| is above tol or NaN (as overflow leaves it)."""
    return not np.max(np.abs(x), initial=0.0) <= tol


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

    def validate(self) -> list[str]:
        """Names of violated algebra invariants (empty when valid)."""
        out = []
        c, g = self.bracket, self.metric
        d = g.shape[0]
        if c.shape != (d, d, d) or g.shape != (d, d):
            return [f"shape mismatch: bracket {c.shape}, metric {g.shape}"]
        if _exceeds(c + c.swapaxes(0, 1), _ALGEBRA_TOL):
            out.append("bracket is not antisymmetric")
        jac = (
            np.einsum("ijm,mkl->ijkl", c, c)
            + np.einsum("jkm,mil->ijkl", c, c)
            + np.einsum("kim,mjl->ijkl", c, c)
        )
        if _exceeds(jac, _ALGEBRA_TOL):
            out.append("Jacobi identity fails")
        if _exceeds(g - g.T, _ALGEBRA_TOL):
            out.append("metric is not symmetric")
        elif np.linalg.eigvalsh(0.5 * g + 0.5 * g.T).min() <= 0.0:
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

    def validate(self, alg: FrameAlgebra) -> list[str]:
        """Names of violated contact invariants (empty when valid)."""
        out = []
        d = alg.dim
        eta, V, J, eps = self.eta, self.reeb, self.J, self.eps
        if eta.shape != (d,) or V.shape != (d,) or J.shape != (d, d):
            return ["contact data shapes do not match the algebra dimension"]
        if not (eps > 0.0 and np.isfinite(eps)):
            return ["eps must be a positive real"]
        if _exceeds(eta @ V - 1.0, _CONTACT_TOL):
            out.append("eta(V) != 1")
        # d eta(V, e_j) = -eta([V, e_j])
        if _exceeds(_contract(V, alg.bracket) @ eta, _CONTACT_TOL):
            out.append("d eta(V, .) != 0")
        if _exceeds(J @ V, _CONTACT_TOL):
            out.append("J V != 0")
        P = self.horizontal_projector()
        if _exceeds((J @ J + np.eye(d)) @ P, _CONTACT_TOL):
            out.append("J^2 != -1 on ker eta")
        # compatibility d eta(X1, X2) = <X1, J X2> on ker eta, on the
        # columns of P: d eta(h_i, h_j) = -(P^T (bracket . eta) P)[i, j]
        if _exceeds(P.T @ (alg.bracket @ eta + alg.metric @ J) @ P, _CONTACT_TOL):
            out.append("d eta and the metric are incompatible on ker eta")
        if _exceeds(V @ alg.metric @ V - eps * eps, _CONTACT_TOL * max(1.0, eps * eps)):
            out.append("|V| != eps")
        if _exceeds((alg.metric @ V) @ P, _CONTACT_TOL):
            out.append("V is not orthogonal to ker eta")
        return out


@dataclass(frozen=True)
class CurvatureData:
    """Curvature of a connection on a left-invariant frame: operator[i, j,
    k, m] is the e_m coefficient of R(e_i, e_j) e_k, and ricci[a, b] the
    trace of v -> R(v, e_a) e_b.  Neither depends on the metric."""

    operator: np.ndarray
    ricci: np.ndarray


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


def levi_civita(alg: FrameAlgebra) -> np.ndarray:
    """Connection coefficients gamma[i, j, k], the e_k coefficient of
    grad_i e_j, from Koszul's formula on left-invariant fields:

        2 <grad_i e_j, e_k> =
            <[e_i,e_j],e_k> - <[e_j,e_k],e_i> + <[e_k,e_i],e_j>.
    """
    cg = np.einsum("ijm,mk->ijk", alg.bracket, alg.metric)
    # cg.transpose(2,0,1)[i,j,k] = <[e_j,e_k],e_i>; (1,2,0) gives <[e_k,e_i],e_j>
    K = cg - cg.transpose(2, 0, 1) + cg.transpose(1, 2, 0)
    return 0.5 * np.einsum("ijk,km->ijm", K, np.linalg.inv(alg.metric))


def tanaka_webster(alg: FrameAlgebra, cs: ContactStructure, lc: np.ndarray) -> np.ndarray:
    """The coefficients of the canonical connection

        D_Y1 Y2 = grad_Y1 Y2 + (<V,Y2>/2) J Y1 - (1/2) <J Y1, Y2> V
                  + (<V,Y1>/2) J Y2,

    evaluated on the frame from the Levi-Civita coefficients lc.  Not
    torsion-free; independent of eps."""
    g, V = alg.metric, cs.reeb
    gV = g @ V
    Je = cs.J.T  # row i is J e_i
    return (
        lc
        + 0.5 * gV[None, :, None] * Je[:, None, :]
        - 0.5 * (Je @ g)[:, :, None] * V
        + 0.5 * gV[:, None, None] * Je[None, :, :]
    )


def curvature(alg: FrameAlgebra, gm: np.ndarray) -> CurvatureData:
    """Curvature R(e_i, e_j) e_k of the connection with coefficients gm,
    and its Ricci form, with the sign convention

        R(X, Y)Z = grad_X grad_Y Z - grad_Y grad_X Z - grad_[X,Y] Z.
    """
    # order="C" lays the tensor out row-major, so that the catalog's
    # reshapes of it are views, not 23 MB copies at n = 20; an entry past
    # float64 range is left for the catalog and the hypothesis sampler to
    # refuse
    with np.errstate(all="ignore"):
        op = (
            np.einsum("jkl,ilm->ijkm", gm, gm, order="C")
            - np.einsum("ikl,jlm->ijkm", gm, gm, order="C")
            - np.einsum("ijl,lkm->ijkm", alg.bracket, gm, order="C")
        )
        # ricci[a, b] = g^{vw} <R(e_v, e_a) e_b, e_w> = g^{vw} op[v, a, b, m] g_{mw}
        # = op[v, a, b, v] (sums over repeated indices): the metric and its
        # inverse cancel, leaving the trace of v -> R(v, e_a) e_b
        return CurvatureData(operator=op, ricci=np.einsum("vabv->ab", op))


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


@dataclass
class IdentityReport:
    """Outcome of the identity catalog on one model.

    precondition_failures is nonempty when the model is not a valid
    weakly-contact-metric structure; in that case no identities are
    evaluated."""

    tol: float
    precondition_failures: list
    identities: list

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
            "identities": [asdict(r) for r in self.identities],
        }


def _jacobi_operator(op, g, y):
    """M[i, l] = <R(e_i, y) y, e_l> for the curvature operator op and the
    metric g, so that <R(u, y) y, w> = u M w: one pass over op, one over
    a d^3 array, and the last slot lowered on the d x d result."""
    return _contract2(y, _contract2(y, op)) @ g


def verify_structure_identities(
    alg: FrameAlgebra,
    cs: ContactStructure,
    lc: np.ndarray,
    tw: np.ndarray,
    curv_lc: CurvatureData,
    curv_tw: CurvatureData,
    tol: float = 1e-10,
) -> IdentityReport:
    """Evaluate the weakly-Sasakian identity catalog and report residuals.

    Identities are evaluated on frame vectors (enough by multilinearity),
    on horizontal projections of frame vectors where an argument must lie
    in ker eta, and additionally on a few seeded random constant
    combinations as redundancy.  lc and tw are the coefficients of the
    Levi-Civita and the canonical connection, and curv_lc and curv_tw
    their curvatures.  Each entry records the maximum absolute
    residual found; it passes iff that residual is <= tol.  A connection
    or curvature that is not finite (a model past float64 range) raises
    DomainError.

    The vectors are stacked as rows, and each tensor is contracted with a
    whole stack at once: with U and W stacks, W @ _contract(U, T) holds
    T(u_a, w_b, ...) at [a, b].

    The sectional identities are graded as bilinear forms on the
    horizontal stack: <R(x, y) y, w> = x M w with M[i, l] =
    <R(e_i, y) y, e_l>, at every pair x, w of it.  The Ricci consequence
    is graded as the direct trace of the sectional values, vertical row
    included (ricci_matches_trace).  A trace does not depend on the
    basis: the sum of <R(b, y) y, b> over any g-orthonormal basis {b} of
    the frame is tr(g^-1 M).  The paper's printed combination
    n <Y,V>^2 / 2 - 3 eps^2 |Y_H|^2 / 4 + ric_tw(Y, Y) leaves out that
    row's eps^2 |Y_H|^2 / 4: for a unit horizontal Y at n = 1, eps = 2 it
    gives -3 where the trace gives -2.
    """
    d = alg.dim
    if d % 2 != 1 or d < 3:
        raise DomainError(f"frame dimension must be odd and >= 3, got {d}")
    for arr, shape, what in (
        (lc, (d, d, d), "levi_civita gamma"),
        (tw, (d, d, d), "tanaka_webster gamma"),
        (curv_lc.operator, (d, d, d, d), "metric curvature"),
        (curv_tw.operator, (d, d, d, d), "canonical-connection curvature"),
    ):
        if arr.shape != shape:
            raise DomainError(f"{what} has shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{what} is not finite in float64 for this model")

    pre = alg.validate() + cs.validate(alg)
    if pre:
        return IdentityReport(tol=tol, precondition_failures=pre, identities=[])

    g, J, V, eta, eps = alg.metric, cs.J, cs.reeb, cs.eta, cs.eps
    P = cs.horizontal_projector()

    # the frame and three seeded random vectors, and their horizontal
    # projections, as rows; J acts on a stack A as A @ J.T
    Y = np.vstack([np.eye(d), np.random.default_rng(0).normal(size=(3, d))])
    X = Y @ P.T
    JY, JX, JV = Y @ J.T, X @ J.T, J @ V
    m = len(Y)
    c4 = 0.25 * eps**2

    results = []

    def add(name, residuals):
        residual = float(np.max(residuals))
        results.append(
            IdentityResult(name=name, residual=residual, passed=bool(residual <= tol))
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
    grad_V = V @ lc
    along_V = _contract(V, lc)
    along_X = _contract(X, lc)
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
        _norms(g, (covXX - X @ _contract(X, lc2)) @ P.T),
    )
    add("canonical_connection_eps_independent", np.abs(tw - tw2))

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

    # sectional consequences at each y in Y, as bilinear forms on X: from
    # M[i, l] = <R(e_i, y) y, e_l>, <R(x, y) y, w> is x M w, and at [a, b]
    # the stacks below hold y_a's values at x_b (and w = x_c)
    v0 = V / eps
    M_lc = np.array([_jacobi_operator(Rm, g, y) for y in Y])
    M_tw = np.array([_jacobi_operator(Rt, g, y) for y in Y])
    h = _norms(g, X)
    vertical = M_lc @ v0 @ v0
    # <R(x, y) y, v0> = -eps <y, V> <x, y_H> / 4
    mixed = M_lc @ v0 @ X.T + 0.25 * eps * Yv[:, None] * (X @ g @ X.T)
    # <R(x, y) y, w>_lc - <R(x, y) y, w>_tw
    #     = <y, V>^2 <x, w> / 4 - 3 eps^2 <x, J y_H> <w, J y_H> / 4
    block = X @ (M_lc - M_tw - 0.25 * (Yv * Yv)[:, None, None] * g) @ X.T
    block += 0.75 * eps**2 * K[:, :, None] * K[:, None, :]
    add("sectional_mixed_row", np.abs(mixed))
    add("sectional_vertical", np.abs(vertical - c4 * h * h))
    add("sectional_horizontal_block", np.abs(block))

    # ricci array consistency: the stored quadratic form is the trace of
    # M_lc over a g-orthonormal basis of the frame, tr(g^-1 M_lc)
    traced = np.sum(np.linalg.inv(g) * M_lc, axis=(1, 2))
    ricci_form = np.sum(Y @ curv_lc.ricci * Y, axis=1)
    add("ricci_matches_trace", np.abs(ricci_form - traced))

    return IdentityReport(tol=tol, precondition_failures=[], identities=results)


# ---------------------------------------------------------------------------
# main curvature hypotheses
# ---------------------------------------------------------------------------

@dataclass
class HypothesisReport:
    """Empirical minima of the two curvature hypotheses over random
    unit directions of ker eta."""

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
    metric,
    samples: int = 200,
    seed: int = 0,
) -> HypothesisReport:
    """Sample random unit directions v of ker eta and evaluate the two
    curvature hypotheses

        <R(Jv, v) v, Jv> >= 0,
        sum_i <R(w_i, v) v, w_i> >= 0

    for the canonical-connection curvature, where {v, Jv, w_1, ...,
    w_{2n-2}} is a g-orthonormal basis of ker eta.  The sum is a trace, so
    it does not depend on the completion {w_i}: with M[i, l] =
    <R(e_i, v) v, e_l> and v0 = V / eps,

        sum_i <R(w_i, v) v, w_i> = tr(H M) - v M v - Jv M Jv,

    where H = g^-1 - v0 v0^T is the sum of b b^T over any g-orthonormal
    basis {b} of ker eta (V is g-orthogonal to ker eta and |V| = eps),
    and v M v = <R(v, v) v, v> is zero but for rounding.  Returns the
    minimum of each over the samples; for n = 1 the sum is empty and
    reported as vacuously true.  metric is the Gram matrix of the frame.
    A curvature that is not finite (a model past float64 range) raises
    DomainError.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if samples > _MAX_HYPOTHESIS_SAMPLES:
        raise DomainError(
            f"samples must be at most {_MAX_HYPOTHESIS_SAMPLES}, got {samples}"
        )
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if not np.all(np.isfinite(curv_tw.operator)):
        raise DomainError(
            "canonical-connection curvature is not finite in float64 for this model"
        )
    d = cs.J.shape[0]
    n = (d - 1) // 2
    g = np.asarray(metric, dtype=float)
    v0 = cs.reeb / cs.eps
    H = np.linalg.inv(g) - np.outer(v0, v0)
    P = cs.horizontal_projector()
    vs = np.random.default_rng(seed).normal(size=(samples, d)) @ P.T

    min1 = np.inf
    min2 = np.inf if n > 1 else 0.0
    for v, nv in zip(vs, _norms(g, vs)):
        if nv < 1e-12:
            continue
        v = v / nv
        Jv = cs.J @ v
        M = _jacobi_operator(curv_tw.operator, g, v)
        sectional = Jv @ M @ Jv
        min1 = min(min1, sectional)
        if n > 1:
            min2 = min(min2, np.sum(H * M) - v @ M @ v - sectional)
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

def _reals(value, what: str):
    """value, a real number or nested lists of them, with each number as a
    float.  A bool, a string or None raises TypeError, and an integer past
    float64 range ValueError, naming what: JSON's true is no 1, nor "1"."""
    if isinstance(value, list):
        return [_reals(v, what) for v in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must hold numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} holds an integer past float64 range") from None


def model_from_dict(data: dict):
    """Build a validated model from the sparse description

        {"dim": int, "bracket": [[i, j, k, value], ...],
         "metric": [[...]], "J": [[...]], "eta": [...],
         "reeb": [...], "eps": real}

    Every field holds numbers, not bools or strings (_reals), and dim is
    integer-valued.  Bracket entries are zero-based, with integer indices
    and a finite value; for each entry the antisymmetric mirror is filled
    in automatically, and supplying both with inconsistent values is an
    error.  Raises ModelValidationError when the description is malformed
    or not finite, or the assembled model violates any structural
    invariant (checked with float errors silenced: a value that overflows
    fails its check).
    """
    try:
        d = float(_reals(data["dim"], "dim"))
        entries = list(data["bracket"])
        metric, J, eta, reeb = (
            np.asarray(_reals(data[key], key), dtype=float)
            for key in ("metric", "J", "eta", "reeb")
        )
        eps = float(_reals(data["eps"], "eps"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelValidationError([f"malformed model description: {exc}"]) from exc
    if not all(np.all(np.isfinite(a)) for a in (metric, J, eta, reeb)):
        raise ModelValidationError(["metric, J, eta and reeb must be finite"])
    if not d.is_integer():
        raise ModelValidationError([f"dim must be an integer, got {d!r}"])
    d = int(d)
    if d < 3 or d % 2 != 1:
        raise ModelValidationError([f"dim must be odd and >= 3, got {d}"])
    if d > 2 * _MAX_N + 1:
        raise ModelValidationError([f"dim must be at most {2 * _MAX_N + 1}, got {d}"])
    bracket = np.full((d, d, d), np.nan)
    for entry in entries:
        try:
            *index, value = map(float, _reals(entry, "a bracket entry"))
        except (TypeError, ValueError):
            raise ModelValidationError([f"bad bracket entry {entry!r}"]) from None
        if len(index) != 3 or not np.isfinite(value):
            raise ModelValidationError([f"bad bracket entry {entry!r}"])
        if not all(x.is_integer() and 0 <= x < d for x in index):
            raise ModelValidationError(
                [f"bracket indices must be integers in [0, {d}) in {entry!r}"]
            )
        i, j, k = map(int, index)
        for a, b, val in ((i, j, value), (j, i, -value)):
            if not np.isnan(bracket[a, b, k]) and bracket[a, b, k] != val:
                raise ModelValidationError(
                    [f"inconsistent bracket entries at ({a},{b},{k})"]
                )
            bracket[a, b, k] = val
    bracket = np.nan_to_num(bracket, nan=0.0)
    alg = FrameAlgebra(bracket=bracket, metric=metric)
    cs = ContactStructure(eta=eta, reeb=reeb, J=J, eps=eps)
    with np.errstate(all="ignore"):
        violations = alg.validate() + cs.validate(alg)
    if violations:
        raise ModelValidationError(violations)
    return alg, cs


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
