"""Tests for frame algebras, connections, curvature, and the identity catalog."""

import json
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcplab import _MAX_N
from mcplab.errors import DomainError, ModelValidationError
from mcplab.frame_algebra import (
    _MAX_HYPOTHESIS_SAMPLES,
    ContactStructure,
    CurvatureData,
    FrameAlgebra,
    _jacobi_operator,
    build_heisenberg_algebra,
    check_main_hypotheses,
    curvature,
    levi_civita,
    model_from_dict,
    model_to_dict,
    rescale_vertical,
    tanaka_webster,
    verify_structure_identities,
)


def _bilinear(T, u, w):
    """sum_ij u_i w_j T[i, j, :]: [u, w] for T the structure constants,
    and the derivative of w along u for T the connection coefficients."""
    return np.einsum("i,j,ijk->k", u, w, T)


def _riem(curv, g):
    """riem[i, j, k, l] = <R(e_i, e_j) e_k, e_l>: the curvature operator
    with its last slot lowered by the metric g."""
    return np.einsum("ijkm,ml->ijkl", curv.operator, g)


def _sectional_like(riem, u, w, z, x):
    """<R(u, w) z, x> for constant-coefficient vectors."""
    return float(np.einsum("i,j,k,l,ijkl->", u, w, z, x, riem))


def _full_stack(n, eps):
    alg, cs = build_heisenberg_algebra(n, eps)
    lc = levi_civita(alg)
    tw = tanaka_webster(alg, cs, lc)
    return alg, cs, lc, tw, curvature(alg, lc), curvature(alg, tw)


def test_build_heisenberg_structure_constants():
    alg, cs = build_heisenberg_algebra(1, 1.0)
    assert alg.dim == 3
    assert np.count_nonzero(alg.bracket) == 2
    assert alg.bracket[1, 2, 0] == 1.0
    assert alg.bracket[2, 1, 0] == -1.0
    assert np.array_equal(alg.metric, np.eye(3))
    assert cs.eta[0] == 1.0 and cs.reeb[0] == 1.0

    alg2, cs2 = build_heisenberg_algebra(1, 2.0)
    assert alg2.bracket[1, 2, 0] == 2.0
    assert cs2.eta[0] == 0.5 and cs2.reeb[0] == 2.0

    alg5, _ = build_heisenberg_algebra(2, 1.0)
    assert alg5.dim == 5
    assert np.count_nonzero(alg5.bracket) == 4
    assert alg5.bracket[1, 3, 0] == 1.0 and alg5.bracket[2, 4, 0] == 1.0


def test_build_heisenberg_rejects_bad_arguments():
    with pytest.raises(DomainError):
        build_heisenberg_algebra(0, 1.0)
    with pytest.raises(DomainError):
        build_heisenberg_algebra(1, 0.0)
    with pytest.raises(DomainError):
        build_heisenberg_algebra(1, -2.0)
    for eps in (1e-51, 1e51, 1e154, np.inf, np.nan):
        with pytest.raises(DomainError):
            build_heisenberg_algebra(1, eps)


def test_eps_range_keeps_the_catalog_finite():
    # beyond the range the catalog's residual norms overflow: eps = 1e60
    # gave inf residuals and 1e154 NaN ones, each read as a failure
    for n in (1, 3):
        for eps in (1e-50, 1e50):
            report = verify_structure_identities(*_full_stack(n, eps), tol=1e-10)
            assert len(report.identities) == 27
            assert all(np.isfinite(r.residual) for r in report.identities)


def test_algebra_and_contact_validation_pass():
    for n in (1, 2, 3):
        for eps in (0.5, 1.0, 2.0):
            alg, cs = build_heisenberg_algebra(n, eps)
            assert alg.validate() == []
            assert cs.validate(alg) == []


def test_contact_validation_catches_broken_data():
    alg, cs = build_heisenberg_algebra(1, 1.0)
    bad = type(cs)(eta=2.0 * cs.eta, reeb=cs.reeb, J=cs.J, eps=cs.eps)
    assert "eta(V) != 1" in bad.validate(alg)
    bad = type(cs)(eta=cs.eta, reeb=cs.reeb, J=cs.J, eps=3.0)
    assert "|V| != eps" in bad.validate(alg)
    bad = type(cs)(eta=cs.eta, reeb=cs.reeb, J=-cs.J.T @ cs.J, eps=cs.eps)
    assert any("J^2" in v for v in bad.validate(alg))


def test_levi_civita_heisenberg_values():
    # at eps = 1: grad_X1 V = -(1/2) Y1 and grad_X1 Y1 = (1/2) V
    alg, cs = build_heisenberg_algebra(1, 1.0)
    lc = levi_civita(alg)
    v0, x1, y1 = np.eye(3)
    assert np.allclose(_bilinear(lc, x1, cs.reeb), -0.5 * y1)
    assert np.allclose(_bilinear(lc, x1, y1), 0.5 * cs.reeb)
    assert np.allclose(_bilinear(lc, y1, x1), -0.5 * cs.reeb)
    assert np.allclose(_bilinear(lc, v0, x1), -0.5 * y1)
    assert np.allclose(_bilinear(lc, v0, cs.reeb), 0.0)
    # general eps scaling of the same entries
    alg2, cs2 = build_heisenberg_algebra(1, 2.0)
    lc2 = levi_civita(alg2)
    assert np.allclose(lc2[1, 2], np.array([1.0, 0.0, 0.0]))  # eps/2 v0
    assert np.allclose(lc2[1, 0], np.array([0.0, 0.0, -1.0]))  # -eps/2 Y1


def connection_in_scaled_frame(conn, scales):
    """Coefficients of the same connection in the rescaled frame
    e_i' = scales[i] e_i."""
    s = np.asarray(scales, dtype=float)
    return np.einsum("i,j,ijk,k->ijk", s, s, conn, 1.0 / s)


def _random_two_step_algebra(rng, n_h, n_z):
    """Two-step nilpotent algebra: brackets of the first n_h generators
    land in the last n_z central directions; Jacobi holds automatically."""
    d = n_h + n_z
    c = np.zeros((d, d, d))
    for i in range(n_h):
        for j in range(i + 1, n_h):
            z = rng.normal(size=n_z)
            c[i, j, n_h:] = z
            c[j, i, n_h:] = -z
    a = rng.normal(size=(d, d))
    g = a @ a.T + d * np.eye(d)
    return FrameAlgebra(bracket=c, metric=g)


def test_levi_civita_is_metric_and_torsion_free():
    # Koszul output is the unique metric torsion-free connection; check the
    # defining equations directly on random two-step nilpotent algebras.
    rng = np.random.default_rng(7)
    for _ in range(5):
        alg = _random_two_step_algebra(rng, 4, 2)
        assert alg.validate() == []
        lc = levi_civita(alg)
        d = alg.dim
        e = np.eye(d)
        for i in range(d):
            for j in range(d):
                tors = _bilinear(lc, e[i], e[j]) - _bilinear(lc, e[j], e[i])
                assert np.allclose(tors, _bilinear(alg.bracket, e[i], e[j]), atol=1e-12)
                for k in range(d):
                    # metric compatibility on constant fields:
                    # 0 = <grad_i e_j, e_k> + <e_j, grad_i e_k>
                    val = (_bilinear(lc, e[i], e[j]) @ alg.metric @ e[k]
                           + e[j] @ alg.metric @ _bilinear(lc, e[i], e[k]))
                    assert abs(val) < 1e-12


def test_tanaka_webster_heisenberg_vanishes_and_matches_lc_on_reeb():
    for eps in (0.5, 1.0, 2.0):
        alg, cs = build_heisenberg_algebra(2, eps)
        lc = levi_civita(alg)
        tw = tanaka_webster(alg, cs, lc)
        assert np.max(np.abs(tw)) < 1e-14
        v0 = np.eye(5)[0]
        assert np.allclose(
            _bilinear(tw, v0, v0), _bilinear(lc, v0, v0), atol=1e-14
        )
        x1, y1 = np.eye(5)[1], np.eye(5)[3]
        assert np.allclose(_bilinear(tw, x1, y1), 0.0, atol=1e-14)


def test_tanaka_webster_eps_independent_across_builds():
    # coefficients agree in the frame {V, X_i, Y_i}, reached from the
    # stored frame {V/eps, X_i, Y_i} by scaling the first vector by eps
    ref = None
    for eps in (0.5, 1.0, 2.0, 4.0):
        alg, cs = build_heisenberg_algebra(2, eps)
        tw = tanaka_webster(alg, cs, levi_civita(alg))
        scales = np.ones(5)
        scales[0] = eps
        scaled = connection_in_scaled_frame(tw, scales)
        if ref is None:
            ref = scaled
        assert np.max(np.abs(scaled - ref)) < 1e-12


def test_rescale_vertical_roundtrip():
    alg, cs = build_heisenberg_algebra(1, 1.0)
    alg2, cs2 = rescale_vertical(alg, cs, 2.0)
    assert cs2.eps == 2.0
    assert alg2.validate() == [] and cs2.validate(alg2) == []
    assert abs(cs2.reeb @ alg2.metric @ cs2.reeb - 4.0) < 1e-14
    alg3, _ = rescale_vertical(alg2, cs2, 1.0)
    assert np.allclose(alg3.metric, alg.metric)
    with pytest.raises(DomainError):
        rescale_vertical(alg, cs, 0.0)


def test_curvature_abelian_vanishes():
    alg = FrameAlgebra(bracket=np.zeros((3, 3, 3)), metric=np.eye(3))
    curv = curvature(alg, levi_civita(alg))
    assert np.max(np.abs(curv.operator)) == 0.0
    assert np.max(np.abs(curv.ricci)) == 0.0


def test_curvature_heisenberg_values():
    for eps in (1.0, 2.0):
        alg, cs = build_heisenberg_algebra(1, eps)
        lc = levi_civita(alg)
        riem = _riem(curvature(alg, lc), alg.metric)
        v0, x1, y1 = np.eye(3)
        # vertical-horizontal plane
        assert _sectional_like(riem, v0, x1, x1, v0) == pytest.approx(eps**2 / 4)
        # horizontal plane
        assert _sectional_like(riem, x1, y1, y1, x1) == pytest.approx(-3 * eps**2 / 4)
        # canonical connection is flat here
        tw_curv = curvature(alg, tanaka_webster(alg, cs, lc))
        assert np.max(np.abs(tw_curv.operator)) < 1e-14


def test_ricci_values_and_blowup():
    # ric(v0, v0) = n eps^2 / 2; horizontal ricci decreases without bound in eps
    for n in (1, 2):
        for eps in (0.5, 1.0, 2.0):
            alg, _ = build_heisenberg_algebra(n, eps)
            curv = curvature(alg, levi_civita(alg))
            d = 2 * n + 1
            v0 = np.eye(d)[0]
            assert float(v0 @ curv.ricci @ v0) == pytest.approx(n * eps**2 / 2)
            # brute-force trace cross-check
            e = np.eye(d)
            riem = _riem(curv, alg.metric)
            for a in range(d):
                for b in range(d):
                    brute = sum(
                        _sectional_like(riem, e[v], e[a], e[b], e[v])
                        for v in range(d)
                    )
                    assert curv.ricci[a, b] == pytest.approx(brute, abs=1e-12)
    vals = []
    for eps in (1.0, 2.0, 4.0):
        alg, _ = build_heisenberg_algebra(1, eps)
        curv = curvature(alg, levi_civita(alg))
        x1 = np.eye(3)[1]
        ric_h = float(x1 @ curv.ricci @ x1)
        assert ric_h <= -(eps**2) / 4
        vals.append(ric_h)
    assert vals[0] > vals[1] > vals[2]


def test_identity_catalog_passes_for_model_structures():
    for n in (1, 2):
        for eps in (1.0, 0.5):
            report = verify_structure_identities(*_full_stack(n, eps), tol=1e-10)
            assert report.precondition_failures == []
            failed = [r.name for r in report.failed_identities()]
            assert failed == []
            assert report.passed
            assert len(report.identities) >= 20
            worst = max(r.residual for r in report.identities)
            assert worst <= 1e-10


_IDENTITY_NAMES = [
    "eta_from_metric", "reeb_lie_J", "reeb_lie_metric", "reeb_gradient",
    "reeb_gradient_skew", "reeb_autoparallel", "covJ_horizontal",
    "covJ_horizontal_via_gradient", "covJ_vertical_slot", "covJ_along_reeb",
    "covJ_along_reeb_mixed", "covJ_reeb_reeb", "eta_derivative_pairing",
    "horizontal_derivative_split", "derivative_along_reeb",
    "horizontal_derivative_eps_independent",
    "canonical_connection_eps_independent", "integrability",
    "curvature_reeb_slot", "canonical_vs_metric_horizontal",
    "canonical_curvature_reeb_slot", "canonical_vs_metric_mixed",
    "canonical_mixed_horizontal_part", "sectional_mixed_row",
    "sectional_vertical", "sectional_horizontal_block", "ricci_matches_trace",
]
# The identities that read each of lc, tw, curv_lc and curv_tw (positions
# 2-5 of the catalog's arguments).
_READERS = {
    2: {"reeb_gradient", "reeb_gradient_skew", "reeb_autoparallel",
        "covJ_horizontal", "covJ_horizontal_via_gradient", "covJ_vertical_slot",
        "covJ_along_reeb", "covJ_along_reeb_mixed", "covJ_reeb_reeb",
        "eta_derivative_pairing", "horizontal_derivative_split",
        "derivative_along_reeb", "horizontal_derivative_eps_independent"},
    3: {"canonical_connection_eps_independent"},
    4: {"curvature_reeb_slot", "canonical_vs_metric_horizontal",
        "canonical_vs_metric_mixed", "sectional_mixed_row", "sectional_vertical",
        "sectional_horizontal_block", "ricci_matches_trace"},
    5: {"canonical_vs_metric_horizontal", "canonical_curvature_reeb_slot",
        "canonical_vs_metric_mixed", "canonical_mixed_horizontal_part",
        "sectional_horizontal_block"},
}


def _perturbed(arg, rng):
    """The same connection coefficients, or curvature, with 1e-3 noise on
    the array, or on the operator (the stored Ricci form is kept)."""
    if isinstance(arg, np.ndarray):
        return arg + 1e-3 * rng.normal(size=arg.shape)
    return CurvatureData(operator=_perturbed(arg.operator, rng), ricci=arg.ricci)


def test_identity_catalog_detects_each_perturbed_argument():
    # every identity that reads an argument fails when only that argument
    # is perturbed, and every other identity still passes
    rng = np.random.default_rng(5)
    for n, eps in ((1, 0.5), (2, 2.0), (3, 1.0)):
        stack = _full_stack(n, eps)
        report = verify_structure_identities(*stack, tol=1e-10)
        assert [r.name for r in report.identities] == _IDENTITY_NAMES
        assert report.passed
        for k, readers in _READERS.items():
            args = list(stack)
            args[k] = _perturbed(args[k], rng)
            report = verify_structure_identities(*args, tol=1e-10)
            large = {r.name for r in report.identities if r.residual > 1e-6}
            assert large == readers, (n, eps, k)
            assert {r.name for r in report.failed_identities()} == readers


def test_catalog_matches_per_vector_loops():
    # the stacked catalog against loops over the same vectors, on perturbed
    # inputs whose residuals are far above round-off
    rng = np.random.default_rng(9)
    alg, cs, lc, tw, curv_lc, curv_tw = _full_stack(2, 1.5)
    lc, curv_lc, curv_tw = (_perturbed(a, rng) for a in (lc, curv_lc, curv_tw))
    report = verify_structure_identities(alg, cs, lc, tw, curv_lc, curv_tw)
    got = {r.name: r.residual for r in report.identities}

    d, g, J, V, eps = alg.dim, alg.metric, cs.J, cs.reeb, cs.eps
    Rm, Rt = curv_lc.operator, curv_tw.operator
    P = cs.horizontal_projector()
    ys = list(np.eye(d)) + list(np.random.default_rng(0).normal(size=(3, d)))
    xs = [P @ y for y in ys]

    def norm(v):
        return np.sqrt(v @ g @ v)

    def rop(R, u, w, z):
        return np.einsum("i,j,k,ijkm->m", u, w, z, R)

    def cov_j(u, w):
        return _bilinear(lc, u, J @ w) - J @ _bilinear(lc, u, w)

    c4 = 0.25 * eps**2
    want = {
        "covJ_horizontal_via_gradient": max(
            norm(cov_j(x1, x2) - (x2 @ g @ J @ _bilinear(lc, x1, V)) / eps**2 * V)
            for x1 in xs for x2 in xs),
        "curvature_reeb_slot": max(
            norm(rop(Rm, y1, y2, V) - c4 * (y2 @ g @ V) * (P @ y1)
                 + c4 * (y1 @ g @ V) * (P @ y2))
            for y1 in ys for y2 in ys),
        "canonical_vs_metric_horizontal": max(
            norm(rop(Rt, x2, x3, x1) - rop(Rm, x2, x3, x1)
                 - c4 * (J @ x3 @ g @ x1) * (J @ x2)
                 + c4 * (J @ x2 @ g @ x1) * (J @ x3)
                 + 2 * c4 * (J @ x2 @ g @ x3) * (J @ x1))
            for x2 in xs for x3 in xs for x1 in xs[: d + 1]),
        "canonical_vs_metric_mixed": max(
            norm(rop(Rt, x1, V, x2) - rop(Rm, x1, V, x2) - c4 * (x1 @ g @ x2) * V)
            for x1 in xs for x2 in xs),
    }
    for name, value in want.items():
        assert value > 1e-6
        assert got[name] == pytest.approx(value, rel=1e-9), name


def test_jacobi_operator_matches_sectional_like():
    rng = np.random.default_rng(4)
    alg, cs, lc, tw, curv_lc, curv_tw = _full_stack(3, 0.7)
    curv = _perturbed(curv_lc, rng)
    riem = _riem(curv, alg.metric)
    for _ in range(5):
        y, u, w = rng.normal(size=(3, alg.dim))
        M = _jacobi_operator(curv.operator, alg.metric, y)
        assert u @ M @ w == pytest.approx(_sectional_like(riem, u, y, y, w), rel=1e-12)


def test_identity_report_ricci_comparison():
    # the two readings of the Ricci consequence at a unit horizontal y:
    # the printed n <y,V>^2 / 2 - 3 eps^2 |y_H|^2 / 4 + ric_tw(y, y) is
    # -3 eps^2 / 4, the direct trace ric_lc(y, y) is -eps^2 / 2 (eps = 2)
    stack = _full_stack(1, 2.0)
    alg, cs, lc, tw, curv_lc, curv_tw = stack
    y = np.array([0.0, 1.0, 0.0])
    yv = y @ alg.metric @ cs.reeb
    printed = 0.5 * yv * yv - 0.75 * cs.eps**2 + y @ curv_tw.ricci @ y
    traced = y @ curv_lc.ricci @ y
    assert printed == pytest.approx(-3.0)
    assert traced == pytest.approx(-2.0)
    assert printed - traced == pytest.approx(-1.0)
    # the catalog grades the trace; the report is serializable
    report = verify_structure_identities(*stack, tol=1e-10)
    assert "ricci_matches_trace" in {r.name for r in report.identities}
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["passed"] is True


def test_identity_catalog_precondition_failure():
    # an abelian algebra cannot satisfy the compatibility between d eta and
    # the metric, so the catalog must refuse to grade identities
    alg = FrameAlgebra(bracket=np.zeros((3, 3, 3)), metric=np.eye(3))
    _, cs = build_heisenberg_algebra(1, 1.0)
    cs = ContactStructure(eta=cs.eta, reeb=cs.reeb, J=cs.J, eps=1.0)
    lc = levi_civita(alg)
    tw = tanaka_webster(alg, cs, lc)
    report = verify_structure_identities(
        alg, cs, lc, tw, curvature(alg, lc), curvature(alg, tw)
    )
    assert report.precondition_failures != []
    assert report.identities == []
    assert not report.passed


def test_identity_catalog_rejects_mismatched_shapes():
    alg, cs, lc, tw, c1, c2 = _full_stack(1, 1.0)
    _, _, _, tw5, _, _ = _full_stack(2, 1.0)
    with pytest.raises(DomainError):
        verify_structure_identities(alg, cs, lc, tw5, c1, c2)


def test_main_hypotheses_hold_for_model():
    for n in (1, 2, 3):
        alg, cs = build_heisenberg_algebra(n, 1.0)
        lc = levi_civita(alg)
        tw_curv = curvature(alg, tanaka_webster(alg, cs, lc))
        report = check_main_hypotheses(tw_curv, cs, alg.metric, samples=100, seed=3)
        assert report.holds
        assert abs(report.min_sectional) < 1e-12
        assert report.orthogonal_vacuous == (n == 1)
        if n == 1:
            assert report.min_orthogonal_sum == 0.0
        else:
            assert abs(report.min_orthogonal_sum) < 1e-12
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["holds"] is True
        assert blob["samples"] == 100


def test_main_hypotheses_reject_a_negative_seed_and_too_many_samples():
    # both before any draw: the sampler draws all its directions at once,
    # then loops in Python, about 10 us per sample at n = 1
    alg, cs = build_heisenberg_algebra(1, 1.0)
    tw_curv = curvature(alg, tanaka_webster(alg, cs, levi_civita(alg)))
    with pytest.raises(DomainError, match="seed"):
        check_main_hypotheses(tw_curv, cs, alg.metric, samples=10, seed=-1)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="samples"):
        check_main_hypotheses(
            tw_curv, cs, alg.metric, samples=_MAX_HYPOTHESIS_SAMPLES + 1
        )
    assert time.perf_counter() - start < 0.1


def _gram_schmidt_completion(g, cs, v):
    """Rows of a g-orthonormal basis of ker eta that starts with the unit
    horizontal v and Jv: Gram-Schmidt on the horizontal parts of the frame
    vectors, the longest remainder first, each projected twice."""
    basis = np.array([v, cs.J @ v])
    W = cs.horizontal_projector().T
    while len(basis) < len(g) - 1:
        for _ in range(2):
            W = W - (W @ g @ basis.T) @ basis
        norms = np.sqrt(np.einsum("ij,ij->i", W @ g, W))
        k = np.argmax(norms)
        basis = np.vstack([basis, W[k] / norms[k]])
    return basis


def _looped_minima(curv, cs, g, samples, seed):
    """The two hypotheses' minima from _sectional_like in a completed
    basis of each of the sampler's directions (the same draws)."""
    P = cs.horizontal_projector()
    riem = _riem(curv, g)
    first, rest = [], []
    for v in np.random.default_rng(seed).normal(size=(samples, len(g))) @ P.T:
        v = v / np.sqrt(v @ g @ v)
        basis = _gram_schmidt_completion(g, cs, v)
        first.append(_sectional_like(riem, basis[1], v, v, basis[1]))
        rest.append(sum(_sectional_like(riem, w, v, v, w) for w in basis[2:]))
    return min(first), min(rest)


def test_main_hypotheses_match_a_per_sample_loop():
    # the sampler's trace against a sum over a completed basis, on a
    # curvature with no sign, so both minima are far from zero
    rng = np.random.default_rng(2)
    alg, cs, lc, tw, curv_lc, curv_tw = _full_stack(3, 1.0)
    curv = _perturbed(curv_tw, rng)
    report = check_main_hypotheses(curv, cs, alg.metric, samples=50, seed=8)
    first, rest = _looped_minima(curv, cs, alg.metric, 50, 8)
    assert report.min_sectional == pytest.approx(first, rel=1e-10)
    assert report.min_orthogonal_sum == pytest.approx(rest, rel=1e-10)
    assert not report.holds


def _in_frame(alg, cs, A):
    """The same model in the frame e'_i = sum_j A[i, j] e_j."""
    inv = np.linalg.inv(A)
    bracket = np.einsum("ia,jb,abk,km->ijm", A, A, alg.bracket, inv)
    return FrameAlgebra(bracket=bracket, metric=A @ alg.metric @ A.T), ContactStructure(
        eta=A @ cs.eta, reeb=inv.T @ cs.reeb, J=inv.T @ cs.J @ A.T, eps=cs.eps
    )


def _assert_lowered_forms(curv, g, ys):
    """The stored Ricci form and _jacobi_operator against the lowered
    tensor riem = op g: ricci[a, b] = g^{vw} riem[v, a, b, w], and
    M[i, l] = riem[i, j, k, l] y_j y_k, each to 1e-13 relative."""
    riem = _riem(curv, g)
    ricci = np.einsum("vw,vabw->ab", np.linalg.inv(g), riem)
    assert np.max(np.abs(curv.ricci - ricci)) <= 1e-13 * np.max(np.abs(ricci))
    for y in ys:
        M = np.einsum("j,k,ijkl->il", y, y, riem)
        got = _jacobi_operator(curv.operator, g, y)
        assert np.max(np.abs(got - M)) <= 1e-13 * np.max(np.abs(M))


def test_catalog_and_hypotheses_in_a_frame_that_is_not_orthonormal():
    # the model group in a random frame: a metric other than g = I, a Reeb
    # field off the frame and dense brackets
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        d = 2 * n + 1
        A = np.eye(d) + 0.3 * rng.normal(size=(d, d))
        alg, cs = _in_frame(*build_heisenberg_algebra(n, 1.3), A)
        assert np.max(np.abs(alg.metric - np.eye(d))) > 0.1
        lc = levi_civita(alg)
        tw = tanaka_webster(alg, cs, lc)
        curv_lc = curvature(alg, lc)
        report = verify_structure_identities(
            alg, cs, lc, tw, curv_lc, curvature(alg, tw), tol=1e-10
        )
        assert report.passed, report.failed_identities()
        # one bracket entry off by 10 %: a canonical curvature with no sign
        bracket = alg.bracket.copy()
        bracket[1, 2, 0] *= 1.1
        bracket[2, 1, 0] *= 1.1
        alg2 = FrameAlgebra(bracket=bracket, metric=alg.metric)
        curv = curvature(alg2, tanaka_webster(alg2, cs, levi_civita(alg2)))
        # directions of their own generator, so the frames stay those above
        ys = np.random.default_rng(100 + n).normal(size=(3, d))
        for c in (curv_lc, curv):
            _assert_lowered_forms(c, alg.metric, ys)
        hyp = check_main_hypotheses(curv, cs, alg.metric, samples=50, seed=n)
        first, rest = _looped_minima(curv, cs, alg.metric, 50, n)
        assert abs(first) > 1e-3
        assert hyp.min_sectional == pytest.approx(first, rel=1e-10)
        if n > 1:
            assert abs(rest) > 1e-4
            assert hyp.min_orthogonal_sum == pytest.approx(rest, rel=1e-10)


def test_main_hypotheses_sign_against_angle_grid():
    # perturb the vertical structure constant; the canonical-connection
    # curvature picks up a sign somewhere on the circle of horizontal
    # directions, and the sampled minimum must agree with a deterministic
    # angle sweep
    alg, cs = build_heisenberg_algebra(2, 1.0)
    bracket = alg.bracket.copy()
    bracket[1, 3, 0] *= 1.1
    bracket[3, 1, 0] *= 1.1
    alg2 = FrameAlgebra(bracket=bracket, metric=alg.metric)
    lc = levi_civita(alg2)
    tw_curv = curvature(alg2, tanaka_webster(alg2, cs, lc))

    angles = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False)
    d = 5
    best = np.inf
    e = np.eye(d)
    riem = _riem(tw_curv, alg2.metric)
    for th in angles:
        v = np.cos(th) * e[1] + np.sin(th) * e[2]
        jv = cs.J @ v
        best = min(best, _sectional_like(riem, jv, v, v, jv))
    report = check_main_hypotheses(tw_curv, cs, alg2.metric, samples=4000, seed=11)
    assert report.min_sectional >= best - 1e-12
    assert report.min_sectional <= best + 0.05 * abs(best) + 1e-9
    if best < -1e-9:
        assert not report.holds


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), eps=st.floats(1e-6, 1e6))
def test_model_dict_roundtrip_property(n, eps):
    alg, cs = build_heisenberg_algebra(n, eps)
    alg2, cs2 = model_from_dict(json.loads(json.dumps(model_to_dict(alg, cs))))
    np.testing.assert_array_equal(alg2.bracket, alg.bracket)
    np.testing.assert_array_equal(alg2.metric, alg.metric)
    for name in ("J", "eta", "reeb"):
        np.testing.assert_array_equal(getattr(cs2, name), getattr(cs, name))
    assert cs2.eps == cs.eps


def test_model_json_roundtrip_and_validation():
    alg, cs = build_heisenberg_algebra(2, 2.0)
    blob = model_to_dict(alg, cs)
    text = json.dumps(blob)
    alg2, cs2 = model_from_dict(json.loads(text))
    assert np.allclose(alg2.bracket, alg.bracket)
    assert np.allclose(alg2.metric, alg.metric)
    assert np.allclose(cs2.J, cs.J)
    assert cs2.eps == cs.eps

    bad = dict(blob)
    bad["eps"] = 3.0
    with pytest.raises(ModelValidationError) as err:
        model_from_dict(bad)
    assert any("|V|" in v for v in err.value.violations)

    with pytest.raises(ModelValidationError):
        model_from_dict({"dim": 3})

    bad = dict(blob)
    bad["bracket"] = blob["bracket"] + [[3, 1, 0, 5.0]]
    with pytest.raises(ModelValidationError) as err:
        model_from_dict(bad)
    assert any("inconsistent" in v for v in err.value.violations)

    bad = dict(blob)
    bad["bracket"] = [[0, 1, 99, 1.0]]
    with pytest.raises(ModelValidationError):
        model_from_dict(bad)


def test_curvature_suite_memory_at_the_n_cap():
    # a curvature is one (2n+1)^4-entry tensor, 2.8 million entries
    # (22 MiB) at n = 20: a lowered copy of each would take the suite's
    # traced peak from 103 to 146 MiB
    alg, cs = build_heisenberg_algebra(_MAX_N, 1.0)
    tracemalloc.start()
    try:
        lc = levi_civita(alg)
        tw = tanaka_webster(alg, cs, lc)
        curv_lc, curv_tw = curvature(alg, lc), curvature(alg, tw)
        assert verify_structure_identities(alg, cs, lc, tw, curv_lc, curv_tw).passed
        assert check_main_hypotheses(curv_tw, cs, alg.metric, samples=50).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 120 * 2**20
    d4 = alg.dim**4
    for curv in (curv_lc, curv_tw):
        sizes = {f.name: getattr(curv, f.name).size for f in fields(CurvatureData)}
        assert [name for name, size in sizes.items() if size == d4] == ["operator"]
        assert sum(sizes.values()) < d4 + alg.dim**3


def test_curvature_past_float_range_raises_domain_error():
    # a model that passes its checks but whose curvature overflows to NaN:
    # neither the catalog nor the hypothesis sampler reads a verdict off it
    data = model_to_dict(*build_heisenberg_algebra(1, 1.0))
    data["bracket"].append([0, 1, 2, 1e308])
    alg, cs = model_from_dict(data)
    lc = levi_civita(alg)
    tw = tanaka_webster(alg, cs, lc)
    curv_lc, curv_tw = curvature(alg, lc), curvature(alg, tw)
    assert not np.all(np.isfinite(curv_tw.operator))
    with pytest.raises(DomainError, match="not finite"):
        verify_structure_identities(alg, cs, lc, tw, curv_lc, curv_tw)
    with pytest.raises(DomainError, match="not finite"):
        check_main_hypotheses(curv_tw, cs, alg.metric, samples=10)
