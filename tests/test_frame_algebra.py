"""Tests for frame algebras, connections, curvature, and the identity catalog."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcplab.errors import DomainError, ModelValidationError
from mcplab.frame_algebra import (
    ConnectionCoeffs,
    CurvatureData,
    _adapted_basis,
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
    assert np.allclose(_bilinear(lc.gamma, x1, cs.reeb), -0.5 * y1)
    assert np.allclose(_bilinear(lc.gamma, x1, y1), 0.5 * cs.reeb)
    assert np.allclose(_bilinear(lc.gamma, y1, x1), -0.5 * cs.reeb)
    assert np.allclose(_bilinear(lc.gamma, v0, x1), -0.5 * y1)
    assert np.allclose(_bilinear(lc.gamma, v0, cs.reeb), 0.0)
    # general eps scaling of the same entries
    alg2, cs2 = build_heisenberg_algebra(1, 2.0)
    lc2 = levi_civita(alg2)
    assert np.allclose(lc2.gamma[1, 2], np.array([1.0, 0.0, 0.0]))  # eps/2 v0
    assert np.allclose(lc2.gamma[1, 0], np.array([0.0, 0.0, -1.0]))  # -eps/2 Y1


def connection_in_scaled_frame(conn, scales):
    """Coefficients of the same connection in the rescaled frame
    e_i' = scales[i] e_i."""
    s = np.asarray(scales, dtype=float)
    return np.einsum("i,j,ijk,k->ijk", s, s, conn.gamma, 1.0 / s)


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
    from mcplab.frame_algebra import FrameAlgebra

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
                tors = _bilinear(lc.gamma, e[i], e[j]) - _bilinear(lc.gamma, e[j], e[i])
                assert np.allclose(tors, _bilinear(alg.bracket, e[i], e[j]), atol=1e-12)
                for k in range(d):
                    # metric compatibility on constant fields:
                    # 0 = <grad_i e_j, e_k> + <e_j, grad_i e_k>
                    val = alg.inner(_bilinear(lc.gamma, e[i], e[j]), e[k]) + alg.inner(
                        e[j], _bilinear(lc.gamma, e[i], e[k])
                    )
                    assert abs(val) < 1e-12


def test_tanaka_webster_heisenberg_vanishes_and_matches_lc_on_reeb():
    for eps in (0.5, 1.0, 2.0):
        alg, cs = build_heisenberg_algebra(2, eps)
        lc = levi_civita(alg)
        tw = tanaka_webster(alg, cs, lc)
        assert np.max(np.abs(tw.gamma)) < 1e-14
        v0 = np.eye(5)[0]
        assert np.allclose(
            _bilinear(tw.gamma, v0, v0), _bilinear(lc.gamma, v0, v0), atol=1e-14
        )
        x1, y1 = np.eye(5)[1], np.eye(5)[3]
        assert np.allclose(_bilinear(tw.gamma, x1, y1), 0.0, atol=1e-14)


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
    assert abs(alg2.inner(cs2.reeb, cs2.reeb) - 4.0) < 1e-14
    alg3, _ = rescale_vertical(alg2, cs2, 1.0)
    assert np.allclose(alg3.metric, alg.metric)
    with pytest.raises(DomainError):
        rescale_vertical(alg, cs, 0.0)


def test_curvature_abelian_vanishes():
    from mcplab.frame_algebra import FrameAlgebra

    alg = FrameAlgebra(bracket=np.zeros((3, 3, 3)), metric=np.eye(3))
    curv = curvature(alg, levi_civita(alg))
    assert np.max(np.abs(curv.riem)) == 0.0
    assert np.max(np.abs(curv.ricci)) == 0.0


def test_curvature_heisenberg_values():
    for eps in (1.0, 2.0):
        alg, cs = build_heisenberg_algebra(1, eps)
        lc = levi_civita(alg)
        curv = curvature(alg, lc)
        v0, x1, y1 = np.eye(3)
        # vertical-horizontal plane
        assert _sectional_like(curv.riem, v0, x1, x1, v0) == pytest.approx(eps**2 / 4)
        # horizontal plane
        assert _sectional_like(curv.riem, x1, y1, y1, x1) == pytest.approx(
            -3 * eps**2 / 4
        )
        # canonical connection is flat here
        tw_curv = curvature(alg, tanaka_webster(alg, cs, lc))
        assert np.max(np.abs(tw_curv.riem)) < 1e-14


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
            for a in range(d):
                for b in range(d):
                    brute = sum(
                        _sectional_like(curv.riem, e[v], e[a], e[b], e[v])
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
    """The same connection or curvature with 1e-3 noise on its tensors
    (the stored Ricci form is kept)."""
    def noisy(a):
        return a + 1e-3 * rng.normal(size=a.shape)

    if isinstance(arg, ConnectionCoeffs):
        return ConnectionCoeffs(gamma=noisy(arg.gamma))
    return CurvatureData(riem=noisy(arg.riem), ricci=arg.ricci,
                         operator=noisy(arg.operator))


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
        return _bilinear(lc.gamma, u, J @ w) - J @ _bilinear(lc.gamma, u, w)

    c4 = 0.25 * eps**2
    want = {
        "covJ_horizontal_via_gradient": max(
            norm(cov_j(x1, x2) - (x2 @ g @ J @ _bilinear(lc.gamma, x1, V)) / eps**2 * V)
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
    for _ in range(5):
        y, u, w = rng.normal(size=(3, alg.dim))
        M = _jacobi_operator(curv.riem, y)
        assert u @ M @ w == pytest.approx(
            _sectional_like(curv.riem, u, y, y, w), rel=1e-12
        )


def test_identity_report_ricci_comparison():
    report = verify_structure_identities(*_full_stack(1, 2.0), tol=1e-10)
    cmp = report.ricci_comparison
    # printed reading: -3 eps^2 / 4; direct trace: -eps^2 / 2 (eps = 2)
    assert cmp["printed"] == pytest.approx(-3.0)
    assert cmp["traced"] == pytest.approx(-2.0)
    assert cmp["difference"] == pytest.approx(-1.0)
    assert cmp["flagged"] is True
    # the report is serializable and carries both values
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["ricci_comparison"]["printed"] == pytest.approx(-3.0)
    assert blob["passed"] is True


def test_identity_catalog_precondition_failure():
    # an abelian algebra cannot satisfy the compatibility between d eta and
    # the metric, so the catalog must refuse to grade identities
    from mcplab.frame_algebra import ContactStructure, FrameAlgebra

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
        report = check_main_hypotheses(tw_curv, cs, samples=100, seed=3)
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


def test_main_hypotheses_match_a_per_sample_loop():
    # the sampler against _sectional_like on the same random stream, on a
    # curvature with no sign, so both minima are far from zero
    rng = np.random.default_rng(2)
    alg, cs, lc, tw, curv_lc, curv_tw = _full_stack(3, 1.0)
    curv = _perturbed(curv_tw, rng)
    report = check_main_hypotheses(curv, cs, samples=50, seed=8)
    draw = np.random.default_rng(8)
    P = cs.horizontal_projector()
    first, rest = [], []
    for _ in range(50):
        v = P @ draw.normal(size=alg.dim)
        v = v / np.sqrt(v @ v)
        basis = _adapted_basis(alg.metric, cs, v, draw)
        first.append(_sectional_like(curv.riem, basis[1], v, v, basis[1]))
        rest.append(sum(_sectional_like(curv.riem, w, v, v, w) for w in basis[2:]))
    assert report.min_sectional == pytest.approx(min(first), rel=1e-10)
    assert report.min_orthogonal_sum == pytest.approx(min(rest), rel=1e-10)
    assert not report.holds


def test_main_hypotheses_sign_against_angle_grid():
    # perturb the vertical structure constant; the canonical-connection
    # curvature picks up a sign somewhere on the circle of horizontal
    # directions, and the sampled minimum must agree with a deterministic
    # angle sweep
    alg, cs = build_heisenberg_algebra(2, 1.0)
    bracket = alg.bracket.copy()
    bracket[1, 3, 0] *= 1.1
    bracket[3, 1, 0] *= 1.1
    from mcplab.frame_algebra import FrameAlgebra

    alg2 = FrameAlgebra(bracket=bracket, metric=alg.metric)
    lc = levi_civita(alg2)
    tw_curv = curvature(alg2, tanaka_webster(alg2, cs, lc))

    angles = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False)
    d = 5
    best = np.inf
    e = np.eye(d)
    for th in angles:
        v = np.cos(th) * e[1] + np.sin(th) * e[2]
        jv = cs.J @ v
        best = min(best, _sectional_like(tw_curv.riem, jv, v, v, jv))
    report = check_main_hypotheses(tw_curv, cs, samples=4000, seed=11)
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
