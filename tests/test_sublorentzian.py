"""Normal/abnormal extremals, the minimum-principle integrator, causal structure."""

import io
import math

import numpy as np
import pytest

from sublorentz import (
    AlgCoords,
    CausalReport,
    ComplexAlgVec,
    CovectorState,
    Mat2C,
    NotInGLPlusError,
    PathSample,
    REGIME_ISOTROPIC,
    REGIME_TIMELIKE,
    SRGeodesicParams,
    UnreachableTargetError,
    abnormal_extremal,
    basis_matrix,
    canonical_reduce,
    causal_classify,
    causal_relation,
    covector_rhs,
    exp_closed,
    extremal_path,
    longest_arc,
    nonstrict_abnormal_check,
    normal_extremal,
    normal_extremal_reduced,
    pontryagin_integrate,
    sr_geodesic,
    su2_conjugate,
    su2_exp,
    to_coords,
)
from sublorentz.sublorentzian import ExtremalParams


def boost_target(xi, eta, direction=(1.0, 0.0, 0.0)):
    d = np.asarray(direction, float)
    d = d / np.linalg.norm(d)
    b = exp_closed(ComplexAlgVec.from_reals([0.0, *(eta * d)]), 1.0)
    return Mat2C(math.exp(xi / 2.0) * b.m)


class TestNormalExtremal:
    def test_scalar_ray(self):
        p = ExtremalParams.timelike([0, 0, 0], [0, 0, 0])
        for t in (0.0, 1.0, -2.5):
            assert normal_extremal(p, t).distance(
                Mat2C(math.exp(t / 2.0) * np.eye(2))
            ) < 1e-14

    def test_isotropic_subgroup(self):
        p = ExtremalParams.isotropic([1, 0, 0], [0, 0, 0])
        for t in (0.5, 2.0):
            want = Mat2C(
                math.exp(t / 2.0) * exp_closed(ComplexAlgVec.from_reals([0, 1, 0, 0]), t).m
            )
            assert normal_extremal(p, t).distance(want) < 1e-13

    def test_time_zero(self):
        p = ExtremalParams.timelike([0.3, -0.4, 0.1], [1.0, 0.0, -2.0])
        assert normal_extremal(p, 0.0).distance(Mat2C.identity()) == 0.0

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            ExtremalParams(np.array([1.0, 1, 0, 0, 0, 0, 0]), REGIME_TIMELIKE)
        with pytest.raises(ValueError):
            ExtremalParams(np.array([1.0, 0.5, 0, 0, 0, 0, 0]), REGIME_ISOTROPIC)
        with pytest.raises(ValueError):
            ExtremalParams(np.zeros(7), "euclidean")

    def test_determinant_law(self):
        rng = np.random.default_rng(111)
        for _ in range(100):
            p = ExtremalParams.timelike(rng.uniform(-1, 1, 3), rng.uniform(-1.5, 1.5, 3))
            t = rng.uniform(-2.5, 2.5)
            d = normal_extremal(p, t).det()
            assert abs(d - math.exp(p.alpha[0] * t)) < 1e-11 * max(1.0, abs(d))

    def test_collinear_collapses_to_subgroup(self):
        av = np.array([0.3, -0.4, 0.5])
        p = ExtremalParams.timelike(av, -1.3 * av)
        for t in np.linspace(-2, 2, 9):
            want = exp_closed(ComplexAlgVec.from_reals([p.alpha[0], *av]), t)
            assert normal_extremal(p, t).distance(want) < 1e-11

    def test_arclength_and_horizontality(self):
        h = 1e-6
        for p, want_sq in (
            (ExtremalParams.timelike([0.4, -0.2, 0.6], [0.5, 0.1, -0.7]), 1.0),
            (ExtremalParams.isotropic([0.6, 0.8, 0.0], [0.5, 0.1, -0.7]), 0.0),
        ):
            for t in (0.3, 1.4):
                g = normal_extremal(p, t)
                dg = (normal_extremal(p, t + h).m - normal_extremal(p, t - h).m) / (2 * h)
                u = to_coords(Mat2C(g.inverse().m @ dg))
                assert np.max(np.abs(u.u[4:])) < 1e-5  # horizontal
                assert np.max(np.abs(u.u - p.product_params().control(t).u)) < 1e-5
                q = u.u[0] ** 2 - float(np.dot(u.u[1:4], u.u[1:4]))
                assert abs(q - want_sq) < 1e-5
                assert u.u[0] > 0  # future directed

    def test_reduced_agreement(self):
        rng = np.random.default_rng(112)
        worst = 0.0
        for _ in range(200):
            a1 = rng.uniform(0.1, 1.5)
            bv = rng.uniform(-1.5, 1.5, 3)
            if rng.random() < 0.5:
                p = ExtremalParams.timelike([a1, 0, 0], bv)
            else:
                a1 = 1.0
                p = ExtremalParams.isotropic([1, 0, 0], bv)
            t = rng.uniform(-2.5, 2.5)
            got = normal_extremal_reduced(a1, bv, p.alpha[0], t)
            worst = max(worst, got.distance(normal_extremal(p, t)))
        assert worst < 1e-12

    def test_reduced_collinear_is_subgroup(self):
        got = normal_extremal_reduced(1.0, [0, 0, 0], math.sqrt(2.0), 1.2)
        want = exp_closed(ComplexAlgVec.from_reals([math.sqrt(2.0), 1, 0, 0]), 1.2)
        assert got.distance(want) < 1e-14


class TestPontryagin:
    def test_scalar_ray(self):
        path = pontryagin_integrate(
            np.array([1.0, 0, 0, 0, 0, 0, 0]), REGIME_TIMELIKE, 2.0, 500
        )
        assert path.points[-1].distance(Mat2C(math.e * np.eye(2))) < 1e-10

    def test_matches_closed_form(self):
        psi0 = np.array([math.sqrt(2.0), -1.0, 0, 0, 0, 0, 0])
        path = pontryagin_integrate(psi0, REGIME_TIMELIKE, 3.0, 3000, record_every=300)
        p = ExtremalParams.timelike([1, 0, 0], [0, 0, 0])
        assert path.points[-1].distance(normal_extremal(p, 3.0)) < 1e-9

    def test_matches_closed_form_with_rotation(self):
        p = ExtremalParams.timelike([0.4, -0.2, 0.6], [0.5, 0.1, -0.7])
        psi0 = np.concatenate([[p.alpha[0]], -p.alpha[1:]])
        path = pontryagin_integrate(psi0, REGIME_TIMELIKE, 4.0, 4000, record_every=400)
        assert path.points[-1].distance(normal_extremal(p, 4.0)) < 1e-9

    def test_isotropic_regime(self):
        p = ExtremalParams.isotropic([0.6, 0.8, 0.0], [-0.3, 0.2, 0.9])
        psi0 = np.concatenate([[1.0], -p.alpha[1:]])
        path = pontryagin_integrate(psi0, REGIME_ISOTROPIC, 3.0, 3000, record_every=300)
        assert path.points[-1].distance(normal_extremal(p, 3.0)) < 1e-9

    def test_conservation(self):
        p = ExtremalParams.timelike([0.4, -0.2, 0.6], [0.5, 0.1, -0.7])
        psi0 = np.concatenate([[p.alpha[0]], -p.alpha[1:]])
        path = pontryagin_integrate(psi0, REGIME_TIMELIKE, 5.0, 5000, record_every=100)
        for cov in path.covectors:
            m = cov.psi[0] ** 2 - float(np.dot(cov.psi[1:4], cov.psi[1:4]))
            assert abs(m - 1.0) < 1e-9

    def test_covectors_match_closed_form(self):
        p = ExtremalParams.timelike([0.4, -0.2, 0.6], [0.5, 0.1, -0.7])
        psi0 = np.concatenate([[p.alpha[0]], -p.alpha[1:]])
        steps = 2000
        path = pontryagin_integrate(psi0, REGIME_TIMELIKE, 2.0, steps, record_every=500)
        closed = extremal_path(p, path.times)
        for got, want in zip(path.covectors, closed.covectors):
            assert np.max(np.abs(got.psi - want.psi)) < 1e-9

    def test_regime_preconditions(self):
        with pytest.raises(ValueError):
            pontryagin_integrate(np.array([1.0, 1, 0, 0, 0, 0, 0]), REGIME_TIMELIKE, 1.0, 10)
        with pytest.raises(ValueError):
            pontryagin_integrate(np.array([2.0, -1, 0, 0, 0, 0, 0]), REGIME_ISOTROPIC, 1.0, 10)

    @pytest.mark.parametrize(
        "psi0, regime",
        [
            ([1e155, 1e155, 0, 0, 0, 0, 0], REGIME_TIMELIKE),
            ([math.nan, 0, 0, 0, 0, 0, 0], REGIME_TIMELIKE),
            ([math.nan, 1, 0, 0, 0, 0, 0], REGIME_ISOTROPIC),
            ([1, math.nan, 0, 0, 0, 0, 0], REGIME_ISOTROPIC),
        ],
        ids=["timelike-overflow", "timelike-nan", "isotropic-nan-psi0", "isotropic-nan-psi1"],
    )
    def test_regime_preconditions_non_finite(self, psi0, regime):
        with pytest.raises(ValueError, match="regime requires"):
            pontryagin_integrate(np.array(psi0, dtype=float), regime, 1.0, 10)


class TestCausalClassify:
    def test_scalar_ray_timelike(self):
        report = causal_classify(Mat2C(math.e * np.eye(2)))
        assert report.causal_class == "timelike"
        assert abs(report.xi - 2.0) < 1e-14
        assert abs(report.distance - 2.0) < 1e-12

    def test_isotropic_boundary(self):
        report = causal_classify(boost_target(1.0, 1.0))
        assert report.causal_class == "isotropic"
        assert report.distance == 0.0
        assert report.eta_exact

    def test_unreachable_boost(self):
        report = causal_classify(boost_target(0.0, 1.0))
        assert report.causal_class == "unreachable"
        assert report.distance is None
        assert report.to_json()["distance"] == "-inf"

    def test_identity(self):
        report = causal_classify(Mat2C.identity())
        assert report.causal_class == "identity"
        assert report.distance == 0.0

    def test_timelike_distance_formula(self):
        report = causal_classify(boost_target(2.0, 1.0))
        assert report.causal_class == "timelike"
        assert abs(report.distance - math.sqrt(3.0)) < 1e-10
        assert abs(report.xi - report.distance * math.cosh(report.c_param)) < 1e-10

    def test_rejects_non_group_elements(self):
        with pytest.raises(NotInGLPlusError):
            causal_classify(Mat2C(np.diag([1.0, -1.0])))
        with pytest.raises(NotInGLPlusError):
            causal_classify(Mat2C(np.diag([1.0, 1j])))

    def test_indeterminate_inside_bracket(self):
        from sublorentz import distance_shoot

        p = SRGeodesicParams(np.array([0.6, 0.8, 0.0]), np.array([0.3, -0.4, 1.1]))
        g1 = sr_geodesic(p, 0.8)
        br = distance_shoot(g1, seed=5)
        assert br.upper - br.lower > 2e-7  # the bracket is genuinely inexact here
        xi = 0.5 * (br.lower + br.upper)
        report = causal_classify(Mat2C(math.exp(xi / 2.0) * g1.m), seed=5)
        assert report.causal_class == "indeterminate"
        assert report.distance is None
        assert report.to_json()["distance"] is None

    def test_timelike_through_shooting(self):
        p = SRGeodesicParams(np.array([0.6, 0.8, 0.0]), np.array([0.3, -0.4, 1.1]))
        g1 = sr_geodesic(p, 0.8)
        report = causal_classify(Mat2C(math.exp(1.5 / 2.0) * g1.m), seed=5)
        assert report.causal_class == "timelike"
        assert report.distance is not None
        assert not report.eta_exact

    def test_unitary_target_flagged_extrapolated(self):
        g1 = su2_exp([0.0, 0.0, 1.4])
        report = causal_classify(Mat2C(math.exp(0.05) * g1.m), tol=1e-7, budget=70)
        assert report.extrapolated
        assert report.causal_class in ("indeterminate", "unreachable")

    def test_report_json_roundtrip(self):
        p = SRGeodesicParams(np.array([0.6, 0.8, 0.0]), np.array([0.3, -0.4, 1.1]))
        cases = [(g, {}) for g in (boost_target(2.0, 1.0), boost_target(0.0, 1.0),
                                   Mat2C.identity())]
        cases.append((Mat2C(math.exp(1.5 / 2.0) * sr_geodesic(p, 0.8).m), {"seed": 5}))
        cases.append((Mat2C(math.exp(0.05) * su2_exp([0.0, 0.0, 1.4]).m), {"budget": 70}))
        reports = []
        for g, kwargs in cases:
            report = causal_classify(g, **kwargs)
            back = CausalReport.from_json(report.to_json())
            assert back.causal_class == report.causal_class
            assert back.distance == report.distance
            assert back.xi == report.xi
            assert (back.eta_exact, back.extrapolated) == (report.eta_exact, report.extrapolated)
            reports.append(report)
        assert reports[0].eta_exact and not reports[3].eta_exact and reports[4].extrapolated


class TestLongestArc:
    def test_scalar_ray_path(self):
        g = Mat2C(math.e * np.eye(2))
        path = longest_arc(g, samples=41)
        assert path.points[0].distance(Mat2C.identity()) == 0.0
        assert path.points[-1].distance(g) < 1e-9
        assert abs(path.times[-1] - 2.0) < 1e-12
        for t, pt in zip(path.times, path.points):
            assert pt.distance(Mat2C(math.exp(t / 2.0) * np.eye(2))) < 1e-9

    def test_mixed_target(self):
        g = boost_target(2.0, 1.0)
        path = longest_arc(g, samples=51)
        assert abs(path.times[-1] - math.sqrt(3.0)) < 1e-9
        assert path.points[-1].distance(g) < 1e-6
        # controls are unit timelike everywhere
        for u in path.controls:
            q = u.u[0] ** 2 - float(np.dot(u.u[1:4], u.u[1:4]))
            assert abs(q - 1.0) < 1e-9

    def test_isotropic_target(self):
        g = boost_target(1.0, 1.0)
        path = longest_arc(g, samples=51)
        assert abs(path.times[-1] - 1.0) < 1e-12
        assert path.points[-1].distance(g) < 1e-6

    def test_identity_target(self):
        path = longest_arc(Mat2C.identity())
        assert len(path.times) == 1 and path.times[0] == 0.0

    @pytest.mark.parametrize("kind", ["boost", "geodesic"])
    def test_large_determinant_target(self, kind):
        # det g = e^60: the arc is exact to rounding relative to |g|, so the
        # endpoint check works in the unimodular frame, not on the absolute gap.
        if kind == "boost":
            g1 = boost_target(0.0, 1.0)
        else:
            p = SRGeodesicParams(np.array([0.6, 0.8, 0.0]), np.array([0.3, -0.5, 1.1]))
            g1 = sr_geodesic(p, 1.3)
        g = Mat2C(math.exp(30.0) * g1.m)
        path = longest_arc(g, samples=11)
        assert path.points[-1].distance(g) * math.exp(-30.0) < 1e-12

    def test_unreachable_raises_with_report(self):
        with pytest.raises(UnreachableTargetError) as err:
            longest_arc(boost_target(0.0, 1.0))
        assert err.value.report.causal_class == "unreachable"


class TestConjugationAction:
    def test_identity_element(self):
        g = boost_target(1.0, 0.5)
        assert su2_conjugate(Mat2C.identity(), g).distance(g) == 0.0

    def test_fixes_time_direction(self):
        rng = np.random.default_rng(121)
        for _ in range(20):
            s = su2_exp(rng.normal(size=3) * rng.uniform(0, 2 * math.pi))
            conj = su2_conjugate(s, basis_matrix(0))
            assert conj.distance(basis_matrix(0)) < 1e-15

    def test_rotates_coordinate_plane(self):
        theta = 0.77
        s = su2_exp([theta, 0.0, 0.0])
        got = to_coords(su2_conjugate(s, basis_matrix(2)))
        want = np.zeros(8)
        want[2], want[3] = math.cos(theta), math.sin(theta)
        assert np.max(np.abs(got.u - want)) < 1e-14

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            su2_conjugate(Mat2C(2.0 * np.eye(2)), Mat2C.identity())

    def test_preserves_classified_distance(self):
        rng = np.random.default_rng(122)
        for _ in range(5):
            g = boost_target(
                1.5 + rng.uniform(0, 1), rng.uniform(0.2, 1.2), rng.normal(size=3)
            )
            s = su2_exp(rng.normal(size=3))
            d1 = causal_classify(g).distance
            d2 = causal_classify(su2_conjugate(s, g)).distance
            assert abs(d1 - d2) < 1e-9

    def test_canonical_reduce(self):
        p = ExtremalParams.timelike([0, 1, 0], [0.3, 0.1, -0.2])
        p2, s = canonical_reduce(p)
        assert np.allclose(p2.alpha[1:4], [1, 0, 0], atol=1e-14)
        for t in np.linspace(0, 2, 5):
            got = su2_conjugate(s, normal_extremal(p, t))
            assert got.distance(normal_extremal(p2, t)) < 1e-10

    def test_canonical_reduce_trivial_cases(self):
        p = ExtremalParams.timelike([1, 0, 0], [0.4, 0, 0])
        p2, s = canonical_reduce(p)
        assert np.array_equal(p2.alpha, p.alpha)
        assert s.distance(Mat2C.identity()) == 0.0
        p0 = ExtremalParams.timelike([0, 0, 0], [1, 2, 3])
        p02, s0 = canonical_reduce(p0)
        assert np.array_equal(p02.alpha, p0.alpha)
        assert s0.distance(Mat2C.identity()) == 0.0


class TestCausalRelation:
    def test_chronological(self):
        assert causal_relation(Mat2C.identity(), Mat2C(math.e * np.eye(2))) == "chronological"

    def test_reflexive_is_causal_null(self):
        g = boost_target(1.3, 0.4)
        assert causal_relation(g, g) == "causal-null"

    def test_unrelated(self):
        assert causal_relation(Mat2C.identity(), boost_target(0.0, 1.0)) == "unrelated"

    def test_left_invariance(self):
        x = boost_target(0.8, 0.3, (0, 1, 0))
        y = Mat2C(x.m @ boost_target(2.0, 1.0).m)
        assert causal_relation(x, y) == "chronological"


class TestAbnormal:
    def test_timelike_diagonal_example(self):
        steps = 400
        nodes = np.linspace(0.0, 2.0, 2 * steps + 1)
        path = abnormal_extremal(nodes, nodes / 2.0, (0, 0, 1), REGIME_TIMELIKE, steps)
        worst = 0.0
        for t, pt in zip(path.times, path.points):
            want = np.diag(
                [math.exp(1 - math.exp(-t / 2.0)), math.exp(math.exp(t / 2.0) - 1.0)]
            )
            worst = max(worst, float(np.max(np.abs(pt.m - want))))
        assert worst < 1e-7

    def test_isotropic_diagonal_example(self):
        steps = 400
        nodes = np.linspace(0.0, 2.0, 2 * steps + 1)
        path = abnormal_extremal(
            nodes, np.exp(nodes / 2.0) / 2.0, (0, 0, 1), REGIME_ISOTROPIC, steps
        )
        worst = 0.0
        for t, pt in zip(path.times, path.points):
            want = np.diag([1.0, math.exp(math.exp(t / 2.0) - 1.0)])
            worst = max(worst, float(np.max(np.abs(pt.m - want))))
        assert worst < 1e-7

    def test_constant_gauge_is_subgroup(self):
        c0 = 0.7
        path = abnormal_extremal([0.0, 2.0], [c0, c0], (0, 0, 1), REGIME_TIMELIKE, 400)
        gen = ComplexAlgVec.from_reals([math.cosh(c0), 0, 0, -math.sinh(c0)])
        for t, pt in zip(path.times, path.points):
            assert pt.distance(exp_closed(gen, t)) < 1e-10

    def test_covector_constant_and_nonzero(self):
        path = abnormal_extremal([0.0, 1.0], [0.2, 0.9], (0.5, -1.0, 2.0), REGIME_TIMELIKE, 100)
        psis = {tuple(c.psi) for c in path.covectors}
        assert len(psis) == 1
        assert tuple(next(iter(psis))) == (0, 0, 0, 0, -0.5, 1.0, -2.0)

    def test_covector_rhs_vanishes_on_abnormal_data(self):
        psi = np.array([0, 0, 0, 0, -0.5, 1.0, -2.0])
        bhat = np.array([0.5, -1.0, 2.0]) / np.linalg.norm([0.5, -1.0, 2.0])
        for k in (0.0, 0.3, -1.2):
            u = (math.cosh(k), *(bhat * math.sinh(k)))
            assert np.max(np.abs(covector_rhs(psi, u))) < 1e-10

    def test_isotropic_zero_crossing_rejected(self):
        with pytest.raises(ValueError):
            abnormal_extremal([0.0, 1.0, 2.0], [1.0, -1.0, 1.0], (0, 0, 1), REGIME_ISOTROPIC, 100)
        with pytest.raises(ValueError):
            abnormal_extremal([0.0, 1.0], [0.0, 1.0], (0, 0, 1), REGIME_ISOTROPIC, 100)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            abnormal_extremal([0.0, 1.0], [0.5, 0.5], (0, 0, 0), REGIME_TIMELIKE, 10)


class TestNonstrictCheck:
    def test_timelike_subgroup(self):
        ts = np.linspace(0, 2, 41)
        path = extremal_path(ExtremalParams.timelike([1, 0, 0], [0, 0, 0]), ts)
        ok, cert = nonstrict_abnormal_check(path)
        assert ok
        assert cert.regime == REGIME_TIMELIKE
        assert np.max(np.abs(cert.covector - np.array([0, 0, 0, 0, -1.0, 0, 0]))) < 1e-9

    def test_scalar_ray(self):
        ts = np.linspace(0, 2, 41)
        path = extremal_path(ExtremalParams.timelike([0, 0, 0], [0, 0, 0]), ts)
        ok, cert = nonstrict_abnormal_check(path)
        assert ok
        assert np.max(np.abs(cert.covector[4:])) > 0  # some nonzero su(2) covector

    def test_isotropic_subgroup(self):
        ts = np.linspace(0, 2, 41)
        path = extremal_path(ExtremalParams.isotropic([0.6, 0.8, 0], [0, 0, 0]), ts)
        ok, cert = nonstrict_abnormal_check(path)
        assert ok
        assert cert.regime == REGIME_ISOTROPIC
        assert np.max(np.abs(cert.covector[4:] + np.array([0.6, 0.8, 0.0]))) < 1e-9

    def test_strictly_abnormal_rejected(self):
        steps = 200
        nodes = np.linspace(0.0, 2.0, 2 * steps + 1)
        path = abnormal_extremal(nodes, nodes / 2.0, (0, 0, 1), REGIME_TIMELIKE, steps)
        ok, cert = nonstrict_abnormal_check(path)
        assert not ok and cert is None

    def test_curved_extremal_rejected(self):
        ts = np.linspace(0, 2, 41)
        path = extremal_path(ExtremalParams.timelike([1, 0, 0], [0, 0, 1.5]), ts)
        ok, _ = nonstrict_abnormal_check(path)
        assert not ok

    def test_recovers_control_from_points_only(self):
        ts = np.linspace(0, 2, 201)
        full = extremal_path(ExtremalParams.timelike([1, 0, 0], [0, 0, 0]), ts)
        bare = PathSample(full.times, full.points, None, None)
        ok, cert = nonstrict_abnormal_check(bare)
        assert ok
        assert abs(cert.control.u[0] - math.sqrt(2.0)) < 1e-3

    def test_requires_identity_start(self):
        ts = np.linspace(0, 1, 11)
        pts = tuple(Mat2C(math.exp((t + 1) / 2.0) * np.eye(2)) for t in ts)
        with pytest.raises(ValueError):
            nonstrict_abnormal_check(PathSample(ts, pts))


class TestReverseTriangle:
    def test_collinear_chain_on_scalar_ray(self):
        x = Mat2C(math.exp(0.5 / 2.0) * np.eye(2))
        z = Mat2C(math.exp(2.0 / 2.0) * np.eye(2))
        d_ez = causal_classify(z).distance
        d_ex = causal_classify(x).distance
        d_xz = causal_classify(x.inverse() @ z).distance
        assert abs(d_ez - (d_ex + d_xz)) < 1e-12

    def test_generic_triple_inequality(self):
        e = Mat2C.identity()
        x = boost_target(1.0, 0.4)
        z = Mat2C(x.m @ boost_target(1.2, 0.5, (0, 1, 0)).m)
        d_ex = causal_classify(x).distance
        d_xz = causal_classify(x.inverse() @ z).distance
        d_ez = causal_classify(z, seed=3).distance
        assert d_ez is not None
        assert d_ez >= d_ex + d_xz - 1e-3


class TestPathSampleSerialization:
    def test_csv_roundtrip_full(self):
        p = ExtremalParams.timelike([0.4, -0.2, 0.6], [0.5, 0.1, -0.7])
        path = extremal_path(p, np.linspace(0, 1, 11))
        text = path.to_csv_text(header_lines=["demo"])
        back = PathSample.from_csv(io.StringIO(text))
        assert np.array_equal(back.times, path.times)
        for a, b in zip(back.points, path.points):
            assert a.distance(b) < 1e-16
        for a, b in zip(back.controls, path.controls):
            assert np.max(np.abs(a.u - b.u)) < 1e-16
        for a, b in zip(back.covectors, path.covectors):
            assert np.max(np.abs(a.psi - b.psi)) < 1e-16

    def test_csv_roundtrip_points_only(self):
        ts = np.linspace(0, 1, 5)
        pts = tuple(Mat2C(math.exp(t / 2.0) * np.eye(2)) for t in ts)
        path = PathSample(ts, pts)
        back = PathSample.from_csv(io.StringIO(path.to_csv_text()))
        assert back.controls is None and back.covectors is None

    def test_csv_ignores_extra_columns(self):
        ts = np.linspace(0, 1, 5)
        pts = tuple(Mat2C(math.exp(t / 2.0) * np.eye(2)) for t in ts)
        path = PathSample(ts, pts)
        text = path.to_csv_text(extra_columns={"det_re": [1.0] * 5})
        back = PathSample.from_csv(io.StringIO(text))
        assert len(back.times) == 5

    def test_times_must_increase(self):
        pts = (Mat2C.identity(), Mat2C.identity())
        with pytest.raises(ValueError):
            PathSample(np.array([0.0, 0.0]), pts)

    def test_covector_never_zero(self):
        with pytest.raises(ValueError):
            CovectorState(np.zeros(7))


class TestOneParameterLongestArcs:
    def test_collinear_extremal_distance_equals_time(self):
        # beta parallel to alpha collapses to a subgroup; its classified
        # distance equals the parameter time exactly.
        rng = np.random.default_rng(131)
        for _ in range(5):
            av = rng.normal(size=3) * rng.uniform(0.3, 1.0)
            p = ExtremalParams.timelike(av, rng.uniform(-1.5, 1.5) * av)
            T = rng.uniform(0.3, 2.0)
            rep = causal_classify(normal_extremal(p, T))
            assert rep.causal_class == "timelike"
            assert abs(rep.distance - T) < 1e-9
            assert rep.eta.width < 1e-9

    def test_isotropic_subgroup_stays_isotropic(self):
        p = ExtremalParams.isotropic([0.6, 0.8, 0.0], [0.0, 0.0, 0.0])
        rep = causal_classify(normal_extremal(p, 1.3))
        assert rep.causal_class == "isotropic"
        assert rep.distance == 0.0
