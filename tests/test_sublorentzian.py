"""Normal/abnormal extremals, the minimum-principle integrator, causal structure."""

import gc
import hashlib
import io
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sublorentz import (
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
from sublorentz import sublorentzian
from sublorentz.expmap import _polar
from sublorentz.sublorentzian import (
    ExtremalParams, IntegrationDivergedError, _precession, _rk4_factors)


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

    @pytest.mark.parametrize("alpha1", [0.0, -0.5])
    def test_reduced_requires_positive_alpha1(self, alpha1):
        with pytest.raises(ValueError, match="requires alpha1 > 0"):
            normal_extremal_reduced(alpha1, [0, 0, 0], math.sqrt(1.0 + alpha1 * alpha1), 1.0)

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

    @pytest.mark.parametrize(
        "T, steps, record_every",
        [(0.0, 10, 1), (-1.0, 10, 1), (math.nan, 10, 1), (math.inf, 10, 1), (1.0, 10, 0), (1.0, 10, -3)],
        ids=["T-zero", "T-negative", "T-nan", "T-inf", "record-every-zero", "record-every-negative"],
    )
    def test_rejects_bad_T_and_record_every(self, T, steps, record_every):
        psi0 = np.array([math.sqrt(2.0), -1.0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="T must be|record_every must be"):
            pontryagin_integrate(psi0, REGIME_TIMELIKE, T, steps, record_every=record_every)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"psi0": [math.sqrt(2.0), -1.0, 0, 0, 0, 0]}, "psi0 must have 7 coordinates"),
            ({"regime": "euclidean"}, "unknown regime 'euclidean'"),
            ({"steps": 0}, "steps must be positive"),
        ],
        ids=["six-entry-psi0", "unknown-regime", "zero-steps"],
    )
    def test_rejects_malformed_arguments(self, change, message):
        args = {"psi0": [math.sqrt(2.0), -1.0, 0, 0, 0, 0, 0], "regime": REGIME_TIMELIKE,
                "T": 1.0, "steps": 10, **change}
        with pytest.raises(ValueError, match=message):
            pontryagin_integrate(np.array(args.pop("psi0")), **args)


def _hex(values):
    return [float(x).hex() for x in values]


def _final_hex(path):
    """float.hex of the final point (re, im per entry, row-major) and covector."""
    m = path.points[-1].m.ravel()
    return _hex(np.column_stack([m.real, m.imag]).ravel()), _hex(path.covectors[-1].psi)


def _golden_runs():
    p = ExtremalParams.timelike([0.4, -0.2, 0.6], [0.5, 0.1, -0.7])
    psi0 = np.concatenate([[p.alpha[0]], -p.alpha[1:]])
    q = ExtremalParams.isotropic([0.6, 0.8, 0.0], [-0.3, 0.2, 0.9])
    psi0_iso = np.concatenate([[1.0], -q.alpha[1:]])
    return {
        "timelike": lambda: pontryagin_integrate(psi0, REGIME_TIMELIKE, 2.0, 2000, record_every=100),
        "isotropic": lambda: pontryagin_integrate(
            psi0_iso, REGIME_ISOTROPIC, 2.0, 2000, record_every=100),
        "abnormal": lambda: abnormal_extremal(
            [0.0, 0.5, 1.0], [0.2, -0.4, 0.9], (0.5, -1.0, 2.0), REGIME_TIMELIKE, 1000),
    }


_GOLDEN_RUNS = _golden_runs()

# The integrators build their RK4 step factors entry by entry on real arrays,
# multiply the factors between two records pairwise on those arrays and the
# products onto g on Python scalars, and `abnormal_extremal` sums |b|^2 term by
# term, so their bits depend neither on BLAS nor on numpy's SIMD dispatch (see
# test_integrator_bits_do_not_depend_on_simd_dispatch).  A BLAS dot still
# decides `pontryagin_integrate`'s regime check, and gives the a0 of
# `ExtremalParams.timelike`, which builds the timelike input here.
_GOLDEN = {
    "timelike": (
        ["0x1.64fccc869a320p+2", "0x1.52d94bbcdb7f6p-2", "0x1.006c3d793c1f8p-2", "-0x1.45d0d7240e034p+1",
         "0x1.f2ac32323dd9ep-2", "0x1.dfe6301b42963p+0", "0x1.84e14ba923580p+1", "-0x1.45f29423bd7c2p-2"],
        ["0x1.3fbe701157608p+0", "0x1.5d4681ef046c6p-2", "0x1.55065e766b070p-1", "-0x1.0ab9d2587aac0p-8",
         "-0x1.0000000000000p-1", "-0x1.999999999999ap-4", "0x1.6666666666666p-1"],
    ),
    "isotropic": (
        ["0x1.73f41ff4bb5bep+1", "-0x1.7a5977586fb19p-1", "-0x1.1cc9607e73e03p-1", "0x1.5ff5afee2e40ep+1",
         "-0x1.d77a21c5ea324p-1", "-0x1.1f0f6a17cf1f7p+1", "0x1.29c5cef3f427cp+2", "0x1.7b70c2ca6d738p-1"],
        ["0x1.0000000000000p+0", "0x1.cce0eaa112ceep-1", "-0x1.ce7fb3b0bf3b4p-3", "0x1.7d658e40716e5p-2",
         "0x1.3333333333333p-2", "-0x1.999999999999ap-3", "-0x1.ccccccccccccdp-1"],
    ),
    "abnormal": (
        ["0x1.a3dcf45496b75p+0", "0x0.0p+0", "-0x1.013c8dac3d9edp-6", "0x1.013c8dac3d9edp-5",
         "-0x1.013c8dac3d9e7p-6", "-0x1.013c8dac3d9e7p-5", "0x1.c404860a1e696p+0", "0x0.0p+0"],
        ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
         "-0x1.0000000000000p-1", "0x1.0000000000000p+0", "-0x1.0000000000000p+1"],
    ),
}


def _path_bytes(path):
    return (
        path.times.tobytes(),
        b"".join(p.m.tobytes() for p in path.points),
        b"".join(u.u.tobytes() for u in path.controls),
        b"" if path.covectors is None else b"".join(c.psi.tobytes() for c in path.covectors),
    )


def _path_runs():
    p = ExtremalParams.timelike([0.4, -0.2, 0.6], [0.5, 0.1, -0.7])
    q = ExtremalParams.isotropic([0.6, 0.8, 0.0], [-0.3, 0.2, 0.9])
    return {
        **_GOLDEN_RUNS,
        "extremal-timelike": lambda: extremal_path(p, np.linspace(0.0, 2.0, 101)),
        "extremal-isotropic": lambda: extremal_path(q, np.linspace(0.0, 2.0, 101)),
        "longest-arc-boost": lambda: longest_arc(boost_target(1.5, 0.8, (1.0, -2.0, 0.5))),
    }


# sha256 of the bytes of every recorded time, point, control and covector
# (None where a path has none), taken while each state was still built and
# validated as its own object, so they pin the batched records to that code.
# The longest-arc-boost points and controls are those of `point` and `control`
# called once per time on its extremal.  The integrator points (and the
# normal flow's controls and covectors) are those of the RK4 step factors, the
# normal flow's points multiplied piece by piece between its records; the
# abnormal times, controls and covectors are unchanged from the scalar steps.
# The extremal-* controls and covectors are those of `precess` with its norm
# and matrix-vector product summed term by term.
_PATH_SHA256 = {
    "timelike": (
        "d1570a98f78ef43df7954b2216321a095a76f4c9bede3ca9e0cc76a82c18cc56",
        "8e0c8fd8a316ce57664ba5a0f594ce73924264f5f032cd9924fb837fe1ef5082",
        "1e7806252fdd6c5a790b2e3947e3323a216f59925b634b0f18389dc91d868b16",
        "472fd18799bc168107b93a511a7d6e86697e297bc944c994e0f22f01f103be3a",
    ),
    "isotropic": (
        "d1570a98f78ef43df7954b2216321a095a76f4c9bede3ca9e0cc76a82c18cc56",
        "60b5d0e9007a54e31684eeddf7a10d2085d9092fd3d08abe3132689d5a8f7fde",
        "2bdb3ff16414c03cb1fae701f0f824ac357f456d6d14865b2257242b3a6b7a08",
        "d94f08f7340afd3c4e6cd9e569b7f556dd582648777172e1441e9f6696eb92a9",
    ),
    "abnormal": (
        "be069d7d0c6719743ada6aed42916e2798ddc937afaa56bd63d766dcca764331",
        "2578751ea6f2de3a321f2fd290052d8c7c00d70c4c881f1978d54ada22de9944",
        "9543a122619790aa625fcb84777ca5c31c67dcefee1167209673525f51417616",
        "ff1451d34c4914eb167d780085537224f26a42084f71dd89a28ccbc7fbc8be06",
    ),
    "extremal-timelike": (
        "45a310e5517dd15c97912aadddef95b61a8cce44c8cf759919e712b03b775c0c",
        "06d976de39c737efb05c016e3b5ec437470cd000eafc610eb16e7b553bc79256",
        "1f1e6d11cabb165a5e606f8add0c707e62a9248a508c7325bf86bbcde8eb8454",
        "48938bd24810a880af1b4b42ccf7239575b8e3dc52a014bf895b4532660fbcc0",
    ),
    "extremal-isotropic": (
        "45a310e5517dd15c97912aadddef95b61a8cce44c8cf759919e712b03b775c0c",
        "3c8bee84f8009c1ea34c16321f907fe717d72a25e8b009d065a28d2287f7bf75",
        "ecf459da5bb4e35100adc666d886ad058dad3325eab68c09918ff23e3551220f",
        "902b12e76d020ced56ade2c66e807fa362bf7b86b2715b19a636c4594e007f80",
    ),
    "longest-arc-boost": (
        "35e4225ebc855937d565b2e394065e89c84e4e6fd0ebba4888a10638f90467ca",
        "3a7a68da849411bdc4e22348c0385612aa9889a6ca6f9d83b2b56fd6478a1a0f",
        "b291c8758351bb1555aaa5684c786e44fb34b73df7fea90b3d2b658c77b08309",
        None,
    ),
}


@pytest.mark.parametrize("name", list(_GOLDEN))
def test_integrator_golden_bits(name):
    assert _final_hex(_GOLDEN_RUNS[name]()) == _GOLDEN[name]


@pytest.mark.parametrize("name", list(_GOLDEN))
def test_integrator_reruns_are_byte_identical(name):
    run = _GOLDEN_RUNS[name]
    assert _path_bytes(run()) == _path_bytes(run())


def _sha256(arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("name", list(_PATH_SHA256))
def test_whole_path_sha256_pinned(name):
    path = _path_runs()[name]()
    got = (_sha256([path.times]), _sha256(x.m for x in path.points), _sha256(x.u for x in path.controls),
           None if path.covectors is None else _sha256(x.psi for x in path.covectors))
    assert got == _PATH_SHA256[name]


def _oracle_rhs(g, psi, u):
    """g' = g (u0 e0 - u1 e1 - u2 e2 - u3 e3) on numpy arrays; the su(2) block
    of the covector moves by u x psi_456 and the H0 block by u x psi_123."""
    U = u[0] * basis_matrix(0).m - sum(u[i] * basis_matrix(i).m for i in (1, 2, 3))
    dpsi = np.concatenate([[0.0], np.cross(u[1:4], psi[4:7]), np.cross(u[1:4], psi[1:4])])
    return g @ U, dpsi


def _oracle_step(g, psi, h, controls=None):
    """One classical RK4 step; the control is psi[:4] (normal flow) or the
    sampled (start, mid, mid, end) controls of an abnormal gauge."""
    def f(stage, gm, p):
        return _oracle_rhs(gm, p, p[:4] if controls is None else controls[stage])

    k1g, k1p = f(0, g, psi)
    k2g, k2p = f(1, g + 0.5 * h * k1g, psi + 0.5 * h * k1p)
    k3g, k3p = f(2, g + 0.5 * h * k2g, psi + 0.5 * h * k2p)
    k4g, k4p = f(3, g + h * k3g, psi + h * k3p)
    return (g + h / 6.0 * (k1g + 2 * k2g + 2 * k3g + k4g),
            psi + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p))


def _relative_gap(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


def _one_step(g, h, stage_controls):
    """g S for the RK4 factor S of one step with the given four stage controls."""
    re, im = _rk4_factors(h, *(np.reshape(u, (4, 1)) for u in stage_controls))
    return g @ (re + 1j * im)[:, :, 0]


@pytest.mark.parametrize("regime", [REGIME_TIMELIKE, REGIME_ISOTROPIC])
def test_normal_step_matches_numpy_oracle(regime):
    rng = np.random.default_rng(909)
    for _ in range(50):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        av = rng.normal(size=3)
        av /= np.linalg.norm(av)
        if regime == REGIME_TIMELIKE:
            av *= rng.uniform(0.0, 3.0)
        psi = np.concatenate([[math.sqrt(1.0 + av @ av) if regime == REGIME_TIMELIKE else 1.0],
                              av, rng.normal(size=3)])
        h = rng.uniform(1e-3, 0.2)
        x = psi[1:4]
        columns, stages = _precession(psi[4:], h, x, 1)
        got_g = _one_step(g, h, [(psi[0], *q) for q in [x] + [M @ x for M in stages]])
        want_g, want_p = _oracle_step(g, psi, h)
        assert _relative_gap(got_g, want_g) <= 1e-15
        assert _relative_gap(columns(np.array([1]))[:, 0], want_p[1:4]) <= 1e-15
        assert np.array_equal(want_p[4:], psi[4:]) and want_p[0] == psi[0]


def test_gauge_step_matches_numpy_oracle():
    rng = np.random.default_rng(910)
    for _ in range(50):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        us = [tuple(rng.normal(size=4).tolist()) for _ in range(3)]
        h = rng.uniform(1e-3, 0.2)
        controls = [us[i] for i in (0, 1, 1, 2)]
        want, _ = _oracle_step(g, np.zeros(7), h, [np.array(u) for u in controls])
        assert _relative_gap(_one_step(g, h, controls), want) <= 1e-15


@pytest.mark.parametrize("chunk", [1, 7, 256, sublorentzian._CHUNK])
def test_path_bytes_do_not_depend_on_chunk_size(monkeypatch, chunk):
    want = {name: _path_bytes(run()) for name, run in _GOLDEN_RUNS.items()}
    monkeypatch.setattr(sublorentzian, "_CHUNK", chunk)
    assert {name: _path_bytes(run()) for name, run in _GOLDEN_RUNS.items()} == want


def _sequential_points(controls, h, steps, record_every=1):
    """The step-by-step product, oracle of `_rk4_points`: every RK4 step factor
    multiplied onto g in turn, on Python complex scalars."""
    g00, g01, g10, g11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    points = [(g00, g01, g10, g11)]
    S = np.stack(_rk4_factors(h, *controls(0, steps)), -1).view(complex)
    for j, (s00, s01, s10, s11) in enumerate(S.reshape(4, -1).T.tolist(), 1):
        g00, g01, g10, g11 = (g00 * s00 + g01 * s10, g00 * s01 + g01 * s11,
                              g10 * s00 + g11 * s10, g10 * s01 + g11 * s11)
        if j % record_every == 0 or j == steps:
            points.append((g00, g01, g10, g11))
    return np.array(points)


def _against_sequential_chain(monkeypatch, run):
    """(path, the same run with the step factors multiplied onto g one by one)."""
    got = run()
    with monkeypatch.context() as m:
        m.setattr(sublorentzian, "_rk4_points", _sequential_points)
        return got, run()


@pytest.mark.parametrize("record_every", [1, 2, 7, 100, 255, 256, 257, 300, 5000])
@pytest.mark.parametrize("regime", [REGIME_TIMELIKE, REGIME_ISOTROPIC])
def test_pontryagin_points_match_sequential_chain(monkeypatch, regime, record_every):
    # Pieces of min(record_every, 256) steps are multiplied pairwise before they
    # reach g; that reorders the products, so points move by rounding only, and
    # not at all where every step is recorded.  The pieces, not the passes, set
    # the bits, also where a record gap spans several pieces.
    psi0 = {REGIME_TIMELIKE: [math.sqrt(2.0), -0.6, 0.8, 0.0, 0.5, 0.1, -0.7],
            REGIME_ISOTROPIC: [1.0, 0.6, 0.0, -0.8, -0.3, 0.2, 0.9]}[regime]
    for steps in (1, 613, 2049, 5000):
        def run():
            return pontryagin_integrate(psi0, regime, 5.0, steps, record_every)
        got, want = _against_sequential_chain(monkeypatch, run)
        (t, g, u, c), (t0, g0, u0, c0) = _path_bytes(got), _path_bytes(want)
        assert (t, u, c) == (t0, u0, c0)
        if record_every == 1:
            assert g == g0
        a, b = (np.array([x.m for x in p.points]).reshape(-1, 4) for p in (got, want))
        scale = np.abs(b).max(axis=1)
        assert float(np.max(np.abs(a - b).max(axis=1) / scale)) <= 1e-13, steps
        with monkeypatch.context() as m:
            m.setattr(sublorentzian, "_CHUNK", 7)
            assert _path_bytes(run()) == _path_bytes(got)


@pytest.mark.parametrize("regime, kappa", [(REGIME_TIMELIKE, [0.2, -0.4, 0.9]),
                                           (REGIME_ISOTROPIC, [0.3, 0.8, 1.6])])
def test_abnormal_points_are_the_sequential_chain(monkeypatch, regime, kappa):
    # Every step is recorded, so each piece is one factor and no product moves.
    for steps in (1, 1000, 2049):
        got, want = _against_sequential_chain(
            monkeypatch, lambda: abnormal_extremal([0.0, 0.5, 1.0], kappa, (0.5, -1.0, 2.0),
                                                   regime, steps))
        assert _path_bytes(got) == _path_bytes(want)


@pytest.mark.parametrize("record_every", [200, 200_000])
def test_integration_memory_does_not_grow_with_steps(record_every):
    # The factors are built a pass at a time and a pairwise product covers at
    # most 256 steps, so 200,000 steps hold only their records; one product over
    # a whole 200,000-step gap would peak near 100 MB.
    psi0 = [math.sqrt(2.0), -0.6, 0.8, 0.0, 0.5, 0.1, -0.7]
    tracemalloc.start()
    try:
        path = pontryagin_integrate(psi0, REGIME_TIMELIKE, 2.0, 200_000, record_every)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(path.points) == 200_000 // record_every + 1
    assert peak < 4e6, peak


def test_abnormal_path_holds_no_object_per_record():
    # A path keeps one array per kind and builds its Mat2C/AlgCoords/CovectorState
    # rows only when asked, so holding a 1000-step run adds a handful of objects
    # for the garbage collector to track, not one or more per record.
    run = _GOLDEN_RUNS["abnormal"]
    run()  # first-call caches
    gc.collect()
    before = len(gc.get_objects())
    path = run()
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(path.points) == 1001
    assert added < 50, added


def _dispatched_cpu_features():
    """The SIMD features numpy found on this host beyond its build's baseline."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f for f in __cpu_dispatch__ if __cpu_features__[f]]


# (1.0988127684144084, -1.284580778805345, -0.6616129303555477) is a direction
# whose np.linalg.norm (a BLAS dot) differs by an ulp between OpenBLAS kernels.
# The closed-form samples join them: their controls take no BLAS call.
_DISPATCH_RUNS = {
    **_path_runs(),
    "abnormal-blas-norm": lambda: abnormal_extremal(
        [0.0, 1.0], [0.3, 0.8], (1.0988127684144084, -1.284580778805345, -0.6616129303555477),
        REGIME_TIMELIKE, 50),
}

_SIMD_CHILD = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
import test_sublorentzian as t
print(json.dumps({
    "enabled": t._dispatched_cpu_features(),
    "paths": {name: hashlib.sha256(b"".join(t._path_bytes(run()))).hexdigest()
              for name, run in t._DISPATCH_RUNS.items()},
}))
"""


def test_integrator_bits_do_not_depend_on_simd_dispatch(fresh_python):
    # numpy picks SIMD loops at run time, and some (complex multiply, for one)
    # fuse multiply-adds; OpenBLAS picks its kernels at load time.  With every
    # dispatched feature this host has switched off, or with OpenBLAS held to
    # its Prescott or Haswell kernels, the integrators and the closed-form
    # samples must still write the same bytes.  Each variable acts on the child
    # interpreter only.
    want = {name: hashlib.sha256(b"".join(_path_bytes(run()))).hexdigest()
            for name, run in _DISPATCH_RUNS.items()}
    found = _dispatched_cpu_features()
    for env in ({"NPY_DISABLE_CPU_FEATURES": " ".join(found)},
                {"OPENBLAS_CORETYPE": "Prescott"}, {"OPENBLAS_CORETYPE": "Haswell"}):
        out = fresh_python("-c", _SIMD_CHILD, str(Path(__file__).parent), env=env)
        assert out.returncode == 0, out.stderr
        child = json.loads(out.stdout)
        if "NPY_DISABLE_CPU_FEATURES" in env:
            assert child["enabled"] == []
        assert child["paths"] == want, env


_POLAR_CHILD = """
import hashlib, sys
import numpy as np
from sublorentz.expmap import _polar
g1 = np.frombuffer(open(sys.argv[1], "rb").read(), complex).reshape(-1, 2, 2)
print(hashlib.sha256(b"".join(_polar(g)[1].tobytes() for g in g1)).hexdigest())
"""


def test_polar_rotation_bits_do_not_depend_on_dispatch(fresh_python, tmp_path):
    # k = (g1 + adj(g1)*) / sqrt(det) takes Python scalar arithmetic alone, so
    # neither numpy's SIMD loops nor OpenBLAS's kernels move its bits.  The
    # targets are stored as bytes: su2_exp takes a BLAS norm, so a child that
    # built them would not be given the same inputs.
    rng = np.random.default_rng(17)
    targets = []
    for length in np.concatenate([rng.uniform(0.0, 40.0, 200), rng.uniform(40.0, 700.0, 100)]):
        x = rng.normal(size=3)
        g1 = exp_closed(ComplexAlgVec.from_reals([0.0, *(length * x / np.linalg.norm(x))]), 1.0).m
        targets.append(g1 @ su2_exp(rng.normal(size=3) * 10.0 ** rng.uniform(-8.0, 0.5)).m)
    path = tmp_path / "g1.bin"
    path.write_bytes(np.array(targets).tobytes())
    want = hashlib.sha256(b"".join(_polar(g)[1].tobytes() for g in targets)).hexdigest()
    for env in ({"NPY_DISABLE_CPU_FEATURES": " ".join(_dispatched_cpu_features())},
                {"OPENBLAS_CORETYPE": "Prescott"}, {"OPENBLAS_CORETYPE": "Haswell"}):
        out = fresh_python("-c", _POLAR_CHILD, str(path), env=env)
        assert (out.returncode, out.stdout.strip()) == (0, want), (env, out.stderr)


_SQRT2 = math.sqrt(2.0)


@pytest.mark.parametrize(
    "run, time",
    [
        # psi_456 so large that a step of 0.05 is far outside RK4's stability region
        (lambda: pontryagin_integrate(
            [_SQRT2, -1, 0, 0, 0, 3e20, -2e20], REGIME_TIMELIKE, 2.0, 40, record_every=7),
         0.35000000000000003),
        (lambda: pontryagin_integrate([_SQRT2, -1, 0, 0, 0, 0, 0], REGIME_TIMELIKE, 1e300, 10),
         1e299),
        (lambda: abnormal_extremal([0.0, 1e308], [0.0, 1.0], (0, 0, 1), REGIME_TIMELIKE, 1000),
         1e305),
        (lambda: abnormal_extremal([0.0, 1.0], [0.0, 1000.0], (0.3, -0.5, 1), REGIME_TIMELIKE, 1000),
         0.028),
        # kappa = 1000 at the second step's end overflows math.cosh, but the first step diverged
        (lambda: abnormal_extremal([0.0, 1.0], [0.0, 1000.0], (0.3, -0.5, 1), REGIME_TIMELIKE, 2),
         0.5),
    ],
    ids=["pontryagin-huge-psi456", "pontryagin-coarse", "abnormal-coarse", "abnormal-ramp",
         "abnormal-ramp-before-overflow"],
)
def test_divergence_time_pinned(run, time):
    with pytest.raises(IntegrationDivergedError) as info:
        run()
    assert info.value.time == time


def test_unstable_step_on_the_bounded_axis_stays_finite():
    # psi_123 lies on the axis of psi_456, where psi_123 x psi_456 = 0 keeps
    # every RK4 iterate exact, however far the step is outside stability.
    path = pontryagin_integrate([_SQRT2, -1, 0, 0, 1e30, 0, 0], REGIME_TIMELIKE, 1.0, 10)
    assert all((c.psi[:4] == [_SQRT2, -1, 0, 0]).all() for c in path.covectors)


def test_math_overflow_is_raised_at_its_step():
    # kappa stays 0 for two steps, then the third step's end reaches 1000.
    with pytest.raises(OverflowError):
        abnormal_extremal([0.0, 1.0, 2.0], [0.0, 0.0, 2000.0], (0.3, -0.5, 1), REGIME_TIMELIKE, 4)


def _shooting_targets():
    """Three geodesic-built targets, two boost-rotations and one rotation, each with its xi."""
    rng = np.random.default_rng(160)
    targets = []
    for xi_of_T in (lambda T: T + 1.0, lambda T: 0.5 * T, lambda T: T):
        a = rng.normal(size=3)
        p = SRGeodesicParams(a / np.linalg.norm(a), rng.uniform(-1.5, 1.5, 3))
        T = rng.uniform(0.5, 2.0)
        targets.append((xi_of_T(T), sr_geodesic(p, T)))
    for xi in (3.0, 0.2):
        b = boost_target(0.0, rng.uniform(0.3, 2.0), rng.normal(size=3))
        targets.append((xi, Mat2C(b.m @ su2_exp(rng.uniform(-1.5, 1.5, 3)).m)))
    targets.append((1.0, su2_exp(rng.uniform(-1.5, 1.5, 3))))
    return [Mat2C(math.exp(xi / 2.0) * g1.m) for xi, g1 in targets]


# sha256 of the JSON of `causal_classify` on `_shooting_targets()`: timelike,
# unreachable and indeterminate geodesic-built reports, an indeterminate and
# an unreachable boost-rotation and an indeterminate rotation, all inexact.
# The two unreachable ones are decided by the projection bound alone and run
# no search, so they read [lower, inf) with no witness.
_SHOOTING_REPORTS_SHA256 = "e826320179d0f5d6bd91193ecea745edc00863e0063c1c80a5ddc5a9fb05a8aa"
# sha256 of the other four reports alone, which the search decides.
_SEARCHED_REPORTS_SHA256 = "082bb13b3dd9594466dd2d7e229666baa98223c7a01c0514d00c757106482fd4"
# The lower ends of the two lower-decided reports, bit for bit those of the
# full `distance_shoot` brackets.
_LOWER_DECIDED = {1: 1.2447780787279754, 4: 1.1024473440317106}


def test_shooting_reports_sha256_pinned():
    reports = [causal_classify(g).to_json() for g in _shooting_targets()]
    text = json.dumps(reports)
    assert hashlib.sha256(text.encode()).hexdigest() == _SHOOTING_REPORTS_SHA256
    searched = json.dumps([r for i, r in enumerate(reports) if i not in _LOWER_DECIDED])
    assert hashlib.sha256(searched.encode()).hexdigest() == _SEARCHED_REPORTS_SHA256
    for i, lower in _LOWER_DECIDED.items():
        r = reports[i]
        assert r["class"] == "unreachable" and r["xi"] < lower - 1e-7
        assert r["eta"] == {"lower": lower, "upper": "inf", "converged": False, "witness": None}


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
        # A rotation: lower is 0 to rounding, so the report is extrapolated.
        cases.append((Mat2C(math.exp(-0.5) * su2_exp([0.3, 1.1, -0.6]).m), {}))
        reports = []
        for g, kwargs in cases:
            report = causal_classify(g, **kwargs)
            back = CausalReport.from_json(report.to_json())
            assert back.causal_class == report.causal_class
            assert back.distance == report.distance
            assert back.c_param == report.c_param
            assert back.xi == report.xi
            assert (back.eta_exact, back.extrapolated) == (report.eta_exact, report.extrapolated)
            reports.append(report)
        assert reports[0].eta_exact and not reports[3].eta_exact and reports[4].extrapolated
        assert reports[5].extrapolated

    def test_long_boost_rotations_classify(self):
        # Im det g rounds to about eps |g|_F^2 = eps 2cosh|X|, which exceeds
        # 1e-12 max(1, |det g|) on 11 of these 20.
        rng = np.random.default_rng(17)
        for r in (12.0, 16.0):
            for _ in range(10):
                b = boost_target(0.0, r, rng.normal(size=3))
                report = causal_classify(Mat2C(b.m @ su2_exp(rng.uniform(-1.5, 1.5, 3)).m))
                assert report.causal_class == "unreachable"
                assert abs(report.eta.lower - r) <= 1e-9 * r

    def test_lower_decided_target_runs_no_solve(self, monkeypatch):
        # At xi = 0 the boost-rotation's projection bound |X| = 0.9 decides the class.
        from sublorentz import distance_shoot, subriemannian

        g1 = Mat2C(boost_target(0.0, 0.9).m @ su2_exp([0.3, 1.1, -0.6]).m)

        def no_solve(*args, **kwargs):
            raise AssertionError("solver called")

        for name in ("_dogleg_rows", "least_squares"):  # the batched shooting solve, the polish
            monkeypatch.setattr(subriemannian, name, no_solve)
        report = causal_classify(g1)
        assert report.causal_class == "unreachable"
        assert report.eta.upper == math.inf and report.eta.witness is None
        x = boost_target(0.3, 0.5, (0.0, 1.0, 0.0))
        assert causal_relation(x, x @ g1) == "unrelated"
        with pytest.raises(AssertionError, match="solver called"):
            distance_shoot(g1)  # the distance is still shot in full
        monkeypatch.undo()
        br = distance_shoot(g1)
        assert (br.lower, br.upper, br.converged) == (0.8999999999999998, 3.4585464995572783, False)

    def test_lower_decision_leaves_the_isotropic_tie_to_the_search(self):
        # Just off a boost the searched bracket is exact: xi = 1 - 5e-10 lies below
        # lower - tol for tol = 1e-10, but inside the isotropic tie window.
        g1 = Mat2C(boost_target(0.0, 1.0).m @ su2_exp([0.3e-11, 0.5e-11, 1e-11]).m)
        report = causal_classify(Mat2C(math.exp((1.0 - 5e-10) / 2.0) * g1.m), tol=1e-10)
        assert report.eta.witness is not None and report.eta_exact
        assert report.causal_class == "isotropic"

    @pytest.mark.parametrize("kind", ["geodesic", "boost-rotation"])
    def test_lower_decision_keeps_the_full_bracket_class(self, kind):
        # The class equals the one the full `distance_shoot` bracket gives,
        # for xi drawn below and above lower and just either side of lower - tol
        # (a 70-solve budget in both keeps the test short).
        from sublorentz import distance_lower_bound, distance_shoot
        from sublorentz.expmap import det_split
        from sublorentz.sublorentzian import _causal_class

        rng = np.random.default_rng(1717)
        tol = 1e-7
        for _ in range(2):
            if kind == "geodesic":
                a = rng.normal(size=3)
                p = SRGeodesicParams(a / np.linalg.norm(a), rng.uniform(-1.5, 1.5, 3))
                g1 = sr_geodesic(p, rng.uniform(0.5, 2.0))
            else:
                b = boost_target(0.0, rng.uniform(0.3, 2.0), rng.normal(size=3))
                g1 = Mat2C(b.m @ su2_exp(rng.uniform(-1.5, 1.5, 3)).m)
            lower = distance_lower_bound(g1)
            for xi in (rng.uniform(0.0, lower), rng.uniform(lower, lower + 2.0),
                       lower - 1.01 * tol, lower - 0.99 * tol):
                g = Mat2C(math.exp(xi / 2.0) * g1.m)
                report = causal_classify(g, tol=tol, budget=70)
                full = distance_shoot(Mat2C(det_split(g)[1]), tol=tol, budget=70)
                assert report.causal_class == _causal_class(report.xi, full, tol)
                if report.eta.to_json() != full.to_json():  # decided by the lower end alone
                    assert report.causal_class == "unreachable" and xi < lower - tol
                    assert report.eta.lower == full.lower and report.eta.witness is None


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
            u = bhat * math.sinh(k)
            # psi' = (0, u x psi_456, u x psi_123) for a control with H0 part u
            assert np.max(np.abs(np.cross(u, psi[4:]))) < 1e-10
            assert np.max(np.abs(np.cross(u, psi[1:4]))) < 1e-10

    def test_isotropic_zero_crossing_rejected(self):
        with pytest.raises(ValueError):
            abnormal_extremal([0.0, 1.0, 2.0], [1.0, -1.0, 1.0], (0, 0, 1), REGIME_ISOTROPIC, 100)
        with pytest.raises(ValueError):
            abnormal_extremal([0.0, 1.0], [0.0, 1.0], (0, 0, 1), REGIME_ISOTROPIC, 100)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            abnormal_extremal([0.0, 1.0], [0.5, 0.5], (0, 0, 0), REGIME_TIMELIKE, 10)

    @pytest.mark.parametrize(
        "beta_dir, unit",
        [
            ((1e308, 1e308, 0.0), (1.0, 1.0, 0.0)),
            ((1e-170, 0.0, 0.0), (1.0, 0.0, 0.0)),
            ((0.3 * 2.0**1000, -1.2 * 2.0**1000, 2.2 * 2.0**1000), (0.3, -1.2, 2.2)),
            ((0.3 * 2.0**-1000, -1.2 * 2.0**-1000, 2.2 * 2.0**-1000), (0.3, -1.2, 2.2)),
        ],
        ids=["big", "tiny", "power-of-two-big", "power-of-two-tiny"],
    )
    def test_beta_dir_scale_free(self, beta_dir, unit):
        # Only the direction of beta_dir matters: the path's bits do not move
        # with its scale, and no norm overflows or underflows on the way.
        def run(b):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                path = abnormal_extremal([0.0, 1.0], [2.0, 2.0], b, REGIME_TIMELIKE, 10)
            return (b"".join(p.m.tobytes() for p in path.points),
                    b"".join(c.u.tobytes() for c in path.controls))

        assert run(beta_dir) == run(unit)

    @pytest.mark.parametrize(
        "kappa_t, kappa_v, beta_dir, message",
        [
            ([0.0, math.nan], [0.5, 0.5], (0, 0, 1), "kappa times and values must be finite"),
            ([0.0, math.inf], [0.5, 0.5], (0, 0, 1), "kappa times and values must be finite"),
            ([0.0, 1.0], [math.nan, 0.5], (0, 0, 1), "kappa times and values must be finite"),
            ([0.0, 1.0], [0.5, -math.inf], (0, 0, 1), "kappa times and values must be finite"),
            ([0.0, 1.0], [0.5, 0.5], (math.inf, 0, 0), "beta_dir must be three finite numbers"),
            ([0.0, 1.0], [0.5, 0.5], (0, math.nan, 1), "beta_dir must be three finite numbers"),
        ],
        ids=["time-nan", "time-inf", "value-nan", "value-inf", "beta-inf", "beta-nan"],
    )
    def test_non_finite_inputs_rejected(self, kappa_t, kappa_v, beta_dir, message):
        with pytest.raises(ValueError, match=message):
            abnormal_extremal(kappa_t, kappa_v, beta_dir, REGIME_TIMELIKE, 10)

    @pytest.mark.parametrize(
        "kappa_t, kappa_v, regime, message",
        [
            ([0.0], [0.5], REGIME_TIMELIKE, "kappa must be sampled at two or more nodes"),
            ([0.5, 1.0], [0.5, 0.5], REGIME_TIMELIKE, "kappa nodes must start at 0 and increase"),
            ([0.0, 1.0], [0.5, 0.5], "euclidean", "unknown regime 'euclidean'"),
        ],
        ids=["one-node", "late-start", "unknown-regime"],
    )
    def test_malformed_gauge_rejected(self, kappa_t, kappa_v, regime, message):
        with pytest.raises(ValueError, match=message):
            abnormal_extremal(kappa_t, kappa_v, (0, 0, 1), regime, 10)


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

    @pytest.mark.parametrize(
        "control",
        [
            [math.sqrt(2.0), 1.0, 0, 0, 0.5, 0, 0, 0],  # off H
            [-math.sqrt(2.0), 1.0, 0, 0, 0, 0, 0, 0],  # past directed
            [1e-12, 0, 0, 0, 0, 0, 0, 0],  # isotropic to tol, with a_vec = 0
            [2.0, 0, 0, 0, 0, 0, 0, 0],  # a0^2 - |a_vec|^2 = 4: neither normalization
        ],
        ids=["off-H", "past-directed", "zero-a-vec", "unnormalized"],
    )
    def test_constant_control_rejected(self, control):
        ts = np.linspace(0, 1, 3)
        path = PathSample(ts, np.broadcast_to(np.eye(2), (3, 2, 2)), np.tile(control, (3, 1)))
        assert nonstrict_abnormal_check(path) == (False, None)

    def test_points_only_needs_three_samples(self):
        path = PathSample(np.array([0.0, 1.0]), (Mat2C.identity(), Mat2C(math.e * np.eye(2))))
        with pytest.raises(ValueError, match="need at least 3 samples"):
            nonstrict_abnormal_check(path)

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

    @pytest.mark.parametrize("name", ["controls", "covectors"])
    def test_row_counts_must_match_times(self, name):
        path = extremal_path(ExtremalParams.timelike([0.4, -0.2, 0.6], [0.5, 0.1, -0.7]),
                             np.linspace(0, 1, 5))
        rows = {"controls": path.controls.array, "covectors": path.covectors.array}
        rows[name] = rows[name][:-1]
        with pytest.raises(ValueError, match=f"{name} length mismatch"):
            PathSample(path.times, path.points.array, **rows)

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
