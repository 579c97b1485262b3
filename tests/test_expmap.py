"""Closed-form exponential, series oracle, polar decomposition."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sublorentz import (
    ComplexAlgVec,
    Mat2C,
    NotInGLPlusError,
    ProductExpParams,
    basis_matrix,
    causal_classify,
    causal_relation,
    distance_lower_bound,
    exp_closed,
    exp_series,
    from_coords,
    longest_arc,
    polar_decompose,
    su2_exp,
    to_coords,
)
from sublorentz import expmap
from sublorentz.expmap import (SMALL_W, _polar, aligning_rotation, axis_angle_rotation, det_split,
                               sinc_scaled, sinch)


def vec(*reals):
    return ComplexAlgVec.from_reals(reals)


class TestExpClosed:
    def test_central_direction(self):
        for t in (0.3, -1.7, 4.0):
            got = exp_closed(vec(1, 0, 0, 0), t)
            assert got.distance(Mat2C(math.exp(t / 2.0) * np.eye(2))) < 1e-14

    def test_boost_generator(self):
        got = exp_closed(vec(0, 1, 0, 0), 1.0)
        want = np.array(
            [[math.cosh(0.5), math.sinh(0.5)], [math.sinh(0.5), math.cosh(0.5)]]
        )
        assert got.distance(Mat2C(want)) < 1e-15

    def test_time_zero(self):
        a = ComplexAlgVec(np.array([1 + 1j, 2, -3j, 0.5]))
        assert exp_closed(a, 0.0).distance(Mat2C.identity()) == 0.0

    def test_nilpotent_case(self):
        # z1^2 + z2^2 + z3^2 = 0 with nonzero coefficients: w = 0, linear formula.
        a = ComplexAlgVec(np.array([0.0, 1.0, 1j, 0.0]))
        assert abs(a.w) == 0.0
        got = exp_closed(a, 2.0)
        want = Mat2C(np.eye(2) + 2.0 * a.matrix().m)
        assert got.distance(want) < 1e-15

    def test_matches_series(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(300):
            z = rng.uniform(-2.1, 2.1, 4) + 1j * rng.uniform(-2.1, 2.1, 4)
            t = rng.uniform(-3, 3)
            a = ComplexAlgVec(z)
            norm = float(np.max(np.sum(np.abs(t * a.matrix().m), axis=1)))
            if norm > 6.0:
                t *= 6.0 / norm
            closed = exp_closed(a, t)
            series = exp_series(Mat2C(t * a.matrix().m))
            worst = max(worst, closed.distance(series))
        assert worst < 1e-12

    def test_matches_series_relative_on_large_arguments(self):
        # outside the absolute-tolerance domain the agreement is still tight relative
        rng = np.random.default_rng(24)
        for _ in range(200):
            z = rng.uniform(-2.1, 2.1, 4) + 1j * rng.uniform(-2.1, 2.1, 4)
            t = rng.uniform(-3, 3)
            a = ComplexAlgVec(z)
            closed = exp_closed(a, t)
            series = exp_series(Mat2C(t * a.matrix().m))
            scale = max(1.0, float(np.max(np.abs(series.m))))
            assert closed.distance(series) / scale < 1e-13

    def test_branch_independence(self):
        # Evaluating the formula with either square root of w^2 gives the same matrix.
        rng = np.random.default_rng(22)
        for _ in range(50):
            z = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)
            t = rng.uniform(-2, 2)
            a = ComplexAlgVec(z)
            w = a.w
            traceless = z[1] * basis_matrix(1).m + z[2] * basis_matrix(2).m + z[3] * basis_matrix(3).m
            vals = []
            for root in (w, -w):
                m = cmath.cosh(root * t) * np.eye(2) + sinch(root, t) * traceless
                vals.append(cmath.exp(z[0] * t / 2.0) * m)
            assert np.max(np.abs(vals[0] - vals[1])) < 1e-12

    def test_determinant_law(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            z = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)
            t = rng.uniform(-3, 3)
            got = exp_closed(ComplexAlgVec(z), t).det()
            assert abs(got - cmath.exp(z[0] * t)) < 1e-12 * max(1.0, abs(got))

    def test_unimodular_when_traceless(self):
        got = exp_closed(ComplexAlgVec(np.array([0, 1.3, -0.2j, 0.7])), 1.1)
        assert abs(got.det() - 1.0) < 1e-13


class TestExpSeries:
    def test_zero(self):
        assert exp_series(Mat2C.zero()).distance(Mat2C.identity()) == 0.0

    def test_diagonal(self):
        got = exp_series(Mat2C(np.diag([1.0, -1.0])))
        assert got.distance(Mat2C(np.diag([math.e, 1.0 / math.e]))) < 1e-14

    def test_large_norm_accuracy(self):
        m = Mat2C(np.array([[0.0, 30.0], [30.0, 0.0]], dtype=complex))
        got = exp_series(m)
        want = np.array([[math.cosh(30), math.sinh(30)], [math.sinh(30), math.cosh(30)]])
        assert np.max(np.abs(got.m - want)) < 1e-14 * math.cosh(30)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            exp_series(Mat2C(np.diag([1500.0, -1500.0])))


class TestPolar:
    def test_identity(self):
        pd = polar_decompose(Mat2C.identity())
        assert pd.xi == 0.0
        assert np.max(np.abs(pd.boost.u)) == 0.0
        assert pd.rotation.distance(Mat2C.identity()) < 1e-15

    def test_scalar(self):
        pd = polar_decompose(Mat2C(3.0 * np.eye(2)))
        assert abs(pd.xi - math.log(9.0)) < 1e-14
        assert np.max(np.abs(pd.boost.u)) < 1e-14
        assert pd.rotation.distance(Mat2C.identity()) < 1e-14

    def test_unitary_input(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            u = su2_exp(rng.normal(size=3) * 2.0)
            pd = polar_decompose(u)
            assert abs(pd.xi) < 1e-12
            assert np.max(np.abs(pd.boost.u)) < 1e-12
            assert pd.rotation.distance(u) < 1e-12

    def test_reconstruction_and_uniqueness(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            g = Mat2C(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            if g.det().real <= 0.1:
                continue
            # force a real determinant by dividing out its phase
            phase = cmath.exp(1j * cmath.phase(g.det()) / 2.0)
            g = Mat2C(g.m / phase)
            pd = polar_decompose(g)
            # g = e^{xi/2} exp(boost) rotation, with exp taken by the series oracle
            rebuilt = Mat2C(math.exp(pd.xi / 2.0) * (exp_series(from_coords(pd.boost)).m @ pd.rotation.m))
            assert rebuilt.distance(g) < 1e-11
            k = pd.rotation
            assert (k @ k.adjoint()).distance(Mat2C.identity()) < 1e-12
            assert pd.boost.in_H0(1e-12)
            # idempotence: re-decomposing the reconstruction reproduces the parts
            pd2 = polar_decompose(rebuilt)
            assert abs(pd2.xi - pd.xi) < 1e-11
            assert np.max(np.abs(pd2.boost.u - pd.boost.u)) < 1e-9
            assert pd2.rotation.distance(pd.rotation) < 1e-9

    def test_rejects_bad_determinant(self):
        with pytest.raises(NotInGLPlusError):
            polar_decompose(Mat2C(np.diag([1.0, -1.0])))
        with pytest.raises(NotInGLPlusError):
            polar_decompose(Mat2C(np.diag([1.0, 1j])))

    def test_det_realness_scales_with_the_entries(self):
        # A computed det rounds to about eps |g|_F^2 = eps 2cosh|X|, so Im det
        # is judged against 1e-12 max(1, |g|_F^2 / 2), not 1e-12 max(1, |det|).
        d = np.array([1.0, 2.0, 3.0]) / np.linalg.norm([1.0, 2.0, 3.0])
        g = Mat2C(exp_closed(vec(0.0, *(16.0 * d)), 1.0).m @ su2_exp([0.4, 1.2, -0.7]).m)
        assert abs(g.det().imag) > 1e-10  # far above 1e-12 max(1, |det g|)
        assert abs(polar_decompose(g).xi) < 1e-8
        near = Mat2C(su2_exp([0.3, 1.1, -0.6]).m * cmath.sqrt(1.0 + 1e-6j))
        with pytest.raises(NotInGLPlusError, match="not real"):
            polar_decompose(near)


    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_long_boost_overflowing_only_the_squares(self, sign):
        # |X| = 200 ln 10 = 460.5: the squares of g1 g1*'s traceless part overflow,
        # |g1|_F^2 = 1e200 does not, and the boost is read exactly.
        length = 200.0 * math.log(10.0)
        g1 = Mat2C(np.diag([10.0 ** (100 * sign), 10.0 ** (-100 * sign)]))
        pd = polar_decompose(g1)
        assert pd.xi == 0.0
        assert abs(pd.boost.u[3] - sign * length) <= 1e-15 * length
        assert np.count_nonzero(pd.boost.u) == 1
        assert distance_lower_bound(g1) == abs(pd.boost.u[3])
        assert np.array_equal(pd.rotation.m, np.eye(2))

    @pytest.mark.parametrize(
        "m",
        [
            # det rounds to within 1e-12 |g|_F^2 / 2 of the reals, but g1 misses SL(2,C)
            np.array([[math.cosh(5.0), math.sinh(5.0)], [math.sinh(5.0), math.cosh(5.0)]])
            @ np.diag([1.0, cmath.exp(1e-9j)]),
            # |g|_F^2 overflows, so Im det is judged against |det g|
            np.diag([1e154, 1e154 * cmath.exp(1j * math.pi / 4.0)]),
        ],
        ids=["slightly-complex-det", "overflowing-frobenius"],
    )
    def test_det_split_applies_the_unimodular_rule(self, m):
        # polar_decompose and causal_relation refuse what causal_classify refuses, and
        # with the same message.
        g = Mat2C(m)
        for call in (polar_decompose, causal_classify, lambda g: causal_relation(Mat2C.identity(), g)):
            with pytest.raises(NotInGLPlusError, match=r"^determinant .* is not real$"):
                call(g)

    @given(st.floats(0.0, 709.0), st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3))
    @settings(max_examples=200, derandomize=True)
    def test_polar_rotation_rounds_to_eps_property(self, length, direction, c):
        # k = (g1 + adj(g1)*) / sqrt(det) is linear in the entries: g1 = exp(X) k0
        # gives back k0 to a few eps at any length whose |g1|_F^2 is finite.
        assume(np.linalg.norm(direction) > 1e-3)
        d = np.array(direction) / np.linalg.norm(direction)
        k0 = su2_exp(c).m
        k = _polar(exp_closed(vec(0.0, *(length * d)), 1.0).m @ k0)[1]
        assert np.linalg.norm(k - k0) <= 4.0 * np.finfo(float).eps

    @staticmethod
    def _long_targets(length, n):
        """e^{(|X| + 1)/2} exp(X) k0, det e^{|X| + 1}, for n random X of the given length and k0."""
        rng = np.random.default_rng(11)
        for _ in range(n):
            x = rng.normal(size=3)
            g1 = exp_closed(vec(0.0, *(length * x / np.linalg.norm(x))), 1.0).m
            yield Mat2C(math.exp((length + 1.0) / 2.0) * g1 @ su2_exp(rng.uniform(-math.pi, math.pi, 3)).m)

    def test_det_below_its_rounding_is_refused(self):
        # det g rounds to about eps (|g11 g22| + |g12 g21|), up to eps cosh|X| det g, so
        # xi = ln det g is good to about eps cosh|X|: at |X| = 30 to 2e-3, at |X| = 40 not at all.
        for g in self._long_targets(30.0, 10):
            assert abs(det_split(g)[0] - 31.0) < 1e-2
        for g in self._long_targets(40.0, 10):
            for call in (polar_decompose, causal_classify, lambda g: causal_relation(Mat2C.identity(), g),
                         longest_arc):
                with pytest.raises(NotInGLPlusError, match=r"is below its rounding error .* = 8 eps "):
                    call(g)

    def test_singular_input(self):
        g = Mat2C(np.diag([1e-151, 1e-151]))  # det = 1e-302 > 0, below 1e-300
        with pytest.raises(NotInGLPlusError, match="matrix is singular"):
            det_split(g)
        with pytest.raises(ZeroDivisionError, match="matrix is singular"):
            g.inverse()


class TestRotationHelpers:
    def test_su2_exp_matches_series(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            c = rng.normal(size=3) * rng.uniform(0.1, 3.0)
            gen = sum(c[i] * basis_matrix(4 + i).m for i in range(3))
            assert su2_exp(c).distance(exp_series(Mat2C(gen))) < 1e-13

    def test_su2_exp_is_special_unitary(self):
        m = su2_exp([0.3, -1.2, 2.2])
        assert m.is_unitary(1e-14)
        assert abs(m.det() - 1.0) <= 1e-14

    # float.hex of (re, im) for the entries m00, m01, m10, m11: the bits the
    # shooting stage, aligning_rotation and the extremal paths rely on.
    # A list, not a dict: (0.0, 0.0, 0.0) and (0.0, -0.0, -0.0) are equal keys.
    SU2_BITS = [
        ((1e-9, -2e-9, 3e-9), (  # |c| < SMALL_W
            "0x1.0000000000000p+0", "0x1.9c511dc3a41dfp-30", "0x1.12e0be826d695p-30",
            "0x1.12e0be826d695p-31", "-0x1.12e0be826d695p-30", "0x1.12e0be826d695p-31",
            "0x1.0000000000000p+0", "-0x1.9c511dc3a41dfp-30")),
        ((2 * math.pi, 0.0, 0.0), (
            "-0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x1.1a62633145c07p-53",
            "0x0.0p+0", "0x1.1a62633145c07p-53", "-0x1.0000000000000p+0", "0x0.0p+0")),
        ((0.3, -1.2, 2.2), (
            "0x1.3742fc9dbad58p-2", "0x1.a92dad3747cf6p-1", "0x1.cfd4bcf67ce23p-2",
            "0x1.cfd4bcf67ce23p-4", "-0x1.cfd4bcf67ce23p-2", "0x1.cfd4bcf67ce23p-4",
            "0x1.3742fc9dbad58p-2", "-0x1.a92dad3747cf6p-1")),
        ((-0.0, -0.0, -5.0), (
            "-0x1.9a2f7ef858b7dp-1", "-0x1.326af0dcfcab1p-1", "-0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "-0x1.9a2f7ef858b7dp-1", "0x1.326af0dcfcab1p-1")),
        ((4.0, -3.0, 7.5), (  # |c| > 2 pi: sin(|c|/2) < 0
            "-0x1.a1cebd42d204ap-3", "-0x1.a10ceb8782127p-1", "-0x1.4da3ef9f9b420p-2",
            "-0x1.bcda94d4cf02ap-2", "0x1.4da3ef9f9b420p-2", "-0x1.bcda94d4cf02ap-2",
            "-0x1.a1cebd42d204ap-3", "0x1.a10ceb8782127p-1")),
        ((0.0, 0.0, 0.0), (
            "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0")),
        # signed zeros: each case fixes the sign of a zero entry part
        ((-0.0, -0.0, 5.0), (
            "-0x1.9a2f7ef858b7dp-1", "0x1.326af0dcfcab1p-1", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "-0x1.9a2f7ef858b7dp-1", "-0x1.326af0dcfcab1p-1")),
        ((-0.0, 0.0, 7.1), (
            "-0x1.d5e3eb29c37a4p-1", "-0x1.96ae0258a35d0p-2", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "-0x1.d5e3eb29c37a4p-1", "0x1.96ae0258a35d0p-2")),
        ((0.0, -0.0, -0.0), (
            "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0")),
    ]

    # ProductExpParams(alpha).point(t) for t = 0, 0.9, 2.5.
    POINT_BITS = [
        ((1.25, 0.3, -0.4, 0.5, 0.2, 0.7, -0.1), (  # generic
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
             "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
            ("0x1.0efc649fb0d92p+1", "-0x1.327a6fb35b96cp-9", "0x1.5a1c42952de29p-2",
             "-0x1.80089e869e00fp-2", "0x1.41a065a850161p-2", "0x1.68fab65f7144bp-2",
             "0x1.914989a164a78p+0", "0x1.36f55ca3f3facp-9"),
            ("0x1.9fa2a5cd5b7a6p+2", "0x1.420dbe2d7ac9ap-3", "0x1.a4c70a97b339fp+1",
             "-0x1.05a4147b21665p+2", "0x1.0ff8b3525cdabp+1", "0x1.5b22f76ed9d7cp+1",
             "0x1.92351f229dd38p+2", "-0x1.def5a67320535p-4"))),
        ((1.1, 0.6, -0.2, 0.3, 0.0, 0.0, 0.0), (  # beta = 0
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
             "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
            ("0x1.f29d2a8b15713p+0", "0x0.0p+0", "0x1.cd1a63c8a7419p-2", "-0x1.3366ed306f811p-3",
             "0x1.cd1a63c8a7419p-2", "0x1.3366ed306f811p-3", "0x1.7f569198eba0dp+0", "0x0.0p+0"),
            ("0x1.cfdf8453ad9c3p+2", "0x0.0p+0", "0x1.ae06a420a69bcp+1", "-0x1.1eaf1815c467ep+0",
             "0x1.ae06a420a69bcp+1", "0x1.1eaf1815c467ep+0", "0x1.f1b86486b49cap+1", "0x0.0p+0"))),
        ((1.0, 0.6, 0.0, -0.8, 1.2, 0.0, -1.6), (  # beta = 2 alpha
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
             "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
            ("0x1.255da7aac1826p+0", "-0x1.2000000000000p-53", "0x1.c063dc01121c2p-2",
             "0x1.e000000000000p-54", "0x1.c063dc01121c2p-2", "0x1.e000000000000p-54",
             "0x1.2825728066ca9p+1", "0x1.2000000000000p-53"),
            ("0x1.0f22cbd4726b2p+1", "-0x1.0000000000000p-51", "0x1.ad68637d57414p+1",
             "0x0.0p+0", "0x1.ad68637d57414p+1", "0x0.0p+0", "0x1.620e4a9e01710p+3",
             "-0x1.0000000000000p-51"))),
        ((0.5, 0.0, -0.0, 0.0, 0.3, -1.1, 0.4), (  # alpha_vec = 0
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
             "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
            ("0x1.409838b614fa8p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
             "0x0.0p+0", "0x0.0p+0", "0x1.409838b614fa8p+0", "0x0.0p+0"),
            ("0x1.de455df80e3c0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
             "0x0.0p+0", "0x0.0p+0", "0x1.de455df80e3c0p+0", "0x0.0p+0"))),
    ]

    @staticmethod
    def hex_entries(m: Mat2C) -> tuple:
        return tuple(x.hex() for z in m.m.ravel().tolist() for x in (z.real, z.imag))

    @pytest.mark.parametrize("c, bits", SU2_BITS)
    def test_su2_exp_bits_pinned(self, c, bits):
        assert self.hex_entries(su2_exp(list(c))) == bits

    @pytest.mark.parametrize("alpha, bits", POINT_BITS)
    def test_product_point_bits_pinned(self, alpha, bits):
        p = ProductExpParams(np.array(alpha))
        assert tuple(self.hex_entries(p.point(t)) for t in (0.0, 0.9, 2.5)) == bits

    def test_aligning_rotation_bits_pinned(self):
        s, _ = aligning_rotation([0.0, 1.0, 0.0])  # axis (0, 0, -1): zero components
        assert self.hex_entries(s) == (
            "0x1.6a09e667f3bcdp-1", "-0x1.6a09e667f3bccp-1", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x1.6a09e667f3bcdp-1", "0x1.6a09e667f3bccp-1")

    def test_aligning_rotation(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            v = rng.normal(size=3)
            s, R = aligning_rotation(v)
            aligned = R @ v
            assert abs(aligned[0] - np.linalg.norm(v)) < 1e-12
            assert np.max(np.abs(aligned[1:])) < 1e-12
            assert s.is_unitary(1e-12) and abs(s.det() - 1.0) <= 1e-12

    def test_aligning_rotation_antipodal(self):
        s, R = aligning_rotation(np.array([-2.0, 0.0, 0.0]))
        assert np.max(np.abs(R @ np.array([-2.0, 0, 0]) - np.array([2.0, 0, 0]))) < 1e-14
        assert s.is_unitary(1e-14)

    def test_adjoint_action_matches_rotation(self):
        # conjugation by su2_from_axis_angle rotates H0 coordinates by the same matrix
        rng = np.random.default_rng(53)
        from sublorentz.expmap import su2_from_axis_angle

        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = 1.234
        s = su2_from_axis_angle(axis, angle)
        R = axis_angle_rotation(axis, angle)
        x = rng.normal(size=3)
        x_mat = sum(x[i] * basis_matrix(1 + i).m for i in range(3))
        conj = Mat2C(s.m @ x_mat @ s.m.conj().T)
        assert np.max(np.abs(to_coords(conj).u[1:4] - R @ x)) < 1e-13


class TestProductExpParams:
    def test_coefficients_match_two_factor(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            p = ProductExpParams(rng.uniform(-2, 2, 7))
            t = rng.uniform(-3, 3)
            assert p.point(t).distance(p.point_two_factor(t)) < 1e-11

    def test_removable_singularities(self):
        p = ProductExpParams(np.array([0.5, 1, 0, 0, 0, 0, 0.0]))
        assert p.w2 == 0.0
        assert sinc_scaled(p.w2, 1.7) == 1.7
        q = ProductExpParams(np.array([0.0, 1.0, 0, 0, 0, 1.0, 0]))  # w1 = 0
        assert abs(q.w1) == 0.0
        assert sinch(q.w1, 0.9) == 0.9

    @staticmethod
    def _unit(rng):
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    @pytest.mark.parametrize("case", ["generic", "beta-zero", "w1-small", "w2-small", "one-time", "no-time",
                                      "alpha-vec-zero", "long", "cosh-overflow"])
    def test_sample_rows_are_point_and_control_bits(self, case):
        rng = np.random.default_rng([73, len(case)])
        alpha = rng.uniform(-2, 2, 7)
        alpha[rng.random(7) < 0.3] = -0.0
        ts = np.concatenate([[0.0, -0.0], rng.uniform(-3, 3, 9)])
        if case == "beta-zero":
            alpha[4:7] = 0.0
        elif case == "w1-small":  # unit alpha_vec orthogonal to a unit beta_vec
            a, b = self._unit(rng), rng.normal(size=3)
            b -= b.dot(a) * a
            alpha[1:4], alpha[4:7] = a, b / np.linalg.norm(b)
        elif case == "w2-small":
            alpha[4:7] = 1e-9 * self._unit(rng)
        elif case == "one-time":
            ts = ts[-1:]
        elif case == "no-time":
            ts = ts[:0]
        elif case == "alpha-vec-zero":
            alpha[1:4] = 0.0
        elif case == "long":  # whole SIMD lanes, not only loop tails
            ts = np.concatenate([ts, rng.uniform(-3, 3, 250)])
        elif case == "cosh-overflow":  # |w1| near 150: cmath.cosh raises from t near 4.7
            alpha[0], alpha[1:4] = 0.0, 300.0 * self._unit(rng)
            ts = np.linspace(0.0, 6.0, 101)
        p = ProductExpParams(alpha)
        assert case != "w1-small" or abs(p.w1) < SMALL_W
        assert case != "w2-small" or abs(p.w2) < SMALL_W
        want = []
        try:
            want.extend(p.point(t).m.tobytes() for t in ts.tolist())
        except (ArithmeticError, ValueError) as e:  # the array pass must raise what the first bad time raises
            assert case == "cosh-overflow" and isinstance(e, OverflowError) and len(want) > 50
            with pytest.raises(type(e), match=re.escape(str(e))):
                p.point_rows(ts)
            ts = ts[:len(want)]
        assert case != "cosh-overflow" or len(ts) < 101
        points, controls = p.point_rows(ts), p.control_rows(ts)
        assert len(points) == len(controls) == len(ts)
        b_vec = alpha[4:7]
        nb = math.sqrt(sum(x * x for x in b_vec.tolist()))  # term by term (starting from an exact 0)
        for t, point, control, point_bytes in zip(ts.tolist(), points, controls, want):
            assert point.tobytes() == point_bytes
            assert control.tobytes() == p.control(t).u.tobytes()
            # one scalar-angle Rodrigues product per time, its matrix-vector sums in index order
            a_vec = alpha[1:4]
            if nb != 0.0:
                R = axis_angle_rotation(b_vec / nb, t * nb)
                a_vec = R[:, 0] * a_vec[0] + R[:, 1] * a_vec[1] + R[:, 2] * a_vec[2]
            assert control.tobytes() == np.concatenate([alpha[:1], a_vec, np.zeros(4)]).tobytes()

    def test_sample_evaluates_the_curve_once(self, monkeypatch):
        # point_rows hands all its times to one `_curve_coefficients` call.
        calls = []
        real = expmap._curve_coefficients
        monkeypatch.setattr(expmap, "_curve_coefficients", lambda *args: calls.append(0) or real(*args))
        p = ProductExpParams(np.array([1.3, 0.4, -0.2, 0.6, 0.5, 0.1, -0.7]))
        assert p.point_rows(np.linspace(0.0, 2.0, 101)).shape == (101, 2, 2)
        assert len(calls) == 1

    def test_sample_reports_the_first_bad_time_first(self):
        # w1 = nan + inf i and w2 = inf: point(0) is non-finite without raising,
        # while point(5e9) raises in math.cos(inf); the per-time order decides.
        with np.errstate(over="ignore", invalid="ignore"):
            p = ProductExpParams([math.sqrt(2.0), 1.0, 0.0, 0.0, 1e300, 0.0, 0.0])
        with pytest.raises(ValueError, match="math domain error"):
            p.point_rows([5e9])
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            p.point_rows([0.0, 5e9])


def test_real_coefficients_give_hermitian_matrix():
    a = ComplexAlgVec.from_reals([0.7, -1.2, 0.4, 2.0])
    assert a.matrix().is_hermitian(1e-15)
