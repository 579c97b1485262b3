"""Closed-form exponential, series oracle, logarithm, polar decomposition."""

import cmath
import math

import numpy as np
import pytest

from sublorentz import (
    AlgCoords,
    ComplexAlgVec,
    Mat2C,
    NotHermitianError,
    NotInGLPlusError,
    NotPositiveDefiniteError,
    ProductExpParams,
    basis_matrix,
    exp_closed,
    exp_series,
    log_posdef,
    polar_decompose,
    su2_exp,
    to_coords,
)
from sublorentz.expmap import aligning_rotation, axis_angle_rotation, sinc_scaled, sinch


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


class TestLogPosdef:
    def test_identity(self):
        assert np.max(np.abs(log_posdef(Mat2C.identity()).u)) == 0.0

    def test_diagonal(self):
        got = log_posdef(Mat2C(np.diag([math.e, 1.0 / math.e])))
        assert np.max(np.abs(got.u - np.array([0, 0, 0, 2, 0, 0, 0, 0.0]))) < 1e-14

    def test_roundtrip_with_closed_form(self):
        got = log_posdef(exp_closed(vec(1, 1, 0, 0), 1.0))
        assert np.max(np.abs(got.u - np.array([1, 1, 0, 0, 0, 0, 0, 0.0]))) < 1e-12

    def test_roundtrip_random(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            x = rng.uniform(-1.5, 1.5, 4)  # |X| <= 3
            p = exp_series(ComplexAlgVec.from_reals(x).matrix())
            back = log_posdef(p)
            assert np.max(np.abs(back.u[:4] - x)) < 1e-10

    def test_error_codes_distinct(self):
        with pytest.raises(NotHermitianError):
            log_posdef(Mat2C(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)))
        with pytest.raises(NotPositiveDefiniteError):
            log_posdef(Mat2C(np.diag([1.0, -2.0])))
        with pytest.raises(NotPositiveDefiniteError):
            log_posdef(Mat2C(np.diag([1.0, 0.0])))


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
            assert pd.reconstruct().distance(g) < 1e-11
            k = pd.rotation
            assert (k @ k.adjoint()).distance(Mat2C.identity()) < 1e-12
            assert pd.boost.in_H0(1e-12)
            # idempotence: re-decomposing the reconstruction reproduces the parts
            pd2 = polar_decompose(pd.reconstruct())
            assert abs(pd2.xi - pd.xi) < 1e-11
            assert np.max(np.abs(pd2.boost.u - pd.boost.u)) < 1e-9
            assert pd2.rotation.distance(pd.rotation) < 1e-9

    def test_rejects_bad_determinant(self):
        with pytest.raises(NotInGLPlusError):
            polar_decompose(Mat2C(np.diag([1.0, -1.0])))
        with pytest.raises(NotInGLPlusError):
            polar_decompose(Mat2C(np.diag([1.0, 1j])))


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
        assert m.is_special(1e-14)

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

    @staticmethod
    def hex_entries(m: Mat2C) -> tuple:
        return tuple(x.hex() for z in m.m.ravel().tolist() for x in (z.real, z.imag))

    @pytest.mark.parametrize("c, bits", SU2_BITS)
    def test_su2_exp_bits_pinned(self, c, bits):
        assert self.hex_entries(su2_exp(list(c))) == bits

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
            assert s.is_unitary(1e-12) and s.is_special(1e-12)

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


def test_real_coefficients_give_hermitian_matrix():
    a = ComplexAlgVec.from_reals([0.7, -1.2, 0.4, 2.0])
    assert a.matrix().is_hermitian(1e-15)
