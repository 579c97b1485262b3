"""Closed-form exponentials and the polar decomposition on GL+(2,C).

A matrix A = sum_i z_i e_i with complex coefficients z_0..z_3 over the
Hermitian half-basis satisfies A = (z_0/2) I + N with N^2 = w^2 I, where
w = (1/2) sqrt(z_1^2 + z_2^2 + z_3^2).  Hence

  exp(tA) = e^{z_0 t/2} ( cosh(wt) I + (sinh(wt)/w) (z_1 e_1 + z_2 e_2 + z_3 e_3) )

for any square-root branch (cosh is even, sinh(wt)/w is even in w).  The
product-of-exponentials curve exp(t sum_i a_i e_i) exp(-t sum_{i=4..6} a_i e_i)
has closed-form coefficients handled by `ProductExpParams`.

`exp_series` is an independent scaling-and-squaring Taylor oracle used to
cross-validate every closed form in the test suite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgCoords, Mat2C, NotInGLPlusError, _frozen_array, coeff_entries, to_coords

# Below this magnitude of w, sinh(wt)/w and sin(wt)/w switch to a 3-term even
# Taylor expansion to avoid cancellation; the switch is continuous in (w, t).
SMALL_W = 1e-8

# Taylor terms `exp_series` sums at most; the scaled argument has norm <= 1/4.
_SERIES_TERMS = 40


def sinch(w: complex, t: float) -> complex:
    """sinh(w t)/w, continuous through w = 0 (value t there)."""
    if abs(w) < SMALL_W:
        x2 = (w * t) ** 2
        return t * (1.0 + x2 / 6.0 + x2 * x2 / 120.0)
    return cmath.sinh(w * t) / w


def sinc_scaled(w: float, t: float) -> float:
    """sin(w t)/w for real w >= 0, continuous through w = 0 (value t there)."""
    if abs(w) < SMALL_W:
        x2 = (w * t) ** 2
        return t * (1.0 - x2 / 6.0 + x2 * x2 / 120.0)
    return math.sin(w * t) / w


@dataclass(frozen=True, eq=False)
class ComplexAlgVec:
    """Coefficients z0..z3 of A = sum z_i e_i with complex z_i."""

    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", _frozen_array(self.z, complex, (4,), "coefficients"))

    @classmethod
    def from_reals(cls, coeffs) -> "ComplexAlgVec":
        return cls(np.asarray(coeffs, dtype=complex))

    @property
    def w(self) -> complex:
        """Principal branch of (1/2) sqrt(z1^2 + z2^2 + z3^2); results are branch-independent."""
        return 0.5 * cmath.sqrt(complex(self.z[1] ** 2 + self.z[2] ** 2 + self.z[3] ** 2))

    def matrix(self) -> Mat2C:
        return Mat2C(np.reshape(coeff_entries(*self.z.tolist(), 0j, 0j, 0j, 0j), (2, 2)))


def exp_closed(a: ComplexAlgVec, t: float) -> Mat2C:
    """Closed-form exp(t sum z_i e_i); the w = 0 case degenerates to I + t*(traceless part)."""
    w = a.w
    m1 = cmath.cosh(w * t)
    n1 = sinch(w, t)
    scale = cmath.exp(a.z[0] * t / 2.0)
    traceless = np.reshape(coeff_entries(0j, *a.z[1:].tolist(), 0j, 0j, 0j, 0j), (2, 2))
    return Mat2C(scale * (m1 * np.eye(2, dtype=complex) + n1 * traceless))


def exp_series(m: Mat2C) -> Mat2C:
    """Matrix exponential by scaling-and-squaring with a truncated power series.

    Independent oracle: makes no use of the closed forms.  The argument is
    scaled so the Taylor series converges to machine precision; relative
    residual is below 1e-14 for norms up to ~32.  Extreme norms that would
    overflow double precision raise OverflowError explicitly.
    """
    a = m.m
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    if norm > 700.0:
        raise OverflowError(
            f"matrix exponential overflows double precision: norm {norm:.3g} > 700"
        )
    s = max(0, int(math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0)
    x = a / (2.0**s)
    acc = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, _SERIES_TERMS + 1):
        term = term @ x / k
        acc = acc + term
        if np.max(np.abs(term)) <= 1e-18 * np.max(np.abs(acc)):
            break
    for _ in range(s):
        acc = acc @ acc
    return Mat2C(acc)


@dataclass(frozen=True)
class PolarDecomposition:
    """g = e^{xi/2} exp(boost) rotation with boost in H0 and rotation in SU(2)."""

    xi: float
    boost: AlgCoords
    rotation: Mat2C


def _frobenius_sq(g: Mat2C) -> float:
    """|g|_F^2: a product of g with itself, such as det g, rounds to about eps times this."""
    return float(np.sum(np.abs(g.m) ** 2))


def det_split(g: Mat2C) -> tuple[float, np.ndarray]:
    """(xi, g1) with g = e^{xi/2} g1 and det g1 = 1, so xi = ln det g.

    Requires det(g) real and positive and not below 1e-300 in magnitude;
    raises NotInGLPlusError otherwise.  Real means |Im det| <= 1e-12 max(1,
    |g|_F^2 / 2): a computed det rounds to about eps |g|_F^2, which grows as
    2 cosh|X| on a boost-rotation of length |X| (|g|_F^2 >= 2 |det|).
    """
    d = g.det()
    if abs(d.imag) > 1e-12 * max(1.0, _frobenius_sq(g) / 2.0):
        raise NotInGLPlusError(f"determinant {d} is not real")
    if d.real <= 0.0:
        raise NotInGLPlusError(f"determinant {d} is not positive")
    if abs(d) < 1e-300:
        raise NotInGLPlusError("matrix is singular")
    xi = math.log(d.real)
    return xi, math.exp(-xi / 2.0) * g.m


def polar_decompose(g: Mat2C, unimodular: bool = False) -> PolarDecomposition:
    """Unique factorization g = e^{xi/2} exp(X) k, X traceless Hermitian, k unitary.

    Requires det(g) real and positive (see `det_split`); unimodular=True takes
    det(g) = 1 as checked by the caller, so xi = 0 and g is not rescaled by its
    computed det, which cancels to eps |g|^2.  X is half of log(g1 g1*), whose
    eigenvalues e^{+-|X|} differ by the length r of its traceless part:
    |X| = asinh(r/2) is exact to rounding for every |X|, where
    log(lambda_max / lambda_min) cancels on long boosts.
    """
    xi, g1 = (0.0, g.m) if unimodular else det_split(g)
    h = to_coords(Mat2C(g1 @ g1.conj().T)).u
    r = math.sqrt(h[1] ** 2 + h[2] ** 2 + h[3] ** 2)
    half = np.zeros(8)
    if r > 0.0:
        half[1:4] = (math.asinh(r / 2.0) / r) * h[1:4]
    boost = AlgCoords(half)
    p_inv = exp_closed(ComplexAlgVec.from_reals(-half[:4]), 1.0)
    k = Mat2C(p_inv.m @ g1)
    return PolarDecomposition(xi, boost, k)


def su2_entries(c0: float, c1: float, c2: float, n: float) -> tuple[complex, ...]:
    """Entries (m00, m01, m10, m11) of exp(c0 e_4 + c1 e_5 + c2 e_6), given n = |c|.

    cos(n/2) I + i sin(n/2)/n (c0 sigma_1 + c1 sigma_2 + c2 sigma_3), not via
    `coeff_entries` (3.5 us more per shooting evaluation).  The zero terms (0.0 +,
    cs * 0j, c2 * 0j) give each zero entry part the sign the matrix sum gives it.
    """
    cs = math.cos(n / 2.0)
    s = sinc_scaled(n, 0.5)  # sin(n/2)/n, continuous at 0
    off = cs * 0j
    return (complex(cs, 0.0 + s * c2), off + 1j * s * (c0 + c1 * 1j + c2 * 0j),
            off + 1j * s * (c0 + c1 * -1j), complex(cs, 0.0 - s * c2))


def su2_exp(c) -> Mat2C:
    """exp(c1 e_4 + c2 e_5 + c3 e_6) = cos(|c|/2) I + i sin(|c|/2) (c_hat . sigma)."""
    c = np.asarray(c, dtype=float)
    c0, c1, c2 = c.tolist()
    m00, m01, m10, m11 = su2_entries(c0, c1, c2, float(np.linalg.norm(c)))
    return Mat2C(np.array([[m00, m01], [m10, m11]]))


def axis_angle_rotation(axis, angle) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis; one per angle for an array of angles.

    sin and cos are `math` calls per angle: each matrix has the bits of its scalar call.
    """
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    K = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    angles = np.asarray(angle, dtype=float)[..., None, None]
    sin, cos = (np.frompyfunc(f, 1, 1)(angles).astype(float) for f in (math.sin, math.cos))
    return np.eye(3) + sin * K + (1 - cos) * (K @ K)


def precess(alpha: np.ndarray, beta: np.ndarray, ts) -> np.ndarray:
    """alpha rotated about beta by the angle t |beta|, one row per t in ts (alpha when beta = 0).

    Row t is the H0 part of the control along gamma(t) = exp(t(a+b)) exp(-tb).
    """
    nb = float(np.linalg.norm(beta))
    if nb == 0.0:
        return np.tile(alpha, (len(ts), 1))
    angles = [t * nb for t in np.asarray(ts, dtype=float).tolist()]
    return axis_angle_rotation(beta / nb, angles) @ alpha


def su2_from_axis_angle(axis, angle: float) -> Mat2C:
    """SU(2) element whose adjoint action rotates coordinate 3-vectors by (axis, angle)."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    return su2_exp(angle * n)


def aligning_rotation(v) -> tuple[Mat2C, np.ndarray]:
    """(s, R) with R rotating v onto the positive first axis and Ad(s) acting as R.

    For v already along +x returns the identity; for v along -x a half-turn
    about the third axis is used.
    """
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return Mat2C.identity(), np.eye(3)
    u = v / nv
    target = np.array([1.0, 0.0, 0.0])
    axis = np.cross(u, target)
    s_norm = float(np.linalg.norm(axis))
    c = float(np.dot(u, target))
    if s_norm < 1e-12:
        if c > 0:
            return Mat2C.identity(), np.eye(3)
        axis, angle = np.array([0.0, 0.0, 1.0]), math.pi
    else:
        axis = axis / s_norm
        angle = math.atan2(s_norm, c)
    R = axis_angle_rotation(axis, angle)
    return su2_from_axis_angle(axis, angle), R


def _curve_w(a: np.ndarray) -> tuple[complex, float]:
    """(w1, w2) of the seven constants a of `ProductExpParams` (a float array)."""
    w1 = 0.5 * cmath.sqrt(complex(
        (a[1] + 1j * a[4]) ** 2 + (a[2] + 1j * a[5]) ** 2 + (a[3] + 1j * a[6]) ** 2))
    w2 = 0.5 * math.sqrt(a[4] ** 2 + a[5] ** 2 + a[6] ** 2)
    return w1, w2


def _curve_coefficients(a: list, w1: complex, w2: float, t: float) -> tuple[complex, ...]:
    """`ProductExpParams.coefficients` of the constants a (seven floats) with `_curve_w(a)`.

    A plain function, so a caller that evaluates many constants (the polish in
    `subriemannian`) builds no object per evaluation.
    """
    m1, n1 = cmath.cosh(w1 * t), sinch(w1, t)
    m2, n2 = math.cos(w2 * t), sinc_scaled(w2, t)
    ee = math.exp(a[0] * t / 2.0)
    mix = n1 * n2
    swing = ee * (m2 * n1 - m1 * n2)
    return (
        2.0 * ee * (m1 * m2 + mix * w2 * w2),
        0.5 * ee * n1 * (2.0 * a[1] * m2 + (a[3] * a[5] - a[2] * a[6]) * n2),
        0.5 * ee * n1 * (2.0 * a[2] * m2 + (a[1] * a[6] - a[3] * a[4]) * n2),
        0.5 * ee * n1 * (2.0 * a[3] * m2 + (a[2] * a[4] - a[1] * a[5]) * n2),
        swing * a[4], swing * a[5], swing * a[6],
        -0.5 * ee * mix * (a[1] * a[4] + a[2] * a[5] + a[3] * a[6]),
    )


@dataclass(frozen=True, eq=False)
class ProductExpParams:
    """Seven real constants driving the product-of-exponentials curve.

    The curve g(t) = exp(t sum_{i=0..6} a_i e_i) exp(-t sum_{i=4..6} a_i e_i)
    evaluates in closed form through the scalar functions

      w1 = (1/2) sqrt((a1+i a4)^2 + (a2+i a5)^2 + (a3+i a6)^2)
      w2 = (1/2) sqrt(a4^2 + a5^2 + a6^2)
      m1 = cosh(w1 t),  n1 = sinh(w1 t)/w1,  m2 = cos(w2 t),  n2 = sin(w2 t)/w2

    (n1, n2 take the value t at w = 0).  The coefficient formulas below are a
    matrix identity over complex scalars; the assembled matrix is exact.  w1
    and w2 depend on alpha alone and are evaluated once, on construction.
    """

    alpha: np.ndarray
    w1: complex = field(init=False, repr=False)
    w2: float = field(init=False, repr=False)

    def __post_init__(self):
        a = _frozen_array(self.alpha, float, (7,), "constants")
        object.__setattr__(self, "alpha", a)
        # Huge constants overflow here to inf/nan, which the finiteness checks on
        # the sampled matrices then reject; numpy's warning would only be noise.
        with np.errstate(over="ignore", invalid="ignore"):
            w1, w2 = _curve_w(a)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)

    def coefficients(self, t: float) -> tuple[complex, ...]:
        """Complex coefficients (c0..c6, c7) of g(t) over {e_0..e_6, i e_0}."""
        return _curve_coefficients(self.alpha.tolist(), self.w1, self.w2, t)

    def control(self, t: float) -> AlgCoords:
        """The control g^-1 g'(t) = Ad(exp(t b)) a = (a0, precess(a_vec, b_vec, t), 0)."""
        return AlgCoords(self.control_rows([t])[0])

    def control_rows(self, ts) -> np.ndarray:
        """(N, 8) array whose row j holds the coordinates of `control(ts[j])`."""
        a, n = self.alpha, len(ts)
        return np.column_stack([np.full(n, a[0]), precess(a[1:4], a[4:7], ts), np.zeros((n, 4))])

    def point(self, t: float) -> Mat2C:
        return Mat2C(np.reshape(coeff_entries(*self.coefficients(t)), (2, 2)))

    def point_rows(self, ts) -> np.ndarray:
        """(N, 2, 2) array whose row j holds the entries of `point(ts[j])`, bit for bit."""
        rows = []
        a, w1, w2 = self.alpha.tolist(), self.w1, self.w2
        try:
            rows.extend(coeff_entries(*_curve_coefficients(a, w1, w2, t))
                        for t in np.asarray(ts, float).tolist())
        except (ArithmeticError, ValueError):  # as with `point`, an earlier non-finite row fails first
            Mat2C.rows(np.reshape(rows, (-1, 2, 2)))
            raise
        return np.reshape(rows, (-1, 2, 2))

    def sample(self, ts) -> tuple[tuple, tuple]:
        """(points, controls) of the curve at each time in ts, each one validated batch."""
        ts = np.asarray(ts, dtype=float)
        return Mat2C.rows(self.point_rows(ts)), AlgCoords.rows(self.control_rows(ts))

    def point_two_factor(self, t: float) -> Mat2C:
        """Same curve evaluated as an explicit product of the two exponentials."""
        a = self.alpha
        first = exp_closed(
            ComplexAlgVec(
                np.array(
                    [a[0], a[1] + 1j * a[4], a[2] + 1j * a[5], a[3] + 1j * a[6]],
                    dtype=complex,
                )
            ),
            t,
        )
        second = su2_exp(-t * a[4:7])
        return Mat2C(first.m @ second.m)
