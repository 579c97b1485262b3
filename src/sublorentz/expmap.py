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

from .algebra import AlgCoords, Mat2C, NotInGLPlusError, _frozen_array, coeff_entries, coords

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
        return _half_root(self.z)

    def matrix(self) -> Mat2C:
        return Mat2C(np.reshape(coeff_entries(*self.z.tolist(), 0j, 0j, 0j, 0j), (2, 2)))


def _half_root(z: np.ndarray) -> complex:  # `ComplexAlgVec.w`: inf or nan, unwarned, on overflow
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * cmath.sqrt(complex(z[1] ** 2 + z[2] ** 2 + z[3] ** 2))


def _exp_array(z: np.ndarray, t: float) -> np.ndarray:
    """`exp_closed` of the complex coefficients z, (4,), as a (2, 2) array."""
    w = _half_root(z)
    m1 = cmath.cosh(w * t)
    n1 = sinch(w, t)
    traceless = np.reshape(coeff_entries(0j, *z[1:].tolist(), 0j, 0j, 0j, 0j), (2, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan entries, which Mat2C refuses
        return cmath.exp(z[0] * t / 2.0) * (m1 * np.eye(2, dtype=complex) + n1 * traceless)


def exp_closed(a: ComplexAlgVec, t: float) -> Mat2C:
    """Closed-form exp(t sum z_i e_i); the w = 0 case degenerates to I + t*(traceless part)."""
    return Mat2C(_exp_array(a.z, t))


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


def _unit_alpha(av: np.ndarray, zero: str) -> np.ndarray:
    """av / |av| for the `normalize` options: ValueError(zero) at av = 0, and one, not
    numpy's warning, when av is not finite or overflows |av|."""
    if not np.isfinite(av).all():
        raise ValueError("alpha_vec entries must be finite")
    with np.errstate(over="ignore"):
        n = np.linalg.norm(av)
    if n == 0.0 or n == math.inf:
        raise ValueError(zero if n == 0.0 else "|alpha_vec| overflows double precision")
    return av / n


def _frobenius_sq(g: np.ndarray) -> float:
    """|g|_F^2, inf past double precision: a product of g with itself, such as det g, rounds to eps times it."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(g) ** 2))


# The admission rule of targets.
_EPS = float(np.finfo(float).eps)
# det g1 may miss 1 by this many eps |g1|_F^2, about its own rounding error: the
# computed det of 1,800 float boost-rotations with |X| <= 20 (before and
# after dividing by sqrt det) and of 2,000 geodesic endpoints with T <= 10
# came within 2.6.  A det off by more is an input off SL(2,C), not rounding;
# `det_split` refuses a |det g| below this many eps (|g11 g22| + |g12 g21|).
_DET_ROUNDING = 8.0
# ...but never by less than this, the tolerance of inputs written near SU(2).
_UNIMODULAR_TOL = 1e-9


def _require_unimodular(g1: np.ndarray, refusal: ValueError | None = None) -> None:
    """Reject a (2, 2) g1 past double precision, or off SL(2,C) (|det g1 - 1| above
    max(_UNIMODULAR_TOL, _DET_ROUNDING eps |g1|_F^2)) with `refusal`."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = g1[0, 0] * g1[1, 1] - g1[0, 1] * g1[1, 0]
    frob = _frobenius_sq(g1)
    if not (cmath.isfinite(d) and math.isfinite(frob)):
        raise ValueError(f"target overflows double precision: det = {d}, |g1|_F^2 = {frob}")
    if abs(d - 1.0) > max(_UNIMODULAR_TOL, _DET_ROUNDING * _EPS * frob):
        raise refusal or ValueError(f"target must be unimodular, det = {d}")


def det_split(g: Mat2C) -> tuple[float, np.ndarray]:
    """(xi, g1) with g = e^{xi/2} g1 and det g1 = 1, so xi = ln det g.

    Requires det(g) finite, real and positive and not below 1e-300 in
    magnitude; raises NotInGLPlusError otherwise.  The computed det g11 g22 - g12 g21
    rounds to about eps (|g11 g22| + |g12 g21|), up to eps cosh|X| |det g| on a
    boost-rotation of length |X|, so xi is good to about eps cosh|X|, and a |det g| below
    _DET_ROUNDING times that scale is refused.  Real means |Im det| <= 1e-12 max(1, s),
    s = |g|_F^2 / 2, or s = |det g| once |g|_F^2 overflows, and g1 must then pass
    `_require_unimodular`, the rule `distance_shoot` applies to its target.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = g.det()
    if not cmath.isfinite(d):
        raise NotInGLPlusError(f"determinant {d} overflows double precision")
    rounding = _DET_ROUNDING * _EPS * float(abs(g.m[0, 0] * g.m[1, 1]) + abs(g.m[0, 1] * g.m[1, 0]))
    if abs(d) < rounding:
        raise NotInGLPlusError(f"determinant {d} is below its rounding error {rounding:.3e} "
                               f"= {_DET_ROUNDING:g} eps (|g11 g22| + |g12 g21|)")
    frob = _frobenius_sq(g.m)
    if abs(d.imag) > 1e-12 * max(1.0, frob / 2.0 if math.isfinite(frob) else abs(d)):
        raise NotInGLPlusError(f"determinant {d} is not real")
    if d.real <= 0.0:
        raise NotInGLPlusError(f"determinant {d} is not positive")
    if abs(d) < 1e-300:
        raise NotInGLPlusError("matrix is singular")
    xi = math.log(d.real)
    with np.errstate(over="ignore"):
        g1 = math.exp(-xi / 2.0) * g.m
    _require_unimodular(g1, NotInGLPlusError(f"determinant {d} is not real"))
    return xi, g1


def _polar(g1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, k) of the unimodular g1 = exp(X) k, (2, 2): x = X's H0 coordinates, (3,), and k.

    X is half of log(g1 g1*), whose eigenvalues e^{+-|X|} differ by the length r of its
    traceless part: |X| = asinh(r/2) is exact to rounding for every |X|, where log(lambda_max
    / lambda_min) cancels on long boosts.  g1 has passed `_require_unimodular`, so
    |g1|_F^2 and with it r are finite; where only the squares overflow (|X| past about 355),
    `math.hypot` takes r without them.  For g1 = P k, P positive definite, Cayley-Hamilton
    gives s = g1 + adj(g1)* = tr(P) k (Higham, Functions of Matrices, SIAM 2008, ch. 8), so
    k = s / sqrt(det s): linear in the entries, it rounds to eps at every length."""
    h = coords(g1 @ g1.conj().T)
    with np.errstate(over="ignore"):
        r = math.sqrt(h[1] ** 2 + h[2] ** 2 + h[3] ** 2)
    if r == math.inf:
        r = math.hypot(*h[1:4].tolist())
    x = (math.asinh(r / 2.0) / r) * h[1:4] if r > 0.0 else np.zeros(3)
    (a, b), (c, d) = g1.tolist()
    s = [a + d.conjugate(), b - c.conjugate(), c - b.conjugate(), d + a.conjugate()]
    root = cmath.sqrt(s[0] * s[3] - s[1] * s[2])
    return x, np.reshape([z / root for z in s], (2, 2))


def polar_decompose(g: Mat2C) -> PolarDecomposition:
    """Unique factorization g = e^{xi/2} exp(X) k, X traceless Hermitian, k unitary.

    Requires det(g) real and positive (see `det_split`).  X and k are `_polar`'s.
    """
    xi, g1 = det_split(g)
    x, k = _polar(g1)
    return PolarDecomposition(xi, AlgCoords(np.concatenate([[0.0], x, np.zeros(4)])), Mat2C(k))


def su2_exp(c) -> Mat2C:
    """exp(c1 e_4 + c2 e_5 + c3 e_6) = cos(|c|/2) I + i sin(|c|/2) (c_hat . sigma).

    Entry by entry, not via `coeff_entries`: the zero terms (0.0 +, cs * 0j,
    c2 * 0j) give each zero entry part the sign the matrix sum gives it.
    """
    c = np.asarray(c, dtype=float)
    c0, c1, c2 = c.tolist()
    n = float(np.linalg.norm(c))
    cs = math.cos(n / 2.0)
    s = sinc_scaled(n, 0.5)  # sin(n/2)/n, continuous at 0
    off = cs * 0j
    return Mat2C(np.array([[complex(cs, 0.0 + s * c2), off + 1j * s * (c0 + c1 * 1j + c2 * 0j)],
                           [off + 1j * s * (c0 + c1 * -1j), complex(cs, 0.0 - s * c2)]]))


def _norm3(v) -> float:
    """|v| of a 3-vector, term by term: the bits of a BLAS dot move with the OpenBLAS kernel."""
    x1, x2, x3 = v.tolist()
    return math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)


def _apply3(P, X) -> np.ndarray:  # P X for a 3x3 P (or a stack) and X of shape (3, ...), without BLAS
    return P[..., :1] * X[0] + P[..., 1:2] * X[1] + P[..., 2:] * X[2]


def axis_angle_rotation(axis, angle) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis; one per angle for an array of angles.

    sin and cos are `math` calls per angle: each matrix has the bits of its scalar call,
    and the norm and K^2 are explicit sums, so no BLAS kernel moves them.
    """
    n = np.asarray(axis, dtype=float)
    n = n / _norm3(n)
    K = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    angles = np.asarray(angle, dtype=float)[..., None, None]
    sin, cos = (np.frompyfunc(f, 1, 1)(angles).astype(float) for f in (math.sin, math.cos))
    return np.eye(3) + sin * K + (1 - cos) * _apply3(K, K)


def precess(alpha: np.ndarray, beta: np.ndarray, ts) -> np.ndarray:
    """alpha rotated about beta by the angle t |beta|, one row per t in ts (alpha when beta = 0).

    Row t is the H0 part of the control along gamma(t) = exp(t(a+b)) exp(-tb).
    """
    nb = _norm3(beta)
    if not math.isfinite(nb):
        raise ValueError("|beta_vec| overflows double precision")
    if nb == 0.0:
        return np.tile(alpha, (len(ts), 1))
    angles = [t * nb for t in np.asarray(ts, dtype=float).tolist()]
    return _apply3(axis_angle_rotation(beta / nb, angles), alpha[:, None])[..., 0]


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


def _curve_scalars(a0: float, w1: complex, w2: float, t: float) -> tuple:
    """(m1, n1, m2, n2, e^{a0 t/2}) of `ProductExpParams` at the time t."""
    return cmath.cosh(w1 * t), sinch(w1, t), math.cos(w2 * t), sinc_scaled(w2, t), math.exp(a0 * t / 2.0)


def _curve_coefficients(a: list, w1: complex, w2: float, t) -> tuple:
    """`ProductExpParams.coefficients` of the constants a (seven floats) with `_curve_w(a)`.

    A plain function, so a caller that evaluates many constants (the polish in
    `subriemannian`) builds no object per evaluation.  A float64 array t gives arrays,
    bit for bit the scalar ones: `_curve_scalars` runs per time, and every product
    after it has a real factor, so no fused multiply-add rounds differently (README).
    """
    if isinstance(t, np.ndarray):
        m1, n1, m2, n2, ee = (x.astype(d) for x, d in zip(
            np.frompyfunc(_curve_scalars, 4, 5)(a[0], w1, w2, t),
            (complex, complex, float, float, float)))
    else:
        m1, n1, m2, n2, ee = _curve_scalars(a[0], w1, w2, t)
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
        ts = np.asarray(ts, float)
        try:
            with np.errstate(all="ignore"):  # non-finite rows, as `point`'s scalars give them unwarned
                entries = coeff_entries(*_curve_coefficients(self.alpha.tolist(), self.w1, self.w2, ts))
        except (ArithmeticError, ValueError):  # raise what `point` raises at the first bad time
            for t in ts.tolist():
                self.point(t)
            raise
        return np.stack(entries, -1).reshape(-1, 2, 2)

    def point_two_factor(self, t: float) -> Mat2C:
        """Same curve evaluated as an explicit product of the two exponentials."""
        a = self.alpha
        first = _exp_array(np.array([a[0], a[1] + 1j * a[4], a[2] + 1j * a[5], a[3] + 1j * a[6]]), t)
        return Mat2C(first @ su2_exp(-t * a[4:7]).m)
