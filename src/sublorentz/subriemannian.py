"""Sub-Riemannian geometry of SL(2,C) with the traceless-Hermitian distribution.

Geodesics from the identity are products of two one-parameter subgroups,

  gamma(t) = exp(t(a + b)) exp(-t b),   a traceless Hermitian (|a| = 1),
                                        b skew-Hermitian traceless,

parametrized here by (alpha_vec, beta_vec) = coordinates of a and b.  The
distance from the identity to a positive definite Hermitian target exp(X) is
exactly |X| (one-parameter subgroups tangent to the distribution are metric
lines); the projection to hyperbolic 3-space SL(2,C)/SU(2) never increases
distance, so for g = exp(X) k (polar decomposition, k in SU(2)) the
hyperbolic distance |X| of the projection is a certified lower bound.  For
general targets the distance is bracketed: that bound below, best shooting
solution above.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from .algebra import AlgCoords, Mat2C, _frozen_array, coeff_entries, entry_coords, from_coords
from .expmap import (SMALL_W, ProductExpParams, _curve_coefficients, _curve_w, _frobenius_sq,
                     exp_series, polar_decompose, su2_entries)

_I2 = np.eye(2, dtype=complex)

# The decision thresholds of `distance_shoot` and of the causal class read
# off its bracket (`sublorentzian`), each named once.  The two
# scaled tests compare products of g1 with itself, whose rounding error is
# about eps |g1|_F^2 (Higham, Accuracy and Stability of Numerical
# Algorithms, SIAM 2002, ch. 3); |g1|_F^2 = 2 cosh|X| >= 2 on SL(2,C).
_EPS = float(np.finfo(float).eps)
# g1 is the identity when every entry is this close: far above the rounding
# of a product that should be I, far below any other target's distance.
_IDENTITY_TOL = 1e-12
# A length this small is zero: the fiber test on |X| (rotations read |X| <=
# 1e-15) and a root's time T in `_candidate`.
_ZERO_LENGTH = 1e-12
# g1 is a boost when its polar rotation is within this many eps |g1|_F^2 of
# I: 48,000 float boosts with |X| <= 22 came within 1.9, and the benchmark
# corpus's other targets sit at least 6.9e12 away.
_BOOST_ROUNDING = 4.0
# det g1 may miss 1 by this many eps |g1|_F^2, its own rounding error: the
# computed det of 1,800 float boost-rotations with |X| <= 20 (before and
# after dividing by sqrt det) and of 2,000 geodesic endpoints with T <= 10
# came within 2.6.  A det off by more is an input off SL(2,C), not rounding.
_DET_ROUNDING = 8.0
# ...but never by less than this, the tolerance of inputs written near SU(2).
_UNIMODULAR_TOL = 1e-9
# The polish runs only above this |X|: rotations (|X| <= 1e-15) can get no
# certified witness, and nine decades above them is still far below any
# boost-rotation of interest.
_POLISH_MIN_LOWER = 1e-6
# A polish trial point with T below this gets a flat residual 1e3 (its alpha is
# noise): T >= |X| > _POLISH_MIN_LOWER for a witness, so none is cut off.
_POLISH_ZERO_T = 1e-9
# A bracket at most this wide is exact, so the causal trichotomy is decided
# outright: boost brackets are [|X|, |X|], while the narrowest searched
# bracket of the 240 geodesic-built and boost-rotation targets of the
# benchmark corpus (seeds 1-6) is 3.2e-4 wide.
_EXACT_WIDTH = 1e-10
# xi = ln det g and an exact eta tie (isotropic) when they agree to this
# relative amount: each is known only to rounding, so an exact tie would never
# be seen, and 1e-9 is still a hundred times below the default tol.
_EXACT_TIE_TOL = 1e-9
# The batched shooting solve (`_dogleg_rows`) stops a row when its trust
# radius is below this times |x|, as MINPACK's `hybrd` does with xtol.
_ROOT_XTOL = 1e-13
# Roots that agree to this many decimals are one root: rows converge to
# _ROOT_XTOL, so repeated solves of one root agree to far more.
_ROOT_DIGITS = 9
# Forward-difference step of the shooting Jacobian, relative to |x_j|:
# sqrt(eps), MINPACK's `fdjac1` step with its default epsfcn.
_FD_STEP = math.sqrt(_EPS)
# A shooting row still open after this many dogleg steps fails.  On the 240
# geodesic-built and boost-rotation targets of the benchmark corpus (seeds
# 1-6), run to 150 steps, some row reaching the shortest certified root
# converges by step 28 on every target; later rows mostly stall on a
# non-root, and the batch runs until its last row stops.
_DOGLEG_ITERATIONS = 40
# The logarithm branches the multistart shoots on, in row order.
_BRANCHES = (0, 1, -1, 2, -2, 3, -3)


# The polish solver.  scipy.optimize takes longer to import than the rest of
# the package together, and only the polish of a non-boost distance needs it,
# so it is imported on the first polish.  `_polish_candidate` calls it through
# the module globals, where a caller may replace it.
def least_squares(*args, **kwargs):
    """`scipy.optimize.least_squares`, imported on the call."""
    from scipy.optimize import least_squares as _least_squares

    return _least_squares(*args, **kwargs)


def __getattr__(name):
    # `root` and `minimize` are unused here, but bench/spans.py wraps them by
    # name, so the attributes still resolve (and only then import scipy.optimize).
    if name in ("root", "minimize"):
        import scipy.optimize

        return getattr(scipy.optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True, eq=False)
class SRGeodesicParams:
    """Geodesic constants: unit alpha_vec in H0 coordinates, free beta_vec in su(2)."""

    alpha_vec: np.ndarray
    beta_vec: np.ndarray

    def __post_init__(self):
        a = _frozen_array(self.alpha_vec, float, (3,), "alpha_vec")
        b = _frozen_array(self.beta_vec, float, (3,), "beta_vec")
        if abs(np.dot(a, a) - 1.0) > 1e-12:
            raise ValueError(
                "alpha_vec must be a unit vector: |alpha|^2 - 1 = "
                f"{np.dot(a, a) - 1.0:.3e} exceeds 1e-12"
            )
        object.__setattr__(self, "alpha_vec", a)
        object.__setattr__(self, "beta_vec", b)

    @classmethod
    def normalized(cls, alpha_vec, beta_vec) -> "SRGeodesicParams":
        """Construct with alpha_vec rescaled to unit length (rejects the zero vector)."""
        a = np.asarray(alpha_vec, dtype=float)
        n = np.linalg.norm(a)
        if n == 0.0:
            raise ValueError("alpha_vec must be nonzero")
        return cls(a / n, np.asarray(beta_vec, dtype=float))

    def product_params(self) -> ProductExpParams:
        return ProductExpParams(np.concatenate([[0.0], self.alpha_vec, self.beta_vec]))

    def to_json(self) -> dict:
        return {
            "alpha": [float(x) for x in self.alpha_vec],
            "beta": [float(x) for x in self.beta_vec],
        }


def sr_geodesic(p: SRGeodesicParams, t: float) -> Mat2C:
    """Geodesic point at time t via the closed-form coefficients."""
    return p.product_params().point(t)


def boost_distance(x: AlgCoords) -> float:
    """Distance from the identity to exp(x) for traceless Hermitian x: exactly |x|."""
    if not x.in_H0(1e-10):
        raise ValueError("boost_distance requires coordinates in H0")
    return float(np.linalg.norm(x.u[1:4]))


def _require_unimodular(g1: Mat2C) -> None:
    d = g1.det()
    if abs(d - 1.0) > max(_UNIMODULAR_TOL, _DET_ROUNDING * _EPS * _frobenius_sq(g1)):
        raise ValueError(f"target must be unimodular, det = {d}")


def distance_lower_bound(g1: Mat2C) -> float:
    """Certified lower bound |X| for g1 = exp(X) k: hyperbolic distance of the projection.

    X is the polar boost of g1 read as unimodular (`polar_decompose`), exact to
    rounding on positive definite Hermitian targets of any length and zero to
    rounding on SU(2).  acosh(tr(g1 g1*)/2) is the same ln(lambda_max(g1 g1*)),
    but cancels on short boosts and near SU(2).
    """
    _require_unimodular(g1)
    return boost_distance(polar_decompose(g1, unimodular=True).boost)


def cut_bound(beta: float) -> float:
    """Time 2*pi/sqrt(beta^2 - 1) past which the orthogonal family stops minimizing."""
    if not beta > 1.0:
        raise ValueError("cut_bound requires beta > 1")
    return 2.0 * math.pi / math.sqrt(beta * beta - 1.0)


@dataclass(frozen=True)
class GeodesicWitness:
    """Shooting witness: geodesic parameters and the time realizing the upper bound."""

    params: SRGeodesicParams
    T: float
    residual: float | None = None

    def to_json(self) -> dict:
        d = self.params.to_json()
        d["T"] = float(self.T)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "GeodesicWitness":
        return cls(
            SRGeodesicParams(np.array(d["alpha"], float), np.array(d["beta"], float)),
            float(d["T"]),
        )


@dataclass(frozen=True)
class DistanceBracket:
    """Two-sided estimate of the sub-Riemannian distance from the identity.

    `lower <= upper` always; `converged` means the bracket width is within the
    requested tolerance.
    """

    lower: float
    upper: float
    converged: bool
    witness: GeodesicWitness | None

    def __post_init__(self):
        if self.upper < self.lower - 1e-12:
            raise ValueError("bracket must satisfy lower <= upper")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def to_json(self) -> dict:
        return {
            "lower": float(self.lower),
            "upper": float(self.upper) if math.isfinite(self.upper) else "inf",
            "converged": bool(self.converged),
            "witness": self.witness.to_json() if self.witness is not None else None,
        }

    @classmethod
    def from_json(cls, d: dict) -> "DistanceBracket":
        upper = d["upper"]
        upper = math.inf if upper == "inf" else float(upper)
        w = d.get("witness")
        return cls(
            float(d["lower"]),
            upper,
            bool(d["converged"]),
            GeodesicWitness.from_json(w) if w is not None else None,
        )


def _log_sl2(m00: complex, m01: complex, m10: complex, m11: complex, branch: int):
    """Entries of the traceless logarithm of the unimodular [[m00, m01], [m10, m11]].

    Branch k shifts the eigenvalue logs by +-2 pi i k.  Near-degenerate
    eigenvalues (gap below 1e-8, mu = tr/2 = +-1) give branch 0 near +I only:
    (M - mu I)/mu, the exact atanh(d/mu)/d (M - mu I), d^2 = mu^2 - 1, to a
    relative (mu^2 - 1)/3 < 1e-16.  Near -I it is None: -I + N (N != 0) has
    no traceless logarithm, and -I has a sphere of them, none canonical.
    """
    tr = m00 + m11
    disc = cmath.sqrt(tr * tr / 4.0 - 1.0)
    mu_p = tr / 2.0 + disc
    mu_m = tr / 2.0 - disc
    if abs(mu_p) < abs(mu_m):
        mu_p, mu_m = mu_m, mu_p
    if abs(mu_p - mu_m) < 1e-8:
        mu = tr / 2.0
        if branch != 0 or mu.real <= 0.0:
            return None
        return (m00 - mu) / mu, m01 / mu, m10 / mu, (m11 - mu) / mu
    gap = mu_p - mu_m
    l_p = cmath.log(mu_p) + 2j * math.pi * branch
    # l_p (2P - I) with P = (M - mu_m I) / gap the projector onto the mu_p eigenline
    return (l_p * (2.0 * ((m00 - mu_m) / gap) - 1.0), l_p * (2.0 * (m01 / gap)),
            l_p * (2.0 * (m10 / gap)), l_p * (2.0 * ((m11 - mu_m) / gap) - 1.0))


def _log_g_su2(g: tuple, c0: float, c1: float, c2: float, branch: int):
    """`_log_sl2` entries of g su2_exp(c), with g given by its four entries."""
    g00, g01, g10, g11 = g
    s00, s01, s10, s11 = su2_entries(c0, c1, c2, math.sqrt(c0 * c0 + c1 * c1 + c2 * c2))
    return _log_sl2(g00 * s00 + g01 * s10, g00 * s01 + g01 * s11,
                    g10 * s00 + g11 * s10, g10 * s01 + g11 * s11, branch)


def _fixed_point_rows(c: np.ndarray, g: tuple, branch: np.ndarray) -> np.ndarray:
    """Shooting residual skew(log(g exp(c))) - c of each row of c, an (N, 3) array.

    Row j takes log branch branch[j].  The closed forms of `su2_entries` and
    `_log_sl2` on (N,) complex arrays, with g given by its four entries: a
    gap below 1e-8 takes (M - mu I)/mu on branch 0 near +I, and a row whose
    logarithm `_log_sl2` refuses (other branches there, and near -I) reads
    1e6 in every component.
    """
    c0, c1, c2 = c[:, 0], c[:, 1], c[:, 2]
    n = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    cs = np.cos(n / 2.0)
    small = n < SMALL_W  # sin(n/2)/n as `sinc_scaled(n, 0.5)`
    x2 = (n * 0.5) ** 2
    s = np.where(small, 0.5 * (1.0 - x2 / 6.0 + x2 * x2 / 120.0),
                 np.sin(n * 0.5) / np.where(small, 1.0, n))
    s00 = cs + 1j * (s * c2)
    s11 = cs - 1j * (s * c2)
    s01 = -(s * c1) + 1j * (s * c0)
    s10 = (s * c1) + 1j * (s * c0)
    g00, g01, g10, g11 = g
    m00 = g00 * s00 + g01 * s10
    m01 = g00 * s01 + g01 * s11
    m10 = g10 * s00 + g11 * s10
    m11 = g10 * s01 + g11 * s11
    half = (m00 + m11) / 2.0
    disc = np.sqrt(half * half - 1.0)
    mu_p = half + disc
    mu_m = half - disc
    swap = np.abs(mu_p) < np.abs(mu_m)
    mu_p, mu_m = np.where(swap, mu_m, mu_p), np.where(swap, mu_p, mu_m)
    gap = mu_p - mu_m
    degenerate = np.abs(gap) < 1e-8
    # The skew coordinates of L read q (m01 + m10), q (m10 - m01) and q (m00 - m11):
    # q = 2 l_p / gap off the degenerate set, 1/mu on it.
    with np.errstate(divide="ignore", invalid="ignore"):
        l_p = np.log(mu_p) + (2j * math.pi) * branch
        q = np.where(degenerate, 1.0 / half, 2.0 * l_p / np.where(degenerate, 1.0, gap))
    out = np.empty((len(c), 3))
    out[:, 0] = (q * (m01 + m10)).imag - c0
    out[:, 1] = (q * (m10 - m01)).real - c1
    out[:, 2] = (q * (m00 - m11)).imag - c2
    out[degenerate & ((branch != 0) | (half.real <= 0.0))] = 1e6
    return out


def _norm3(v: np.ndarray) -> np.ndarray:
    return np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2])


def _times(J: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J v on each row: J is (N, 3, 3), v (N, 3); summed term by term, not by BLAS."""
    return J[:, :, 0] * v[:, 0:1] + J[:, :, 1] * v[:, 1:2] + J[:, :, 2] * v[:, 2:3]


def _jacobian_rows(x: np.ndarray, f: np.ndarray, g: tuple, branch: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian (N, 3, 3) of `_fixed_point_rows` at x, where it reads f.

    MINPACK's `fdjac1` step, h = sqrt(eps) |x_j| (sqrt(eps) at x_j = 0), with the
    3N shifted points evaluated as one stack.
    """
    h = _FD_STEP * np.abs(x)
    h[h == 0.0] = _FD_STEP
    shifted = np.repeat(x[None], 3, axis=0)
    for j in range(3):
        shifted[j, :, j] += h[:, j]
    fs = _fixed_point_rows(shifted.reshape(-1, 3), g, np.tile(branch, 3)).reshape(3, len(x), 3)
    return ((fs - f) / h.T[:, :, None]).transpose(1, 2, 0)


def _dogleg_step(J: np.ndarray, f: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Powell's dogleg step for J p = -f within |p| <= delta, on each row.

    The Gauss-Newton step is solved by explicit cofactors (no LAPACK), so the
    bits do not depend on a library's blocking.  A singular row takes the
    steepest-descent leg alone.
    """
    j00, j01, j02 = J[:, 0, 0], J[:, 0, 1], J[:, 0, 2]
    j10, j11, j12 = J[:, 1, 0], J[:, 1, 1], J[:, 1, 2]
    j20, j21, j22 = J[:, 2, 0], J[:, 2, 1], J[:, 2, 2]
    c00, c01, c02 = j11 * j22 - j12 * j21, j12 * j20 - j10 * j22, j10 * j21 - j11 * j20
    c10, c11, c12 = j02 * j21 - j01 * j22, j00 * j22 - j02 * j20, j01 * j20 - j00 * j21
    c20, c21, c22 = j01 * j12 - j02 * j11, j02 * j10 - j00 * j12, j00 * j11 - j01 * j10
    det = j00 * c00 + j01 * c01 + j02 * c02
    f0, f1, f2 = f[:, 0], f[:, 1], f[:, 2]
    grad = J[:, 0, :] * f[:, 0:1] + J[:, 1, :] * f[:, 1:2] + J[:, 2, :] * f[:, 2:3]  # J^T f
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gn = -np.stack([c00 * f0 + c10 * f1 + c20 * f2,
                        c01 * f0 + c11 * f1 + c21 * f2,
                        c02 * f0 + c12 * f1 + c22 * f2], axis=1) / det[:, None]
        gn_norm = _norm3(gn)
        gn_ok = np.isfinite(gn_norm)
        grad_norm = _norm3(grad)
        jg_norm = _norm3(_times(J, grad))
        sd = -((grad_norm / jg_norm) ** 2)[:, None] * grad  # the Cauchy point
        sd_norm = _norm3(sd)
        edge = -(delta / grad_norm)[:, None] * grad
        # The point where the leg from sd to gn leaves the region |p| = delta.
        d = gn - sd
        a = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
        b = 2.0 * (sd[:, 0] * d[:, 0] + sd[:, 1] * d[:, 1] + sd[:, 2] * d[:, 2])
        c = sd_norm * sd_norm - delta * delta
        sq = np.sqrt(b * b - 4.0 * a * c)
        tau = np.where(b > 0.0, -2.0 * c / (b + sq), (sq - b) / (2.0 * a))
        dog = sd + tau[:, None] * d
    p = np.where((gn_ok & (gn_norm <= delta))[:, None], gn,
                 np.where((~gn_ok | (sd_norm >= delta))[:, None], edge, dog))
    p[~np.isfinite(p).all(axis=1)] = 0.0  # no descent direction (grad = 0 or J grad = 0)
    return p


def _dogleg_rows(x0: np.ndarray, g: tuple, branch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve `_fixed_point_rows` = 0 from every row of x0 at once: (x, converged).

    Powell's hybrid method (Powell, A hybrid method for nonlinear equations,
    1970) as MINPACK's `hybrd` runs it, on all rows together: a fresh
    forward-difference Jacobian after each accepted step, and the trust
    radius delta starting at 100 |x0| (100 at x0 = 0), cut to the length of
    the first step.  Delta is halved when the actual over the predicted
    reduction rho of |f|^2 is below 0.1, set to 2|p| when rho is within 0.1
    of 1 and grown to at least 2|p| when rho exceeds 0.5; a step is taken
    when rho >= 1e-4.  A row converges, as for `hybrd` with xtol =
    _ROOT_XTOL, when f = 0 or delta <= _ROOT_XTOL |x|, and leaves the batch;
    a row still open after _DOGLEG_ITERATIONS steps fails.  Temporaries hold
    only the rows still open.
    """
    x = x0.copy()
    idx = np.arange(len(x))
    out = x.copy()
    converged = np.zeros(len(x), dtype=bool)
    f = _fixed_point_rows(x, g, branch)
    J = _jacobian_rows(x, f, g, branch)
    fnorm = _norm3(f)
    xnorm = _norm3(x)
    delta = np.where(xnorm > 0.0, 100.0 * xnorm, 100.0)
    for it in range(_DOGLEG_ITERATIONS):
        p = _dogleg_step(J, f, delta)
        pnorm = _norm3(p)
        if it == 0:
            delta = np.minimum(delta, pnorm)
        trial = x + p
        f_trial = _fixed_point_rows(trial, g, branch)
        fnorm_trial = _norm3(f_trial)
        with np.errstate(divide="ignore", invalid="ignore"):
            actual = np.where(fnorm_trial < fnorm, 1.0 - (fnorm_trial / fnorm) ** 2, -1.0)
            predicted = 1.0 - (_norm3(f + _times(J, p)) / fnorm) ** 2
            rho = np.where(predicted > 0.0, actual / predicted, 0.0)
        delta = np.where(rho < 0.1, 0.5 * delta,
                         np.where(np.abs(rho - 1.0) <= 0.1, 2.0 * pnorm,
                                  np.where(rho > 0.5, np.maximum(delta, 2.0 * pnorm), delta)))
        step = rho >= 1e-4
        if step.any():
            x[step], f[step], fnorm[step] = trial[step], f_trial[step], fnorm_trial[step]
            xnorm[step] = _norm3(x[step])
            J[step] = _jacobian_rows(x[step], f[step], g, branch[step])
        done = (fnorm == 0.0) | (delta <= _ROOT_XTOL * xnorm)
        if done.any():
            out[idx[done]] = x[done]
            converged[idx[done]] = True
            keep = ~done
            x, f, J, fnorm, xnorm, delta, branch, idx = (
                x[keep], f[keep], J[keep], fnorm[keep], xnorm[keep], delta[keep], branch[keep],
                idx[keep])
            if not len(idx):
                break
    return out, converged


def _candidate(g1m: np.ndarray, v: np.ndarray, c: np.ndarray):
    """Turn (v, c) = (T alpha, T beta) into (T, alpha_vec, beta_vec, endpoint residual)."""
    T = float(np.linalg.norm(v))
    if T < _ZERO_LENGTH:
        return None
    av = v / T
    bv = c / T
    res = float(np.max(np.abs(sr_geodesic(SRGeodesicParams(av, bv), T).m - g1m)))
    return T, av, bv, res


def _shooting_starts(rng: np.random.Generator, n: int, scale: float) -> list[np.ndarray]:
    starts = [np.zeros(3)]
    mags = np.linspace(0.15, scale, max(n, 1))
    for k in range(n):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        starts.append(mags[k] * d)
    return starts


def distance_shoot(
    g1: Mat2C,
    tol: float = 1e-7,
    budget: int = 240,
    seed: int = 0,
) -> DistanceBracket:
    """Bracket the distance from the identity to a unimodular target.

    g1 is unimodular when |det g1 - 1| <= max(1e-9, 8 eps |g1|_F^2), the
    larger of a fixed floor and det's own rounding error.
    Strategy: positive definite Hermitian targets are exact.  g1 counts as
    one when the rotation factor k of its polar decomposition is within
    4 eps |g1|_F^2 of I (Frobenius): k is read off products of g1 with
    itself, which round to about eps |g1|_F^2, so an absolute bound would
    miss long float boosts.  Otherwise candidate geodesics are recovered by
    solving the 3-dimensional fixed-point equation

        skew_part( log( g1 exp(c) ) ) = c

    over seeded multistarts and logarithm branches, each root giving a
    geodesic hitting g1 exactly at time T = |hermitian_part(log(g1 exp(c)))|.
    The first `budget` (branch, start) pairs, branch-major over the branches
    0, +-1, +-2, +-3, are solved together as one batch of rows by Powell's
    dogleg trust-region method (`_dogleg_rows`).  Each converged root is
    then re-evaluated on scalars and kept only if its geodesic's endpoint
    residual is below tol.  Any geodesic reaching g1 at time T proves distance
    <= T, so the witness is the shortest such candidate, whatever its
    length or |beta|.  When that leaves the bracket wider than tol, a
    bounded least-squares polish (`scipy.optimize.least_squares`, imported
    on first use) refines one start seeded from the polar decomposition.
    The lower end is the projection bound |X| of the one polar decomposition
    g1 = exp(X) k (`distance_lower_bound`), and that one value is also the
    boost witness length (boost brackets are exactly [|X|, |X|]), the
    rotation-fiber test and the polish gate.
    tol must be finite and positive.  Deterministic for a fixed seed.

    tol has two roles: it certifies a witness's endpoint residual, and
    `converged` is set when the bracket is narrower than the same tol.  A
    large tol therefore reports a wide bracket as converged: on the first
    `mixed` target of `bench/workloads.py`'s `classify_corpus(sl, 1, 12)`,
    tol=10 gives [0.784, 2.087] with converged true (tol=1e-7: false).

    Rotation targets (|X| at most 1e-12) return [lower, inf) with no
    witness and run no solve, because no solve can certify one there:
      1. For g1 in SU(2), every M = g1 exp(c) is in SU(2).
      2. `_log_sl2` of a unitary M is (i theta + 2 pi i k)(2P - I), P the
         orthogonal eigenprojector, or (M - mu I)/mu, or None.  It is
         skew-Hermitian, so T = |hermitian_part(L)| is rounding noise, which
         `_candidate` rejects.
      3. Any witness has T > 0 and exp(T(a + b)) = g1 exp(T b) in SU(2).  The
         traceless part of that exponential, (sinh(lambda)/lambda) T(a + b)
         with +-lambda the eigenvalues, would be skew-Hermitian if nonzero;
         then T a, T b are real multiples of i K, K for one skew-Hermitian K,
         so they commute and g1 = exp(T a) is not unitary.  So sinh(lambda)
         = 0 and g1 exp(T b) = +-I, which `_log_sl2` refuses (the closed-form
         fiber witness, lambda = i pi, is of this kind).
      4. The polish runs only when |X|, the lower end, exceeds 1e-6.
    """
    front = _shoot_front(g1, tol, budget)
    if isinstance(front, DistanceBracket):
        return front
    return _shoot_search(g1, *front, tol, budget, seed)


def _shoot_front(g1: Mat2C, tol: float, budget: int) -> DistanceBracket | tuple:
    """The checks of `distance_shoot` and its bracket of the identity, a boost
    or a rotation; else the one polar decomposition of g1 and its `lower`."""
    _require_unimodular(g1)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if float(np.max(np.abs(g1.m - _I2))) <= _IDENTITY_TOL:
        return DistanceBracket(0.0, 0.0, True, None)

    pd = polar_decompose(g1, unimodular=True)
    lower = boost_distance(pd.boost)  # `distance_lower_bound`, from the one decomposition
    if pd.rotation.distance(Mat2C.identity()) <= _BOOST_ROUNDING * _EPS * _frobenius_sq(g1):
        # Boost target: the one-parameter subgroup through it is a metric line.
        # lower > 0 here, since a unitary g1 this close to I is the identity.
        params = SRGeodesicParams(pd.boost.u[1:4] / lower, np.zeros(3))
        residual = float(np.max(np.abs(sr_geodesic(params, lower).m - g1.m)))
        return DistanceBracket(lower, lower, True, GeodesicWitness(params, lower, residual))
    if lower <= _ZERO_LENGTH:
        # Rotation target: no solve can give a witness (see `distance_shoot`).
        return DistanceBracket(lower, math.inf, False, None)
    return pd, lower


def _shoot_search(g1: Mat2C, pd, lower: float, tol: float, budget: int,
                  seed: int) -> DistanceBracket:
    """The multistart and polish of `distance_shoot` on a target `_shoot_front` left open."""
    rng = np.random.default_rng(seed)
    n_starts = max(4, budget // len(_BRANCHES))
    starts = _shooting_starts(rng, n_starts - 1, 13.0)
    # One row per (branch, start) pair, branch-major, the first `budget` of them.
    branch = np.repeat(_BRANCHES, len(starts))[:budget]
    g1m = g1.m
    g = tuple(g1m.ravel().tolist())
    roots, converged = _dogleg_rows(np.tile(starts, (len(_BRANCHES), 1))[:budget], g, branch)

    feasible: list[tuple] = []
    seen_roots: set = set()
    for k in np.flatnonzero(converged).tolist():
        x, b = roots[k], int(branch[k])
        key = (b,) + tuple(np.round(x, _ROOT_DIGITS))
        if key in seen_roots:
            continue
        seen_roots.add(key)
        L = _log_g_su2(g, *x.tolist(), b)
        if L is None:
            continue
        cand = _candidate(g1m, np.array(entry_coords(*L)[1:4]), x)
        if cand is not None and cand[3] < tol:
            feasible.append(cand)
    tight = bool(feasible) and min(f[0] for f in feasible) <= lower + tol

    # Polish stage: the fixed-point Jacobian degenerates for targets near the
    # positive definite cone, so a start seeded from the polar decomposition
    # (boost X, su(2) part -log k) is refined by least squares on the endpoint
    # residual.  Skipped when the bracket is already tight: it cannot improve.
    if not tight and lower > _POLISH_MIN_LOWER:
        log_k = _log_sl2(*pd.rotation.m.ravel().tolist(), 0)
        if log_k is not None:
            c_seed = -np.array(entry_coords(*log_k)[4:7])
            polished = _polish_candidate(g1m, np.concatenate([pd.boost.u[1:4], c_seed]), tol)
            if polished is not None:
                feasible.append(polished)  # below tol: _polish_candidate checks

    if not feasible:
        return DistanceBracket(lower, math.inf, False, None)

    T, av, bv, res = min(feasible, key=lambda cand: (cand[0], tuple(cand[1]), tuple(cand[2])))
    witness = GeodesicWitness(SRGeodesicParams(av, bv), T, res)
    upper = max(T, lower)
    return DistanceBracket(lower, upper, upper - lower <= tol, witness)


def _polish_candidate(g1m: np.ndarray, x0: np.ndarray, tol: float):
    """Refine a packed candidate x = (T*alpha, T*beta) on the endpoint residual.

    Bounded trust-region least squares on the 8 real components of the
    endpoint gap; returns the candidate if its residual is below tol, else None.
    """

    g1_entries = g1m.ravel()

    def residual_vec(x):
        # sr_geodesic(SRGeodesicParams(v / T, x[3:] / T), T) - g1 by the same float
        # operations, without building the three objects on every evaluation.
        v = x[:3]
        T = np.linalg.norm(v)
        if T < _POLISH_ZERO_T:
            return np.full(8, 1e3)
        a = np.concatenate(([0.0], v / T, x[3:] / T))
        point = coeff_entries(*_curve_coefficients(a.tolist(), *_curve_w(a), float(T)))
        gap = np.array(point) - g1_entries
        if not np.isfinite(gap).all():
            raise ValueError("matrix entries must be finite")
        return np.concatenate([gap.real, gap.imag])

    # Keep the solve local: a box around the seed prevents the optimizer from
    # tunnelling into a different (longer) solution basin.
    radius = 0.35 + 0.1 * float(np.linalg.norm(x0))
    try:
        sol = least_squares(residual_vec, x0, method="trf",
                            bounds=(x0 - radius, x0 + radius),
                            xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=400)
        cand = _candidate(g1m, sol.x[:3], sol.x[3:])
    except Exception:
        return None
    return cand if cand is not None and cand[3] < tol else None


# -- Hermitian endpoints of geodesic factors ---------------------------------


@dataclass(frozen=True)
class HermiticityReport:
    """Classification of when exp(a+b) exp(-b) is Hermitian.

    x, y are the real and imaginary parts of
    (1/2) sqrt((a1+i b1)^2 + (a2+i b2)^2 + (a3+i b3)^2); 4xy equals
    alpha.beta.  `residual` is the Hermitian defect of the matrix itself,
    computed through the series oracle for cross-validation.
    """

    x: float
    y: float
    beta: float
    case: str  # collinear | cos-vanishing | proportional-triple | tangent-fixed-point | not-hermitian
    residual: float

    @property
    def hermitian(self) -> bool:
        return self.case != "not-hermitian"

    def to_json(self) -> dict:
        return asdict(self)


def _osn_margins(alpha_vec, beta_vec) -> dict:
    """Decision quantities for the Hermitian-endpoint conditions.

    x + iy is the curve's w1 = (1/2) sqrt(sum_k (a_k + i b_k)^2), read from
    `ProductExpParams`, its one home.
    """
    av = np.asarray(alpha_vec, dtype=float)
    bv = np.asarray(beta_vec, dtype=float)
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    if na == 0.0 or nb == 0.0:
        raise ValueError("both vectors must be nonzero")
    w1 = ProductExpParams(np.concatenate([[0.0], av, bv])).w1
    x, y = w1.real, w1.imag
    half = nb / 2.0
    cross = float(np.linalg.norm(np.cross(av, bv))) / (na * nb)
    cos_half = math.cos(half)
    cos_y = math.cos(y)
    margins = {
        "x": x,
        "y": y,
        "beta": nb,
        "collinear": cross,
        "cos_half": abs(cos_half),
        "cos_y": abs(cos_y),
        "tangent": abs(math.tan(half) - half) if abs(cos_half) > 1e-12 else math.inf,
    }
    # 2x2 minors of [[x, y, beta/2], [tanh x, tan y, tan(beta/2)]];
    # meaningful only when the tangents are finite.
    if abs(cos_half) > 1e-12 and abs(cos_y) > 1e-12:
        tx, ty, tb = math.tanh(x), math.tan(y), math.tan(half)
        margins["minors"] = max(
            abs(x * ty - y * tx), abs(x * tb - half * tx), abs(y * tb - half * ty)
        )
    else:
        margins["minors"] = math.inf
    return margins


def hermitian_endpoint_check(alpha_vec, beta_vec, tol: float = 1e-9) -> HermiticityReport:
    """Decide whether exp(a+b) exp(-b) is Hermitian, and which condition applies.

    Exactly one of four regimes makes the endpoint Hermitian: collinear
    vectors; x = cos(beta/2) = cos(y) = 0; proportional triples
    (x, y, beta/2) ~ (tanh x, tan y, tan(beta/2)) with both cosines nonzero
    (tested as vanishing 2x2 minors); or x = y = 0 with tan(beta/2) = beta/2.
    The returned residual is the series-oracle Hermitian defect of the
    endpoint matrix.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    av = np.asarray(alpha_vec, dtype=float)
    bv = np.asarray(beta_vec, dtype=float)
    # The series oracle first: it rejects an overflowing norm before the
    # margins square it.
    a_mat = from_coords(np.concatenate([[0.0], av, np.zeros(3)]))
    b_mat = from_coords(np.concatenate([[0.0], np.zeros(3), bv]))
    endpoint = exp_series(a_mat + b_mat).m @ exp_series(-1 * b_mat).m
    defect = float(np.linalg.norm(endpoint - endpoint.conj().T))

    m = _osn_margins(av, bv)
    x, y = m["x"], m["y"]

    # The paired x, y satisfy 4xy = alpha.beta identically; guard their evaluation.
    ab = float(np.dot(av, bv))
    if abs(4.0 * x * y - ab) > 1e-10 * max(1.0, abs(ab)):
        raise RuntimeError(f"inconsistent frame: 4xy = {4.0 * x * y:.17g}, alpha.beta = {ab:.17g}")

    if m["collinear"] <= tol:
        case = "collinear"
    elif abs(x) <= tol and abs(y) <= tol:
        case = "tangent-fixed-point" if m["tangent"] <= tol else "not-hermitian"
    elif abs(x) <= tol and m["cos_half"] <= tol and m["cos_y"] <= tol:
        case = "cos-vanishing"
    elif m["cos_half"] > tol and m["cos_y"] > tol and m["minors"] <= tol:
        case = "proportional-triple"
    else:
        case = "not-hermitian"
    return HermiticityReport(x, y, m["beta"], case, defect)
