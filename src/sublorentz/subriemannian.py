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

import math
from dataclasses import asdict, dataclass

import numpy as np

from .algebra import AlgCoords, Mat2C, _frozen_array, coeff_entries, from_coords
from .expmap import (_EPS, SMALL_W, ProductExpParams, _curve_coefficients, _curve_w, _polar,
                     _require_unimodular, _unit_alpha, exp_series)

_I2 = np.eye(2, dtype=complex)

# The decision thresholds of `distance_shoot` and of the causal class read
# off its bracket (`sublorentzian`), each named once; the admission rule of
# targets is `expmap._require_unimodular`.  g1 is the identity when every entry
# is this close: far above the rounding of a product that should be I, far
# below any other target's distance.
_IDENTITY_TOL = 1e-12
# A length this small is zero: the fiber test on |X| (rotations read |X| <=
# 1e-15) and a root's time T in `_candidate`.
_ZERO_LENGTH = 1e-12
# g1 is a boost when its polar rotation k, linear in g1's entries (`expmap._polar`),
# is within this many eps of I: 48,000 float boosts U diag(e^{|X|/2}, e^{-|X|/2}) U*
# (|X| <= 709) came within 1.03 (2.94 with every entry off by a relative eps), and
# the benchmark corpus's other targets (seeds 1-6) sit at least 1.4e13 away.
_BOOST_ROUNDING = 4.0
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
# The polish's forward-difference step, relative to max(1, |x_j|): sqrt(eps), MINPACK's `fdjac1`.
_FD_STEP = math.sqrt(_EPS)
# A shooting row still open after this many dogleg steps fails.  On the 240
# geodesic-built and boost-rotation targets of the benchmark corpus (seeds
# 1-6), run to 150 steps, some row reaching the shortest certified root
# converges by step 28 on every target; later rows mostly stall on a
# non-root, and the batch runs until its last row stops.
_DOGLEG_ITERATIONS = 40
# The logarithm branches the multistart shoots on, in row order.
_BRANCHES = (0, 1, -1, 2, -2, 3, -3)
# The polish (`least_squares`) stops when a step moves x, or an accepted step
# lowers |gap|^2, by at most _LM_TOL relative, or after _LM_MAX_NFEV gap
# evaluations (1 of 84 certifying polishes over 260 targets used them all).
_LM_TOL = 1e-15
_LM_MAX_NFEV = 400


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
        with np.errstate(over="ignore"):
            excess = np.dot(a, a) - 1.0
        if abs(excess) > 1e-12:
            raise ValueError(f"alpha_vec must be a unit vector: |alpha|^2 - 1 = {excess:.3e} exceeds 1e-12")
        object.__setattr__(self, "alpha_vec", a)
        object.__setattr__(self, "beta_vec", b)

    @classmethod
    def normalized(cls, alpha_vec, beta_vec) -> "SRGeodesicParams":
        """Construct with alpha_vec rescaled to unit length (rejects the zero vector)."""
        a = _unit_alpha(np.asarray(alpha_vec, dtype=float), "alpha_vec must be nonzero")
        return cls(a, np.asarray(beta_vec, dtype=float))

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


def distance_lower_bound(g1: Mat2C) -> float:
    """Certified lower bound |X| for g1 = exp(X) k: hyperbolic distance of the projection.

    X is the polar boost of g1 read as unimodular (`polar_decompose`), exact to
    rounding on positive definite Hermitian targets of any length and zero to
    rounding on SU(2).  acosh(tr(g1 g1*)/2) is the same ln(lambda_max(g1 g1*)),
    but cancels on short boosts and near SU(2).
    """
    _require_unimodular(g1.m)
    return float(np.linalg.norm(_polar(g1.m)[0]))


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


# I and the E_j of `su2_exp`, exp(c) = cos(|c|/2) I + sin(|c|/2)/|c| sum_j c_j E_j: g E_j is exact.
_SU2_UNITS = np.array([_I2, [[0, 1j], [1j, 0]], [[0, -1], [1, 0]], [[1j, 0], [0, -1j]]])
# dq/du, u = mu^2 - 1, on branch 0 near mu = +1 (q = asinh(d)/d, d^2 = u, which 1/mu
# matches to rounding on the degenerate set), highest term first: (1 - mu q)/u cancels
# there, to about eps/(4|d|^3), while for |u| < 1e-2 the truncation stays below 2e-13.
_DQ_SERIES = (693 / 6656, -315 / 2816, 35 / 288, -15 / 112, 3 / 20, -1 / 6)
_DQ_SERIES_RADIUS = 1e-2


def _skew_functionals(g: np.ndarray) -> np.ndarray:
    """FK of `_fixed_point_rows` for the (2, 2) g: G = F(g), then K_j = F(g E_j).  `_shoot`
    computes it once per searched target, and once for the polar rotation k seeding the polish."""
    (m00, m01), (m10, m11) = (g @ _SU2_UNITS).transpose(1, 2, 0)  # g, g E_j
    return np.stack([m01 + m10, 1j * (m10 - m01), m00 - m11, (m00 + m11) / 2.0], axis=1)


def _fixed_point_rows(c: np.ndarray, FK: np.ndarray, branch: np.ndarray) -> tuple[np.ndarray, ...]:
    """Shooting residual r = skew(log(g exp(c))) - c of each row of c, (N, 3), its
    exact Jacobian dr/dc, (N, 3, 3), and herm(log(g exp(c))), (N, 3), from one
    pass; sums term by term.  The one home of the shooting logarithm.

    Row j takes log branch branch[j]; g is given by FK = `_skew_functionals(g)`,
    its G = F(g) and K_j = F(g E_j).  The functionals F = (P, mu) of M, P = (m01 +
    m10, i (m10 - m01), m00 - m11) and mu = tr M / 2, are F = cs G + s (c.K) on
    M = g exp(c) (`_SU2_UNITS`; cs = cos(n/2), s = sin(n/2)/n, n = |c|).  The log is
    L = q (M - mu I) = l_p (2 Pi - I), Pi the projector onto the eigenline of
    mu_+, the larger of mu +- sqrt(mu^2 - 1), l_p = log(mu_+) + 2 pi i k on
    branch k, so q = 2 l_p / gap, gap = mu_+ - mu_-.  A gap below 1e-8 (mu = +-1)
    takes q = 1/mu on branch 0 near +I, the exact atanh(d/mu)/d to a relative
    (mu^2 - 1)/3 < 1e-16; other branches there, and all near -I (-I + N, N != 0,
    has no traceless log; -I has a sphere of them), are refused: r = 1e6, J = 0.
    L has skew coordinates Im(q P) and Hermitian ones Re(q P): r = Im(q P) - c.
    dF/dc_j = c_j (t (c.K) - (s/2) G) + s K_j, t = (cs/2 - s)/n^2 (-1/24 at
    n = 0), and q' = (1 - mu q)/(mu^2 - 1), or `_DQ_SERIES` on branch 0 near +I
    (degenerate set included), so J_ij = Im(q' dmu_j P_i + q dP_ij) - delta_ij.
    """
    G, K = FK[0], FK[1:]
    c0, c1, c2 = c[:, 0:1], c[:, 1:2], c[:, 2:3]
    n = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    cs = np.cos(n / 2.0)
    small = n < SMALL_W  # sin(n/2)/n as `sinc_scaled(n, 0.5)`
    x2 = (n * 0.5) ** 2
    s = np.where(small, 0.5 * (1.0 - x2 / 6.0 + x2 * x2 / 120.0),
                 np.sin(n * 0.5) / np.where(small, 1.0, n))
    t = np.where(small, -1.0 / 24.0, (0.5 * cs - s) / np.where(small, 1.0, n * n))
    Z = c0 * K[0] + c1 * K[1] + c2 * K[2]
    F = cs * G + s * Z
    dF = (t * Z - (0.5 * s) * G)[:, :, None] * c[:, None, :] + s[:, :, None] * K.T
    P, half = F[:, :3], F[:, 3]
    u = half * half - 1.0
    disc = np.sqrt(u)
    mu_p, mu_m = half + disc, half - disc
    swap = np.abs(mu_p) < np.abs(mu_m)
    mu_p, mu_m = np.where(swap, mu_m, mu_p), np.where(swap, mu_p, mu_m)
    gap = mu_p - mu_m
    degenerate = np.abs(gap) < 1e-8
    with np.errstate(divide="ignore", invalid="ignore"):
        l_p = np.log(mu_p) + (2j * math.pi) * branch
        q = np.where(degenerate, 1.0 / half, 2.0 * l_p / np.where(degenerate, 1.0, gap))
        dq = np.where(degenerate, 0.0, (1.0 - half * q) / u)  # the series or J = 0 there
    near = (branch == 0) & (np.abs(u) < _DQ_SERIES_RADIUS) & (half.real > 0.0)
    if near.any():
        dq[near] = 2.0 * half[near] * np.polyval(_DQ_SERIES, u[near])
    qP = q[:, None] * P
    f = qP.imag - c
    J = ((dq[:, None] * P)[:, :, None] * dF[:, 3][:, None, :] + q[:, None, None] * dF[:, :3]).imag
    J -= np.eye(3)
    refused = degenerate & ((branch != 0) | (half.real <= 0.0))
    f[refused], J[refused] = 1e6, 0.0
    return f, J, qP.real


def _norm3(v: np.ndarray) -> np.ndarray:
    return np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2])


def _times(J: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J v on each row: J is (N, 3, 3), v (N, 3); summed term by term, not by BLAS."""
    return J[:, :, 0] * v[:, 0:1] + J[:, :, 1] * v[:, 1:2] + J[:, :, 2] * v[:, 2:3]


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


def _dogleg_rows(x0: np.ndarray, FK: np.ndarray, branch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve `_fixed_point_rows` = 0 from every row of x0 at once: (x, converged).

    Powell's hybrid method (Powell, A hybrid method for nonlinear equations,
    1970) as MINPACK's `hybrd` runs it, on all rows together, but with the
    exact Jacobian: each iteration evaluates `_fixed_point_rows` once, at the
    trial points, and an accepted step keeps the Jacobian of its trial.  The
    trust radius delta starts at 100 |x0| (100 at x0 = 0), cut to the length
    of the first step; it is halved when the actual over the predicted
    reduction rho of |f|^2 is below 0.1, set to 2|p| when rho is within 0.1
    of 1 and grown to at least 2|p| when rho exceeds 0.5; a step is taken
    when rho >= 1e-4.  A row converges, as for `hybrd` with xtol =
    _ROOT_XTOL, when f = 0 or delta <= _ROOT_XTOL |x|, and leaves the batch;
    a row still open after _DOGLEG_ITERATIONS steps fails.  Temporaries hold
    only the rows still open.
    """
    x, out, idx = x0.copy(), x0.copy(), np.arange(len(x0))
    converged = np.zeros(len(x), dtype=bool)
    f, J, _ = _fixed_point_rows(x, FK, branch)
    fnorm, xnorm = _norm3(f), _norm3(x)
    delta = np.where(xnorm > 0.0, 100.0 * xnorm, 100.0)
    for it in range(_DOGLEG_ITERATIONS):
        p = _dogleg_step(J, f, delta)
        pnorm = _norm3(p)
        if it == 0:
            delta = np.minimum(delta, pnorm)
        trial = x + p
        f_trial, J_trial, _ = _fixed_point_rows(trial, FK, branch)
        fnorm_trial = _norm3(f_trial)
        with np.errstate(divide="ignore", invalid="ignore"):
            actual = np.where(fnorm_trial < fnorm, 1.0 - (fnorm_trial / fnorm) ** 2, -1.0)
            predicted = 1.0 - (_norm3(f + _times(J, p)) / fnorm) ** 2
            rho = np.where(predicted > 0.0, actual / predicted, 0.0)
        delta = np.where(rho < 0.1, 0.5 * delta,
                         np.where(np.abs(rho - 1.0) <= 0.1, 2.0 * pnorm,
                                  np.where(rho > 0.5, np.maximum(delta, 2.0 * pnorm), delta)))
        step = rho >= 1e-4
        x, f = np.where(step[:, None], trial, x), np.where(step[:, None], f_trial, f)
        J, fnorm = np.where(step[:, None, None], J_trial, J), np.where(step, fnorm_trial, fnorm)
        done = (fnorm == 0.0) | (delta <= _ROOT_XTOL * _norm3(x))
        if done.any():
            out[idx[done]], converged[idx[done]] = x[done], True
            keep = ~done
            x, f, J, fnorm, delta, branch, idx = (
                x[keep], f[keep], J[keep], fnorm[keep], delta[keep], branch[keep], idx[keep])
            if not len(idx):
                break
    return out, converged


def _endpoint_gap(x: np.ndarray, g1_entries: np.ndarray) -> np.ndarray:
    """gamma(T) - g1 for the packed x = (T alpha, T beta), T = |T alpha| > 0, as 8
    reals (the real parts of the four entries, then the imaginary): `sr_geodesic`'s
    closed form by the same float operations, with no object built.  A non-finite
    gap raises ValueError."""
    v = x[:3]
    T = np.linalg.norm(v)
    a = np.concatenate(([0.0], v / T, x[3:] / T))
    point = coeff_entries(*_curve_coefficients(a.tolist(), *_curve_w(a), float(T)))
    gap = np.array(point) - g1_entries
    if not np.isfinite(gap).all():
        raise ValueError("matrix entries must be finite")
    return np.concatenate([gap.real, gap.imag])


def _candidate(g1_entries: np.ndarray, x: np.ndarray):
    """Turn the packed x = (T alpha, T beta) into (T, alpha_vec, beta_vec, endpoint
    residual), the residual being the largest entry modulus of `_endpoint_gap`."""
    T = float(np.linalg.norm(x[:3]))
    if T < _ZERO_LENGTH:
        return None
    gap = _endpoint_gap(x, g1_entries)
    return T, x[:3] / T, x[3:] / T, float(np.max(np.abs(gap[:4] + 1j * gap[4:])))


def _certified(g1_entries: np.ndarray, FK: np.ndarray, roots: np.ndarray, branch: np.ndarray,
               tol: float) -> list[tuple]:
    """The `_candidate`s below tol of the distinct roots (equal branch and root to
    _ROOT_DIGITS decimals), in first-seen order.  T alpha is the Hermitian part of
    each root's logarithm, from one `_fixed_point_rows` pass; refused rows are skipped."""
    distinct: dict = {}
    for k, key in enumerate(zip(branch.tolist(), map(tuple, np.round(roots, _ROOT_DIGITS).tolist()))):
        distinct.setdefault(key, k)
    rows = list(distinct.values())
    f, _, herm = _fixed_point_rows(roots[rows], FK, branch[rows])
    cands = [_candidate(g1_entries, np.concatenate([v, x]))
             for x, v, refused in zip(roots[rows], herm, (f == 1e6).all(axis=1)) if not refused]
    return [cand for cand in cands if cand is not None and cand[3] < tol]


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

    g1 is unimodular when |det g1 - 1| <= max(1e-9, 8 eps |g1|_F^2), the larger of a fixed
    floor and det's own rounding error; a det g1 or |g1|_F^2 past double precision is refused.
    Strategy: positive definite Hermitian targets are exact.  g1 counts as
    one when the rotation factor k of its polar decomposition is within
    _BOOST_ROUNDING eps of I (Frobenius).  Otherwise candidate geodesics are
    recovered by solving the 3-dimensional fixed-point equation

        skew_part( log( g1 exp(c) ) ) = c

    over seeded multistarts and logarithm branches, each root giving a
    geodesic hitting g1 exactly at time T = |hermitian_part(log(g1 exp(c)))|.
    The first `budget` (branch, start) pairs, branch-major over the branches
    0, +-1, +-2, +-3, are solved together as one batch of rows by Powell's
    dogleg trust-region method (`_dogleg_rows`).  One more `_fixed_point_rows`
    pass gives each distinct converged root its T alpha, and a root is kept
    only if its geodesic's endpoint residual (`_endpoint_gap`) is below tol.
    Any geodesic reaching g1 at time T proves distance <= T, so the witness
    is the shortest such candidate, whatever its length or |beta|.  When that
    leaves the bracket wider than tol, a bounded Levenberg-Marquardt polish
    (`least_squares`) refines one start seeded from the polar decomposition.
    The lower end is the projection bound |X| of the one polar decomposition g1 = exp(X) k
    (`distance_lower_bound`), and that one value is also the boost witness length (boost
    brackets are exactly [|X|, |X|]), the rotation-fiber test and the polish gate.  tol must
    be finite and positive.  Deterministic for a fixed seed.  `_shoot` does all this on g1's
    entries; `causal_classify` runs it too, given xi, and may stop at the lower end.

    tol has two roles: it certifies a witness's endpoint residual, and
    `converged` is set when the bracket is narrower than the same tol.  A
    large tol therefore reports a wide bracket as converged: on the first
    `mixed` target of `bench/workloads.py`'s `classify_corpus(sl, 1, 12)`,
    tol=10 gives [0.784, 2.087] with converged true (tol=1e-7: false).

    Rotation targets (|X| at most 1e-12) return [lower, inf) with no
    witness and run no solve, because no solve can certify one there:
      1. For g1 in SU(2), every M = g1 exp(c) is in SU(2).
      2. The logarithm L = q (M - mu I) of `_fixed_point_rows` of a unitary M
         is (i theta + 2 pi i k)(2P - I), P the orthogonal eigenprojector, or
         (M - mu I)/mu, or refused.  It is skew-Hermitian, so its Hermitian
         part Re(q P), and T = |Re(q P)|, is rounding noise, which
         `_candidate` rejects.
      3. Any witness has T > 0 and exp(T(a + b)) = g1 exp(T b) in SU(2).  The
         traceless part of that exponential, (sinh(lambda)/lambda) T(a + b)
         with +-lambda the eigenvalues, would be skew-Hermitian if nonzero;
         then T a, T b are real multiples of i K, K for one skew-Hermitian K,
         so they commute and g1 = exp(T a) is not unitary.  So sinh(lambda)
         = 0 and g1 exp(T b) = +-I, where that logarithm is refused or zero
         (the closed-form fiber witness, lambda = i pi, is of this kind).
      4. The polish runs only when |X|, the lower end, exceeds 1e-6.
    """
    return _shoot(g1.m, tol, budget, seed)


def _shoot(g1: np.ndarray, tol: float, budget: int, seed: int,
           xi: float | None = None) -> DistanceBracket:
    """`distance_shoot` of the (2, 2) array g1, in order: its checks; the identity,
    boost and rotation brackets; with xi = ln det g given (`causal_classify`), the
    [lower, inf) of a target the lower end alone shows unreachable, with no solve;
    then the multistart and the polish."""
    _require_unimodular(g1)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if float(np.max(np.abs(g1 - _I2))) <= _IDENTITY_TOL:
        return DistanceBracket(0.0, 0.0, True, None)

    x, k = _polar(g1)
    lower = float(np.linalg.norm(x))  # `distance_lower_bound`, from the one decomposition
    g1_entries = g1.ravel()
    if float(np.linalg.norm(k - _I2)) <= _BOOST_ROUNDING * _EPS:
        # Boost target: the one-parameter subgroup through it is a metric line.
        # lower > 2e-12 here, since a g1 within _IDENTITY_TOL of I has returned,
        # so `_candidate` never returns None on this path.
        _, av, bv, res = _candidate(g1_entries, np.concatenate([x, np.zeros(3)]))
        return DistanceBracket(lower, lower, True, GeodesicWitness(SRGeodesicParams(av, bv), lower, res))
    # No solve can give a rotation a witness (see `distance_shoot`).  Given xi, a target below lower
    # beyond the exact tie window is unreachable whatever the search finds, since eta >= lower.
    if lower <= _ZERO_LENGTH or (xi is not None and xi < lower - max(
            tol, _EXACT_TIE_TOL * max(1.0, abs(xi), lower + _EXACT_WIDTH))):
        return DistanceBracket(lower, math.inf, False, None)

    rng = np.random.default_rng(seed)
    n_starts = max(4, budget // len(_BRANCHES))
    starts = _shooting_starts(rng, n_starts - 1, 13.0)
    # One row per (branch, start) pair, branch-major, the first `budget` of them.
    branch = np.repeat(_BRANCHES, len(starts))[:budget]
    x0 = np.tile(starts, (len(_BRANCHES), 1))[:budget]
    FK = _skew_functionals(g1)
    roots, converged = _dogleg_rows(x0, FK, branch)
    feasible = _certified(g1_entries, FK, roots[converged], branch[converged], tol)
    tight = bool(feasible) and min(f[0] for f in feasible) <= lower + tol

    # Polish stage: the fixed-point Jacobian degenerates near the positive definite
    # cone (smallest singular value at the witness: median 7e-4 there, 9e-11 at small
    # |beta|, 0.09 on the benchmark corpus), so a start seeded from the polar
    # decomposition is refined by least squares, unless the bracket is already tight.
    if not tight and lower > _POLISH_MIN_LOWER:
        # Its c is -skew(log k): the residual at c = 0, where g exp(c) = g exactly, and g = k.
        skew_log_k = _fixed_point_rows(np.zeros((1, 3)), _skew_functionals(k), np.zeros(1, dtype=int))[0][0]
        if not (skew_log_k == 1e6).all():
            polished = _polish_candidate(g1_entries, np.concatenate([x, -skew_log_k]), tol)
            if polished is not None:
                feasible.append(polished)  # below tol: _polish_candidate checks

    if not feasible:
        return DistanceBracket(lower, math.inf, False, None)

    T, av, bv, res = min(feasible, key=lambda cand: (cand[0], tuple(cand[1]), tuple(cand[2])))
    witness = GeodesicWitness(SRGeodesicParams(av, bv), T, res)
    upper = max(T, lower)
    return DistanceBracket(lower, upper, upper - lower <= tol, witness)


def least_squares(fun, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Minimise |fun(x)|^2 over the box lo < x < hi from x0 inside it: the polish.

    Levenberg-Marquardt (More, LNM 630, 1978): the step p solves
    (J^T J + lam diag(J^T J)) p = -J^T f for a forward-difference J, and lam
    falls tenfold after a step that lowers the cost, else rises tenfold.  A
    step leaving the box stops 99 % of the way to its edge (clipped instead,
    one corpus target's steps crawled along an edge to no witness).
    """
    x, f, lam, nfev, J, stop = x0, fun(x0), 1e-3, 1, None, False
    while nfev < _LM_MAX_NFEV and not stop:
        if J is None:
            h = _FD_STEP * np.maximum(1.0, np.abs(x))
            J = np.column_stack([(fun(x + e) - f) / h[j] for j, e in enumerate(np.diag(h))])
            A, nfev = J.T @ J, nfev + len(x)
        p = -np.linalg.solve(A + lam * np.diag(np.diag(A)), J.T @ f)
        room = np.divide(np.where(p > 0.0, hi - x, x - lo), np.abs(p),
                         out=np.full(len(p), np.inf), where=p != 0.0)
        trial = x + min(1.0, 0.99 * float(room.min())) * p
        f_trial, nfev = fun(trial), nfev + 1
        cost, cost_trial = f @ f, f_trial @ f_trial
        stop = np.linalg.norm(trial - x) <= _LM_TOL * np.linalg.norm(x)
        if cost_trial < cost:
            stop |= cost - cost_trial <= _LM_TOL * cost
            x, f, lam, J = trial, f_trial, 0.1 * lam, None
        else:
            lam *= 10.0
    return x


def _polish_candidate(g1_entries: np.ndarray, x0: np.ndarray, tol: float):
    """Refine a packed candidate x = (T*alpha, T*beta) on the endpoint residual.

    Bounded Levenberg-Marquardt (`least_squares`) on the 8 real components of
    the endpoint gap; returns the candidate if its residual is below tol, else None.
    """
    def residual_vec(x):
        if np.linalg.norm(x[:3]) < _POLISH_ZERO_T:
            return np.full(8, 1e3)
        return _endpoint_gap(x, g1_entries)

    # Keep the solve local: a box around the seed prevents the optimizer from
    # tunnelling into a different (longer) solution basin.
    radius = 0.35 + 0.1 * float(np.linalg.norm(x0))
    try:
        x = least_squares(residual_vec, x0, x0 - radius, x0 + radius)
        cand = _candidate(g1_entries, x)
    except (ValueError, OverflowError):  # a non-finite gap, a singular system, cosh overflow
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
    with np.errstate(over="ignore"):  # an overflowing defect is inf
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
