"""Sub-Riemannian geometry of SL(2,C) with the traceless-Hermitian distribution.

Geodesics from the identity are products of two one-parameter subgroups,

  gamma(t) = exp(t(a + b)) exp(-t b),   a traceless Hermitian (|a| = 1),
                                        b skew-Hermitian traceless,

parametrized here by (alpha_vec, beta_vec) = coordinates of a and b.  The
distance from the identity to a positive definite Hermitian target exp(X) is
exactly |X| (one-parameter subgroups tangent to the distribution are metric
lines); the projection to hyperbolic 3-space never increases distance, which
yields the certified lower bound ln(lambda_max(g g*)).  For general targets
the distance is bracketed: hyperbolic lower bound below, best shooting
solution above.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgCoords, Mat2C, _frozen_array, entry_coords, from_coords
from .expmap import (
    ProductExpParams,
    exp_series,
    polar_decompose,
    su2_entries,
    aligning_rotation,
)

_I2 = np.eye(2, dtype=complex)


# The shooting solvers.  scipy.optimize takes longer to import than the rest
# of the package together, and only the non-boost distance needs it, so it is
# imported on the first solve.  `distance_shoot` and `_polish_candidate` call
# these through the module globals, where a caller may replace them.
def root(*args, **kwargs):
    """`scipy.optimize.root`, imported on the call."""
    from scipy.optimize import root as _root

    return _root(*args, **kwargs)


def least_squares(*args, **kwargs):
    """`scipy.optimize.least_squares`, imported on the call."""
    from scipy.optimize import least_squares as _least_squares

    return _least_squares(*args, **kwargs)


def __getattr__(name):
    # `minimize` is unused here, but bench/spans.py wraps it by name, so the
    # attribute still resolves (and only then imports scipy.optimize).
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
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


def sr_geodesic_two_factor(p: SRGeodesicParams, t: float) -> Mat2C:
    """Independent evaluation as an explicit product of two exponentials."""
    return p.product_params().point_two_factor(t)


def sr_geodesic_control(p: SRGeodesicParams, t: float) -> AlgCoords:
    """Left-logarithmic derivative of the geodesic: the rotated alpha_vec in H0."""
    return p.product_params().control(t)


def boost_distance(x: AlgCoords, tol: float = 1e-10) -> float:
    """Distance from the identity to exp(x) for traceless Hermitian x: exactly |x|."""
    if not x.in_H0(tol):
        raise ValueError("boost_distance requires coordinates in H0")
    return float(np.linalg.norm(x.u[1:4]))


def _require_unimodular(g1: Mat2C, tol: float = 1e-9) -> None:
    d = g1.det()
    if abs(d - 1.0) > tol:
        raise ValueError(f"target must be unimodular, det = {d}")


def distance_lower_bound(g1: Mat2C) -> float:
    """Certified lower bound ln(lambda_max(g1 g1*)): hyperbolic distance of the projection.

    Exact on positive definite Hermitian targets, degenerate (zero) on the
    unitary fiber through the identity.
    """
    _require_unimodular(g1)
    q = g1.m @ g1.m.conj().T
    tau = float((q[0, 0] + q[1, 1]).real) / 2.0  # det(q) = 1, eigenvalues lam, 1/lam
    tau = max(tau, 1.0)
    return math.log(tau + math.sqrt(max(tau * tau - 1.0, 0.0)))


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


def _fixed_point(c: np.ndarray, g: tuple, branch: int) -> np.ndarray:
    """Shooting residual skew(log(g exp(c))) - c on a log branch; 1e6 where that log is None."""
    c0, c1, c2 = c.tolist()
    L = _log_g_su2(g, c0, c1, c2, branch)
    if L is None:
        return np.full(3, 1e6)
    u = entry_coords(*L)
    return np.array((u[4] - c0, u[5] - c1, u[6] - c2))


def _candidate(g1m: np.ndarray, v: np.ndarray, c: np.ndarray):
    """Turn (v, c) = (T alpha, T beta) into (T, alpha_vec, beta_vec, endpoint residual)."""
    T = float(np.linalg.norm(v))
    if T < 1e-12:
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

    Strategy: positive definite Hermitian targets (rotation factor of the
    polar decomposition within 1e-10 of I) are exact; otherwise candidate
    geodesics are recovered by solving the 3-dimensional fixed-point equation

        skew_part( log( g1 exp(c) ) ) = c

    over seeded multistarts and logarithm branches, each root giving a
    geodesic hitting g1 exactly at time T = |hermitian_part(log(g1 exp(c)))|.
    Any geodesic reaching g1 at time T proves distance <= T, so the witness
    is the shortest candidate whose endpoint residual is below tol, whatever
    its length or |beta|; the lower end is the hyperbolic projection bound.
    tol must be finite and positive.  Deterministic for a fixed seed.

    tol has two roles: it certifies a witness's endpoint residual, and
    `converged` is set when the bracket is narrower than the same tol.  A
    large tol therefore reports a wide bracket as converged: on the first
    `mixed` target of `bench/workloads.py`'s `classify_corpus(sl, 1, 12)`,
    tol=10 gives [0.784, 2.087] with converged true (tol=1e-7: false).
    """
    _require_unimodular(g1)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    lower = distance_lower_bound(g1)

    if float(np.max(np.abs(g1.m - _I2))) <= 1e-12:
        return DistanceBracket(0.0, 0.0, True, None)

    pd = polar_decompose(g1)
    if pd.rotation.distance(Mat2C.identity()) <= 1e-10:
        # Boost target: the one-parameter subgroup through it is a metric line.
        x = pd.boost.u[1:4]
        T = float(np.linalg.norm(x))
        params = SRGeodesicParams(x / T if T > 0 else np.array([1.0, 0.0, 0.0]), np.zeros(3))
        residual = float(np.max(np.abs(sr_geodesic(params, T).m - g1.m)))
        witness = GeodesicWitness(params, T, residual)
        return DistanceBracket(lower, max(T, lower), True, witness)

    rng = np.random.default_rng(seed)
    branches = (0, 1, -1, 2, -2, 3, -3)
    n_starts = max(4, budget // len(branches))
    starts = _shooting_starts(rng, n_starts - 1, 13.0)
    g1m = g1.m
    g = tuple(g1m.ravel().tolist())

    feasible: list[tuple] = []
    attempts = 0
    seen_roots: set = set()

    for branch in branches:
        for c0 in starts:
            if attempts >= budget:
                break
            attempts += 1

            sol = root(_fixed_point, c0, args=(g, branch), method="hybr", tol=1e-13)
            if not sol.success:
                continue
            key = (branch,) + tuple(np.round(sol.x, 9))
            if key in seen_roots:
                continue
            seen_roots.add(key)
            L = _log_g_su2(g, *sol.x.tolist(), branch)
            if L is None:
                continue
            cand = _candidate(g1m, np.array(entry_coords(*L)[1:4]), sol.x)
            if cand is not None and cand[3] < tol:
                feasible.append(cand)
        # A bracket already tight to tolerance cannot improve further.
        if feasible and min(f[0] for f in feasible) <= lower + tol:
            break

    # Polish stage: the fixed-point Jacobian degenerates for targets near the
    # positive definite cone, so a start seeded from the polar decomposition
    # (boost X, su(2) part -log k) is refined by least squares on the endpoint
    # residual.  Skipped when the bracket is already tight.
    x_boost = pd.boost.u[1:4]
    tight = feasible and min(f[0] for f in feasible) <= lower + tol
    if not tight and float(np.linalg.norm(x_boost)) > 1e-6:
        log_k = _log_sl2(*pd.rotation.m.ravel().tolist(), 0)
        if log_k is not None:
            c_seed = -np.array(entry_coords(*log_k)[4:7])
            polished = _polish_candidate(g1m, np.concatenate([x_boost, c_seed]), tol)
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

    def residual_vec(x):
        v = x[:3]
        T = np.linalg.norm(v)
        if T < 1e-9:
            return np.full(8, 1e3)
        p = SRGeodesicParams(v / T, x[3:] / T)
        gap = sr_geodesic(p, float(T)).m - g1m
        return np.concatenate([gap.real.ravel(), gap.imag.ravel()])

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
        return {
            "x": self.x,
            "y": self.y,
            "beta": self.beta,
            "case": self.case,
            "residual": self.residual,
        }


def _osn_margins(alpha_vec, beta_vec) -> dict:
    """Decision quantities for the Hermitian-endpoint conditions.

    Evaluated in the rotated frame with alpha along the first axis (the
    conjugation is an isometry acting identically on both coordinate
    triples, so x, y, beta and all conditions are unchanged).
    """
    av = np.asarray(alpha_vec, dtype=float)
    bv = np.asarray(beta_vec, dtype=float)
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    if na == 0.0 or nb == 0.0:
        raise ValueError("both vectors must be nonzero")
    _, R = aligning_rotation(av)
    a_red = R @ av  # (na, 0, 0) up to rounding
    b_red = R @ bv
    alpha = float(a_red[0])
    w_plus = 0.5 * np.sqrt(complex(alpha * alpha - nb * nb + 2j * alpha * b_red[0]))
    x, y = float(w_plus.real), float(w_plus.imag)
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
    m = _osn_margins(av, bv)
    x, y = m["x"], m["y"]

    a_mat = from_coords(np.concatenate([[0.0], av, np.zeros(3)]))
    b_mat = from_coords(np.concatenate([[0.0], np.zeros(3), bv]))
    endpoint = exp_series(a_mat + b_mat).m @ exp_series(-1 * b_mat).m
    defect = float(np.linalg.norm(endpoint - endpoint.conj().T))

    # The paired x, y satisfy 4xy = alpha.beta identically; guard the frame math.
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
