"""Sub-Lorentzian geometry of GL+(2,C) with the Hermitian distribution.

Normal nonspacelike extremals from the identity are products of two
one-parameter subgroups

  g(t) = exp(t sum_{i=0..6} a_i e_i) exp(-t sum_{i=4..6} a_i e_i)

with a_0 = sqrt(1 + a1^2 + a2^2 + a3^2) (timelike, arclength) or
a_0 = |a_vec| = 1 (isotropic).  The same curves solve the
minimum-principle ODE system integrated by `pontryagin_integrate`.

Classification of a target g: with xi = ln det g and g1 = e^{-xi/2} g,
the target is reachable by a future-directed nonspacelike curve iff
xi >= eta := rho(e, g1) (sub-Riemannian distance) or g lies on the positive
scalar ray; the longest-arc length is sqrt(xi^2 - eta^2) in the timelike
case and 0 on the isotropic boundary.  Since eta is generally known only as
a bracket, ties are reported indeterminate rather than resolved, except when
the bracket is exact (positive definite Hermitian g1).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgCoords, Mat2C, _frozen_array, basis_matrix, format_float, to_coords
from .expmap import (
    ProductExpParams,
    aligning_rotation,
    det_split,
    sinc_scaled,
    sinch,
)
from .subriemannian import (
    DistanceBracket,
    SRGeodesicParams,
    distance_shoot,
)

REGIME_TIMELIKE = "timelike-normal"
REGIME_ISOTROPIC = "isotropic-normal"

_I2 = np.eye(2, dtype=complex)


class IntegrationDivergedError(RuntimeError):
    """Integration produced a non-finite state; carries the divergence time."""

    def __init__(self, time: float):
        super().__init__(f"integration diverged at t = {time}")
        self.time = time


class UnreachableTargetError(ValueError):
    """Longest-arc construction was asked for an unreachable or undecided target."""

    def __init__(self, report: "CausalReport"):
        super().__init__(f"no longest arc: target classified {report.causal_class}")
        self.report = report


@dataclass(frozen=True, eq=False)
class ExtremalParams:
    """Constants (a0..a6) of a normal nonspacelike extremal, with its regime."""

    alpha: np.ndarray
    regime: str

    def __post_init__(self):
        a = _frozen_array(self.alpha, float, (7,), "constants")
        norm_sq = float(np.dot(a[1:4], a[1:4]))
        if self.regime == REGIME_TIMELIKE:
            residual = a[0] - math.sqrt(1.0 + norm_sq)
            if abs(residual) > 1e-12:
                raise ValueError(
                    f"timelike regime requires a0 = sqrt(1 + |a_vec|^2); residual {residual:.3e}"
                )
        elif self.regime == REGIME_ISOTROPIC:
            residual = max(abs(a[0] - 1.0), abs(norm_sq - 1.0))
            if residual > 1e-12:
                raise ValueError(
                    f"isotropic regime requires a0 = |a_vec| = 1; residual {residual:.3e}"
                )
        else:
            raise ValueError(f"unknown regime {self.regime!r}")
        object.__setattr__(self, "alpha", a)

    @classmethod
    def timelike(cls, alpha_vec, beta_vec) -> "ExtremalParams":
        av = np.asarray(alpha_vec, dtype=float)
        bv = np.asarray(beta_vec, dtype=float)
        a0 = math.sqrt(1.0 + float(np.dot(av, av)))
        return cls(np.concatenate([[a0], av, bv]), REGIME_TIMELIKE)

    @classmethod
    def isotropic(cls, alpha_vec, beta_vec, normalize: bool = False) -> "ExtremalParams":
        av = np.asarray(alpha_vec, dtype=float)
        bv = np.asarray(beta_vec, dtype=float)
        if normalize:
            n = np.linalg.norm(av)
            if n == 0.0:
                raise ValueError("isotropic regime requires a nonzero alpha_vec")
            av = av / n
        return cls(np.concatenate([[1.0], av, bv]), REGIME_ISOTROPIC)

    def product_params(self) -> ProductExpParams:
        return ProductExpParams(self.alpha)


def normal_extremal(p: ExtremalParams, t: float) -> Mat2C:
    """Extremal point at time t from the closed-form coefficients."""
    return p.product_params().point(t)


def normal_extremal_reduced(alpha1: float, alpha456, alpha0: float, t: float) -> Mat2C:
    """Rotation-reduced extremal with alpha_vec along the first axis (alpha1 > 0).

    Uses the simplified coefficients valid for a2 = a3 = 0, where
    w1 = (1/2) sqrt(alpha1^2 + 2i alpha1 a4 - 4 w2^2).
    """
    if alpha1 <= 0:
        raise ValueError("reduced form requires alpha1 > 0")
    a4, a5, a6 = (float(x) for x in alpha456)
    w2 = 0.5 * math.sqrt(a4 * a4 + a5 * a5 + a6 * a6)
    w1 = 0.5 * np.sqrt(complex(alpha1 * alpha1 + 2j * alpha1 * a4 - 4.0 * w2 * w2))
    m1 = np.cosh(w1 * t)
    n1 = sinch(w1, t)
    m2 = math.cos(w2 * t)
    n2 = sinc_scaled(w2, t)
    ee = math.exp(alpha0 * t / 2.0)
    c0 = 2.0 * ee * (m1 * m2 + n1 * n2 * w2 * w2)
    c7 = -0.5 * ee * n1 * n2 * alpha1 * a4
    c1 = ee * n1 * m2 * alpha1
    c2 = 0.5 * ee * n1 * n2 * alpha1 * a6
    c3 = -0.5 * ee * n1 * n2 * alpha1 * a5
    swing = ee * (m2 * n1 - m1 * n2)
    m = c0 * basis_matrix(0).m + c7 * basis_matrix(7).m
    for i, ci in ((1, c1), (2, c2), (3, c3), (4, swing * a4), (5, swing * a5), (6, swing * a6)):
        m = m + ci * basis_matrix(i).m
    return Mat2C(m)


@dataclass(frozen=True, eq=False)
class CovectorState:
    """Coordinates (psi0..psi6) of the adjoint covector in the dual basis e0, -e1, ..., -e6."""

    psi: np.ndarray

    def __post_init__(self):
        p = _frozen_array(self.psi, float, (7,), "covector")
        if float(np.max(np.abs(p))) == 0.0:
            raise ValueError("covector must never vanish along an extremal")
        object.__setattr__(self, "psi", p)


def covector_rhs(psi, u_dual) -> np.ndarray:
    """Adjoint equations for a horizontal control with dual coordinates (u0..u3).

    Valid for any measurable control; the normal case sets u_k = psi_k.
    psi0 is conserved, the su(2) block is driven by the H0 block and vice
    versa through the cross products below.
    """
    _, p1, p2, p3, p4, p5, p6 = np.asarray(psi, dtype=float).tolist()
    _, u1, u2, u3 = np.asarray(u_dual, dtype=float).tolist()
    return np.array(
        [
            0.0,
            u2 * p6 - u3 * p5,
            -u1 * p6 + u3 * p4,
            u1 * p5 - u2 * p4,
            u2 * p3 - u3 * p2,
            -u1 * p3 + u3 * p1,
            u1 * p2 - u2 * p1,
        ]
    )


def _control_matrix(u_dual) -> np.ndarray:
    """Matrix of u0 e0 - u1 e1 - u2 e2 - u3 e3."""
    u0, u1, u2, u3 = (float(x) for x in u_dual)
    return 0.5 * np.array(
        [[u0 - u3, -u1 - 1j * u2], [-u1 + 1j * u2, u0 + u3]], dtype=complex
    )


def _control_coords(u_dual) -> AlgCoords:
    u0, u1, u2, u3 = (float(x) for x in u_dual)
    return AlgCoords(np.array([u0, -u1, -u2, -u3, 0.0, 0.0, 0.0, 0.0]))


@dataclass(frozen=True, eq=False)
class PathSample:
    """Discretized curve: times, group points, controls, covectors (both optional)."""

    times: np.ndarray
    points: tuple
    controls: tuple | None = None
    covectors: tuple | None = None

    def __post_init__(self):
        t = _frozen_array(self.times, float, (len(self.points),), "times")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        if self.controls is not None and len(self.controls) != len(t):
            raise ValueError("controls length mismatch")
        if self.covectors is not None and len(self.covectors) != len(t):
            raise ValueError("covectors length mismatch")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "points", tuple(self.points))
        if self.controls is not None:
            object.__setattr__(self, "controls", tuple(self.controls))
        if self.covectors is not None:
            object.__setattr__(self, "covectors", tuple(self.covectors))

    CSV_COLUMNS = (
        ["t"]
        + [f"g{r}{c}_{part}" for r in (1, 2) for c in (1, 2) for part in ("re", "im")]
        + [f"u{i}" for i in range(7)]
        + [f"psi{i}" for i in range(7)]
    )

    def to_csv(self, stream, extra_columns: dict | None = None, header_lines=None) -> None:
        """Write the sample; numbers use 17 significant digits, blanks where absent."""
        ff = format_float
        extra = extra_columns or {}
        w = csv.writer(stream, lineterminator="\n")
        for line in header_lines or []:
            stream.write(f"# {line}\n")
        w.writerow(self.CSV_COLUMNS + list(extra.keys()))
        for j, t in enumerate(self.times):
            g = self.points[j].m
            row = [ff(t)]
            for r in range(2):
                for c in range(2):
                    row += [ff(g[r, c].real), ff(g[r, c].imag)]
            if self.controls is not None:
                row += [ff(x) for x in self.controls[j].u[:7]]
            else:
                row += [""] * 7
            if self.covectors is not None:
                row += [ff(x) for x in self.covectors[j].psi]
            else:
                row += [""] * 7
            row += [ff(extra[k][j]) for k in extra]
            w.writerow(row)

    @classmethod
    def from_csv(cls, stream) -> "PathSample":
        """Re-read a sample written by `to_csv`; comment lines and extra columns are ignored."""
        rows = [
            line for line in stream if line.strip() and not line.lstrip().startswith("#")
        ]
        reader = csv.reader(rows)
        header = next(reader)
        idx = {name: header.index(name) for name in cls.CSV_COLUMNS}
        times, points, controls, covectors = [], [], [], []
        have_u = have_psi = True
        for row in reader:
            times.append(float(row[idx["t"]]))
            m = np.empty((2, 2), dtype=complex)
            for r in range(2):
                for c in range(2):
                    m[r, c] = complex(
                        float(row[idx[f"g{r + 1}{c + 1}_re"]]),
                        float(row[idx[f"g{r + 1}{c + 1}_im"]]),
                    )
            points.append(Mat2C(m))
            u_cells = [row[idx[f"u{i}"]] for i in range(7)]
            if all(c != "" for c in u_cells):
                controls.append(AlgCoords(np.array([float(c) for c in u_cells] + [0.0])))
            else:
                have_u = False
            psi_cells = [row[idx[f"psi{i}"]] for i in range(7)]
            if all(c != "" for c in psi_cells):
                covectors.append(CovectorState(np.array([float(c) for c in psi_cells])))
            else:
                have_psi = False
        return cls(
            np.array(times),
            tuple(points),
            tuple(controls) if have_u and controls else None,
            tuple(covectors) if have_psi and covectors else None,
        )

    def to_csv_text(self, extra_columns: dict | None = None, header_lines=None) -> str:
        buf = io.StringIO()
        self.to_csv(buf, extra_columns, header_lines)
        return buf.getvalue()


@np.errstate(over="ignore", invalid="ignore")  # non-finite results are checked
def pontryagin_integrate(
    psi0,
    regime: str,
    T: float,
    steps: int,
    record_every: int = 1,
) -> PathSample:
    """Integrate the normal-extremal ODE system with classical fixed-step RK4.

    State: the group point g (g' = g u with u built from the covector,
    u_k = psi_k) and the covector coordinates.  psi(0) must satisfy the
    regime normalization: timelike psi0 > 0 with psi0^2 - |psi_123|^2 = 1,
    isotropic psi0 = 1 with |psi_123|^2 = 1.  Fixed step keeps runs
    bit-reproducible; a non-finite state aborts with the divergence time.
    """
    psi = psi0.psi.copy() if isinstance(psi0, CovectorState) else np.asarray(psi0, dtype=float).copy()
    if psi.shape != (7,):
        raise ValueError("psi0 must have 7 coordinates")
    norm_sq = float(np.dot(psi[1:4], psi[1:4]))
    if regime == REGIME_TIMELIKE:
        if not (psi[0] > 0 and abs(psi[0] ** 2 - norm_sq - 1.0) <= 1e-9):
            raise ValueError("timelike regime requires psi0 > 0 and psi0^2 - |psi_123|^2 = 1")
    elif regime == REGIME_ISOTROPIC:
        if not (abs(psi[0] - 1.0) <= 1e-12 and abs(norm_sq - 1.0) <= 1e-9):
            raise ValueError("isotropic regime requires psi0 = 1 and |psi_123| = 1")
    else:
        raise ValueError(f"unknown regime {regime!r}")
    if steps < 1:
        raise ValueError("steps must be positive")

    h = T / steps
    g = _I2.copy()

    def f(gm, p):
        # Normal flow: su(2) covector block is constant, H0 block precesses.
        return gm @ _control_matrix(p[:4]), covector_rhs(p, p[:4])

    times, points, controls, covectors = [], [], [], []

    def record(j, gm, p):
        times.append(j * h)
        points.append(Mat2C(gm))
        controls.append(_control_coords(p[:4]))
        covectors.append(CovectorState(p))

    record(0, g, psi)
    for j in range(steps):
        k1g, k1p = f(g, psi)
        k2g, k2p = f(g + 0.5 * h * k1g, psi + 0.5 * h * k1p)
        k3g, k3p = f(g + 0.5 * h * k2g, psi + 0.5 * h * k2p)
        k4g, k4p = f(g + h * k3g, psi + h * k3p)
        g = g + (h / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
        psi = psi + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        if (j + 1) % record_every == 0 or j == steps - 1:
            if not (np.all(np.isfinite(g.view(float))) and np.all(np.isfinite(psi))):
                raise IntegrationDivergedError((j + 1) * h)
            record(j + 1, g, psi)
    return PathSample(np.array(times), tuple(points), tuple(controls), tuple(covectors))


def extremal_path(p: ExtremalParams, ts) -> PathSample:
    """Closed-form sampling of a normal extremal with its controls and covectors.

    The control is `ProductExpParams.control`; the covector is
    (u0, -u_123, -beta_vec).
    """
    bv = p.alpha[4:7]
    pp = p.product_params()
    times = np.asarray(ts, dtype=float)
    points, controls, covectors = [], [], []
    for t in times:
        points.append(pp.point(float(t)))
        u = pp.control(float(t))
        controls.append(u)
        covectors.append(CovectorState(np.concatenate([u.u[:1], -u.u[1:4], -bv])))
    return PathSample(times, tuple(points), tuple(controls), tuple(covectors))


# -- SU(2) action -------------------------------------------------------------


def su2_conjugate(s: Mat2C, g: Mat2C, tol: float = 1e-12) -> Mat2C:
    """Conjugation s g s* by an SU(2) element; an isometry fixing e0-coordinates."""
    if not s.is_unitary(tol) or abs(s.det() - 1.0) > tol:
        raise ValueError("conjugating element must be in SU(2)")
    return Mat2C(s.m @ g.m @ s.m.conj().T)


def canonical_reduce(p: ExtremalParams) -> tuple[ExtremalParams, Mat2C]:
    """Rotate the constants so alpha_vec points along the positive first axis.

    Returns (reduced params, s) with conjugation by s carrying the original
    extremal onto the reduced one pointwise.  Both coordinate triples rotate
    by the same matrix; alpha_vec = 0 is returned unchanged.
    """
    a = p.alpha
    av, bv = a[1:4], a[4:7]
    na = float(np.linalg.norm(av))
    if na < 1e-15:
        return p, Mat2C.identity()
    s, R = aligning_rotation(av)
    new_b = R @ bv
    new = np.concatenate([[a[0]], [na, 0.0, 0.0], new_b])
    return ExtremalParams(new, p.regime), s


# -- causal classification ----------------------------------------------------

CLASS_IDENTITY = "identity"
CLASS_TIMELIKE = "timelike"
CLASS_ISOTROPIC = "isotropic"
CLASS_UNREACHABLE = "unreachable"
CLASS_INDETERMINATE = "indeterminate"

# Bracket width below which the distance estimate is treated as exact, making
# the timelike/isotropic/unreachable trichotomy decidable.
_EXACT_WIDTH = 1e-10
_EXACT_TIE_TOL = 1e-9


def _exact(bracket: DistanceBracket) -> bool:
    return bracket.width <= _EXACT_WIDTH and math.isfinite(bracket.upper)


@dataclass(frozen=True)
class CausalReport:
    """Classification of a group element relative to the identity.

    distance is None for unreachable and indeterminate targets (the
    unreachable value "-inf" is an out-of-band marker applied only at
    serialization, never in arithmetic).  c_param is the boost rapidity with
    xi = d cosh(c), eta = d sinh(c) for timelike targets.  The flags are
    read off the bracket: `eta_exact` when it is finite and at most
    _EXACT_WIDTH wide; `extrapolated` when it is inexact with a vanishing
    lower end (unitary g1 != I), so the class leans on shooting alone.
    """

    xi: float
    eta: DistanceBracket
    causal_class: str
    distance: float | None
    c_param: float | None

    @property
    def eta_exact(self) -> bool:
        return _exact(self.eta)

    @property
    def extrapolated(self) -> bool:
        return not self.eta_exact and self.eta.lower <= _EXACT_WIDTH

    def to_json(self) -> dict:
        if self.causal_class == CLASS_UNREACHABLE:
            dist = "-inf"
        elif self.distance is None:
            dist = None
        else:
            dist = float(self.distance)
        return {
            "xi": float(self.xi),
            "eta": self.eta.to_json(),
            "class": self.causal_class,
            "distance": dist,
            "c": None if self.c_param is None else float(self.c_param),
            "extrapolated": bool(self.extrapolated),
            "eta_exact": bool(self.eta_exact),
        }

    @classmethod
    def from_json(cls, d: dict) -> "CausalReport":
        dist = d["distance"]
        distance = None if dist in (None, "-inf") else float(dist)
        return cls(
            float(d["xi"]),
            DistanceBracket.from_json(d["eta"]),
            d["class"],
            distance,
            None if d["c"] is None else float(d["c"]),
        )


def causal_classify(
    g: Mat2C, tol: float = 1e-7, seed: int = 0, budget: int = 240
) -> CausalReport:
    """Classify g and compute the sub-Lorentzian distance from the identity.

    xi = ln det g must be real; eta is bracketed by `distance_shoot` (exact
    when the unimodular part is positive definite Hermitian).  With an exact
    bracket the trichotomy xi > = < eta is decided directly; with an inexact
    one, xi inside [lower - tol, upper + tol] is reported indeterminate.
    """
    xi, g1 = det_split(g)
    bracket = distance_shoot(Mat2C(g1), tol=tol, seed=seed, budget=budget)
    if bracket.witness is None and bracket.upper == 0.0:
        # scalar ray: eta = 0 exactly
        if abs(xi) <= 1e-12:
            return CausalReport(xi, bracket, CLASS_IDENTITY, 0.0, None)
        if xi > 0:
            return CausalReport(xi, bracket, CLASS_TIMELIKE, xi, 0.0)
        return CausalReport(xi, bracket, CLASS_UNREACHABLE, None, None)

    eta = 0.5 * (bracket.lower + bracket.upper)
    if _exact(bracket):
        if abs(xi - eta) <= _EXACT_TIE_TOL * max(1.0, abs(xi), eta):
            return CausalReport(xi, bracket, CLASS_ISOTROPIC, 0.0, None)
        if xi < eta:
            return CausalReport(xi, bracket, CLASS_UNREACHABLE, None, None)
    else:
        # Inexact bracket: only strict separations are decided.
        if xi < bracket.lower - tol:
            return CausalReport(xi, bracket, CLASS_UNREACHABLE, None, None)
        if not (math.isfinite(bracket.upper) and xi > bracket.upper + tol):
            return CausalReport(xi, bracket, CLASS_INDETERMINATE, None, None)
    d = math.sqrt(xi * xi - eta * eta)
    return CausalReport(xi, bracket, CLASS_TIMELIKE, d, math.atanh(eta / xi))


def longest_arc(
    g: Mat2C, samples: int = 101, tol: float = 1e-7, seed: int = 0, budget: int = 240
) -> PathSample:
    """Sample the longest arc from the identity to a reachable target.

    Timelike: g(t) = e^{cosh(c) t / 2} gamma(sinh(c) t) over t in [0, d] with
    gamma the witness geodesic of the eta bracket; isotropic: e^{t/2} gamma(t)
    over [0, xi].  The identity's longest arc is the single point e: one
    sample whatever `samples` is, since path times strictly increase.  The
    endpoint gap is checked in the unimodular frame (times e^{-xi/2}).
    Unreachable or indeterminate targets raise UnreachableTargetError with
    the report attached.
    """
    if samples < 2:
        raise ValueError(f"longest_arc needs samples >= 2, got {samples}")
    report = causal_classify(g, tol=tol, seed=seed, budget=budget)
    if report.causal_class in (CLASS_UNREACHABLE, CLASS_INDETERMINATE):
        raise UnreachableTargetError(report)
    if report.causal_class == CLASS_IDENTITY:
        return PathSample(
            np.array([0.0]),
            (Mat2C.identity(),),
            (AlgCoords(np.concatenate([[1.0], np.zeros(7)])),),
            None,
        )
    xi = report.xi
    witness = report.eta.witness
    if report.causal_class == CLASS_ISOTROPIC:
        eta_w = witness.T
        total, ch_c, sh_c = xi, 1.0, eta_w / xi
    else:
        eta_w = 0.0 if witness is None else witness.T
        total = math.sqrt(max(xi * xi - eta_w * eta_w, 0.0))
        ch_c, sh_c = xi / total, eta_w / total
    if witness is not None:
        geo_params = witness.params
    else:
        geo_params = SRGeodesicParams(np.array([1.0, 0.0, 0.0]), np.zeros(3))
    gp = geo_params.product_params()

    times = np.linspace(0.0, total, samples)
    points, controls = [], []
    for t in times:
        s = sh_c * t
        points.append(Mat2C(math.exp(ch_c * t / 2.0) * gp.point(s).m))
        u = gp.control(s).u
        controls.append(AlgCoords(np.concatenate([[ch_c], sh_c * u[1:4], np.zeros(4)])))
    residual = points[-1].distance(g) * math.exp(-xi / 2.0)
    if residual > 10.0 * tol:
        raise RuntimeError(f"longest-arc endpoint residual {residual:.3e} exceeds 10*tol")
    return PathSample(times, tuple(points), tuple(controls), None)


def causal_relation(x: Mat2C, y: Mat2C, tol: float = 1e-7, seed: int = 0) -> str:
    """Relation of y to x via left invariance: classify x^{-1} y.

    chronological (timelike-reachable), causal-null (isotropic boundary,
    including x = y by the p <= p convention), unrelated, or indeterminate.
    """
    det_split(x)
    det_split(y)
    rel = causal_classify(x.inverse() @ y, tol=tol, seed=seed)
    return {
        CLASS_TIMELIKE: "chronological",
        CLASS_ISOTROPIC: "causal-null",
        CLASS_IDENTITY: "causal-null",
        CLASS_UNREACHABLE: "unrelated",
        CLASS_INDETERMINATE: "indeterminate",
    }[rel.causal_class]


# -- abnormal extremals -------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")  # non-finite results are checked
def abnormal_extremal(
    kappa_times,
    kappa_values,
    beta_dir,
    regime: str,
    steps: int,
) -> PathSample:
    """Integrate an abnormal extremal driven by a sampled gauge function.

    The constant covector (0,0,0,0,-b1,-b2,-b3) forces the control direction
    along beta_dir; the sampled kappa sets its magnitude:
    timelike u0 = cosh(kappa), u_i = b_hat_i sinh(kappa); isotropic
    u0 = |kappa|, u_i = b_hat_i kappa with kappa nonvanishing.  kappa is
    linearly interpolated between nodes, so supplying nodes at half-step
    resolution makes the integrator see exact values.
    """
    kt = np.asarray(kappa_times, dtype=float)
    kv = np.asarray(kappa_values, dtype=float)
    if kt.ndim != 1 or kt.shape != kv.shape or len(kt) < 2:
        raise ValueError("kappa must be sampled at two or more nodes")
    if kt[0] != 0.0 or not np.all(np.diff(kt) > 0):
        raise ValueError("kappa nodes must start at 0 and increase")
    bv = np.asarray(beta_dir, dtype=float)
    nb = float(np.linalg.norm(bv))
    if nb == 0.0:
        raise ValueError("beta_dir must be nonzero")
    if regime == REGIME_ISOTROPIC:
        if np.any(kv == 0.0) or np.any(kv[:-1] * kv[1:] < 0.0):
            raise ValueError("isotropic regime requires kappa without zero crossings")
    elif regime != REGIME_TIMELIKE:
        raise ValueError(f"unknown regime {regime!r}")
    if steps < 1:
        raise ValueError("steps must be positive")
    bhat = bv / nb
    T = float(kt[-1])
    h = T / steps

    def u_dual(t):
        k = float(np.interp(t, kt, kv))
        if regime == REGIME_TIMELIKE:
            mag, u0 = math.sinh(k), math.cosh(k)
        else:
            mag, u0 = k, abs(k)
        return (u0, bhat[0] * mag, bhat[1] * mag, bhat[2] * mag)

    psi = np.concatenate([np.zeros(4), -bv])
    covector = CovectorState(psi)

    g = _I2.copy()
    times, points, controls, covectors = [0.0], [Mat2C(g)], [_control_coords(u_dual(0.0))], [covector]
    worst_drift = 0.0
    for j in range(steps):
        t = j * h
        u1 = u_dual(t)
        u2 = u_dual(t + h / 2.0)
        u4 = u_dual(t + h)
        worst_drift = max(worst_drift, float(np.max(np.abs(covector_rhs(psi, u1)))))
        k1 = g @ _control_matrix(u1)
        k2 = (g + 0.5 * h * k1) @ _control_matrix(u2)
        k3 = (g + 0.5 * h * k2) @ _control_matrix(u2)
        k4 = (g + h * k3) @ _control_matrix(u4)
        g = g + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(g.view(float))):
            raise IntegrationDivergedError((j + 1) * h)
        times.append((j + 1) * h)
        points.append(Mat2C(g))
        controls.append(_control_coords(u4))
        covectors.append(covector)
    if worst_drift > 1e-9:
        raise RuntimeError(f"abnormal covector is not stationary: drift {worst_drift:.3e}")
    return PathSample(np.array(times), tuple(points), tuple(controls), tuple(covectors))


@dataclass(frozen=True)
class AbnormalCertificate:
    """Constant control of a nonstrictly abnormal path and an abnormal covector for it."""

    control: AlgCoords
    covector: np.ndarray
    regime: str


def nonstrict_abnormal_check(
    p: PathSample, tol: float = 1e-7
) -> tuple[bool, AbnormalCertificate | None]:
    """Decide whether a path from the identity is a constant-control subgroup.

    True exactly when the recovered control is constant (sup deviation below
    tol), lies in H, is future directed, and carries one of the two regime
    normalizations.  The certificate holds the control and an abnormal
    covector annihilating it: for timelike a0 > 1 the su(2) block is
    -a_vec/sqrt(a0^2 - 1); for a0 = 1 any nonzero su(2) block works (a
    canonical one is returned); isotropic paths use -a_vec/|a_vec|.
    """
    if p.points[0].distance(Mat2C.identity()) > 1e-9:
        raise ValueError("path must start at the identity")
    if p.controls is not None:
        u_arr = np.array([c.u for c in p.controls])
        mem_tol = max(tol, 1e-9)
    else:
        if len(p.points) < 3:
            raise ValueError("need at least 3 samples to recover controls")
        u_list = []
        for j in range(1, len(p.points) - 1):
            dt = p.times[j + 1] - p.times[j - 1]
            deriv = (p.points[j + 1].m - p.points[j - 1].m) / dt
            u_list.append(to_coords(Mat2C(p.points[j].inverse().m @ deriv)).u)
        u_arr = np.array(u_list)
        dt_max = float(np.max(np.diff(p.times)))
        scale = 1.0 + float(np.max(np.abs(u_arr)))
        mem_tol = max(tol, dt_max * dt_max * scale**3)

    deviation = float(np.max(np.abs(u_arr - u_arr[0]))) if len(u_arr) > 1 else 0.0
    if deviation > tol:
        return False, None
    u = u_arr[0]
    if float(np.max(np.abs(u[4:]))) > mem_tol:
        return False, None
    a0 = float(u[0])
    avec = u[1:4]
    if a0 <= 0:
        return False, None
    q = a0 * a0 - float(np.dot(avec, avec))
    control = AlgCoords(np.concatenate([[a0], avec, np.zeros(4)]))
    if abs(q - 1.0) <= mem_tol:
        if a0 > 1.0 + 1e-9:
            su2 = -avec / math.sqrt(a0 * a0 - 1.0)
        else:
            su2 = np.array([-1.0, 0.0, 0.0])
        cert = AbnormalCertificate(control, np.concatenate([np.zeros(4), su2]), REGIME_TIMELIKE)
        return True, cert
    if abs(q) <= mem_tol:
        na = float(np.linalg.norm(avec))
        if na == 0.0:
            return False, None
        cert = AbnormalCertificate(
            control, np.concatenate([np.zeros(4), -avec / na]), REGIME_ISOTROPIC
        )
        return True, cert
    return False, None
