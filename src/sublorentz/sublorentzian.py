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

import cmath
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgCoords, Mat2C, _frozen_array, _frozen_rows, coeff_entries, format_float, to_coords)
from .expmap import ProductExpParams, aligning_rotation, det_split, sinc_scaled, sinch
from .subriemannian import (
    _EXACT_TIE_TOL, _EXACT_WIDTH, _ZERO_LENGTH, DistanceBracket, _shoot_front, _shoot_search)

REGIME_TIMELIKE = "timelike-normal"
REGIME_ISOTROPIC = "isotropic-normal"

# Signs taking coordinates over e0, e1, e2, e3 to those over the dual basis
# e0, -e1, -e2, -e3 of controls and covectors, and back.
_DUAL_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])

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
    return Mat2C(np.reshape(
        coeff_entries(c0, c1, c2, c3, swing * a4, swing * a5, swing * a6, c7), (2, 2)))


@dataclass(frozen=True, eq=False)
class CovectorState:
    """Coordinates (psi0..psi6) of the adjoint covector in the dual basis e0, -e1, ..., -e6."""

    psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psi", self.rows([self.psi])[0].psi)  # a batch of one

    @classmethod
    def rows(cls, psis) -> tuple["CovectorState", ...]:
        """One CovectorState per row of an (N, 7) batch, validated once as a whole."""
        p = _frozen_array(psis, float, (7,), "covector", batch=True)
        if (np.abs(p).max(axis=1) == 0.0).any():
            raise ValueError("covector must never vanish along an extremal")
        return _frozen_rows(cls, "psi", p)


def _adjoint_rhs(p1, p2, p3, p4, p5, p6, u1, u2, u3) -> tuple:
    """(psi1', ..., psi6') for covector entries p1..p6 and control u1..u3; psi0' = 0."""
    return (
        u2 * p6 - u3 * p5,
        -u1 * p6 + u3 * p4,
        u1 * p5 - u2 * p4,
        u2 * p3 - u3 * p2,
        -u1 * p3 + u3 * p1,
        u1 * p2 - u2 * p1,
    )


def _times_control(g00, g01, g10, g11, u0, u1, u2, u3) -> tuple:
    """Entries of g (u0 e0 - u1 e1 - u2 e2 - u3 e3) for g = [[g00, g01], [g10, g11]].

    Not built by `coeff_entries`: 4 stages x 3.5 us would add most of a 17 us RK4 step.
    """
    a = 0.5 * (u0 - u3)
    b = 0.5 * (-u1 - 1j * u2)
    c = 0.5 * (-u1 + 1j * u2)
    d = 0.5 * (u0 + u3)
    return g00 * a + g01 * c, g00 * b + g01 * d, g10 * a + g11 * c, g10 * b + g11 * d


def _rk4_point(g, h6: float, k1, k2, k3, k4) -> tuple:
    """g + h6 (k1 + 2 k2 + 2 k3 + k4), entry by entry."""
    g00, g01, g10, g11 = g
    a00, a01, a10, a11 = k1
    b00, b01, b10, b11 = k2
    c00, c01, c10, c11 = k3
    d00, d01, d10, d11 = k4
    return (
        g00 + h6 * (a00 + 2 * b00 + 2 * c00 + d00),
        g01 + h6 * (a01 + 2 * b01 + 2 * c01 + d01),
        g10 + h6 * (a10 + 2 * b10 + 2 * c10 + d10),
        g11 + h6 * (a11 + 2 * b11 + 2 * c11 + d11),
    )


def _normal_step(g, p0: float, p, h: float) -> tuple[tuple, tuple]:
    """One RK4 step of the normal flow (control u_k = psi_k) on scalars.

    g holds the entries (g00, g01, g10, g11) of the group point and p the
    covector entries psi1..psi6.  psi0 is conserved (psi0' = 0 exactly), so
    it is not stepped; the su(2) block psi4..6 is constant too (u x psi_123
    vanishes), while the H0 block psi1..3 precesses.  Returns the new (g, p).
    """
    g00, g01, g10, g11 = g
    p1, p2, p3, p4, p5, p6 = p
    hh = 0.5 * h
    k1 = a00, a01, a10, a11 = _times_control(g00, g01, g10, g11, p0, p1, p2, p3)
    a1, a2, a3, a4, a5, a6 = _adjoint_rhs(p1, p2, p3, p4, p5, p6, p1, p2, p3)
    q1, q2, q3 = p1 + hh * a1, p2 + hh * a2, p3 + hh * a3
    k2 = b00, b01, b10, b11 = _times_control(
        g00 + hh * a00, g01 + hh * a01, g10 + hh * a10, g11 + hh * a11, p0, q1, q2, q3)
    b1, b2, b3, b4, b5, b6 = _adjoint_rhs(
        q1, q2, q3, p4 + hh * a4, p5 + hh * a5, p6 + hh * a6, q1, q2, q3)
    q1, q2, q3 = p1 + hh * b1, p2 + hh * b2, p3 + hh * b3
    k3 = c00, c01, c10, c11 = _times_control(
        g00 + hh * b00, g01 + hh * b01, g10 + hh * b10, g11 + hh * b11, p0, q1, q2, q3)
    c1, c2, c3, c4, c5, c6 = _adjoint_rhs(
        q1, q2, q3, p4 + hh * b4, p5 + hh * b5, p6 + hh * b6, q1, q2, q3)
    q1, q2, q3 = p1 + h * c1, p2 + h * c2, p3 + h * c3
    k4 = _times_control(
        g00 + h * c00, g01 + h * c01, g10 + h * c10, g11 + h * c11, p0, q1, q2, q3)
    d1, d2, d3, d4, d5, d6 = _adjoint_rhs(
        q1, q2, q3, p4 + h * c4, p5 + h * c5, p6 + h * c6, q1, q2, q3)
    h6 = h / 6.0
    return _rk4_point(g, h6, k1, k2, k3, k4), (
        p1 + h6 * (a1 + 2 * b1 + 2 * c1 + d1),
        p2 + h6 * (a2 + 2 * b2 + 2 * c2 + d2),
        p3 + h6 * (a3 + 2 * b3 + 2 * c3 + d3),
        p4 + h6 * (a4 + 2 * b4 + 2 * c4 + d4),
        p5 + h6 * (a5 + 2 * b5 + 2 * c5 + d5),
        p6 + h6 * (a6 + 2 * b6 + 2 * c6 + d6),
    )


def _gauge_step(g, u_start, u_mid, u_end, h: float) -> tuple:
    """One RK4 step of g' = g u(t) with the control sampled at t, t + h/2 and t + h."""
    g00, g01, g10, g11 = g
    hh = 0.5 * h
    k1 = a00, a01, a10, a11 = _times_control(g00, g01, g10, g11, *u_start)
    k2 = b00, b01, b10, b11 = _times_control(
        g00 + hh * a00, g01 + hh * a01, g10 + hh * a10, g11 + hh * a11, *u_mid)
    k3 = c00, c01, c10, c11 = _times_control(
        g00 + hh * b00, g01 + hh * b01, g10 + hh * b10, g11 + hh * b11, *u_mid)
    k4 = _times_control(g00 + h * c00, g01 + h * c01, g10 + h * c10, g11 + h * c11, *u_end)
    return _rk4_point(g, h / 6.0, k1, k2, k3, k4)


def _finite(values) -> bool:
    return all(map(cmath.isfinite, values))


def _recorded_path(times, points, u_dual, covectors) -> PathSample:
    """PathSample of integrator records, one validated batch each: point entries
    (g00, g01, g10, g11) and dual controls (u0..u3) of u0 e0 - u1 e1 - u2 e2 - u3 e3."""
    u = np.pad(np.asarray(u_dual, dtype=float) * _DUAL_SIGNS, ((0, 0), (0, 4)))
    points = Mat2C.rows(np.reshape(points, (-1, 2, 2)))
    return PathSample(np.array(times), points, AlgCoords.rows(u), covectors)


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
        for name in ("controls", "covectors"):
            rows = getattr(self, name)
            if rows is not None and len(rows) != len(t):
                raise ValueError(f"{name} length mismatch")
            object.__setattr__(self, name, None if rows is None else tuple(rows))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "points", tuple(self.points))

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
            row += [ff(x) for x in self.controls[j].u[:7]] if self.controls else [""] * 7
            row += [ff(x) for x in self.covectors[j].psi] if self.covectors else [""] * 7
            row += [ff(extra[k][j]) for k in extra]
            w.writerow(row)

    @classmethod
    def from_csv(cls, stream) -> "PathSample":
        """Re-read a sample written by `to_csv`; comment lines and extra columns are ignored.

        Points, controls and covectors are each read as one batch; controls or
        covectors with a blank cell in some row are absent.
        """
        lines = [line for line in stream if line.strip() and not line.lstrip().startswith("#")]
        reader = csv.reader(lines)
        header = next(reader)
        idx = [header.index(name) for name in cls.CSV_COLUMNS]
        cells = np.array([[row[i] for i in idx] for row in reader], object).reshape(-1, len(idx))
        t, g, u, psi = np.split(cells, [1, 9, 16], axis=1)
        u, psi = (x.astype(float) if len(cells) and (x != "").all() else None for x in (u, psi))
        return cls(
            t[:, 0].astype(float),
            Mat2C.rows(g.astype(float).view(complex).reshape(-1, 2, 2)),
            None if u is None else AlgCoords.rows(np.pad(u, ((0, 0), (0, 1)))),
            None if psi is None else CovectorState.rows(psi),
        )

    def to_csv_text(self, extra_columns: dict | None = None, header_lines=None) -> str:
        buf = io.StringIO()
        self.to_csv(buf, extra_columns, header_lines)
        return buf.getvalue()


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
    isotropic psi0 = 1 with |psi_123|^2 = 1.  Each step runs on Python
    scalars (four complex entries of g, seven covector floats), so runs are
    bit-reproducible and independent of BLAS; the points agree with a numpy
    `g @ u` step to rounding.  Every `record_every`-th state and the last
    are recorded; a non-finite recorded state aborts with its time.
    """
    psi = psi0.psi.copy() if isinstance(psi0, CovectorState) else np.asarray(psi0, dtype=float).copy()
    if psi.shape != (7,):
        raise ValueError("psi0 must have 7 coordinates")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the checks below
        norm_sq = float(np.dot(psi[1:4], psi[1:4]))
        timelike_residual = abs(psi[0] ** 2 - norm_sq - 1.0)
    if regime == REGIME_TIMELIKE:
        if not (psi[0] > 0 and timelike_residual <= 1e-9):
            raise ValueError("timelike regime requires psi0 > 0 and psi0^2 - |psi_123|^2 = 1")
    elif regime == REGIME_ISOTROPIC:
        if not (abs(psi[0] - 1.0) <= 1e-12 and abs(norm_sq - 1.0) <= 1e-9):
            raise ValueError("isotropic regime requires psi0 = 1 and |psi_123| = 1")
    else:
        raise ValueError(f"unknown regime {regime!r}")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be finite and positive, got {T}")
    if steps < 1:
        raise ValueError("steps must be positive")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")

    h = T / steps
    p0, *p = psi.tolist()
    g = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
    times, points, covectors = [0.0], [g], [(p0, *p)]
    for j in range(steps):
        g, p = _normal_step(g, p0, p, h)
        if (j + 1) % record_every == 0 or j == steps - 1:
            if not (_finite(g) and _finite(p)):
                raise IntegrationDivergedError((j + 1) * h)
            times.append((j + 1) * h)
            points.append(g)
            covectors.append((p0, *p))
    psi = np.array(covectors)
    return _recorded_path(times, points, psi[:, :4], CovectorState.rows(psi))


def extremal_path(p: ExtremalParams, ts) -> PathSample:
    """Closed-form sampling of a normal extremal with its controls and covectors.

    The control is `ProductExpParams.control`; the covector is
    (u0, -u_123, -beta_vec).
    """
    pp = p.product_params()
    times = np.asarray(ts, dtype=float)
    points = Mat2C.rows(pp.point_rows(times))
    u = pp.control_rows(times)
    psi = np.column_stack([u[:, :4] * _DUAL_SIGNS, np.tile(-p.alpha[4:7], (len(u), 1))])
    return PathSample(times, points, AlgCoords.rows(u), CovectorState.rows(psi))


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

def _exact(bracket: DistanceBracket) -> bool:
    return bracket.width <= _EXACT_WIDTH and math.isfinite(bracket.upper)


def _midpoint(bracket: DistanceBracket) -> float:  # the eta that class and distance read
    return 0.5 * (bracket.lower + bracket.upper)


@dataclass(frozen=True)
class CausalReport:
    """Classification of a group element relative to the identity.

    Stores xi, the eta bracket and the class; the rest is read off them.
    distance is sqrt(xi^2 - eta^2) at the bracket midpoint eta for timelike
    targets, 0 for the identity and isotropic ones, and None otherwise (the
    unreachable "-inf" is a marker applied only at serialization).  c_param
    is the rapidity atanh(eta/xi) of timelike targets: xi = d cosh(c), eta =
    d sinh(c).  `eta_exact` when the bracket is finite and at most
    _EXACT_WIDTH wide; `extrapolated` when it is inexact with a lower end
    `distance_shoot` reads as zero (unitary g1 != I), so the class leans on
    shooting alone.  A non-boost report whose xi lies below lower - tol is
    unreachable by the lower end alone and carries [lower, inf) with no
    witness; `distance_shoot` (and the `distance` command) still shoots it.
    """

    xi: float
    eta: DistanceBracket
    causal_class: str

    @property
    def distance(self) -> float | None:
        if self.causal_class == CLASS_TIMELIKE:
            eta = _midpoint(self.eta)
            return math.sqrt(self.xi * self.xi - eta * eta)  # xi exactly on the scalar ray
        return 0.0 if self.causal_class in (CLASS_IDENTITY, CLASS_ISOTROPIC) else None

    @property
    def c_param(self) -> float | None:
        timelike = self.causal_class == CLASS_TIMELIKE
        return math.atanh(_midpoint(self.eta) / self.xi) if timelike else None

    @property
    def eta_exact(self) -> bool:
        return _exact(self.eta)

    @property
    def extrapolated(self) -> bool:
        return not self.eta_exact and self.eta.lower <= _ZERO_LENGTH

    def to_json(self) -> dict:
        return {
            "xi": float(self.xi),
            "eta": self.eta.to_json(),
            "class": self.causal_class,
            "distance": "-inf" if self.causal_class == CLASS_UNREACHABLE else self.distance,
            "c": self.c_param,
            "extrapolated": bool(self.extrapolated),
            "eta_exact": bool(self.eta_exact),
        }

    @classmethod
    def from_json(cls, d: dict) -> "CausalReport":
        return cls(float(d["xi"]), DistanceBracket.from_json(d["eta"]), d["class"])


def _causal_class(xi: float, bracket: DistanceBracket, tol: float) -> str:
    """The class xi and the eta bracket decide (see `causal_classify`)."""
    if bracket.witness is None and bracket.upper == 0.0:  # scalar ray: eta = 0 exactly
        if abs(xi) <= 1e-12:
            return CLASS_IDENTITY
        return CLASS_TIMELIKE if xi > 0 else CLASS_UNREACHABLE
    eta = _midpoint(bracket)
    if _exact(bracket):
        if abs(xi - eta) <= _EXACT_TIE_TOL * max(1.0, abs(xi), eta):
            return CLASS_ISOTROPIC
        if xi < eta:
            return CLASS_UNREACHABLE
    elif xi < bracket.lower - tol:  # inexact: only strict separations are decided
        return CLASS_UNREACHABLE
    elif not (math.isfinite(bracket.upper) and xi > bracket.upper + tol):
        return CLASS_INDETERMINATE
    return CLASS_TIMELIKE


def causal_classify(
    g: Mat2C, tol: float = 1e-7, seed: int = 0, budget: int = 240
) -> CausalReport:
    """Classify g and compute the sub-Lorentzian distance from the identity.

    xi = ln det g must be real; eta is bracketed as by `distance_shoot` (exact
    when the unimodular part is positive definite Hermitian).  With an exact
    bracket the trichotomy xi > = < eta is decided directly; with an inexact
    one, xi inside [lower - tol, upper + tol] is reported indeterminate.
    Since eta >= lower, a xi below lower - tol (and below the isotropic tie
    window of an exact bracket) is unreachable whatever shooting finds: such
    a non-boost target runs no solve and reports [lower, inf) with no witness.
    """
    xi, g1 = det_split(g)
    g1 = Mat2C(g1)
    bracket = _shoot_front(g1, tol, budget)
    if not isinstance(bracket, DistanceBracket):  # not the identity, a boost or a rotation
        pd, lower = bracket
        margin = max(tol, _EXACT_TIE_TOL * max(1.0, abs(xi), lower + _EXACT_WIDTH))
        if xi < lower - margin:
            bracket = DistanceBracket(lower, math.inf, False, None)
        else:
            bracket = _shoot_search(g1, pd, lower, tol, budget, seed)
    return CausalReport(xi, bracket, _causal_class(xi, bracket, tol))


def longest_arc(g: Mat2C, samples: int = 101, tol: float = 1e-7, seed: int = 0) -> PathSample:
    """Sample the longest arc from the identity to a reachable target.

    Timelike: g(t) = e^{cosh(c) t / 2} gamma(sinh(c) t) over t in [0, d] with
    gamma the witness geodesic (alpha, beta) of the eta bracket; isotropic:
    e^{t/2} gamma(t) over [0, xi].  Since e_0 is central, this is the normal
    extremal with constants (cosh c, sinh c alpha, sinh c beta), sampled by
    `ProductExpParams.sample`.  The identity's longest arc is the single
    point e: one sample whatever `samples` is, since path times strictly
    increase.  The endpoint gap is checked in the unimodular frame (times
    e^{-xi/2}).  Unreachable or indeterminate targets raise
    UnreachableTargetError with the report attached.
    """
    if samples < 2:
        raise ValueError(f"longest_arc needs samples >= 2, got {samples}")
    report = causal_classify(g, tol=tol, seed=seed)
    if report.causal_class in (CLASS_UNREACHABLE, CLASS_INDETERMINATE):
        raise UnreachableTargetError(report)
    if report.causal_class == CLASS_IDENTITY:  # the point e, reached with the control e0
        points, controls = ProductExpParams(np.concatenate([[1.0], np.zeros(6)])).sample([0.0])
        return PathSample(np.array([0.0]), points, controls, None)
    xi = report.xi
    witness = report.eta.witness
    # No witness means the scalar ray (eta = 0, sinh c = 0): gamma drops out.
    eta_w, geo = (0.0, np.zeros(6)) if witness is None else (
        witness.T, np.concatenate([witness.params.alpha_vec, witness.params.beta_vec]))
    if report.causal_class == CLASS_ISOTROPIC:
        total, ch_c, sh_c = xi, 1.0, eta_w / xi
    else:
        total = math.sqrt(max(xi * xi - eta_w * eta_w, 0.0))
        ch_c, sh_c = xi / total, eta_w / total
    times = np.linspace(0.0, total, samples)
    points, controls = ProductExpParams(np.concatenate([[ch_c], sh_c * geo])).sample(times)
    residual = points[-1].distance(g) * math.exp(-xi / 2.0)
    if residual > 10.0 * tol:
        raise RuntimeError(f"longest-arc endpoint residual {residual:.3e} exceeds 10*tol")
    return PathSample(times, points, controls, None)


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
    resolution makes the integrator see exact values.  The RK4 steps run on
    Python scalars, like `pontryagin_integrate`.
    """
    kt = np.asarray(kappa_times, dtype=float)
    kv = np.asarray(kappa_values, dtype=float)
    if kt.ndim != 1 or kt.shape != kv.shape or len(kt) < 2:
        raise ValueError("kappa must be sampled at two or more nodes")
    if not (np.isfinite(kt).all() and np.isfinite(kv).all()):
        raise ValueError("kappa times and values must be finite")
    if kt[0] != 0.0 or not np.all(np.diff(kt) > 0):
        raise ValueError("kappa nodes must start at 0 and increase")
    bv = np.asarray(beta_dir, dtype=float)
    if bv.shape != (3,) or not np.isfinite(bv).all():
        raise ValueError("beta_dir must be three finite numbers")
    big = float(np.max(np.abs(bv)))
    if big == 0.0:
        raise ValueError("beta_dir must be nonzero")
    # A power-of-two rescale is exact, so b_hat has the same bits at any scale
    # and the norm neither overflows nor underflows.
    bs = np.ldexp(bv, -math.frexp(big)[1])
    if regime == REGIME_ISOTROPIC:
        if np.any(kv == 0.0) or np.any(kv[:-1] * kv[1:] < 0.0):
            raise ValueError("isotropic regime requires kappa without zero crossings")
    elif regime != REGIME_TIMELIKE:
        raise ValueError(f"unknown regime {regime!r}")
    if steps < 1:
        raise ValueError("steps must be positive")
    b1, b2, b3 = (bs / np.linalg.norm(bs)).tolist()
    T = float(kt[-1])
    h = T / steps

    def u_dual(k):
        if regime == REGIME_TIMELIKE:
            mag, u0 = math.sinh(k), math.cosh(k)
        else:
            mag, u0 = k, abs(k)
        return (u0, b1 * mag, b2 * mag, b3 * mag)

    # kappa at the stage times j h, j h + h/2 and j h + h of every step.
    t = np.arange(steps) * h
    k_start, k_mid, k_end = (np.interp(x, kt, kv).tolist() for x in (t, t + h / 2.0, t + h))
    covector = CovectorState(np.concatenate([np.zeros(4), -bv]))

    g = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
    # Every step is recorded, so each state goes straight into its row of the batch.
    points, controls = np.empty((steps + 1, 4), complex), np.empty((steps + 1, 4))
    points[0], controls[0] = g, u_dual(k_start[0])
    # u_123 is parallel to b by construction, so the drift |u_123 x b_hat| is
    # only rounding on a product of size |u_123|: it is measured on that scale.
    for j in range(steps):
        u1, u2, u4 = u_dual(k_start[j]), u_dual(k_mid[j]), u_dual(k_end[j])
        drift = math.hypot(*_adjoint_rhs(0.0, 0.0, 0.0, -b1, -b2, -b3, *u1[1:]))
        drift /= max(1.0, math.hypot(*u1[1:]))
        g = _gauge_step(g, u1, u2, u4, h)
        if not _finite(g):
            raise IntegrationDivergedError((j + 1) * h)
        if not drift <= 1e-9:  # NaN fails too
            raise RuntimeError(
                f"abnormal covector is not stationary: drift {drift:.3e} max(1, |u_123|)")
        points[j + 1], controls[j + 1] = g, u4
    return _recorded_path(np.arange(steps + 1) * h, points, controls, (covector,) * (steps + 1))


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
