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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgCoords, Mat2C, _frozen_array, _Rows, _stacked, coeff_entries, format_float, to_coords)
from .expmap import (_EPS, ProductExpParams, _apply3, _frobenius_sq, _norm3, _unit_alpha, aligning_rotation,
                     det_split, sinc_scaled, sinch)
from .subriemannian import _EXACT_TIE_TOL, _EXACT_WIDTH, _ZERO_LENGTH, DistanceBracket, _shoot

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
        with np.errstate(over="ignore"):
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
        with np.errstate(over="ignore"):  # an overflowing |a_vec|^2 gives a0 = inf, refused below
            a0 = math.sqrt(1.0 + float(np.dot(av, av)))
        return cls(np.concatenate([[a0], av, bv]), REGIME_TIMELIKE)

    @classmethod
    def isotropic(cls, alpha_vec, beta_vec, normalize: bool = False) -> "ExtremalParams":
        av = np.asarray(alpha_vec, dtype=float)
        bv = np.asarray(beta_vec, dtype=float)
        if normalize:
            av = _unit_alpha(av, "isotropic regime requires a nonzero alpha_vec")
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
        object.__setattr__(self, "psi", _covectors(self.psi))


def _covectors(psi, batch: bool = False) -> np.ndarray:
    """`psi` checked by `_frozen_array` as one covector or an (N, 7) batch, none vanishing."""
    p = _frozen_array(psi, float, (7,), "covector", batch)
    if (np.abs(p).reshape(-1, 7).max(axis=1) == 0.0).any():
        raise ValueError("covector must never vanish along an extremal")
    return p


# -- RK4 as right multiplication (Iserles, Munthe-Kaas, Norsett & Zanna, 2000) --

_CHUNK = 2048  # steps per factor pass, at most: bounds the temporaries whatever `steps` is
_TREE = 256  # steps per pairwise product, at most, counted from the last record


def _times(A, B) -> tuple:  # A B for (re, im) (2, 2, ...) stacks, in Python's complex order
    (ar, ai), (br, bi) = A, B
    return ((ar[:, :1] * br[0] - ai[:, :1] * bi[0]) + (ar[:, 1:] * br[1] - ai[:, 1:] * bi[1]),
            (ar[:, :1] * bi[0] + ai[:, :1] * br[0]) + (ar[:, 1:] * bi[1] + ai[:, 1:] * br[1]))


def _rk4_factors(h: float, *stage_controls) -> tuple:
    """(re, im), each (2, 2, N), of RK4's step factors S (g -> g S) for g' = g U with
    stage matrices U1..U4 of dual controls (u0..u3; U = u0 e0 - u1 e1 - u2 e2 - u3 e3):
    S = I + h/6 (U1 + 2 V2 + 2 V3 + V4), V2 = (I + h/2 U1) U2, V3 = (I + h/2 V2) U3,
    V4 = (I + h V3) U4.  Real ufuncs only: no BLAS, no complex loop fusing multiply-adds."""
    def shifted(c, X):  # I + c X
        return c * X[0] + np.eye(2)[:, :, None], c * X[1]
    U = ((0.5 * np.array([[u0 - u3, -u1], [-u1, u0 + u3]]),
          0.5 * np.array([[np.zeros_like(u2), -u2], [u2, np.zeros_like(u2)]]))
         for u0, u1, u2, u3 in stage_controls)  # built one at a time, as the loop needs them
    V = S = next(U)
    for c, w, Uk in zip((0.5 * h, 0.5 * h, h), (2.0, 2.0, 1.0), U):
        V = _times(shifted(c, V), Uk)
        S = [s + w * v for s, v in zip(S, V)]
    return shifted(h / 6.0, S)


def _ordered_product(re, im) -> tuple:
    """(re, im), each (2, 2, n), of the ordered products S_1 S_2 ... S_L along the
    last axis of (2, 2, n, L) factor stacks: adjacent pairs are multiplied level by
    level (the tree of a parallel prefix), an odd last factor carried up a level."""
    X = re, im
    while X[0].shape[-1] > 1:
        n = X[0].shape[-1]
        P = _times(*(tuple(x[..., k:n - n % 2:2] for x in X) for k in (0, 1)))
        X = P if n % 2 == 0 else tuple(np.concatenate([p, x[..., -1:]], -1) for p, x in zip(P, X))
    return tuple(x[..., 0] for x in X)


def _rk4_points(controls, h: float, steps: int, record_every: int = 1) -> np.ndarray:
    """(R, 4) complex entries of g' = g U from g = I under RK4 at step 0, every
    `record_every`-th step and the last; `controls(j0, j1)` gives the four stage
    controls of steps j0..j1-1.  The steps are cut into pieces of L = min(
    `record_every`, `_TREE`) counted from the last record, each piece ending at
    the next record at the latest.  A pass builds the factors of whole pieces
    and multiplies each piece's factors pairwise (`_ordered_product`); only the
    piece products are multiplied onto g, on Python complex scalars.  The bits
    depend on the controls, h, `steps` and `record_every`, not on `_CHUNK`."""
    L = min(record_every, _TREE)
    g00, g01, g10, g11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    points = [g00, g01, g10, g11]  # the records' entries, flat
    j0 = 0
    while j0 < steps:
        j1 = min(j0 + L * max(1, _CHUNK // L), steps)
        if record_every > L:  # a record gap of several pieces: the pass stops at its record
            j1 = min(j1, j0 - j0 % record_every + record_every)
        re, im = _rk4_factors(h, *controls(j0, j1))
        n = (j1 - j0) // L * L  # steps in whole pieces; the rest, if any, is one last piece
        pieces = [_ordered_product(*(x[..., a:b].reshape(2, 2, -1, w) for x in (re, im)))
                  for a, b, w in ((0, n, L), (n, j1 - j0, j1 - j0 - n)) if b > a]
        S = np.stack([np.concatenate(x, -1) for x in zip(*pieces)], -1).view(complex)
        ends = [*range(j0 + L, j1, L), j1]  # only the last piece can pass j1
        for j, s00, s01, s10, s11 in zip(ends, *S.reshape(4, -1).tolist()):
            g00, g01, g10, g11 = (g00 * s00 + g01 * s10, g00 * s01 + g01 * s11,
                                  g10 * s00 + g11 * s10, g10 * s01 + g11 * s11)
            if j % record_every == 0 or j == steps:
                points += g00, g01, g10, g11
        j0 = j1
    return np.fromiter(points, complex, len(points)).reshape(-1, 4)


def _precession(b, h: float, x, n: int) -> tuple:
    """RK4 on the linear flow psi' = psi x b from psi_0 = x, n steps of h: returns
    `columns`, sorted indices j <= n -> psi_j = R^j x, and the stage matrices
    M2..M4 (stages 2..4 see M_k psi_j).  With B = h A, A psi = psi x b: R = I + D,
    D = B + B^2/2 + B^3/6 + B^4/24, M2 = I + B/2, M3 = M2 + B^2/4 and M4 = I + B +
    B^2/2 + B^3/4.  psi_j is column j of the doubling whose pass m applies I + D_m
    to the m columns so far (D_2m = 2 D_m + D_m^2, rounding relative to D_m),
    built alone: a block of 2^p columns, then I + D_2^k per bit k >= p of j.  If
    a D_m overflows (unstable step; x may lie on R's bounded axis), all n are stepped."""
    B = h * np.array([[0.0, b[2], -b[1]], [-b[2], 0.0, b[0]], [b[1], -b[0], 0.0]])
    B2 = _apply3(B, B)
    B3 = _apply3(B2, B)
    M2 = np.eye(3) + 0.5 * B
    stages = M2, M2 + 0.25 * B2, np.eye(3) + B + 0.5 * B2 + 0.25 * B3
    Ds = [B + 0.5 * B2 + B3 / 6.0 + _apply3(B3, B) / 24.0]
    while 2 ** len(Ds) <= n and np.isfinite(Ds[-1]).all():
        Ds.append(2.0 * Ds[-1] + _apply3(Ds[-1], Ds[-1]))
    if not np.isfinite(Ds[-1]).all():
        out = np.tile(np.reshape(x, (3, 1)), n + 1)  # column 0 is x; the rest are overwritten
        for j in range(n):
            out[:, j + 1:j + 2] = out[:, j:j + 1] + _apply3(Ds[0], out[:, j:j + 1])
        return (lambda j: out[:, j]), stages
    p = min(len(Ds), (_CHUNK - 1).bit_length())
    low = np.tile(np.reshape(x, (3, 1)), 2 ** p)
    for k in range(p):
        low[:, 2 ** k:2 ** (k + 1)] = low[:, :2 ** k] + _apply3(Ds[k], low[:, :2 ** k])
    def columns(j):
        y, lo, hi = low[:, j % 2 ** p], int(j[0]), int(j[-1])
        for k in range(p, len(Ds)):
            if lo >> k != hi >> k:
                bit = (j >> k) % 2 == 1
                y[:, bit] += _apply3(Ds[k], y[:, bit])
            elif lo >> k & 1:  # bit k is set for every j
                y += _apply3(Ds[k], y)
        return y
    return columns, stages


def _recorded_path(times, points, u_dual, covectors) -> PathSample:
    """PathSample of integrator records: point entries (g00, g01, g10, g11) and
    dual controls (u0..u3) of u0 e0 - u1 e1 - u2 e2 - u3 e3, one row per record."""
    u = np.pad(np.asarray(u_dual, dtype=float) * _DUAL_SIGNS, ((0, 0), (0, 4)))
    return PathSample(times, np.reshape(points, (-1, 2, 2)), u, covectors)


# Each row kind of a PathSample: its boundary class, that class's array field,
# the shape of one row and the check of a whole batch.
_PATH_ROWS = {
    "points": (Mat2C, "m", (2, 2), lambda a: _frozen_array(a, complex, (2, 2), "matrix", batch=True)),
    "controls": (AlgCoords, "u", (8,), lambda a: _frozen_array(a, float, (8,), "coordinates", batch=True)),
    "covectors": (CovectorState, "psi", (7,), lambda a: _covectors(a, batch=True)),
}


@dataclass(frozen=True, eq=False)
class PathSample:
    """Discretized curve: times, group points, controls, covectors (both optional).

    Points, controls and covectors each come as an (N, 2, 2) complex, (N, 8)
    or (N, 7) array, or as a sequence of Mat2C, AlgCoords or CovectorState,
    and are held as one read-only array each (`path.points.array`, ...): a
    read-only sequence whose elements are built when asked, views of its rows."""

    times: np.ndarray
    points: Sequence
    controls: Sequence | None = None
    covectors: Sequence | None = None

    def __post_init__(self):
        rows = {name: _Rows(cls, field, check(_stacked(getattr(self, name), field, shape)))
                for name, (cls, field, shape, check) in _PATH_ROWS.items()
                if name == "points" or getattr(self, name) is not None}
        t = _frozen_array(self.times, float, (len(rows["points"]),), "times")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        for name, value in rows.items():  # the points' length is that of the times
            if len(value) != len(t):
                raise ValueError(f"{name} length mismatch")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "times", t)

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
        n = len(self.times)
        g = self.points.array.reshape(n, 4).view(float).tolist()  # re, im of g11, g12, g21, g22
        u, psi = ([[""] * 7] * n if x is None else [list(map(ff, r)) for r in x.array[:, :7].tolist()]
                  for x in (self.controls, self.covectors))
        for j, t in enumerate(self.times.tolist()):
            w.writerow([ff(t), *map(ff, g[j]), *u[j], *psi[j], *(ff(extra[k][j]) for k in extra)])

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
        return cls(t[:, 0].astype(float), g.astype(float).view(complex).reshape(-1, 2, 2),
                   None if u is None else np.pad(u, ((0, 0), (0, 1))), psi)

    def to_csv_text(self, extra_columns: dict | None = None, header_lines=None) -> str:
        buf = io.StringIO()
        self.to_csv(buf, extra_columns, header_lines)
        return buf.getvalue()


def pontryagin_integrate(psi0, regime: str, T: float, steps: int,
                         record_every: int = 1) -> PathSample:
    """Integrate the normal-extremal ODE system with classical fixed-step RK4.

    State: the group point g (g' = g u with u built from the covector,
    u_k = psi_k) and the covector coordinates.  psi(0) must satisfy the
    regime normalization: timelike psi0 > 0 with psi0^2 - |psi_123|^2 = 1,
    isotropic psi0 = 1 with |psi_123|^2 = 1.  psi0 and psi_456 stay exactly
    constant and psi_123' = psi_123 x psi_456, so the covector iterates come
    from one 3x3 matrix (`_precession`) and a step of g is a right factor
    (`_rk4_factors`), reproducible bit for bit without BLAS or SIMD dispatch.
    Every `record_every`-th state and the last are recorded; a non-finite
    recorded state aborts with its time.  The factors between two records are
    multiplied pairwise before they reach g (`_rk4_points`), so the points
    differ from a step-by-step product by rounding, and not at all when
    `record_every` is 1.
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
    p0, b = float(psi[0]), psi[4:]
    records = np.append(np.arange(0, steps, record_every), steps)
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is caught at the records
        psi_at, stages = _precession(b, h, psi[1:4], steps)
        def controls(j0, j1):  # stage 1 sees psi_j, stages 2..4 see M_k psi_j
            q = psi_at(np.arange(j0, j1))
            return [(p0, *q)] + [(p0, *_apply3(M, q)) for M in stages]
        points = _rk4_points(controls, h, steps, record_every)
        x = psi_at(records)
    psi = np.column_stack([np.full(len(records), p0), x.T, np.tile(b, (len(records), 1))])
    diverged = ~(np.isfinite(points).all(axis=1) & np.isfinite(psi).all(axis=1))
    if diverged[1:].any():
        raise IntegrationDivergedError(float(records[1:][diverged[1:]][0] * h))
    return _recorded_path(records * h, points, psi[:, :4], psi)


def extremal_path(p: ExtremalParams, ts) -> PathSample:
    """Closed-form sampling of a normal extremal with its controls and covectors.

    The control is `ProductExpParams.control`; the covector is
    (u0, -u_123, -beta_vec).
    """
    pp = p.product_params()
    times = np.asarray(ts, dtype=float)
    points = pp.point_rows(times)
    u = pp.control_rows(times)
    psi = np.column_stack([u[:, :4] * _DUAL_SIGNS, np.tile(-p.alpha[4:7], (len(u), 1))])
    return PathSample(times, points, u, psi)


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
    `distance_shoot` reads as zero (unitary g1 != I): such a rotation runs no
    solve and carries [lower, inf), so xi < lower - tol is unreachable and any
    other xi indeterminate.  A non-boost report whose xi lies below lower - tol is
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
    bracket = _shoot(g1, tol, budget, seed, xi)
    return CausalReport(xi, bracket, _causal_class(xi, bracket, tol))


# A longest arc's endpoint may miss g1 by this many eps |g1|_F, rounding on entries of
# e^{|X|/2}: on 1,152 exact boost targets (|X| <= 80) the gap came within 64.
_ARC_ROUNDING = 256.0


def longest_arc(g: Mat2C, samples: int = 101, tol: float = 1e-7, seed: int = 0) -> PathSample:
    """Sample the longest arc from the identity to a reachable target.

    Timelike: g(t) = e^{cosh(c) t / 2} gamma(sinh(c) t) over t in [0, d] with
    gamma the witness geodesic (alpha, beta) of the eta bracket; isotropic:
    e^{t/2} gamma(t) over [0, xi].  Since e_0 is central, this is the normal
    extremal with constants (cosh c, sinh c alpha, sinh c beta), sampled by
    `ProductExpParams.point_rows` and `control_rows`.  The identity's longest
    arc is the single point e: one sample whatever `samples` is, since path
    times strictly increase.  The endpoint gap is checked in the unimodular
    frame (times e^{-xi/2}): one above max(10 tol, _ARC_ROUNDING eps |g1|_F)
    raises ValueError.  Unreachable or indeterminate targets raise
    UnreachableTargetError with the report attached.
    """
    if samples < 2:
        raise ValueError(f"longest_arc needs samples >= 2, got {samples}")
    report = causal_classify(g, tol=tol, seed=seed)
    if report.causal_class in (CLASS_UNREACHABLE, CLASS_INDETERMINATE):
        raise UnreachableTargetError(report)
    if report.causal_class == CLASS_IDENTITY:  # the point e, reached with the control e0
        return PathSample(np.zeros(1), np.eye(2)[None], np.eye(1, 8))
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
    pp = ProductExpParams(np.concatenate([[ch_c], sh_c * geo]))
    path = PathSample(times, pp.point_rows(times), pp.control_rows(times))
    residual = path.points[-1].distance(g) * math.exp(-xi / 2.0)
    bound = max(10.0 * tol, _ARC_ROUNDING * _EPS * math.sqrt(_frobenius_sq(math.exp(-xi / 2.0) * g.m)))
    if residual > bound:
        raise ValueError(f"longest-arc endpoint residual {residual:.3e} exceeds {bound:.3e}")
    return path


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


def abnormal_extremal(kappa_times, kappa_values, beta_dir, regime: str, steps: int) -> PathSample:
    """Integrate an abnormal extremal driven by a sampled gauge function.

    The constant covector (0,0,0,0,-b1,-b2,-b3) forces the control direction
    along beta_dir; the sampled kappa sets its magnitude:
    timelike u0 = cosh(kappa), u_i = b_hat_i sinh(kappa); isotropic
    u0 = |kappa|, u_i = b_hat_i kappa with kappa nonvanishing.  kappa is
    linearly interpolated between nodes, so supplying nodes at half-step
    resolution makes the integrator see exact values.  The stage controls are
    known up front, so the steps are `_rk4_factors`, as in `pontryagin_integrate`;
    every step is recorded, so each factor reaches g on its own.
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
        if np.any(kv == 0.0) or np.any(np.signbit(kv[:-1]) != np.signbit(kv[1:])):
            raise ValueError("isotropic regime requires kappa without zero crossings")
    elif regime != REGIME_TIMELIKE:
        raise ValueError(f"unknown regime {regime!r}")
    if steps < 1:
        raise ValueError("steps must be positive")
    b1, b2, b3 = (bs / _norm3(bs)).tolist()
    h = float(kt[-1]) / steps

    def u_dual(k):  # (4, N) dual controls at the kappa values k
        if regime == REGIME_TIMELIKE:
            mag, u0 = (np.fromiter(map(f, k.tolist()), float, len(k)) for f in (math.sinh, math.cosh))
        else:
            mag, u0 = k, np.abs(k)
        return np.array([u0, b1 * mag, b2 * mag, b3 * mag])

    # kappa at the stage times j h, j h + h/2 and j h + h of every step.
    t = np.arange(steps) * h
    ks = np.array([np.interp(x, kt, kv) for x in (t, t + h / 2.0, t + h)])
    stop = steps  # the first step whose kappa overflows math.sinh or math.cosh (past 710)
    for j in np.flatnonzero(np.abs(ks).max(axis=0) > 710.0) if regime == REGIME_TIMELIKE else ():
        try:
            u_dual(ks[:, j])
        except OverflowError:
            stop = j
            break
    u_start, u_mid, u_end = (u_dual(k[:stop]) for k in ks)
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is caught below
        points = _rk4_points(
            lambda j0, j1: [u[:, j0:j1] for u in (u_start, u_mid, u_mid, u_end)], h, stop)
    diverged = np.flatnonzero(~np.isfinite(points[1:]).all(axis=1))  # step j ends at record j + 1
    if len(diverged):
        raise IntegrationDivergedError(float((diverged[0] + 1) * h))
    if stop < steps:
        u_dual(ks[:, stop])  # raises the step's OverflowError
    controls = np.column_stack([u_start[:, 0], u_end]).T
    covectors = np.broadcast_to(np.concatenate([np.zeros(4), -bv]), (steps + 1, 7))  # one row, repeated
    return _recorded_path(np.arange(steps + 1) * h, points, controls, covectors)


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
        u_arr = p.controls.array
        mem_tol = max(tol, 1e-9)
    else:
        if len(p.points) < 3:
            raise ValueError("need at least 3 samples to recover controls")
        g, t = p.points.array, p.times  # g' by centred differences at the inner samples
        dg = [(g[j + 1] - g[j - 1]) / (t[j + 1] - t[j - 1]) for j in range(1, len(g) - 1)]
        u_arr = np.array([to_coords(Mat2C(p.points[j].inverse().m @ d)).u for j, d in enumerate(dg, 1)])
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
