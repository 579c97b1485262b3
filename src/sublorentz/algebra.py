"""Pauli-basis arithmetic for 2x2 complex matrices.

Conventions used throughout the library:

  sigma_0 = I,  sigma_1 = [[0,1],[1,0]],  sigma_2 = [[0,i],[-i,0]],
  sigma_3 = [[1,0],[0,-1]]

  e_i = sigma_i / 2           for i = 0..3   (Hermitian, span the space H)
  e_{i+3} = i * e_i           for i = 1..3   (skew-Hermitian, span su(2))
  e_7 = i * e_0               (completes a real basis of all of M(2,C))

Real coordinates over {e_0,...,e_6, i*e_0} are held in `AlgCoords`.  The
Lorentzian form on the 7-dimensional span of e_0..e_6 is

  <u, v> = u_0 v_0 - sum_{k=1..6} u_k v_k

with signature (+,-,-,-,-,-,-); restricted to H it equals 4*det.  The
Euclidean product used on traceless directions is the plain dot product of
the coordinates (u_1,...,u_6).
"""

from __future__ import annotations

import cmath
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Library-wide default tolerance for predicates; every check that uses it
# accepts an override per call.
DEFAULT_TOL = 1e-12

_SIGMA = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1j], [-1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class NotInGLPlusError(ValueError):
    """Determinant is not a positive real number."""


def _frozen_array(value, dtype, shape: tuple, what: str, batch: bool = False) -> np.ndarray:
    """Read-only copy of `value` as a finite `dtype` array of the given shape.

    The validation shared by every array-carrying boundary type; `what` names
    the field in the error message.  With `batch`, `value` is a stack of such
    arrays along a leading axis of any length, checked with the same messages.
    """
    a = np.asarray(value, dtype=dtype, order="C")  # copied once, by tobytes below
    got = a.shape[1:] if batch else a.shape
    if got != shape:
        raise ValueError(f"{what} must have shape {shape}, got {got}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} entries must be finite")
    # An immutable buffer, so neither the array nor any view of it can be made writeable.
    return np.ndarray(a.shape, a.dtype, a.tobytes())


class _Rows(Sequence):
    """Read-only sequence of `cls` over the rows of a batch checked by `_frozen_array`:
    row j is built when asked, its `field` a read-only view of `array[j]`."""

    __slots__ = ("_cls", "_field", "_array")

    def __init__(self, cls, field: str, array: np.ndarray):
        self._cls, self._field, self._array = cls, field, array

    array = property(lambda self: self._array, doc="The whole batch, one row per element.")

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, j):
        obj = object.__new__(self._cls)
        object.__setattr__(obj, self._field, self._array[operator.index(j)])
        return obj


def _stacked(rows, field: str, shape: tuple) -> np.ndarray:
    """`rows` as one array: an array as it is, else the `field` arrays of a sequence
    of boundary objects (or of plain rows) stacked along a leading axis."""
    if isinstance(rows, np.ndarray):
        return rows
    rows = [getattr(x, field, x) for x in rows]
    return np.array(rows) if rows else np.empty((0, *shape))


@dataclass(frozen=True, eq=False)
class Mat2C:
    """Immutable 2x2 complex matrix, the carrier for group and algebra elements."""

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _frozen_array(self.m, complex, (2, 2), "matrix"))

    @classmethod
    def identity(cls) -> "Mat2C":
        return cls(np.eye(2, dtype=complex))

    @classmethod
    def zero(cls) -> "Mat2C":
        return cls(np.zeros((2, 2), dtype=complex))

    def __matmul__(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(self.m @ other.m)

    def __add__(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(self.m + other.m)

    def __sub__(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(self.m - other.m)

    def __mul__(self, scalar) -> "Mat2C":
        return Mat2C(self.m * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Mat2C":
        return Mat2C(-self.m)

    def adjoint(self) -> "Mat2C":
        return Mat2C(self.m.conj().T)

    def det(self) -> complex:
        # 2x2 closed form; exact enough and branch-free.
        return self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0]

    def inverse(self) -> "Mat2C":
        d = self.det()
        if abs(d) < 1e-300:
            raise ZeroDivisionError("matrix is singular")
        return Mat2C(
            np.array(
                [[self.m[1, 1], -self.m[0, 1]], [-self.m[1, 0], self.m[0, 0]]],
                dtype=complex,
            )
            / d
        )

    def distance(self, other: "Mat2C") -> float:
        """Frobenius distance."""
        return float(np.linalg.norm(self.m - other.m))

    # -- membership predicates --------------------------------------------

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return bool(np.max(np.abs(self.m - self.m.conj().T)) <= tol)

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        return bool(np.max(np.abs(self.m @ self.m.conj().T - np.eye(2))) <= tol)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """Library-wide encoding: {"m": [[[re,im],[re,im]],[[re,im],[re,im]]]} row-major."""
        return {
            "m": [
                [[self.m[r, c].real, self.m[r, c].imag] for c in range(2)]
                for r in range(2)
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "Mat2C":
        pairs = np.array(data["m"], dtype=object)
        if pairs.shape != (2, 2, 2) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in pairs.flat
        ):
            raise ValueError('matrix JSON "m" must be a 2x2 array of [re, im] number pairs')
        # Viewing (re, im) float pairs as complex keeps every bit, signed zeros included.
        return cls(pairs.astype(float).view(complex).reshape(2, 2))

    def __repr__(self):
        return f"Mat2C({self.m.tolist()!r})"


@dataclass(frozen=True, eq=False)
class AlgCoords:
    """Real coordinates (u0,...,u6,u7) over the basis {e_0..e_6, i*e_0}.

    The 8th slot makes products of group elements representable; membership
    in the 7-dimensional algebra (real trace) is the predicate `in_gl_plus`,
    not a storage constraint.
    """

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.shape == (7,):
            u = np.concatenate([u, [0.0]])
        object.__setattr__(self, "u", _frozen_array(u, float, (8,), "coordinates"))

    @classmethod
    def zero(cls) -> "AlgCoords":
        return cls(np.zeros(8))

    @classmethod
    def basis(cls, i: int) -> "AlgCoords":
        u = np.zeros(8)
        u[i] = 1.0
        return cls(u)

    def __add__(self, other: "AlgCoords") -> "AlgCoords":
        return AlgCoords(self.u + other.u)

    def __sub__(self, other: "AlgCoords") -> "AlgCoords":
        return AlgCoords(self.u - other.u)

    def __mul__(self, scalar: float) -> "AlgCoords":
        return AlgCoords(self.u * scalar)

    __rmul__ = __mul__

    def in_gl_plus(self, tol: float = DEFAULT_TOL) -> bool:
        """In the 7-dimensional algebra of real-trace matrices (u7 = 0)."""
        return abs(self.u[7]) <= tol

    def in_H(self, tol: float = DEFAULT_TOL) -> bool:
        """Hermitian: u4 = u5 = u6 = u7 = 0."""
        return bool(np.max(np.abs(self.u[4:8])) <= tol)

    def in_H0(self, tol: float = DEFAULT_TOL) -> bool:
        """Traceless Hermitian: in H and u0 = 0."""
        return self.in_H(tol) and abs(self.u[0]) <= tol

    def to_json(self) -> dict:
        return {"u": [float(x) for x in self.u]}

    @classmethod
    def from_json(cls, data: dict) -> "AlgCoords":
        return cls(np.array(data["u"], dtype=float))

    def __repr__(self):
        return f"AlgCoords({self.u.tolist()!r})"


def basis_matrix(i: int) -> Mat2C:
    """Basis element: e_i = sigma_i/2 for i<=3, i*e_{i-3} for i in 4..6, i*e_0 for i=7."""
    if not 0 <= i <= 7:
        raise IndexError(f"basis index must be in 0..7, got {i}")
    if i <= 3:
        return Mat2C(_SIGMA[i] / 2)
    if i <= 6:
        return Mat2C(1j * _SIGMA[i - 3] / 2)
    return Mat2C(1j * _SIGMA[0] / 2)


_BASIS_BY_ENTRY = tuple(zip(*(basis_matrix(i).m.ravel().tolist() for i in range(8))))


def coeff_entries(z0, z1, z2, z3, z4, z5, z6, z7) -> tuple[complex, ...]:
    """Entries (a00, a01, a10, a11) of sum z_i e_i for complex z_i; inverse of `entry_coords`.

    Adds every term of z0 e0 + z7 e7 + z1 e1 + ... + z6 e6 in that order, zero terms
    included, so each entry part (signed zeros too) is that of the basis-matrix array sum.
    Complex arrays z_i give entry arrays with the bits of the scalar calls: products by
    the basis entries 0, +-1/2 and +-i/2 are exact.
    """
    return tuple([z0 * e0 + z7 * e7 + z1 * e1 + z2 * e2 + z3 * e3 + z4 * e4 + z5 * e5 + z6 * e6
                  for e0, e1, e2, e3, e4, e5, e6, e7 in _BASIS_BY_ENTRY])


def entry_coords(a00: complex, a01: complex, a10: complex, a11: complex) -> tuple[float, ...]:
    """Real coordinates (u0..u7) over {e_0..e_6, i*e_0} of [[a00, a01], [a10, a11]].

    On a traceless matrix L, [1:4] are the coordinates of its Hermitian part
    (L + L*)/2 and [4:7] those of its skew-Hermitian part (L - L*)/2.
    """
    return (
        (a00 + a11).real,
        (a01 + a10).real,
        (a01 - a10).imag,
        (a00 - a11).real,
        (a01 + a10).imag,
        (a10 - a01).real,
        (a00 - a11).imag,
        (a00 + a11).imag,
    )


def coords(a: np.ndarray) -> np.ndarray:
    """`entry_coords` of a 2x2 complex array, as an array of 8 reals."""
    (a00, a01), (a10, a11) = a.tolist()
    return np.array(entry_coords(a00, a01, a10, a11))


def to_coords(m: Mat2C) -> AlgCoords:
    """Expand a matrix over the real basis {e_0..e_6, i*e_0}; exact linear bijection."""
    return AlgCoords(coords(m.m))


def from_coords(u) -> Mat2C:
    """Inverse of `to_coords`. Accepts AlgCoords or a sequence of 7/8 reals."""
    if not isinstance(u, AlgCoords):
        u = AlgCoords(np.asarray(u, dtype=float))
    return Mat2C(np.reshape(coeff_entries(*u.u.tolist()), (2, 2)))


def commutator(a: Mat2C, b: Mat2C) -> Mat2C:
    """Matrix commutator ab - ba."""
    return Mat2C(a.m @ b.m - b.m @ a.m)


@dataclass(frozen=True, eq=False)
class StructureTable:
    """Structure constants C[i][j][k] with [e_i, e_j] = sum_k C[i][j][k] e_k, i,j,k in 0..6."""

    C: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "C", _frozen_array(self.C, float, (7, 7, 7), "structure table"))

    def max_antisymmetry_residual(self) -> float:
        return float(np.max(np.abs(self.C + self.C.transpose(1, 0, 2))))

    def max_jacobi_residual(self) -> float:
        """max over i,j,k,l of |sum_m (Cijm Cmkl + Cjkm Cmil + Ckim Cmjl)|."""
        C = self.C
        term = np.einsum("ijm,mkl->ijkl", C, C)
        jac = term + term.transpose(1, 2, 0, 3) + term.transpose(2, 0, 1, 3)
        return float(np.max(np.abs(jac)))


@lru_cache(maxsize=1)
def structure_constants() -> StructureTable:
    """Structure constants derived by expanding basis commutators over the basis."""
    C = np.zeros((7, 7, 7))
    for i in range(7):
        for j in range(7):
            cij = to_coords(commutator(basis_matrix(i), basis_matrix(j)))
            C[i, j] = cij.u[:7]
    return StructureTable(C)


def lorentz_form(u: AlgCoords, v: AlgCoords, tol: float = DEFAULT_TOL) -> float:
    """Polarized Lorentzian form u0 v0 - sum_{k=1..6} uk vk on the real-trace algebra."""
    if abs(u.u[7]) > tol or abs(v.u[7]) > tol:
        raise ValueError("lorentz_form requires real-trace arguments (u7 = 0)")
    return float(u.u[0] * v.u[0] - np.dot(u.u[1:7], v.u[1:7]))


def herm_form(h: AlgCoords, tol: float = DEFAULT_TOL) -> float:
    """Quadratic form h0^2 - h1^2 - h2^2 - h3^2 on H; equals 4*det of the matrix."""
    if not h.in_H(tol):
        raise ValueError("herm_form requires a Hermitian argument (u4..u7 = 0)")
    return float(h.u[0] ** 2 - np.dot(h.u[1:4], h.u[1:4]))


def riem_product(x: AlgCoords, y: AlgCoords, tol: float = DEFAULT_TOL) -> float:
    """Euclidean product of the (u1..u6) coordinates on traceless directions."""
    if abs(x.u[0]) > tol or abs(x.u[7]) > tol or abs(y.u[0]) > tol or abs(y.u[7]) > tol:
        raise ValueError("riem_product requires traceless arguments (u0 = u7 = 0)")
    return float(np.dot(x.u[1:7], y.u[1:7]))


@dataclass(frozen=True)
class VectorClass:
    """Causal type of a vector in H: kind plus time orientation for nonspacelike kinds."""

    kind: str  # "timelike" | "isotropic" | "spacelike"
    orientation: str | None  # "future" | "past" | None (spacelike)


def vector_class(u: AlgCoords, tol: float = DEFAULT_TOL) -> VectorClass:
    """Classify a vector of H as timelike/isotropic/spacelike with time orientation.

    Timelike: <u,u> > 0; isotropic: <u,u> = 0 and u != 0; spacelike: <u,u> < 0
    or u = 0.  Orientation is the sign of <u, e_0> = u0 for nonspacelike u.
    """
    if not u.in_H(tol):
        raise ValueError("vector_class requires an argument in H")
    q = herm_form(u, tol)
    if float(np.max(np.abs(u.u[:4]))) <= tol or q < -tol:
        return VectorClass("spacelike", None)
    return VectorClass("timelike" if q > tol else "isotropic", "future" if u.u[0] > 0 else "past")


@dataclass(frozen=True)
class CliffordReport:
    """Result of checking sigma_l sigma_k + sigma_k sigma_l = 2 delta_lk I."""

    max_residual: float
    checks: int


def clifford_check() -> CliffordReport:
    """Verify the anticommutation relations of sigma_1..sigma_3; entries are exact."""
    worst = 0.0
    n = 0
    for l in range(1, 4):
        for k in range(1, 4):
            anti = _SIGMA[l] @ _SIGMA[k] + _SIGMA[k] @ _SIGMA[l]
            expected = 2.0 * np.eye(2) if l == k else np.zeros((2, 2))
            worst = max(worst, float(np.max(np.abs(anti - expected))))
            n += 1
    return CliffordReport(worst, n)


def format_float(x: float) -> str:
    """17-significant-digit rendering used for all numeric CLI output ("nan", "inf", "-inf" too)."""
    return format(float(x), ".17g")


def parse_complex(text: str) -> complex:
    return complex(cmath.nan) if text == "nan" else complex(text.replace(" ", ""))
