"""Basis arithmetic, structure constants, and the quadratic forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sublorentz import (
    DEFAULT_TOL,
    REGIME_TIMELIKE,
    AlgCoords,
    ComplexAlgVec,
    CovectorState,
    ExtremalParams,
    Mat2C,
    PathSample,
    ProductExpParams,
    SRGeodesicParams,
    StructureTable,
    basis_matrix,
    clifford_check,
    commutator,
    from_coords,
    herm_form,
    lorentz_form,
    riem_product,
    structure_constants,
    to_coords,
    vector_class,
)
from sublorentz.algebra import coeff_entries, entry_coords
from sublorentz.validation import BRACKET_TABLE

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def coords(*vals):
    u = np.zeros(8)
    u[: len(vals)] = vals
    return AlgCoords(u)


class TestBasis:
    def test_e0(self):
        assert np.array_equal(basis_matrix(0).m, np.array([[0.5, 0], [0, 0.5]]))

    def test_e2(self):
        assert np.array_equal(basis_matrix(2).m, np.array([[0, 0.5j], [-0.5j, 0]]))

    def test_e5_is_i_e2(self):
        assert np.array_equal(basis_matrix(5).m, 1j * basis_matrix(2).m)

    def test_index_range(self):
        with pytest.raises(IndexError):
            basis_matrix(8)
        with pytest.raises(IndexError):
            basis_matrix(-1)

    def test_hermitian_split(self):
        for i in range(4):
            assert basis_matrix(i).is_hermitian(0.0)
        for i in range(4, 7):
            m = basis_matrix(i).m
            assert np.array_equal(m, -m.conj().T)


class TestCommutators:
    def test_e4_e5(self):
        got = commutator(basis_matrix(4), basis_matrix(5))
        assert np.array_equal(got.m, basis_matrix(6).m)

    def test_e2_e6(self):
        got = commutator(basis_matrix(2), basis_matrix(6))
        assert np.array_equal(got.m, basis_matrix(1).m)

    def test_center(self):
        for j in range(8):
            got = commutator(basis_matrix(0), basis_matrix(j))
            assert np.array_equal(got.m, np.zeros((2, 2)))

    @pytest.mark.parametrize("i,j,k,sign", BRACKET_TABLE)
    def test_bracket_table_exact(self, i, j, k, sign):
        got = commutator(basis_matrix(i), basis_matrix(j))
        assert np.array_equal(got.m, sign * basis_matrix(k).m)

    def test_subspace_closure(self):
        # Hermitian x Hermitian lands in su(2); su(2) acts on Hermitians; su(2) closes.
        # su(2) coordinates: u0 = u1 = u2 = u3 = u7 = 0.
        h_idx, k_idx = (0, 1, 2, 3), (4, 5, 6)
        not_su2 = [0, 1, 2, 3, 7]
        for i in h_idx:
            for j in h_idx:
                u = to_coords(commutator(basis_matrix(i), basis_matrix(j))).u
                assert not u[not_su2].any()
        for i in k_idx:
            for j in h_idx:
                assert to_coords(commutator(basis_matrix(i), basis_matrix(j))).in_H(0.0)
        for i in k_idx:
            for j in k_idx:
                u = to_coords(commutator(basis_matrix(i), basis_matrix(j))).u
                assert not u[not_su2].any()


class TestStructureConstants:
    def test_values(self):
        table = structure_constants()
        assert table.C[4, 5, 6] == 1.0
        assert table.C[1, 2, 6] == -1.0
        assert np.array_equal(table.C[0], np.zeros((7, 7)))
        assert np.array_equal(table.C[:, 0], np.zeros((7, 7)))
        assert np.array_equal(table.C[:, :, 0], np.zeros((7, 7)))

    def test_antisymmetry_exact(self):
        assert structure_constants().max_antisymmetry_residual() == 0.0

    def test_jacobi(self):
        assert structure_constants().max_jacobi_residual() < 1e-14

    def test_reconstructs_commutators(self):
        table = structure_constants()
        for i in range(7):
            for j in range(7):
                rebuilt = from_coords(np.concatenate([table.C[i, j], [0.0]]))
                direct = commutator(basis_matrix(i), basis_matrix(j))
                assert rebuilt.distance(direct) < 1e-14

    def test_sectional_curvature_is_minus_one(self):
        inner = commutator(basis_matrix(1), basis_matrix(2))
        outer = commutator(inner, basis_matrix(1))
        k = riem_product(to_coords(outer), to_coords(basis_matrix(2)))
        assert k == -1.0


class TestForms:
    def test_lorentz_examples(self):
        e0, e1 = AlgCoords.basis(0), AlgCoords.basis(1)
        assert lorentz_form(e0, e0) == 1.0
        assert lorentz_form(e1, e1) == -1.0
        assert lorentz_form(e0 + e1, e0 - e1) == 2.0

    def test_lorentz_rejects_full_complex(self):
        with pytest.raises(ValueError):
            lorentz_form(AlgCoords.basis(7), AlgCoords.basis(0))

    def test_herm_examples(self):
        assert herm_form(AlgCoords.basis(0)) == 1.0
        assert herm_form(coords(1, 1)) == 0.0
        assert herm_form(coords(2, 0, 0, 1)) == 3.0

    def test_herm_rejects_skew(self):
        with pytest.raises(ValueError):
            herm_form(AlgCoords.basis(4))

    def test_riem_examples(self):
        e1, e2, e4 = AlgCoords.basis(1), AlgCoords.basis(2), AlgCoords.basis(4)
        assert riem_product(e1, e1) == 1.0
        assert riem_product(e1, e4) == 0.0
        assert riem_product(3.0 * e2, 2.0 * e2) == 6.0

    def test_riem_rejects_trace_part(self):
        with pytest.raises(ValueError):
            riem_product(AlgCoords.basis(0), AlgCoords.basis(1))

    def test_herm_form_is_four_det(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            h = coords(*rng.uniform(-5, 5, size=4))
            m = from_coords(h)
            assert abs(herm_form(h) - 4.0 * m.det().real) < 1e-13


class TestVectorClass:
    def test_examples(self):
        assert vector_class(AlgCoords.basis(0)).kind == "timelike"
        assert vector_class(AlgCoords.basis(0)).orientation == "future"
        iso = vector_class(coords(1, 1))
        assert (iso.kind, iso.orientation) == ("isotropic", "future")
        assert vector_class(AlgCoords.basis(2)).kind == "spacelike"
        past = vector_class(coords(-2, 1))
        assert (past.kind, past.orientation) == ("timelike", "past")

    def test_zero_is_spacelike(self):
        assert vector_class(AlgCoords.zero()).kind == "spacelike"

    def test_rejects_vectors_off_H(self):
        with pytest.raises(ValueError, match="requires an argument in H"):
            vector_class(AlgCoords.basis(4))


def test_clifford_anticommutation_exact():
    report = clifford_check()
    assert report.max_residual == 0.0
    assert report.checks == 9


class TestCoordinates:
    @given(st.lists(finite, min_size=8, max_size=8))
    @settings(max_examples=200, derandomize=True)
    def test_roundtrip_from_coords(self, vals):
        u = AlgCoords(np.array(vals))
        back = to_coords(from_coords(u))
        assert np.max(np.abs(back.u - u.u)) < 1e-14

    @given(st.lists(finite, min_size=8, max_size=8))
    @settings(max_examples=200, derandomize=True)
    def test_roundtrip_to_coords(self, vals):
        m = Mat2C(np.array(vals[:4]).reshape(2, 2) + 1j * np.array(vals[4:]).reshape(2, 2))
        back = from_coords(to_coords(m))
        assert back.distance(m) < 1e-14

    def test_coeff_entries_is_the_pauli_array_sum(self):
        # exp_closed and its series oracle (criterion 2) both build matrices
        # through coeff_entries, so that comparison cannot catch a wrong map;
        # this ties it to the literal basis matrices, signed zeros included.
        rng = np.random.default_rng(2310)
        parts = rng.normal(size=(50_000, 8, 2))
        zero = rng.random(parts.shape) < 0.3
        parts[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        z = parts.view(complex)[..., 0]
        want = z[:, 0, None, None] * basis_matrix(0).m
        for i in (7, 1, 2, 3, 4, 5, 6):
            want = want + z[:, i, None, None] * basis_matrix(i).m
        got = np.array([coeff_entries(*row) for row in z.tolist()]).reshape(-1, 2, 2)
        assert got.tobytes() == want.tobytes()

    def test_coeff_entries_inverts_entry_coords(self):
        # Dyadic coordinates keep every sum exact, so the round trip is equality.
        rng = np.random.default_rng(2311)
        for u in (rng.integers(-2**20, 2**20, size=(2000, 8)) * 2.0**-10).tolist():
            assert entry_coords(*coeff_entries(*u)) == tuple(u)

    def test_membership_predicates(self):
        assert AlgCoords.basis(0).in_H()
        assert not AlgCoords.basis(0).in_H0()
        assert AlgCoords.basis(2).in_H0()
        assert not AlgCoords.basis(5).u[[0, 1, 2, 3, 7]].any()
        assert not AlgCoords.basis(7).in_gl_plus()
        assert AlgCoords.basis(3).in_gl_plus()


_E1 = np.array([1.0, 0.0, 0.0])
_POINTS = (Mat2C.identity(),) * 3

# Each array-carrying boundary type: (build from one array -> the stored array, a valid array).
FROZEN_FIELDS = {
    "Mat2C.m": (lambda v: Mat2C(v).m, np.array([[1.0, 2j], [0.5, -1.0]])),
    "AlgCoords.u": (lambda v: AlgCoords(v).u, np.arange(8.0)),
    "StructureTable.C": (lambda v: StructureTable(v).C, np.ones((7, 7, 7))),
    "ComplexAlgVec.z": (lambda v: ComplexAlgVec(v).z, np.array([1.0, 1j, 0.5, -2.0])),
    "ProductExpParams.alpha": (lambda v: ProductExpParams(v).alpha, np.arange(7.0)),
    "SRGeodesicParams.alpha_vec": (lambda v: SRGeodesicParams(v, _E1).alpha_vec, _E1.copy()),
    "SRGeodesicParams.beta_vec": (lambda v: SRGeodesicParams(_E1, v).beta_vec, np.arange(3.0)),
    "ExtremalParams.alpha": (
        lambda v: ExtremalParams(v, REGIME_TIMELIKE).alpha,
        np.array([1.0, 0.0, 0.0, 0.0, 0.2, 0.3, 0.4]),
    ),
    "CovectorState.psi": (lambda v: CovectorState(v).psi, np.arange(7.0)),
    "PathSample.times": (lambda v: PathSample(v, _POINTS).times, np.arange(3.0)),
}


@pytest.mark.parametrize("field", FROZEN_FIELDS)
def test_frozen_array_fields(field):
    build, good = FROZEN_FIELDS[field]
    with pytest.raises(ValueError):
        build(np.append(good, good.flat[-1]))
    bad_values = [np.nan, np.inf] + ([complex(0.0, np.inf)] if good.dtype.kind == "c" else [])
    for value in bad_values:
        bad = good.copy()
        bad.flat[-1] = value
        with pytest.raises(ValueError):
            build(bad)
    source = good.copy()
    stored = build(source)
    assert np.array_equal(stored, good)
    assert not stored.flags.writeable
    assert not np.shares_memory(stored, source)
    with pytest.raises(ValueError):  # backed by an immutable buffer, not only flagged
        stored.setflags(write=True)


# Each row sequence of a PathSample: (its element's constructor, that element's
# stored field, the PathSample argument holding the rows, a valid row).
BATCH_ROWS = {
    "Mat2C": (Mat2C, "m", "points", np.array([[1.0, 2j], [0.5, -1.0]])),
    "AlgCoords": (AlgCoords, "u", "controls", np.arange(8.0)),
    "CovectorState": (CovectorState, "psi", "covectors", np.arange(7.0)),
}


def _error_text(build, value):
    with pytest.raises(ValueError) as info:
        build(value)
    return str(info.value)


def _path_rows(slot, batch):
    """The `slot` rows of a PathSample given `batch` there, identity points otherwise."""
    n = len(batch)
    given = {"points": np.broadcast_to(np.eye(2), (n, 2, 2)), slot: batch}
    return getattr(PathSample(np.arange(float(n)), **given), slot)


@pytest.mark.parametrize("kind", BATCH_ROWS)
def test_batch_rows_are_read_only_views(kind):
    cls, field, slot, good = BATCH_ROWS[kind]
    source = np.stack([good, 2 * good, -good])
    rows = _path_rows(slot, source)
    assert len(rows) == 3 and [type(r) for r in rows] == [cls] * 3
    stored = [getattr(r, field) for r in rows]
    for got, single in zip(stored, (cls(x) for x in source)):
        assert got.tobytes() == getattr(single, field).tobytes()
        assert got.dtype == getattr(single, field).dtype and got.flags.c_contiguous
    for j in (0, 2, -1, np.int64(1)):  # indexing builds the same view as iterating
        assert getattr(rows[j], field).tobytes() == stored[j].tobytes()
    with pytest.raises(IndexError):
        rows[3]
    with pytest.raises(TypeError):  # rows, not slices
        rows[0:2]
    assert all(np.shares_memory(x, stored[0].base) for x in stored)
    assert all(np.shares_memory(x, rows.array) for x in stored)
    assert rows.array.tobytes() == source.astype(rows.array.dtype).tobytes()
    assert not np.shares_memory(stored[0], source)
    with pytest.raises(ValueError):
        stored[1][(0,) * good.ndim] = 7.0
    with pytest.raises(ValueError):
        stored[1].setflags(write=True)
    with pytest.raises(ValueError):  # nor can the shared batch behind the rows
        stored[1].base.setflags(write=True)
    with pytest.raises(ValueError):
        rows.array.setflags(write=True)
    with pytest.raises(AttributeError):
        rows.array = source
    assert len(_path_rows(slot, np.zeros((0, *good.shape)))) == 0
    # a sequence of boundary objects is taken as the same batch
    assert _path_rows(slot, tuple(rows)).array.tobytes() == rows.array.tobytes()


@pytest.mark.parametrize("kind", BATCH_ROWS)
def test_batch_rows_reject_like_the_single_constructor(kind):
    cls, _, slot, good = BATCH_ROWS[kind]
    build = lambda batch: _path_rows(slot, batch)  # noqa: E731
    bad_rows = [np.append(good, good.flat[-1]), good.ravel()[:1]]
    for value in [np.nan, np.inf] + ([complex(0.0, np.inf)] if good.dtype.kind == "c" else []):
        bad = good.copy()
        bad.flat[-1] = value
        bad_rows.append(bad)
    for bad in bad_rows:
        batch = [good, bad] if bad.shape == good.shape else [bad, bad]
        assert _error_text(build, batch) == _error_text(cls, bad)
    assert "shape" in _error_text(build, good)  # one row is not a batch


def test_batch_covector_rules_in_single_constructor_order():
    good, zero, nan_row = np.arange(7.0), np.zeros(7), np.array([np.nan] + [0.0] * 6)
    build = lambda batch: _path_rows("covectors", batch)  # noqa: E731
    assert _error_text(build, [good, zero]) == _error_text(CovectorState, zero)
    assert "never vanish" in _error_text(build, [good, zero])
    # finiteness is checked before the vanishing rule, on every row
    assert _error_text(build, [zero, nan_row]) == _error_text(CovectorState, nan_row)
    assert "finite" in _error_text(build, [zero, nan_row])


class TestMat2C:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Mat2C(np.array([[np.nan, 0], [0, 1]]))
        with pytest.raises(ValueError):
            Mat2C(np.array([[np.inf, 0], [0, 1]], dtype=complex))

    def test_predicates(self):
        assert Mat2C.identity().is_hermitian()
        assert Mat2C.identity().is_unitary()
        assert abs(Mat2C.identity().det() - 1.0) <= DEFAULT_TOL
        assert (np.linalg.eigvalsh(Mat2C.identity().m) > 0).all()
        e4 = basis_matrix(4).m
        assert np.max(np.abs(e4 + e4.conj().T)) <= DEFAULT_TOL
        assert Mat2C(np.diag([1.0, -2.0])).is_hermitian()
        assert not (np.linalg.eigvalsh(Mat2C(np.diag([1.0, -2.0])).m) > 0).all()

    def test_inverse(self):
        m = Mat2C(np.array([[2.0, 1.0], [0.5, 1.0]], dtype=complex))
        assert (m @ m.inverse()).distance(Mat2C.identity()) < 1e-15

    def test_json_roundtrip(self):
        m = Mat2C(np.array([[1 + 2j, -0.5], [3j, 4.0]]))
        assert Mat2C.from_json(m.to_json()).distance(m) == 0.0
        u = AlgCoords(np.arange(8.0))
        assert np.array_equal(AlgCoords.from_json(u.to_json()).u, u.u)
