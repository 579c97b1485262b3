"""Geodesics, distance brackets, and the Hermitian-endpoint classifier on SL(2,C)."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sublorentz import (
    AlgCoords,
    ComplexAlgVec,
    DistanceBracket,
    Mat2C,
    SRGeodesicParams,
    basis_matrix,
    boost_distance,
    cut_bound,
    distance_lower_bound,
    distance_shoot,
    exp_closed,
    exp_series,
    hermitian_endpoint_check,
    sr_geodesic,
    su2_exp,
    to_coords,
)
from sublorentz import subriemannian
from sublorentz.algebra import coords, entry_coords, from_coords
from sublorentz.cli import main
from sublorentz.expmap import SMALL_W


def params(alpha, beta):
    return SRGeodesicParams(np.asarray(alpha, float), np.asarray(beta, float))


# A boost-rotation target whose bracket never gets tight (`test_import_scope`'s).
_BOOST_ROTATION = Mat2C(np.array([[math.cosh(0.45), math.sinh(0.45)],
                                  [math.sinh(0.45), math.cosh(0.45)]])
                        @ su2_exp([0.3, 1.1, -0.6]).m)


def _count_rows(monkeypatch) -> list:
    """Wrap the batched shooting solve; the list holds the row count of each call."""
    rows = []
    solve = subriemannian._dogleg_rows

    def counting_solve(x0, *args):
        rows.append(len(x0))
        return solve(x0, *args)

    monkeypatch.setattr(subriemannian, "_dogleg_rows", counting_solve)
    return rows


def _count_solves(monkeypatch, *names) -> dict:
    """Wrap the named `subriemannian` solvers; the dict counts their calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        solve = getattr(subriemannian, name)

        def counting_solve(*args, _name=name, _solve=solve, **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(subriemannian, name, counting_solve)
    return calls


def boost(direction, length):
    d = np.asarray(direction, float)
    d = d / np.linalg.norm(d)
    return exp_closed(ComplexAlgVec.from_reals([0.0, *(length * d)]), 1.0)


class TestGeodesic:
    def test_pure_boost_direction(self):
        got = sr_geodesic(params([1, 0, 0], [0, 0, 0]), 1.0)
        want = np.array(
            [[math.cosh(0.5), math.sinh(0.5)], [math.sinh(0.5), math.cosh(0.5)]]
        )
        assert got.distance(Mat2C(want)) < 1e-14

    def test_time_zero(self):
        p = params([0.6, 0.8, 0], [1, -2, 0.5])
        assert sr_geodesic(p, 0.0).distance(Mat2C.identity()) == 0.0

    def test_orthogonal_family_enters_unitaries(self):
        beta = 2.0
        t0 = 2.0 * math.pi / math.sqrt(3.0)
        theta = beta * math.pi / math.sqrt(3.0)
        want = Mat2C(
            -2.0 * math.cos(theta) * basis_matrix(0).m
            + 2.0 * math.sin(theta) * basis_matrix(6).m
        )
        got = sr_geodesic(params([1, 0, 0], [0, 0, beta]), t0)
        assert got.distance(want) < 1e-12
        assert got.is_unitary(1e-12)

    def test_normalization_required(self):
        with pytest.raises(ValueError):
            params([1, 1, 0], [0, 0, 0])
        p = SRGeodesicParams.normalized([1, 1, 0], [0, 0, 0])
        assert abs(np.linalg.norm(p.alpha_vec) - 1.0) < 1e-15

    def test_two_factor_agreement(self):
        rng = np.random.default_rng(71)
        worst = 0.0
        for _ in range(500):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            p = params(a, rng.uniform(-2.5, 2.5, 3))
            t = rng.uniform(-5, 5)
            worst = max(worst, sr_geodesic(p, t).distance(p.product_params().point_two_factor(t)))
        assert worst < 1e-11

    def test_unimodular(self):
        rng = np.random.default_rng(72)
        for _ in range(100):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            p = params(a, rng.uniform(-2, 2, 3))
            d = sr_geodesic(p, rng.uniform(-4, 4)).det()
            assert abs(d - 1.0) < 1e-11

    def test_collinear_reduces_to_subgroup(self):
        a = np.array([0.6, 0.8, 0.0])
        p = params(a, 1.7 * a)
        for t in np.linspace(-2, 2, 9):
            want = exp_closed(ComplexAlgVec.from_reals([0.0, *a]), t)
            assert sr_geodesic(p, t).distance(want) < 1e-12

    def test_horizontal_and_arclength(self):
        # finite-difference pullback velocity stays in H0 with unit length
        p = params([0.28, -0.96, 0.0], [0.5, 0.25, -1.0])
        h = 1e-6
        for t in np.linspace(0.1, 2.5, 7):
            g = sr_geodesic(p, t)
            dg = (sr_geodesic(p, t + h).m - sr_geodesic(p, t - h).m) / (2 * h)
            u = to_coords(Mat2C(g.inverse().m @ dg))
            assert abs(u.u[0]) < 1e-5 and np.max(np.abs(u.u[4:])) < 1e-5
            assert abs(np.linalg.norm(u.u[1:4]) - 1.0) < 1e-5

    def test_control_closed_form(self):
        p = params([0.28, -0.96, 0.0], [0.5, 0.25, -1.0])
        h = 1e-6
        for t in (0.4, 1.9):
            g = sr_geodesic(p, t)
            dg = (sr_geodesic(p, t + h).m - sr_geodesic(p, t - h).m) / (2 * h)
            fd = to_coords(Mat2C(g.inverse().m @ dg))
            closed = p.product_params().control(t)
            assert np.max(np.abs(fd.u - closed.u)) < 1e-5


class TestBoostDistance:
    def test_examples(self):
        assert boost_distance(AlgCoords.zero()) == 0.0
        for t in (0.5, 2.0, -3.0):
            x = AlgCoords(np.array([0, t, 0, 0, 0, 0, 0, 0.0]))
            assert boost_distance(x) == abs(t)
        x = AlgCoords(np.array([0, 0, 3, 4, 0, 0, 0, 0.0]))
        assert boost_distance(x) == 5.0

    def test_rejects_outside_h0(self):
        with pytest.raises(ValueError):
            boost_distance(AlgCoords.basis(0))
        with pytest.raises(ValueError):
            boost_distance(AlgCoords.basis(5))


class TestLowerBound:
    def test_examples(self):
        assert distance_lower_bound(Mat2C.identity()) == 0.0
        assert abs(distance_lower_bound(boost([1, 0, 0], 1.0)) - 1.0) < 1e-13
        assert distance_lower_bound(su2_exp([0.4, 1.0, -0.3])) < 1e-12
        # A trace form loses this to cancellation: acosh(1 + 2^-52) = 2.1e-8.
        assert distance_lower_bound(su2_exp([1.0, 2.0, 0.5])) <= 1e-15
        # det within the unimodular tolerance but not real: accepted, not rescaled.
        g = Mat2C(boost([1, 0, 0], 1.0).m @ su2_exp([0.2, 0.1, 0.3]).m / cmath.sqrt(1 + 1e-10j))
        assert abs(distance_lower_bound(g) - 1.0) < 1e-13

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            distance_lower_bound(Mat2C(2.0 * np.eye(2)))

    def test_matches_boost_distance_on_boosts(self):
        rng = np.random.default_rng(81)
        for _ in range(100):
            x = rng.normal(size=3)
            x = x / np.linalg.norm(x) * rng.uniform(0.0, 4.0)
            got = distance_lower_bound(boost(x, np.linalg.norm(x)))
            assert abs(got - np.linalg.norm(x)) < 1e-12
        # Long boosts: the small eigenvalue of g g* is lost to rounding here,
        # and det g misses 1 by more than 1e-9 from |X| = 18.
        for r in (8.0, 10.0, 14.0, 16.0, 18.0, 20.0):
            for _ in range(10):
                got = distance_lower_bound(boost(rng.normal(size=3), r))
                assert abs(got - r) <= 1e-12


class TestCutBound:
    def test_values(self):
        assert abs(cut_bound(math.sqrt(2.0)) - 2.0 * math.pi) < 1e-12
        assert abs(cut_bound(2.0) - 2.0 * math.pi / math.sqrt(3.0)) < 1e-14

    def test_rejects_at_most_one(self):
        for b in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                cut_bound(b)

    def test_diverges_near_one(self):
        assert cut_bound(1.0 + 1e-12) > 1e5


class TestDistanceShoot:
    def test_identity(self):
        br = distance_shoot(Mat2C.identity())
        assert (br.lower, br.upper, br.converged) == (0.0, 0.0, True)

    def test_boost_target_exact(self):
        br = distance_shoot(boost([1, 0, 0], 2.0))
        assert abs(br.lower - 2.0) < 1e-12
        assert br.lower == br.upper == br.witness.T
        assert br.converged
        assert np.max(np.abs(br.witness.params.beta_vec)) < 1e-12
        # Short boosts: [r, r] to rounding, where acosh(tr(g g*)/2) cancels
        # (it reads r + 1.06e-9 at r = 1e-7, and 0 at r = 1e-9).
        for r in (1e-9, 1e-8, 1e-7, 1e-6, 1e-4):
            br = distance_shoot(boost([0.7, -0.2, 0.4], r))
            assert br.lower == br.upper == br.witness.T
            assert abs(br.lower - r) <= 1e-15
            assert br.converged
        # Long boosts: det g is 1 only to about eps |g|_F^2.
        rng = np.random.default_rng(93)
        directions = [rng.normal(size=3) for _ in range(6)]
        for r in (8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0):
            for d in directions:
                br = distance_shoot(boost(d, r))
                assert br.lower == br.upper == br.witness.T, (r, d)
                assert not np.any(br.witness.params.beta_vec), (r, d)
                assert abs(br.lower - r) <= 1e-12 * r, (r, d)
                assert br.converged

    @pytest.mark.parametrize("length", [100.0, 400.0, 538.0, 700.0, 709.0])
    def test_long_float_boosts_are_exact(self, capsys, length):
        # exp_closed's boosts up to |X| = 709, where |g1|_F^2 = 2cosh|X| is still
        # finite: [|X|, |X|] in process and through `distance`, with nothing on stderr.
        rng = np.random.default_rng(5)
        for _ in range(5):
            g1 = boost(rng.normal(size=3), length)
            br = distance_shoot(g1)
            assert br.lower == br.upper and abs(br.lower - length) <= 1e-15 * length
            assert main(["distance", "--matrix", json.dumps(g1.to_json())]) == 0
            out, err = capsys.readouterr()
            assert err == "" and json.loads(out)["result"] == br.to_json()

    @pytest.mark.parametrize("length, theta", [(20.0, 1e-7), (25.0, 1e-5), (30.0, 1e-3),
                                               (36.0, 1.364), (40.0, 1.364)])
    def test_long_near_boosts_are_searched(self, length, theta):
        # exp(X) su2_exp(theta a) is no boost at any length: none gets an exact
        # bracket, and each upper has a witness within tol of g1.
        g1 = boost([0.3, -0.5, 0.8], length).m @ su2_exp(theta * np.array([0.4, 1.1, -0.7])
                                                         / np.linalg.norm([0.4, 1.1, -0.7])).m
        br = distance_shoot(Mat2C(g1))
        assert br.lower == pytest.approx(length, rel=1e-15)
        assert br.width > subriemannian._EXACT_WIDTH
        assert math.isfinite(br.upper)
        assert np.max(np.abs(sr_geodesic(br.witness.params, br.witness.T).m - g1)) < 1e-7

    @staticmethod
    def _large_beta_targets(n):
        """Short geodesics with |beta| in [8.5, 11]: the witness has a large |beta|."""
        rng = np.random.default_rng(92)
        for _ in range(n):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b *= rng.uniform(8.5, 11.0) / np.linalg.norm(b)
            yield params(a, b), rng.uniform(0.15, 0.5)

    def test_reaches_constructed_targets(self):
        rng = np.random.default_rng(91)
        cases = []
        for _ in range(4):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            cases.append((params(a, rng.uniform(-1.5, 1.5, 3)), 0.5))
        cases += list(self._large_beta_targets(4))
        for trial, (p, T) in enumerate(cases):
            target = sr_geodesic(p, T)
            br = distance_shoot(target, tol=1e-7, seed=trial)
            assert br.witness is not None
            assert br.upper <= T + 1e-7
            assert br.lower <= br.upper
            assert br.witness.residual < 1e-7

    @pytest.mark.parametrize("kind", ["boost-rotation", "large-beta"])
    def test_witness_is_shortest_certified_candidate(self, monkeypatch, kind):
        if kind == "boost-rotation":
            target = Mat2C(boost([0.7, -0.2, 0.4], 0.9).m @ su2_exp([0.3, 1.1, -0.6]).m)
        else:
            p, T = next(self._large_beta_targets(1))
            target = sr_geodesic(p, T)
        seen = []
        candidate = subriemannian._candidate

        def recording_candidate(*args):
            cand = candidate(*args)
            if cand is not None:
                seen.append(cand)
            return cand

        monkeypatch.setattr(subriemannian, "_candidate", recording_candidate)
        tol = 1e-7
        br = distance_shoot(target, tol=tol)
        certified = [cand[0] for cand in seen if cand[3] < tol]
        assert certified and br.witness is not None
        assert br.witness.T == min(certified)

    def test_deterministic(self, monkeypatch):
        # This target runs the polish stage, which solves by bounded least squares only.
        def no_simplex(*args, **kwargs):
            raise AssertionError("the polish stage must not call minimize")

        monkeypatch.setattr(subriemannian, "minimize", no_simplex, raising=False)
        p = params([0.6, 0.8, 0.0], [0.3, -0.4, 1.1])
        target = sr_geodesic(p, 0.8)
        a = distance_shoot(target, seed=5)
        b = distance_shoot(target, seed=5)
        assert a.to_json() == b.to_json()
        assert a.upper == b.upper and a.lower == b.lower
        assert abs(a.upper - 0.8000000000000003) <= 1e-12
        assert abs(a.witness.T - 0.8000000000000003) <= 1e-12

    def test_solver_names_resolve(self):
        # bench/spans.py wraps these module attributes by name.
        for name in ("root", "least_squares", "minimize"):
            assert callable(getattr(subriemannian, name)), name

    def test_every_shooting_start_is_one_batched_row(self, monkeypatch):
        rows = _count_rows(monkeypatch)
        br = distance_shoot(_BOOST_ROTATION)  # never tight
        assert not br.converged
        assert rows == [7 * (240 // 7)]  # every start on all seven log branches, in one solve

    def test_su2_fiber_skips_the_multistart(self, monkeypatch):
        rows = _count_rows(monkeypatch)
        calls = _count_solves(monkeypatch, "least_squares")
        axis = np.array([0.3, 1.1, -0.6]) / np.linalg.norm([0.3, 1.1, -0.6])
        # A rotation by 1e-10 is no boost either, though its polar rotation is
        # within 1e-10 of I.
        angles = (1e-10, 1e-6, 1e-3, 2.0, 2 * math.pi - 1e-3, 2 * math.pi - 1e-6)
        targets = [su2_exp(phi * axis) for phi in angles] + [Mat2C(-np.eye(2))]
        for g1 in targets:
            br = distance_shoot(g1)
            assert (br.lower, br.upper, br.converged) == (distance_lower_bound(g1), math.inf, False)
            assert br.witness is None
        assert rows == [] and calls == {"least_squares": 0}
        # Just off the fiber (boost 1e-4) the full multistart still runs.
        near = Mat2C(boost([0.2, -0.5, 0.8], 1e-4).m @ su2_exp(2.0 * axis).m)
        assert not distance_shoot(near).converged
        assert rows == [7 * (240 // 7)]

    def test_polish_refines_only_the_polar_seed(self, monkeypatch):
        # Small |beta|: the root solves leave the bracket loose, so the polish runs.
        calls = _count_solves(monkeypatch, "least_squares")
        p = params([0.48516030160457185, -0.43389553188805674, -0.7591799188298787],
                   [0.0018626643585940663, -0.001999478720363208, 0.0009483277950850703])
        br = distance_shoot(sr_geodesic(p, 1.1672458844635885))
        assert calls["least_squares"] == 1
        assert br.upper.hex() == "0x1.2ad0a0542963fp+0"

    # Small-|beta| geodesics whose only witness is the polished one: 11 of 120
    # drawn from default_rng(7) as a ~ N(0,1)^3, b ~ N(0,1)^3 10^U(-6,-1),
    # T ~ U(0.3, 2) are (draws 32, 19, 93, 54 and 104 here).
    @pytest.mark.parametrize("alpha, beta, T", [
        ([-0.6359494471011286, 0.7643382155848191, 0.10656168602449621],
         [1.2233364914895277e-07, -1.362558137535291e-07, 9.786913233339982e-08],
         1.840867021180437),
        ([-0.5036994177686566, -0.863791815866709, 0.012271730978546018],
         [-6.727604713740232e-07, -5.376853312325872e-07, -2.4714428674858614e-06],
         0.6619439314580766),
        ([-0.67372042431616, -0.011861804382351503, 0.7388911201632135],
         [2.926368455478889e-06, 1.9531103060626117e-06, 1.042888507659383e-06],
         0.8628872746463596),
        ([-0.5196156431187016, -0.8017841511369309, -0.29519782928058474],
         [-1.001692340221619e-05, -1.257884699557387e-05, -4.6994347778573365e-07],
         1.0722942784110019),
        ([-0.3747660873973152, -0.6775816440316136, 0.6327981474438144],
         [-1.1520788022539945e-05, -4.860359048831625e-06, -2.970388603809639e-07],
         1.9855482311968875),
    ])
    def test_polish_finds_the_only_witness(self, monkeypatch, alpha, beta, T):
        target = sr_geodesic(params(alpha, beta), T)
        with monkeypatch.context() as m:
            m.setattr(subriemannian, "_polish_candidate", lambda *args: None)
            assert distance_shoot(target).upper == math.inf  # the multistart alone
        tol = 1e-7
        br = distance_shoot(target, tol=tol)
        w = br.witness
        assert br.upper <= T + 1e-9
        assert float(np.max(np.abs(sr_geodesic(w.params, w.T).m - target.m))) < tol

    def test_polish_reads_only_solve_errors_as_no_witness(self, monkeypatch):
        # ValueError (a non-finite gap; numpy's LinAlgError for a singular
        # system) and OverflowError (cosh of a long trial) mean the polish found
        # nothing; any other error is a fault and propagates.
        with monkeypatch.context() as m:
            m.setattr(subriemannian, "_polish_candidate", lambda *args: None)
            multistart = distance_shoot(_BOOST_ROTATION).to_json()
        for error in (ValueError, np.linalg.LinAlgError, OverflowError, RuntimeError):
            def failing(*args, _error=error):
                raise _error("polish failed")

            monkeypatch.setattr(subriemannian, "least_squares", failing)
            if error is RuntimeError:
                with pytest.raises(RuntimeError, match="polish failed"):
                    distance_shoot(_BOOST_ROTATION)
            else:
                assert distance_shoot(_BOOST_ROTATION).to_json() == multistart

    def test_shooting_builds_few_matrices(self, monkeypatch):
        # The front, the residual, the certification of each root and the polish
        # work on arrays and scalars: neither `distance_shoot` nor `causal_classify`
        # builds a boundary object, on any kind of target.
        from sublorentz import PolarDecomposition, causal_classify

        built = []
        *entries, _ = TestBatchedShooting._HARD_TARGETS[0]
        targets = [(sr_geodesic(params([0.6, 0.8, 0.0], [0.3, -0.4, 1.1]), 0.8), 5),
                   (Mat2C(np.reshape(entries, (2, 2))), 0), (Mat2C.identity(), 0),
                   (boost([0.3, -0.5, 0.8], 1.2), 0), (su2_exp([0.4, 1.0, -0.3]), 0)]
        # xi = 0 decides the two searched targets by their lower end; xi = 4 searches them.
        scaled = [[Mat2C(math.exp(xi / 2.0) * g1.m) for xi in (0.0, 4.0)] for g1, _ in targets]
        for cls in (Mat2C, AlgCoords, ComplexAlgVec, PolarDecomposition):
            def counting_init(obj, *args, _init=cls.__init__, **kwargs):
                built.append(type(obj).__name__)
                _init(obj, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        for (target, seed), gs in zip(targets, scaled):
            built.clear()
            distance_shoot(target, seed=seed)
            for g in gs:
                causal_classify(g, seed=seed)
            assert built == []

    def test_functionals_once_per_matrix(self, monkeypatch):
        # Every residual pass of a searched target reads its functionals, and the
        # polish seed those of the polar rotation k: two computations in all.
        calls = []
        functionals = subriemannian._skew_functionals

        def counting_functionals(g):
            calls.append(g)
            return functionals(g)

        monkeypatch.setattr(subriemannian, "_skew_functionals", counting_functionals)
        rows = _count_rows(monkeypatch)
        distance_shoot(_BOOST_ROTATION)  # never tight, so the polish runs
        assert rows and len(calls) <= 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            distance_shoot(Mat2C(2.0 * np.eye(2)))
        # det is checked on its own rounding scale, about eps |g1|_F^2 (1.1e-7 on
        # this boost of length 20), with a floor of 1e-9 near SU(2).
        long_boost = boost([0.3, -0.5, 0.8], 20.0)
        for g1 in (Mat2C(1.1 * long_boost.m), Mat2C(1.000001 * long_boost.m),
                   Mat2C(math.sqrt(1.0 + 2e-9) * np.eye(2))):
            for f in (distance_shoot, distance_lower_bound):
                with pytest.raises(ValueError, match="unimodular"):
                    f(g1)
        assert distance_lower_bound(Mat2C(math.sqrt(1.0 + 5e-10) * np.eye(2))) == 0.0
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                distance_shoot(Mat2C.identity(), tol=tol)
        # Checked before the identity and boost early returns, which never solve.
        for target in (Mat2C.identity(), boost([1, 0, 0], 0.5)):
            for budget in (0, -5):
                with pytest.raises(ValueError, match="budget must be at least 1"):
                    distance_shoot(target, budget=budget)

    def test_bracket_json_roundtrip(self):
        target = sr_geodesic(params([0, 1, 0], [0.2, 0, -0.5]), 0.6)
        br = distance_shoot(target, seed=2)
        back = DistanceBracket.from_json(br.to_json())
        assert back.lower == br.lower and back.upper == br.upper
        assert back.converged == br.converged
        assert np.allclose(back.witness.params.alpha_vec, br.witness.params.alpha_vec)


class TestHermitianEndpoint:
    def test_collinear(self):
        report = hermitian_endpoint_check([1, 0, 0], [2, 0, 0])
        assert report.case == "collinear"
        assert report.residual < 1e-12

    def test_tangent_root(self):
        from scipy.optimize import brentq

        s = brentq(lambda u: math.tan(u) - u, math.pi + 1e-6, 1.5 * math.pi - 1e-6,
                   xtol=1e-15, rtol=8.9e-16)
        b = 2.0 * s
        report = hermitian_endpoint_check([b, 0, 0], [0, 0, b])
        assert report.case == "tangent-fixed-point"
        assert report.residual < 1e-9
        assert abs(report.x) < 1e-9 and abs(report.y) < 1e-9

    def test_generic_is_not_hermitian(self):
        report = hermitian_endpoint_check([1.0, 0.2, 0.0], [0.0, 1.3, 0.4])
        assert report.case == "not-hermitian"
        assert report.residual > 1e-3
        # Orthogonal with |alpha| = |beta|: w1 = 0 exactly, so x = y = 0; a
        # rounded w1^2 of 1e-17 would put x, y near 5e-9, past tol.
        for av, bv in (([0, 1, 0], [1, 0, 0]), ([-1, 0, 0], [0, 1, 0])):
            report = hermitian_endpoint_check(av, bv)
            assert report.case == "not-hermitian"
            assert report.residual > 0.1
            assert abs(report.x) <= 1e-15 and abs(report.y) <= 1e-15

    def test_rejects_zero_vectors(self):
        with pytest.raises(ValueError):
            hermitian_endpoint_check([0, 0, 0], [1, 0, 0])
        with pytest.raises(ValueError):
            hermitian_endpoint_check([1, 0, 0], [0, 0, 0])

    def test_xy_product_identity(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            av = rng.normal(size=3) * rng.uniform(0.3, 2.0)
            bv = rng.normal(size=3) * rng.uniform(0.3, 2.0)
            report = hermitian_endpoint_check(av, bv)
            assert abs(4.0 * report.x * report.y - float(np.dot(av, bv))) <= 1e-9

    def test_agrees_with_defect_oracle(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            av = rng.normal(size=3) * rng.uniform(0.3, 2.0)
            bv = rng.normal(size=3) * rng.uniform(0.3, 2.0)
            report = hermitian_endpoint_check(av, bv)
            if report.hermitian:
                assert report.residual < 1e-8
            else:
                assert report.residual > 1e-6

    def test_frame_invariance(self):
        # rotating both vectors by the same rotation leaves the report unchanged
        from sublorentz.expmap import axis_angle_rotation

        av = np.array([1.1, -0.4, 0.3])
        bv = np.array([0.2, 0.9, -1.0])
        r1 = hermitian_endpoint_check(av, bv)
        R = axis_angle_rotation([0.3, 0.5, -0.8], 1.1)
        r2 = hermitian_endpoint_check(R @ av, R @ bv)
        assert abs(r1.x - r2.x) < 1e-10 and abs(r1.y - r2.y) < 1e-10
        assert r1.case == r2.case

    def test_inconsistent_frame_raises(self, monkeypatch):
        # The 4xy = alpha.beta guard is a real check, not an assert `python -O` strips.
        import sublorentz.subriemannian as sr

        margins = sr._osn_margins

        def skewed(av, bv):
            m = margins(av, bv)
            m["x"] += 0.1
            return m

        monkeypatch.setattr(sr, "_osn_margins", skewed)
        with pytest.raises(RuntimeError, match="inconsistent frame"):
            hermitian_endpoint_check([1.0, 0.2, 0.0], [0.0, 1.3, 0.4])


def _entries(m: np.ndarray) -> tuple:
    return tuple(m.ravel().tolist())


def _fk(g: tuple) -> np.ndarray:
    """The functionals `subriemannian._fixed_point_rows` reads, of g given by its four entries."""
    return subriemannian._skew_functionals(np.reshape(g, (2, 2)))


def _log_sl2(m00: complex, m01: complex, m10: complex, m11: complex, branch: int):
    """Entries of the traceless logarithm of the unimodular [[m00, m01], [m10, m11]].

    Scalar reference for the logarithm of `subriemannian._fixed_point_rows`.
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
    s00, s01, s10, s11 = su2_exp([c0, c1, c2]).m.ravel().tolist()
    return _log_sl2(g00 * s00 + g01 * s10, g00 * s01 + g01 * s11,
                    g10 * s00 + g11 * s10, g10 * s01 + g11 * s11, branch)


def _fixed_point(c: np.ndarray, g: tuple, branch: int) -> list[float]:
    """Scalar oracle of `subriemannian._fixed_point_rows`: one row on Python complex scalars.

    skew(log(g exp(c))) - c on a log branch, as `entry_coords(*L)[4:7] - c` by the
    same float operations; 1e6 where `_log_sl2` gives no logarithm.
    """
    c0, c1, c2 = c.tolist()
    L = _log_g_su2(g, c0, c1, c2, branch)
    if L is None:
        return [1e6, 1e6, 1e6]
    a00, a01, a10, a11 = L
    return [(a01 + a10).imag - c0, (a10 - a01).real - c1, (a00 - a11).imag - c2]


def _row_log(g: tuple, c: np.ndarray, branch: int) -> np.ndarray | None:
    """The logarithm of g su2_exp(c) that `subriemannian._fixed_point_rows` solves on,
    built from its Hermitian coordinates and its skew ones, residual + c; None if refused."""
    f, _, herm = subriemannian._fixed_point_rows(c[None], _fk(g), np.array([branch]))
    if (f == 1e6).all():
        return None
    return from_coords(np.concatenate([[0.0], herm[0], f[0] + c])).m


def _log_targets():
    rng = np.random.default_rng(61)
    out = []
    for _ in range(3):
        a = rng.normal(size=3)
        out.append(("geodesic", sr_geodesic(params(a / np.linalg.norm(a), rng.normal(size=3)),
                                            rng.uniform(0.5, 2.0))))
        out.append(("boost-rotation", Mat2C(boost(rng.normal(size=3), rng.uniform(0.3, 2.0)).m
                                            @ su2_exp(rng.normal(size=3)).m)))
        out.append(("rotation", su2_exp(rng.uniform(0.5, 3.0) * rng.normal(size=3))))
    return out


class TestShootingLog:
    """The branch logarithm and the fixed-point residual, against the series oracle."""

    BRANCHES = (0, 1, -1, 2, -2, 3, -3)

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_log_against_series_oracle(self, branch):
        rng = np.random.default_rng(62 + branch)
        for kind, g1 in _log_targets():
            g = _entries(g1.m)
            for _ in range(4):
                c = rng.normal(size=3) * rng.uniform(0.1, 3.0)
                M = g1.m @ su2_exp(c).m
                L = _row_log(g, c, branch)
                assert abs(L[0, 0] + L[1, 1]) < 1e-12, kind
                err = np.max(np.abs(exp_series(Mat2C(L)).m - M)) / np.max(np.abs(M))
                assert err < 1e-10, (kind, c, err)
                res = _fixed_point(c, g, branch)
                assert np.max(np.abs(res - (coords(L)[4:7] - c))) < 1e-12, kind

    @pytest.mark.parametrize("branch", [b for b in BRANCHES if b != 0])
    def test_branches_shift_eigenvalue_logs(self, branch):
        rng = np.random.default_rng(72 + branch)
        for kind, g1 in _log_targets():
            g = _entries(g1.m)
            c = rng.normal(size=3)
            M = g1.m @ su2_exp(c).m
            L0, Lk = _row_log(g, c, 0), _row_log(g, c, branch)
            mus, vecs = np.linalg.eig(M)
            shifts = []
            for mu, v in zip(mus, vecs.T):
                j = int(np.argmax(np.abs(v)))
                lam0 = (L0 @ v)[j] / v[j]
                lamk = (Lk @ v)[j] / v[j]
                assert abs(cmath.exp(lamk) - mu) < 1e-10 * abs(mu), kind
                assert abs(lam0.imag) <= math.pi + 1e-9, kind
                shifts.append((lamk - lam0) / (2j * math.pi * branch))
            # one eigenvalue log moves by +2 pi i k, the other by -2 pi i k; the
            # + side is the eigenvalue of larger modulus where the moduli differ
            assert sorted(s.real for s in shifts) == pytest.approx([-1.0, 1.0], abs=1e-9), kind
            assert max(abs(s.imag) for s in shifts) < 1e-9, kind
            if abs(abs(mus[0]) - abs(mus[1])) > 1e-6:
                assert shifts[int(np.argmax(np.abs(mus)))].real == pytest.approx(1.0), kind

    @pytest.mark.parametrize("b", [0.0, 1e-9, 0.3])
    def test_degenerate_eigenvalues_take_the_closed_form(self, b, monkeypatch):
        import scipy.linalg

        calls = []
        logm = scipy.linalg.logm

        def counting_logm(m, *args, **kwargs):
            calls.append(1)
            return logm(m, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "logm", counting_logm)
        g1 = np.array([[1.0, b], [0.0, 1.0]], dtype=complex)  # +I plus a nilpotent part
        g = _entries(g1)
        c = np.zeros(3)
        L = _row_log(g, c, 0)
        assert not calls, "branch 0 takes the closed form (M - mu I)/mu, not logm"
        assert np.max(np.abs(L - (g1 - np.eye(2)))) < 1e-15  # log(I + N) = N
        assert np.max(np.abs(exp_series(Mat2C(L)).m - g1)) < 1e-15
        res = _fixed_point(c, g, 0)
        assert np.max(np.abs(res - (coords(L)[4:7] - c))) < 1e-15
        for branch in (1, -1, 2, -2, 3, -3):
            assert _row_log(g, c, branch) is None
            assert np.array_equal(_fixed_point(c, g, branch), np.full(3, 1e6))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_root_on_the_su2_fiber_gives_a_witness(self, seed):
        # What lets `distance_shoot` skip the multistart on rotation targets.
        rng = np.random.default_rng(seed)
        g1 = su2_exp(rng.uniform(0.5, 3.0) * rng.normal(size=3))
        g = _entries(g1.m)
        tol = 1e-7
        starts = subriemannian._shooting_starts(rng, 240 // 7 - 1, 13.0)
        branch = np.repeat(self.BRANCHES, len(starts))
        roots, _ = subriemannian._dogleg_rows(np.tile(starts, (7, 1)), _fk(g), branch)
        # The final point of every row, converged or not, goes through the
        # certification that `distance_shoot` runs on its converged roots.
        assert subriemannian._certified(g1.m.ravel(), _fk(g), roots, branch, tol) == []

    @pytest.mark.parametrize("b", [0.0, 0.3])
    def test_minus_identity_has_no_canonical_log(self, b):
        # -I + N (N != 0) has no traceless logarithm and -I has a sphere of
        # them; a logarithm of -M (exp(L) = -M) must never be returned.
        M = np.array([[-1.0, b], [0.0, -1.0]], dtype=complex)
        c = np.zeros(3)
        for branch in self.BRANCHES:
            assert _log_sl2(*_entries(M), branch) is None
            assert _row_log(_entries(M), c, branch) is None
            assert np.array_equal(_fixed_point(c, _entries(M), branch),
                                  np.full(3, 1e6))


class TestBatchedShooting:
    """The batched residual against the scalar oracle, and the batched solve's witnesses."""

    @staticmethod
    def _agree(g, c, branch):
        # The residual, and the Hermitian coordinates of the logarithm where it has one.
        got, _, herm = subriemannian._fixed_point_rows(c, _fk(g), branch)
        for row, h, x, b in zip(got, herm, c, branch.tolist()):
            want = np.array(_fixed_point(x, g, b))
            assert (row == 1e6).all() == (want == 1e6).all(), (x, b)
            assert np.max(np.abs(row - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), (x, b)
            L = _log_g_su2(g, *x.tolist(), b)
            if L is not None:
                want = np.array(entry_coords(*L)[1:4])
                assert np.max(np.abs(h - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), (x, b)

    def test_residual_matches_the_scalar_oracle(self):
        rng = np.random.default_rng(63)
        for kind, g1 in _log_targets():
            n = 210
            c = rng.normal(size=(n, 3))
            c *= (rng.uniform(0.0, 13.0, n) / np.linalg.norm(c, axis=1))[:, None]
            self._agree(_entries(g1.m), c, np.repeat(TestShootingLog.BRANCHES, n // 7))

    @pytest.mark.parametrize("b", [0.0, 1e-9, 0.3])
    def test_residual_on_degenerate_eigenvalues(self, b):
        # Gap 0 at +I + N (branch 0 only) and at -I + N (no branch), and a gap
        # of 2e-10 on a diagonal target: `_log_sl2`'s closed form and sentinel rows.
        c = np.zeros((7, 3))
        branch = np.array(TestShootingLog.BRANCHES)
        for M in ([[1.0, b], [0.0, 1.0]], [[-1.0, b], [0.0, -1.0]],
                  [[1.0 + 1e-10, b], [0.0, 1.0 / (1.0 + 1e-10)]]):
            g = _entries(np.array(M, dtype=complex))
            self._agree(g, c, branch)
            f, J, _ = subriemannian._fixed_point_rows(c, _fk(g), branch)
            sentinel = (f == 1e6).all(axis=1)
            assert sentinel.tolist() == [M[0][0] < 0 or k != 0 for k in branch.tolist()]
            assert (J[sentinel] == 0.0).all()  # refused rows carry no Jacobian
        # g exp(c) = -I for c on a sphere of radius 2 pi: every branch refuses it.
        rng = np.random.default_rng(65)
        c = rng.normal(size=(7, 3))
        c *= (2.0 * math.pi / np.linalg.norm(c, axis=1))[:, None]
        self._agree(_entries(np.eye(2, dtype=complex)), c, branch)
        f, J, _ = subriemannian._fixed_point_rows(c, _fk(_entries(np.eye(2))), branch)
        assert (f == 1e6).all() and (J == 0.0).all()

    # Boost-rotation targets of the benchmark corpus (`bench/workloads.py`
    # `classify_corpus(sl, seed, 60)[i]` for (seed, i) = (1, 23), (4, 37), (5,
    # 29)) whose shortest witness lies on log branch -1 or +1 and is reached by
    # few starts, with the upper end `root(hybr)` shooting gave them.
    _HARD_TARGETS = [
        ((1.2522078821158245 + 0.010845863079371982j), (-0.6702907327614148 + 0.990914157361231j),
         (-0.6051835881246332 - 0.23174901936390677j), (1.3027559754782494 - 0.3661335188454423j),
         2.7394034134314134),
        ((1.8840882389213753 + 0.4582105217078317j), (0.1889350958999574 + 0.2271902977959499j),
         (0.6188515395902877 - 0.37462542844768826j), (0.6108735907188316 - 0.1115083296207056j),
         2.750438155521228),
        ((0.9132682710170578 - 0.20593528727220484j), (-0.4517007012056109 + 0.6752519975125678j),
         (-0.8449785284889353 + 0.05866503668811032j), (1.538700865208624 - 0.30680981877415336j),
         3.3439332911937623),
    ]

    @pytest.mark.parametrize("target", _HARD_TARGETS)
    def test_finds_the_hard_witnesses(self, target):
        *entries, upper = target
        br = distance_shoot(Mat2C(np.reshape(entries, (2, 2))))
        assert br.upper <= upper + 1e-9
        assert br.witness.residual < 1e-7


def _differences(c, g, branch, h):
    """Forward and backward differences, (N, 3, 3) each, of the shooting residual."""
    FK = _fk(g)
    f = subriemannian._fixed_point_rows(c, FK, branch)[0]
    fwd = [(subriemannian._fixed_point_rows(c + e, FK, branch)[0] - f) / h for e in h * np.eye(3)]
    bwd = [(f - subriemannian._fixed_point_rows(c - e, FK, branch)[0]) / h for e in h * np.eye(3)]
    return np.stack(fwd, axis=2), np.stack(bwd, axis=2)


def _jacobian_error(c, g, branch, h) -> np.ndarray:
    """Per row, max |J - central difference| over max(1, max |J|)."""
    J = subriemannian._fixed_point_rows(c, _fk(g), branch)[1]
    fwd, bwd = _differences(c, g, branch, h)
    return np.max(np.abs(J - (fwd + bwd) / 2.0), axis=(1, 2)) / np.maximum(
        1.0, np.max(np.abs(J), axis=(1, 2)))


class TestShootingJacobian:
    """The exact Jacobian of the batched residual, against central differences."""

    @pytest.mark.parametrize("branch", TestShootingLog.BRANCHES)
    def test_matches_central_differences(self, branch):
        # |c| below SMALL_W (1e-8), just above it, of order one and within 1e-3
        # of 2 pi, where g exp(c) is near -g.
        rng = np.random.default_rng(67 + branch)
        mags = np.repeat([1e-9, 3e-8, 1e-6, 0.5, 2.0, 5.0, 2 * math.pi - 1e-3,
                          2 * math.pi + 1e-3], 3)
        assert mags.min() < SMALL_W < mags.max()
        for kind, g1 in _log_targets():
            c = rng.normal(size=(len(mags), 3))
            c *= (mags / np.linalg.norm(c, axis=1))[:, None]
            err = _jacobian_error(c, _entries(g1.m), np.full(len(c), branch), 1e-6)
            assert err.max() < 1e-7, (kind, mags[np.argmax(err)], err.max())

    @pytest.mark.parametrize("gap", [1.5e-8, 1e-7, 1e-6])
    def test_where_the_quotient_cancels(self, gap):
        # Branch 0 near +I with the eigenvalue gap just above the degenerate
        # set: (1 - mu q)/(mu^2 - 1) loses every digit there, the series none.
        # M = [[lam, b], [0, 1/lam]] with lam = exp((1 + i) e) has mu = 1 + i e^2
        # to rounding, so gap 2 sqrt(2) e; at c = 0, g exp(c) = g exactly.
        lam = cmath.exp((1 + 1j) * gap / (2.0 * math.sqrt(2.0)))
        M = np.array([[lam, 0.7 + 0.2j], [0.0, 1.0 / lam]])
        for c in (np.zeros(3), np.array([0.4, -1.1, 0.5])):
            g = _entries(M @ su2_exp(-c).m)
            G = np.reshape(g, (2, 2)) @ su2_exp(c).m
            mu = (G[0, 0] + G[1, 1]) / 2.0
            assert 1e-8 < abs(2.0 * cmath.sqrt(mu * mu - 1.0)) < 1.1e-6
            err = _jacobian_error(c[None], g, np.zeros(1, dtype=int), 1e-4)
            assert err[0] < 1e-7, (c, err)

    @pytest.mark.parametrize("b", [0.3, 2.0 - 1.0j])
    def test_on_the_degenerate_set(self, b):
        # Gap 0 (at c = 0; rounding off it) at +I + N on branch 0: q = 1/mu there
        # equals the smooth asinh(d)/d to rounding, so J is the smooth one
        # (-1/mu^2 for q', the derivative of 1/mu, misses by 1.5 % at b = 0.3).
        M = np.array([[1.0, b], [0.0, 1.0]])
        for c in (np.zeros(3), np.array([0.4, -1.1, 0.5])):
            g = _entries(M @ su2_exp(-c).m)
            err = _jacobian_error(c[None], g, np.zeros(1, dtype=int), 1e-4)
            assert err[0] < 1e-7, (c, err)

    @given(st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8),
           st.lists(st.floats(-12.0, 12.0), min_size=3, max_size=3),
           st.sampled_from(TestShootingLog.BRANCHES))
    @settings(max_examples=150, derandomize=True)
    def test_matches_central_differences_property(self, entries, c, branch):
        m = (np.array(entries[:4]) + 1j * np.array(entries[4:])).reshape(2, 2)
        det = np.linalg.det(m)
        assume(abs(det) > 0.1)
        g1 = m / np.sqrt(det)
        c = np.array([c])
        M = g1 @ su2_exp(c[0]).m
        mu = (M[0, 0] + M[1, 1]) / 2.0
        # Far from the degenerate set, where central differences lose accuracy.
        assume(abs(mu * mu - 1.0) > 1e-3)
        branch = np.array([branch])
        fwd, bwd = _differences(c, _entries(g1), branch, 1e-6)
        J = subriemannian._fixed_point_rows(c, _fk(_entries(g1)), branch)[1]
        scale = max(1.0, float(np.max(np.abs(J))))
        # The residual jumps across the log's branch cut and where |mu_+| = |mu_-|
        # swaps the eigenvalues: no derivative to compare there.
        assume(np.max(np.abs(fwd - bwd)) < 1e-2 * scale)
        assert np.max(np.abs(J[0] - (fwd[0] + bwd[0]) / 2.0)) < 1e-6 * scale

    def test_one_residual_evaluation_per_iteration(self, monkeypatch):
        # The Jacobian comes with the residual: the initial evaluation, then
        # one at the trial points of every dogleg step, then one row per
        # distinct converged root for its Hermitian part, then the one row of
        # the polish seed, and none besides.
        rows, steps, distinct = [], [], []
        evaluate, step = subriemannian._fixed_point_rows, subriemannian._dogleg_step
        solve = subriemannian._dogleg_rows

        def counting_evaluate(c, *args):
            rows.append(len(c))
            return evaluate(c, *args)

        def counting_step(J, *args):
            steps.append(len(J))
            return step(J, *args)

        def recording_solve(x0, FK, branch):
            roots, converged = solve(x0, FK, branch)
            distinct.append(len({(b, *np.round(x, 9).tolist())
                                 for x, b in zip(roots[converged], branch[converged].tolist())}))
            return roots, converged

        monkeypatch.setattr(subriemannian, "_fixed_point_rows", counting_evaluate)
        monkeypatch.setattr(subriemannian, "_dogleg_step", counting_step)
        monkeypatch.setattr(subriemannian, "_dogleg_rows", recording_solve)
        distance_shoot(_BOOST_ROTATION)  # never tight, so the polish runs
        assert len(rows) == len(steps) + 3 and distinct[0] > 1
        assert rows == [7 * (240 // 7)] + steps + distinct + [1]  # each at the rows still open

    @given(st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8),
           st.lists(st.floats(-12.0, 12.0), min_size=3, max_size=3),
           st.sampled_from(TestShootingLog.BRANCHES))
    @settings(max_examples=300, derandomize=True)
    def test_row_log_exponentiates_back_property(self, entries, c, branch):
        # exp(L) = g1 su2_exp(c) for the logarithm L the residual pass solves on,
        # rebuilt from its Hermitian and skew coordinates.
        m = (np.array(entries[:4]) + 1j * np.array(entries[4:])).reshape(2, 2)
        det = np.linalg.det(m)
        assume(abs(det) > 0.1)
        g1 = m / np.sqrt(det)
        c = np.array(c)
        M = g1 @ su2_exp(c).m
        mu = (M[0, 0] + M[1, 1]) / 2.0
        assume(abs(mu * mu - 1.0) > 1e-3)  # as the Jacobian property
        L = _row_log(_entries(g1), c, branch)
        assume(L is not None)
        err = np.max(np.abs(exp_series(Mat2C(L)).m - M)) / np.max(np.abs(M))
        assert err < 1e-10, err


class TestUnconvergedBracket:
    def test_rotation_target_is_honest(self):
        # far unitary targets may defeat the search; the bracket stays valid
        g1 = su2_exp([0.0, 0.0, 2.0])
        br = distance_shoot(g1, tol=1e-7, seed=1, budget=40)
        assert br.lower == 0.0
        assert br.upper >= br.lower
        assert not br.converged
        back = DistanceBracket.from_json(br.to_json())
        assert back.upper == br.upper


class TestHermitianEndpointBranches:
    def test_cos_vanishing(self):
        # x = 0 with cos(beta/2) = cos(y) = 0: beta = 3*pi, y = pi/2
        beta = 3 * math.pi
        alpha = math.sqrt(beta**2 - (math.pi) ** 2)
        report = hermitian_endpoint_check([alpha, 0, 0], [0, beta, 0])
        assert report.case == "cos-vanishing"
        assert report.residual < 1e-9

    def test_proportional_triple_skew(self):
        # tanh(x)/x = tan(y)/y = tan(beta/2)/(beta/2) with x*y != 0
        from scipy.optimize import brentq

        x = 0.8
        lam = math.tanh(x) / x
        y = brentq(lambda u: math.tan(u) - lam * u, math.pi + 1e-6,
                   1.5 * math.pi - 1e-6, xtol=1e-15, rtol=8.9e-16)
        s = brentq(lambda u: math.tan(u) - lam * u, 2 * math.pi + 1e-6,
                   2.5 * math.pi - 1e-6, xtol=1e-15, rtol=8.9e-16)
        beta = 2 * s
        alpha = math.sqrt(beta**2 + 4 * (x * x - y * y))
        a4 = 4 * x * y / alpha
        a5 = math.sqrt(beta**2 - a4 * a4)
        report = hermitian_endpoint_check([alpha, 0, 0], [a4, a5, 0])
        assert report.case == "proportional-triple"
        assert report.residual < 1e-9
        assert abs(report.x - x) < 1e-9 and abs(report.y - y) < 1e-9
