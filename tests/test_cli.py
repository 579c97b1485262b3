"""CLI surface: subcommands, exit codes, round-trips, determinism."""

import io
import json
import math

import argparse

import numpy as np
import pytest

from sublorentz import Mat2C, PathSample
from sublorentz.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_payload(out):
    return json.loads(out)


class TestExp:
    def test_central(self, capsys):
        code, out, _ = run(capsys, "exp", "--coeffs", "1,0,0,0", "--t", "2")
        assert code == 0
        payload = parse_payload(out)
        m = Mat2C.from_json(payload["result"]["matrix"])
        assert m.distance(Mat2C(math.e * np.eye(2))) < 1e-14
        assert payload["result"]["series_residual"] < 1e-14
        assert payload["config"]["subcommand"] == "exp"
        assert payload["config"]["t"] == 2.0

    def test_boost(self, capsys):
        code, out, _ = run(capsys, "exp", "--coeffs", "0,1,0,0", "--t", "1")
        m = Mat2C.from_json(parse_payload(out)["result"]["matrix"])
        assert abs(m.m[0, 0].real - math.cosh(0.5)) < 1e-14
        assert abs(m.m[0, 1].real - math.sinh(0.5)) < 1e-14

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "exp", "--coeffs", "0,0,0,0", "--t", "5")
        m = Mat2C.from_json(parse_payload(out)["result"]["matrix"])
        assert m.distance(Mat2C.identity()) == 0.0

    def test_complex_coefficients(self, capsys):
        code, out, _ = run(capsys, "exp", "--coeffs", "0,1+1j,1j,0", "--t", "0.5")
        assert code == 0

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "exp", "--coeffs", "1,0,0", "--t", "1")
        assert code == 2
        assert "error" in err


class TestGeodesic:
    def test_orthogonal_family_endpoint(self, capsys, tmp_path):
        out_file = tmp_path / "path.csv"
        t_cut = 2.0 * math.pi / math.sqrt(3.0)
        code, _, _ = run(
            capsys,
            "geodesic", "--kind", "subriemannian",
            "--alpha", "1,0,0", "--beta", "0,0,2",
            "--t-max", str(t_cut), "--samples", "100",
            "--out", str(out_file),
        )
        assert code == 0
        with open(out_file) as fh:
            path = PathSample.from_csv(fh)
        final = path.points[-1]
        assert final.is_unitary(1e-9)
        from sublorentz import to_coords

        assert np.max(np.abs(to_coords(final).u[1:4])) < 1e-9

    def test_timelike_ray_column(self, capsys):
        code, out, _ = run(
            capsys,
            "geodesic", "--kind", "timelike", "--alpha", "0,0,0",
            "--t-max", "1", "--samples", "5",
        )
        assert code == 0
        path = PathSample.from_csv(io.StringIO(out))
        for t, pt in zip(path.times, path.points):
            assert pt.distance(Mat2C(math.exp(t / 2.0) * np.eye(2))) < 1e-12

    def test_det_and_arclength_columns(self, capsys):
        code, out, _ = run(
            capsys,
            "geodesic", "--kind", "timelike", "--alpha", "0.3,0,0",
            "--beta", "0,0,1", "--t-max", "1", "--samples", "5",
        )
        header = next(l for l in out.splitlines() if not l.startswith("#"))
        assert header.endswith("det_re,det_im,arc_residual")
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        for row in rows:
            assert float(row.split(",")[-1]) < 1e-12  # arclength residual

    def test_empty_range_header_only(self, capsys):
        code, out, _ = run(
            capsys,
            "geodesic", "--kind", "subriemannian", "--alpha", "1,0,0",
            "--t-max", "1", "--samples", "0",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert lines[0].startswith("# config")
        assert lines[1].startswith("t,g11_re")
        assert len(lines) == 2

    def test_normalization_flag(self, capsys):
        code, _, err = run(
            capsys,
            "geodesic", "--kind", "subriemannian", "--alpha", "2,0,0",
            "--t-max", "1", "--samples", "3",
        )
        assert code == 2  # rejected without --normalize, residual reported
        code2, out, _ = run(
            capsys,
            "geodesic", "--kind", "subriemannian", "--alpha", "2,0,0",
            "--t-max", "1", "--samples", "3", "--normalize",
        )
        assert code2 == 0

    def test_overflow_exit_code(self, capsys):
        code, out, err = run(
            capsys, "geodesic", "--kind", "subriemannian", "--alpha", "1,0,0", "--t-max", "1e308"
        )
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("kind", ["timelike", "isotropic"])
    def test_overflow_exit_code_normal_kinds(self, capsys, recwarn, kind):
        code, out, err = run(capsys, "geodesic", "--kind", kind, "--alpha", "1,0,0", "--t-max", "1e308")
        assert code == 2
        assert out == "" and err == "error: math range error\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_constants_write_one_error_line(self, fresh_python):
        # A new interpreter, so numpy's warnings reach stderr as they would in a shell.
        proc = fresh_python("-m", "sublorentz.cli", "geodesic", "--kind", "timelike",
                            "--alpha", "1,0,0", "--beta", "1e300,0,0", "--t-max", "1e10")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "subriemannian", "--alpha", "1,0,0", "--alpha0", "1.5"],
            ["--kind", "isotropic", "--alpha", "1,0,0", "--alpha0", "1.5"],
            ["--kind", "timelike", "--alpha", "0.3,0,0", "--normalize"],
        ],
        ids=["alpha0-subriemannian", "alpha0-isotropic", "normalize-timelike"],
    )
    def test_option_ignored_by_kind_exit_code(self, capsys, argv):
        code, out, err = run(capsys, "geodesic", *argv, "--samples", "3")
        assert code == 2
        assert out == "" and err.startswith("error:")


class TestClassify:
    def test_timelike(self, capsys):
        g = Mat2C(math.e * np.eye(2))
        code, out, _ = run(capsys, "classify", "--matrix", json.dumps(g.to_json()))
        assert code == 0
        result = parse_payload(out)["result"]
        assert result["class"] == "timelike"
        assert abs(result["distance"] - 2.0) < 1e-12

    def test_unreachable_marker(self, capsys):
        m = np.array([[math.cosh(0.5), math.sinh(0.5)], [math.sinh(0.5), math.cosh(0.5)]])
        code, out, _ = run(capsys, "classify", "--matrix", json.dumps(Mat2C(m).to_json()))
        assert code == 0
        assert parse_payload(out)["result"]["distance"] == "-inf"

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "classify", "--matrix", json.dumps(Mat2C.identity().to_json()))
        assert code == 0
        result = parse_payload(out)["result"]
        assert result["class"] == "identity" and result["distance"] == 0.0

    def test_indeterminate_exit_code(self, capsys):
        from sublorentz import SRGeodesicParams, distance_shoot, sr_geodesic

        p = SRGeodesicParams(np.array([0.6, 0.8, 0.0]), np.array([0.3, -0.4, 1.1]))
        g1 = sr_geodesic(p, 0.8)
        br = distance_shoot(g1, seed=5)
        xi = 0.5 * (br.lower + br.upper)
        g = Mat2C(math.exp(xi / 2.0) * g1.m)
        code, out, _ = run(
            capsys, "classify", "--matrix", json.dumps(g.to_json()), "--seed", "5"
        )
        assert code == 3
        assert parse_payload(out)["result"]["class"] == "indeterminate"

    def test_lower_decided_report(self, capsys):
        # xi = 0 is below the projection bound |X| = 0.9 of this boost-rotation:
        # classify reports [lower, inf) with no witness, longest-arc refuses it.
        from sublorentz import ComplexAlgVec, exp_closed, su2_exp

        b = exp_closed(ComplexAlgVec.from_reals([0.0, 0.9, 0.0, 0.0]), 1.0)
        g = json.dumps(Mat2C(b.m @ su2_exp([0.3, 1.1, -0.6]).m).to_json())
        code, out, _ = run(capsys, "classify", "--matrix", g)
        assert code == 0
        result = parse_payload(out)["result"]
        assert result["class"] == "unreachable"
        assert result["eta"]["upper"] == "inf" and result["eta"]["witness"] is None
        code, out, err = run(capsys, "longest-arc", "--matrix", g)
        assert code == 2 and out == ""
        assert parse_payload(err)["result"] == result

    def test_non_group_input_exit_code(self, capsys):
        code, _, err = run(
            capsys, "classify", "--matrix", json.dumps(Mat2C(np.diag([1.0, -1.0])).to_json())
        )
        assert code == 2

    def test_non_unimodular_distance_exit_code(self, capsys):
        # det = 1.21 on a boost of length 20, where det itself rounds to about 1e-7.
        from sublorentz import ComplexAlgVec, exp_closed

        d = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
        b = exp_closed(ComplexAlgVec.from_reals([0.0, *(20.0 * d)]), 1.0)
        off = json.dumps(Mat2C(1.1 * b.m).to_json())
        code, out, err = run(capsys, "distance", "--matrix", off)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        code, out, _ = run(capsys, "distance", "--matrix", json.dumps(b.to_json()))
        result = parse_payload(out)["result"]
        assert code == 0 and result["lower"] == result["upper"]

    @pytest.mark.parametrize(
        "matrix",
        ['{"m": [[1,2],[3,4]]}', '{"m": [[[1,0]]]}', '{"m": "x"}'],
        ids=["real-2x2", "short", "string"],
    )
    def test_malformed_matrix_exit_code(self, capsys, matrix):
        code, out, err = run(capsys, "classify", "--matrix", matrix)
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_determinism(self, capsys):
        g = Mat2C(math.e * np.eye(2)).to_json()
        _, out1, _ = run(capsys, "classify", "--matrix", json.dumps(g), "--seed", "7")
        _, out2, _ = run(capsys, "classify", "--matrix", json.dumps(g), "--seed", "7")
        assert out1 == out2


class TestDistance:
    def test_boost_bracket(self, capsys):
        from sublorentz import ComplexAlgVec, exp_closed

        g1 = exp_closed(ComplexAlgVec.from_reals([0, 1, 0, 0]), 2.0)
        code, out, _ = run(capsys, "distance", "--matrix", json.dumps(g1.to_json()))
        assert code == 0
        result = parse_payload(out)["result"]
        assert abs(result["lower"] - 2.0) < 1e-12
        assert result["converged"] is True
        assert result["witness"]["T"] == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("command", ["distance", "classify"])
    def test_long_boost_is_exact(self, capsys, command):
        # At |X| = 18, det g1 and the polar rotation of g1 are 1 and I only to
        # about eps |g1|_F^2 = 1.5e-8.
        from sublorentz import ComplexAlgVec, exp_closed

        d = np.array([1.0, 2.0, 3.0]) / np.linalg.norm([1.0, 2.0, 3.0])
        g1 = exp_closed(ComplexAlgVec.from_reals([0.0, *(18.0 * d)]), 1.0)
        code, out, _ = run(capsys, command, "--matrix", json.dumps(g1.to_json()))
        assert code == 0
        result = parse_payload(out)["result"]
        # classify brackets g1 / sqrt(det g1), whose |X| is 18 - ln det g1.
        bracket, r = (result["eta"], 18.0 - result["xi"]) if command == "classify" else (result, 18.0)
        assert bracket["lower"] == bracket["upper"] == bracket["witness"]["T"]
        assert abs(bracket["lower"] - r) <= 1e-12 * r
        assert bracket["witness"]["beta"] == [0.0, 0.0, 0.0]
        assert bracket["converged"] is True
        if command == "classify":
            assert result["eta_exact"] is True


class TestLongestArc:
    def test_reachable(self, capsys):
        g = Mat2C(math.e * np.eye(2))
        code, out, _ = run(
            capsys, "longest-arc", "--matrix", json.dumps(g.to_json()), "--samples", "11"
        )
        assert code == 0
        path = PathSample.from_csv(io.StringIO(out))
        assert path.points[-1].distance(g) < 1e-9

    @pytest.mark.parametrize("kind", ["boost", "geodesic"])
    def test_large_determinant_exit_code(self, capsys, kind):
        # det g = e^60: the endpoint check is scale-free, so exit 0, not a traceback
        from sublorentz import SRGeodesicParams, sr_geodesic

        if kind == "boost":
            g1 = np.array([[math.cosh(0.5), math.sinh(0.5)], [math.sinh(0.5), math.cosh(0.5)]])
        else:
            p = SRGeodesicParams(np.array([0.6, 0.8, 0.0]), np.array([0.3, -0.5, 1.1]))
            g1 = sr_geodesic(p, 1.3).m
        g = Mat2C(math.exp(30.0) * g1)
        code, out, err = run(capsys, "longest-arc", "--matrix", json.dumps(g.to_json()),
                             "--samples", "11")
        assert code == 0 and err == ""
        path = PathSample.from_csv(io.StringIO(out))
        assert len(path.times) == 11
        assert path.points[-1].distance(g) * math.exp(-30.0) < 1e-12

    def test_identity_is_one_point(self, capsys):
        # the longest arc from e to e is the point e, whatever --samples says
        code, out, _ = run(capsys, "longest-arc", "--matrix",
                           json.dumps(Mat2C.identity().to_json()), "--samples", "5")
        assert code == 0
        rows = [line for line in out.splitlines() if line and not line.startswith("#")]
        assert len(rows) == 2  # header and one data row
        assert '"samples": 5' in out
        assert PathSample.from_csv(io.StringIO(out)).points[0].distance(Mat2C.identity()) == 0.0

    def test_unreachable_exit(self, capsys):
        m = np.array([[math.cosh(0.5), math.sinh(0.5)], [math.sinh(0.5), math.cosh(0.5)]])
        code, _, err = run(capsys, "longest-arc", "--matrix", json.dumps(Mat2C(m).to_json()))
        assert code == 2
        assert '"unreachable"' in err


class TestExtremal:
    def test_pontryagin_ray(self, capsys):
        code, out, _ = run(
            capsys,
            "extremal", "pontryagin", "--psi0", "1,0,0,0,0,0,0",
            "--regime", "timelike", "--T", "1", "--step", "0.01",
        )
        assert code == 0
        path = PathSample.from_csv(io.StringIO(out))
        assert path.covectors is not None
        assert path.points[-1].distance(Mat2C(math.exp(0.5) * np.eye(2))) < 1e-9

    def test_abnormal(self, capsys):
        code, out, _ = run(
            capsys,
            "extremal", "abnormal", "--beta-dir", "0,0,1", "--regime", "timelike",
            "--kappa", "0:0,1:0.5,2:1", "--steps", "200",
        )
        assert code == 0
        path = PathSample.from_csv(io.StringIO(out))
        assert len(path.times) == 201

    def test_abnormal_drift_is_scale_free(self, capsys):
        # The covector is projective: scaling beta_dir by 1e9 changes nothing.
        argv = ["extremal", "abnormal", "--regime", "timelike", "--kappa", "0:0,1:0.5",
                "--steps", "1000", "--beta-dir"]
        code, out, err = run(capsys, *argv, "3e8,7e8,2e8")
        assert code == 0 and err == ""
        _, ref, _ = run(capsys, *argv, "0.3,0.7,0.2")
        big, unit = (PathSample.from_csv(io.StringIO(text)) for text in (out, ref))
        assert max(p.distance(q) for p, q in zip(big.points, unit.points)) <= 1e-15

    def test_abnormal_huge_beta_dir(self, capsys):
        # |beta_dir| overflows double precision; its direction is still (1, 1, 0)/sqrt(2).
        argv = ["extremal", "abnormal", "--regime", "timelike", "--kappa", "0:2,1:2",
                "--beta-dir"]
        code, out, err = run(capsys, *argv, "1e308,1e308,0")
        assert code == 0 and err == ""
        _, ref, _ = run(capsys, *argv, "1,1,0")
        big, unit = (PathSample.from_csv(io.StringIO(text)) for text in (out, ref))
        assert all(p.m.tobytes() == q.m.tobytes() for p, q in zip(big.points, unit.points))

    @pytest.mark.parametrize(
        "argv",
        [
            ["extremal", "pontryagin", "--regime", "timelike"],
            ["extremal", "pontryagin", "--regime", "timelike", "--psi0", "1,0,0,0,0,0,0",
             "--step", "0"],
            ["extremal", "abnormal", "--regime", "timelike", "--steps", "0"],
            ["geodesic", "--kind", "subriemannian", "--alpha", "1,0,0", "--samples", "-1"],
            ["longest-arc", "--matrix", json.dumps(Mat2C(math.e * np.eye(2)).to_json()),
             "--samples", "1"],
        ],
        ids=["no-psi0", "zero-step", "zero-steps", "negative-samples", "one-sample-arc"],
    )
    def test_missing_or_zero_size_exit_code(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pontryagin", "--regime", "timelike", "--psi0", "1e155,1e155,0,0,0,0,0"],
             "timelike regime requires"),
            (["pontryagin", "--regime", "timelike", "--psi0", "nan,0,0,0,0,0,0"],
             "timelike regime requires"),
            (["abnormal", "--regime", "timelike", "--kappa", "0:0,1e308:1"],
             "integration diverged"),
            (["pontryagin", "--psi0", "1.4142135623730951,-1,0,0,0,0,0", "--regime", "timelike",
              "--T", "1e300", "--step", "1e299"],
             "integration diverged"),
        ] + [
            (["pontryagin", "--psi0", "1.4142135623730951,-1,0,0,0,0,0", "--regime", "timelike",
              "--T", T], "--T must be finite and positive") for T in ("0", "-1", "nan")
        ] + [
            (["abnormal", "--regime", "timelike", "--kappa", "0:nan,1:1"],
             "kappa times and values must be finite"),
            (["abnormal", "--regime", "timelike", "--beta-dir", "inf,0,0"],
             "beta_dir must be three finite numbers"),
            (["abnormal", "--regime", "timelike", "--kappa", "0:0,inf:1"],
             "kappa times and values must be finite"),
        ] + [
            (["pontryagin", "--psi0", "1,0,0,0,0,0,0", "--regime", "timelike", "--T", "1",
              "--step", step], "--step must not exceed --T") for step in ("10", "inf")
        ],
        ids=["overflow-psi0", "nan-psi0", "diverged", "pontryagin-diverged", "T-zero", "T-negative",
             "T-nan", "kappa-value-nan", "beta-dir-inf", "kappa-time-inf", "step-above-T",
             "step-inf"],
    )
    def test_non_finite_exit_code(self, capsys, argv, message):
        code, out, err = run(capsys, "extremal", *argv)
        assert code == 2
        assert out == "" and err.startswith("error:") and message in err
        assert len(err.splitlines()) == 1


class TestHermitianCheck:
    def test_collinear(self, capsys):
        code, out, _ = run(capsys, "hermitian-check", "--alpha", "1,0,0", "--beta", "2,0,0")
        assert code == 0
        result = parse_payload(out)["result"]
        assert result["case"] == "collinear"
        assert result["residual"] < 1e-12

    def test_exact_tol(self, capsys):
        code, out, _ = run(capsys, "hermitian-check", "--alpha", "1,0,0", "--beta", "2,0,0",
                           "--tol", "0")
        assert code == 0
        assert parse_payload(out)["result"]["case"] == "collinear"

    def test_overflowing_constants_write_one_error_line(self, fresh_python):
        # A new interpreter, so numpy's warnings reach stderr as they would in a shell.
        proc = fresh_python("-m", "sublorentz.cli", "hermitian-check",
                            "--alpha=1e155,0,0", "--beta=0,1e155,0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: matrix exponential overflows double precision: norm 1e+155 > 700\n"


_TIMELIKE_BOOST = json.dumps(Mat2C(math.exp(1.0) * np.array(
    [[math.cosh(0.25), math.sinh(0.25)], [math.sinh(0.25), math.cosh(0.25)]])).to_json())
_SHEAR = json.dumps({"m": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]})  # unimodular, not a boost


_BAD_TOL = [
    (["hermitian-check", "--alpha", "1,0,0", "--beta", "2,0,0"], ("nan", "inf", "-1")),
    (["distance", "--matrix", _SHEAR], ("nan", "inf")),
    (["classify", "--matrix", _TIMELIKE_BOOST], ("nan", "inf")),
    (["longest-arc", "--matrix", _TIMELIKE_BOOST], ("nan", "inf")),
]


@pytest.mark.parametrize(
    "argv",
    [[*cmd, "--tol", tol] for cmd, tols in _BAD_TOL for tol in tols],
    ids=lambda argv: f"{argv[0]}-{argv[-1]}",
)
def test_bad_tol_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


_BOOST = json.dumps(Mat2C(np.array(
    [[math.cosh(0.25), math.sinh(0.25)], [math.sinh(0.25), math.cosh(0.25)]])).to_json())


# Boost targets return before any solve, so they show the check comes first.
@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "--matrix", _SHEAR, "--budget", "-5"],
        ["distance", "--matrix", _SHEAR, "--budget", "0"],
        ["distance", "--matrix", _BOOST, "--budget", "0"],
        ["classify", "--matrix", _TIMELIKE_BOOST, "--budget", "-5"],
        ["classify", "--matrix", _TIMELIKE_BOOST, "--budget", "0"],
    ],
    ids=["distance-shear--5", "distance-shear-0", "distance-boost-0",
         "classify-boost--5", "classify-boost-0"],
)
def test_bad_budget_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err == "error: budget must be at least 1, got " + argv[-1] + "\n"


class TestValidate:
    def test_only_algebra(self, capsys):
        code, out, err = run(capsys, "validate", "--only", "algebra")
        assert code == 0
        payload = parse_payload(out)
        assert payload["result"]["all_passed"] is True
        assert len(payload["result"]["criteria"]) == 1
        assert payload["result"]["criteria"][0]["name"] == "algebraic-ground-truth"
        assert "PASS" in err

    def test_only_determinism(self, capsys):
        _, out1, _ = run(capsys, "validate", "--only", "algebra")
        _, out2, _ = run(capsys, "validate", "--only", "algebra")
        assert out1 == out2


class TestPlotScript:
    def test_references_csv(self, capsys, tmp_path):
        csv_file = tmp_path / "ray.csv"
        run(
            capsys,
            "geodesic", "--kind", "timelike", "--alpha", "0,0,0",
            "--t-max", "1", "--samples", "5", "--out", str(csv_file),
        )
        code, out, _ = run(
            capsys, "plot-script", "--csv", str(csv_file), "--y", "g11_re,g22_re"
        )
        assert code == 0
        assert str(csv_file) in out
        assert "plot" in out

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--title", "x'\nsystem('echo INJECTED')\nset title 'y"),
            ("--csv", "it's.csv"),
            ("--y", "it's"),
            ("--x", "a\tb"),
        ],
        ids=["title-injection", "csv-quote", "y-quote", "x-control"],
    )
    def test_rejects_quote_or_control_character(
        self, capsys, tmp_path, monkeypatch, option, value
    ):
        # Each value would land inside a single-quoted gnuplot string; every
        # one of them names a real file or column, so only the check rejects it.
        monkeypatch.chdir(tmp_path)
        for name in ("ray.csv", "it's.csv"):
            (tmp_path / name).write_text("t,g11_re,it's,a\tb\n0,1,2,3\n")
        argv = {"--csv": "ray.csv", "--y": "g11_re", option: value}
        code, out, err = run(capsys, "plot-script", *[x for kv in argv.items() for x in kv])
        assert code == 2
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


class TestRoundTrips:
    def test_exp_output_feeds_classify(self, capsys, tmp_path):
        out_file = tmp_path / "exp.json"
        run(capsys, "exp", "--coeffs", "1,0,0,0", "--t", "2", "--out", str(out_file))
        payload = json.loads(out_file.read_text())
        mat_file = tmp_path / "m.json"
        mat_file.write_text(json.dumps(payload["result"]["matrix"]))
        code, out, _ = run(capsys, "classify", "--matrix", f"@{mat_file}")
        assert code == 0
        assert parse_payload(out)["result"]["class"] == "timelike"

    def test_csv_reread_matches(self, capsys, tmp_path):
        out_file = tmp_path / "p.csv"
        run(
            capsys,
            "geodesic", "--kind", "isotropic", "--alpha", "1,0,0", "--beta", "0,1,0",
            "--t-max", "2", "--samples", "9", "--out", str(out_file),
        )
        with open(out_file) as fh:
            first = PathSample.from_csv(fh)
        text = first.to_csv_text()
        second = PathSample.from_csv(io.StringIO(text))
        for a, b in zip(first.points, second.points):
            assert a.distance(b) == 0.0



E_MATRIX = json.dumps(Mat2C(math.e * np.eye(2)).to_json())

# Required options of every leaf parser, with small sizes (plot-script reads ./ray.csv).
LEAF_ARGS = {
    ("exp",): ["--coeffs", "1,0,0,0"],
    ("geodesic",): ["--kind", "timelike", "--alpha", "0,0,0", "--samples", "2"],
    ("classify",): ["--matrix", E_MATRIX],
    ("distance",): ["--matrix", json.dumps(Mat2C.identity().to_json())],
    ("longest-arc",): ["--matrix", E_MATRIX, "--samples", "2"],
    ("extremal", "pontryagin"): ["--psi0", "1,0,0,0,0,0,0", "--regime", "timelike",
                                 "--T", "0.01"],
    ("extremal", "abnormal"): ["--regime", "timelike", "--steps", "2"],
    ("hermitian-check",): ["--alpha", "1,0,0", "--beta", "2,0,0"],
    ("validate",): ["--only", "algebra"],
    ("plot-script",): ["--csv", "ray.csv", "--y", "g11_re"],
}


def _leaf_parsers():
    def subparsers(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    for name, parser in subparsers(build_parser()).choices.items():
        if name == "extremal":
            for mode, leaf in subparsers(parser).choices.items():
                yield (name, mode), leaf
        else:
            yield (name,), parser


class TestOptions:
    """Each parser declares exactly the options its handler reads and echoes."""

    @pytest.mark.parametrize(
        "names, flag, value",
        [
            (("exp",), "--seed", "9"),
            (("exp",), "--tol", "5"),
            (("exp",), "--step", "3"),
            (("geodesic",), "--step", "0.1"),
            (("geodesic",), "--seed", "1"),
            (("classify",), "--step", "0.1"),
            (("distance",), "--step", "0.1"),
            (("longest-arc",), "--step", "0.1"),
            (("hermitian-check",), "--seed", "1"),
            (("hermitian-check",), "--step", "0.1"),
            (("validate",), "--seed", "7"),
            (("validate",), "--tol", "1e-9"),
            (("extremal", "abnormal"), "--psi0", "1,0,0,0,0,0,0"),
            (("extremal", "abnormal"), "--T", "2"),
            (("extremal", "abnormal"), "--step", "3"),  # not an abbreviation of --steps
            (("extremal", "abnormal"), "--seed", "1"),
            (("extremal", "pontryagin"), "--kappa", "0:0,1:1"),
            (("extremal", "pontryagin"), "--steps", "10"),
            (("extremal", "pontryagin"), "--tol", "1e-9"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else v if v.startswith("--") else "",
    )
    def test_removed_option_rejected(self, capsys, names, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([*names, *LEAF_ARGS[names], flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_echoed_config_matches_parser(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ray.csv").write_text("t,g11_re\n0,1\n")
        leaves = dict(_leaf_parsers())
        assert set(leaves) == set(LEAF_ARGS)
        for names, leaf in leaves.items():
            code, out, _ = run(capsys, *names, *LEAF_ARGS[names])
            assert code == 0, names
            header = next((l for l in out.splitlines() if "# config = " in l), None)
            if header is None:
                cfg = parse_payload(out)["config"]
            else:
                cfg = json.loads(header.split("# config = ", 1)[1])
            dests = [a.dest.replace("_", "-") for a in leaf._actions if a.dest != "help"]
            expected = ["subcommand"] + (["mode"] if len(names) == 2 else []) + dests
            assert list(cfg) == expected, names

    def test_option_count(self):
        pairs = [(names, a.dest) for names, leaf in _leaf_parsers()
                 for a in leaf._actions if a.dest != "help"]
        assert len(pairs) == 47


class TestReadme:
    def test_cli_block_runs(self, capsys, tmp_path, monkeypatch, readme_cli):
        # Every command of the README's CLI example block, in order, exits 0.
        assert len(readme_cli) == 11
        monkeypatch.chdir(tmp_path)
        for argv in readme_cli:
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv, err)
