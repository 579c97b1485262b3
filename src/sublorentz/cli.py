"""Command-line front end.

Subcommands: exp, geodesic, classify, distance, longest-arc, extremal
(pontryagin/abnormal), hermitian-check, validate, plot-script.  Each parser
declares exactly the options its handler reads, and every run echoes the
parsed options (defaults included) in the output header; all numeric output
uses 17 significant digits; identical configuration and seed produce
byte-identical output.

Exit codes: 0 success, 2 parse/validation error, 3 indeterminate
classification, 4 suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .algebra import Mat2C, format_float, parse_complex
from .expmap import ComplexAlgVec, exp_closed, exp_series
from .subriemannian import SRGeodesicParams, distance_shoot, hermitian_endpoint_check
from .sublorentzian import (
    CLASS_INDETERMINATE,
    REGIME_ISOTROPIC,
    REGIME_TIMELIKE,
    ExtremalParams,
    IntegrationDivergedError,
    PathSample,
    UnreachableTargetError,
    abnormal_extremal,
    causal_classify,
    extremal_path,
    longest_arc,
    pontryagin_integrate,
)
from . import validation

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INDETERMINATE = 3
EXIT_SUITE_FAILURE = 4

_REGIMES = {"timelike": REGIME_TIMELIKE, "isotropic": REGIME_ISOTROPIC}


def render_json(obj, indent: int = 0) -> str:
    """Compact JSON with floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ", ".join(render_json(v, indent) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):  # inf and nan quoted, as the bracket's "inf"
        return format_float(obj) if math.isfinite(obj) else json.dumps(format_float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_matrix(source: str) -> Mat2C:
    if source == "-":
        text = sys.stdin.read()
    elif source.startswith("@"):
        text = Path(source[1:]).read_text()
    else:
        text = source
    data = json.loads(text)
    for key in ("result", "matrix"):
        if isinstance(data, dict) and "m" not in data and key in data:
            data = data[key]
    if not isinstance(data, dict) or "m" not in data:
        raise ValueError('matrix JSON must contain an "m" field')
    return Mat2C.from_json(data)


def _parse_floats(text: str, n: int | None = None) -> np.ndarray:
    vals = np.array([float(x) for x in text.split(",")])
    if n is not None and len(vals) != n:
        raise ValueError(f"expected {n} comma-separated values, got {len(vals)}")
    return vals


def _parse_kappa(text: str):
    times, values = [], []
    for pair in text.split(","):
        t, v = pair.split(":")
        times.append(float(t))
        values.append(float(v))
    return np.array(times), np.array(values)


def _config(args) -> dict:
    """The parsed options in declaration order, keyed by flag name: the echoed config."""
    opts = {k.replace("_", "-"): v for k, v in vars(args).items() if k not in ("command", "fn")}
    return {"subcommand": args.command, **opts}


def _json_payload(cfg: dict, result) -> str:
    return render_json({"config": cfg, "result": result}) + "\n"


def _path_csv(path: PathSample, cfg: dict, extra=None) -> str:
    return path.to_csv_text(
        extra_columns=extra, header_lines=["config = " + json.dumps(cfg, default=str)]
    )


# -- subcommand handlers -------------------------------------------------------


def cmd_exp(args, cfg: dict) -> int:
    coeffs = [parse_complex(tok) for tok in args.coeffs.split(",")]
    if len(coeffs) != 4:
        raise ValueError("exp expects 4 coefficients z0,z1,z2,z3")
    if not math.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t}")
    vec = ComplexAlgVec(np.array(coeffs, dtype=complex))
    closed = exp_closed(vec, args.t)
    with np.errstate(over="ignore", invalid="ignore"):  # Mat2C refuses an overflowing t A
        series = exp_series(Mat2C(args.t * vec.matrix().m))
    residual = float(np.max(np.abs(closed.m - series.m)))
    result = {"matrix": closed.to_json(), "series_residual": residual}
    _emit(_json_payload(cfg, result), args.out)
    return EXIT_OK


def cmd_geodesic(args, cfg: dict) -> int:
    if args.normalize and args.kind == "timelike":
        raise ValueError("--normalize does not apply to --kind timelike (a0 is derived)")
    if not math.isfinite(args.t_max):
        raise ValueError(f"--t-max must be finite, got {args.t_max}")
    av = _parse_floats(args.alpha, 3)
    bv = _parse_floats(args.beta, 3)
    ts = np.linspace(0.0, args.t_max, args.samples)

    if args.kind == "subriemannian":
        p = SRGeodesicParams.normalized(av, bv) if args.normalize else SRGeodesicParams(av, bv)
        pp = p.product_params()
        path = PathSample(ts, pp.point_rows(ts), pp.control_rows(ts))
        target_sq = 1.0
    else:
        regime = _REGIMES[args.kind]
        path = extremal_path(ExtremalParams.timelike(av, bv) if regime == REGIME_TIMELIKE
                             else ExtremalParams.isotropic(av, bv, normalize=args.normalize), ts)
        target_sq = 1.0 if regime == REGIME_TIMELIKE else 0.0

    det_re, det_im, arc_res = [], [], []
    for pt, u in zip(path.points, path.controls):
        d = pt.det()
        det_re.append(d.real)
        det_im.append(d.imag)
        if args.kind == "subriemannian":
            q = float(np.dot(u.u[1:7], u.u[1:7]))
        else:
            q = float(u.u[0] ** 2 - np.dot(u.u[1:7], u.u[1:7]))
        arc_res.append(abs(q - target_sq))
    extra = {"det_re": det_re, "det_im": det_im, "arc_residual": arc_res}
    _emit(_path_csv(path, cfg, extra=extra), args.out)
    return EXIT_OK


def cmd_classify(args, cfg: dict) -> int:
    g = _load_matrix(args.matrix)
    report = causal_classify(g, tol=args.tol, seed=args.seed, budget=args.budget)
    _emit(_json_payload(cfg, report.to_json()), args.out)
    return EXIT_INDETERMINATE if report.causal_class == CLASS_INDETERMINATE else EXIT_OK


def cmd_distance(args, cfg: dict) -> int:
    g1 = _load_matrix(args.matrix)
    bracket = distance_shoot(g1, tol=args.tol, seed=args.seed, budget=args.budget)
    _emit(_json_payload(cfg, bracket.to_json()), args.out)
    return EXIT_OK


def cmd_longest_arc(args, cfg: dict) -> int:
    g = _load_matrix(args.matrix)
    try:
        path = longest_arc(g, samples=args.samples, tol=args.tol, seed=args.seed)
    except UnreachableTargetError as exc:
        sys.stderr.write(_json_payload(cfg, exc.report.to_json()))
        return (
            EXIT_INDETERMINATE
            if exc.report.causal_class == CLASS_INDETERMINATE
            else EXIT_PARSE
        )
    _emit(_path_csv(path, cfg), args.out)
    return EXIT_OK


def cmd_pontryagin(args, cfg: dict) -> int:
    if args.psi0 is None or not args.step > 0:
        raise ValueError("pontryagin needs --psi0 and a positive --step")
    if not (math.isfinite(args.T) and args.T > 0):
        raise ValueError(f"--T must be finite and positive, got {args.T}")
    if not args.step <= args.T:
        raise ValueError(f"--step must not exceed --T, got {args.step} > {args.T}")
    psi0 = _parse_floats(args.psi0, 7)
    steps = round(args.T / args.step)
    path = pontryagin_integrate(psi0, _REGIMES[args.regime], args.T, steps,
                                record_every=max(1, steps // 1000))
    _emit(_path_csv(path, cfg), args.out)
    return EXIT_OK


def cmd_abnormal(args, cfg: dict) -> int:
    kt, kv = _parse_kappa(args.kappa)
    bv = _parse_floats(args.beta_dir, 3)
    path = abnormal_extremal(kt, kv, bv, _REGIMES[args.regime], args.steps)
    _emit(_path_csv(path, cfg), args.out)
    return EXIT_OK


def cmd_hermitian_check(args, cfg: dict) -> int:
    report = hermitian_endpoint_check(
        _parse_floats(args.alpha, 3), _parse_floats(args.beta, 3), tol=args.tol
    )
    _emit(_json_payload(cfg, report.to_json()), args.out)
    return EXIT_OK


def cmd_validate(args, cfg: dict) -> int:
    results = validation.run_all(only=args.only)
    payload = [{"number": r.number, "name": r.name, "passed": r.passed, "runtime_limit_s": r.runtime_limit,
                "details": r.details, "failures": r.failures} for r in results]
    for r in results:
        sys.stderr.write(
            f"[{'PASS' if r.passed else 'FAIL'}] criterion {r.number} {r.name} "
            f"({r.elapsed:.2f}s)\n"
        )
    all_passed = all(r.passed for r in results)
    _emit(_json_payload(cfg, {"criteria": payload, "all_passed": all_passed}), args.out)
    return EXIT_OK if all_passed else EXIT_SUITE_FAILURE


def cmd_plot_script(args, cfg: dict) -> int:
    columns = args.y.split(",")
    # Every value below lands inside a single-quoted gnuplot string.
    for name, value in [("--csv", args.csv), ("--x", args.x), ("--title", args.title)] + [
        ("--y", c) for c in columns
    ]:
        if any(ch == "'" or ch < " " for ch in value):
            raise ValueError(f"{name} must not contain a quote or control character: {value!r}")
    header = None
    with open(args.csv) as fh:
        for line in fh:
            if not line.startswith("#"):
                header = [c.strip() for c in line.strip().split(",")]
                break
    if header is None:
        raise ValueError("CSV file has no header row")
    xi = header.index(args.x) + 1
    lines = [
        f"# gnuplot script generated from {args.csv}",
        f"# config = {json.dumps(cfg, default=str)}",
        "set datafile separator ','",
        f"set xlabel '{args.x}'",
        f"set title '{args.title}'",
        "plot \\",
    ]
    plots = [
        f"  '{args.csv}' using {xi}:{header.index(c) + 1} with lines title '{c}'"
        for c in columns
    ]
    lines.append(", \\\n".join(plots))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def _add_tol_seed(sp):
    sp.add_argument("--tol", type=float, default=1e-7, help="numerical tolerance")
    sp.add_argument("--seed", type=int, default=0, help="deterministic seed")


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # full names only (--step never means --steps); inherited
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """One leaf parser per handler, declaring exactly the options it reads, in echo order."""
    ap = _Parser(
        prog="sublorentz",
        description="Sub-Lorentzian geometry on GL+(2,C): exponentials, extremals, "
        "causal classification, distances, validation suites.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    leaves = []

    def leaf(subs, name, fn, help):
        p = subs.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        leaves.append(p)
        return p

    p = leaf(sub, "exp", cmd_exp, "closed-form exponential with series cross-check")
    p.add_argument("--coeffs", required=True, help="z0,z1,z2,z3 (complex literals allowed)")
    p.add_argument("--t", type=float, default=1.0)

    p = leaf(sub, "geodesic", cmd_geodesic, "sample a geodesic or extremal to CSV")
    p.add_argument("--kind", choices=["subriemannian", "timelike", "isotropic"], required=True)
    p.add_argument("--alpha", required=True, help="a1,a2,a3")
    p.add_argument("--beta", default="0,0,0", help="a4,a5,a6")
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--normalize", action="store_true",
                   help="rescale alpha to the regime normalization instead of rejecting "
                   "(subriemannian and isotropic)")

    p = leaf(sub, "classify", cmd_classify, "causal classification of a group element")
    p.add_argument("--matrix", required=True, help='matrix JSON, @file, or "-" for stdin')
    _add_tol_seed(p)
    p.add_argument("--budget", type=int, default=240)

    p = leaf(sub, "distance", cmd_distance, "sub-Riemannian distance bracket on SL(2,C)")
    p.add_argument("--matrix", required=True)
    _add_tol_seed(p)
    p.add_argument("--budget", type=int, default=240)

    p = leaf(sub, "longest-arc", cmd_longest_arc, "sample the longest arc to a reachable target")
    p.add_argument("--matrix", required=True)
    p.add_argument("--samples", type=int, default=101)
    _add_tol_seed(p)

    p = sub.add_parser("extremal", help="integrate minimum-principle or abnormal extremals")
    modes = p.add_subparsers(dest="mode", required=True)
    p = leaf(modes, "pontryagin", cmd_pontryagin, "RK4 minimum-principle integration")
    p.add_argument("--psi0", help="psi0..psi6")
    p.add_argument("--regime", choices=["timelike", "isotropic"], required=True)
    p.add_argument("--T", type=float, default=1.0, help="final time")
    p.add_argument("--step", type=float, default=1e-3, help="integrator step size")
    p = leaf(modes, "abnormal", cmd_abnormal, "abnormal extremal for a given gauge")
    p.add_argument("--beta-dir", default="0,0,1", help="covector direction")
    p.add_argument("--regime", choices=["timelike", "isotropic"], required=True)
    p.add_argument("--kappa", default="0:0,1:0.5",
                   help="gauge samples t:v,t:v,... (linear interpolation)")
    p.add_argument("--steps", type=int, default=1000, help="integration steps")

    p = leaf(sub, "hermitian-check", cmd_hermitian_check,
             "Hermitian-endpoint condition classifier")
    p.add_argument("--alpha", required=True, help="a1,a2,a3")
    p.add_argument("--beta", required=True, help="b1,b2,b3")
    p.add_argument("--tol", type=float, default=1e-7, help="numerical tolerance")

    p = leaf(sub, "validate", cmd_validate, "run the acceptance criteria")
    p.add_argument("--only", default=None, help="filter criteria by name substring or number")

    p = leaf(sub, "plot-script", cmd_plot_script, "emit a gnuplot script for an emitted CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--x", default="t")
    p.add_argument("--y", required=True, help="comma-separated column names")
    p.add_argument("--title", default="sublorentz path")

    for p in leaves:  # declared last, so echoed last
        p.add_argument("--out", default=None, help="output path (default: stdout)")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args, _config(args))
    except (ValueError, KeyError, OSError, OverflowError, IntegrationDivergedError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
