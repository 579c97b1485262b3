"""Seeded inputs, operations and output checks for the three workloads.

Inputs are built here with explicit 2x2 closed forms (numpy only), so the
library sees nothing but the finished matrices and covectors.  Each workload
repeats a fixed cycle of operation kinds; runs stop on a cycle boundary, so
every run measures the same mix in the same proportions.

Every operation returns a list of failed-check labels (empty when the output
is right); the caller times the operation and runs the check afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1j], [-1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# The tolerance `causal_classify` and the CLI use by default.
TOL = 1e-7


def _herm(v) -> np.ndarray:
    """v1 e1 + v2 e2 + v3 e3 with e_i = sigma_i / 2."""
    return 0.5 * (v[0] * SIGMA[1] + v[1] * SIGMA[2] + v[2] * SIGMA[3])


def _expm2(a: np.ndarray) -> np.ndarray:
    """exp of a traceless 2x2 matrix: a^2 = -det(a) I."""
    w = np.sqrt(complex(-(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])))
    sh = np.sinh(w) / w if abs(w) > 1e-12 else 1.0
    return np.cosh(w) * SIGMA[0] + sh * a


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _projection_bound(g1: np.ndarray) -> float:
    """ln lambda_max(g1 g1*) = arccosh(tr(g1 g1*) / 2) for unimodular g1."""
    q = g1 @ g1.conj().T
    return math.acosh(max(1.0, float((q[0, 0] + q[1, 1]).real) / 2.0))


def _csv(v) -> str:
    return ",".join(repr(float(x)) for x in v)


# -- host-speed reference ------------------------------------------------------

# Fixed 2x2 numpy work that shares no code with the library.  Timed beside the
# operations, it follows the host's speed modes, which move a 45 s run's mean
# by up to 1.4x on a shared 2-vCPU host; the library's own speed does not move it.
_REF_INPUTS = [_herm(v) for v in np.random.default_rng(0).normal(size=(8, 3))]
REF_REPEATS = 200  # 20-40 ms


def host_ref() -> float:
    """Seconds one pass of the reference kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(REF_REPEATS):
        for a in _REF_INPUTS:
            _expm2(a) @ _expm2(1j * a)
    return time.perf_counter() - t0


# -- classify-mix --------------------------------------------------------------

CLASSIFY_CYCLE = ("geodesic", "mixed", "boost", "geodesic", "rotation", "mixed")


@dataclass
class ClassifyTarget:
    kind: str
    g: object  # Mat2C, e^{xi/2} g1
    g1: np.ndarray
    xi: float
    built_T: float | None = None  # length of the geodesic that built g1
    boost_r: float | None = None  # exact distance of a boost target


def _draw_xi(rng, kind: str, g1: np.ndarray, T: float | None, r: float | None) -> float:
    """xi placed so that timelike, unreachable and undecided outcomes all occur."""
    if kind == "boost":
        return r * (rng.uniform(1.2, 2.0) if rng.integers(2) else rng.uniform(0.2, 0.8))
    if kind == "rotation":  # lower = 0, upper = inf: only the sign of xi is decidable
        return float(rng.choice((-1.0, 1.0))) * rng.uniform(0.2, 2.0)
    low = _projection_bound(g1)
    intent = int(rng.integers(3))
    if intent == 0:
        return low * rng.uniform(0.2, 0.9)
    if kind == "geodesic":
        return rng.uniform(low, T) if intent == 1 else T + rng.uniform(0.2, 1.0)
    return low + (rng.uniform(0.05, 1.0) if intent == 1 else rng.uniform(6.0, 8.0))


def classify_corpus(sl, seed: int, n: int) -> list[ClassifyTarget]:
    rng = np.random.default_rng([seed, 1])
    out = []
    for i in range(n):
        kind = CLASSIFY_CYCLE[i % len(CLASSIFY_CYCLE)]
        T = r = None
        if kind == "boost":
            r = rng.uniform(0.3, 2.0)
            g1 = _expm2(_herm(r * _unit(rng)))
        elif kind == "rotation":
            g1 = _expm2(1j * _herm(rng.uniform(0.5, 3.0) * _unit(rng)))
        elif kind == "mixed":
            boost = _expm2(_herm(rng.uniform(0.3, 2.0) * _unit(rng)))
            g1 = boost @ _expm2(1j * _herm(rng.uniform(0.5, 3.0) * _unit(rng)))
        else:  # gamma(T) = exp(T(a+b)) exp(-Tb), |a| = 1
            a, b = _unit(rng), rng.uniform(0.2, 1.5) * _unit(rng)
            T = rng.uniform(0.5, 2.0)
            g1 = _expm2(T * (_herm(a) + 1j * _herm(b))) @ _expm2(-T * 1j * _herm(b))
        xi = _draw_xi(rng, kind, g1, T, r)
        out.append(ClassifyTarget(kind, sl.Mat2C(math.exp(xi / 2.0) * g1), g1, xi, T, r))
    return out


def check_classify(sl, t: ClassifyTarget, rep) -> list[str]:
    """The bracket and the causal class are re-derived from the report's own numbers."""
    bad = []
    br = rep.eta
    lo, up = br.lower, br.upper
    if not lo <= up:
        bad.append("lower>upper")
    if t.built_T is not None and lo > t.built_T + 1e-9:
        bad.append("lower>built-T")
    if t.boost_r is not None:
        if up - lo > 1e-12 or abs(lo - t.boost_r) > 1e-9 or not rep.eta_exact:
            bad.append("boost-not-exact")
    w = br.witness
    if math.isfinite(up) and w is None:
        bad.append("finite-upper-without-witness")
    if w is not None:
        if abs(float(np.linalg.norm(w.params.alpha_vec)) - 1.0) > 1e-9:
            bad.append("witness-alpha-not-unit")
        if not w.T <= up + TOL:
            bad.append("witness-longer-than-upper")
        res = float(np.max(np.abs(sl.sr_geodesic(w.params, w.T).m - t.g1)))
        if not res < TOL:
            bad.append("witness-residual")
    if abs(rep.xi - t.xi) > 1e-12 * max(1.0, abs(t.xi)):
        bad.append("xi")
    xi = rep.xi
    if rep.eta_exact:
        eta = 0.5 * (lo + up)
        if up - lo > 1e-10:
            bad.append("exact-flag-on-wide-bracket")
        if abs(xi - eta) <= 1e-9 * max(1.0, abs(xi), eta):
            expected = "isotropic"
        else:
            expected = "timelike" if xi > eta else "unreachable"
        if expected == "timelike" and (
            rep.distance is None or abs(rep.distance - math.sqrt(xi * xi - eta * eta)) > 1e-12 * xi
        ):
            bad.append("distance-law")
    elif xi < lo - TOL:
        expected = "unreachable"
    elif math.isfinite(up) and xi > up + TOL:
        expected = "timelike"
    else:
        expected = "indeterminate"
    if rep.causal_class != expected:
        bad.append(f"class-{rep.causal_class}-expected-{expected}")
    return bad


# -- extremals -----------------------------------------------------------------

EXTREMAL_CYCLE = ("draw", "abnormal", "arc", "draw", "abnormal", "arc")
DRAW_T, DRAW_STEPS, DRAW_SAMPLES = 2.0, 2000, 101  # step 1e-3, as in criterion 3
# The CLI defaults: `extremal abnormal` runs 1000 steps over gauge nodes on
# [0, 1], and `longest-arc` takes 101 samples.
ABNORMAL_T, ABNORMAL_STEPS = 1.0, 1000
ARC_SAMPLES = 101


@dataclass
class ExtremalOp:
    kind: str
    regime: str = ""
    alpha_vec: np.ndarray | None = None
    beta_vec: np.ndarray | None = None
    kappa_t: np.ndarray | None = None
    kappa_v: np.ndarray | None = None
    g: object = None  # Mat2C target of a longest arc
    xi: float = 0.0
    r: float = 0.0


def extremal_corpus(sl, seed: int, n: int) -> list[ExtremalOp]:
    rng = np.random.default_rng([seed, 2])
    regimes = (sl.REGIME_TIMELIKE, sl.REGIME_ISOTROPIC)
    out = []
    for i in range(n):
        kind = EXTREMAL_CYCLE[i % len(EXTREMAL_CYCLE)]
        regime = regimes[int(rng.integers(2))]
        if kind == "draw":  # the draw of criterion 3
            av = _unit(rng)
            if regime == sl.REGIME_TIMELIKE:
                av *= rng.uniform(0.2, 1.0)
            bv = rng.uniform(0.0, 1.0) * _unit(rng)
            out.append(ExtremalOp(kind, regime, av, bv))
        elif kind == "abnormal":
            kt = np.array([0.0, ABNORMAL_T / 2.0, ABNORMAL_T])  # every node on the step grid
            if regime == sl.REGIME_TIMELIKE:
                kv = rng.uniform(-1.0, 1.0, size=3)
            else:
                kv = float(rng.choice((-1.0, 1.0))) * rng.uniform(0.3, 1.5, size=3)
            out.append(ExtremalOp(kind, regime, None, rng.uniform(0.5, 2.0) * _unit(rng), kt, kv))
        else:  # exact class: positive definite times a scalar, timelike
            r = rng.uniform(0.3, 1.5)
            xi = r * rng.uniform(1.2, 2.0)
            g = sl.Mat2C(math.exp(xi / 2.0) * _expm2(_herm(r * _unit(rng))))
            out.append(ExtremalOp(kind, g=g, xi=xi, r=r))
    return out


def _abnormal_endpoint(op: ExtremalOp, timelike: bool) -> np.ndarray:
    """The controls all commute, so g(T) = exp of the integrated control."""
    a_int = b_int = 0.0
    for t0, t1, k0, k1 in zip(op.kappa_t[:-1], op.kappa_t[1:], op.kappa_v[:-1], op.kappa_v[1:]):
        dt = t1 - t0
        if timelike:  # u0 = cosh k, |u| = sinh k, k linear on the segment
            if k1 == k0:
                a_int += dt * math.cosh(k0)
                b_int += dt * math.sinh(k0)
            else:
                a_int += dt * (math.sinh(k1) - math.sinh(k0)) / (k1 - k0)
                b_int += dt * (math.cosh(k1) - math.cosh(k0)) / (k1 - k0)
        else:  # u0 = |k|, |u| = k, k of one sign
            a_int += dt * (abs(k0) + abs(k1)) / 2.0
            b_int += dt * (k0 + k1) / 2.0
    bh = op.beta_vec / np.linalg.norm(op.beta_vec)
    n = bh[0] * SIGMA[1] + bh[1] * SIGMA[2] + bh[2] * SIGMA[3]
    return math.exp(a_int / 2.0) * (math.cosh(b_int / 2.0) * SIGMA[0] - math.sinh(b_int / 2.0) * n)


def run_extremal(sl, op: ExtremalOp):
    """The timed part of one extremals operation."""
    SL = sl.sublorentzian
    if op.kind == "draw":
        if op.regime == sl.REGIME_TIMELIKE:
            params = SL.ExtremalParams.timelike(op.alpha_vec, op.beta_vec)
        else:
            params = SL.ExtremalParams.isotropic(op.alpha_vec, op.beta_vec)
        psi0 = np.concatenate([[params.alpha[0]], -params.alpha[1:]])
        path = SL.pontryagin_integrate(psi0, op.regime, DRAW_T, DRAW_STEPS, record_every=100)
        sample = SL.extremal_path(params, np.linspace(0.0, DRAW_T, DRAW_SAMPLES))
        return params, path, sample
    if op.kind == "abnormal":
        return SL.abnormal_extremal(op.kappa_t, op.kappa_v, op.beta_vec, op.regime, ABNORMAL_STEPS)
    return SL.longest_arc(op.g, samples=ARC_SAMPLES)


def check_extremal(sl, op: ExtremalOp, out) -> list[str]:
    SL = sl.sublorentzian
    bad = []
    if op.kind == "draw":  # tolerances of criterion 3
        params, path, sample = out
        closed = SL.normal_extremal(params, DRAW_T)
        if not path.points[-1].distance(closed) < 1e-8:
            bad.append("rk4-endpoint")
        m = [c.psi[0] ** 2 - float(np.dot(c.psi[1:4], c.psi[1:4])) for c in path.covectors]
        if not max(abs(x - m[0]) for x in m) < 1e-9:
            bad.append("covector-drift")
        if not sample.points[-1].distance(closed) < 1e-12:
            bad.append("sample-endpoint")
        norm = 1.0 if op.regime == sl.REGIME_TIMELIKE else 0.0
        q = [u.u[0] ** 2 - float(np.dot(u.u[1:4], u.u[1:4])) for u in sample.controls]
        if not max(abs(x - norm) for x in q) < 1e-12:
            bad.append("control-normalization")
    elif op.kind == "abnormal":
        expected = _abnormal_endpoint(op, op.regime == sl.REGIME_TIMELIKE)
        if not float(np.max(np.abs(out.points[-1].m - expected))) < 1e-8:
            bad.append("abnormal-endpoint")
    else:
        if not out.points[-1].distance(op.g) < 1e-8:
            bad.append("arc-endpoint")
        if not abs(out.times[-1] - math.sqrt(op.xi ** 2 - op.r ** 2)) < 1e-9:
            bad.append("arc-length")
        q = [u.u[0] ** 2 - float(np.dot(u.u[1:4], u.u[1:4])) for u in out.controls]
        if not max(abs(x - 1.0) for x in q) < 1e-9:
            bad.append("arc-arclength")
    return bad


# -- cli-cold ------------------------------------------------------------------

CLI_CYCLE = ("exp", "geodesic", "hermitian-check", "classify", "distance", "extremal")


def _matrix_json(m: np.ndarray) -> str:
    return json.dumps({"m": [[[float(m[r, c].real), float(m[r, c].imag)] for c in range(2)]
                             for r in range(2)]})


def cli_corpus(seed: int, n: int) -> list[list[str]]:
    """Argument vectors for the CLI; classify and distance get exact-class targets."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for i in range(n):
        kind = CLI_CYCLE[i % len(CLI_CYCLE)]
        if kind == "exp":
            argv = ["exp", f"--coeffs={_csv(rng.uniform(-1.5, 1.5, size=4))}",
                    f"--t={rng.uniform(0.5, 2.0)!r}"]
        elif kind == "geodesic":
            argv = ["geodesic", "--kind=subriemannian", f"--alpha={_csv(_unit(rng))}",
                    f"--beta={_csv(rng.uniform(0.0, 2.0) * _unit(rng))}",
                    f"--t-max={rng.uniform(0.5, 3.0)!r}", "--samples=21", "--normalize"]
        elif kind == "hermitian-check":
            argv = ["hermitian-check", f"--alpha={_csv(_unit(rng))}",
                    f"--beta={_csv(rng.uniform(0.2, 2.0) * _unit(rng))}"]
        elif kind == "classify":  # xi well away from eta = r, so the answer is decided
            r = rng.uniform(0.3, 1.5)
            xi = r * (rng.uniform(1.2, 2.0) if rng.integers(2) else rng.uniform(0.2, 0.8))
            g = math.exp(xi / 2.0) * _expm2(_herm(r * _unit(rng)))
            argv = ["classify", f"--matrix={_matrix_json(g)}"]
        elif kind == "distance":
            g1 = _expm2(_herm(rng.uniform(0.3, 1.5) * _unit(rng)))
            argv = ["distance", f"--matrix={_matrix_json(g1)}"]
        else:
            av = rng.uniform(0.2, 1.0) * _unit(rng)
            psi0 = np.concatenate([[math.sqrt(1.0 + float(av @ av))], -av,
                                   -rng.uniform(0.0, 1.0) * _unit(rng)])
            argv = ["extremal", "pontryagin", f"--psi0={_csv(psi0)}", "--regime=timelike",
                    "--T=0.2", "--step=1e-3"]
        out.append(argv)
    return out


@dataclass
class ChildRun:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_child(argv: list[str], env: dict) -> ChildRun:
    """Run a fresh interpreter, read its output, and reap it with its own rusage."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildRun(proc.returncode, out, err, usage.ru_maxrss)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "sublorentz.cli", *args]


def cli_in_process(cli, args: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, buf.getvalue().encode()


def check_cli(reference: tuple[int, bytes], child: ChildRun) -> list[str]:
    bad = []
    if child.returncode != 0:
        bad.append(f"exit-{child.returncode}")
    if reference[0] != 0:
        bad.append(f"in-process-exit-{reference[0]}")
    if child.stdout != reference[1]:
        bad.append("stdout-differs")
    return bad
