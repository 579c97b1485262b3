"""Layer timings at fixed inputs: 2x2 kernels, integrator steps, per-class
shooting, and the CLI's interpreter/import/hot-call split.

These inputs do not depend on the run's seed, so two commits are compared on
identical work.  They are layer metrics, not end-to-end metrics.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads as wl

FIXED_SEED = 20231009  # inputs of the fixed-input probes; never the run's --seed


def _per_unit_us(fn, units: int, repeats: int = 5) -> float:
    """Median over repeats of the wall time of fn() divided by `units`, in microseconds."""
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / units * 1e6)
    return statistics.median(samples)


def _loop(fn, n: int):
    def run():
        for _ in range(n):
            fn()
    return run


def kernel_timings(sl) -> dict[str, float]:
    """Per-call/step/sample microseconds of the library's hot kernels."""
    SL = sl.sublorentzian
    rng = np.random.default_rng(FIXED_SEED)
    m = wl._expm2(wl._herm(0.7 * wl._unit(rng))) @ wl._expm2(1j * wl._herm(1.3 * wl._unit(rng)))
    c = 1.1 * wl._unit(rng)
    vec = sl.ComplexAlgVec(rng.normal(size=4) + 1j * rng.normal(size=4))
    pep = sl.ProductExpParams(rng.normal(size=7))
    g = sl.Mat2C(1.4 * m)
    av, bv = 0.6 * wl._unit(rng), 0.8 * wl._unit(rng)
    params = SL.ExtremalParams.timelike(av, bv)
    psi0 = np.concatenate([[params.alpha[0]], -params.alpha[1:]])
    arc_target = sl.Mat2C(math.exp(0.9) * wl._expm2(wl._herm(0.8 * wl._unit(rng))))
    kt, kv = np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.9, -0.4])
    return {
        "algebra.Mat2C.us_per_call": _per_unit_us(_loop(lambda: sl.Mat2C(m), 2000), 2000),
        "expmap.su2_exp.us_per_call": _per_unit_us(_loop(lambda: sl.su2_exp(c), 1000), 1000),
        "expmap.exp_closed.us_per_call": _per_unit_us(_loop(lambda: sl.exp_closed(vec, 0.7), 1000), 1000),
        "expmap.ProductExpParams.point.us_per_call": _per_unit_us(_loop(lambda: pep.point(0.9), 500), 500),
        "expmap.polar_decompose.us_per_call": _per_unit_us(_loop(lambda: sl.polar_decompose(g), 300), 300),
        "sublorentzian.pontryagin_integrate.us_per_step": _per_unit_us(
            lambda: SL.pontryagin_integrate(psi0, sl.REGIME_TIMELIKE, 0.3, 300, record_every=100), 300),
        "sublorentzian.extremal_path.us_per_sample": _per_unit_us(
            lambda: SL.extremal_path(params, np.linspace(0.0, 2.0, 201)), 201),
        "sublorentzian.longest_arc.us_per_sample": _per_unit_us(
            lambda: SL.longest_arc(arc_target, samples=201), 201),
        "sublorentzian.abnormal_extremal.us_per_step": _per_unit_us(
            lambda: SL.abnormal_extremal(kt, kv, [0.0, 0.6, 0.8], sl.REGIME_TIMELIKE, 300), 300),
    }


def shooting_by_class(sl) -> dict[str, float]:
    """Mean `distance_shoot` wall time per target class, on fixed targets."""
    corpus = wl.classify_corpus(sl, FIXED_SEED, len(wl.CLASSIFY_CYCLE))
    first = {}
    for t in corpus:
        first.setdefault(t.kind, t)
    repeats = {"boost": 20}  # the exact fast path takes about a millisecond
    out = {}
    for kind in ("boost", "geodesic", "mixed", "rotation"):
        g1 = sl.Mat2C(first[kind].g1)
        n = repeats.get(kind, 1)
        t0 = time.perf_counter()
        for _ in range(n):
            sl.distance_shoot(g1)
        out[f"subriemannian.distance_shoot.{kind}.mean_ms"] = (time.perf_counter() - t0) / n * 1e3
    return out


def _importtime(env: dict) -> dict[str, float]:
    """Parse `-X importtime` for `import sublorentz.cli` into milliseconds."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sublorentz.cli"],
                          capture_output=True, text=True, env=env, check=True)
    self_us: dict[str, int] = {}
    top_cumulative = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own_field, cum_field, raw = line.split("|")
        own = int(own_field.split(":")[1])
        cumulative = int(cum_field)
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        self_us[name] = self_us.get(name, 0) + own
        if depth == 0 and name in ("sublorentz", "sublorentz.cli"):
            top_cumulative += cumulative

    def package_ms(pkg: str) -> float:
        return sum(v for k, v in self_us.items() if k == pkg or k.startswith(pkg + ".")) / 1e3

    return {"cli.import_ms": top_cumulative / 1e3,
            "cli.import_scipy_ms": package_ms("scipy"),
            "cli.import_numpy_ms": package_ms("numpy")}


def cli_split(cli, env: dict, repeats: int = 3) -> dict[str, float]:
    """Interpreter start, import split and the in-process call, medians of `repeats`."""
    bare = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append((time.perf_counter() - t0) * 1e3)
    imports = [_importtime(env) for _ in range(repeats)]
    out = {"cli.interpreter_ms": statistics.median(bare)}
    for key in imports[0]:
        out[key] = statistics.median(d[key] for d in imports)
    mix = wl.cli_corpus(FIXED_SEED, len(wl.CLI_CYCLE))

    def hot():
        for argv in mix:
            wl.cli_in_process(cli, argv)

    out["cli.main_hot_ms"] = _per_unit_us(hot, len(mix), repeats) / 1e3
    return out
