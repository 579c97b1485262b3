"""Benchmark for the sublorentz library and CLI.

    python3 bench/run.py --workload classify-mix --seed 1 --seconds 45 --trace 0

A single caller runs a closed loop: each operation starts when the previous
one has returned.  Operations repeat a fixed cycle of kinds (see
workloads.py) and a run ends on the first cycle boundary after --seconds.
Every answer is checked.

--trace 0 reports the end-to-end metrics, measured without tracing; the
JSON line carries the ones BENCHMARK.json bounds.  Their timings are in
units of a host-speed reference kernel timed beside the operations
(workloads.host_ref); wall-clock figures are printed too.
--trace 1 reports the layer metrics: each cycle runs untraced and then
traced on the same operations (the ratio is the tracing overhead), followed
by fixed-input kernel, shooting and CLI-import timings.

The last line of standard output is one JSON object; the lines before it
give every metric by name and unit, plus the pinned environment.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; children inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("classify-mix", "extremals", "cli-cold")
SETUP_PROBES = 7  # fresh starts per run, spread evenly over the measured time
MIN_CYCLES = 2  # every run, traced or not, completes at least this many cycles
QUALITY_CYCLES = 2  # bracket-quality counts cover the first QUALITY_CYCLES cycles
REF_EVERY_S = 0.5  # operation time between two timings of the host-speed reference
REF_SIDE = 3  # each operation is divided by the mean of this many timings on either side of it
# The end-to-end metrics BENCHMARK.json bounds; the others are printed only (README.md).
BOUNDED = ("setup_s", "ops_per_kref", "latency_tail_ref", "peak_rss_mb")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Workload:
    """A loaded workload: its corpus and how to run and check one operation."""

    name: str
    sl: object
    corpus: list
    cycle: int
    cli: object = None
    references: dict = field(default_factory=dict)

    def run(self, i: int, subprocess_cli: bool = True):
        op = self.corpus[i % len(self.corpus)]
        if self.name == "classify-mix":
            return self.sl.sublorentzian.causal_classify(op.g)
        if self.name == "extremals":
            return wl.run_extremal(self.sl, op)
        if subprocess_cli:
            return wl.run_child(wl.cli_argv(op), _child_env())
        return wl.cli_in_process(self.cli, op)

    def check(self, i: int, out) -> list[str]:
        op = self.corpus[i % len(self.corpus)]
        if self.name == "classify-mix":
            return wl.check_classify(self.sl, op, out)
        if self.name == "extremals":
            return wl.check_extremal(self.sl, op, out)
        key = i % len(self.corpus)
        if key not in self.references:
            self.references[key] = wl.cli_in_process(self.cli, op)
        if isinstance(out, wl.ChildRun):
            return wl.check_cli(self.references[key], out)
        return [] if out == self.references[key] else ["in-process-output-differs"]


def setup(name: str, seed: int) -> Workload:
    """Import, corpus generation and one warm-up call: everything before the first operation."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    import sublorentz as sl

    if name == "classify-mix":
        corpus = wl.classify_corpus(sl, seed, 10 * len(wl.CLASSIFY_CYCLE))
        sl.sublorentzian.causal_classify(sl.Mat2C(np.diag([2.0, 0.5]).astype(complex)))
        return Workload(name, sl, corpus, len(wl.CLASSIFY_CYCLE))
    if name == "extremals":
        corpus = wl.extremal_corpus(sl, seed, 200 * len(wl.EXTREMAL_CYCLE))
        sl.pontryagin_integrate([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], sl.REGIME_TIMELIKE, 0.05, 50)
        return Workload(name, sl, corpus, len(wl.EXTREMAL_CYCLE))
    import sublorentz.cli as cli
    corpus = wl.cli_corpus(seed, 20 * len(wl.CLI_CYCLE))
    warm = wl.run_child(wl.cli_argv(["exp", "--coeffs", "1,0,0,0"]), _child_env())
    if warm.returncode != 0:
        raise RuntimeError("warm-up CLI call failed: " + warm.stderr.decode(errors="replace"))
    return Workload(name, sl, corpus, len(wl.CLI_CYCLE), cli=cli)


def setup_probe(name: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to its first operation being ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE, env=_child_env())
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("setup probe failed")
    return seconds


@dataclass
class Phase:
    latencies: list = field(default_factory=list)
    ref_timings: list = field(default_factory=list)  # every timing of the reference kernel, in order
    ref_after: list = field(default_factory=list)  # per operation: index of the first timing after it
    failures: list = field(default_factory=list)  # (op index, labels)
    outputs: list = field(default_factory=list)  # classify reports, for bracket quality
    setups: list = field(default_factory=list)  # setup probe seconds
    child_rss_kb: int = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy

    @property
    def ref_latencies(self) -> list[float]:
        """Each latency in units of the reference kernel's mean time around it."""
        t = self.ref_timings
        return [lat / statistics.fmean(t[max(0, j - REF_SIDE):j + REF_SIDE])
                for lat, j in zip(self.latencies, self.ref_after)]

    @property
    def ops_per_kref(self) -> float:
        return 1e3 * len(self.latencies) / sum(self.ref_latencies)


def run_op(w: Workload, i: int, ph: Phase, tracer=None, subprocess_cli: bool = True) -> None:
    """Time operation i, then check it outside the timed region."""
    if tracer is not None:
        tracer.op = i
    t0 = time.perf_counter()
    try:
        out = w.run(i, subprocess_cli)
        error = None
    except Exception as exc:  # a raised operation is a failed one; keep measuring
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    ph.latencies.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.op = None
    bad = [error] if error else w.check(i, out)
    if bad:
        ph.failures.append((i, bad))
    if w.name == "classify-mix" and i < QUALITY_CYCLES * w.cycle:
        ph.outputs.append(out)
    if w.name == "cli-cold" and out is not None and subprocess_cli:
        ph.child_rss_kb = max(ph.child_rss_kb, out.maxrss_kb)


def measure(w: Workload, seed: int, seconds: float) -> Phase:
    """Closed loop over the corpus from operation 0 for `seconds` of operation
    time, ending on a cycle boundary.  Setup probes run between operations at
    even steps of operation time, so their median covers the whole run.

    The host-speed reference runs before the first operation and then after
    every REF_EVERY_S of operation time."""
    ph = Phase()
    ph.ref_timings.append(wl.host_ref())

    def pair_refs() -> None:
        ph.ref_after += [len(ph.ref_timings)] * (len(ph.latencies) - len(ph.ref_after))
        ph.ref_timings.append(wl.host_ref())

    i = 0
    since_ref = 0.0
    while not (i % w.cycle == 0 and i >= MIN_CYCLES * w.cycle and ph.busy >= seconds):
        if len(ph.setups) < SETUP_PROBES and ph.busy >= len(ph.setups) * seconds / SETUP_PROBES:
            ph.setups.append(setup_probe(w.name, seed))
        run_op(w, i, ph)
        i += 1
        since_ref += ph.latencies[-1]
        if since_ref >= REF_EVERY_S:
            pair_refs()
            since_ref = 0.0
    if len(ph.ref_after) < len(ph.latencies):
        pair_refs()
    while len(ph.setups) < SETUP_PROBES:
        ph.setups.append(setup_probe(w.name, seed))
    return ph


def measure_pairs(w: Workload, seconds: float, tracer) -> tuple[Phase, Phase]:
    """Each cycle runs untraced and then, on the same operations, traced.

    Pairing adjacent runs of identical work keeps drift in the host's speed
    out of the tracing overhead.  CLI calls run in-process here: spans cannot
    follow a child process.
    """
    plain, traced = Phase(), Phase()
    start = time.perf_counter()
    c = 0
    while c < MIN_CYCLES or time.perf_counter() - start < seconds:
        ops = range(c * w.cycle, (c + 1) * w.cycle)
        for i in ops:
            run_op(w, i, plain, subprocess_cli=False)
        tracer.attach()
        try:
            for i in ops:
                run_op(w, i, traced, tracer, subprocess_cli=False)
        finally:
            tracer.detach()
        c += 1
    return plain, traced


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples beyond it."""
    s = sorted(latencies)
    k = max(1, len(s) - 10)
    return s[k - 1], 100.0 * k / len(s)


def quality(ph: Phase) -> dict[str, float]:
    reports = [r for r in ph.outputs if r is not None]
    if not reports:
        return {"bracket_width_p50": 0.0, "upper_inf_count": 0, "indeterminate_count": 0}
    return {
        "bracket_width_p50": statistics.median(r.eta.upper - r.eta.lower for r in reports),
        "upper_inf_count": sum(1 for r in reports if r.eta.upper == float("inf")),
        "indeterminate_count": sum(1 for r in reports if r.causal_class == "indeterminate"),
    }


def git_commit() -> str:
    """Commit of the checkout; 'unknown' outside a git clone or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "seed": seed,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def say(kind: str, name: str, value, unit: str, note: str = "") -> None:
    print(f"[{kind}] {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def end_to_end(w: Workload, seed: int, seconds: float) -> tuple[dict, Phase]:
    ph = measure(w, seed, seconds)
    tail_s, pct = tail(ph.latencies)
    tail_ref, _ = tail(ph.ref_latencies)
    rss_kb = ph.child_rss_kb if w.name == "cli-cold" else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(ph.setups), "s", f"median of {len(ph.setups)} fresh starts: "
                    + ", ".join(f"{s:.3f}" for s in ph.setups)),
        "ops_per_kref": (ph.ops_per_kref, "1/kref", f"{ph.attempted} operations, "
                         f"{ph.attempted // w.cycle} cycles, single closed-loop caller; "
                         "per 1000 reference-kernel times"),
        "latency_tail_ref": (tail_ref, "ref", f"p{pct:.1f}, n={ph.attempted}, 10 samples beyond; "
                             "in reference-kernel times"),
        "ops_per_s": (ph.ops_per_s, "1/s", "wall clock, follows the host's speed"),
        "latency_p50_ms": (statistics.median(ph.latencies) * 1e3, "ms", f"n={ph.attempted}"),
        "latency_tail_ms": (tail_s * 1e3, "ms", f"p{pct:.1f}, n={ph.attempted}, 10 samples beyond"),
        "host_ref_ms": (statistics.median(ph.ref_timings) * 1e3, "ms",
                        f"median of {len(ph.ref_timings)} timings of the reference kernel"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", "largest CLI child" if w.name == "cli-cold"
                        else "benchmark process"),
        "fail_frac": (len(ph.failures) / ph.attempted, "1",
                      f"{len(ph.failures)} of {ph.attempted} operations failed"),
    }
    if w.name == "classify-mix":
        for name, value in quality(ph).items():
            metrics[name] = (value, "count" if name.endswith("count") else "distance",
                             f"first {QUALITY_CYCLES * w.cycle} targets")
    for name, (value, unit, note) in metrics.items():
        say("end-to-end" if name in BOUNDED else "end-to-end, unbounded", name, value, unit, note)
    return {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in BOUNDED}, ph


def layer_metrics(w: Workload, seed: int, seconds: float) -> tuple[dict, list[Phase]]:
    from spans import Tracer
    import layers

    tracer = Tracer()
    tracer.install(w.sl)
    plain, traced = measure_pairs(w, seconds, tracer)
    n = traced.attempted
    names = tracer.by_name()

    def calls(name):
        return names.get(name, (0, 0))[0]

    def self_ms(name):
        return names.get(name, (0, 0))[1] / 1e6 / n

    layer_self = tracer.self_ns_by_layer()
    root_calls = calls("subriemannian.root")
    out: dict[str, tuple[float, str]] = {
        "trace.overhead_pct": ((plain.ops_per_s / traced.ops_per_s - 1.0) * 100.0, "%"),
        "algebra.Mat2C.constructions": (tracer.mat2c / n, "calls/op"),
        "expmap.su2_exp.calls": (calls("expmap.su2_exp") / n, "calls/op"),
        "expmap.su2_exp.self_ms": (self_ms("expmap.su2_exp"), "ms/op"),
        "subriemannian.distance_shoot.self_ms": (self_ms("subriemannian.distance_shoot"), "ms/op"),
        "subriemannian.root.calls": (root_calls / n, "calls/op"),
        "subriemannian.root.success_frac": (tracer.root_ok / root_calls if root_calls else 0.0, "1"),
        "subriemannian.polish.calls": (
            (calls("subriemannian.least_squares") + calls("subriemannian.minimize")) / n, "calls/op"),
        "subriemannian.sr_geodesic.calls": (calls("subriemannian.sr_geodesic") / n, "calls/op"),
        "sublorentzian.causal_classify.self_ms": (self_ms("sublorentzian.causal_classify"), "ms/op"),
    }
    for layer in ("algebra", "expmap", "subriemannian", "sublorentzian"):
        out[f"{layer}.self_ms"] = (layer_self.get(layer, 0) / 1e6 / n, "ms/op")
    for key, value in layers.kernel_timings(w.sl).items():
        out[key] = (value, key.rsplit("_per_", 1)[0].rsplit(".", 1)[1])
    for key, value in layers.shooting_by_class(w.sl).items():
        out[key] = (value, "ms")
    import sublorentz.cli as cli
    for key, value in layers.cli_split(cli, _child_env()).items():
        out[key] = (value, "ms")
    for key, value in quality(plain).items():
        out[key] = (value, "count" if key.endswith("count") else "distance")

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{w.name}-seed{seed}.csv"
    n_spans = tracer.write(span_file)
    print(f"# traced {n} operations, {n_spans} spans -> {span_file.relative_to(ROOT)}")
    print(f"# untraced {plain.ops_per_s:.6g} ops/s vs traced {traced.ops_per_s:.6g} ops/s"
          + (" (CLI calls made in-process)" if w.name == "cli-cold" else ""))
    if root_calls:
        print(f"# subriemannian.root.success_frac base: {tracer.root_ok} of {root_calls} solves")
    if w.name == "classify-mix":
        kinds = [w.corpus[i % len(w.corpus)].kind for i in range(n)]
        for name in ("subriemannian.root", "expmap.su2_exp"):
            by_op = tracer.counts_by_op(name)
            per_kind = {k: [by_op.get(i, 0) for i in range(n) if kinds[i] == k] for k in set(kinds)}
            print(f"# {name} calls per target: " + ", ".join(
                f"{k} {sum(v) / len(v):.1f}" for k, v in sorted(per_kind.items())))
    for name, (value, unit) in sorted(out.items()):
        say("layer", name, value, unit)
    return {k: {"value": v[0], "unit": v[1]} for k, v in out.items()}, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "sublorentz" / "__init__.py").is_file():
        sys.stderr.write(f"error: library sources not found under {SRC}\n")
        return 2

    w = setup(args.workload, args.seed)
    if args.setup_probe:
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    print("# environment " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"# workload {args.workload}, {args.seconds:g} s, trace {args.trace}")
    if args.trace:
        metrics, phases = layer_metrics(w, args.seed, args.seconds)
    else:
        metrics, ph = end_to_end(w, args.seed, args.seconds)
        phases = [ph]
    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.failures) for p in phases)
    for p in phases:
        for i, labels in p.failures[:20]:
            print(f"# FAILED op {i}: {', '.join(labels)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
