"""Acceptance suite: every library-level guarantee with its pinned tolerance.

Each criterion is declared once, by `@_criterion(number, name, runtime gate)`,
which times its body and appends it to `CRITERIA`; `run_all` executes the
suite in order.  The same callables back both `tests/test_acceptance.py` and
the CLI `validate` subcommand.  All randomness is drawn from fixed seeds so
repeated runs produce identical reports.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Mat2C,
    basis_matrix,
    clifford_check,
    structure_constants,
)
from .expmap import ComplexAlgVec, exp_closed, exp_series, su2_exp
from .subriemannian import (
    SRGeodesicParams,
    cut_bound,
    distance_shoot,
    hermitian_endpoint_check,
    sr_geodesic,
    _osn_margins,
)
from .sublorentzian import (
    CLASS_ISOTROPIC,
    CLASS_TIMELIKE,
    CLASS_UNREACHABLE,
    REGIME_ISOTROPIC,
    REGIME_TIMELIKE,
    ExtremalParams,
    abnormal_extremal,
    causal_classify,
    extremal_path,
    nonstrict_abnormal_check,
    normal_extremal,
    pontryagin_integrate,
    su2_conjugate,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime_limit: float
    elapsed: float
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def check(self, label: str, ok: bool, value=None):
        if value is not None:
            self.details[label] = value
        if not ok:
            self.passed = False
            self.failures.append(label)


CRITERIA: list = []  # every registered criterion, in definition order


def _criterion(number: int, name: str, limit: float):
    """Register `body(res)` as a zero-argument criterion returning its `CriterionResult`.

    The body is timed and the result fails past `limit` seconds; the wrapper
    records `criterion = (number, name, limit)` and is appended to `CRITERIA`.
    """

    def register(body):
        @functools.wraps(body)
        def run() -> CriterionResult:
            res = CriterionResult(number, name, True, limit, 0.0)
            t0 = time.perf_counter()
            body(res)
            res.elapsed = time.perf_counter() - t0
            if res.elapsed > limit:
                res.passed = False
                res.failures.append(f"runtime {res.elapsed:.1f}s exceeds {limit}s")
            return res

        run.criterion = (number, name, limit)
        CRITERIA.append(run)
        return run

    return register


# Bracket relations among the basis elements: ([e_i, e_j], k, sign) meaning
# [e_i, e_j] = sign * e_k, with every other component zero.
BRACKET_TABLE = (
    (4, 5, 6, +1), (1, 2, 6, -1), (4, 2, 3, +1), (1, 5, 3, +1),
    (5, 6, 4, +1), (2, 3, 4, -1), (5, 3, 1, +1), (2, 6, 1, +1),
    (6, 4, 5, +1), (3, 1, 5, -1), (6, 1, 2, +1), (3, 4, 2, +1),
    (2, 4, 3, -1), (3, 5, 1, -1), (1, 6, 2, -1),
)


@_criterion(1, "algebraic-ground-truth", 1.0)
def criterion_1(res: CriterionResult) -> None:
    """Structure constants, antisymmetry, Jacobi, Clifford anticommutation."""
    table = structure_constants()
    worst = 0.0
    for i, j, k, sign in BRACKET_TABLE:
        expected = np.zeros(7)
        expected[k] = sign
        worst = max(worst, float(np.max(np.abs(table.C[i, j] - expected))))
    res.check("bracket-relations-exact", worst == 0.0, worst)
    anti = table.max_antisymmetry_residual()
    res.check("antisymmetry-exact", anti == 0.0, anti)
    jac = table.max_jacobi_residual()
    res.check("jacobi<1e-14", jac < 1e-14, jac)
    central = float(np.max(np.abs(table.C[0]))) + float(np.max(np.abs(table.C[:, 0]))) + float(
        np.max(np.abs(table.C[:, :, 0]))
    )
    res.check("central-direction-zero", central == 0.0, central)
    cliff = clifford_check().max_residual
    res.check("clifford-residual-zero", cliff == 0.0, cliff)


@_criterion(2, "exp-oracle-equivalence", 5.0)
def criterion_2(res: CriterionResult) -> None:
    """Closed-form exponential against the series oracle on 1000 random inputs."""
    rng = np.random.default_rng(1202)
    worst = 0.0
    for _ in range(1000):
        z = rng.uniform(-2.1, 2.1, size=4) + 1j * rng.uniform(-2.1, 2.1, size=4)
        t = float(rng.uniform(-3.0, 3.0))
        a = ComplexAlgVec(z)
        # Keep |t|*||A|| inside the closed-form agreement domain: beyond it the
        # exponential's entries outgrow what an absolute 1e-12 can resolve.
        norm = float(np.max(np.sum(np.abs(t * a.matrix().m), axis=1)))
        if norm > 6.0:
            t *= 6.0 / norm
        closed = exp_closed(a, t)
        series = exp_series(Mat2C(t * a.matrix().m))
        worst = max(worst, float(np.max(np.abs(closed.m - series.m))))
    res.check("max-entrywise-deviation<1e-12", worst < 1e-12, worst)


@_criterion(3, "pontryagin-vs-closed-form", 60.0)
def criterion_3(res: CriterionResult) -> None:
    """Pontryagin integration against the closed form, 50 draws per regime."""
    rng = np.random.default_rng(1303)
    T, steps = 5.0, 5000  # step 1e-3
    worst_dev = 0.0
    worst_drift = 0.0
    for regime in (REGIME_TIMELIKE, REGIME_ISOTROPIC):
        for _ in range(50):
            av = rng.normal(size=3)
            av /= np.linalg.norm(av)
            if regime == REGIME_TIMELIKE:
                av *= rng.uniform(0.2, 1.0)
            bv = rng.normal(size=3)
            bv *= rng.uniform(0.0, 1.0) / np.linalg.norm(bv)
            if regime == REGIME_TIMELIKE:
                params = ExtremalParams.timelike(av, bv)
            else:
                params = ExtremalParams.isotropic(av, bv)
            psi0 = np.concatenate([[params.alpha[0]], -params.alpha[1:]])
            path = pontryagin_integrate(psi0, regime, T, steps, record_every=100)
            dev = path.points[-1].distance(normal_extremal(params, T))
            worst_dev = max(worst_dev, dev)
            m = [psi[0] ** 2 - float(np.dot(psi[1:4], psi[1:4])) for psi in path.covectors.array]
            worst_drift = max(worst_drift, *(abs(x - m[0]) for x in m))
    res.check("final-state-deviation<1e-8", worst_dev < 1e-8, worst_dev)
    res.check("conservation-drift<1e-9", worst_drift < 1e-9, worst_drift)


@_criterion(4, "metric-line-distance", 120.0)
def criterion_4(res: CriterionResult) -> None:
    """Shooting brackets on boost targets exp(T e1) reproduce the metric-line distance."""
    for T in (0.5, 1.0, 2.0):
        target = exp_closed(ComplexAlgVec.from_reals([0.0, 1.0, 0.0, 0.0]), T)
        br = distance_shoot(target, tol=1e-7, seed=3)
        res.check(f"T={T}-lower-exact", abs(br.lower - T) <= 1e-12, br.lower - T)
        res.check(f"T={T}-upper-close", br.upper - T < 1e-3, br.upper - T)
        res.check(f"T={T}-contains", br.lower - 1e-12 <= T <= br.upper + 1e-12)
        res.check(f"T={T}-converged", br.converged)


@_criterion(5, "causal-distance-law", 120.0)
def criterion_5(res: CriterionResult) -> None:
    """Distance law sqrt(xi^2 - eta^2) with the timelike/isotropic/unreachable trichotomy."""

    def target(xi, eta):
        boost = exp_closed(ComplexAlgVec.from_reals([0.0, 1.0, 0.0, 0.0]), eta)
        return Mat2C(math.exp(xi / 2.0) * boost.m)

    rep = causal_classify(target(2.0, 1.0))
    res.check("xi2-eta1-timelike", rep.causal_class == CLASS_TIMELIKE, rep.causal_class)
    if rep.distance is not None:
        res.check(
            "xi2-eta1-distance",
            math.sqrt(3.0) - 2e-3 <= rep.distance <= math.sqrt(3.0) + 2e-3,
            rep.distance,
        )
    else:
        res.check("xi2-eta1-distance", False)

    rep = causal_classify(target(1.0, 1.0))
    res.check("xi1-eta1-isotropic", rep.causal_class == CLASS_ISOTROPIC, rep.causal_class)
    res.check("xi1-eta1-distance-zero", rep.distance == 0.0, rep.distance)

    rep = causal_classify(target(0.0, 1.0))
    res.check("xi0-eta1-unreachable", rep.causal_class == CLASS_UNREACHABLE, rep.causal_class)
    res.check("xi0-eta1-marker", rep.to_json()["distance"] == "-inf", rep.to_json()["distance"])


@_criterion(6, "orthogonal-cut-coincidence", 1.0)
def criterion_6(res: CriterionResult) -> None:
    """Orthogonal-family cut: distinct alpha choices meet at 2*pi/sqrt(beta^2-1)."""
    beta = 2.0
    t_cut = cut_bound(beta)
    p1 = SRGeodesicParams(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, beta]))
    p2 = SRGeodesicParams(np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, beta]))
    g1 = sr_geodesic(p1, t_cut)
    g2 = sr_geodesic(p2, t_cut)
    dev = float(np.max(np.abs(g1.m - g2.m)))
    res.check("endpoints-coincide<1e-9", dev < 1e-9, dev)
    res.check("endpoint-unitary", g1.is_unitary(1e-9))
    theta = beta * math.pi / math.sqrt(beta * beta - 1.0)
    formula = -2.0 * math.cos(theta) * basis_matrix(0).m + beta * math.sin(theta) * basis_matrix(6).m
    res.check(
        "endpoint-formula", float(np.max(np.abs(g1.m - formula))) < 1e-9,
        float(np.max(np.abs(g1.m - formula))),
    )


def _orthonormal_pair(rng) -> tuple[np.ndarray, np.ndarray]:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q[:, 0], q[:, 1]


def _osn_boundary_margin(av, bv) -> float:
    """Distance of a draw to the nearest classifier decision quantity."""
    m = _osn_margins(av, bv)
    qs = [m["collinear"]]
    if math.isfinite(m["minors"]):
        qs.append(m["minors"])
    if math.isfinite(m["tangent"]) and abs(m["x"]) < 1e-5 and abs(m["y"]) < 1e-5:
        qs.append(m["tangent"])
    qs.append(max(abs(m["x"]), m["cos_half"], m["cos_y"]))
    return min(qs)


def _bisect(f, a: float, b: float) -> float:
    """Root of f in [a, b] (one sign change): bisect until the midpoint is an end."""
    fa, fb = f(a), f(b)
    while a < (m := 0.5 * (a + b)) < b:
        fm = f(m)
        if (fm > 0.0) == (fa > 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b


@_criterion(7, "hermitian-classifier", 30.0)
def criterion_7(res: CriterionResult) -> None:
    """Hermitian-endpoint classifier against the series-oracle defect, 1000 draws."""
    rng = np.random.default_rng(1707)
    draws = []
    for _ in range(500):  # generic draws, almost surely non-Hermitian
        draws.append((rng.normal(size=3) * rng.uniform(0.3, 2.0),
                      rng.normal(size=3) * rng.uniform(0.3, 2.0)))
    for _ in range(200):  # collinear
        av = rng.normal(size=3)
        lam = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        draws.append((av, lam * av))
    for _ in range(100):  # proportional triple, y = 0 branch
        x = rng.uniform(0.2, 1.5)
        lam = math.tanh(x) / x
        beta = 2.0 * _bisect(lambda u: math.tan(u) - lam * u, math.pi + 1e-6, 1.5 * math.pi - 1e-6)
        alpha = math.sqrt(beta * beta + 4.0 * x * x)
        u1, u2 = _orthonormal_pair(rng)
        draws.append((alpha * u1, beta * u2))
    for _ in range(50):  # proportional triple with x*y != 0 (skewed pair)
        x = rng.uniform(0.2, 1.2)
        lam = math.tanh(x) / x
        y = _bisect(lambda u: math.tan(u) - lam * u, math.pi + 1e-6, 1.5 * math.pi - 1e-6)
        beta = 2.0 * _bisect(lambda u: math.tan(u) - lam * u, 2 * math.pi + 1e-6,
                             2.5 * math.pi - 1e-6)
        alpha = math.sqrt(beta * beta + 4.0 * (x * x - y * y))
        a4 = 4.0 * x * y / alpha
        a5 = math.sqrt(beta * beta - a4 * a4)
        u1, u2 = _orthonormal_pair(rng)
        u3 = np.cross(u1, u2)
        draws.append((alpha * u1, a4 * u1 + a5 * u2 + 0.0 * u3))
    for _ in range(50):  # cos-vanishing: x = 0, cos(beta/2) = cos(y) = 0
        j = int(rng.integers(1, 4))
        beta = (2 * j + 1) * math.pi
        ks = [k for k in range(j) if beta**2 > (2 * k + 1) ** 2 * math.pi**2]
        k = int(rng.choice(ks))
        alpha = math.sqrt(beta**2 - (2 * k + 1) ** 2 * math.pi**2)
        u1, u2 = _orthonormal_pair(rng)
        draws.append((alpha * u1, beta * u2))
    sroot1 = _bisect(lambda u: math.tan(u) - u, math.pi + 1e-6, 1.5 * math.pi - 1e-6)
    for _ in range(100):  # tangent fixed point: |alpha| = beta, alpha . beta = 0
        u1, u2 = _orthonormal_pair(rng)
        beta = 2.0 * sroot1
        draws.append((beta * u1, beta * u2))

    false_pos = false_neg = excluded = 0
    for av, bv in draws:
        margin = _osn_boundary_margin(av, bv)
        if 1e-10 < margin < 1e-5:
            excluded += 1
            continue
        report = hermitian_endpoint_check(av, bv)
        if report.hermitian and report.residual >= 1e-8:
            false_pos += 1
        if not report.hermitian and report.residual <= 1e-6:
            false_neg += 1
    res.check("zero-false-positives", false_pos == 0, false_pos)
    res.check("zero-false-negatives", false_neg == 0, false_neg)
    res.details["excluded-boundary-draws"] = excluded

    beta_star = 2.0 * sroot1
    res.check("root-in-(pi,3pi)", math.pi < beta_star < 3.0 * math.pi, beta_star)
    report = hermitian_endpoint_check(np.array([beta_star, 0.0, 0.0]),
                                      np.array([0.0, 0.0, beta_star]))
    res.check("root-case-tagged", report.case == "tangent-fixed-point", report.case)
    res.check("root-case-defect<1e-9", report.residual < 1e-9, report.residual)


@_criterion(8, "abnormal-extremals", 10.0)
def criterion_8(res: CriterionResult) -> None:
    """Strictly abnormal closed forms and the nonstrict (subgroup) detector."""
    T, steps = 3.0, 600
    nodes = np.linspace(0.0, T, 2 * steps + 1)  # half-step nodes: interpolation exact

    path = abnormal_extremal(nodes, nodes / 2.0, (0.0, 0.0, 1.0), REGIME_TIMELIKE, steps)
    worst = 0.0
    for t, pt in zip(path.times, path.points):
        target = np.diag(
            [math.exp(1.0 - math.exp(-t / 2.0)), math.exp(math.exp(t / 2.0) - 1.0)]
        )
        worst = max(worst, float(np.max(np.abs(pt.m - target))))
    res.check("timelike-diagonal-match<1e-6", worst < 1e-6, worst)

    path_iso = abnormal_extremal(
        nodes, np.exp(nodes / 2.0) / 2.0, (0.0, 0.0, 1.0), REGIME_ISOTROPIC, steps
    )
    worst = 0.0
    for t, pt in zip(path_iso.times, path_iso.points):
        target = np.diag([1.0, math.exp(math.exp(t / 2.0) - 1.0)])
        worst = max(worst, float(np.max(np.abs(pt.m - target))))
    res.check("isotropic-diagonal-match<1e-6", worst < 1e-6, worst)

    ts = np.linspace(0.0, 3.0, 61)
    test_set = [
        ("subgroup-timelike", extremal_path(ExtremalParams.timelike([1, 0, 0], [0, 0, 0]), ts), True),
        ("subgroup-ray", extremal_path(ExtremalParams.timelike([0, 0, 0], [0, 0, 0]), ts), True),
        ("subgroup-isotropic", extremal_path(ExtremalParams.isotropic([1, 0, 0], [0, 0, 0]), ts), True),
        ("constant-kappa", abnormal_extremal([0.0, 3.0], [0.7, 0.7], (0, 0, 1), REGIME_TIMELIKE, 120), True),
        ("strict-timelike", path, False),
        ("strict-isotropic", path_iso, False),
        ("curved-extremal", extremal_path(ExtremalParams.timelike([1, 0, 0], [0, 0, 1.5]), ts), False),
    ]
    for label, sample, expected in test_set:
        verdict, cert = nonstrict_abnormal_check(sample)
        res.check(f"nonstrict-{label}", verdict == expected, verdict)
        if expected and verdict:
            res.check(f"certificate-{label}", cert is not None)

    _, cert = nonstrict_abnormal_check(
        extremal_path(ExtremalParams.timelike([1, 0, 0], [0, 0, 0]), ts)
    )
    want = np.array([0, 0, 0, 0, -1.0, 0, 0])
    res.check(
        "certificate-covector",
        cert is not None and float(np.max(np.abs(cert.covector - want))) < 1e-9,
    )


def _random_su2(rng) -> Mat2C:
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v) * rng.uniform(0.0, 2.0 * math.pi)
    return su2_exp(v)


@_criterion(9, "conjugation-isometry", 300.0)
def criterion_9(res: CriterionResult) -> None:
    """Conjugation by SU(2) preserves classified distances."""
    rng = np.random.default_rng(1909)
    worst = 0.0
    worst_width = 0.0
    for _ in range(20):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        eta = rng.uniform(0.3, 1.5)
        xi = eta + rng.uniform(0.1, 1.5)
        q = _random_su2(rng)
        boost = exp_closed(ComplexAlgVec.from_reals([0.0, *(eta * direction)]), 1.0)
        g = Mat2C(math.exp(xi / 2.0) * (q.m @ boost.m @ q.m.conj().T))
        s = _random_su2(rng)
        rep1 = causal_classify(g)
        rep2 = causal_classify(su2_conjugate(s, g))
        width = rep1.eta.width + rep2.eta.width
        worst_width = max(worst_width, width)
        if rep1.distance is None or rep2.distance is None:
            res.check("classifiable", False, (rep1.causal_class, rep2.causal_class))
            continue
        worst = max(worst, abs(rep1.distance - rep2.distance))
    res.check("combined-bracket-widths<5e-3", worst_width < 5e-3, worst_width)
    res.check("distance-agreement<5e-3", worst < 5e-3, worst)


@_criterion(10, "reverse-triangle", 300.0)
def criterion_10(res: CriterionResult) -> None:
    """Reverse triangle inequality on causal triples from longest arcs and perturbations."""
    rng = np.random.default_rng(2010)

    def boost_arc_point(q, direction, c, t, extra=None) -> Mat2C:
        s = math.sinh(c) * t
        boost = exp_closed(ComplexAlgVec.from_reals([0.0, *(s * direction)]), 1.0)
        m = Mat2C(math.exp(math.cosh(c) * t / 2.0) * (q.m @ boost.m @ q.m.conj().T))
        if extra is not None:
            m = Mat2C(m.m @ extra.m)
        return m

    def dist_with_width(x: Mat2C, y: Mat2C):
        rep = causal_classify(x.inverse() @ y, tol=1e-7, seed=7)
        if rep.distance is None:
            return None, None
        lo, up = rep.eta.lower, rep.eta.upper
        d_hi = math.sqrt(max(rep.xi**2 - lo * lo, 0.0))
        d_lo = math.sqrt(max(rep.xi**2 - min(up, rep.xi) ** 2, 0.0))
        return rep.distance, d_hi - d_lo

    worst_violation = -math.inf
    worst_equality = 0.0
    undecided = 0
    for k in range(50):
        q = _random_su2(rng)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        c = rng.uniform(0.4, 1.2)
        t1 = rng.uniform(0.2, 0.7)
        t2 = t1 + rng.uniform(0.5, 1.2)
        tm = 0.5 * (t1 + t2)
        x = boost_arc_point(q, direction, c, t1)
        z = boost_arc_point(q, direction, c, t2)
        collinear = k < 30
        if collinear:
            y = boost_arc_point(q, direction, c, tm)
        else:
            # Push the midpoint off the arc by a small transverse boost; the
            # perturbation stays inside the open timelike cone of both
            # neighbours, so all three pairs remain certifiably classifiable.
            h = rng.normal(size=3)
            h /= np.linalg.norm(h)
            pert = exp_closed(ComplexAlgVec.from_reals([0.0, *(1e-4 * h)]), 1.0)
            y = boost_arc_point(q, direction, c, tm, pert)
        d_xz, w_xz = dist_with_width(x, z)
        d_xy, w_xy = dist_with_width(x, y)
        d_yz, w_yz = dist_with_width(y, z)
        if None in (d_xz, d_xy, d_yz):
            undecided += 1
            continue
        slack = 0.5 * (w_xz + w_xy + w_yz) + 1e-9
        gap = d_xz - (d_xy + d_yz)
        worst_violation = max(worst_violation, -(gap + slack))
        if collinear:
            worst_equality = max(worst_equality, abs(gap) - slack)
    res.check("all-triples-decided", undecided == 0, undecided)
    res.check("reverse-inequality-holds", worst_violation <= 0.0, worst_violation)
    res.check("collinear-equality", worst_equality <= 0.0, worst_equality)


def run_all(only: str | None = None) -> list[CriterionResult]:
    """Run the acceptance criteria, optionally filtered by name substring or number."""
    return [
        fn() for fn in CRITERIA
        if only is None or only.lower() in fn.criterion[1] or only == str(fn.criterion[0])
    ]
