"""The acceptance-criterion registry: one declaration per criterion, read without running it."""

from sublorentz import validation

TABLE = [
    (1, "algebraic-ground-truth", 1.0),
    (2, "exp-oracle-equivalence", 5.0),
    (3, "pontryagin-vs-closed-form", 60.0),
    (4, "metric-line-distance", 120.0),
    (5, "causal-distance-law", 120.0),
    (6, "orthogonal-cut-coincidence", 1.0),
    (7, "hermitian-classifier", 30.0),
    (8, "abnormal-extremals", 10.0),
    (9, "conjugation-isometry", 300.0),
    (10, "reverse-triangle", 300.0),
]


def test_criterion_table():
    assert [fn.criterion for fn in validation.CRITERIA] == TABLE
    assert [fn.__name__ for fn in validation.CRITERIA] == [f"criterion_{n}" for n, _, _ in TABLE]


def test_run_all_filters_before_running(monkeypatch):
    ran = []

    def fake(number, name):
        def run():
            ran.append(number)
            return number

        run.criterion = (number, name, 1.0)
        return run

    monkeypatch.setattr(validation, "CRITERIA", [fake(1, "algebraic"), fake(10, "reverse")])
    assert validation.run_all("10") == [10]
    assert validation.run_all("ALGEB") == [1]
    assert validation.run_all("none") == []
    assert ran == [10, 1]


def test_gate_fails_a_slow_body(monkeypatch):
    monkeypatch.setattr(validation, "CRITERIA", [])

    @validation._criterion(11, "instant", 0.0)
    def criterion_11(res):
        res.check("body-ran", True, 1)

    result = criterion_11()
    assert validation.CRITERIA == [criterion_11] and criterion_11.__name__ == "criterion_11"
    assert (result.number, result.name, result.runtime_limit) == (11, "instant", 0.0)
    assert result.details == {"body-ran": 1} and result.elapsed > 0.0
    assert not result.passed
    assert result.failures == [f"runtime {result.elapsed:.1f}s exceeds 0.0s"]
