"""The benchmark's extremal checks, run on the library as it stands.

`bench/workloads.py` reads paths through `points[-1].distance`, `c.psi` and
`u.u`; running its checks here makes a break of that API fail the test suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import sublorentz as sl

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_extremal_checks_pass(workloads):
    corpus = workloads.extremal_corpus(sl, 5, 12)
    assert {op.kind for op in corpus} == {"draw", "abnormal", "arc"}
    failures = [(op.kind, workloads.check_extremal(sl, op, workloads.run_extremal(sl, op)))
                for op in corpus]
    assert [f for f in failures if f[1]] == []
