"""Which commands load scipy: only those that run a solver.

scipy.optimize takes longer to import than the rest of the package, and only
the least-squares polish of the sub-Riemannian distance (and the root finding of
acceptance criterion 7) needs it.  Each check runs in a new interpreter, because the test
process has long since imported scipy.
"""

import hashlib
import json
import math

import numpy as np

from sublorentz import Mat2C, su2_exp
from sublorentz.cli import main

# Run by the child interpreters: a CLI call with its output captured, and the
# scipy modules loaded so far.
PRELUDE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(argv):
    from sublorentz.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()
"""

# sha256 of the non-boost `distance` output below.  Its lower end is the
# projection bound |X| = 2 * 0.45 = 0.9 of the polar factor, printed as
# 0.8999999999999998.
DISTANCE_SHA256 = "b98ff339b1230757b8b21a3fefcd0eab5e52178b6599688b2576806f106eab4b"


def _child(fresh_python, body: str, cwd=None):
    proc = fresh_python("-c", PRELUDE + body, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _boost(r: float) -> np.ndarray:
    return np.array([[math.cosh(r), math.sinh(r)], [math.sinh(r), math.cosh(r)]])


def test_package_import_loads_no_scipy(fresh_python):
    body = "import sublorentz, sublorentz.cli\nprint(json.dumps(scipy_modules()))"
    assert _child(fresh_python, body) == []


def test_non_shooting_commands_load_no_scipy(fresh_python, tmp_path, readme_cli):
    # The README's CLI block (its distance, classify and longest-arc targets
    # are exact-class), plus classify on a boost.
    commands = readme_cli + [["classify", "--matrix", "@g.json"]]
    assert {argv[0] for argv in commands} >= {
        "exp", "geodesic", "classify", "distance", "longest-arc", "extremal", "plot-script"}
    body = (f"results = []\nfor argv in {commands!r}:\n"
            "    code, _ = run(argv)\n"
            "    results.append([argv, code, scipy_modules()])\n"
            "print(json.dumps(results))")
    for argv, code, loaded in _child(fresh_python, body, cwd=tmp_path):
        assert code == 0, argv
        assert loaded == [], argv


def test_shooting_distance_loads_scipy_on_demand(fresh_python, capsys):
    # A boost-rotation target: its distance is bracketed by shooting, and the
    # bracket stays loose, so the polish runs.
    g = Mat2C(_boost(0.45) @ su2_exp([0.3, 1.1, -0.6]).m)
    argv = ["distance", "--matrix", json.dumps(g.to_json())]
    body = (f"import sublorentz.cli\nbefore = scipy_modules()\ncode, out = run({argv!r})\n"
            "print(json.dumps([before, 'scipy.optimize' in sys.modules, code, out]))")
    before, loaded, code, out = _child(fresh_python, body)
    assert before == [] and loaded and code == 0
    # Byte for byte what the test process prints, with scipy long loaded.
    assert main(argv) == 0
    assert capsys.readouterr().out == out
    assert hashlib.sha256(out.encode()).hexdigest() == DISTANCE_SHA256
