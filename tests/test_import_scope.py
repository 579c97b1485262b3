"""No command loads scipy, and the extremal paths do not load numpy.ma.

numpy is the one runtime dependency; the tests keep scipy only as an
independent oracle.  Each check runs in a new interpreter, because the test
process has long since imported scipy (and numpy.ma).
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
DISTANCE_SHA256 = "b0677b3c381aa79cf5117556ac5adc7070b8521ecaa4ff772e1984c3412a862c"


def _child(fresh_python, body: str, cwd=None):
    proc = fresh_python("-c", PRELUDE + body, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _boost(r: float) -> np.ndarray:
    return np.array([[math.cosh(r), math.sinh(r)], [math.sinh(r), math.cosh(r)]])


# `distance` on a boost-rotation target: its distance is bracketed by
# shooting, and the bracket stays loose, so the polish runs.
SHOOTING_DISTANCE = ["distance", "--matrix",
                     json.dumps(Mat2C(_boost(0.45) @ su2_exp([0.3, 1.1, -0.6]).m).to_json())]


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


def test_shooting_distance_loads_no_scipy(fresh_python, capsys):
    body = (f"code, out = run({SHOOTING_DISTANCE!r})\n"
            "print(json.dumps([scipy_modules(), code, out]))")
    loaded, code, out = _child(fresh_python, body)
    assert loaded == [] and code == 0
    # Byte for byte what the test process prints, with scipy long loaded.
    assert main(SHOOTING_DISTANCE) == 0
    assert capsys.readouterr().out == out
    assert hashlib.sha256(out.encode()).hexdigest() == DISTANCE_SHA256


def test_commands_run_with_scipy_blocked(fresh_python, tmp_path, readme_cli, capsys,
                                         monkeypatch):
    # sys.modules["scipy"] = None makes every scipy import fail.  The README's
    # CLI block, a shooting distance and criterion 7 (its roots by bisection)
    # must still exit 0 and print what the test process prints.
    commands = readme_cli + [SHOOTING_DISTANCE, ["validate", "--only", "7"]]
    body = ("sys.modules['scipy'] = None\n"
            f"print(json.dumps([run(argv) for argv in {commands!r}]))")
    blocked = _child(fresh_python, body, cwd=tmp_path)
    monkeypatch.chdir(tmp_path)
    for argv, (code, out) in zip(commands, blocked, strict=True):
        assert code == 0, argv
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == out, argv


# Both integrators (the normal flow recorded sparsely, so its step factors are
# multiplied piece by piece), the closed-form samplers and both `extremal` CLI
# modes, as the README runs them.
EXTREMAL_CALLS = """
import math
import numpy as np
import sublorentz as sl
sl.pontryagin_integrate([math.sqrt(2.0), -1, 0, 0, 0.5, 0.1, -0.7], sl.REGIME_TIMELIKE, 2.0, 2000,
                        record_every=100)
sl.abnormal_extremal([0.0, 0.5, 1.0], [0.2, -0.4, 0.9], (0.5, -1.0, 2.0), sl.REGIME_TIMELIKE, 1000)
sl.extremal_path(sl.ExtremalParams.timelike([0.4, -0.2, 0.6], [0.5, 0.1, -0.7]),
                 np.linspace(0.0, 2.0, 101))
c, s = math.cosh(0.4), math.sinh(0.4)
sl.longest_arc(sl.Mat2C(math.e * np.array([[c, s], [s, c]])))
codes = [run(argv)[0] for argv in (
    ["extremal", "pontryagin", "--psi0", "1.4142135623730951,-1,0,0,0,0,0",
     "--regime", "timelike", "--T", "5", "--step", "1e-3"],
    ["extremal", "abnormal", "--beta-dir", "0,0,1", "--regime", "timelike",
     "--kappa", "0:0,1.5:0.75,3:1.5", "--steps", "3000"])]
print(json.dumps([codes, "numpy.ma" in sys.modules]))
"""


def test_extremal_paths_load_no_numpy_ma(fresh_python):
    # Importing numpy.ma (np.unique does, for one) costs about 20 ms and 0.8 MB,
    # and none of these paths needs it.
    assert _child(fresh_python, EXTREMAL_CALLS) == [[0, 0], False]
