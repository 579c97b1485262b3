"""Shared fixtures."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sublorentz
from sublorentz import Mat2C

SRC = Path(sublorentz.__file__).resolve().parents[1]


@pytest.fixture
def fresh_python():
    """Run `python <args>` in a new interpreter that imports this checkout's package,
    with `env` added to its environment."""
    base = dict(os.environ)
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), base.get("PYTHONPATH")]))

    def run(*args, cwd=None, env=None):
        return subprocess.run([sys.executable, *args], cwd=cwd, env={**base, **(env or {})},
                              capture_output=True, text=True, timeout=300)

    return run


@pytest.fixture
def readme_cli(tmp_path):
    """The README's CLI example block as argument lists (without `sublorentz`),
    with the boost targets its `distance` and `longest-arc` read written to tmp_path."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    boost = np.array([[math.cosh(0.4), math.sinh(0.4)], [math.sinh(0.4), math.cosh(0.4)]])
    (tmp_path / "g1.json").write_text(json.dumps(Mat2C(boost).to_json()))
    (tmp_path / "g.json").write_text(json.dumps(Mat2C(math.e * boost).to_json()))
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("sublorentz ")]
