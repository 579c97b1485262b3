"""The package's public names: `__all__`, star import, README and benchmark."""

import importlib
import re
from pathlib import Path

import sublorentz

README = Path(__file__).resolve().parents[1] / "README.md"

# Functions whose per-layer counters the benchmark's tracer reads; it wraps
# only the functions named in `__all__`.
TRACED = ("sr_geodesic", "su2_exp", "distance_shoot", "causal_classify")


def readme_api() -> dict[str, list[str]]:
    """{module: names} from the README's Public API bullets."""
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for bullet in section.split("\n- ")[1:]:
        module, *names = re.findall(r"`([A-Za-z_]\w*)`", bullet.split(".\n\n", 1)[0])
        listed[module] = names
    return listed


def test_all_has_no_duplicates():
    assert len(sublorentz.__all__) == len(set(sublorentz.__all__))


def test_every_name_resolves():
    missing = [name for name in sublorentz.__all__ if not hasattr(sublorentz, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from sublorentz import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sublorentz.__all__)


def test_readme_lists_every_name_under_its_module():
    listed = readme_api()
    flat = [name for names in listed.values() for name in names]
    assert sorted(flat) == sorted(sublorentz.__all__)
    for module, names in listed.items():
        mod = importlib.import_module(f"sublorentz.{module}")
        for name in names:
            assert getattr(mod, name) is getattr(sublorentz, name), (module, name)


def test_benchmark_traced_functions_stay_public():
    assert set(TRACED) <= set(sublorentz.__all__)
