"""The package namespace, identity comparison of its value objects, and README's quick start."""
import contextlib
import io
import itertools
from pathlib import Path

import numpy as np
import pytest

import arrowm
from arrowm import dynamics, freeparticle, grid, mellin, operator

MODULES = (dynamics, freeparticle, grid, mellin, operator)


def test_package_reexports_each_module_all():
    # disjoint lists: no star import in the package shadows another
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)
    assert arrowm.__all__ == sorted(name for module in MODULES for name in module.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(arrowm, name) is getattr(module, name), name
    namespace = {}
    exec("from arrowm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == arrowm.__all__


def _value_objects():
    g = arrowm.make_log_grid(1e-2, 1e2, 64)
    state = arrowm.random_smooth_state(g, np.random.default_rng(7))
    times = np.linspace(0.0, 1.0, 3)
    return {
        "EnergyState": lambda: arrowm.make_state(g, state.channels, state.amplitudes),
        "MellinSpectrum": lambda: arrowm.forward_mellin(state),
        "Trajectory": lambda: arrowm.trajectory(state, times),
    }


@pytest.mark.parametrize("kind", ["EnergyState", "MellinSpectrum", "Trajectory"])
def test_value_objects_compare_and_hash_by_identity(kind):
    make = _value_objects()[kind]
    a, b = make(), make()
    assert type(a).__name__ == kind
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_readme_quick_start_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(code, {})
    first, direct = printed.getvalue().splitlines()
    start, end, violations = first.split(" ", 2)
    # a real packet starts at 1/2, decays below 0.005 by t = 32 and never rises
    assert abs(float(start) - 0.5) <= 1e-12
    assert float(end) < 0.005
    assert violations == "()"
    assert abs(float(direct) - 0.5) <= 1e-12
