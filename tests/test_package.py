"""The package namespace re-exports each library module's ``__all__``."""
import itertools

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
