import importlib

import locsim

MODULES = ("stats_core", "theory_core", "winner", "lp", "lasso", "erm", "sphere",
           "experiments")


def test_package_exports_each_module_all():
    modules = [importlib.import_module(f"locsim.{name}") for name in MODULES]
    joined = [name for module in modules for name in module.__all__]
    assert locsim.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(locsim, name) is getattr(module, name), name
    assert {"cap_angle", "projection_truth"} <= set(joined)
