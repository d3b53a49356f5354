import importlib

import fojeffreys

# The package's ``simulate`` attribute is the function, so the modules are
# imported by name.
MODULES = [
    importlib.import_module(f"fojeffreys.{name}")
    for name in ("fractional", "identify", "model", "simulate")
]


def test_package_exports_exactly_its_modules_public_names():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))  # no module exports another's name
    assert sorted(fojeffreys.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fojeffreys, name) is getattr(module, name), name
