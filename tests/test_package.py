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


def test_public_names_are_pinned():
    # Adding or removing a public name is a decision this list records.
    assert sorted(fojeffreys.__all__) == [
        "FitNonConvergenceError",
        "FitResult",
        "FoJeffreysParams",
        "FrfDataset",
        "ResidualReport",
        "SimulationDivergedError",
        "SimulationResult",
        "TimeSeries",
        "classify_late_trend",
        "dirac_differintegral_analytic",
        "fit",
        "freq_response",
        "generate_signal",
        "gl_differintegral",
        "gl_weights",
        "impulse_final_value",
        "residual_report",
        "simulate",
        "steady_state_sine_gain",
        "validate",
    ]
