"""Command-line front end: frequency sweeps, simulation and identification.

Outputs are plain tabular text for external plotting tools, plus a one-line
JSON summary on stdout where a single result is produced. Exit codes: 0 on
success, 2 for usage or validation errors and for a record too large to
allocate, 3 for numerical divergence and 4 when identification fails to
converge (the incumbent is still written).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import MISSING, asdict, fields, replace

import numpy as np

from . import dataio
from .identify import _MODEL_CLASSES, FitNonConvergenceError, fit
from .model import FoJeffreysParams, freq_response, validate
from .simulate import (
    _SIGNAL_KINDS,
    SimulationDivergedError,
    classify_late_trend,
    generate_signal,
    simulate,
)

__all__ = ["build_parser", "entrypoint", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_NO_CONVERGENCE = 4

_MIN_GRID_SAMPLES = 10
_DIVERGENCE_FACTOR = 1.0e12


_PARAM_NAMES = tuple(f.name for f in fields(FoJeffreysParams))
# The "model parameters" flags; each command adds the ones it reads.
_PARAM_FLAGS = {
    "mu": {"type": float, "help": "viscosity-like gain"},
    "lambda1": {"type": float, "help": "relaxation-side constant"},
    "lambda2": {"type": float, "help": "retardation-side constant"},
    "alpha": {"type": float, "help": "displacement-branch order"},
    "beta": {"type": float, "help": "force-branch order (default: alpha)"},
    "gamma": {"type": float, "help": "integrator order (default: 1)"},
    "unconstrained": {
        "action": "store_true", "help": "skip the physical-constraint validation"
    },
}


def _add_param_flags(parser: argparse.ArgumentParser, names) -> None:
    group = parser.add_argument_group("model parameters")
    group.add_argument("--params", metavar="FILE", help="parameter file or fit report")
    for name in names:
        group.add_argument(f"--{name}", **_PARAM_FLAGS[name])


def _resolve_params(args, **fixed) -> FoJeffreysParams:
    """Parameters from --params, then the flags, then ``fixed``; validated unless unconstrained."""
    values = asdict(dataio.read_params(args.params)) if args.params else {}
    for name in _PARAM_NAMES:
        override = getattr(args, name, None)
        if override is not None:
            values[name] = override
    values.update(fixed)
    missing = [f.name for f in fields(FoJeffreysParams)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ValueError(f"missing model parameters: {', '.join(missing)}")
    params = FoJeffreysParams(**values)
    if not args.unconstrained:
        violations = validate(params)
        if violations:
            raise ValueError(
                "parameter constraints violated (use --unconstrained to bypass): "
                + "; ".join(violations)
            )
    return params


def _signal(args, kind: str, params: FoJeffreysParams, **shape):
    """The input on the --duration/--step grid, and the |x| at which an impulse diverges."""
    signal = generate_signal(kind, args.duration, args.step, **shape)
    if len(signal) < _MIN_GRID_SAMPLES:
        raise ValueError(
            f"grid too coarse: duration/step yields {len(signal)} samples, "
            f"need at least {_MIN_GRID_SAMPLES}"
        )
    limit = _DIVERGENCE_FACTOR * abs(shape["area"]) / params.mu if kind == "impulse" else None
    return signal, limit


def _trend_summary(series) -> dict:
    """The summary fields that describe a response's end."""
    return {"final_value": float(series.samples[-1]), "late_trend": classify_late_trend(series)}


def _cmd_freqresp(args) -> int:
    params = _resolve_params(args)
    if not 0.0 < args.f_min < args.f_max < math.inf:
        raise ValueError(f"need 0 < f_min < f_max < inf, got [{args.f_min}, {args.f_max}]")
    if args.n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {args.n_points}")
    freqs = np.geomspace(args.f_min, args.f_max, args.n_points)
    with np.errstate(all="ignore"):  # write_frf refuses a gain beyond binary64
        gains = freq_response(params, 2.0 * math.pi * freqs)
    dataio.write_frf(freqs, gains, args.out)
    print(json.dumps({"points": int(args.n_points), "out": args.out}, sort_keys=True))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    params = _resolve_params(args)
    signal, limit = _signal(
        args, args.signal, params,
        area=args.area, amplitude=args.amplitude, rate=args.rate, frequency=args.frequency,
    )
    result = simulate(params, signal, divergence_limit=limit)
    dataio.write_timeseries(result.input, args.out_input, (result.output, args.out_output))
    summary = {"samples": len(result.output), **_trend_summary(result.output)}
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_fit(args) -> int:
    data = dataio.read_frf(args.frf)
    guess = None
    if args.params or any(getattr(args, name, None) is not None for name in _PARAM_NAMES):
        # The optional initial guess. Its mu is never read: the fit projects mu out.
        guess = _resolve_params(args, **({"mu": 1.0} if args.mu is None else {}))
    exit_code = EXIT_OK
    try:
        result = fit(data, model_class=args.model_class, initial_guess=guess)
    except FitNonConvergenceError as exc:
        result = exc.result
        print(f"fit did not converge: {exc}", file=sys.stderr)
        exit_code = EXIT_NO_CONVERGENCE
    dataio.write_fit_report(result, args.report)
    print(json.dumps({"model_class": args.model_class, **result.summary}, sort_keys=True))
    return exit_code


def _cmd_impulse_study(args) -> int:
    try:
        gammas = [float(v) for v in args.gammas.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --gammas list {args.gammas!r}") from exc
    if not gammas:
        raise ValueError("--gammas must list at least one value")
    labels = [f"x_gamma_{g:g}" for g in gammas]
    if len(set(labels)) < len(labels):
        raise ValueError(f"--gammas {args.gammas!r} gives two columns one label")
    # Each column sets its own gamma; the base parameters are validated with
    # gamma = 1, whatever a parameter file holds. Every column's parameters
    # are built, and so checked, before the first solve prints anything.
    base = _resolve_params(args, gamma=1.0)
    studies = [replace(base, gamma=g) for g in gammas]
    signal, limit = _signal(args, "impulse", base, area=args.area)

    columns = [signal.times]
    for params in studies:
        result = simulate(params, signal, divergence_limit=limit)
        columns.append(result.output.samples)
        summary = {"gamma": params.gamma, **_trend_summary(result.output)}
        print(json.dumps(summary, sort_keys=True))

    dataio.write_columns(",".join(["time_s", *labels]), columns, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fojeffreys",
        description="Fractional-order Jeffreys cylinder model tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # No prefix matching: a removed or misspelt flag is a usage error, not an
    # abbreviation of another flag ("--model" of "--model-class").
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    p_freq = add_command("freqresp", help="evaluate the frequency response")
    _add_param_flags(p_freq, _PARAM_FLAGS)
    p_freq.add_argument("--f-min", type=float, required=True, help="lowest frequency, Hz")
    p_freq.add_argument("--f-max", type=float, required=True, help="highest frequency, Hz")
    p_freq.add_argument("--n-points", type=int, default=20, help="log-spaced point count")
    p_freq.add_argument("--out", required=True, help="output FRF file")
    p_freq.set_defaults(func=_cmd_freqresp)

    p_sim = add_command("simulate", help="simulate the time-domain response")
    _add_param_flags(p_sim, _PARAM_FLAGS)
    p_sim.add_argument("--signal", required=True, choices=_SIGNAL_KINDS)
    p_sim.add_argument("--area", type=float, help="impulse area")
    p_sim.add_argument("--amplitude", type=float, help="step/sine amplitude")
    p_sim.add_argument("--rate", type=float, help="slope rate per second")
    p_sim.add_argument("--frequency", type=float, help="sine frequency, Hz")
    p_sim.add_argument("--duration", type=float, required=True, help="horizon, s")
    p_sim.add_argument("--step", type=float, required=True, help="sample step, s")
    p_sim.add_argument("--out-input", required=True, help="input time-series file")
    p_sim.add_argument("--out-output", required=True, help="output time-series file")
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = add_command("fit", help="identify parameters from an FRF file")
    _add_param_flags(p_fit, ("mu", "lambda1", "lambda2", "alpha"))
    p_fit.add_argument("--frf", required=True, help="input FRF file")
    p_fit.add_argument("--model-class", choices=_MODEL_CLASSES, default="FO")
    p_fit.add_argument("--report", required=True, help="fit report file")
    # fit has no --unconstrained, and never validates its initial guess: the
    # fit's parameterisation admits only constrained parameters.
    p_fit.set_defaults(func=_cmd_fit, unconstrained=True)

    p_study = add_command(
        "impulse-study", help="impulse responses for a list of integrator orders"
    )
    _add_param_flags(p_study, [name for name in _PARAM_FLAGS if name != "gamma"])
    p_study.add_argument(
        "--gammas", required=True, help="comma-separated integrator orders"
    )
    p_study.add_argument("--area", type=float, default=1.0, help="impulse area")
    p_study.add_argument("--duration", type=float, required=True, help="horizon, s")
    p_study.add_argument("--step", type=float, required=True, help="sample step, s")
    p_study.add_argument("--out", required=True, help="multi-column output file")
    p_study.set_defaults(func=_cmd_impulse_study)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one build serves every call.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SimulationDivergedError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
