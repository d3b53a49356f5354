"""Command-line front end: frequency sweeps, simulation and identification.

Outputs are plain tabular text for external plotting tools, plus a one-line
JSON summary on stdout where a single result is produced. Exit codes: 0 on
success, 2 for usage or validation errors, 3 for numerical divergence and 4
when identification fails to converge (the incumbent is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import dataio
from .identify import FitConfig, FitNonConvergenceError, fit
from .model import FoJeffreysParams, freq_response, validate
from .simulate import (
    SignalSpec,
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


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model parameters")
    group.add_argument("--params", metavar="FILE", help="parameter file or fit report")
    group.add_argument("--mu", type=float, help="viscosity-like gain")
    group.add_argument("--lambda1", type=float, help="relaxation-side constant")
    group.add_argument("--lambda2", type=float, help="retardation-side constant")
    group.add_argument("--alpha", type=float, help="displacement-branch order")
    group.add_argument("--beta", type=float, help="force-branch order (default: alpha)")
    group.add_argument("--gamma", type=float, help="integrator order (default: 1)")
    group.add_argument(
        "--unconstrained",
        action="store_true",
        help="skip the physical-constraint validation",
    )


def _resolve_params(args, required: bool = True) -> FoJeffreysParams | None:
    values: dict[str, float] = {}
    if args.params:
        base = dataio.read_params(args.params)
        values = {name: getattr(base, name) for name in
                  ("mu", "lambda1", "lambda2", "alpha", "beta", "gamma")}
    for name in ("mu", "lambda1", "lambda2", "alpha", "beta", "gamma"):
        override = getattr(args, name)
        if override is not None:
            values[name] = override
    if not values and not required:
        return None
    missing = [n for n in ("mu", "lambda1", "lambda2", "alpha") if n not in values]
    if missing:
        raise ValueError(f"missing model parameters: {', '.join(missing)}")
    values.setdefault("beta", values["alpha"])
    values.setdefault("gamma", 1.0)
    params = FoJeffreysParams(**values)
    if not args.unconstrained:
        violations = validate(params, "constrained")
        if violations:
            raise ValueError(
                "parameter constraints violated (use --unconstrained to bypass): "
                + "; ".join(violations)
            )
    return params


def _require_fine_grid(spec: SignalSpec) -> SignalSpec:
    if spec.n_samples < _MIN_GRID_SAMPLES:
        raise ValueError(
            f"grid too coarse: duration/step yields {spec.n_samples} samples, "
            f"need at least {_MIN_GRID_SAMPLES}"
        )
    return spec


def _signal_spec(args) -> SignalSpec:
    return _require_fine_grid(SignalSpec(
        kind=args.signal,
        duration=args.duration,
        step=args.step,
        area=args.area,
        amplitude=args.amplitude,
        rate=args.rate,
        frequency=args.frequency,
    ))


def _cmd_freqresp(args) -> int:
    params = _resolve_params(args)
    if not math.isfinite(args.f_min) or not 0.0 < args.f_min < args.f_max:
        raise ValueError(f"need 0 < f_min < f_max, got [{args.f_min}, {args.f_max}]")
    if args.n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {args.n_points}")
    freqs = np.geomspace(args.f_min, args.f_max, args.n_points)
    gains = freq_response(params, 2.0 * math.pi * freqs)
    dataio.write_frf_rows(
        freqs,
        20.0 * np.log10(np.abs(gains)),
        dataio.wrap_phase_deg(np.degrees(np.angle(gains))),
        args.out,
    )
    print(json.dumps({"points": int(args.n_points), "out": args.out}, sort_keys=True))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    params = _resolve_params(args)
    spec = _signal_spec(args)
    limit = None
    if spec.kind == "impulse":
        limit = _DIVERGENCE_FACTOR * abs(spec.area) / params.mu
    result = simulate(params, generate_signal(spec), divergence_limit=limit)
    dataio.write_timeseries(result.input, args.out_input)
    dataio.write_timeseries(result.output, args.out_output)
    summary = {
        "samples": len(result.output),
        "final_value": float(result.output.samples[-1]),
        "late_trend": classify_late_trend(result.output),
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_fit(args) -> int:
    data = dataio.read_frf(args.frf)
    # An initial guess need not satisfy the physical constraints; the fit's
    # parameterisation admits only constrained parameters.
    args.unconstrained = True
    initial = _resolve_params(args, required=False)
    config = FitConfig(
        model_class=args.model_class,
        initial_guess=initial,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        multistart=args.multistart,
        seed=args.seed,
    )
    exit_code = EXIT_OK
    try:
        result = fit(data, config)
    except FitNonConvergenceError as exc:
        result = exc.result
        print(f"fit did not converge: {exc}", file=sys.stderr)
        exit_code = EXIT_NO_CONVERGENCE
    dataio.write_fit_report(result, data, args.report)
    summary = {
        "model_class": args.model_class,
        "mu": result.params.mu,
        "lambda1": result.params.lambda1,
        "lambda2": result.params.lambda2,
        "alpha": result.params.alpha,
        "beta": result.params.beta,
        "gamma": result.params.gamma,
        "objective": result.objective,
        "converged": result.converged,
        "iterations": result.iterations,
    }
    print(json.dumps(summary, sort_keys=True))
    return exit_code


def _cmd_impulse_study(args) -> int:
    try:
        gammas = [float(v) for v in args.gammas.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --gammas list {args.gammas!r}") from exc
    if not gammas:
        raise ValueError("--gammas must list at least one value")
    for g in gammas:
        if not math.isfinite(g) or not 0.0 < g < 2.0:
            raise ValueError(f"integrator order {g} outside the open interval (0, 2)")
    args.gamma = 1.0
    base = _resolve_params(args)
    spec = _require_fine_grid(SignalSpec(
        kind="impulse", duration=args.duration, step=args.step, area=args.area
    ))
    signal = generate_signal(spec)
    limit = _DIVERGENCE_FACTOR * abs(spec.area) / base.mu

    columns = [signal.times]
    for g in gammas:
        result = simulate(replace(base, gamma=g), signal, divergence_limit=limit)
        columns.append(result.output.samples)
        summary = {
            "gamma": g,
            "final_value": float(result.output.samples[-1]),
            "late_trend": classify_late_trend(result.output),
        }
        print(json.dumps(summary, sort_keys=True))

    header = "time_s," + ",".join(f"x_gamma_{g:g}" for g in gammas)
    dataio.write_columns(header, columns, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fojeffreys",
        description="Fractional-order Jeffreys cylinder model tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_freq = sub.add_parser("freqresp", help="evaluate the frequency response")
    _add_param_flags(p_freq)
    p_freq.add_argument("--f-min", type=float, required=True, help="lowest frequency, Hz")
    p_freq.add_argument("--f-max", type=float, required=True, help="highest frequency, Hz")
    p_freq.add_argument("--n-points", type=int, default=20, help="log-spaced point count")
    p_freq.add_argument("--out", required=True, help="output FRF file")
    p_freq.set_defaults(func=_cmd_freqresp)

    p_sim = sub.add_parser("simulate", help="simulate the time-domain response")
    _add_param_flags(p_sim)
    p_sim.add_argument(
        "--signal", required=True, choices=("impulse", "step", "slope", "sine")
    )
    p_sim.add_argument("--area", type=float, help="impulse area")
    p_sim.add_argument("--amplitude", type=float, help="step/sine amplitude")
    p_sim.add_argument("--rate", type=float, help="slope rate per second")
    p_sim.add_argument("--frequency", type=float, help="sine frequency, Hz")
    p_sim.add_argument("--duration", type=float, required=True, help="horizon, s")
    p_sim.add_argument("--step", type=float, required=True, help="sample step, s")
    p_sim.add_argument("--out-input", required=True, help="input time-series file")
    p_sim.add_argument("--out-output", required=True, help="output time-series file")
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="identify parameters from an FRF file")
    _add_param_flags(p_fit)
    p_fit.add_argument("--frf", required=True, help="input FRF file")
    p_fit.add_argument("--model-class", choices=("FO", "IO"), default="FO")
    p_fit.add_argument("--report", required=True, help="fit report file")
    p_fit.add_argument(
        "--max-iterations", type=int, default=5000,
        help="residual evaluations per restart, Jacobian ones excluded",
    )
    p_fit.add_argument("--tolerance", type=float, default=1.0e-12)
    p_fit.add_argument("--multistart", type=int, default=3)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.set_defaults(func=_cmd_fit)

    p_study = sub.add_parser(
        "impulse-study", help="impulse responses for a list of integrator orders"
    )
    _add_param_flags(p_study)
    p_study.add_argument(
        "--gammas", required=True, help="comma-separated integrator orders"
    )
    p_study.add_argument("--area", type=float, default=1.0, help="impulse area")
    p_study.add_argument("--duration", type=float, required=True, help="horizon, s")
    p_study.add_argument("--step", type=float, required=True, help="sample step, s")
    p_study.add_argument("--out", required=True, help="multi-column output file")
    p_study.set_defaults(func=_cmd_impulse_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SimulationDivergedError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
