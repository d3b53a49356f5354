"""Acceptance gate.

Each test runs one acceptance criterion at its stated tolerance and prints a
single pass/fail line (run pytest with -s or check the captured output).
"""

import math
import time

import numpy as np

from fojeffreys import (
    FoJeffreysParams,
    SignalSpec,
    TimeSeries,
    classify_late_trend,
    fit,
    freq_response,
    generate_signal,
    gl_differintegral,
    gl_weights,
    impulse_final_value,
    simulate,
    steady_state_sine_gain,
)
from fojeffreys import identify
from fojeffreys.cli import main as cli_main
from fojeffreys.dataio import read_frf, read_timeseries, write_frf, write_timeseries

from conftest import CYLINDER, add_frf_noise, make_synthetic_frf, perturbed_guess
from test_fractional import power_rule, weights_direct


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, f"acceptance criterion '{name}' failed: {detail}"


def cylinder(gamma: float = 1.0) -> FoJeffreysParams:
    values = dict(CYLINDER)
    values["gamma"] = gamma
    return FoJeffreysParams(**values)


def test_gl_correctness():
    """Differintegral of t^k vs the analytic power rule, plus h-halving."""
    t_start = time.monotonic()
    worst_rel = 0.0
    worst_ratio_err = 0.0
    ok = True
    diagnostics = []
    for k in (1, 2):
        for order in (0.3, 0.5, 1.0, 1.5):
            errors = {}
            for h in (1e-3, 5e-4):
                t = np.arange(0, 1.0 + h / 2, h)
                out = gl_differintegral(TimeSeries(step=h, samples=t**k), order)
                exact = power_rule(k, order, t)
                mask = t >= 0.1
                abs_err = np.abs(out.samples[mask] - exact[mask])
                errors[h] = np.max(abs_err)
                if h == 1e-3:
                    rel = np.max(abs_err / np.abs(exact[mask]))
                    worst_rel = max(worst_rel, rel)
                    if rel > 0.01:
                        ok = False
                        diagnostics.append(f"k={k} order={order}: rel={rel:.3%}")
            if errors[1e-3] > 1e-12:  # skip ratio where GL is already exact
                ratio = errors[5e-4] / errors[1e-3]
                worst_ratio_err = max(worst_ratio_err, abs(ratio - 0.5))
                if not 0.4 <= ratio <= 0.6:
                    ok = False
                    diagnostics.append(f"k={k} order={order}: halving ratio={ratio:.3f}")
    elapsed = time.monotonic() - t_start
    if elapsed >= 10.0:
        ok = False
        diagnostics.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(
        "gl-correctness",
        ok,
        "; ".join(diagnostics)
        or f"worst rel {worst_rel:.3%}, worst |ratio-0.5| {worst_ratio_err:.3f}, "
        f"{elapsed:.1f}s",
    )


def test_weight_oracle():
    """Recursion vs direct binomial evaluation, 1e-12 relative for i <= 50."""
    t_start = time.monotonic()
    worst = 0.0
    ok = True
    diagnostics = []
    for order in (-1.0, -0.5, 0.5, 1.0, 1.571):
        weights = gl_weights(order, 50)
        oracle = weights_direct(order, np.arange(51))
        nonzero = np.abs(oracle) > 0.0
        rel = np.max(np.abs(weights[nonzero] - oracle[nonzero]) / np.abs(oracle[nonzero]))
        worst = max(worst, rel)
        if rel > 1e-12 or not np.all(weights[~nonzero] == 0.0):
            ok = False
            diagnostics.append(f"order={order}: rel={rel:.2e}")
    elapsed = time.monotonic() - t_start
    if elapsed >= 1.0:
        ok = False
        diagnostics.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(
        "weight-oracle",
        ok,
        "; ".join(diagnostics) or f"worst rel {worst:.2e}, {elapsed:.2f}s",
    )


def test_impulse_trichotomy():
    """Impulse responses for integrator orders 0.9 / 1 / 1.1."""
    t_start = time.monotonic()
    signal = generate_signal(SignalSpec(kind="impulse", duration=2.5, step=1e-3, area=1.0))
    trends = {}
    plateau_dev = None
    for gamma in (0.9, 1.0, 1.1):
        output = simulate(cylinder(gamma), signal).output
        trends[gamma] = classify_late_trend(output)
        if gamma == 1.0:
            tail = output.samples[output.times >= 2.0]
            plateau = float(np.mean(tail))
            target = impulse_final_value(cylinder(), 1.0)
            plateau_dev = abs(plateau - target) / target
    scaled = simulate(
        cylinder(),
        generate_signal(SignalSpec(kind="impulse", duration=2.5, step=1e-3, area=2.5)),
    ).output
    scaled_dev = abs(
        float(np.mean(scaled.samples[scaled.times >= 2.0])) - 2.5 / CYLINDER["mu"]
    ) / (2.5 / CYLINDER["mu"])
    elapsed = time.monotonic() - t_start
    ok = (
        trends == {0.9: "decaying", 1.0: "constant", 1.1: "growing"}
        and plateau_dev <= 0.02
        and scaled_dev <= 0.02
        and elapsed < 30.0
    )
    _report(
        "fig2-trichotomy",
        ok,
        f"trends={trends}, plateau dev {plateau_dev:.3%} (area 1), "
        f"{scaled_dev:.3%} (area 2.5), {elapsed:.1f}s",
    )


def test_time_frequency_cross_validation():
    """Simulated sine gains vs the frequency response at four band points."""
    t_start = time.monotonic()
    params = cylinder()
    ok = True
    details = []
    for frequency in (0.01, 0.1, 1.0, 1.6):
        magnitude, phase = steady_state_sine_gain(
            params, frequency, cycles=8, step=1.0 / (800.0 * frequency)
        )
        gain = freq_response(params, 2.0 * math.pi * frequency)
        mag_err = abs(magnitude - abs(gain)) / abs(gain)
        phase_err = abs(phase - math.degrees(np.angle(gain)))
        details.append(f"f={frequency}: {mag_err:.2%}/{phase_err:.2f}deg")
        if mag_err > 0.02 or phase_err > 2.0:
            ok = False
    elapsed = time.monotonic() - t_start
    if elapsed >= 60.0:
        ok = False
        details.append(f"runtime {elapsed:.0f}s >= 60s")
    _report("time-frequency-cross-validation", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_fit_recovery():
    """Recovery of the generating parameters from synthetic 20-point data."""
    t_start = time.monotonic()
    truth = cylinder()
    data = make_synthetic_frf(truth)
    ok = True
    details = []

    clean = fit(data, initial_guess=perturbed_guess(truth, seed=42))
    worst_clean = max(
        abs(getattr(clean.params, name) - getattr(truth, name)) / getattr(truth, name)
        for name in ("mu", "lambda1", "lambda2", "alpha")
    )
    if worst_clean > 0.02 or clean.objective >= 1e-6:
        ok = False
    details.append(
        f"noiseless worst {worst_clean:.3%}, objective {clean.objective:.2e}"
    )

    noisy_data = add_frf_noise(data, db_sigma=0.5, deg_sigma=2.0, seed=0)
    noisy = fit(noisy_data, initial_guess=perturbed_guess(truth, seed=0))
    worst_noisy = max(
        abs(getattr(noisy.params, name) - getattr(truth, name)) / getattr(truth, name)
        for name in ("mu", "lambda1", "lambda2", "alpha")
    )
    if worst_noisy > 0.10:
        ok = False
    details.append(f"noisy worst {worst_noisy:.3%}")

    elapsed = time.monotonic() - t_start
    if elapsed >= 120.0:
        ok = False
        details.append(f"runtime {elapsed:.0f}s >= 120s")
    _report("fit-recovery", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_fo_vs_io_ordering():
    """Objective ordering and the phase-mismatch signature of the IO fit."""
    t_start = time.monotonic()
    truth = cylinder()
    data = make_synthetic_frf(truth)
    fo = fit(data, model_class="FO")
    io = fit(data, model_class="IO")

    omega_top = 2.0 * math.pi * 1.6
    phase_data = math.degrees(np.angle(data.gains[-1]))
    phase_fo_top = math.degrees(np.angle(freq_response(fo.params, omega_top)))
    phase_io_top = math.degrees(np.angle(freq_response(io.params, omega_top)))
    fo_mismatch = abs(phase_fo_top - phase_data)
    io_mismatch = abs(phase_io_top - phase_data)

    # High-frequency limits, evaluated a decade above the measured band: the
    # fitted IO sits at its double-integrator -180, the FO returns to -90.
    omega_hf = 1.0e3
    phase_fo_hf = math.degrees(np.angle(freq_response(fo.params, omega_hf)))
    phase_io_hf = math.degrees(np.angle(freq_response(io.params, omega_hf)))

    ok = (
        io.objective > fo.objective
        and fo_mismatch <= 15.0
        and io_mismatch > 15.0
        and abs(phase_fo_hf + 90.0) <= 15.0
        and abs(phase_io_hf + 180.0) <= 15.0
    )
    elapsed = time.monotonic() - t_start
    _report(
        "fo-vs-io-ordering",
        ok,
        f"objectives IO {io.objective:.3g} > FO {fo.objective:.3g}; band-top phase "
        f"mismatch FO {fo_mismatch:.1f}deg vs IO {io_mismatch:.1f}deg (tol 15); "
        f"high-f phases FO {phase_fo_hf:.1f} / IO {phase_io_hf:.1f}, {elapsed:.1f}s",
    )


def test_slope_input_lag():
    """Lagged transient under a slope input, compared with the pure dashpot.

    The early-time lag is robust. The stated settling clause (within 5
    percent of the dashpot response from t = 5*lambda2 on) is not attainable
    for this parameter set: the fractional relaxation tail decays
    algebraically (~t^-alpha), so the response enters the 5 percent band only
    around t ~ 1.3 s, about 28*lambda2. The criterion is asserted as stated.
    """
    t_start = time.monotonic()
    params = cylinder()
    rate = 1000.0
    horizon = 3.0
    signal = generate_signal(
        SignalSpec(kind="slope", duration=horizon, step=2e-4, rate=rate)
    )
    output = simulate(params, signal).output
    t = output.times
    dashpot = rate * t**2 / (2.0 * params.mu)
    mask = t > 0.0
    ratio = output.samples[mask] / dashpot[mask]
    t_pos = t[mask]

    settle_cutoff = 5.0 * params.lambda2
    early = t_pos <= settle_cutoff
    initially_below = bool(np.all(ratio[early] < 1.0))

    late = t_pos >= settle_cutoff
    worst_late = float(np.max(np.abs(ratio[late] - 1.0)))
    outside = np.abs(ratio - 1.0) > 0.05
    entered_band_at = float(t_pos[outside][-1]) if outside.any() else 0.0

    elapsed = time.monotonic() - t_start
    ok = initially_below and worst_late <= 0.05 and elapsed < 60.0
    _report(
        "slope-input-lag",
        ok,
        f"initially below: {initially_below}; max |x/x_dashpot - 1| for "
        f"t >= {settle_cutoff:.3f}s is {worst_late:.1%} (tol 5%); 5% band "
        f"entered at t ~ {entered_band_at:.2f}s ~ "
        f"{entered_band_at / params.lambda2:.0f}*lambda2, {elapsed:.1f}s",
    )


def test_dataio_and_exit_codes(tmp_path, capsys, monkeypatch):
    """File round trips and the CLI exit-code contract."""
    t_start = time.monotonic()
    ok = True
    details = []

    data = make_synthetic_frf(cylinder())
    frf_path = tmp_path / "frf.csv"
    write_frf(data.frequencies_hz, data.gains, frf_path)
    back = read_frf(frf_path)
    round_trip = np.max(np.abs(back.gains - data.gains) / np.abs(data.gains))
    if round_trip > 1e-9 or not np.array_equal(back.frequencies_hz, data.frequencies_hz):
        ok = False
        details.append(f"FRF round trip {round_trip:.2e}")

    rng = np.random.default_rng(2)
    series = TimeSeries(step=1e-3, samples=rng.normal(size=1000))
    write_timeseries(series, tmp_path / "ts.csv")
    ts_back = read_timeseries(tmp_path / "ts.csv")
    if ts_back.step != series.step or not np.array_equal(ts_back.samples, series.samples):
        ok = False
        details.append("time-series round trip not exact")

    flags = ["--mu", "171e3", "--lambda1", "0.013", "--lambda2", "0.047",
             "--alpha", "1.571"]
    runs = {
        0: ["freqresp", *flags, "--f-min", "0.005", "--f-max", "1.6",
            "--n-points", "20", "--out", str(tmp_path / "sweep.csv")],
        2: ["freqresp", *flags, "--f-min", "0", "--f-max", "1.6",
            "--out", str(tmp_path / "bad.csv")],
        3: ["simulate", "--mu", "1e-3", "--lambda1", "0.01", "--lambda2", "0.05",
            "--alpha", "1.2", "--signal", "step", "--amplitude", "1e308",
            "--duration", "1", "--step", "0.01",
            "--out-input", str(tmp_path / "tau.csv"),
            "--out-output", str(tmp_path / "x.csv")],
        4: ["fit", "--frf", str(frf_path), "--report", str(tmp_path / "inc.csv")],
    }
    monkeypatch.setattr(identify, "_MAX_EVALUATIONS", 2)  # forces exit 4
    for expected, argv in runs.items():
        code = cli_main(argv)
        if code != expected:
            ok = False
            details.append(f"{argv[0]} returned {code}, expected {expected}")
    capsys.readouterr()
    if not (tmp_path / "inc.csv").exists():
        ok = False
        details.append("incumbent report missing after non-convergence")

    elapsed = time.monotonic() - t_start
    with capsys.disabled():
        _report(
            "dataio-and-exit-codes",
            ok,
            "; ".join(details) or f"round trip {round_trip:.2e}, codes 0/2/3/4, "
            f"{elapsed:.1f}s",
        )
