"""The benchmark's two workloads.

Each workload builds its inputs, from the run's seed unless its docstring
says otherwise, then hands out operations one cycle at a time. An operation
calls the package only through module attributes looked up at call time
(``fj.simulate.simulate``), or through ``cli.main`` with the flags the CLI
keeps, and carries an oracle check from ``oracles`` that does not use the
code under test.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from oracles import BAND_HZ, CYLINDER, require


@dataclass
class Op:
    kind: str
    run: Callable  # run(call) -> output; call(name, fn, *args) times a CLI command
    check: Callable  # check(output) raises on a wrong result
    nbytes: int  # largest array the operation works on, computed from its size


def direct(name, fn, *args):
    return fn(*args)


def combined(kind: str, steps: list[Op]) -> Op:
    """One operation that runs every step and checks them one by one."""

    def run(call):
        return [step.run(call) for step in steps]

    def verify(outs):
        for step, out in zip(steps, outs):
            try:
                step.check(out)
            except oracles.OracleMiss as exc:
                raise oracles.OracleMiss(f"{step.kind}: {exc}") from exc

    return Op(kind, run, verify, max(step.nbytes for step in steps))


def run_cli(fj, argv: list[str], call) -> tuple[int, str]:
    """In-process CLI call; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call("cli." + argv[0], fj.cli.main, argv)
    return code, out.getvalue()


def summary_of(result) -> dict:
    """The JSON summary line of a CLI call that must exit with code 0."""
    code, stdout = result
    require(code == 0, f"exit code {code}, expected 0")
    return json.loads(stdout.strip().splitlines()[-1])


def draw_params(rng) -> dict:
    """Parameters scattered around the cylinder point; always lambda2 > lambda1."""
    return {
        "mu": CYLINDER["mu"] * rng.uniform(0.8, 1.25),
        "lambda1": CYLINDER["lambda1"] * rng.uniform(0.9, 1.1),
        "lambda2": CYLINDER["lambda2"] * rng.uniform(0.9, 1.1),
        "alpha": CYLINDER["alpha"] * rng.uniform(0.95, 1.05),
    }


def param_flags(p: dict) -> list[str]:
    return [arg for name in ("mu", "lambda1", "lambda2", "alpha")
            for arg in (f"--{name}", repr(float(p[name])))]


class TransientLong:
    """Long records through the CLI, plus 40k-sample GL convolutions.

    Cycle: impulse at h = 1e-3 over 2.5 / 15 / 40 s (n = 2.5k / 15k / 40k),
    slope over 3 s at h = 2e-4 (n = 15k), impulse-study for gamma = 0.9, 1,
    1.1 over 10 s at h = 1e-3, and gl_differintegral of a 40k-sample
    polynomial at +beta and -beta.
    """

    name = "transient-long"
    DRAWS = 8
    GL_SAMPLES = 40_000

    def __init__(self, fj, workdir: Path, seed: int):
        self.fj, self.dir = fj, workdir
        rng = np.random.default_rng(seed)
        self.draws = []
        t = np.arange(self.GL_SAMPLES) / (self.GL_SAMPLES - 1)
        for _ in range(self.DRAWS):
            coeffs = tuple(rng.uniform(0.5, 2.0, size=2))
            self.draws.append({
                "p": draw_params(rng),
                "area": rng.uniform(0.5, 2.0),
                "rate": rng.uniform(500.0, 2000.0),
                "coeffs": coeffs,
                "signal": fj.fractional.TimeSeries(step=t[1], samples=coeffs[0] * t + coeffs[1] * t**2),
            })
        self.t = t

    def _simulate(self, d: dict, signal: list[str], duration: float, step: float, check) -> Op:
        fj = self.fj
        n = int(math.floor(duration / step + 1e-9)) + 1
        out_path = self.dir / "x.csv"
        argv = ["simulate", *param_flags(d["p"]), *signal,
                "--duration", repr(duration), "--step", repr(step),
                "--out-input", str(self.dir / "tau.csv"), "--out-output", str(out_path)]

        def verify(result):
            summary = summary_of(result)
            cols = oracles.read_columns(out_path)
            require(summary["samples"] == n and len(cols) == n, f"{len(cols)} samples, expected {n}")
            require(cols[-1, 1] == summary["final_value"], "file and summary disagree on the final value")
            check(cols[:, 0], cols[:, 1])

        return Op(f"simulate-{signal[1]}-{n}", lambda call: run_cli(fj, argv, call), verify, 8 * n)

    def _impulse(self, d: dict, duration: float) -> Op:
        p, area = d["p"], d["area"]
        return self._simulate(
            d, ["--signal", "impulse", "--area", repr(area)], duration, 1e-3,
            lambda t, x: oracles.impulse_plateau(area, p["mu"], t, x, 0.8 * duration),
        )

    def _slope(self, d: dict, duration: float, step: float) -> Op:
        p, rate = d["p"], d["rate"]
        return self._simulate(
            d, ["--signal", "slope", "--rate", repr(rate)], duration, step,
            lambda t, x: oracles.slope_asymptote(p, rate, t, x),
        )

    def _study(self, d: dict, duration: float, step: float) -> Op:
        fj, p, area = self.fj, d["p"], d["area"]
        n = int(math.floor(duration / step + 1e-9)) + 1
        path = self.dir / "study.csv"
        argv = ["impulse-study", *param_flags(p), "--gammas", "0.9,1,1.1",
                "--area", repr(area), "--duration", repr(duration), "--step", repr(step),
                "--out", str(path)]

        def verify(result):
            code, stdout = result
            require(code == 0, f"exit code {code}, expected 0")
            trends = [json.loads(line)["late_trend"] for line in stdout.splitlines()]
            require(trends == ["decaying", "constant", "growing"], f"trends {trends}")
            cols = oracles.read_columns(path)
            require(cols.shape == (n, 4), f"study table shape {cols.shape}")
            t = cols[:, 0]
            oracles.late_direction(t, cols[:, 1], "decaying")
            oracles.impulse_plateau(area, p["mu"], t, cols[:, 2], 0.8 * duration)
            oracles.late_direction(t, cols[:, 3], "growing")

        return Op(f"impulse-study-{n}", lambda call: run_cli(fj, argv, call), verify, 8 * n)

    def _gl(self, d: dict, sign: float, samples: int | None = None) -> Op:
        fj, order = self.fj, sign * d["p"]["alpha"]
        signal = d["signal"]
        if samples is not None:
            signal = fj.fractional.TimeSeries(step=signal.step, samples=signal.samples[:samples])

        def verify(out):
            oracles.gl_power_rule(d["coeffs"], order, self.t[: len(out.samples)], out.samples)

        return Op(f"gl-differintegral-{'+' if sign > 0 else '-'}beta-{len(signal)}",
                  lambda call: fj.fractional.gl_differintegral(signal, order),
                  verify, 8 * len(signal))

    def cycle(self, index: int) -> list[Op]:
        d = self.draws[index % self.DRAWS]
        return [self._impulse(d, 2.5), self._impulse(d, 15.0), self._impulse(d, 40.0),
                self._slope(d, 3.0, 2e-4), self._study(d, 10.0, 1e-3),
                self._gl(d, +1.0), self._gl(d, -1.0)]

    def warmup(self) -> list[Op]:
        d = self.draws[0]
        return [self._impulse(d, 0.5), self._slope(d, 0.2, 2e-4), self._study(d, 1.0, 1e-2),
                self._gl(d, +1.0, 1000)]


class IdentifyFrf:
    """CLI ``fit`` on FRF files; one operation fits the same panel of twelve.

    The panel is four IO fits of the noiseless cylinder point (20 or 200
    points, heuristic or perturbed guess), then eight FO fits, each on its own
    parameter draw around the cylinder point: 20 points over the rig band or
    200 points, noiseless or with 0.5 dB / 2 deg noise, heuristic or
    perturbed guess. Timed fit by fit, the median fell among several kinds of
    fit whose order changed with this machine's speed, which doubled its
    run-to-run spread.

    The inputs come from a fixed seed, not the run's, and every operation
    repeats them. The simplex search either stops after a few hundred iterations or
    slides along the lambda1 -> 0 boundary for its whole 5000-iteration
    budget, and which one happens changes chaotically with the data: with
    seeded draws, throughput over 30 s runs ranged from 1.3 to 3.2 fits/s
    between seeds, and with a different draw per cycle it still depended on
    how many cycles a run completed.
    """

    name = "identify-frf"
    INPUT_SEED = 0
    VARIANTS = list(itertools.product((20, 200), (False, True), (False, True)))

    def __init__(self, fj, workdir: Path, seed: int):
        self.fj, self.dir = fj, workdir
        self._refs: dict = {}
        self.draws = []
        for i, variant in enumerate(self.VARIANTS):
            rng = np.random.default_rng([self.INPUT_SEED, i])
            self.draws.append(self._make_set(rng, f"draw{i}", draw_params(rng), [variant[:2]]))
        self.panel = self._make_set(np.random.default_rng(self.INPUT_SEED), "panel",
                                    dict(CYLINDER), [(20, False), (200, False)])

    def _make_set(self, rng, tag: str, truth: dict, files_wanted) -> dict:
        guess = {k: v * rng.uniform(0.7, 1.3) for k, v in truth.items()}
        guess["alpha"] = min(max(guess["alpha"], 0.05), 1.95)
        files = {}
        for points, noise in files_wanted:
            freqs = np.geomspace(*BAND_HZ, points)
            gains = oracles.transfer(truth, 2.0 * math.pi * freqs)
            if noise:
                db = 20.0 * np.log10(np.abs(gains)) + rng.normal(0.0, 0.5, points)
                deg = np.degrees(np.angle(gains)) + rng.normal(0.0, 2.0, points)
                gains = 10.0 ** (db / 20.0) * np.exp(1j * np.radians(deg))
            path = self.dir / f"{tag}-{points}-{'noisy' if noise else 'clean'}.csv"
            oracles.write_frf_file(path, freqs, gains)
            files[points, noise] = (path, freqs, gains)
        return {"truth": truth, "guess": guess, "files": files}

    def _reference(self, data: dict, key) -> oracles.FrfReference:
        path, freqs, gains = data["files"][key]
        if path not in self._refs:
            self._refs[path] = oracles.FrfReference(data["truth"], freqs, gains)
        return self._refs[path]

    def _fit(self, data: dict, model_class: str, points: int, noise: bool, perturbed: bool) -> Op:
        fj = self.fj
        path = data["files"][points, noise][0]
        argv = ["fit", "--frf", str(path), "--model-class", model_class,
                "--report", str(self.dir / "report.csv")]
        if perturbed:
            argv += param_flags(data["guess"])

        def verify(result):
            summary = summary_of(result)
            ref = self._reference(data, (points, noise))
            if model_class == "FO":
                oracles.check_recovery(summary, ref)
            else:
                require(summary["alpha"] == 1.0, f"IO fit returned alpha {summary['alpha']}")
                require(summary["objective"] > ref.objective,
                        f"IO objective {summary['objective']:.6g} not above FO {ref.objective:.6g}")

        kind = (f"fit-{model_class}-{points}pt-{'noisy' if noise else 'clean'}-"
                f"{'perturbed' if perturbed else 'default'}")
        return Op(kind, lambda call: run_cli(fj, argv, call), verify, 16 * points)

    def _fits(self) -> list[Op]:
        io = [self._fit(self.panel, "IO", points, False, perturbed)
              for points in (20, 200) for perturbed in (False, True)]
        return io + [self._fit(data, "FO", *variant)
                     for data, variant in zip(self.draws, self.VARIANTS)]

    def cycle(self, index: int) -> list[Op]:
        return [combined("fit-panel", self._fits())]

    def warmup(self) -> list[Op]:
        return [self._fit(self.panel, "FO", 20, False, True)]


WORKLOADS = {w.name: w for w in (TransientLong, IdentifyFrf)}
