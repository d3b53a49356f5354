"""Oracle-checked benchmark of the fojeffreys package.

Run from the root of a checkout:

    python3 bench/run.py --workload transient-long --seed 1 --seconds 50 --trace 0

One single-threaded closed-loop caller runs the workload's operations, each
starting when the previous one returns, for ``--seconds``, and checks every
result against an independent oracle. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates traced and untraced rounds of the
workload's first cycle and reports per-layer metrics instead. Human-readable
lines come first; the last line of stdout is one JSON object. Results and
spans are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
TAIL_PERCENTILES = (50.0, 70.0, 75.0, 90.0, 95.0, 99.0, 99.9)
LAYER_MODULES = ("fractional", "model", "simulate", "identify", "dataio", "cli")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_package() -> dict:
    """Import fojeffreys afresh from the checkout's ``src/``; modules by full name.

    Dropping the package from ``sys.modules`` first makes every set-up pay for
    module-level work again, so work moved into import time shows in setup_s.
    """
    if not (SRC / "fojeffreys" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fojeffreys package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "fojeffreys" or n.startswith("fojeffreys.")]:
        del sys.modules[name]
    return {f"fojeffreys.{m}": importlib.import_module(f"fojeffreys.{m}") for m in LAYER_MODULES}


def set_up(workload_cls, workdir: Path, seed: int):
    """Import, build the seeded inputs, write input files and warm up; timed."""
    start = time.perf_counter()
    modules = import_package()
    fj = SimpleNamespace(**{name.split(".")[1]: mod for name, mod in modules.items()})
    workload = workload_cls(fj, workdir, seed)
    for op in workload.warmup():
        try:
            op.run(workloads.direct)
        except Exception:  # a broken operation is reported by the timed loop
            pass
    return time.perf_counter() - start, workload, modules


def run_op(op, call, log: "Log") -> float:
    start = time.perf_counter()
    try:
        out = op.run(call)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        log.record(op, elapsed, f"raised {type(exc).__name__}: {exc}")
        return elapsed
    elapsed = time.perf_counter() - start
    try:
        op.check(out)
    except Exception as exc:
        log.record(op, elapsed, f"{type(exc).__name__}: {exc}")
        return elapsed
    log.record(op, elapsed, None)
    return elapsed


class Log:
    """Latency and outcome of every operation attempted."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.by_kind: dict[str, list[float]] = {}
        self.nbytes: dict[str, int] = {}

    def record(self, op, elapsed: float, failure: str | None) -> None:
        self.latencies.append(elapsed)
        self.by_kind.setdefault(op.kind, []).append(elapsed)
        self.nbytes[op.kind] = op.nbytes
        if failure is not None:
            self.failures.append(f"{op.kind}: {failure}")


def measure(workload, seconds: float) -> Log:
    """Closed loop over whole cycles until ``seconds`` have passed.

    Whole cycles keep the mix of operations the same from run to run.
    """
    log = Log()
    deadline = time.perf_counter() + seconds
    for index in itertools.count():
        for op in workload.cycle(index):
            run_op(op, workloads.direct, log)
        if time.perf_counter() >= deadline:
            return log


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest of TAIL_PERCENTILES with at least ten samples above it.

    Nearest-rank percentiles; with fewer than 20 samples it is the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in reversed(TAIL_PERCENTILES):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def end_to_end(log: Log, setups: list[float]) -> tuple[dict, list[str]]:
    n = len(log.latencies)
    ok = n - len(log.failures)
    tail_s, tail_pct = tail(log.latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ok / sum(log.latencies),
        "op_p50_ms": 1e3 * statistics.median(log.latencies),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{ok} ops passed / {sum(log.latencies):.3f} s in operations",
        "op_p50_ms": f"median of {n} samples",
        "op_tail_ms": f"p{tail_pct:g} of {n} samples, {n - math.ceil(tail_pct * n / 100)} above it",
        "peak_rss_mb": "peak resident set of this process",
    }
    lines = [f"{name:<14} {values[name]:>12.4f} {unit:<5} {notes[name]}"
             for name, unit in END_TO_END.items()]
    lines.append(f"{'failed_ratio':<14} {len(log.failures) / n:>12.4f} {'ratio':<5} "
                 f"{len(log.failures)} of {n} operations failed")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, lines


def traced(workload, modules: dict, seconds: float, spans_path: Path):
    """Alternate traced and untraced rounds of cycle 0 for ``seconds``."""
    tracer = tracing.Tracer()
    log = Log()
    busy = {True: 0.0, False: 0.0}
    rounds, pair = 0, 0.0
    deadline = time.perf_counter() + seconds
    # Stop before a round pair that would end past the deadline, but run one.
    while rounds == 0 or time.perf_counter() + pair <= deadline:
        started = time.perf_counter()
        for on in (True, False):
            if on:
                tracer.install(modules)
            try:
                call = tracer.call if on else workloads.direct
                busy[on] += sum(run_op(op, call, log) for op in workload.cycle(0))
            finally:
                tracer.uninstall()
        rounds += 1
        pair = time.perf_counter() - started
    tracer.write(spans_path)
    metrics = tracer.layer_metrics(rounds)
    metrics["trace.overhead_ratio"] = {"value": busy[True] / busy[False], "unit": "ratio"}
    lines = [f"{name:<44} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"{rounds} traced rounds of cycle 0; spans in {spans_path}")
    return log, metrics, lines


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _openblas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked through its C API."""
    maps = _read("/proc/self/maps").splitlines()
    for path in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        if not path.startswith("/"):
            continue
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(seed: int, log: Log) -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            size = _read(index / "size")
            caches[f"L{level}"] = int(size.rstrip("K")) * 1024 if size.endswith("K") else size
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    l2, l3 = caches.get("L2"), caches.get("L3")
    working_set = {
        kind: {
            "largest_array_bytes": nbytes,
            "of_l2": nbytes / l2 if isinstance(l2, int) else None,
            "of_l3": nbytes / l3 if isinstance(l3, int) else None,
            "median_ms": 1e3 * statistics.median(log.by_kind[kind]),
            "count": len(log.by_kind[kind]),
        }
        for kind, nbytes in log.nbytes.items()
    }
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2_bytes_per_core": l2,
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "blas_thread_vars": {var: os.environ.get(var) for var in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "operations": working_set,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, workload, modules = set_up(workloads.WORKLOADS[args.workload], workdir, args.seed)
            setups.append(seconds)
        if args.trace:
            spans = OUT / f"spans-{args.workload}.jsonl"
            log, metrics, lines = traced(workload, modules, args.seconds, spans)
        else:
            log = measure(workload, args.seconds)
            metrics, lines = end_to_end(log, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed, log)
    result = {
        "correct": not log.failures,
        "attempted": len(log.latencies),
        "failed": len(log.failures),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "failures": log.failures, "setup_s": setups,
              **result}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    for failure in log.failures[:20]:
        print(f"  FAILED {failure}")
    print("\n".join(lines))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
