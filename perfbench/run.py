#!/usr/bin/env python3
"""bilevel-lab benchmark: drives `bilevel_lab.cli.main` in-process and checks its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record      # re-record the reference

Run it from the repository root.  With `--trace 0` the workload is called
repeatedly for about S seconds with tracing off and the end-to-end metrics
are printed; with `--trace 1` untraced and traced calls alternate and the
per-layer metrics are printed.  Every call's artifacts are checked against
`perfbench/reference/<workload>.json`.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it carries the environment, the samples and their quartiles.
"""

import os
import sys

# Pinned before numpy loads, identically on every commit measured.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from layers import Meter, instrument, layer_metrics  # noqa: E402
from tracing import Tracer, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up time sampled per call: a shorter set-up is replayed right after the
# call until its samples add up to this, so that a millisecond set-up is a
# median of many samples taken across the whole run, not in one burst.
SETUP_SAMPLE_S = 0.2
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "complexity_per_s": "1/s",
    "oracle_complexity": "count",
    "peak_rss_mb": "MB",
    "ops_passed_frac": "ratio",
}


def load_package():
    """Import bilevel_lab from this checkout's src/, or exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "bilevel_lab" / "__init__.py").is_file():
        print(f"bilevel_lab sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import bilevel_lab
    from bilevel_lab import cli, hard_instances, hypergrad, linalg, oracles, solvers, span_lab

    if Path(bilevel_lab.__file__).resolve().parent != (src / "bilevel_lab").resolve():
        print(f"imported bilevel_lab from {bilevel_lab.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return SimpleNamespace(
        cli=cli, hard_instances=hard_instances, hypergrad=hypergrad, linalg=linalg,
        oracles=oracles, solvers=solvers, span_lab=span_lab,
    )


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
    }


@dataclass
class Call:
    wall: float
    setup: float
    counters: dict
    ops: dict
    setup_calls: list


class Bench:
    """Calls one workload through cli.main with its artifacts under the checkout."""

    def __init__(self, bl, name: str, workload, seed: int, ref: dict | None):
        self.bl = bl
        self.workload = workload
        self.ref = ref
        self.meter = Meter(bl, workload.setup)
        self.out_root = ROOT / ".perfbench_out" / f"{name}-{os.getpid()}"
        self.out_root.mkdir(parents=True, exist_ok=True)
        self.config_path = self.out_root / "config.json"
        self.config_path.write_text(json.dumps({**workload.config, "seed": seed}))
        self.seed = seed
        self.n = 0

    def check(self, out: Path, exit_code: int, runs: list) -> dict:
        return check.check_call(self.workload.verb, out, exit_code, runs, self.ref)

    def call(self, inspect=None) -> Call:
        """One cli.main call; `inspect(out_dir, exit_code, counter_runs)` (the
        reference check by default) sees the artifacts before they are removed."""
        self.n += 1
        out = self.out_root / f"call-{self.n}"
        argv = [self.workload.verb, str(self.config_path), "--out", str(out),
                "--seed", str(self.seed), "--jobs", "1"]
        self.meter.reset()
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                exit_code = self.bl.cli.main(argv)
        except Exception:  # a traceback is a failed call, not a crashed benchmark
            traceback.print_exc()
            exit_code = -1
        wall = time.perf_counter() - start
        counters = self.meter.totals()
        ops = (inspect or self.check)(out, exit_code, counters["runs"])
        shutil.rmtree(out, ignore_errors=True)
        return Call(wall, self.meter.setup_s, counters, ops, list(self.meter.setup_calls))

    def close(self):
        shutil.rmtree(self.out_root, ignore_errors=True)
        parent = self.out_root.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "p25": q[0], "median": q[1], "p75": q[2]}


def summarize_ops(calls: list[Call]) -> tuple[int, int, int, list]:
    """(attempted, mismatched, passed, first reasons) over every checked operation."""
    attempted = mismatched = passed = 0
    reasons = []
    for c in calls:
        for op, (status, reason) in c.ops.items():
            attempted += 1
            if status == check.MISMATCH:
                mismatched += 1
                if len(reasons) < 5:
                    reasons.append(f"{op}: {reason}")
            elif status in (check.OK, check.FIXED):
                passed += 1
    return attempted, mismatched, passed, reasons


def keep_going(start: float, last: float, seconds: float, done: int, minimum: int) -> bool:
    """Start another call only if it should end within the run's budget."""
    return done < minimum or time.perf_counter() - start + last <= seconds


def measure(bench: Bench, seconds: float) -> tuple[dict, list, dict]:
    """Untraced calls for about `seconds`; returns (metrics, calls, samples)."""
    calls, setups = [], []
    start = time.perf_counter()
    while keep_going(start, calls[-1].wall if calls else 0.0, seconds, len(calls), 2):
        call = bench.call()
        calls.append(call)
        setups.append(call.setup)
        sampled = call.setup
        while call.setup_calls and sampled < SETUP_SAMPLE_S:
            setups.append(bench.meter.replay_setup(call.setup_calls))
            sampled += setups[-1]
    walls = [c.wall for c in calls]
    attempted, _, passed, _ = summarize_ops(calls)
    samples = {
        "wall_s": walls,
        "setup_s": setups,
        "complexity_per_s": [c.counters["complexity"] / (c.wall - c.setup) for c in calls],
        "oracle_complexity": [c.counters["complexity"] for c in calls],
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ops_passed_frac"] = passed / attempted if attempted else 0.0
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return metrics, calls, samples


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, list, dict]:
    """Alternate untraced and traced calls; per-layer metrics from the traced ones."""
    tracer = Tracer()
    calls, untraced, traced = [], [], []
    totals = {"n_G": 0, "n_J": 0, "n_H": 0, "complexity": 0.0}
    start = time.perf_counter()
    last = 0.0
    while keep_going(start, last, seconds, len(traced), 1):
        pair_start = time.perf_counter()
        plain = bench.call()
        with patched() as patches:
            instrument(bench.bl, tracer, patches)
            spanned = bench.call()
        if spanned.counters != plain.counters:
            reason = "traced counters differ from the untraced call"
            spanned.ops = {op: (check.MISMATCH, reason) for op in spanned.ops}
        calls += [plain, spanned]
        untraced.append(plain.wall)
        traced.append(spanned.wall)
        for k in totals:
            totals[k] += spanned.counters[k]
        last = time.perf_counter() - pair_start
    metrics = layer_metrics(tracer, totals, traced, untraced)
    return metrics, calls, {"traced_wall_s": traced, "untraced_wall_s": untraced}


def record(bl, name: str) -> None:
    workload = WORKLOADS[name]
    n_points = len(workload.config.get("sweep", {}).get("values", []))
    bench = Bench(bl, name, workload, seed=0, ref=None)
    captured = {}

    def capture(out, exit_code, runs):
        captured.update(check.capture(workload.verb, out, exit_code, runs, n_points))
        return {}

    try:
        with patched() as patches:
            bench.meter.install(patches)
            bench.call(capture)
    finally:
        bench.close()
    path = HERE / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(captured, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"recorded {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record the reference")
    args = parser.parse_args(argv)

    bl = load_package()
    if args.record:
        record(bl, args.workload)
        return 0
    ref = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    bench = Bench(bl, args.workload, WORKLOADS[args.workload], args.seed, ref)
    try:
        with patched() as patches:
            bench.meter.install(patches)
            run = measure_traced if args.trace else measure
            metrics, calls, samples = run(bench, args.seconds)
    finally:
        bench.close()
    attempted, failed, passed, reasons = summarize_ops(calls)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "calls": len(calls),
        "samples": {k: quartiles(v) for k, v in samples.items()},
        "ops": {"attempted": attempted, "passed": passed, "mismatched": failed},
        "mismatches": reasons,
    }
    print(json.dumps(detail))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
