"""The three benchmark workloads.

The configs are copies of the shipped `scripts/configs/*.json` (with the
stated overrides), kept here so that the benchmark stays the same while the
shipped configs evolve.  Why each workload exists is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    verb: str
    config: dict
    # where set-up happens: (module, functions), timed in every run
    setup: tuple[str, tuple[str, ...]]


KAPPA_SWEEP = {  # scripts/configs/kappa_sweep.json as shipped
    "seed": 0,
    "instance": {"kind": "scsc-benchmark", "preset": "benchmark", "d": 32, "initial_gap": 1.0},
    "solver": {"algorithm": "accbio-bg", "K": 600, "N": "auto", "M": "auto", "eps": 0.0001, "U": 10.0},
    "sweep": {"axis": "kappa_y", "values": [1.0, 4.0, 16.0, 64.0]},
}

BENCHMARK_RUN_D1024 = {  # scripts/configs/benchmark_run.json with d=1024, K=20
    "seed": 0,
    "instance": {"kind": "scsc", "preset": "benchmark", "kappa_y": 4.0, "d": 1024},
    "solver": {"algorithm": "accbio", "K": 20, "N": "auto", "M": "auto", "eps": 1e-6},
}

BATTERY_D1024 = {  # scripts/configs/lower_bound_battery.json, scaled
    "seed": 0,
    "instance": {"kind": "scsc", "preset": "mild"},
    "lower_bound": {
        "budgets": {"K": 60, "Q": 10, "T": 5},
        "scsc_dims": [256, 1024],
        "csc_d": 512,
        "csc_B": 1.0,
        "csc_budgets": {"K": 40, "Q": 10, "T": 3},
        "algorithms": ["baseline_aid_gd", "accbio", "accbio_bg"],
        "rstar_eps": 1e-2,
    },
}

WORKLOADS = {
    "sweep-kappa-d32": Workload("sweep", KAPPA_SWEEP, ("cli", ("build_instance",))),
    "run-scsc-d1024": Workload("run", BENCHMARK_RUN_D1024, ("cli", ("build_instance",))),
    "battery-lb-d1024": Workload(
        "verify-lb", BATTERY_D1024, ("hard_instances", ("build_scsc", "build_csc"))
    ),
}
