"""Config-driven experiment runner and verification front end.

Verbs: `run <config.json>` executes one solver run and writes its artifacts;
`sweep <config.json>` runs a grid and emits a summary table with a fitted
log-log slope; `verify-lb <config.json>` executes the lower-bound battery;
`report <dir>` summarizes artifacts under a directory.

Exit codes: 0 success, 1 config error, 2 numeric failure, 3 verification
failure.  Given the same (config, seed) every artifact is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import hard_instances, presets, solvers, span_lab
from .errors import BilevelLabError, ConfigError, ConstraintError, DivergenceError
from .errors import InvariantViolationError
from .linalg import least_squares_slope, z_power_sum
from .oracles import (
    QuadraticBilevelOracle,
    QuadraticOuter,
    SmoothnessConstants,
    exact_hypergradient,
    finite_difference_check,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config does not parse: {path}: {exc}") from None


def _int(minimum: int | None = None):
    """An integer (an int, or a float with an integral value), at least `minimum`."""

    def check(value, name: str) -> int:
        if isinstance(value, bool) or not (
            isinstance(value, int) or (isinstance(value, float) and value.is_integer())
        ):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
        return int(value)

    return check


def _float(positive: bool = False):
    """A finite real (an int or a float, not a bool), above 0 if `positive`."""

    def check(value, name: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        if positive and number <= 0:
            raise ConfigError(f"{name} must be positive, got {value!r}")
        return number

    return check


_positive = _float(positive=True)


def _str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _or(check, *literals):
    """`literals` (same type and value) pass as is; anything else goes to `check`, if any."""

    def either(value, name: str):
        if any(type(value) is type(literal) and value == literal for literal in literals):
            return value
        if check is None:
            raise ConfigError(f"{name} must be one of {literals}, got {value!r}")
        return check(value, name)

    return either


def _one_of(*choices):
    return _or(None, *choices)


def _list_of(check, unique: bool = False):
    """A non-empty list of entries that pass `check`; with `unique`, none twice."""

    def check_list(value, name: str) -> list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
        items = [check(item, f"{name}[{i}]") for i, item in enumerate(value)]
        if unique and len(set(items)) < len(items):
            raise ConfigError(f"{name} repeats an entry: {value!r}")
        return items

    return check_list


def _block(schema: str):
    """An object resolved against SCHEMA[schema]."""
    return lambda value, name: resolve(value, schema, name)


def _budgets(value, name: str) -> dict:
    """A simulator budget block on the uniform schedule: K divisible by Q and K >= 2Q."""
    budgets = resolve(value, "budgets", name)
    if budgets["K"] % budgets["Q"] or budgets["K"] < 2 * budgets["Q"]:
        raise ConfigError(f"{name} breaks the uniform schedule: needs K divisible by Q and K >= 2Q")
    return budgets


# every algorithm's name in solvers.ALGORITHMS, and the hyphenated spellings
ALGORITHM_SPELLINGS = {name: name for name in solvers.ALGORITHMS}
ALGORITHM_SPELLINGS.update({"accbio-bg": "accbio_bg", "baseline-gd": "baseline_aid_gd"})


def _algorithm(value, name: str) -> str:
    """One spelling of an algorithm, resolved to its name in solvers.ALGORITHMS."""
    return ALGORITHM_SPELLINGS[_one_of(*ALGORITHM_SPELLINGS)(value, name)]


def _solver(value, name: str) -> dict:
    """A solver block; accbio_bg needs a declared outer-gradient bound U."""
    solver = resolve(value, "solver", name)
    if solver["algorithm"] == "accbio_bg" and solver["U"] is None:
        raise ConfigError(f"accbio-bg requires a declared outer-gradient bound: set {name}.U")
    return solver


def _lower_bound(value, name: str) -> dict:
    """A lower_bound block whose csc_d holds the convex chain's support cap, d - 3 >= M."""
    lb = resolve(value, "lower_bound", name)
    cap = span_lab.support_cap("csc", **lb["csc_budgets"])
    if cap > lb["csc_d"] - 3:
        raise ConfigError(
            f"{name}.csc_d = {lb['csc_d']} is too small for {name}.csc_budgets: "
            f"support cap {cap} needs csc_d >= {cap + 3}"
        )
    return lb


def _sweep(value, name: str) -> dict:
    """A sweep block whose values each pass the check of the key that its axis sets."""
    sweep = resolve(value, "sweep", name)
    axis = sweep["axis"]
    check = SCHEMA[SWEEP_AXES[axis]][axis][1]
    for i, item in enumerate(sweep["values"]):
        check(item, f"{name}.values[{i}]")
    return sweep


REQUIRED = object()  # the default of a key that has none and must be given

# the block of the key that a sweep axis sets in each point's config
SWEEP_AXES = {"kappa_y": "instance", "eps": "solver", "d": "instance"}

# One row per key, `key: (default, check)`, for each block.  A check takes
# (value, name) and returns the resolved value, or raises a ConfigError naming
# the key as `block.key`.  A default of None stays None; any other is checked.
SCHEMA = {
    "config": {
        "seed": (0, _int(minimum=0)),
        "output_dir": ("out", _str),
        "instance": (None, _block("instance")),
        "solver": (None, _solver),
        "sweep": (None, _sweep),
        "lower_bound": ({}, _lower_bound),
    },
    "instance": {
        "kind": (REQUIRED, _one_of("scsc", "csc", "scsc-benchmark", "decoupled")),
        "d": (16, _int(minimum=1)),  # the builders of the hard families need d >= 4
        "preset": (None, _one_of(None, "mild", "mild-csc", "benchmark")),
        "kappa_y": (4.0, _float()),  # read by the benchmark preset
        "constants": (None, _or(_block("constants"), None)),
        "corruption": (None, _one_of(None, "btilde3")),
        "Lbar_xy": (None, _or(_float(), None)),
        "B": (1.0, _float()),
        "initial_gap": (None, _or(_float(), None)),
        "b_scale": (1.0, _float()),
    },
    # overrides of the preset's constants; an absent one keeps the preset's value
    "constants": {f.name: (None, _float()) for f in dataclasses.fields(SmoothnessConstants)},
    "solver": {
        "algorithm": (REQUIRED, _algorithm),
        "K": (REQUIRED, _int(minimum=1)),
        "N": ("auto", _or(_int(minimum=1), "auto")),
        "M": ("auto", _or(_int(minimum=1), "auto")),
        "eps": (1e-6, _positive),
        "tau_cost": (2.0, _positive),
        # null or 0 means derived: L_phi from the constants, alpha and stepsize from L_phi
        "L_phi": (None, _or(_positive, None, 0, 0.0)),
        "alpha": (None, _or(_positive, None, 0, 0.0)),
        "stepsize": (None, _or(_positive, None, 0, 0.0)),
        "U": (None, _or(_positive, None)),  # required by accbio-bg, see _solver
        "regularize": (None, _or(_block("regularize"), None)),
    },
    "regularize": {"eps": (REQUIRED, _positive), "R": (REQUIRED, _positive)},
    "sweep": {
        "axis": (REQUIRED, _one_of(*SWEEP_AXES)),
        "values": (REQUIRED, _list_of(lambda value, name: value)),  # see _sweep
    },
    "lower_bound": {
        "budgets": ({"K": 10, "Q": 5, "T": 3}, _budgets),
        "scsc_dims": ([16, 32], _list_of(_int(minimum=4), unique=True)),
        "csc_d": (20, _int(minimum=4)),
        "csc_B": (1.0, _positive),
        "csc_budgets": ({"K": 4, "Q": 2, "T": 3}, _budgets),
        "algorithms": (["baseline_aid_gd"], _list_of(_algorithm, unique=True)),
        "rstar_eps": (1e-2, _positive),
    },
    "budgets": {key: (REQUIRED, _int(minimum=1)) for key in ("K", "Q", "T")},
}

# the blocks that a verb needs and that have no default
VERB_BLOCKS = {"run": ("instance", "solver"), "sweep": ("instance", "solver", "sweep")}


def resolve(block, schema: str = "config", where: str = "") -> dict:
    """`block` checked against SCHEMA[schema] (nested blocks in turn), defaults filled in.

    Pure and cheap: each entry point resolves the raw block that it takes.
    """
    rows, place = SCHEMA[schema], where or "config"
    if not isinstance(block, dict):
        raise ConfigError(f"{place} must be an object, got {block!r}")
    unknown = sorted(set(block) - set(rows))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {place}; "
            f"allowed: {', '.join(sorted(rows))}"
        )
    resolved = {}
    for key, (default, check) in rows.items():
        name = f"{where}.{key}" if where else key
        if key in block:
            resolved[key] = check(block[key], name)
        elif default is REQUIRED:
            raise ConfigError(f"missing field {key!r} in {place}")
        else:
            resolved[key] = None if default is None else check(default, name)
    return resolved


def resolve_constants(inst: dict) -> SmoothnessConstants:
    """A resolved instance block's constants: its preset's, then its overrides."""
    preset, overrides = inst["preset"], inst["constants"]
    if preset is None and overrides is None:
        raise ConfigError("instance needs a preset or explicit constants")
    try:
        if preset == "mild":
            base = presets.mild_scsc_constants()
        elif preset == "mild-csc":
            base = presets.mild_csc_constants()
        elif preset == "benchmark":
            base = presets.benchmark_scsc_constants(inst["kappa_y"])
        else:
            base = None
        if overrides is None:
            return base
        fields = {} if base is None else dataclasses.asdict(base)
        fields.update((name, value) for name, value in overrides.items() if value is not None)
        return SmoothnessConstants(**fields)
    except (TypeError, ValueError, BilevelLabError) as exc:
        raise ConfigError(f"invalid constants: {exc}") from None


def _decoupled_oracle(d: int) -> QuadraticBilevelOracle:
    """The sanity instance H = A_xx = A_yy = I, J = 0, b = 0, so x* = 0 and phi_star = 0.

    I is the shift-only power sum in Z, so the oracle has the cleared system
    and x* is one banded solve at any d.
    """
    constants = SmoothnessConstants(
        mu_x=1.0, mu_y=1.0, L_x=1.0, L_y=1.0, L_xy=0.0, Ltil_xy=0.0, Ltil_y=1.0
    )
    eye = z_power_sum("scsc", d, {}, shift=1.0)
    outer = QuadraticOuter(a_xx=eye, a_yy=eye)
    return QuadraticBilevelOracle(eye, None, np.zeros(d), outer, constants)


def _btilde_shift(corruption, d: int):
    """The `btilde3` negative control: 0.1 added to b_tilde's third entry (None if clean)."""
    return None if corruption is None else 0.1 * (np.arange(d) == 2)


def build_instance(inst_cfg: dict):
    """Return (oracle, hard_instance_or_None, info dict) for a raw instance block.

    A builder's ConstraintError (a dimension below 4, constants outside a
    family's range or leaving the float range together) propagates, and
    `main` reports it as invalid input.
    """
    inst = resolve(inst_cfg, "instance", "instance")
    kind, d, corruption = inst["kind"], inst["d"], inst["corruption"]
    if kind == "decoupled":
        return _decoupled_oracle(d), None, {"kind": kind, "d": d}
    constants = resolve_constants(inst)
    if kind == "scsc":
        built = hard_instances.build_scsc(
            d, constants, inst["Lbar_xy"], btilde_shift=_btilde_shift(corruption, d)
        )
        return built.oracle, built, {"kind": kind, "d": d, "corruption": corruption}
    if kind == "csc":
        built = hard_instances.build_csc(
            d, constants, inst["B"], btilde_shift=_btilde_shift(corruption, d)
        )
        info = {"kind": kind, "d": d, "B": inst["B"], "corruption": corruption}
        return built.oracle, built, info
    oracle = hard_instances.build_scsc_benchmark(
        d, constants, b_scale=inst["b_scale"], initial_gap=inst["initial_gap"]
    )
    # initial_gap is echoed as given
    return oracle, None, {"kind": kind, "d": d, "initial_gap": inst_cfg.get("initial_gap")}


def run_solver(oracle, solver_cfg: dict, tau_cost: float):
    """Run the solver of a raw solver block; returns (trace, resolved-params dict)."""
    s = _solver(solver_cfg, "solver")
    K, eps, reg = s["K"], s["eps"], s["regularize"]
    if reg is not None:
        oracle = solvers.regularize_convex(oracle, reg["eps"], reg["R"])
    constants = oracle.constants
    l_phi = s["L_phi"] or _positive(solvers.l_phi_estimate(constants), "solver.L_phi")
    mu_x = constants.mu_x
    if mu_x <= 0:
        raise ConfigError(
            "solver requires a strongly convex outer objective; "
            "use the regularize block for convex instances"
        )
    kappa_x = l_phi / mu_x
    n_auto, m_auto = solvers.default_inner_budgets(constants, kappa_x, eps)
    n = n_auto if s["N"] == "auto" else s["N"]
    m = m_auto if s["M"] == "auto" else s["M"]
    # a step of 0 in the config is the table's default, as an absent one is
    steps = {key: s[key] or None for key in ("alpha", "stepsize")}
    cfg = solvers.SolverConfig.from_constants(
        constants, K, n, m, L_phi=l_phi, eps=eps, U=s["U"], **steps
    )
    try:  # the row's step sizes and constants, checked before the run
        solvers.ALGORITHMS[s["algorithm"]].setup(cfg)
    except InvariantViolationError as exc:
        raise ConfigError(f"invalid solver block: {exc}") from exc
    trace = getattr(solvers, s["algorithm"])(oracle, cfg, tau_cost)
    resolved = {
        "algorithm": solver_cfg["algorithm"],  # echoed as given
        "K": K,
        "N": n,
        "M": m,
        "eps": eps,
        "L_phi": l_phi,
        "mu_x": mu_x,
        "kappa_x": kappa_x,
        "tau_cost": tau_cost,
        "regularize": solver_cfg.get("regularize"),  # echoed as given
        **{key: trace.meta[key] for key in ("alpha", "stepsize", "U") if key in trace.meta},
    }
    return trace, resolved


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------


def _atomic_write(path: Path, content: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _summary_csv(trace, eps: float) -> str:
    final = trace.final
    crossing = trace.first_crossing(eps)
    lines = ["metric,value"]
    lines.append(f"status,{trace.status}")
    lines.append(f"rows,{len(trace.records)}")
    lines.append(f"final_phi_gap,{final.phi_gap!r}")
    lines.append(f"final_grad_norm,{final.grad_norm!r}")
    lines.append(f"final_complexity,{final.complexity!r}")
    lines.append(f"reached_eps,{crossing is not None}")
    lines.append(
        f"complexity_to_eps,{'' if crossing is None else repr(crossing.complexity)}"
    )
    return "\n".join(lines) + "\n"


def run_experiment(cfg: dict, out_dir: Path, tau_cost_override: float | None = None) -> dict:
    """Execute one run of a raw config; write trace, instance, resolved config, and summary."""
    config = resolve(cfg)
    inst_cfg = cfg["instance"]
    tau_cost = config["solver"]["tau_cost"] if tau_cost_override is None else tau_cost_override
    oracle, instance, info = build_instance(inst_cfg)
    try:
        trace, resolved = run_solver(oracle, cfg["solver"], tau_cost)
    except DivergenceError as exc:
        if exc.trace is not None:
            _atomic_write(out_dir / "trace.csv", solvers.trace_to_csv(exc.trace))
        raise
    eps = resolved["eps"]
    _atomic_write(out_dir / "trace.csv", solvers.trace_to_csv(trace))
    if instance is not None:
        _atomic_write(out_dir / "instance.json", hard_instances.instance_to_json(instance))
    else:
        doc = {"kind": info["kind"], "d": info["d"], "constants": dataclasses.asdict(oracle.constants)}
        _atomic_write(out_dir / "instance.json", json.dumps(doc, indent=2, sort_keys=True))
    resolved_doc = {
        "seed": config["seed"],
        "instance": {**inst_cfg, **info},
        "solver_resolved": resolved,
        "trace_meta": trace.meta,
    }
    _atomic_write(out_dir / "resolved_config.json", json.dumps(resolved_doc, indent=2, sort_keys=True))
    _atomic_write(out_dir / "summary.csv", _summary_csv(trace, eps))
    crossing = trace.first_crossing(eps)
    return {
        "final_gap": trace.final.phi_gap,
        "complexity_to_eps": None if crossing is None else crossing.complexity,
        "reached_eps": crossing is not None,
        "status": trace.status,
    }


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_point_config(cfg: dict, axis: str, value) -> dict:
    point = json.loads(json.dumps(cfg))  # deep copy
    del point["sweep"]
    point[SWEEP_AXES[axis]][axis] = value
    return point


def _run_point(args):
    """One sweep point's result, failed when its run raises.

    A ConfigError propagates: a malformed field fails the whole sweep as
    invalid input.  A builder's ConstraintError marks only this point's
    instance as infeasible (say, a swept d below 4).
    """
    point_cfg, out_dir, tau_override = args
    try:
        result = run_experiment(point_cfg, Path(out_dir), tau_override)
        return {"ok": True, **result}
    except BilevelLabError as exc:
        if isinstance(exc, ConfigError):
            raise
        return {"ok": False, "error": str(exc)}


def _process_pool(workers: int):
    """A pool of `workers` processes for the sweep's points.

    `concurrent.futures`, and `multiprocessing` with it, load here, so a run
    that starts no pool (`--jobs 1`, or a single point) never loads them.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def run_sweep(cfg: dict, out_dir: Path, jobs: int, tau_cost_override: float | None = None) -> int:
    """Run each point of a raw sweep config (all checked by `resolve` before the first).

    Exits 0 when any point ran, whether or not it reached eps, as `run` does.
    Exits 2 only when no point ran, with one `numeric failure:` line on
    stderr that names every point and its error.
    """
    sweep = resolve(cfg)["sweep"]
    axis, values = sweep["axis"], sweep["values"]
    tasks = []
    for i, value in enumerate(values):
        point_cfg = _sweep_point_config(cfg, axis, value)
        tasks.append((point_cfg, str(out_dir / f"point_{i:02d}"), tau_cost_override))
    workers = min(jobs, len(tasks))  # a pool forks all its workers up front
    if workers > 1:
        with _process_pool(workers) as pool:
            results = list(pool.map(_run_point, tasks))
    else:
        results = [_run_point(t) for t in tasks]

    lines = ["axis_value,complexity_to_eps,final_gap"]
    complexities = []
    for value, res in zip(values, results):
        if res.get("ok") and res.get("reached_eps"):
            lines.append(f"{value!r},{res['complexity_to_eps']!r},{res['final_gap']!r}")
            complexities.append(res["complexity_to_eps"])
        else:
            lines.append(f"{value!r},,{'' if not res.get('ok') else repr(res['final_gap'])}")
            complexities.append(None)
    _atomic_write(out_dir / "summary.csv", "\n".join(lines) + "\n")

    meta = {"axis": axis, "values": values, "failures": sum(1 for r in results if not r.get("ok"))}
    # a point that reaches eps at complexity 0 has log -inf: no slope is fitted
    if all(c is not None and c > 0 for c in complexities) and all(float(v) > 0 for v in values):
        logs_x = np.log(np.asarray(values, dtype=float))
        logs_y = np.log(np.asarray(complexities, dtype=float))
        if len(values) >= 2 and np.ptp(logs_x) > 0:
            meta["loglog_slope"] = least_squares_slope(logs_x, logs_y)
    _atomic_write(out_dir / "sweep_meta.json", json.dumps(meta, indent=2, sort_keys=True))
    if any(r.get("ok") for r in results):
        return EXIT_OK
    failed = "; ".join(
        f"point_{i:02d} ({axis}={value!r}): {res['error']}"
        for i, (value, res) in enumerate(zip(values, results))
    )
    print(f"numeric failure: no sweep point ran: {failed}", file=sys.stderr)
    return EXIT_NUMERIC


# ---------------------------------------------------------------------------
# lower-bound verification campaign
# ---------------------------------------------------------------------------


def run_verify_lb(cfg: dict, out_dir: Path, tau_cost_override: float | None = None) -> int:
    """Run the lower-bound battery of a raw config and emit one pass/fail JSON report.

    The instance block gives the constants, from preset `mild` unless it names one.
    """
    config = resolve(cfg)
    lb = config["lower_bound"]
    inst_cfg = {"preset": "mild", **cfg.get("instance", {"kind": "scsc"})}
    inst = resolve(inst_cfg, "instance", "instance")
    constants, corruption = resolve_constants(inst), inst["corruption"]
    tau_cost = 2.0 if tau_cost_override is None else tau_cost_override
    budgets, csc_budgets = lb["budgets"], lb["csc_budgets"]
    items: dict[str, dict] = {}

    def record(name: str, passed: bool, **measured):
        items[name] = {"passed": bool(passed), **measured}

    def ratio(measured: float, floor: float) -> float | None:
        """How far a floor is from binding: measured / floor (None for a floor of 0)."""
        return measured / floor if floor else None

    # --- strongly-convex family ------------------------------------------------
    def build_scsc_at(d: int):
        return hard_instances.build_scsc(d, constants, btilde_shift=_btilde_shift(corruption, d))

    first = build_scsc_at(lb["scsc_dims"][0])
    quartic = hard_instances.scsc_quartic(first.lam_coef, first.tau_coef)
    residual = abs(quartic(first.r))
    lo = hard_instances.scsc_bracket_low(first.lam_coef, first.tau_coef)
    record(
        "scsc_quartic_root",
        residual <= 1e-10 and lo < first.r < 1.0,
        residual=residual,
        bracket_low=lo,
        r=first.r,
    )

    for d in lb["scsc_dims"]:
        inst = first if d == first.d else build_scsc_at(d)
        err = float(np.linalg.norm(inst.x_hat - inst.x_star_dense))
        bound = (7.0 + inst.lam_coef) / inst.tau_coef * inst.r ** inst.d
        record(
            f"scsc_geometric_minimizer_d{d}",
            err <= bound,
            error=err,
            bound=bound,
        )

    M = span_lab.support_cap("scsc", **budgets)
    d_run = hard_instances.scsc_feasible_dimension(
        M, first.r, first.lam_coef, first.tau_coef
    )
    run_inst = build_scsc_at(d_run)
    for algorithm in lb["algorithms"]:
        x_final, profile = span_lab.simulate_on_instance(run_inst, algorithm, budgets, tau_cost)
        support = span_lab.verify_support_cap(profile, run_inst)
        record(
            f"scsc_support_cap_{algorithm}",
            support.passed,
            observed_max_index=support.observed_max_index,
            predicted_cap=support.predicted_support_cap,
            span_residual=support.span_residual,
            **profile.mapping["counters"],
        )
        gap_report = span_lab.verify_gap_floor(run_inst, x_final, M)
        record(
            f"scsc_gap_floor_{algorithm}",
            gap_report.passed,
            gap=gap_report.gap,
            floor=gap_report.gap_floor,
            ratio=ratio(gap_report.gap, gap_report.gap_floor),
        )

    # spot check: hypergradient consistency at three points whose coordinates
    # are standard normal draws from one stdlib stream seeded by the config
    # (`tempfile` already loads `random`; numpy.random would add about 2 MB)
    rng = random.Random(config["seed"])
    fd_devs = []
    for _ in range(3):
        x = np.array([rng.gauss(0.0, 1.0) for _ in range(first.d)])
        fd_devs.append(finite_difference_check(first.oracle, x, 1e-5))
    record("scsc_hypergradient_consistency", max(fd_devs) <= 1e-6, max_deviation=max(fd_devs))

    # --- convex family -----------------------------------------------------------
    csc_constants = dataclasses.replace(constants, mu_x=0.0)
    csc_inst = hard_instances.build_csc(lb["csc_d"], csc_constants, lb["csc_B"])
    grad_at_star = float(np.linalg.norm(exact_hypergradient(csc_inst.oracle, csc_inst.x_star)))
    record(
        "csc_minimizer",
        grad_at_star <= 1e-9 * float(np.linalg.norm(csc_inst.b_tilde)),
        grad_norm_at_xstar=grad_at_star,
    )
    measured, floor = hard_instances.csc_grad_floor_verify(csc_inst)
    record(
        "csc_grad_floor_static",
        measured >= floor,
        measured_min=measured,
        floor=floor,
        ratio=ratio(measured, floor),
    )

    x_final, profile = span_lab.simulate_on_instance(
        csc_inst, "baseline_aid_gd", csc_budgets, tau_cost
    )
    support = span_lab.verify_support_cap(profile, csc_inst)
    m_csc = span_lab.support_cap("csc", **csc_budgets)
    grad_report = span_lab.verify_grad_floor(csc_inst, x_final, m_csc)
    record(
        "csc_support_cap",
        support.passed,
        observed_max_index=support.observed_max_index,
        predicted_cap=support.predicted_support_cap,
        span_residual=support.span_residual,
        **profile.mapping["counters"],
    )
    record(
        "csc_grad_floor_run",
        grad_report.passed,
        grad_norm=grad_report.grad_norm,
        floor=grad_report.grad_floor,
        ratio=ratio(grad_report.grad_norm, grad_report.grad_floor),
    )

    rstar = hard_instances.csc_rstar(csc_constants, lb["csc_B"], lb["rstar_eps"])
    record(
        "csc_rstar_root",
        rstar.residual <= 1e-8 * max(rstar.rhs, 1.0),
        residual=rstar.residual,
        r_star=rstar.r_star,
        small_beta_regime=rstar.small_beta_regime,
    )

    failed = sorted(name for name, item in items.items() if not item["passed"])
    doc = {
        "preset_constants": dataclasses.asdict(constants),
        "budgets": budgets,
        "items": items,
        "failed_items": failed,
        "passed": not failed,
    }
    _atomic_write(out_dir / "lower_bound_report.json", json.dumps(doc, indent=2, sort_keys=True))
    if failed:
        print("lower-bound battery FAILED items: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFY
    print(f"lower-bound battery: all {len(items)} items passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _report_fields(path: Path) -> str:
    """The rows,final_phi_gap,complexity fields of one trace.csv or lower_bound_report.json.

    A malformed artifact raises OSError, csv.Error or ValueError (not UTF-8,
    not JSON, or a report that is not an object with an object of items and
    a bool `passed`).
    """
    if path.name == "trace.csv":
        with open(path, encoding="utf-8", newline="") as fh:
            records = list(csv.DictReader(fh, restval=""))
        last = records[-1] if records else {}
        return f"{len(records)},{last.get('phi_gap', '')},{last.get('complexity', '')}"
    doc = json.loads(path.read_text(encoding="utf-8"))
    items = doc.get("items", {}) if isinstance(doc, dict) else None
    if not isinstance(items, dict):
        raise ValueError("not a lower-bound report object")
    passed = doc.get("passed")
    if not isinstance(passed, bool):
        raise ValueError(f"'passed' must be true or false, got {passed!r}")
    return f"{len(items)},,{'PASS' if passed else 'FAIL'}"


def run_report(directory: str) -> int:
    """Summarize every trace.csv, then every lower_bound_report.json, under a directory.

    A malformed artifact exits 1, naming the file, and no report.csv is written.
    """
    root = Path(directory)
    if not root.is_dir():
        print(f"not a directory: {directory}", file=sys.stderr)
        return EXIT_CONFIG
    lines = ["artifact,rows,final_phi_gap,complexity"]
    for path in sorted(root.rglob("trace.csv")) + sorted(root.rglob("lower_bound_report.json")):
        try:
            lines.append(f"{path.relative_to(root)},{_report_fields(path)}")
        except (OSError, csv.Error, ValueError) as exc:
            print(f"unreadable artifact {path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    print("\n".join(lines))
    _atomic_write(root / "report.csv", "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: each parse_args fills a fresh namespace."""
    parser = argparse.ArgumentParser(prog="bilevel-lab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "sweep", "verify-lb"):
        p = sub.add_parser(verb)
        p.add_argument("config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--jobs", type=int, default=1, help="work pool width (sweeps)")
        p.add_argument("--tau-cost", type=float, default=None, help="complexity weight override")
    p = sub.add_parser("report")
    p.add_argument("directory")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.verb == "report":
        return run_report(args.directory)
    try:
        cfg = load_config(args.config)
        config = resolve(cfg)  # the whole config, before any build
        if args.seed is not None:
            cfg["seed"] = SCHEMA["config"]["seed"][1](args.seed, "--seed")
        for block in VERB_BLOCKS.get(args.verb, ()):
            if config[block] is None:
                raise ConfigError(f"missing field {block!r} in config")
        tau_cost = None if args.tau_cost is None else _positive(args.tau_cost, "--tau-cost")
        out_dir = Path(args.out or config["output_dir"])
        if args.verb == "run":
            result = run_experiment(cfg, out_dir, tau_cost)
            print(
                f"run complete: status={result['status']} final_gap={result['final_gap']} "
                f"reached_eps={result['reached_eps']}"
            )
            return EXIT_OK
        if args.verb == "sweep":
            return run_sweep(cfg, out_dir, max(1, args.jobs), tau_cost)
        return run_verify_lb(cfg, out_dir, tau_cost)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConstraintError, MemoryError) as exc:  # constants the builders reject, or a d too large
        problem = "invalid instance" if isinstance(exc, ConstraintError) else "out of memory"
        print(f"config error: {problem}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BilevelLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
