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
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import hard_instances, presets, solvers, span_lab
from .errors import BilevelLabError, ConfigError, ConstraintError, DivergenceError
from .hypergrad import AgdConfig, HeavyBallConfig
from .linalg import identity
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
# config handling
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config does not parse: {path}: {exc}") from None


# the keys each config block may hold; `regularize` sits inside `solver`
CONFIG_KEYS = {
    "config": {"seed", "output_dir", "instance", "solver", "sweep", "lower_bound"},
    "instance": {
        "kind", "d", "preset", "kappa_y", "constants", "corruption", "Lbar_xy", "B",
        "initial_gap", "b_scale",
    },
    "solver": {
        "algorithm", "K", "N", "M", "eps", "U", "alpha", "stepsize", "L_phi", "tau_cost",
        "regularize",
    },
    "regularize": {"eps", "R"},
    "sweep": {"axis", "values"},
    "lower_bound": {
        "budgets", "scsc_dims", "csc_d", "csc_B", "csc_budgets", "algorithms", "rstar_eps",
    },
}


def _check_keys(block, name: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object, got {block!r}")
    unknown = sorted(set(block) - CONFIG_KEYS[name])
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {name}; "
            f"allowed: {', '.join(sorted(CONFIG_KEYS[name]))}"
        )


def check_config_keys(cfg) -> None:
    """Reject a config holding a key outside its block's allowed set (before any build)."""
    _check_keys(cfg, "config")
    for name in ("instance", "solver", "sweep", "lower_bound"):
        if name in cfg:
            _check_keys(cfg[name], name)
    if cfg.get("solver", {}).get("regularize") is not None:
        _check_keys(cfg["solver"]["regularize"], "regularize")


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing field {key!r} in {where}")
    return cfg[key]


def _as_int(value, name: str, minimum: int | None = None) -> int:
    """An integer config value (an int, or a float with an integral value).

    Raises ConfigError for anything else, and for a value below `minimum`.
    """
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def _as_float(value, name: str, positive: bool = False) -> float:
    """A finite real config value (an int or a float, not a bool).

    Raises ConfigError for anything else, and for a value <= 0 if `positive`.
    """
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


def _optional_float(block: dict, key: str, where: str) -> float | None:
    """`_as_float` of block[key], or None when the key is absent or null."""
    value = block.get(key)
    return None if value is None else _as_float(value, f"{where}.{key}")


def resolve_constants(inst_cfg: dict) -> SmoothnessConstants:
    preset = inst_cfg.get("preset")
    overrides = inst_cfg.get("constants")
    if preset not in (None, "mild", "mild-csc", "benchmark"):
        raise ConfigError(f"unknown preset {preset!r}")
    if preset is None and overrides is None:
        raise ConfigError("instance needs a preset or explicit constants")
    try:
        if preset == "mild":
            base = presets.mild_scsc_constants()
        elif preset == "mild-csc":
            base = presets.mild_csc_constants()
        elif preset == "benchmark":
            kappa_y = _as_float(inst_cfg.get("kappa_y", 4.0), "instance.kappa_y")
            base = presets.benchmark_scsc_constants(kappa_y)
        else:
            base = None
        if overrides is None:
            return base
        fields = {} if base is None else dataclasses.asdict(base)
        fields.update(overrides)
        return SmoothnessConstants(**fields)
    except (TypeError, ValueError, BilevelLabError) as exc:
        raise ConfigError(f"invalid constants: {exc}") from None


def _decoupled_oracle(d: int) -> QuadraticBilevelOracle:
    constants = SmoothnessConstants(
        mu_x=1.0, mu_y=1.0, L_x=1.0, L_y=1.0, L_xy=0.0, Ltil_xy=0.0, Ltil_y=1.0
    )
    outer = QuadraticOuter(a_xx=identity(d), a_yy=identity(d))
    return QuadraticBilevelOracle(identity(d), None, np.zeros(d), outer, constants)


def _btilde_shift(corruption, d: int):
    """The `btilde3` negative control: 0.1 added to b_tilde's third entry.

    Returns None for a clean build.
    """
    if corruption is None:
        return None
    if corruption != "btilde3":
        raise ConfigError(f"unknown corruption {corruption!r}")
    return 0.1 * (np.arange(d) == 2)


def build_instance(inst_cfg: dict):
    """Return (oracle, hard_instance_or_None, info dict) for a config block.

    A builder's ConstraintError (a dimension below 4, constants outside a
    family's range) is invalid input, so it surfaces as a ConfigError.
    """
    kind = _require(inst_cfg, "kind", "instance")
    d = _as_int(inst_cfg.get("d", 16), "instance.d")
    if kind == "decoupled":
        oracle = _decoupled_oracle(d)
        return oracle, None, {"kind": kind, "d": d}
    constants = resolve_constants(inst_cfg)
    corruption = inst_cfg.get("corruption")
    try:
        if kind == "scsc":
            inst = hard_instances.build_scsc(
                d,
                constants,
                _optional_float(inst_cfg, "Lbar_xy", "instance"),
                btilde_shift=_btilde_shift(corruption, d),
            )
            return inst.oracle, inst, {"kind": kind, "d": d, "corruption": corruption}
        if kind == "csc":
            B = _as_float(inst_cfg.get("B", 1.0), "instance.B")
            inst = hard_instances.build_csc(
                d, constants, B, btilde_shift=_btilde_shift(corruption, d)
            )
            return inst.oracle, inst, {"kind": kind, "d": d, "B": B, "corruption": corruption}
        if kind == "scsc-benchmark":
            initial_gap = inst_cfg.get("initial_gap")
            oracle = hard_instances.build_scsc_benchmark(
                d,
                constants,
                b_scale=_as_float(inst_cfg.get("b_scale", 1.0), "instance.b_scale"),
                initial_gap=_optional_float(inst_cfg, "initial_gap", "instance"),
            )
            return oracle, None, {"kind": kind, "d": d, "initial_gap": initial_gap}
    except ConstraintError as exc:
        raise ConfigError(f"invalid instance: {exc}") from None
    raise ConfigError(f"unknown instance kind {kind!r}")


def _resolve_budgets(solver_cfg: dict, constants: SmoothnessConstants, kappa_x: float, eps: float):
    n_cfg, m_cfg = solver_cfg.get("N", "auto"), solver_cfg.get("M", "auto")
    n_auto, m_auto = solvers.default_inner_budgets(constants, kappa_x, eps)
    n = n_auto if n_cfg == "auto" else _as_int(n_cfg, "solver.N", minimum=1)
    m = m_auto if m_cfg == "auto" else _as_int(m_cfg, "solver.M", minimum=1)
    return n, m


def run_solver(oracle, solver_cfg: dict, tau_cost: float):
    """Run the configured solver; returns (trace, resolved-params dict)."""
    algorithm = _require(solver_cfg, "algorithm", "solver")
    eps = _as_float(solver_cfg.get("eps", 1e-6), "solver.eps", positive=True)
    reg = solver_cfg.get("regularize")
    if reg is not None:
        oracle = solvers.regularize_convex(
            oracle,
            _as_float(_require(reg, "eps", "regularize"), "regularize.eps", positive=True),
            _as_float(_require(reg, "R", "regularize"), "regularize.R", positive=True),
        )
    constants = oracle.constants
    # L_phi, alpha and stepsize: a falsy value (absent, null, 0) means the derived default
    l_phi = _as_float(
        solver_cfg.get("L_phi") or solvers.l_phi_estimate(constants, "quadratic-g"),
        "solver.L_phi",
        positive=True,
    )
    mu_x = constants.mu_x
    if mu_x <= 0:
        raise ConfigError(
            "solver requires a strongly convex outer objective; "
            "use the regularize block for convex instances"
        )
    kappa_x = l_phi / mu_x
    n, m = _resolve_budgets(solver_cfg, constants, kappa_x, eps)
    agd = AgdConfig.from_constants(constants, n)
    hb = HeavyBallConfig.from_constants(constants, m)
    K = _as_int(_require(solver_cfg, "K", "solver"), "solver.K", minimum=1)
    resolved = {
        "algorithm": algorithm,
        "K": K,
        "N": n,
        "M": m,
        "eps": eps,
        "L_phi": l_phi,
        "mu_x": mu_x,
        "kappa_x": kappa_x,
        "tau_cost": tau_cost,
        "regularize": reg,
    }
    if algorithm == "accbio":
        cfg = solvers.AccBiOConfig(K=K, L_phi=l_phi, mu_x=mu_x, agd=agd, hb=hb, eps=eps)
        return solvers.accbio(oracle, cfg, tau_cost), resolved
    if algorithm == "accbio-bg":
        alpha = _as_float(
            solver_cfg.get("alpha") or 1.0 / (2.0 * l_phi), "solver.alpha", positive=True
        )
        u_bound = solver_cfg.get("U")
        if u_bound is None:
            raise ConfigError(
                "accbio-bg requires a declared outer-gradient bound: set solver.U"
            )
        u_bound = _as_float(u_bound, "solver.U", positive=True)
        cfg = solvers.AccBiOBGConfig(
            K=K, alpha=alpha, mu_x=mu_x, agd=agd, hb=hb, U=u_bound
        )
        resolved.update(alpha=alpha, U=u_bound)
        return solvers.accbio_bg(oracle, cfg, tau_cost), resolved
    if algorithm == "baseline-gd":
        stepsize = _as_float(
            solver_cfg.get("stepsize") or 1.0 / l_phi, "solver.stepsize", positive=True
        )
        resolved.update(stepsize=stepsize)
        return (
            solvers.baseline_aid_gd(oracle, stepsize, K, agd, hb, tau_cost),
            resolved,
        )
    raise ConfigError(f"unknown solver algorithm {algorithm!r}")


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
    """Execute one run; write trace, instance, resolved config, and summary."""
    inst_cfg = _require(cfg, "instance", "config")
    solver_cfg = _require(cfg, "solver", "config")
    seed = _as_int(cfg.get("seed", 0), "seed")
    if tau_cost_override is None:
        tau_cost = _as_float(solver_cfg.get("tau_cost", 2.0), "solver.tau_cost", positive=True)
    else:
        tau_cost = float(tau_cost_override)
    oracle, instance, info = build_instance(inst_cfg)
    trace = None
    try:
        trace, resolved = run_solver(oracle, solver_cfg, tau_cost)
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
        "seed": seed,
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
    point.pop("sweep", None)
    if axis == "kappa_y":
        point["instance"]["kappa_y"] = value
    elif axis == "eps":
        point["solver"]["eps"] = value
        point["solver"].setdefault("N", "auto")
        point["solver"].setdefault("M", "auto")
    elif axis == "d":
        point["instance"]["d"] = _as_int(value, "sweep value for d")
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return point


def _run_point(args):
    point_cfg, out_dir, tau_override = args
    try:
        result = run_experiment(point_cfg, Path(out_dir), tau_override)
        return {"ok": True, **result}
    except BilevelLabError as exc:
        return {"ok": False, "error": str(exc)}


def run_sweep(cfg: dict, out_dir: Path, jobs: int, tau_cost_override: float | None = None) -> int:
    sweep_cfg = _require(cfg, "sweep", "config")
    axis = _require(sweep_cfg, "axis", "sweep")
    values = _require(sweep_cfg, "values", "sweep")
    if not values:
        raise ConfigError("sweep grid is empty")
    tasks = []
    for i, value in enumerate(values):
        point_cfg = _sweep_point_config(cfg, axis, value)
        tasks.append((point_cfg, str(out_dir / f"point_{i:02d}"), tau_cost_override))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
    if all(c is not None for c in complexities) and all(float(v) > 0 for v in values):
        logs_x = np.log(np.asarray(values, dtype=float))
        logs_y = np.log(np.asarray(complexities, dtype=float))
        if len(values) >= 2 and np.ptp(logs_x) > 0:
            meta["loglog_slope"] = float(np.polyfit(logs_x, logs_y, 1)[0])
    _atomic_write(out_dir / "sweep_meta.json", json.dumps(meta, indent=2, sort_keys=True))
    all_failed = all(not r.get("ok") or not r.get("reached_eps") for r in results)
    return EXIT_NUMERIC if all_failed else EXIT_OK


# ---------------------------------------------------------------------------
# lower-bound verification campaign
# ---------------------------------------------------------------------------


def _lb_budgets(lb_cfg: dict, key: str, default: dict) -> dict:
    """A `verify-lb` budget block: exactly the keys K, Q and T, each an integer >= 1.

    The simulator's uniform schedule also needs K divisible by Q and K >= 2Q.
    """
    block, name = lb_cfg.get(key, default), f"lower_bound.{key}"
    if not isinstance(block, dict) or set(block) != {"K", "Q", "T"}:
        raise ConfigError(f"{name} needs exactly the keys K, Q and T, got {block!r}")
    budgets = {k: _as_int(block[k], f"{name}.{k}", minimum=1) for k in ("K", "Q", "T")}
    if budgets["K"] % budgets["Q"] or budgets["K"] < 2 * budgets["Q"]:
        raise ConfigError(
            f"{name} breaks the uniform schedule: needs K divisible by Q and K >= 2Q"
        )
    return budgets


def run_verify_lb(cfg: dict, out_dir: Path, tau_cost_override: float | None = None) -> int:
    """Run the lower-bound battery and emit one pass/fail JSON report."""
    lb_cfg = cfg.get("lower_bound", {})
    if not isinstance(lb_cfg, dict):
        raise ConfigError(f"lower_bound must be an object, got {lb_cfg!r}")
    seed = _as_int(cfg.get("seed", 0), "seed")
    rng = np.random.default_rng(seed)
    inst_cfg = cfg.get("instance", {"kind": "scsc", "preset": "mild"})
    constants = resolve_constants({**inst_cfg, "preset": inst_cfg.get("preset", "mild")})
    corruption = inst_cfg.get("corruption")
    tau_cost = 2.0 if tau_cost_override is None else tau_cost_override
    scsc_dims = lb_cfg.get("scsc_dims", [16, 32])
    if not isinstance(scsc_dims, list) or not scsc_dims:
        raise ConfigError(f"lower_bound.scsc_dims must be a non-empty list, got {scsc_dims!r}")
    scsc_dims = [_as_int(d, "lower_bound.scsc_dims entry", minimum=4) for d in scsc_dims]
    budgets = _lb_budgets(lb_cfg, "budgets", {"K": 10, "Q": 5, "T": 3})
    algorithms = lb_cfg.get("algorithms", ["baseline_aid_gd"])
    known = span_lab.SIMULATOR_ALGORITHMS
    if not isinstance(algorithms, list) or any(a not in known for a in algorithms):
        raise ConfigError(f"lower_bound.algorithms must be a list of {known}, got {algorithms!r}")
    csc_d = _as_int(lb_cfg.get("csc_d", 20), "lower_bound.csc_d", minimum=4)
    csc_budgets = _lb_budgets(lb_cfg, "csc_budgets", {"K": 4, "Q": 2, "T": 3})
    csc_B = _as_float(lb_cfg.get("csc_B", 1.0), "lower_bound.csc_B", positive=True)
    eps_budget = _as_float(lb_cfg.get("rstar_eps", 1e-2), "lower_bound.rstar_eps", positive=True)
    items: dict[str, dict] = {}

    def record(name: str, passed: bool, **measured):
        items[name] = {"passed": bool(passed), **measured}

    # --- strongly-convex family ------------------------------------------------
    def build_scsc_at(d: int):
        return hard_instances.build_scsc(d, constants, btilde_shift=_btilde_shift(corruption, d))

    first = build_scsc_at(scsc_dims[0])
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

    for d in scsc_dims:
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
    for algorithm in algorithms:
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
        )

    # spot check: hypergradient consistency at seeded random points
    fd_devs = []
    for _ in range(3):
        x = rng.standard_normal(first.d)
        fd_devs.append(finite_difference_check(first.oracle, x, 1e-5))
    record("scsc_hypergradient_consistency", max(fd_devs) <= 1e-6, max_deviation=max(fd_devs))

    # --- convex family -----------------------------------------------------------
    csc_constants = dataclasses.replace(constants, mu_x=0.0)
    csc_inst = hard_instances.build_csc(csc_d, csc_constants, csc_B)
    grad_at_star = float(np.linalg.norm(exact_hypergradient(csc_inst.oracle, csc_inst.x_star)))
    record(
        "csc_minimizer",
        grad_at_star <= 1e-9 * float(np.linalg.norm(csc_inst.b_tilde)),
        grad_norm_at_xstar=grad_at_star,
    )
    measured, floor = hard_instances.csc_grad_floor_verify(csc_inst)
    record("csc_grad_floor_static", measured >= floor, measured_min=measured, floor=floor)

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
    )

    rstar = hard_instances.csc_rstar(csc_constants, csc_B, eps_budget)
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


def run_report(directory: str) -> int:
    root = Path(directory)
    if not root.is_dir():
        print(f"not a directory: {directory}", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    for trace_path in sorted(root.rglob("trace.csv")):
        with open(trace_path, encoding="utf-8", newline="") as fh:
            records = list(csv.DictReader(fh, restval=""))
        last = records[-1] if records else {}
        rows.append(
            {
                "artifact": str(trace_path.relative_to(root)),
                "rows": len(records),
                "final_phi_gap": last.get("phi_gap", ""),
                "complexity": last.get("complexity", ""),
            }
        )
    for report_path in sorted(root.rglob("lower_bound_report.json")):
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        rows.append(
            {
                "artifact": str(report_path.relative_to(root)),
                "rows": len(doc.get("items", {})),
                "final_phi_gap": "",
                "complexity": "PASS" if doc.get("passed") else "FAIL",
            }
        )
    header = "artifact,rows,final_phi_gap,complexity"
    body = [
        f"{r['artifact']},{r['rows']},{r['final_phi_gap']},{r['complexity']}" for r in rows
    ]
    print(header)
    for line in body:
        print(line)
    _atomic_write(root / "report.csv", "\n".join([header] + body) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
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
        check_config_keys(cfg)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = Path(args.out or cfg.get("output_dir", "out"))
        if args.verb == "run":
            result = run_experiment(cfg, out_dir, args.tau_cost)
            print(
                f"run complete: status={result['status']} final_gap={result['final_gap']} "
                f"reached_eps={result['reached_eps']}"
            )
            return EXIT_OK
        if args.verb == "sweep":
            return run_sweep(cfg, out_dir, max(1, args.jobs), args.tau_cost)
        if args.verb == "verify-lb":
            return run_verify_lb(cfg, out_dir, args.tau_cost)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BilevelLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
