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
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import hard_instances, presets, solvers, span_lab
from .errors import BilevelLabError, ConfigError, DivergenceError
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


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing field {key!r} in {where}")
    return cfg[key]


def resolve_constants(inst_cfg: dict) -> SmoothnessConstants:
    preset = inst_cfg.get("preset")
    if preset == "mild":
        base = presets.mild_scsc_constants()
    elif preset == "mild-csc":
        base = presets.mild_csc_constants()
    elif preset == "benchmark":
        base = presets.benchmark_scsc_constants(float(inst_cfg.get("kappa_y", 4.0)))
    elif preset is None:
        base = None
    else:
        raise ConfigError(f"unknown preset {preset!r}")
    overrides = inst_cfg.get("constants")
    if overrides is None:
        if base is None:
            raise ConfigError("instance needs a preset or explicit constants")
        return base
    fields = {} if base is None else dataclasses.asdict(base)
    fields.update(overrides)
    try:
        return SmoothnessConstants(**fields)
    except (TypeError, BilevelLabError) as exc:
        raise ConfigError(f"invalid constants: {exc}") from None


def _decoupled_oracle(d: int) -> QuadraticBilevelOracle:
    constants = SmoothnessConstants(
        mu_x=1.0, mu_y=1.0, L_x=1.0, L_y=1.0, L_xy=0.0, Ltil_xy=0.0, Ltil_y=1.0
    )
    outer = QuadraticOuter(a_xx=identity(d), a_yy=identity(d))
    return QuadraticBilevelOracle(identity(d), None, np.zeros(d), outer, constants)


def _btilde_override(corruption, build_clean):
    """The certified b_tilde with the `btilde3` negative control applied.

    Returns None for a clean build.  `build_clean()` builds the clean instance.
    """
    if corruption is None:
        return None
    if corruption != "btilde3":
        raise ConfigError(f"unknown corruption {corruption!r}")
    override = build_clean().b_tilde.copy()
    override[2] += 0.1
    return override


def build_instance(inst_cfg: dict):
    """Return (oracle, hard_instance_or_None, info dict) for a config block."""
    kind = _require(inst_cfg, "kind", "instance")
    d = int(inst_cfg.get("d", 16))
    corruption = inst_cfg.get("corruption")
    if kind == "decoupled":
        oracle = _decoupled_oracle(d)
        return oracle, None, {"kind": kind, "d": d}
    constants = resolve_constants(inst_cfg)
    if kind == "scsc":
        override = _btilde_override(
            corruption, lambda: hard_instances.build_scsc(d, constants, inst_cfg.get("Lbar_xy"))
        )
        inst = hard_instances.build_scsc(
            d, constants, inst_cfg.get("Lbar_xy"), btilde_override=override
        )
        return inst.oracle, inst, {"kind": kind, "d": d, "corruption": corruption}
    if kind == "csc":
        B = float(inst_cfg.get("B", 1.0))
        override = _btilde_override(
            corruption, lambda: hard_instances.build_csc(d, constants, B)
        )
        inst = hard_instances.build_csc(d, constants, B, btilde_override=override)
        return inst.oracle, inst, {"kind": kind, "d": d, "B": B, "corruption": corruption}
    if kind == "scsc-benchmark":
        initial_gap = inst_cfg.get("initial_gap")
        oracle = hard_instances.build_scsc_benchmark(
            d,
            constants,
            b_scale=float(inst_cfg.get("b_scale", 1.0)),
            initial_gap=None if initial_gap is None else float(initial_gap),
        )
        return oracle, None, {"kind": kind, "d": d, "initial_gap": initial_gap}
    raise ConfigError(f"unknown instance kind {kind!r}")


def _resolve_budgets(solver_cfg: dict, constants: SmoothnessConstants, kappa_x: float, eps: float):
    n_cfg, m_cfg = solver_cfg.get("N", "auto"), solver_cfg.get("M", "auto")
    n_auto, m_auto = solvers.default_inner_budgets(constants, kappa_x, eps)
    n = n_auto if n_cfg == "auto" else int(n_cfg)
    m = m_auto if m_cfg == "auto" else int(m_cfg)
    return n, m


def run_solver(oracle, solver_cfg: dict, tau_cost: float):
    """Run the configured solver; returns (trace, resolved-params dict)."""
    algorithm = _require(solver_cfg, "algorithm", "solver")
    eps = float(solver_cfg.get("eps", 1e-6))
    reg = solver_cfg.get("regularize")
    if reg is not None:
        oracle = solvers.regularize_convex(
            oracle, float(_require(reg, "eps", "regularize")), float(_require(reg, "R", "regularize"))
        )
    constants = oracle.constants
    l_phi = float(solver_cfg.get("L_phi") or solvers.l_phi_estimate(constants, "quadratic-g"))
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
    K = int(_require(solver_cfg, "K", "solver"))
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
        alpha = float(solver_cfg.get("alpha") or 1.0 / (2.0 * l_phi))
        u_bound = solver_cfg.get("U")
        if u_bound is None:
            raise ConfigError(
                "accbio-bg requires a declared outer-gradient bound: set solver.U"
            )
        u_bound = float(u_bound)
        cfg = solvers.AccBiOBGConfig(
            K=K, alpha=alpha, mu_x=mu_x, agd=agd, hb=hb, U=u_bound
        )
        resolved.update(alpha=alpha, U=u_bound)
        return solvers.accbio_bg(oracle, cfg, tau_cost), resolved
    if algorithm == "baseline-gd":
        stepsize = float(solver_cfg.get("stepsize") or 1.0 / l_phi)
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
    seed = int(cfg.get("seed", 0))
    tau_cost = float(
        tau_cost_override
        if tau_cost_override is not None
        else solver_cfg.get("tau_cost", 2.0)
    )
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
        point["instance"]["d"] = int(value)
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


def run_verify_lb(cfg: dict, out_dir: Path, tau_cost_override: float | None = None) -> int:
    """Run the lower-bound battery and emit one pass/fail JSON report."""
    lb_cfg = cfg.get("lower_bound", {})
    seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(seed)
    inst_cfg = cfg.get("instance", {"kind": "scsc", "preset": "mild"})
    constants = resolve_constants({**inst_cfg, "preset": inst_cfg.get("preset", "mild")})
    corruption = inst_cfg.get("corruption")
    tau_cost = 2.0 if tau_cost_override is None else tau_cost_override
    items: dict[str, dict] = {}

    def record(name: str, passed: bool, **measured):
        items[name] = {"passed": bool(passed), **measured}

    # --- strongly-convex family ------------------------------------------------
    scsc_dims = lb_cfg.get("scsc_dims", [16, 32])
    budgets = lb_cfg.get("budgets", {"K": 10, "Q": 5, "T": 3})
    algorithms = lb_cfg.get("algorithms", ["baseline_aid_gd"])

    def build_scsc_at(d: int):
        override = _btilde_override(corruption, lambda: hard_instances.build_scsc(d, constants))
        return hard_instances.build_scsc(d, constants, btilde_override=override)

    first = build_scsc_at(int(scsc_dims[0]))
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
        inst = first if int(d) == first.d else build_scsc_at(int(d))
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
    csc_d = int(lb_cfg.get("csc_d", 20))
    csc_B = float(lb_cfg.get("csc_B", 1.0))
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

    csc_budgets = lb_cfg.get("csc_budgets", {"K": 4, "Q": 2, "T": 3})
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
    )
    record(
        "csc_grad_floor_run",
        grad_report.passed,
        grad_norm=grad_report.grad_norm,
        floor=grad_report.grad_floor,
    )

    eps_budget = float(lb_cfg.get("rstar_eps", 1e-2))
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
