"""Where the benchmark hooks into bilevel_lab, and the per-layer metrics.

Hooks are installed by replacing names where callers look them up: a module
attribute when callers go through the module (`hard_instances.build_scsc`),
every importing module's copy when callers imported the name
(`solvers.aid_estimate`, `span_lab.heavy_ball_solve`), and the class attribute
for methods and properties.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import statistics
import time

from tracing import Patches, Tracer

MODULES = ("linalg", "oracles", "hypergrad", "solvers", "hard_instances", "span_lab", "cli")
QUERIES = ("grad_x_f", "grad_y_f", "grad_y_g", "hess_y_g_vec", "jac_xy_g_vec")
OUTER = ("accbio", "accbio_bg", "baseline_aid_gd")
BUILDERS = ("build_scsc", "build_csc", "build_scsc_benchmark")
CERTIFICATES = (
    "scsc_quartic",
    "scsc_bracket_low",
    "scsc_feasible_dimension",
    "scsc_dimension_is_feasible",
    "scsc_gap_floor",
    "csc_grad_floor_verify",
    "csc_rstar",
)
VERIFIERS = ("verify_support_cap", "verify_gap_floor", "verify_grad_floor")


def _importers(bl, name):
    """The package modules that hold `name` as a module attribute."""
    return [getattr(bl, m) for m in MODULES if name in vars(getattr(bl, m))]


class Meter:
    """Probes that stay on in untraced runs: oracle counters and set-up time.

    Every counter handle a solver or the span simulator creates is kept, so
    the metered complexity `tau*(n_J+n_H)+n_G` is read the same way on every
    workload.  Set-up time is the time spent inside `setup_fns`.
    """

    def __init__(self, bl, setup: tuple[str, tuple[str, ...]]):
        self.bl = bl
        self.setup_module, self.setup_fns = setup
        self.counters: list = []
        self.setup_s = 0.0
        self.setup_calls: list[tuple[str, tuple, dict]] = []
        self._originals: dict = {}

    def reset(self):
        self.counters = []
        self.setup_s = 0.0
        self.setup_calls = []

    def install(self, patches: Patches):
        original = self.bl.oracles.counted

        def counted(*args, **kwargs):
            metered, counters = original(*args, **kwargs)
            self.counters.append(counters)
            return metered, counters

        for module in _importers(self.bl, "counted"):
            patches.set(module, "counted", counted)
        module = getattr(self.bl, self.setup_module)
        for name in self.setup_fns:
            self._originals[name] = getattr(module, name)
            patches.set(module, name, self._timed(name, self._originals[name]))

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            self.setup_calls.append((name, args, kwargs))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_s += time.perf_counter() - start

        return timed

    def replay_setup(self, calls) -> float:
        """Repeat captured set-up calls outside a workload run; returns seconds."""
        start = time.perf_counter()
        for name, args, kwargs in calls:
            self._originals[name](*args, **kwargs)
        return time.perf_counter() - start

    def totals(self) -> dict:
        keys = ("n_G", "n_J", "n_H")
        out = {k: sum(getattr(c, k) for c in self.counters) for k in keys}
        out["complexity"] = sum(c.complexity() for c in self.counters)
        out["runs"] = [[c.n_G, c.n_J, c.n_H] for c in self.counters]
        return out


def _count_steps(key, field, position):
    def after(tracer, args, kwargs, result):
        cfg = args[position] if len(args) > position else kwargs["cfg"]
        tracer.count(key, getattr(cfg, field))

    return after


def _count_failed_check(tracer, args, kwargs, report):
    if not report.passed:
        tracer.count("span_lab.checks_failed")


def _count_record(tracer, args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    tracer.count("solvers.records")
    if k > 0:
        tracer.count("solvers.outer.iterations")


def instrument(bl, tracer: Tracer, patches: Patches) -> None:
    """Wrap the public functions of the seven modules in spans."""

    def wrap_fn(module_name, attr, span, **kw):
        fn = getattr(getattr(bl, module_name), attr)
        wrapped = tracer.wrap(span, fn, **kw)
        for module in _importers(bl, attr):
            if getattr(module, attr) is fn:
                patches.set(module, attr, wrapped)

    def wrap_method(cls, attr, span, **kw):
        raw = vars(cls)[attr]
        if isinstance(raw, property):
            patches.set(cls, attr, property(tracer.wrap(span, raw.fget, **kw)))
        else:
            patches.set(cls, attr, tracer.wrap(span, raw, **kw))

    linalg, oracles = bl.linalg, bl.oracles
    op = linalg.StructuredOperator
    # an apply inside another linalg span (densification, a power sum's
    # inner Z) is that span's own work, not a separate operator apply
    wrap_method(op, "apply", "linalg.apply", skip_under=("linalg.",))
    wrap_method(op, "to_dense", "linalg.to_dense", skip_under=("linalg.to_dense",))
    wrap_fn("linalg", "solve_dense", "linalg.solve_dense")
    wrap_fn("linalg", "symmetric_eig_extremes", "linalg.eig_extremes")
    wrap_fn("linalg", "bisect_root", "linalg.bisect_root")

    for q in QUERIES:
        wrap_method(oracles._CountedOracle, q, f"oracles.query.{q}")
    exact = ("oracles.exact",)
    for attr in ("y_star", "phi", "grad_phi"):
        wrap_method(oracles.BilevelOracle, attr, f"oracles.exact.{attr}", skip_under=exact)
    for attr in ("x_star", "phi_star", "norm_y_star_at_xstar", "norm_grad_y_f_at_xstar"):
        wrap_method(
            oracles.QuadraticBilevelOracle, attr, f"oracles.exact.{attr}", skip_under=exact
        )
    wrap_method(oracles.QuadraticBilevelOracle, "phi_quadratic_reduction", "oracles.reduction")
    wrap_fn("oracles", "exact_hypergradient", "oracles.exact.hypergradient", skip_under=exact)
    wrap_fn("oracles", "finite_difference_check", "oracles.exact.fd_check", skip_under=exact)

    wrap_fn("hypergrad", "agd_inner", "hypergrad.agd_inner",
            after=_count_steps("hypergrad.agd_inner.steps", "N", 3))
    wrap_fn("hypergrad", "heavy_ball_solve", "hypergrad.heavy_ball",
            after=_count_steps("hypergrad.heavy_ball.steps", "M", 2))
    wrap_fn("hypergrad", "aid_estimate", "hypergrad.aid_estimate")
    wrap_fn("hypergrad", "hypergradient_error_bound", "hypergrad.error_bound")

    for attr in OUTER:
        wrap_fn("solvers", attr, f"solvers.outer.{attr}")
    record = bl.solvers._TraceBuilder.record

    def counted_record(*args, **kwargs):
        result = record(*args, **kwargs)
        _count_record(tracer, args, kwargs, result)
        return result

    patches.set(bl.solvers._TraceBuilder, "record", counted_record)
    wrap_fn("solvers", "trace_to_csv", "solvers.trace_to_csv")

    for attr in BUILDERS:
        wrap_fn("hard_instances", attr, f"hard_instances.build.{attr}")
    for attr in CERTIFICATES:
        wrap_fn("hard_instances", attr, f"hard_instances.certificates.{attr}",
                skip_under=("hard_instances.certificates.",))
    wrap_fn("hard_instances", "instance_to_json", "hard_instances.to_json",
            after=lambda t, a, k, r: t.count("hard_instances.to_json.bytes", len(r)))

    wrap_fn("span_lab", "simulate_on_instance", "span_lab.simulate")
    for attr in VERIFIERS:
        wrap_fn("span_lab", attr, f"span_lab.verify.{attr}", after=_count_failed_check)
    wrap_fn("span_lab", "span_projection_residual", "span_lab.span_projection")

    for attr in ("run_experiment", "run_sweep", "run_verify_lb", "build_instance", "run_solver"):
        wrap_fn("cli", attr, f"cli.{attr}")
    wrap_fn("cli", "_atomic_write", "cli.write",
            after=lambda t, a, k, r: t.count("cli.artifact_bytes", len(a[1].encode())))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PER_LAYER = (
    ("linalg.apply.calls", "count"),
    ("linalg.apply.us_per_call", "us"),
    ("linalg.solve_dense.calls", "count"),
    ("linalg.solve_dense.s", "s"),
    ("linalg.solve_dense.ms_per_call", "ms"),
    ("linalg.to_dense.s", "s"),
    ("linalg.eig_extremes.s", "s"),
    ("linalg.self_s", "s"),
    ("oracles.n_G", "count"),
    ("oracles.n_H", "count"),
    ("oracles.n_J", "count"),
    ("oracles.complexity", "count"),
    ("oracles.query.calls", "count"),
    ("oracles.query.us_per_call", "us"),
    ("oracles.exact.calls", "count"),
    ("oracles.exact.s", "s"),
    ("oracles.exact.share", "ratio"),
    ("oracles.reduction.s", "s"),
    ("oracles.reduction.setup_share", "ratio"),
    ("oracles.self_s", "s"),
    ("hypergrad.agd_inner.calls", "count"),
    ("hypergrad.agd_inner.us_per_step", "us"),
    ("hypergrad.heavy_ball.calls", "count"),
    ("hypergrad.heavy_ball.us_per_step", "us"),
    ("hypergrad.aid_estimate.self_s", "s"),
    ("hypergrad.aid_estimate.exact_s", "s"),
    ("hypergrad.self_s", "s"),
    ("solvers.outer.iterations", "count"),
    ("solvers.outer.self_s", "s"),
    ("solvers.verify.s", "s"),
    ("solvers.verify.ms_per_record", "ms"),
    ("solvers.trace_to_csv.s", "s"),
    ("solvers.self_s", "s"),
    ("hard_instances.build.calls", "count"),
    ("hard_instances.build.s", "s"),
    ("hard_instances.certificates.s", "s"),
    ("hard_instances.to_json.s", "s"),
    ("hard_instances.to_json.bytes", "bytes"),
    ("hard_instances.self_s", "s"),
    ("span_lab.simulate.calls", "count"),
    ("span_lab.simulate.self_s", "s"),
    ("span_lab.verify.s", "s"),
    ("span_lab.span_projection.s", "s"),
    ("span_lab.checks_failed", "count"),
    ("span_lab.self_s", "s"),
    ("cli.build_instance.s", "s"),
    ("cli.run_solver.s", "s"),
    ("cli.write.s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("unattributed_s", "s"),
)


def _sum(nodes, attr="total"):
    return sum(getattr(n, attr) for n in nodes)


def _calls(nodes):
    return sum(n.calls for n in nodes)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def _has_ancestor(node, prefix):
    node = node.parent
    while node is not None:
        if node.name.startswith(prefix):
            return True
        node = node.parent
    return False


def layer_metrics(tracer: Tracer, counters: dict, traced: list[float], untraced: list[float]) -> dict:
    """Per-layer figures for one workload call.

    `tracer` and `counters` hold totals over the `len(traced)` traced calls;
    `traced` and `untraced` are the wall times of each traced and untraced call.
    """
    t = tracer
    calls = len(traced)
    traced_total = sum(traced)
    named = t.nodes
    counts = t.counts

    apply_ = named("linalg.apply")
    solve = named("linalg.solve_dense")
    queries = named("oracles.query.")
    exact = named("oracles.exact.")
    reduction = named("oracles.reduction")
    agd = named("hypergrad.agd_inner")
    hb = named("hypergrad.heavy_ball")
    aid = named("hypergrad.aid_estimate")
    outer = named("solvers.outer.")
    records = counts.get("solvers.records", 0)
    verify = [n for n in exact if n.parent.name.startswith("solvers.outer.")]
    builds = named("hard_instances.build.")
    simulate = named("span_lab.simulate")

    raw = {
        "linalg.apply.calls": _calls(apply_),
        "linalg.apply.us_per_call": _ratio(_sum(apply_), _calls(apply_), 1e6),
        "linalg.solve_dense.calls": _calls(solve),
        "linalg.solve_dense.s": _sum(solve),
        "linalg.solve_dense.ms_per_call": _ratio(_sum(solve), _calls(solve), 1e3),
        "linalg.to_dense.s": _sum(named("linalg.to_dense")),
        "linalg.eig_extremes.s": _sum(named("linalg.eig_extremes")),
        "oracles.n_G": counters["n_G"],
        "oracles.n_H": counters["n_H"],
        "oracles.n_J": counters["n_J"],
        "oracles.complexity": counters["complexity"],
        "oracles.query.calls": _calls(queries),
        "oracles.query.us_per_call": _ratio(_sum(queries), _calls(queries), 1e6),
        "oracles.exact.calls": _calls(exact),
        "oracles.exact.s": _sum(exact),
        "oracles.exact.share": _ratio(_sum(exact), traced_total),
        "oracles.reduction.s": _sum(reduction),
        "oracles.reduction.setup_share": _ratio(
            _sum(n for n in reduction if _has_ancestor(n, "hard_instances.build.")),
            _sum(reduction),
        ),
        "hypergrad.agd_inner.calls": _calls(agd),
        "hypergrad.agd_inner.us_per_step": _ratio(
            _sum(agd), counts.get("hypergrad.agd_inner.steps", 0), 1e6
        ),
        "hypergrad.heavy_ball.calls": _calls(hb),
        "hypergrad.heavy_ball.us_per_step": _ratio(
            _sum(hb), counts.get("hypergrad.heavy_ball.steps", 0), 1e6
        ),
        "hypergrad.aid_estimate.self_s": _sum(aid, "self_time"),
        "hypergrad.aid_estimate.exact_s": _sum(
            n for n in exact if n.parent.name == "hypergrad.aid_estimate"
        ),
        "solvers.outer.iterations": counts.get("solvers.outer.iterations", 0),
        "solvers.outer.self_s": _sum(outer, "self_time"),
        "solvers.verify.s": _sum(verify),
        "solvers.verify.ms_per_record": _ratio(_sum(verify), records, 1e3),
        "solvers.trace_to_csv.s": _sum(named("solvers.trace_to_csv")),
        "hard_instances.build.calls": _calls(builds),
        "hard_instances.build.s": _sum(builds),
        "hard_instances.certificates.s": _sum(named("hard_instances.certificates.")),
        "hard_instances.to_json.s": _sum(named("hard_instances.to_json")),
        "hard_instances.to_json.bytes": counts.get("hard_instances.to_json.bytes", 0),
        "span_lab.simulate.calls": _calls(simulate),
        "span_lab.simulate.self_s": _sum(simulate, "self_time"),
        "span_lab.verify.s": _sum(named("span_lab.verify.")),
        "span_lab.span_projection.s": _sum(named("span_lab.span_projection")),
        "span_lab.checks_failed": counts.get("span_lab.checks_failed", 0),
        "cli.build_instance.s": _sum(named("cli.build_instance")),
        "cli.run_solver.s": _sum(named("cli.run_solver")),
        "cli.write.s": _sum(named("cli.write")),
        "cli.artifact_bytes": counts.get("cli.artifact_bytes", 0),
    }
    for module in MODULES:
        raw[f"{module}.self_s"] = _sum(named(module + "."), "self_time")
    per_call = {}
    for key, value in raw.items():
        # ratios are already per unit of work; everything else is a total
        per_call[key] = value if _is_ratio(key) else value / calls
    per_call["trace.wall_s"] = statistics.median(traced)
    per_call["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    per_call["unattributed_s"] = (traced_total - t.covered()) / calls
    units = dict(PER_LAYER)
    return {k: {"value": per_call[k], "unit": units[k]} for k, _ in PER_LAYER}


def _is_ratio(key: str) -> bool:
    return key.endswith(("share", "us_per_call", "us_per_step", "ms_per_call", "ms_per_record"))
