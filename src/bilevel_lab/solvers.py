"""Outer-loop algorithms, smoothness-constant calculators, and trace plumbing.

Three solvers share one outer loop (`outer_loop`) over the counted five-query
surface: a momentum-accelerated method with cold inner starts, its
warm-started variant for bounded outer gradients, and a plain gradient-descent
baseline.  Each is one row of `ALGORITHMS`, which maps the resolved constants
(L_phi, mu_x and the alpha / stepsize overrides) to its query point, update
rule and trace-meta parameters, and fixes its warm-start flag and the iterate
it reports.  `run` (through `accbio`, `accbio_bg` and `baseline_aid_gd`) and
the span simulator both read that table, so both drive each algorithm the same
way.  Verification is an observer: every oracle
carries the exact surface, which the trace builder reads after each iteration
to record the exact gap, gradient norm and hypergradient error; it never
steers the loop.  Every run owns a private counter handle; traces
snapshot the counters per outer iteration so complexity-vs-accuracy curves
fall out of the records directly.
"""

from __future__ import annotations

import dataclasses
import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import CapabilityError, DivergenceError, InvariantViolationError
from .hypergrad import AgdConfig, HeavyBallConfig, aid_estimate
from .oracles import (
    OracleCounters,
    QuadraticBilevelOracle,
    SmoothnessConstants,
    counted,
    in_float_range,
)

GAP_BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class SolverConfig:
    """Budgets and resolved constants of one run; each algorithm reads what it needs.

    alpha and stepsize are overrides (None for 1/(2 L_phi) and 1/L_phi); mu_x = 0
    is no strong convexity.  U is accbio_bg's outer-gradient bound, eps accbio's target.
    """

    K: int
    agd: AgdConfig
    hb: HeavyBallConfig
    L_phi: float | None = None
    mu_x: float = 0.0
    alpha: float | None = None
    stepsize: float | None = None
    eps: float | None = None
    U: float | None = None

    def __post_init__(self):
        if self.K < 0:
            raise InvariantViolationError("K must be >= 0")
        if self.eps is not None and self.eps <= 0:
            raise InvariantViolationError("eps must be positive")

    @classmethod
    def from_constants(cls, c: SmoothnessConstants, K: int, N: int, M: int, **fields):
        """K iterations, N AGD and M heavy-ball steps at c; L_phi defaults to l_phi_estimate(c)."""
        agd, hb = AgdConfig.from_constants(c, N), HeavyBallConfig.from_constants(c, M)
        return cls(K=K, agd=agd, hb=hb, mu_x=c.mu_x, **{"L_phi": l_phi_estimate(c), **fields})


# the names that callers of the two accelerated solvers use
AccBiOConfig = AccBiOBGConfig = SolverConfig


@dataclass
class TraceRecord:
    """One per-outer-iteration measurement row."""

    k: int
    phi_gap: float
    grad_norm: float
    hypergrad_error: float | None
    n_G: int
    n_J: int
    n_H: int
    complexity: float


@dataclass
class RunTrace:
    """Per-iteration records plus terminal status for one solver run."""

    algorithm: str
    records: list[TraceRecord] = field(default_factory=list)
    status: str = "completed"
    counters: OracleCounters | None = None
    meta: dict = field(default_factory=dict)
    final_point: np.ndarray | None = None

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def first_crossing(self, eps: float) -> TraceRecord | None:
        """First record whose suboptimality gap is <= eps, if any."""
        for rec in self.records:
            if rec.phi_gap <= eps:
                return rec
        return None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def trace_to_csv(trace: RunTrace) -> str:
    """Serialize a trace; the absent hypergradient error of row 0 is an empty field."""
    columns = [f.name for f in dataclasses.fields(TraceRecord)]
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for rec in trace.records:
        out.write(",".join(_fmt(getattr(rec, c)) for c in columns) + "\n")
    return out.getvalue()


class _TraceBuilder:
    """Verification observer of a solver run: one record per outer iteration.

    Reads the exact surface of the base oracle (never counted) and snapshots
    the run's counters.
    """

    def __init__(self, oracle: QuadraticBilevelOracle, counters: OracleCounters, algorithm: str):
        self.oracle = oracle
        self.counters = counters
        self.trace = RunTrace(algorithm=algorithm, counters=counters)
        self.initial_gap: float | None = None

    def record(self, k: int, point: np.ndarray, G: np.ndarray | None, x_eval: np.ndarray | None):
        """Row k at `point`; G is the estimate made at x_eval (both None on row 0).

        phi is quadratic, so phi(z) - phi_star = (z - x_star)' grad_phi(z) / 2,
        read off the gradient the row records anyway: it resolves gaps far
        below one ulp of phi_star.  A value below zero is rounding and the gap
        is recorded as 0.0; a NaN stays NaN.
        """
        grad = self.oracle.grad_phi(point)
        phi_gap = max(0.5 * float((point - self.oracle.x_star) @ grad), 0.0)
        grad_norm = float(np.linalg.norm(grad))
        hypergrad_error = None
        if G is not None:
            hypergrad_error = float(np.linalg.norm(G - self.oracle.grad_phi(x_eval)))
        self.trace.records.append(
            TraceRecord(
                k=k,
                phi_gap=phi_gap,
                grad_norm=grad_norm,
                hypergrad_error=hypergrad_error,
                n_G=self.counters.n_G,
                n_J=self.counters.n_J,
                n_H=self.counters.n_H,
                complexity=self.counters.complexity(),
            )
        )
        if self.initial_gap is None:
            self.initial_gap = phi_gap
        blown_gap = phi_gap > GAP_BLOWUP_FACTOR * max(self.initial_gap, 1e-300)
        if not np.all(np.isfinite(point)) or blown_gap:
            self.trace.status = "diverged"
            raise DivergenceError(
                f"{self.trace.algorithm} diverged", step=k, last_good=point, trace=self.trace
            )


def outer_loop(queries, K, agd, hb, query, update, warm_start, on_outer, on_inner=None):
    """Run K outer iterations from x = z = 0 over the five-query surface `queries`.

    Each iteration estimates the hypergradient G at x_query = query(x, z),
    with the inner solve started from the previous inner iterate if
    `warm_start` and from zero otherwise, then applies
    (x, z) = update(x, z, x_query, G).  Observers see the run but never
    change it: on_outer(k, x, z, G, x_query) after every iteration and
    on_inner(y) on every inner iterate.  They may read the exact surface of
    the base oracle, and may abort the run by raising.  Returns the final
    (x, z).
    """
    x = z = np.zeros(queries.p)
    y = np.zeros(queries.q)
    for k in range(1, K + 1):
        x_query = query(x, z)
        y0 = y if warm_start else np.zeros(queries.q)
        est = aid_estimate(queries, x_query, y0, agd, hb, on_inner)
        x, z = update(x, z, x_query, est.G)
        y = est.y
        on_outer(k, x, z, est.G, x_query)
    return x, z


def _step(cfg: SolverConfig, name: str, scale: float) -> float:
    """cfg.<name>, or scale / L_phi when that is None; positive and finite either way."""
    step = getattr(cfg, name)
    if step is None and cfg.L_phi is not None:
        step = scale / cfg.L_phi
    if step is None or not 0 < step < np.inf:
        raise InvariantViolationError(f"{name} (or {scale!r} / L_phi) must be positive and finite")
    return step


def _query_at_x(x, z):
    return x


def accbio_rule(L_phi: float, momentum: float):
    """(query, update) of AccBiO: smoothness step from x to z, constant momentum to x."""

    def update(x, z, x_query, G):
        z_next = x_query - G / L_phi
        return (1.0 + momentum) * z_next - momentum * z, z_next

    return _query_at_x, update


def accbio_bg_rule(alpha: float, eta: float, tau: float, beta: float):
    """(query, update) of AccBiO-BG: query at the coupling point x_tilde."""

    def query(x, z):
        return eta * x + (1.0 - eta) * z

    def update(x, z, x_tilde, G):
        return tau * x_tilde + (1.0 - tau) * x - beta * G, x_tilde - alpha * G

    return query, update


def gd_rule(stepsize: float):
    """(query, update) of gradient descent: a plain step from x, z tracking x."""

    def update(x, z, x_query, G):
        x_next = x - stepsize * G
        return x_next, x_next

    return _query_at_x, update


def _accbio_setup(cfg: SolverConfig):
    """AccBiO: the smoothness step 1/L_phi and the constant momentum of kappa_x."""
    if cfg.L_phi is None or not 0 < cfg.mu_x <= cfg.L_phi:
        raise InvariantViolationError("accbio needs L_phi >= mu_x > 0")
    kappa_x = cfg.L_phi / cfg.mu_x
    rk = np.sqrt(kappa_x)
    return accbio_rule(cfg.L_phi, (rk - 1.0) / (rk + 1.0)), {"L_phi": cfg.L_phi, "kappa_x": kappa_x}


def _accbio_bg_setup(cfg: SolverConfig):
    """AccBiO-BG: the coupling eta, the averaging tau and the step beta from alpha * mu_x."""
    alpha = _step(cfg, "alpha", 0.5)
    if not 0 < alpha * cfg.mu_x <= 1.0:
        raise InvariantViolationError("accbio_bg needs mu_x > 0 and alpha * mu_x <= 1")
    s = np.sqrt(alpha * cfg.mu_x)
    eta, tau, beta = s / (s + 2.0), s / 2.0, np.sqrt(alpha / cfg.mu_x)
    rule = accbio_bg_rule(alpha, eta, tau, beta)
    return rule, {"alpha": alpha, "eta_k": eta, "tau_k": tau, "beta_k": beta}


def _gd_setup(cfg: SolverConfig):
    """Gradient descent: one plain step of size `stepsize`."""
    stepsize = _step(cfg, "stepsize", 1.0)
    return gd_rule(stepsize), {"stepsize": stepsize}


@dataclass(frozen=True)
class Algorithm:
    """One row of ALGORITHMS: how `run` and the span simulator drive one method.

    `setup(cfg)` maps a SolverConfig to the (query, update) rule and the trace-meta
    parameters; `warm_start` starts each inner solve from the previous inner
    iterate, not zero.  Every row reports z, the gradient-step iterate.
    """

    setup: Callable[[SolverConfig], tuple]
    warm_start: bool

    def drive(self, queries, cfg: SolverConfig, on_outer, on_inner=None):
        """`outer_loop` under this row's rule; returns (final z, meta parameters)."""
        rule, params = self.setup(cfg)
        _, z = outer_loop(
            queries, cfg.K, cfg.agd, cfg.hb, *rule, self.warm_start, on_outer, on_inner
        )
        return z, params


# Warm starts: accbio restarts each inner solve from zero; the support cap
# K + QT + Q + 2 counts inner steps across updates, so the simulator's
# certificate needs the other two warm.  Output: z, the gradient-step
# iterate; the query point x of the accelerated methods extrapolates past it.
ALGORITHMS = {
    "accbio": Algorithm(_accbio_setup, warm_start=False),
    "accbio_bg": Algorithm(_accbio_bg_setup, warm_start=True),
    "baseline_aid_gd": Algorithm(_gd_setup, warm_start=True),
}


def _traced_run(oracle, name: str, cfg: SolverConfig, tau_cost: float, **meta) -> RunTrace:
    """Drive ALGORITHMS[name] on a fresh counter handle, recording its output every iteration."""
    metered, counters = counted(oracle, tau_cost)
    builder = _TraceBuilder(oracle, counters, name)
    builder.record(0, np.zeros(oracle.p), None, None)
    final, params = ALGORITHMS[name].drive(
        metered, cfg, lambda k, x, z, G, xq: builder.record(k, z, G, xq)
    )
    builder.trace.final_point = final.copy()
    builder.trace.meta.update(K=cfg.K, **params, N=cfg.agd.N, M=cfg.hb.M, **meta)
    return builder.trace


def accbio(oracle: QuadraticBilevelOracle, cfg: SolverConfig, tau_cost: float = 2.0) -> RunTrace:
    """Accelerated outer loop with cold inner starts.

    Per iteration: fresh inner accelerated descent from y = 0, an implicit
    hypergradient estimate, the smoothness-step z-update, and the constant-
    momentum x-update.
    """
    return _traced_run(oracle, "accbio", cfg, tau_cost, eps=cfg.eps)


def accbio_bg(
    oracle: QuadraticBilevelOracle, cfg: SolverConfig, tau_cost: float = 2.0
) -> RunTrace:
    """Warm-started accelerated outer loop for oracles with bounded outer gradient."""
    if cfg.U is None:
        raise CapabilityError(
            "the warm-started solver requires a declared outer-gradient bound U"
        )
    warm_start = ALGORITHMS["accbio_bg"].warm_start
    return _traced_run(oracle, "accbio_bg", cfg, tau_cost, U=cfg.U, warm_start=warm_start)


def baseline_aid_gd(
    oracle: QuadraticBilevelOracle, cfg: SolverConfig, tau_cost: float = 2.0
) -> RunTrace:
    """Plain outer gradient descent on the implicit hypergradient estimate."""
    return _traced_run(oracle, "baseline_aid_gd", cfg, tau_cost)


@in_float_range
def l_phi_estimate(constants: SmoothnessConstants) -> float:
    """Explicit smoothness constant of the outer objective phi for a quadratic inner problem."""
    c = constants
    return c.L_x + 2.0 * c.L_xy * c.Ltil_xy / c.mu_y + c.L_y * c.Ltil_xy**2 / c.mu_y**2


def default_inner_budgets(
    constants: SmoothnessConstants, kappa_x: float, eps: float, c: float = 2.0
) -> tuple[int, int]:
    """Default (N, M) per outer iteration: ceil(c sqrt(kappa_y) log(1/eps_inner)).

    eps_inner ties the inner accuracy to the outer target with a safety margin
    that grows with the outer condition number; both budgets are
    user-overridable wherever they are consumed.
    """
    eps_inner = eps / (100.0 * np.sqrt(max(kappa_x, 1.0)))
    n = int(np.ceil(c * np.sqrt(constants.kappa_y) * np.log(1.0 / eps_inner)))
    n = max(n, 1)
    return n, n


def regularize_convex(
    oracle: QuadraticBilevelOracle, eps: float, R: float
) -> QuadraticBilevelOracle:
    """Add an (eps / 2R) ||x||^2 ridge to the outer objective.

    The wrapped oracle is mu_x = eps/R strongly convex in x with L_x shifted
    by the same amount: the ridge is added to the shift of A_xx, a power
    sum in Z again.  The inner problem and its exact surface are untouched.
    """
    if eps <= 0 or R <= 0:
        raise InvariantViolationError("eps and R must be positive")
    ridge = eps / R
    new_constants = dataclasses.replace(
        oracle.constants, mu_x=ridge, L_x=oracle.constants.L_x + ridge
    )
    flavor, coeffs = oracle.outer.a_xx.poly
    a_xx = linalg.StructuredOperator(
        flavor, oracle.outer.a_xx.dim, {**coeffs, 0: coeffs.get(0, 0.0) + ridge}
    )
    new_outer = dataclasses.replace(oracle.outer, a_xx=a_xx)
    return QuadraticBilevelOracle(
        oracle.h_op,
        oracle.j_op,
        oracle.b,
        new_outer,
        new_constants,
        validate_spectrum=False,
    )
