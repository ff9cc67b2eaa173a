"""Outer-loop algorithms, smoothness-constant calculators, and trace plumbing.

Three solvers share one outer loop (`outer_loop`) over the counted five-query
surface: a momentum-accelerated method with cold inner starts, its
warm-started variant for bounded outer gradients, and a plain gradient-descent
baseline.  Each supplies only its query point and update rule; the span
simulator drives the same loop.  Verification is an observer: every oracle
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

import numpy as np

from . import linalg
from .errors import CapabilityError, DivergenceError, InvariantViolationError
from .hypergrad import AgdConfig, HeavyBallConfig, aid_estimate
from .oracles import (
    OracleCounters,
    QuadraticBilevelOracle,
    QuadraticOuter,
    SmoothnessConstants,
    counted,
)

GAP_BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class AccBiOConfig:
    """Budgets and constants for the accelerated solver with cold inner starts."""

    K: int
    L_phi: float
    mu_x: float
    agd: AgdConfig
    hb: HeavyBallConfig
    eps: float

    def __post_init__(self):
        if self.K < 1:
            raise InvariantViolationError("K must be >= 1")
        if not (0 < self.mu_x <= self.L_phi):
            raise InvariantViolationError("needs L_phi >= mu_x > 0")
        if self.eps <= 0:
            raise InvariantViolationError("eps must be positive")

    @property
    def kappa_x(self) -> float:
        return self.L_phi / self.mu_x

    @property
    def momentum(self) -> float:
        rk = np.sqrt(self.kappa_x)
        return (rk - 1.0) / (rk + 1.0)


@dataclass(frozen=True)
class AccBiOBGConfig:
    """Budgets and constants for the warm-started bounded-gradient solver."""

    K: int
    alpha: float
    mu_x: float
    agd: AgdConfig
    hb: HeavyBallConfig
    U: float | None = None
    warm_start: bool = True

    def __post_init__(self):
        if self.K < 1:
            raise InvariantViolationError("K must be >= 1")
        if self.alpha <= 0 or self.mu_x <= 0:
            raise InvariantViolationError("alpha and mu_x must be positive")
        if self.alpha * self.mu_x > 1.0:
            raise InvariantViolationError("needs alpha * mu_x <= 1")

    @property
    def eta_k(self) -> float:
        s = np.sqrt(self.alpha * self.mu_x)
        return s / (s + 2.0)

    @property
    def tau_k(self) -> float:
        return np.sqrt(self.alpha * self.mu_x) / 2.0

    @property
    def beta_k(self) -> float:
        return np.sqrt(self.alpha / self.mu_x)


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

        phi_star is the minimum of phi, so a difference below zero is rounding
        and the gap is recorded as 0.0.
        """
        phi_gap = max(float(self.oracle.phi(point) - self.oracle.phi_star), 0.0)
        grad_norm = float(np.linalg.norm(self.oracle.grad_phi(point)))
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
        self._check_divergence(k, point, phi_gap)

    def _check_divergence(self, k: int, point: np.ndarray, phi_gap: float):
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


def _traced_run(oracle, algorithm, tau_cost, K, agd, hb, rule, warm_start) -> RunTrace:
    """Drive `outer_loop` on a fresh counter handle, recording z every iteration."""
    metered, counters = counted(oracle, tau_cost)
    builder = _TraceBuilder(oracle, counters, algorithm)
    builder.record(0, np.zeros(oracle.p), None, None)
    _, z = outer_loop(
        metered, K, agd, hb, *rule, warm_start, lambda k, x, z, G, xq: builder.record(k, z, G, xq)
    )
    builder.trace.final_point = z.copy()
    return builder.trace


def accbio(oracle: QuadraticBilevelOracle, cfg: AccBiOConfig, tau_cost: float = 2.0) -> RunTrace:
    """Accelerated outer loop with cold inner starts.

    Per iteration: fresh inner accelerated descent from y = 0, an implicit
    hypergradient estimate, the smoothness-step z-update, and the constant-
    momentum x-update.
    """
    rule = accbio_rule(cfg.L_phi, cfg.momentum)
    trace = _traced_run(oracle, "accbio", tau_cost, cfg.K, cfg.agd, cfg.hb, rule, False)
    trace.meta.update(
        K=cfg.K, L_phi=cfg.L_phi, kappa_x=cfg.kappa_x, N=cfg.agd.N, M=cfg.hb.M, eps=cfg.eps
    )
    return trace


def accbio_bg(
    oracle: QuadraticBilevelOracle, cfg: AccBiOBGConfig, tau_cost: float = 2.0
) -> RunTrace:
    """Warm-started accelerated outer loop for oracles with bounded outer gradient."""
    if cfg.U is None:
        raise CapabilityError(
            "the warm-started solver requires a declared outer-gradient bound U"
        )
    eta, tau, beta = cfg.eta_k, cfg.tau_k, cfg.beta_k
    rule = accbio_bg_rule(cfg.alpha, eta, tau, beta)
    trace = _traced_run(
        oracle, "accbio_bg", tau_cost, cfg.K, cfg.agd, cfg.hb, rule, cfg.warm_start
    )
    trace.meta.update(
        K=cfg.K,
        alpha=cfg.alpha,
        eta_k=eta,
        tau_k=tau,
        beta_k=beta,
        N=cfg.agd.N,
        M=cfg.hb.M,
        U=cfg.U,
        warm_start=cfg.warm_start,
    )
    return trace


def baseline_aid_gd(
    oracle: QuadraticBilevelOracle,
    stepsize: float,
    K: int,
    agd: AgdConfig,
    hb: HeavyBallConfig,
    tau_cost: float = 2.0,
) -> RunTrace:
    """Plain outer gradient descent on the implicit hypergradient estimate."""
    if stepsize <= 0:
        raise InvariantViolationError("stepsize must be positive")
    trace = _traced_run(oracle, "baseline_aid_gd", tau_cost, K, agd, hb, gd_rule(stepsize), False)
    trace.meta.update(K=K, stepsize=stepsize, N=agd.N, M=hb.M)
    return trace


@dataclass(frozen=True)
class DeltaStarInputs:
    """Optimum-anchored quantities needed by the general smoothness formula."""

    norm_grad_y_f_star: float
    norm_x_star: float
    phi0_minus_phistar: float


def l_phi_estimate(
    constants: SmoothnessConstants,
    regime: str,
    delta_star: DeltaStarInputs | None = None,
    U: float | None = None,
    eps: float | None = None,
) -> float:
    """Explicit smoothness constant of the outer objective for a given regime.

    `quadratic-g` needs nothing extra; `bounded-gradient` needs U;
    `general-scsc` needs the optimum-anchored DeltaStarInputs plus eps.
    """
    c = constants
    base = c.L_x + 2.0 * c.L_xy * c.Ltil_xy / c.mu_y + c.L_y * c.Ltil_xy**2 / c.mu_y**2
    if regime == "quadratic-g":
        return base
    curvature = (c.Ltil_xy * c.rho_yy / c.mu_y**2 + c.rho_xy / c.mu_y) * (
        1.0 + c.Ltil_xy / c.mu_y
    )
    if regime == "bounded-gradient":
        if U is None:
            raise CapabilityError("bounded-gradient regime requires the gradient bound U")
        return base + curvature * U
    if regime == "general-scsc":
        if delta_star is None or eps is None:
            raise CapabilityError(
                "general regime requires optimum-anchored inputs and a target eps"
            )
        if c.mu_x <= 0:
            raise CapabilityError("general regime requires mu_x > 0")
        radius = np.sqrt(
            (2.0 / c.mu_x) * delta_star.phi0_minus_phistar
            + delta_star.norm_x_star**2
            + eps / c.mu_x
        )
        n_star = delta_star.norm_grad_y_f_star + 3.0 * (
            c.L_xy + c.L_y * c.Ltil_xy / c.mu_y
        ) * radius
        return base + curvature * n_star
    raise ValueError(f"unknown regime {regime!r}")


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
    by the same amount; the inner problem and its exact surface are untouched.
    """
    if eps <= 0 or R <= 0:
        raise InvariantViolationError("eps and R must be positive")
    ridge = eps / R
    new_constants = dataclasses.replace(
        oracle.constants, mu_x=ridge, L_x=oracle.constants.L_x + ridge
    )
    outer = oracle.outer
    new_outer = QuadraticOuter(
        a_xx=linalg.shifted_scaled(outer.a_xx, 1.0, ridge),
        a_yy=outer.a_yy,
        a_xy=outer.a_xy,
        lin_x=outer.lin_x,
        lin_y=outer.lin_y,
    )
    return QuadraticBilevelOracle(
        oracle.h_op,
        oracle.j_op,
        oracle.b,
        new_outer,
        new_constants,
        validate_spectrum=False,
    )
