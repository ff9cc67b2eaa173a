"""Simulate span-respecting algorithms on the hard instances and verify the
predicted support caps, suboptimality floors, and gradient-norm floors.

The simulator pins one concrete schedule for the (K, Q, T) budget accounting:
Q x-update events, each preceded by n_inner = K/Q - 1 inner y-steps, with T
Hessian-vector products inside every hypergradient; the mapping is logged into
the profile so a report is self-describing.  A span-respecting x stays within
the first M coordinates and in the zero chain span{Z^(2j) Z b}; the first
fact is read off the profile's running maximum of the active index, the second
by projecting the final x onto a full-rank QR of the normalized chain basis,
restricted to the rows the chain is supported on.

The built-in algorithms are the rows of `solvers.ALGORITHMS`, driven with the
same rules, warm-start flags and output iterate as `run`, at the smoothness
constant of phi; `SupportProfile` is their observer, recording every x-update
and inner y-step.  Custom scripts receive only the counted five-query surface.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleDimensionError, InvariantViolationError
from .hard_instances import (
    CscInstance,
    ScscInstance,
    scsc_dimension_is_feasible,
    scsc_feasible_dimension,
    scsc_gap_floor,
)
from .linalg import apply_z
from .oracles import counted
from .solvers import ALGORITHMS, SolverConfig

TOL_SUPPORT = 1e-10
TOL_SPAN_RESIDUAL = 1e-8

SIMULATOR_ALGORITHMS = tuple(ALGORITHMS)


def active_index(v: np.ndarray, tol: float = TOL_SUPPORT) -> int:
    """Largest 1-based index whose magnitude exceeds tol * ||v||_inf (0 if none)."""
    magnitude = np.abs(v)
    peak = float(magnitude.max()) if v.size else 0.0
    if peak == 0.0:
        return 0
    idx = np.flatnonzero(magnitude > tol * peak)
    return int(idx[-1]) + 1 if idx.size else 0


def support_cap(kind: str, K: int, Q: int, T: int) -> int:
    """Predicted max support index of x for the given budgets."""
    if kind == "scsc":
        return K + Q * T + Q + 2
    if kind == "csc":
        return K + Q * T - Q + 3
    raise ValueError(f"unknown instance kind {kind!r}")


@dataclass
class SupportProfile:
    """Per-event support observations for one simulated run."""

    budgets: dict
    x_support: list[int] = field(default_factory=list)  # cumulative max per x-update
    y_support: list[int] = field(default_factory=list)  # cumulative max per y-step
    final_x: np.ndarray | None = None
    mapping: dict = field(default_factory=dict)

    def _observe(self, v: np.ndarray, cumulative: list[int]):
        cumulative.append(max(cumulative[-1] if cumulative else 0, active_index(v)))

    def observe_x(self, x: np.ndarray):
        self._observe(x, self.x_support)

    def observe_y(self, y: np.ndarray):
        self._observe(y, self.y_support)

    @property
    def max_x_index(self) -> int:
        return self.x_support[-1] if self.x_support else 0


def _check_budgets(instance, K: int, Q: int, T: int) -> int:
    if Q < 1 or T < 1 or K < 2 * Q:
        raise InvariantViolationError("budgets need Q >= 1, T >= 1, K >= 2Q")
    if K % Q != 0:
        raise InvariantViolationError("K must be divisible by Q (uniform schedule)")
    n_inner = K // Q - 1
    M = support_cap(instance.kind, K, Q, T)
    if instance.kind == "scsc":
        if not scsc_dimension_is_feasible(instance, M):
            required = scsc_feasible_dimension(
                M, instance.r, instance.lam_coef, instance.tau_coef
            )
            raise InfeasibleDimensionError(
                f"dimension {instance.d} infeasible for budgets (K={K}, Q={Q}, T={T})",
                required_dim=required,
            )
    else:
        if M > instance.d - 3:
            raise InfeasibleDimensionError(
                f"budgets imply support cap {M} > d-3 = {instance.d - 3}",
                required_dim=M + 3,
            )
    return n_inner


def simulate_on_instance(
    instance: ScscInstance | CscInstance,
    algorithm,
    budgets: dict,
    tau_cost: float = 2.0,
) -> tuple[np.ndarray, SupportProfile]:
    """Run a span-respecting algorithm under (K, Q, T) budgets and profile it.

    `algorithm` is one of SIMULATOR_ALGORITHMS, run for Q outer iterations
    with n_inner AGD steps and T heavy-ball steps per estimate, or a callable
    receiving the counted query surface and returning the final x (for
    adversarial scripts).  The final iterate is the row's output z, as `run`
    reports it; the profile observes x at every update.
    """
    K, Q, T = budgets["K"], budgets["Q"], budgets["T"]
    n_inner = _check_budgets(instance, K, Q, T)
    metered, counters = counted(instance.oracle, tau_cost)
    profile = SupportProfile(budgets={"K": K, "Q": Q, "T": T})
    profile.mapping = {
        "n_inner_per_update": n_inner,
        "iteration_accounting": "K = Q * (n_inner + 1) update events",
        "hessian_vector_per_hypergradient": T,
        "algorithm": algorithm if isinstance(algorithm, str) else "custom",
    }

    if callable(algorithm):
        x = algorithm(metered, instance.d, budgets)
        profile.observe_x(x)
    elif algorithm in SIMULATOR_ALGORITHMS:
        cfg = SolverConfig.from_constants(instance.constants, Q, n_inner, T)
        profile.observe_x(np.zeros(instance.d))
        x, _ = ALGORITHMS[algorithm].drive(
            metered, cfg, lambda k, x, z, G, x_query: profile.observe_x(x), profile.observe_y
        )
    else:
        raise ValueError(f"unknown simulator algorithm {algorithm!r}")
    profile.final_x = x.copy()
    profile.mapping["counters"] = {
        **vars(counters.snapshot()),
        "complexity": counters.complexity(),
    }
    return x, profile


@dataclass
class LowerBoundReport:
    """Measured quantities and pass flags for one verification item."""

    instance_kind: str
    budgets: dict | None
    predicted_support_cap: int | None
    observed_max_index: int | None = None
    span_residual: float | None = None
    tol_support: float = TOL_SUPPORT
    tol_span: float = TOL_SPAN_RESIDUAL
    gap: float | None = None
    gap_floor: float | None = None
    grad_norm: float | None = None
    grad_floor: float | None = None
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> str:
        doc = {**dataclasses.asdict(self), "passed": self.passed}
        return json.dumps(doc, indent=2, sort_keys=True)


def span_head(instance: ScscInstance | CscInstance, M: int) -> np.ndarray:
    """Columns Z^(2j) (Z b) for j = 0..M on the rows they are supported on.

    The result has 1 + the largest index of a nonzero entry rows, and every
    column is exactly zero below them.  Only Z b is formed at full d.  Each
    Z^2 reaches one row further, so the chain is grown on a head of n rows,
    n = (support of Z b) + M + 2, by the Z of dimension n: while a column
    vanishes on its last two rows, the two +-1 differences of a Z^2 step
    read the same entries there as at full d, so the head is the full
    chain's to the bit.  The cost is O(d + M^2), where the full chain takes
    O(d M).
    """
    return _chain_head(instance.kind, instance.b, M)


def _chain_head(kind: str, b: np.ndarray, M: int) -> np.ndarray:
    first = apply_z(kind, b)
    nonzero = np.flatnonzero(first)
    n = min(b.shape[0], (nonzero[-1] + 1 if nonzero.size else 0) + M + 2)
    basis = np.empty((n, M + 1))
    col = basis[:, 0] = first[:n]
    for j in range(1, M + 1):
        col = basis[:, j] = apply_z(kind, apply_z(kind, col))
    nonzero = np.flatnonzero(np.any(basis != 0.0, axis=1))
    return basis[: nonzero[-1] + 1 if nonzero.size else 0]


def _span_projector(instance: ScscInstance | CscInstance, M: int) -> np.ndarray:
    """Q of the QR of the normalized chain head, built once per instance and cap.

    `verify-lb` checks every algorithm's final iterate against the one run
    instance and cap, so they share one chain and one QR.  The projector is
    kept on the instance, so every new instance builds its own.
    """
    q = instance.span_projectors.get(M)
    if q is None:
        basis = _chain_head(instance.kind, instance.b, M)
        q, _ = np.linalg.qr(basis / np.linalg.norm(basis, axis=0, keepdims=True))
        q.flags.writeable = False
        instance.span_projectors[M] = q
    return q


def span_projection_residual(
    instance: ScscInstance | CscInstance, x: np.ndarray, M: int
) -> float:
    """Relative least-squares distance of x to the reachable subspace.

    The chain's columns vanish below their head (`span_head`), so only x's
    head is projected: the residual is sqrt(||x_h - QQ'x_h||^2 + ||x_tail||^2)
    / ||x||.  Head columns are normalized (their norms grow like 4^j) and the
    projector is the full Q of their QR factorization: every chain direction
    is kept, however small its share of the basis's spectrum.
    """
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return 0.0
    q = _span_projector(instance, M)
    head, tail = x[: q.shape[0]], x[q.shape[0] :]
    off_span = float(np.linalg.norm(head - q @ (q.T @ head)))
    return math.hypot(off_span, float(np.linalg.norm(tail))) / norm


def verify_support_cap(
    profile: SupportProfile, instance: ScscInstance | CscInstance
) -> LowerBoundReport:
    """Check a profiled run against the predicted support cap M.

    Every x-update's active index must stay within M (the profile's running
    maximum), and the final iterate must lie in the chain's span.
    """
    b = profile.budgets
    M = support_cap(instance.kind, b["K"], b["Q"], b["T"])
    report = LowerBoundReport(
        instance_kind=instance.kind, budgets=dict(b), predicted_support_cap=M
    )
    report.observed_max_index = profile.max_x_index
    report.checks["coordinates_within_cap"] = profile.max_x_index <= M
    if profile.final_x is not None:
        resid = span_projection_residual(instance, profile.final_x, M)
        report.span_residual = resid
        report.checks["span_projection"] = resid <= TOL_SPAN_RESIDUAL
    return report


def verify_gap_floor(
    instance: ScscInstance, x_final: np.ndarray, M: int
) -> LowerBoundReport:
    """Suboptimality of x_final must sit above the certified floor."""
    floor = scsc_gap_floor(instance, M, np.zeros(instance.d))
    gap = float(instance.oracle.phi(x_final) - instance.oracle.phi_star)
    report = LowerBoundReport(
        instance_kind="scsc",
        budgets=None,
        predicted_support_cap=M,
        gap=gap,
        gap_floor=floor,
    )
    report.checks["gap_above_floor"] = gap >= floor
    return report


def verify_grad_floor(
    instance: CscInstance, x_final: np.ndarray, M: int
) -> LowerBoundReport:
    """Gradient norm at x_final must sit above the instance's floor."""
    if M > instance.d - 3:
        raise InvariantViolationError(f"needs M <= d-3, got M={M}, d={instance.d}")
    grad_norm = float(np.linalg.norm(instance.oracle.grad_phi(x_final)))
    report = LowerBoundReport(
        instance_kind="csc",
        budgets=None,
        predicted_support_cap=M,
        grad_norm=grad_norm,
        grad_floor=instance.grad_floor,
    )
    report.checks["grad_above_floor"] = grad_norm >= instance.grad_floor
    return report
