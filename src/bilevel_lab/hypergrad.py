"""Hypergradient machinery: accelerated inner solver, heavy-ball linear solver,
and the two hypergradient estimators (implicit-differentiation and unrolled).

Everything here runs on the five-query surface alone (gradients,
Hessian-vector and Jacobian-vector products) and never reads an exact
surface, so it works on the counted surface that `oracles.counted` returns.

Budget accounting is exact and is part of the contract: an implicit-style
estimate with budgets (N, M) consumes N+2 gradients, M Hessian-vector products
and 1 Jacobian-vector product; an unrolled estimate with N inner steps consumes
N+2 gradients, N Hessian-vector and N Jacobian-vector products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, InvariantViolationError
from .oracles import SmoothnessConstants


@dataclass(frozen=True)
class AgdConfig:
    """Accelerated inner-descent budget and step constants."""

    N: int
    step: float
    kappa_y: float

    def __post_init__(self):
        if self.N < 1:
            raise InvariantViolationError("AGD step count must be >= 1")
        if self.kappa_y < 1:
            raise InvariantViolationError("kappa_y must be >= 1")
        if self.step <= 0:
            raise InvariantViolationError("AGD step must be positive")

    @classmethod
    def from_constants(cls, constants: SmoothnessConstants, N: int) -> "AgdConfig":
        return cls(N=N, step=1.0 / constants.Ltil_y, kappa_y=constants.kappa_y)

    @property
    def momentum(self) -> float:
        rk = np.sqrt(self.kappa_y)
        return (rk - 1.0) / (rk + 1.0)

    @property
    def extrapolation(self) -> float:
        rk = np.sqrt(self.kappa_y)
        return 2.0 * rk / (rk + 1.0)


@dataclass(frozen=True)
class HeavyBallConfig:
    """Heavy-ball budget and the step/momentum pair tuned to [mu, L]."""

    M: int
    hb_step: float
    hb_momentum: float

    def __post_init__(self):
        if self.M < 1:
            raise InvariantViolationError("heavy-ball step count must be >= 1")
        if self.hb_step <= 0:
            raise InvariantViolationError("heavy-ball step must be positive")
        if not (0.0 <= self.hb_momentum < 1.0):
            raise InvariantViolationError("heavy-ball momentum must be in [0, 1)")

    @classmethod
    def from_bounds(cls, mu: float, L: float, M: int) -> "HeavyBallConfig":
        step = 4.0 / (np.sqrt(L) + np.sqrt(mu)) ** 2
        momentum = max(
            (1.0 - np.sqrt(step * mu)) ** 2, (1.0 - np.sqrt(step * L)) ** 2
        )
        return cls(M=M, hb_step=step, hb_momentum=momentum)

    @classmethod
    def from_constants(cls, constants: SmoothnessConstants, M: int) -> "HeavyBallConfig":
        return cls.from_bounds(constants.mu_y, constants.Ltil_y, M)


@dataclass
class HypergradientEstimate:
    """A hypergradient estimate and the final inner iterate it was taken at."""

    G: np.ndarray
    y: np.ndarray


def _finite(v: np.ndarray) -> bool:
    """Whether every entry of v is finite; a finite v.v settles it in one reduction."""
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


def agd_inner(
    grad: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    cfg: AgdConfig,
    on_iterate: Callable[[np.ndarray], None] | None = None,
) -> np.ndarray:
    """Run N accelerated descent steps on g(x, .) from y0.

    `grad` is the inner gradient y -> grad_y g(x, y) at the fixed outer x,
    as `grad_y_g_at(x)` of an oracle or its counted surface returns it;
    each step calls it once.  `on_iterate` (if given) sees each new iterate;
    it only observes and must not query the counted surface.

    The first step is y_1 = y0 - step*grad(y0).  After it, rows 0 and 1 of
    a (3, q) workspace hold y_(t-1) and y_(t-2) (their roles swap with the
    parity of t, so no iterate is copied to rotate) and row 2 holds
    g = grad(s_t).  One (2, 3) coefficient product gives both
    y_t = c_e y_(t-1) - c_m y_(t-2) - step*g and the next query point
    s_(t+1) = c_e y_t - c_m y_(t-1), expanded over the same three rows.
    Each iterate handed to `on_iterate`, returned, or carried as the
    `last_good` of a divergence is a fresh array that no later step writes
    to, and y0 is never written.
    """
    c_e, c_m, step = cfg.extrapolation, cfg.momentum, cfg.step
    y = y0 - step * grad(y0)
    if not _finite(y):
        raise DivergenceError("inner accelerated descent diverged", step=1, last_good=y0)
    if on_iterate is not None:
        on_iterate(y)
    if cfg.N == 1:
        return y
    s = c_e * y - c_m * y0
    work = np.empty((3, y.shape[0]))
    work[0] = y
    work[1] = y0
    # by parity of t: (coefficients, row that receives y_t); rows 0/1 are
    # (y_(t-1), y_(t-2)) for even t and (y_(t-2), y_(t-1)) for odd t
    coef = np.array([[c_e, -c_m, -step], [c_e * c_e - c_m, -c_e * c_m, -c_e * step]])
    schedule = ((coef, 1), (coef[:, [1, 0, 2]], 0))
    for t in range(2, cfg.N + 1):
        work[2] = grad(s)
        c, row = schedule[t & 1]
        out = c.dot(work)
        y_prev, y, s = y, out[0], out[1]
        if not _finite(y):
            raise DivergenceError("inner accelerated descent diverged", step=t, last_good=y_prev)
        work[row] = y
        if on_iterate is not None:
            on_iterate(y)
    return y


def heavy_ball_solve(
    hess_apply: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    cfg: HeavyBallConfig,
) -> np.ndarray:
    """Approximate H^-1 rhs with M heavy-ball updates from v0 = v1 = 0.

    Each update costs exactly one Hessian-vector product.  The rows of a
    (4, q) workspace hold v_t, v_(t-1), H v_t and rhs (rows 0 and 1 swap
    roles with the parity of t, so no iterate is copied to rotate), and
    v_(t+1) = [1+beta, -beta, -alpha, alpha] . work is one product.  Each
    iterate handed to `hess_apply`, returned, or carried as the `last_good`
    of a divergence is a fresh array that no later step writes to, and rhs
    is never written.
    """
    alpha, beta = cfg.hb_step, cfg.hb_momentum
    v = np.zeros_like(rhs)
    work = np.zeros((4, v.shape[0]))
    work[3] = rhs
    # by parity of t: (coefficients, row that receives v_(t+1)); rows 0/1
    # are (v_t, v_(t-1)) for odd t and (v_(t-1), v_t) for even t
    coef = np.array([1.0 + beta, -beta, -alpha, alpha])
    schedule = ((coef[[1, 0, 2, 3]], 0), (coef, 1))
    for t in range(1, cfg.M + 1):
        work[2] = hess_apply(v)
        c, row = schedule[t & 1]
        v_next = c.dot(work)
        if not _finite(v_next):
            raise DivergenceError("heavy-ball iteration diverged", step=t, last_good=v)
        work[row] = v = v_next
    return v


def hypergradient_error_bound(
    constants: SmoothnessConstants,
    N: int,
    M: int,
    dist_to_xstar: float,
    norm_y_star_at_xstar: float,
    norm_grad_y_f_at_xstar: float,
) -> float:
    """Upper bound on ||G - grad phi(x)|| for the implicit estimator at budgets (N, M).

    Valid for inner initialization y0 = 0; the two terms are the inner-descent
    residual amplified through the linear-system solve and the heavy-ball
    truncation error.
    """
    c = constants
    m_k = norm_y_star_at_xstar + (c.Ltil_xy / c.mu_y) * dist_to_xstar
    n_k = norm_grad_y_f_at_xstar + (c.L_xy + c.L_y * c.Ltil_xy / c.mu_y) * dist_to_xstar
    rho = (np.sqrt(c.kappa_y) - 1.0) / (np.sqrt(c.kappa_y) + 1.0)
    agd_coef = c.L_y + 2.0 * c.Ltil_xy * c.L_y / c.mu_y
    agd_term = (
        np.sqrt((c.Ltil_y + c.mu_y) / c.mu_y)
        * agd_coef
        * m_k
        * np.exp(-N / (2.0 * np.sqrt(c.kappa_y)))
    )
    hb_term = (c.Ltil_xy / c.mu_y) * rho**M * n_k
    return float(agd_term + hb_term)


def aid_estimate(
    oracle,
    x: np.ndarray,
    y0: np.ndarray,
    agd: AgdConfig,
    hb: HeavyBallConfig,
    on_iterate: Callable[[np.ndarray], None] | None = None,
) -> HypergradientEstimate:
    """Implicit-differentiation hypergradient estimate.

    Runs the accelerated inner solver from y0 (handing each iterate to
    `on_iterate`), then heavy-ball on the inner-Hessian linear system, then a
    single Jacobian-vector product.
    """
    # cfg by keyword: perfbench/layers.py reads it from args[3] or kwargs["cfg"]
    y_n = agd_inner(oracle.grad_y_g_at(x), y0, cfg=agd, on_iterate=on_iterate)
    rhs = oracle.grad_y_f(x, y_n)
    v = heavy_ball_solve(oracle.hess_y_g_at(x, y_n), rhs, hb)
    g = oracle.grad_x_f(x, y_n) - oracle.jac_xy_g_vec(x, y_n, v)
    return HypergradientEstimate(G=g, y=y_n)


def itd_estimate(
    oracle,
    x: np.ndarray,
    y0: np.ndarray,
    N: int,
    eta: float,
) -> HypergradientEstimate:
    """Unrolled-differentiation hypergradient estimate.

    Runs N plain gradient steps on g(x, .), then differentiates through the
    unrolled iteration by the reverse recursion, accumulating one
    Jacobian-vector product per inner step.
    """
    if N < 1:
        raise InvariantViolationError("unrolled estimator needs N >= 1")
    if not (0.0 < eta <= 1.0 / oracle.constants.Ltil_y + 1e-15):
        raise InvariantViolationError("eta must lie in (0, 1/Ltil_y]")
    ys = [y0]
    y = y0
    for t in range(1, N + 1):
        y = y - eta * oracle.grad_y_g(x, y)
        if not _finite(y):
            raise DivergenceError("inner gradient descent diverged", step=t, last_good=ys[-1])
        ys.append(y)

    u = oracle.grad_y_f(x, ys[N])
    total = np.zeros(oracle.p)
    for t in range(N - 1, -1, -1):
        total += oracle.jac_xy_g_vec(x, ys[t], u)
        u = u - eta * oracle.hess_y_g_vec(x, ys[t], u)
    g = oracle.grad_x_f(x, ys[N]) - eta * total
    return HypergradientEstimate(G=g, y=ys[N])


def tail_log_slope(
    errors: np.ndarray, window: int = 50, rel_floor: float = 1e-12
) -> float:
    """Least-squares slope of log(errors) over the last `window` samples that
    sit above rel_floor * max(errors).

    Rate checks for momentum methods are asymptotic: early iterations may
    oscillate and late iterations sink below the floating-point noise floor,
    so the fit window is the tail of the reliably measurable regime.
    """
    errors = np.asarray(errors, dtype=np.float64)
    floor = rel_floor * float(np.max(errors))
    usable = np.flatnonzero(errors > floor)
    if usable.size < 2:
        raise ValueError("not enough samples above the noise floor for a slope fit")
    win = usable[-window:]
    slope = np.polyfit(win.astype(np.float64), np.log(errors[win]), 1)[0]
    return float(slope)
