"""Bilevel problem oracles: the query surface every solver talks to.

An oracle bundles first-order queries (gradients) and second-order
matrix-vector queries (Hessian-vector, Jacobian-vector) for a pair (f, g),
where the outer objective is phi(x) = f(x, y*(x)) and y*(x) minimizes
g(x, .).  Every oracle is a `QuadraticBilevelOracle`: the inner problem is
quadratic in y and the outer objective is quadratic, so each oracle also
carries the exact surface (y_star, phi, grad_phi, phi_star).  Algorithms see
only the counted surface from `counted`, which carries the five queries and
no exact surface; verification observers read the exact surface of the base
oracle, uncounted.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import linalg
from .errors import DimensionMismatchError, InvariantViolationError
from .linalg import StructuredOperator

SPECTRUM_SLACK = 1e-8


@dataclass(frozen=True)
class SmoothnessConstants:
    """Curvature constants per unit argument for an (f, g) pair.

    mu_x may be zero (convex outer objective); mu_y must be positive.
    """

    mu_x: float
    mu_y: float
    L_x: float
    L_y: float
    L_xy: float
    Ltil_xy: float
    Ltil_y: float
    rho_xy: float = 0.0
    rho_yy: float = 0.0

    def __post_init__(self):
        if self.mu_y <= 0:
            raise InvariantViolationError("mu_y must be positive")
        if self.Ltil_y < self.mu_y:
            raise InvariantViolationError("Ltil_y must be >= mu_y")
        for name in ("mu_x", "L_x", "L_y", "L_xy", "Ltil_xy", "rho_xy", "rho_yy"):
            if getattr(self, name) < 0:
                raise InvariantViolationError(f"{name} must be nonnegative")

    @property
    def kappa_y(self) -> float:
        return self.Ltil_y / self.mu_y


@dataclass(frozen=True)
class QuadraticOuter:
    """Outer objective f(x, y) = x'Axx x/2 + x'Axy y + y'Ayy y/2 + lx'x + ly'y."""

    a_xx: StructuredOperator
    a_yy: StructuredOperator
    a_xy: StructuredOperator | None = None
    lin_x: np.ndarray | None = None
    lin_y: np.ndarray | None = None

    def grad_x(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        g = self.a_xx.apply(x)
        if self.a_xy is not None:
            g = g + self.a_xy.apply(y)
        if self.lin_x is not None:
            g = g + self.lin_x
        return g

    def grad_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        g = self.a_yy.apply(y)
        if self.a_xy is not None:
            g = g + self.a_xy.apply(x)
        if self.lin_y is not None:
            g = g + self.lin_y
        return g

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        val = 0.5 * x @ self.a_xx.apply(x) + 0.5 * y @ self.a_yy.apply(y)
        if self.a_xy is not None:
            val += x @ self.a_xy.apply(y)
        if self.lin_x is not None:
            val += self.lin_x @ x
        if self.lin_y is not None:
            val += self.lin_y @ y
        return float(val)


class QuadraticBilevelOracle:
    """Oracle for g(x, y) = y'Hy/2 + x'Jy + b'y with a quadratic outer f.

    The five query methods (grad_x_f, grad_y_f, grad_y_g, hess_y_g_vec,
    jac_xy_g_vec) are what algorithms may call.  Everything else is the
    exact surface, for verification only: y*(x) solves the inner problem
    analytically, phi is evaluated through y*, grad_phi is the exact
    hypergradient, and phi_star is computed lazily by solving the dense
    quadratic reduction of phi.
    """

    def __init__(
        self,
        h_op: StructuredOperator,
        j_op: StructuredOperator | None,
        b: np.ndarray,
        outer: QuadraticOuter,
        constants: SmoothnessConstants,
        validate_spectrum: bool = True,
    ):
        q = h_op.dim
        p = outer.a_xx.dim
        b = linalg.vector(b, q)
        if j_op is not None and j_op.dim != q:
            raise DimensionMismatchError("coupling operator dim must match the inner dim")
        if validate_spectrum:
            lo, hi = linalg.symmetric_eig_extremes(h_op)
            slack = SPECTRUM_SLACK * max(1.0, constants.Ltil_y)
            if lo < constants.mu_y - slack or hi > constants.Ltil_y + slack:
                raise InvariantViolationError(
                    f"inner Hessian spectrum [{lo:.6g}, {hi:.6g}] outside "
                    f"[{constants.mu_y:.6g}, {constants.Ltil_y:.6g}]"
                )

        self.p = p
        self.q = q
        self.constants = constants
        self.h_op = h_op
        self.j_op = j_op
        self.b = b
        self.outer = outer
        # bound methods of the outer objective, so a query is one call deep
        self.grad_x_f = outer.grad_x
        self.grad_y_f = outer.grad_y
        self._cache: dict = {}

    # -- counted query surface -------------------------------------------------
    def grad_y_g(self, x, y):
        g = self.h_op.apply(y) + self.b
        if self.j_op is not None:
            g = g + self.j_op.apply(x)
        return g

    def hess_y_g_vec(self, x, y, v):
        return self.h_op.apply(v)

    def jac_xy_g_vec(self, x, y, v):
        if self.j_op is None:
            return np.zeros(self.p)
        return self.j_op.apply(v)

    # -- verification surface (never counted) ----------------------------------
    def y_star(self, x: np.ndarray) -> np.ndarray:
        rhs = -self.b if self.j_op is None else -(self.j_op.apply(x) + self.b)
        return linalg.solve_dense(self.h_op, rhs)

    def phi(self, x: np.ndarray) -> float:
        return self.outer.value(x, self.y_star(x))

    def grad_phi(self, x: np.ndarray) -> np.ndarray:
        return exact_hypergradient(self, x)

    # -- quadratic reduction of phi --------------------------------------------
    def phi_quadratic_reduction(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (H_phi, c_phi) with grad_phi(x) = H_phi @ x + c_phi."""
        if "reduction" not in self._cache:
            h = self.h_op.to_dense()
            s = np.zeros((self.q, self.p)) if self.j_op is None else -np.linalg.solve(
                h, self.j_op.to_dense()
            )
            t = -np.linalg.solve(h, self.b)
            a_xx = self.outer.a_xx.to_dense()
            a_yy = self.outer.a_yy.to_dense()
            a_xy = None if self.outer.a_xy is None else self.outer.a_xy.to_dense()
            h_phi = a_xx + s.T @ a_yy @ s
            c_phi = s.T @ (a_yy @ t)
            if a_xy is not None:
                h_phi = h_phi + a_xy @ s + s.T @ a_xy.T
                c_phi = c_phi + a_xy @ t
            if self.outer.lin_x is not None:
                c_phi = c_phi + self.outer.lin_x
            if self.outer.lin_y is not None:
                c_phi = c_phi + s.T @ self.outer.lin_y
            self._cache["reduction"] = (0.5 * (h_phi + h_phi.T), c_phi)
        return self._cache["reduction"]

    @property
    def x_star(self) -> np.ndarray:
        """Minimizer of phi, solved once from the quadratic reduction."""
        if "x_star" not in self._cache:
            h_phi, c_phi = self.phi_quadratic_reduction()
            self._cache["x_star"] = np.linalg.solve(h_phi, -c_phi)
        return self._cache["x_star"]

    @property
    def phi_star(self) -> float:
        if "phi_star" not in self._cache:
            self._cache["phi_star"] = self.phi(self.x_star)
        return self._cache["phi_star"]

    @property
    def norm_y_star_at_xstar(self) -> float:
        if "ny" not in self._cache:
            self._cache["ny"] = float(np.linalg.norm(self.y_star(self.x_star)))
        return self._cache["ny"]

    @property
    def norm_grad_y_f_at_xstar(self) -> float:
        if "ngyf" not in self._cache:
            xs = self.x_star
            self._cache["ngyf"] = float(
                np.linalg.norm(self.outer.grad_y(xs, self.y_star(xs)))
            )
        return self._cache["ngyf"]


# perfbench/layers.py wraps y_star, phi and grad_phi through this name; the
# alias can go once the benchmark hooks QuadraticBilevelOracle directly.
BilevelOracle = QuadraticBilevelOracle


def exact_hypergradient(oracle: QuadraticBilevelOracle, x: np.ndarray) -> np.ndarray:
    """Exact grad phi(x) through y*(x) and a dense inner-Hessian solve."""
    ys = oracle.y_star(x)
    gy = oracle.grad_y_f(x, ys)
    v = linalg.solve_dense(oracle.h_op, gy)
    return oracle.grad_x_f(x, ys) - oracle.jac_xy_g_vec(x, ys, v)


@dataclass
class OracleCounters:
    """Tallies of counted oracle work with the weighted complexity measure."""

    n_G: int = 0
    n_J: int = 0
    n_H: int = 0
    tau_cost: float = 2.0

    def complexity(self, tau_cost: float | None = None) -> float:
        tau = self.tau_cost if tau_cost is None else tau_cost
        return tau * (self.n_J + self.n_H) + self.n_G

    def snapshot(self) -> "OracleCounters":
        return OracleCounters(self.n_G, self.n_J, self.n_H, self.tau_cost)


class _CountedOracle:
    """The five counted queries of a base oracle, and nothing else.

    Algorithms and span scripts receive this surface; the base oracle's
    verification-only exact surface is not on it.
    """

    def __init__(self, base: QuadraticBilevelOracle, counters: OracleCounters):
        self.p = base.p
        self.q = base.q
        self.constants = base.constants
        self._base = base
        self._counters = counters

    def grad_x_f(self, x, y):
        self._counters.n_G += 1
        return self._base.grad_x_f(x, y)

    def grad_y_f(self, x, y):
        self._counters.n_G += 1
        return self._base.grad_y_f(x, y)

    def grad_y_g(self, x, y):
        self._counters.n_G += 1
        return self._base.grad_y_g(x, y)

    def hess_y_g_vec(self, x, y, v):
        self._counters.n_H += 1
        return self._base.hess_y_g_vec(x, y, v)

    def jac_xy_g_vec(self, x, y, v):
        self._counters.n_J += 1
        return self._base.jac_xy_g_vec(x, y, v)


def counted(
    oracle: QuadraticBilevelOracle, tau_cost: float = 2.0
) -> tuple[_CountedOracle, OracleCounters]:
    """Wrap an oracle's five queries so each call increments a fresh counter handle."""
    counters = OracleCounters(tau_cost=tau_cost)
    return _CountedOracle(oracle, counters), counters


def finite_difference_check(oracle: QuadraticBilevelOracle, x: np.ndarray, h: float) -> float:
    """Max deviation between central differences of phi and the exact hypergradient.

    Deviation is measured as ||fd - g||_inf / (1 + ||g||_inf).
    """
    if h <= 0:
        raise InvariantViolationError("finite-difference step h must be positive")
    g = exact_hypergradient(oracle, x)
    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        step = np.zeros_like(x)
        step[i] = h
        fd[i] = (oracle.phi(x + step) - oracle.phi(x - step)) / (2 * h)
    return float(np.max(np.abs(fd - g)) / (1.0 + np.max(np.abs(g))))
