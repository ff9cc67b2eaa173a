"""Bilevel problem oracles: the query surface every solver talks to.

An oracle bundles first-order queries (gradients) and second-order
matrix-vector queries (Hessian-vector, Jacobian-vector) for a pair (f, g),
where the outer objective is phi(x) = f(x, y*(x)) and y*(x) minimizes
g(x, .).  Every oracle is a `QuadraticBilevelOracle`: the inner problem is
quadratic in y and the outer objective is quadratic, so each oracle also
carries the exact surface (y_star, phi, grad_phi, phi_star).

Every operator is a polynomial in one anti-banded Z (`linalg`), and the
exact surface is served by banded LDL' factors (`linalg.banded_ldl`):
- H is factored once.  y*(x) = -H^-1 (J x + b) and the hypergradient
  grad_x f - J H^-1 grad_y f then cost one solve each: a scan solve,
  O(d log d), for the hard-instance families' tridiagonal mu_y + beta Z^2.
- The operators commute, so the stationarity equation of phi cleared by
  H^2 is a power sum too.  For both families, their `regularize_convex`
  wraps and `decoupled` (shift-only power sums) it is an even one of degree
  at most 6, i.e. banded (pentadiagonal in the scsc family, whose Z^6 terms
  cancel): x* comes from one banded LDL' solve, and no d x d array is
  formed.  The factor of that system is cached and also serves the convex
  family's gradient floor (`hard_instances.csc_grad_floor_verify`).  An
  oracle without that cleared system (operators of two flavors, or a
  cleared system with odd powers) raises CapabilityError the first time
  x* or the quadratic reduction is asked for, and not before.
The spectrum check is an inertia test on H.  Algorithms see only the counted
surface from `counted`, which carries the five queries and no exact surface;
verification observers read the exact surface of the base oracle, uncounted.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import CapabilityError, ConstraintError, DimensionMismatchError, InvariantViolationError
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

    def __post_init__(self):
        if self.mu_y <= 0:
            raise InvariantViolationError("mu_y must be positive")
        if self.Ltil_y < self.mu_y:
            raise InvariantViolationError("Ltil_y must be >= mu_y")
        for name in ("mu_x", "L_x", "L_y", "L_xy", "Ltil_xy"):
            if getattr(self, name) < 0:
                raise InvariantViolationError(f"{name} must be nonnegative")

    @property
    def kappa_y(self) -> float:
        return self.Ltil_y / self.mu_y


def in_float_range(derive: Callable) -> Callable:
    """`derive`, a function of constants returning floats, raising ConstraintError where
    they leave the float range: an OverflowError of `**`, a ZeroDivisionError, or inf."""

    @functools.wraps(derive)
    def checked(*args):
        try:
            values = derive(*args)
        except ArithmeticError as exc:
            raise ConstraintError(f"{derive.__name__} leaves the float range: {exc}") from None
        if not all(map(math.isfinite, values if isinstance(values, tuple) else (values,))):
            raise ConstraintError(f"{derive.__name__} leaves the float range: {values}")
        return values

    return checked


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

    def values(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """`value` at each column pair of a (p, k) block xs and a (q, k) block ys.

        Every term, the linear ones included, is an element-wise product
        summed down the columns, which numpy does one row at a time for
        k >= 2, so each column's value is the same whatever k is.  (A single
        column is contiguous, and numpy would sum it pairwise.)  A quadratic
        term's product overwrites the fresh block its `apply_block` returned,
        so it allocates no second block.
        """
        val = 0.5 * _column_dots(xs, self.a_xx.apply_block(xs))
        val += 0.5 * _column_dots(ys, self.a_yy.apply_block(ys))
        if self.a_xy is not None:
            val += _column_dots(xs, self.a_xy.apply_block(ys))
        if self.lin_x is not None:
            val += (self.lin_x[:, None] * xs).sum(0)
        if self.lin_y is not None:
            val += (self.lin_y[:, None] * ys).sum(0)
        return val


def _column_dots(block: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """The dot product of each column pair of two (n, k) blocks; `fresh` is overwritten."""
    return np.multiply(block, fresh, out=fresh).sum(0)


class QuadraticBilevelOracle:
    """Oracle for g(x, y) = y'Hy/2 + x'Jy + b'y with a quadratic outer f.

    The five query methods (grad_x_f, grad_y_f, grad_y_g, hess_y_g_vec,
    jac_xy_g_vec) are what algorithms may call; `grad_y_g_at` binds the
    inner gradient to one x and `hess_y_g_at` the Hessian-vector product to
    one (x, y).  Everything else is the exact surface, for
    verification only, computed lazily and cached (see the module docstring):
    phi is evaluated through y*, grad_phi is the exact hypergradient, and
    phi_star is phi at the cached minimizer x_star.
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
            slack = SPECTRUM_SLACK * max(1.0, constants.Ltil_y)
            lo, hi = constants.mu_y - slack, constants.Ltil_y + slack
            if not linalg.spectrum_within(h_op, lo, hi):
                raise InvariantViolationError(
                    f"inner Hessian spectrum not inside "
                    f"[{constants.mu_y:.6g}, {constants.Ltil_y:.6g}] (slack {slack:.1e})"
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

    def grad_y_g_at(self, x) -> Callable[[np.ndarray], np.ndarray]:
        """grad_y_g(x, .) for one fixed x, as a closure: J x is applied once.

        Each call returns (H y + b) + J x, the same sum as grad_y_g(x, y).
        """
        h_apply, b = self.h_op.apply, self.b
        if self.j_op is None:
            return lambda y: h_apply(y) + b
        jx = self.j_op.apply(x)
        return lambda y: h_apply(y) + b + jx

    def hess_y_g_vec(self, x, y, v):
        return self.h_op.apply(v)

    def hess_y_g_at(self, x, y) -> Callable[[np.ndarray], np.ndarray]:
        """hess_y_g_vec(x, y, .) for one fixed (x, y); g is quadratic in y, so it is H's apply."""
        return self.h_op.apply

    def jac_xy_g_vec(self, x, y, v):
        if self.j_op is None:
            return np.zeros(self.p)
        return self.j_op.apply(v)

    # -- verification surface (never counted) ----------------------------------
    def _inner_factor(self) -> linalg.BandedLDL:
        """The LDL' factor of H (cached)."""
        if "h_ldl" not in self._cache:
            self._cache["h_ldl"] = linalg.banded_ldl(self.h_op)
        return self._cache["h_ldl"]

    def y_star(self, x: np.ndarray) -> np.ndarray:
        rhs = self.b if self.j_op is None else self.j_op.apply(x) + self.b
        return -self._inner_factor().solve(rhs)

    def phi(self, x: np.ndarray) -> float:
        return self.outer.value(x, self.y_star(x))

    def grad_phi(self, x: np.ndarray) -> np.ndarray:
        return exact_hypergradient(self, x)

    # -- quadratic reduction of phi --------------------------------------------
    def phi_quadratic_reduction(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (H_phi, c_phi) with grad_phi(x) = H_phi @ x + c_phi, dense.

        That is H^-2 (P, H^2 c_phi) of the cleared system, by block solves on
        the factor of H.
        """
        if "reduction" not in self._cache:
            (p_op, rhs), factor = self._cleared_system(), self._inner_factor()
            h_phi = factor.solve(factor.solve(p_op.to_dense()))
            c_phi = factor.solve(factor.solve(rhs))
            h_phi = h_phi + h_phi.T
            h_phi *= 0.5
            self._cache["reduction"] = (h_phi, c_phi)
        return self._cache["reduction"]

    def _cleared_system(self) -> tuple[StructuredOperator, np.ndarray]:
        """(P, H^2 c_phi): the stationarity equation of phi cleared by H^2 (cached).

        Every operator is a polynomial in one symmetric Z, so they commute,
        and H^2 grad_phi(x) = P x + H^2 c_phi with
        P = H^2 A_xx - 2 H A_xy J + A_yy J^2 and
        H^2 c_phi = H (H lin_x - A_xy b - J lin_y) + A_yy J b.
        P is built as a power sum.  CapabilityError when the operators are
        polynomials in two different Z, or when P has odd powers and so is
        not banded.
        """
        if "cleared" not in self._cache:
            flavor, (h, j, a_xx, a_xy, a_yy) = _z_polynomials(self.h_op, self.j_op, self.outer)
            coeffs = _poly_sum((1.0, h, h, a_xx), (-2.0, h, a_xy, j), (1.0, a_yy, j, j))
            odd = sorted(p for p in coeffs if p % 2)
            if odd:
                raise CapabilityError(
                    f"the cleared stationarity system has odd powers {odd} of Z and is not banded"
                )
            shift = coeffs.pop(0, 0.0)
            p_op = linalg.z_power_sum(flavor, self.p, coeffs, shift)
            self._cache["cleared"] = (p_op, self._cleared_rhs())
        return self._cache["cleared"]

    def _cleared_rhs(self) -> np.ndarray:
        o = self.outer
        inner = np.zeros(self.p) if o.lin_x is None else self.h_op.apply(o.lin_x)
        if o.a_xy is not None:
            inner = inner - o.a_xy.apply(self.b)
        if self.j_op is not None and o.lin_y is not None:
            inner = inner - self.j_op.apply(o.lin_y)
        rhs = self.h_op.apply(inner)
        if self.j_op is not None:
            rhs = rhs + o.a_yy.apply(self.j_op.apply(self.b))
        return rhs

    def _cleared_factor(self) -> linalg.BandedLDL:
        """The LDL' factor of the cleared system's P (cached)."""
        if "p_ldl" not in self._cache:
            self._cache["p_ldl"] = linalg.banded_ldl(self._cleared_system()[0])
        return self._cache["p_ldl"]

    @property
    def x_star(self) -> np.ndarray:
        """Minimizer of phi, solved once: a banded solve of the cleared system."""
        if "x_star" not in self._cache:
            self._cache["x_star"] = -self._cleared_factor().solve(self._cleared_system()[1])
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

    def rescaled(self, scale: float) -> "QuadraticBilevelOracle":
        """This oracle with b and the outer linear terms multiplied by `scale`.

        y*, x* and every gradient scale by `scale` and phi by its square, so
        the copy shares the cached factors of H and of the cleared system's P
        (neither depends on the scale), takes x* rescaled instead of solving
        again, and skips the spectrum check of the same H.
        """
        o = self.outer
        outer = dataclasses.replace(
            o,
            lin_x=None if o.lin_x is None else scale * o.lin_x,
            lin_y=None if o.lin_y is None else scale * o.lin_y,
        )
        copy = QuadraticBilevelOracle(
            self.h_op, self.j_op, scale * self.b, outer, self.constants, validate_spectrum=False
        )
        for key in ("h_ldl", "p_ldl"):
            if key in self._cache:
                copy._cache[key] = self._cache[key]
        if "x_star" in self._cache:
            copy._cache["x_star"] = scale * self._cache["x_star"]
        return copy


# perfbench/layers.py wraps y_star, phi and grad_phi through this name; the
# alias can go once the benchmark hooks QuadraticBilevelOracle directly.
BilevelOracle = QuadraticBilevelOracle


def _poly_sum(*terms) -> dict[int, float]:
    """sum of scale * p1 * p2 * ... over terms (scale, p1, p2, ...); polys are {power: coeff}."""
    total: dict[int, float] = {}
    for scale, *factors in terms:
        product = {0: scale}
        for factor in factors:
            nxt: dict[int, float] = {}
            for p, c in product.items():
                for q, e in factor.items():
                    nxt[p + q] = nxt.get(p + q, 0.0) + c * e
            product = nxt
        for p, c in product.items():
            total[p] = total.get(p, 0.0) + c
    return {p: c for p, c in total.items() if c != 0.0}


def _z_polynomials(h_op, j_op, outer: QuadraticOuter):
    """(flavor, [H, J, A_xx, A_xy, A_yy] as {power: coeff}), all polynomials in one Z.

    An absent operator is the zero polynomial.  CapabilityError when the
    present operators mix flavors or dimensions, and so have no common Z.
    """
    ops = [h_op, j_op, outer.a_xx, outer.a_xy, outer.a_yy]
    present = [op for op in ops if op is not None]
    zs = {(op.poly[0], op.dim) for op in present}
    if len(zs) != 1:
        raise CapabilityError(f"the operators are polynomials in more than one Z: {sorted(zs)}")
    return present[0].poly[0], [{} if op is None else op.poly[1] for op in ops]


def exact_hypergradient(oracle: QuadraticBilevelOracle, x: np.ndarray) -> np.ndarray:
    """Exact grad phi(x) = grad_x f - J H^-1 grad_y f at y*(x), the implicit-function formula.

    That is the solve for y* and one more, on the cached factor of H, for
    H^-1 grad_y f.
    """
    ys = oracle.y_star(x)
    g = oracle.grad_x_f(x, ys)
    if oracle.j_op is None:
        return g
    return g - oracle.j_op.apply(oracle._inner_factor().solve(oracle.grad_y_f(x, ys)))


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

    def grad_y_g_at(self, x) -> Callable[[np.ndarray], np.ndarray]:
        """grad_y_g(x, .) bound to one x (J x applied once); each call counts one gradient."""
        counters, grad = self._counters, self._base.grad_y_g_at(x)

        def counted_grad(y):
            counters.n_G += 1
            return grad(y)

        return counted_grad

    def hess_y_g_vec(self, x, y, v):
        self._counters.n_H += 1
        return self._base.hess_y_g_vec(x, y, v)

    def hess_y_g_at(self, x, y) -> Callable[[np.ndarray], np.ndarray]:
        """hess_y_g_vec(x, y, .) bound to one (x, y); each call counts one Hessian-vector product."""
        counters, h_apply = self._counters, self._base.hess_y_g_at(x, y)

        def counted_hess(v):
            counters.n_H += 1
            return h_apply(v)

        return counted_hess

    def jac_xy_g_vec(self, x, y, v):
        self._counters.n_J += 1
        return self._base.jac_xy_g_vec(x, y, v)


def counted(
    oracle: QuadraticBilevelOracle, tau_cost: float = 2.0
) -> tuple[_CountedOracle, OracleCounters]:
    """Wrap an oracle's five queries so each call increments a fresh counter handle."""
    counters = OracleCounters(tau_cost=tau_cost)
    return _CountedOracle(oracle, counters), counters


# coordinates per block of `finite_difference_gradient`, whose 2 * FD_BLOCK
# points are solved for together.  Measured on x86-64, numpy 2.4 with one
# OpenBLAS thread, on the mild scsc instance (table in CHANGES.md): a whole
# gradient took 3.8 ms at 32 against 4.5 ms at 16 and 5.8 ms at 64 for d=256,
# the size the battery checks; at d=1024, which no workload checks, 16 took
# 61 ms and 32 about 107 ms.
FD_BLOCK = 32


def _phi_columns(oracle: QuadraticBilevelOracle, xs: np.ndarray) -> np.ndarray:
    """phi at each column of a (p, k) block, each from its own y* = -H^-1 (J x + b).

    One block solve on the cached factor serves every column; the outer values
    are taken column-wise.
    """
    if oracle.j_op is None:
        rhs = np.repeat(oracle.b[:, None], xs.shape[1], axis=1)
    else:
        rhs = oracle.j_op.apply_block(xs)
        rhs += oracle.b[:, None]
    ys = oracle._inner_factor().solve(rhs)
    return oracle.outer.values(xs, np.negative(ys, out=ys))


def finite_difference_gradient(oracle: QuadraticBilevelOracle, x: np.ndarray, h: float) -> np.ndarray:
    """Central differences (phi(x + h e_i) - phi(x - h e_i)) / 2h for every coordinate i.

    The points x +- h e_i are evaluated in blocks of FD_BLOCK coordinates by
    `_phi_columns`, so phi at each point still comes from that point's y*.
    Every step of a block is column by column, over at least two columns
    (the pair x +- h e_i), so the block width moves no bit.
    """
    if h <= 0:
        raise InvariantViolationError("finite-difference step h must be positive")
    p = x.shape[0]
    fd = np.empty(p)
    for lo in range(0, p, FD_BLOCK):
        k = min(FD_BLOCK, p - lo)
        rows, cols = lo + np.arange(k), np.arange(k)
        xs = np.repeat(x[:, None], 2 * k, axis=1)
        xs[rows, cols] += h
        xs[rows, k + cols] -= h
        phis = _phi_columns(oracle, xs)
        fd[lo : lo + k] = (phis[:k] - phis[k:]) / (2 * h)
    return fd


def finite_difference_check(oracle: QuadraticBilevelOracle, x: np.ndarray, h: float) -> float:
    """Max deviation between central differences of phi and the exact hypergradient.

    Deviation is measured as ||fd - g||_inf / (1 + ||g||_inf).
    """
    fd = finite_difference_gradient(oracle, x, h)
    g = exact_hypergradient(oracle, x)
    return float(np.max(np.abs(fd - g)) / (1.0 + np.max(np.abs(g))))
