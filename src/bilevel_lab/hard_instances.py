"""Builders for the two worst-case instance families and their certificates.

Both families couple a quadratic outer objective to a quadratic inner problem
through powers of the anti-banded operator Z.  The strongly-convex family
("scsc") carries a geometric approximate minimizer certificate driven by the
root r of a quartic; the convex family ("csc") has an exactly known minimizer
on the all-ones direction plus a lower bound on the achievable gradient norm
over vectors whose last three coordinates vanish.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ConstraintError,
    InfeasibleDimensionError,
    InvariantViolationError,
    SingularOperatorError,
)
from .linalg import StructuredOperator
from .oracles import QuadraticBilevelOracle, QuadraticOuter, SmoothnessConstants

QUARTIC_BRACKET_TOL = 1e-14
QUARTIC_RESIDUAL_CAP = 1e-10
FEASIBLE_DIM_CAP = 4096


# ---------------------------------------------------------------------------
# strongly-convex / strongly-convex family
# ---------------------------------------------------------------------------


@dataclass
class ScscInstance:
    """A materialized strongly-convex-strongly-convex hard instance."""

    d: int
    constants: SmoothnessConstants
    Lbar_xy: float
    alpha: float
    beta: float
    lam_coef: float
    tau_coef: float
    gamma_coef: float
    r: float
    b_tilde: np.ndarray
    b: np.ndarray
    x_hat: np.ndarray
    x_star_dense: np.ndarray
    oracle: QuadraticBilevelOracle

    kind = "scsc"

    @property
    def z(self) -> StructuredOperator:
        return linalg.anti_banded_z("scsc", self.d)


def min_feasible_lbar(constants: SmoothnessConstants) -> float:
    c = constants
    return (c.L_x - c.mu_x) * (c.Ltil_y - c.mu_y) / (2.0 * c.Ltil_xy)


def scsc_coefficients(
    constants: SmoothnessConstants, Lbar_xy: float
) -> tuple[float, float, float, float, float]:
    """Return (alpha, beta, lam_coef, tau_coef, gamma_coef) of the minimizer equation."""
    c = constants
    alpha = (c.L_x - c.mu_x) / 4.0
    beta = (c.Ltil_y - c.mu_y) / 4.0
    denom = beta**2 * c.mu_x + alpha * beta * c.mu_y + beta * Lbar_xy * c.Ltil_xy / 2.0
    if denom <= 0:
        raise ConstraintError(
            "degenerate minimizer equation: needs Ltil_y > mu_y and mu_x > 0"
        )
    lam = (
        2.0 * beta * c.mu_x * c.mu_y
        + alpha * c.mu_y**2
        + c.mu_y * Lbar_xy * c.Ltil_xy / 2.0
        + c.L_y * c.Ltil_xy**2 / 4.0
    ) / denom
    tau = c.mu_x * c.mu_y**2 / denom
    gamma = c.L_y * c.Ltil_xy / (2.0 * denom)
    return alpha, beta, lam, tau, gamma


def scsc_quartic(lam_coef: float, tau_coef: float):
    """The quartic whose root in (0, 1) is the geometric decay factor r."""

    def quartic(r: float) -> float:
        return (
            1.0
            - (4.0 + lam_coef) * r
            + (6.0 + 2.0 * lam_coef + tau_coef) * r**2
            - (4.0 + lam_coef) * r**3
            + r**4
        )

    return quartic


def scsc_bracket_low(lam_coef: float, tau_coef: float) -> float:
    """Lower end of the certified bracket for r; the upper end is 1."""
    xi = lam_coef / (2.0 * tau_coef)
    return 1.0 - 1.0 / (0.5 + math.sqrt(xi + 0.25))


def solve_decay_factor(lam_coef: float, tau_coef: float) -> float:
    quartic = scsc_quartic(lam_coef, tau_coef)
    lo = scsc_bracket_low(lam_coef, tau_coef)
    r = linalg.bisect_root(quartic, lo, 1.0, QUARTIC_BRACKET_TOL)
    residual = abs(quartic(r))
    if residual > QUARTIC_RESIDUAL_CAP:
        raise InvariantViolationError(
            f"quartic residual {residual:.3e} above {QUARTIC_RESIDUAL_CAP:.1e} at r={r}"
        )
    if not (lo < r < 1.0):
        raise InvariantViolationError(f"decay factor r={r} escaped the bracket ({lo}, 1)")
    return r


def _scsc_operators(d, constants, Lbar_xy, alpha, beta, b):
    """Assemble the quadratic outer spec and inner (H, J) for the scsc family.

    The outer objective carries the bilinear x'Z^3 y coupling plus a linear
    correction -(2 alpha beta / Ltil_xy^2) b'Z^2 y; the correction is what
    makes the minimizer equation close in even powers of Z.
    """
    c = constants
    z = linalg.anti_banded_z("scsc", d)
    a_xx = linalg.z_power_sum("scsc", d, {2: alpha}, shift=c.mu_x)
    a_xy = linalg.z_power_sum(
        "scsc", d, {3: -alpha * beta / c.Ltil_xy, 1: Lbar_xy / 2.0}
    )
    a_yy = linalg.z_power_sum("scsc", d, {}, shift=c.L_y)
    z2_b = z.apply_power(b, 2)
    lin_y = (Lbar_xy / c.Ltil_xy) * b - (2.0 * alpha * beta / c.Ltil_xy**2) * z2_b
    outer = QuadraticOuter(a_xx=a_xx, a_yy=a_yy, a_xy=a_xy, lin_y=lin_y)
    h_op = linalg.z_power_sum("scsc", d, {2: beta}, shift=c.mu_y)
    j_op = linalg.z_power_sum("scsc", d, {1: -c.Ltil_xy / 2.0})
    return outer, h_op, j_op


def build_scsc(
    d: int,
    constants: SmoothnessConstants,
    Lbar_xy: float | None = None,
    btilde_shift: np.ndarray | None = None,
) -> ScscInstance:
    """Build the strongly-convex worst-case instance at dimension d.

    `btilde_shift` is added to the certified right-hand side and exists only
    so verification campaigns can exercise their negative controls.
    """
    c = constants
    if d < 4:
        raise ConstraintError("instance dimension must be >= 4")
    if c.mu_x <= 0:
        raise ConstraintError("the scsc family needs mu_x > 0")
    if c.L_x < c.mu_x:
        raise ConstraintError("needs L_x >= mu_x")
    lbar_min = min_feasible_lbar(c)
    if c.L_xy < lbar_min:
        raise ConstraintError(
            f"infeasible cross-smoothness: L_xy={c.L_xy} < {lbar_min} required by the coupling"
        )
    if Lbar_xy is None:
        Lbar_xy = max(c.L_xy, lbar_min)
    if Lbar_xy < 0:
        raise ConstraintError("Lbar_xy must be nonnegative")

    alpha, beta, lam, tau, gamma = scsc_coefficients(c, Lbar_xy)
    r = solve_decay_factor(lam, tau)

    b_tilde = np.zeros(d)
    b_tilde[0] = (2.0 + lam + tau) * r - (3.0 + lam) * r**2 + r**3
    b_tilde[1] = r - 1.0
    if btilde_shift is not None:
        b_tilde = b_tilde + linalg.vector(btilde_shift, d)

    b = linalg.solve_z("scsc", b_tilde / gamma)
    x_hat = r ** np.arange(1, d + 1, dtype=np.float64)

    minimizer_op = linalg.z_power_sum("scsc", d, {4: 1.0, 2: lam}, shift=tau)
    x_star_dense = linalg.banded_ldl(minimizer_op).solve(b_tilde)

    outer, h_op, j_op = _scsc_operators(d, c, Lbar_xy, alpha, beta, b)
    oracle = QuadraticBilevelOracle(h_op, j_op, b, outer, c)

    return ScscInstance(
        d=d,
        constants=c,
        Lbar_xy=Lbar_xy,
        alpha=alpha,
        beta=beta,
        lam_coef=lam,
        tau_coef=tau,
        gamma_coef=gamma,
        r=r,
        b_tilde=b_tilde,
        b=b,
        x_hat=x_hat,
        x_star_dense=x_star_dense,
        oracle=oracle,
    )


def build_scsc_benchmark(
    d: int,
    constants: SmoothnessConstants,
    b_scale: float = 1.0,
    initial_gap: float | None = None,
) -> QuadraticBilevelOracle:
    """A benchmark oracle of the scsc family with a plain right-hand side.

    Unlike `build_scsc` this does not require Ltil_y > mu_y (the bilinear
    Z^3 coupling simply vanishes when the inner problem is perfectly
    conditioned), so it supports condition-number sweeps down to kappa_y = 1.
    When `initial_gap` is given, b is rescaled so phi(0) - phi* equals it
    (the gap is homogeneous of degree two in b), which keeps sweep points
    comparable in outer difficulty.  The rescaled oracle shares the H factor
    and the x* of the one exact-surface pass that measured the gap.
    """
    c = constants
    if c.mu_x <= 0:
        raise ConstraintError("the scsc benchmark needs mu_x > 0")
    alpha = (c.L_x - c.mu_x) / 4.0
    beta = (c.Ltil_y - c.mu_y) / 4.0
    Lbar_xy = max(c.L_xy, min_feasible_lbar(c))
    b = np.zeros(d)
    b[0] = b_scale
    if initial_gap is not None and initial_gap <= 0:
        raise ConstraintError("initial_gap must be positive")
    outer, h_op, j_op = _scsc_operators(d, c, Lbar_xy, alpha, beta, b)
    oracle = QuadraticBilevelOracle(h_op, j_op, b, outer, c)
    if initial_gap is not None:
        gap = oracle.phi(np.zeros(d)) - oracle.phi_star
        oracle = oracle.rescaled(math.sqrt(initial_gap / gap))
    return oracle


def _scsc_dimension_bound(M: int, r: float, lam_coef: float, tau_coef: float) -> float:
    """max(2M, M + 1 + log_r(tau / (4 (7 + lam)))): a feasible d lies strictly above it."""
    if not (0.0 < r < 1.0):
        raise InvariantViolationError("decay factor must lie in (0, 1)")
    ratio = tau_coef / (4.0 * (7.0 + lam_coef))
    return max(2.0 * M, M + 1.0 + math.log(ratio) / math.log(r))


def scsc_feasible_dimension(
    M: int,
    r: float,
    lam_coef: float,
    tau_coef: float,
    cap: int = FEASIBLE_DIM_CAP,
) -> int:
    """Smallest d strictly above both branches of the dimension rule.

    For r close to 1 the log branch explodes, in which case an
    InfeasibleDimensionError carries the required dimension.
    """
    d = int(math.floor(_scsc_dimension_bound(M, r, lam_coef, tau_coef))) + 1
    if d > cap:
        raise InfeasibleDimensionError(
            f"feasible dimension exceeds cap {cap}", required_dim=d
        )
    return d


def scsc_dimension_is_feasible(instance: ScscInstance, M: int) -> bool:
    return instance.d > _scsc_dimension_bound(M, instance.r, instance.lam_coef, instance.tau_coef)


def scsc_gap_floor(instance: ScscInstance, M: int, x0: np.ndarray) -> float:
    """Suboptimality floor (mu_x/2) (||x* - x0|| / (3 sqrt 2))^2 r^(2M).

    Requires the construction's initialization x0 = 0 and a dimension feasible
    for the budget M.
    """
    x0 = linalg.vector(x0, instance.d)
    if np.max(np.abs(x0)) != 0.0:
        raise InvariantViolationError("the gap floor is certified only for x0 = 0")
    if not scsc_dimension_is_feasible(instance, M):
        raise InvariantViolationError(
            f"dimension {instance.d} infeasible for budget M={M}; "
            f"need d={scsc_feasible_dimension(M, instance.r, instance.lam_coef, instance.tau_coef)}"
        )
    dist = float(np.linalg.norm(instance.x_star_dense - x0))
    return 0.5 * instance.constants.mu_x * (dist / (3.0 * math.sqrt(2.0))) ** 2 * instance.r ** (
        2 * M
    )


# ---------------------------------------------------------------------------
# convex / strongly-convex family
# ---------------------------------------------------------------------------


@dataclass
class CscInstance:
    """A materialized convex-strongly-convex hard instance."""

    d: int
    constants: SmoothnessConstants
    B: float
    beta: float
    b_tilde: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    grad_floor: float
    oracle: QuadraticBilevelOracle

    kind = "csc"

    @property
    def z(self) -> StructuredOperator:
        return linalg.anti_banded_z("csc", self.d)


def csc_grad_floor_value(constants: SmoothnessConstants, B: float, d: int) -> float:
    c = constants
    beta = (c.Ltil_y - c.mu_y) / 4.0
    numer = B * (c.Ltil_xy**2 * c.L_y / 4.0 + c.L_x * c.mu_y**2 / 4.0)
    denom = (
        8.0 * c.mu_y**4 * d**4
        + 16.0 * d * beta**4
        + 32.0 * d * beta**3 * c.mu_y
        + 32.0 * d * beta**2 * c.mu_y**2
    )
    return numer / math.sqrt(denom)


def _csc_oracle(d, constants, beta, b) -> QuadraticBilevelOracle:
    """Assemble the csc oracle: outer (L_x/4) Z^2 plus L_y I, inner (H, J) in Z."""
    c = constants
    a_xx = linalg.z_power_sum("csc", d, {2: c.L_x / 4.0})
    a_yy = linalg.z_power_sum("csc", d, {}, shift=c.L_y)
    outer = QuadraticOuter(a_xx=a_xx, a_yy=a_yy)
    h_op = linalg.z_power_sum("csc", d, {2: beta}, shift=c.mu_y)
    j_op = linalg.z_power_sum("csc", d, {1: -c.Ltil_xy / 2.0})
    return QuadraticBilevelOracle(h_op, j_op, b, outer, c)


def build_csc(
    d: int,
    constants: SmoothnessConstants,
    B: float,
    btilde_shift: np.ndarray | None = None,
) -> CscInstance:
    """Build the convex worst-case instance with minimizer (B / sqrt d) * ones."""
    c = constants
    if d < 4:
        raise ConstraintError("instance dimension must be >= 4")
    if B <= 0:
        raise ConstraintError("minimizer norm B must be positive")
    beta = (c.Ltil_y - c.mu_y) / 4.0
    scale = B / math.sqrt(d)

    b_tilde = np.zeros(d)
    b_tilde[0] = scale * (
        1.25 * c.L_x * beta**2
        + c.L_x * beta * c.mu_y
        + c.Ltil_xy**2 * c.L_y / 4.0
        + c.L_x * c.mu_y**2 / 4.0
    )
    b_tilde[1] = scale * (-c.L_x * beta**2 - c.L_x * beta * c.mu_y / 2.0)
    b_tilde[2] = scale * (c.L_x * beta**2 / 4.0)
    if btilde_shift is not None:
        b_tilde = b_tilde + linalg.vector(btilde_shift, d)

    b = linalg.solve_z("csc", (2.0 / (c.L_y * c.Ltil_xy)) * b_tilde)

    return CscInstance(
        d=d,
        constants=c,
        B=B,
        beta=beta,
        b_tilde=b_tilde,
        b=b,
        x_star=np.full(d, scale),
        grad_floor=csc_grad_floor_value(c, B, d),
        oracle=_csc_oracle(d, c, beta, b),
    )


def csc_grad_floor_verify(instance: CscInstance) -> tuple[float, float]:
    """Constrained minimum of ||grad phi|| over {x : last three coords zero}.

    grad phi(x) = A (x - x*) with A = H_phi = H^-2 P, so with E the last
    three unit vectors, W = A^-1 E = P^-1 H^2 E and f = x*_E the minimum over
    {E'x = 0} is sqrt(f' (W'W)^-1 f): two block applies of H, one block solve
    on the cached factor of the cleared system's P, and a 3 x 3 solve, O(d).
    W'W is taken as R'R from the QR of W, so its condition number (about d^3)
    is never formed.  x* is the oracle's own minimizer, so a shifted b_tilde
    is measured as built.  Returns (measured_min, floor); measured_min >=
    floor is the certified relation.
    """
    oracle = instance.oracle
    factor = oracle._cleared_factor()
    if factor is None:
        raise SingularOperatorError("the oracle has no cleared stationarity system")
    d = instance.d
    e_block = np.zeros((d, 3))
    e_block[np.arange(d - 3, d), np.arange(3)] = 1.0
    w = factor.solve(oracle.h_op.apply_block(oracle.h_op.apply_block(e_block)))
    try:
        # f' (R'R)^-1 f = ||R'^-1 f||^2
        coeffs = np.linalg.solve(np.linalg.qr(w, mode="r").T, oracle.x_star[d - 3 :])
    except np.linalg.LinAlgError:
        raise SingularOperatorError("W'W of the constrained minimum is singular") from None
    if not np.all(np.isfinite(coeffs)):
        raise SingularOperatorError("W'W of the constrained minimum is singular to tolerance")
    return float(np.linalg.norm(coeffs)), instance.grad_floor


@dataclass(frozen=True)
class RstarResult:
    """Budget root r* with its residual and right-hand side, and the regime values."""

    r_star: float
    residual: float
    rhs: float
    small_beta_regime: float
    constant_beta_regime: float


def csc_rstar(constants: SmoothnessConstants, B: float, eps: float) -> RstarResult:
    """Solve r^4 + r * C1 = RHS for its unique positive root by bisection."""
    c = constants
    if eps <= 0 or B <= 0:
        raise ConstraintError("B and eps must be positive")
    beta = (c.Ltil_y - c.mu_y) / 4.0
    c1 = (
        2.0 * beta**4 / c.mu_y**4
        + 4.0 * beta**3 / c.mu_y**3
        + 4.0 * beta**2 / c.mu_y**2
    )
    rhs = B**2 * (c.Ltil_xy**2 * c.L_y + c.L_x * c.mu_y**2) ** 2 / (
        128.0 * c.mu_y**4 * eps**2
    )
    hi = max(rhs**0.25, rhs / c1 if c1 > 0 else 0.0) * (1.0 + 1e-9) + 1.0
    root = float(linalg.bisect_root(lambda r: r**4 + c1 * r - rhs, 0.0, hi, 1e-13 * hi))
    small_beta = (
        math.sqrt(B)
        * math.sqrt(c.Ltil_xy**2 * c.L_y + c.L_x * c.mu_y**2)
        / (c.mu_y * math.sqrt(eps))
    )
    constant_beta = (1.0 / math.sqrt(eps)) * min(1.0 / c.mu_y, eps**-1.5)
    return RstarResult(
        r_star=root,
        residual=abs(root**4 + c1 * root - rhs),
        rhs=rhs,
        small_beta_regime=small_beta,
        constant_beta_regime=constant_beta,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _encode_vec(v: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(v, dtype="<f8").tobytes()).decode("ascii")


def _decode_vec(s: str, d: int) -> np.ndarray:
    v = np.frombuffer(base64.b64decode(s.encode("ascii")), dtype="<f8").copy()
    if v.shape[0] != d:
        raise InvariantViolationError(f"decoded vector has length {v.shape[0]}, expected {d}")
    return v


def instance_to_json(instance: ScscInstance | CscInstance) -> str:
    """Serialize an instance; vectors are base64 little-endian float64."""
    if isinstance(instance, ScscInstance):
        doc = {
            "kind": "scsc",
            "d": instance.d,
            "constants": dataclasses.asdict(instance.constants),
            "Lbar_xy": instance.Lbar_xy,
            "derived": {
                "alpha": instance.alpha,
                "beta": instance.beta,
                "lam_coef": instance.lam_coef,
                "tau_coef": instance.tau_coef,
                "gamma_coef": instance.gamma_coef,
                "r": instance.r,
            },
            "vectors": {
                "b_tilde": _encode_vec(instance.b_tilde),
                "b": _encode_vec(instance.b),
                "x_hat": _encode_vec(instance.x_hat),
                "x_star_dense": _encode_vec(instance.x_star_dense),
            },
        }
    elif isinstance(instance, CscInstance):
        doc = {
            "kind": "csc",
            "d": instance.d,
            "constants": dataclasses.asdict(instance.constants),
            "B": instance.B,
            "derived": {"beta": instance.beta, "grad_floor": instance.grad_floor},
            "vectors": {
                "b_tilde": _encode_vec(instance.b_tilde),
                "b": _encode_vec(instance.b),
                "x_star": _encode_vec(instance.x_star),
            },
        }
    else:
        raise TypeError(f"cannot serialize {type(instance)!r}")
    return json.dumps(doc, indent=2, sort_keys=True)


def instance_from_json(text: str) -> ScscInstance | CscInstance:
    """Rebuild an instance bit-exactly from its JSON document.

    Stored vectors and derived scalars are restored verbatim (no re-solves),
    so a serialize/deserialize round trip is exact.
    """
    doc = json.loads(text)
    constants = SmoothnessConstants(**doc["constants"])
    d = doc["d"]
    if doc["kind"] == "scsc":
        derived = doc["derived"]
        b_tilde = _decode_vec(doc["vectors"]["b_tilde"], d)
        b = _decode_vec(doc["vectors"]["b"], d)
        outer, h_op, j_op = _scsc_operators(
            d, constants, doc["Lbar_xy"], derived["alpha"], derived["beta"], b
        )
        oracle = QuadraticBilevelOracle(h_op, j_op, b, outer, constants)
        return ScscInstance(
            d=d,
            constants=constants,
            Lbar_xy=doc["Lbar_xy"],
            alpha=derived["alpha"],
            beta=derived["beta"],
            lam_coef=derived["lam_coef"],
            tau_coef=derived["tau_coef"],
            gamma_coef=derived["gamma_coef"],
            r=derived["r"],
            b_tilde=b_tilde,
            b=b,
            x_hat=_decode_vec(doc["vectors"]["x_hat"], d),
            x_star_dense=_decode_vec(doc["vectors"]["x_star_dense"], d),
            oracle=oracle,
        )
    if doc["kind"] == "csc":
        derived = doc["derived"]
        b = _decode_vec(doc["vectors"]["b"], d)
        return CscInstance(
            d=d,
            constants=constants,
            B=doc["B"],
            beta=derived["beta"],
            b_tilde=_decode_vec(doc["vectors"]["b_tilde"], d),
            b=b,
            x_star=_decode_vec(doc["vectors"]["x_star"], d),
            grad_floor=derived["grad_floor"],
            oracle=_csc_oracle(d, constants, derived["beta"], b),
        )
    raise InvariantViolationError(f"unknown instance kind {doc['kind']!r}")
