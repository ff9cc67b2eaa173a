"""Structured symmetric operators, dense fallback solvers, and scalar root finding.

The two anti-banded coupling operators built here (the "scsc" and "csc"
flavors) are integer +-1 matrices whose even powers are banded and extend the
support of a vector by at most one coordinate per squared application.  Higher
powers are always realized by repeated application of the base operator; dense
forms exist only as an oracle for solves and eigenvalue checks at desk scale.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .errors import (
    BracketError,
    CapacityError,
    DimensionMismatchError,
    DomainError,
    SingularOperatorError,
)

DENSE_EIG_CAP = 2048
SOLVE_RESIDUAL_TOL = 1e-10
DENSE_SYMMETRY_TOL = 1e-12


def vector(entries, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite float64 vector.

    Raises DimensionMismatchError if `dim` is given and does not match, and
    ValueError on NaN/Inf entries.
    """
    v = np.asarray(entries, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dim {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


class StructuredOperator:
    """A symmetric linear operator applied matrix-free.

    Instances are immutable after construction and safe to share.  `kind` is a
    human-readable tag; `apply` is the only computational contract.
    """

    def __init__(self, kind: str, dim: int, matvec: Callable[[np.ndarray], np.ndarray]):
        if dim <= 0:
            raise DimensionMismatchError("operator dimension must be positive")
        self.kind = kind
        self.dim = dim
        self._matvec = matvec
        self._dense: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"StructuredOperator(kind={self.kind!r}, dim={self.dim})"

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.dim,):
            raise DimensionMismatchError(
                f"operator dim {self.dim} incompatible with vector shape {v.shape}"
            )
        return self._matvec(v)

    def apply_power(self, v: np.ndarray, power: int) -> np.ndarray:
        out = v
        for _ in range(power):
            out = self.apply(out)
        return out

    def to_dense(self) -> np.ndarray:
        """Materialize the operator column by column (cached)."""
        if self._dense is None:
            eye = np.eye(self.dim)
            self._dense = np.column_stack([self.apply(eye[:, j]) for j in range(self.dim)])
        return self._dense


def identity(dim: int) -> StructuredOperator:
    return StructuredOperator("diagonal", dim, lambda v: v.copy())


def diagonal(values) -> StructuredOperator:
    vals = vector(values)
    return StructuredOperator("diagonal", vals.shape[0], lambda v: vals * v)


def tridiagonal(diag, off) -> StructuredOperator:
    d = vector(diag)
    e = vector(off)
    if e.shape[0] != d.shape[0] - 1:
        raise DimensionMismatchError("off-diagonal must have length dim-1")

    def matvec(v: np.ndarray) -> np.ndarray:
        out = d * v
        out[:-1] += e * v[1:]
        out[1:] += e * v[:-1]
        return out

    return StructuredOperator("tridiagonal", d.shape[0], matvec)


def banded(dim: int, bands: Mapping[int, np.ndarray]) -> StructuredOperator:
    """Symmetric banded operator from {offset >= 0: band entries}."""
    stored = {}
    for off, entries in bands.items():
        if off < 0 or off >= dim:
            raise DimensionMismatchError(f"band offset {off} out of range for dim {dim}")
        band = vector(entries)
        if band.shape[0] != dim - off:
            raise DimensionMismatchError(f"band at offset {off} must have length {dim - off}")
        stored[off] = band
    bandwidth = max(stored) if stored else 0

    def matvec(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        for off, band in stored.items():
            if off == 0:
                out += band * v
            else:
                out[:-off] += band * v[off:]
                out[off:] += band * v[:-off]
        return out

    return StructuredOperator(f"banded({bandwidth})", dim, matvec)


def dense(matrix) -> StructuredOperator:
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"dense operator needs a square matrix, got {a.shape}")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > DENSE_SYMMETRY_TOL * max(scale, 1.0):
        raise ValueError("dense operator must be symmetric")
    op = StructuredOperator("dense", a.shape[0], lambda v: a @ v)
    op._dense = a
    return op


def shifted_scaled(base: StructuredOperator, scale: float, shift: float) -> StructuredOperator:
    """scale * base + shift * I."""

    def matvec(v: np.ndarray) -> np.ndarray:
        return scale * base.apply(v) + shift * v

    return StructuredOperator("shifted-scaled", base.dim, matvec)


def anti_banded_z(flavor: str, dim: int) -> StructuredOperator:
    """The +-1 anti-banded coupling operator, in either flavor.

    scsc: entry 1 on the main anti-diagonal (i+j = dim-1, 0-based) and -1 just
    below it (i+j = dim).  csc: entry 1 on i+j = dim-2 and -1 on i+j = dim-1.
    Both are symmetric and invertible; their squares are tridiagonal.
    """
    if flavor == "scsc":

        def matvec(v: np.ndarray) -> np.ndarray:
            w = v[::-1]
            out = w.copy()
            out[1:] -= w[:-1]
            return out

    elif flavor == "csc":

        def matvec(v: np.ndarray) -> np.ndarray:
            w = v[::-1]
            out = -w
            out[:-1] += w[1:]
            return out

    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return StructuredOperator(f"anti-banded-Z-{flavor}", dim, matvec)


def z_power_sum(
    flavor: str, dim: int, coeffs: Mapping[int, float], shift: float = 0.0
) -> StructuredOperator:
    """sum_p coeffs[p] * Z^p + shift * I with Z the anti-banded operator.

    Powers are realized by repeated application of Z, never stored densely.
    """
    z = anti_banded_z(flavor, dim)
    powers = sorted(p for p, c in coeffs.items() if c != 0.0)
    weights = {p: float(coeffs[p]) for p in powers}
    max_power = powers[-1] if powers else 0

    def matvec(v: np.ndarray) -> np.ndarray:
        out = shift * v
        w = v
        for p in range(1, max_power + 1):
            w = z.apply(w)
            if p in weights:
                out = out + weights[p] * w
        return out

    label = "+".join(f"{weights[p]:g}*Z^{p}" for p in powers)
    return StructuredOperator(f"z-power-sum({flavor}:{label};shift={shift:g})", dim, matvec)


def solve_dense(op: StructuredOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve op @ x = rhs by densification.

    Postcondition: relative residual <= SOLVE_RESIDUAL_TOL, else
    SingularOperatorError carrying the estimated condition number.
    """
    if rhs.shape != (op.dim,):
        raise DimensionMismatchError(
            f"operator dim {op.dim} incompatible with rhs shape {rhs.shape}"
        )
    a = op.to_dense()
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise SingularOperatorError("dense solve failed: singular matrix") from None
    residual = np.linalg.norm(a @ x - rhs)
    scale = max(np.linalg.norm(rhs), np.finfo(np.float64).tiny)
    if not np.all(np.isfinite(x)) or residual > SOLVE_RESIDUAL_TOL * scale:
        raise SingularOperatorError(
            f"dense solve residual {residual:.3e} exceeds {SOLVE_RESIDUAL_TOL:.1e} * ||rhs||",
            cond=float(np.linalg.cond(a)),
        )
    return x


def bisect_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Bisection for a sign-changing continuous function on [lo, hi].

    Returns the midpoint of the final bracket once its width is <= tol.
    """
    if not (lo < hi):
        raise BracketError(f"invalid bracket [{lo}, {hi}]")
    if not tol > 0:
        raise BracketError("tolerance must be positive")
    flo, fhi = f(lo), f(hi)
    if not (np.isfinite(flo) and np.isfinite(fhi)):
        raise DomainError(f"non-finite evaluation at bracket ends: f({lo})={flo}, f({hi})={fhi}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}")
    a, b, fa = lo, hi, flo
    max_iter = int(np.ceil(np.log2(max((hi - lo) / tol, 1.0)))) + 4
    for _ in range(max_iter):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        fm = f(mid)
        if not np.isfinite(fm):
            raise DomainError(f"non-finite evaluation at {mid}")
        if fm == 0.0:
            return mid
        if fa * fm < 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def symmetric_eig_extremes(
    op: StructuredOperator, dense_cap: int = DENSE_EIG_CAP
) -> tuple[float, float]:
    """Smallest and largest eigenvalues via dense symmetric eigendecomposition."""
    if op.dim > dense_cap:
        raise CapacityError(f"dim {op.dim} exceeds dense eigendecomposition cap {dense_cap}")
    eigs = np.linalg.eigvalsh(op.to_dense())
    return float(eigs[0]), float(eigs[-1])
