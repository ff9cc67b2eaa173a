"""Structured symmetric operators, dense fallback solvers, and scalar root finding.

Every operator has one representation, a fixed-width row stencil: arrays
`cols` and `vals` of shape (w, dim), where row i holds vals[k, i] at column
cols[k, i].  Applying it is one gather, `(vals * v[cols]).sum(0)`, and its
dense form is one scatter; each constructor builds the stencil directly.

Below SMALL_DIM the kernels switch to ones that carry less interpreter and
indexing overhead, chosen by the dimension alone.  An operator with
dim <= SMALL_DIM scatters its stencil once, at construction, into a private
read-only dense form, and `apply` is then one dense matvec; a tridiagonal
`BandedLDL` of that size solves by a scalar Thomas loop instead of scans.
The stencil stays the only representation: the dense form is derived from
it, and `to_dense` still scatters a fresh array.

The two anti-banded coupling operators built here (the "scsc" and "csc"
flavors) are integer +-1 matrices whose even powers are banded and extend the
support of a vector by at most one coordinate per squared application.  The
power Z^(2k) lives on the window of columns i-k..i+k of row i and Z^(2k+1) on
(d-1-i)-k..(d-1-i)+k+1 (scsc; one column earlier for csc), so a power sum
stores one window per parity, filled by weighted slice-adds of the integer
windows of the powers, which are computed once per (flavor, dim, power).
A power sum remembers its polynomial (`poly`), so products of such operators
can be formed as power sums again.

A power sum of even powers, like `diagonal`, `tridiagonal` and `banded`, has
a banded stencil (`band_form`), read in place; any other stencil is read as
one full band (w = d-1) off its dense form.  `BandedLDL` factors either once,
O(d w^2); a tridiagonal factor above SMALL_DIM solves by recursive-doubling
scans, O(d log d) in about 2 log2(d) vectorized steps.  The same
factorization decides spectrum bounds by inertia (`spectrum_within`), and
`solve_z` inverts Z by a cumulative sum, so the anti-banded families never
need a dense form above SMALL_DIM.  `solve_dense` and
`symmetric_eig_extremes` remain as dense references.
"""

from __future__ import annotations

import functools
from typing import Callable, Mapping

import numpy as np

from .errors import (
    BracketError,
    DimensionMismatchError,
    DomainError,
    SingularOperatorError,
)

# largest dimension served by the small-dimension kernels (dense matvec apply,
# scalar tridiagonal solve).  Measured on x86-64, numpy 2.4 with one OpenBLAS
# thread: a dense matvec beats the stencil gather up to d~128 and the Thomas
# loop beats the scans up to about the same size (table in CHANGES.md); 64
# keeps both clear of the crossover.
SMALL_DIM = 64
SOLVE_RESIDUAL_TOL = 1e-10
# scan coefficients below this are flushed to zero: each term dropped is under
# 2^-64 of the partial sum it multiplies, below the float64 rounding of a solve
SCAN_COEFF_FLOOR = 2.0**-64
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


def _check_dim(dim: int) -> None:
    if dim <= 0:
        raise DimensionMismatchError("operator dimension must be positive")


class StructuredOperator:
    """A symmetric linear operator stored as a fixed-width row stencil.

    `cols` and `vals` have shape (w, dim): row i of the operator holds
    vals[k, i] at column cols[k, i] for k < w, and padding slots hold 0 at
    an in-range column.  `apply` is one gather and `to_dense` one scatter,
    whatever the operator; with dim <= SMALL_DIM, `apply` is a matvec with
    the dense form scattered once at construction.  Instances are immutable
    after construction and safe to share; `kind` is a human-readable tag.
    """

    def __init__(
        self,
        kind: str,
        cols: np.ndarray,
        vals: np.ndarray,
        poly: tuple[str, dict[int, float]] | None = None,
    ):
        _check_dim(cols.shape[1])
        self.kind = kind
        self.dim = cols.shape[1]
        self.cols = cols
        self.vals = vals
        # (flavor, {power: coefficient}) when the operator is a polynomial in
        # the anti-banded Z of that flavor, power 0 being the identity
        self.poly = poly
        self._matrix = None
        if self.dim <= SMALL_DIM:
            matrix = self.to_dense()
            matrix.flags.writeable = False
            self._matrix = matrix

    def __repr__(self) -> str:
        return f"StructuredOperator(kind={self.kind!r}, dim={self.dim})"

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.dim,):
            raise DimensionMismatchError(
                f"operator dim {self.dim} incompatible with vector shape {v.shape}"
            )
        if self._matrix is not None:
            return self._matrix.dot(v)
        return (self.vals * v[self.cols]).sum(0)

    def apply_block(self, block: np.ndarray) -> np.ndarray:
        """Apply to every column of a (dim, k) block; above SMALL_DIM, one gather per slot."""
        if block.ndim != 2 or block.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"operator dim {self.dim} incompatible with block shape {block.shape}"
            )
        if self._matrix is not None:
            return self._matrix @ block
        out = np.zeros(block.shape)
        for cols, vals in zip(self.cols, self.vals):
            out += vals[:, None] * block[cols]
        return out

    def apply_power(self, v: np.ndarray, power: int) -> np.ndarray:
        out = v
        for _ in range(power):
            out = self.apply(out)
        return out

    def to_dense(self) -> np.ndarray:
        """Materialize the operator by one scatter of the stencil (a fresh array)."""
        d = self.dim
        flat = self.cols + d * np.arange(d)
        dense = np.bincount(flat.ravel(), weights=self.vals.ravel(), minlength=d * d)
        return dense.reshape(d, d)


def _window(start: np.ndarray, width: int) -> np.ndarray:
    """Columns start[i] .. start[i] + width - 1 of each row, clipped into range."""
    dim = start.shape[0]
    # minimum/maximum: np.clip costs several times more on stencil-sized arrays
    return np.minimum(np.maximum(start + np.arange(width)[:, None], 0), dim - 1)


def identity(dim: int) -> StructuredOperator:
    _check_dim(dim)
    return StructuredOperator("diagonal", np.arange(dim)[None, :], np.ones((1, dim)))


def diagonal(values) -> StructuredOperator:
    vals = vector(values)
    return StructuredOperator("diagonal", np.arange(vals.shape[0])[None, :], vals[None, :].copy())


def _banded_stencil(dim: int, bands: Mapping[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Window i-w..i+w for bandwidth w; band `off` fills slots w+off and w-off."""
    width = max(bands, default=0)
    vals = np.zeros((2 * width + 1, dim))
    for off, band in bands.items():
        vals[width + off, : dim - off] = band
        vals[width - off, off:] = band
    return _window(np.arange(dim) - width, 2 * width + 1), vals


def tridiagonal(diag, off) -> StructuredOperator:
    d = vector(diag)
    e = vector(off)
    if e.shape[0] != d.shape[0] - 1:
        raise DimensionMismatchError("off-diagonal must have length dim-1")
    return StructuredOperator("tridiagonal", *_banded_stencil(d.shape[0], {0: d, 1: e}))


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
    cols, vals = _banded_stencil(dim, stored)
    return StructuredOperator(f"banded({max(stored, default=0)})", cols, vals)


def dense(matrix) -> StructuredOperator:
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"dense operator needs a square matrix, got {a.shape}")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > DENSE_SYMMETRY_TOL * max(scale, 1.0):
        raise ValueError("dense operator must be symmetric")
    d = a.shape[0]
    # slot k of row i is column k; the column table is a broadcast view
    cols = np.broadcast_to(np.arange(d)[:, None], (d, d))
    return StructuredOperator("dense", cols, a.T.copy())


def shifted_scaled(base: StructuredOperator, scale: float, shift: float) -> StructuredOperator:
    """scale * base + shift * I: the base stencil scaled, with a diagonal slot appended."""
    cols = np.vstack([base.cols, np.arange(base.dim)])
    vals = np.vstack([scale * base.vals, np.full(base.dim, float(shift))])
    poly = None
    if base.poly is not None:
        flavor, coeffs = base.poly
        scaled = {p: scale * c for p, c in coeffs.items()}
        scaled[0] = scaled.get(0, 0.0) + float(shift)
        poly = (flavor, scaled)
    return StructuredOperator("shifted-scaled", cols, vals, poly)


@functools.lru_cache(maxsize=64)
def _z_table(flavor: str, dim: int, power: int) -> np.ndarray:
    """Integer entries of Z^power on its window, shape (power + 1, dim), read-only.

    Entry [k, i] sits at column start + k of row i, where the window starts
    at i - power/2 for an even power, and for an odd power at
    (d-1-i) - (power-1)/2 (scsc) or one column earlier (csc).  Built by the
    row recurrence of Z^p = Z Z^(p-1): scsc row i of Z M is
    M[d-1-i] - M[d-i], csc row i is M[d-2-i] - M[d-1-i].
    """
    if power == 0:
        table = np.ones((1, dim))
    else:
        # column i of `prev` is the window of row d-1-i of Z^(power-1)
        prev = _z_table(flavor, dim, power - 1)[:, ::-1]
        table = np.zeros((power + 1, dim))
        plus, minus = (table[1:], table[:-1]) if power % 2 == 0 else (table[:-1], table[1:])
        if flavor == "scsc":
            plus += prev
            minus[:, 1:] -= prev[:, :-1]
        else:
            plus[:, :-1] += prev[:, 1:]
            minus -= prev
    table.flags.writeable = False
    return table


def _z_stencil(
    flavor: str, dim: int, weights: Mapping[int, float], shift: float
) -> tuple[np.ndarray, np.ndarray]:
    """Stencil of shift * I + sum_p weights[p] * Z^p, one fixed window per parity.

    The even powers and the shift share the window i-k..i+k (k the largest
    even power over 2); the odd powers share the window of the largest odd
    power.  Within a window the shift is placed first and the weighted powers
    are added in ascending order, so each entry of a one-parity sum is
    rounded exactly as in the accumulation shift*I + c_p Z^p + ... .
    """
    if flavor not in ("scsc", "csc"):
        raise ValueError(f"unknown flavor {flavor!r}")
    _check_dim(dim)
    rows = np.arange(dim)
    blocks = []
    for parity in (0, 1):
        powers = [p for p in sorted(weights) if p % 2 == parity]
        if not powers and (parity or shift == 0.0):
            continue
        half = max(powers, default=0) // 2
        vals = np.zeros((2 * half + 1 + parity, dim))
        if parity == 0:
            vals[half] = shift
            start = rows - half
        else:
            start = (dim - 1 - rows) - half - (flavor == "csc")
        for p in powers:
            off = half - p // 2
            vals[off : off + p + 1] += weights[p] * _z_table(flavor, dim, p)
        blocks.append((_window(start, vals.shape[0]), vals))
    if not blocks:  # the zero operator
        return rows[None, :], np.zeros((1, dim))
    cols, vals = zip(*blocks)
    return np.vstack(cols), np.vstack(vals)


def anti_banded_z(flavor: str, dim: int) -> StructuredOperator:
    """The +-1 anti-banded coupling operator, in either flavor.

    scsc: entry 1 on the main anti-diagonal (i+j = dim-1, 0-based) and -1 just
    below it (i+j = dim).  csc: entry 1 on i+j = dim-2 and -1 on i+j = dim-1.
    Both are symmetric and invertible; their squares are tridiagonal.
    """
    return StructuredOperator(
        f"anti-banded-Z-{flavor}", *_z_stencil(flavor, dim, {1: 1.0}, 0.0), (flavor, {1: 1.0})
    )


def z_power_sum(
    flavor: str, dim: int, coeffs: Mapping[int, float], shift: float = 0.0
) -> StructuredOperator:
    """sum_p coeffs[p] * Z^p + shift * I with Z the anti-banded operator.

    The stencil is built from the cached integer windows of the powers of Z,
    never from a dense form.
    """
    powers = sorted(p for p, c in coeffs.items() if c != 0.0)
    if powers and powers[0] < 1:
        raise ValueError("powers must be >= 1; the identity term is the shift")
    weights = {p: float(coeffs[p]) for p in powers}
    label = "+".join(f"{weights[p]:g}*Z^{p}" for p in powers)
    poly = dict(weights)
    if shift != 0.0:
        poly[0] = float(shift)
    return StructuredOperator(
        f"z-power-sum({flavor}:{label};shift={shift:g})",
        *_z_stencil(flavor, dim, weights, float(shift)),
        (flavor, poly),
    )


def solve_dense(op: StructuredOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve op @ x = rhs by densification, for a (dim,) or (dim, k) rhs.

    Postcondition, per column of rhs: relative residual <= SOLVE_RESIDUAL_TOL,
    else SingularOperatorError carrying the estimated condition number.
    """
    if rhs.ndim not in (1, 2) or rhs.shape[0] != op.dim:
        raise DimensionMismatchError(
            f"operator dim {op.dim} incompatible with rhs shape {rhs.shape}"
        )
    a = op.to_dense()
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise SingularOperatorError("dense solve failed: singular matrix") from None
    residual = np.linalg.norm(a @ x - rhs, axis=0)
    scale = np.maximum(np.linalg.norm(rhs, axis=0), np.finfo(np.float64).tiny)
    if not np.all(np.isfinite(x)) or np.any(residual > SOLVE_RESIDUAL_TOL * scale):
        worst = float(np.max(residual / scale))
        raise SingularOperatorError(
            f"dense solve relative residual {worst:.3e} exceeds {SOLVE_RESIDUAL_TOL:.1e}",
            cond=float(np.linalg.cond(a)),
        )
    return x


def band_form(op: StructuredOperator) -> np.ndarray | None:
    """The lower bands of a banded operator, or None when its stencil is not banded.

    A stencil is banded when row i holds the window of columns i-w..i+w, the
    form of `diagonal`, `tridiagonal`, `banded` and of a power sum of even
    powers only.  Row m of the result holds the entries A[i, i-m] (zero for
    i < m), read from the stencil without a copy.
    """
    rows = op.cols.shape[0]
    if rows % 2 == 0:
        return None
    w = rows // 2
    if not np.array_equal(op.cols, _window(np.arange(op.dim) - w, rows)):
        return None
    return op.vals[w::-1]


def _scan_levels(coef: np.ndarray) -> list[np.ndarray]:
    """Per-level coefficients of the recursive-doubling scan of z_i = r_i + coef_i z_(i-1).

    coef_0 must be 0.  Level k adds coef^(k)_i z_(i-2^k), where coef^(k) is
    the product of 2^k consecutive coefficients.  Products below
    SCAN_COEFF_FLOOR are flushed to zero (left in, they decay into subnormal
    arithmetic), and the scan stops at the first level with no coefficient
    left.
    """
    c = coef.copy()
    levels = []
    s = 1
    while s < c.shape[0]:
        level = c[s:]
        level[np.abs(level) < SCAN_COEFF_FLOOR] = 0.0
        if not level.any():
            break
        levels.append(level.copy())
        level *= c[:-s].copy()
        s *= 2
    return levels


def _scan(z: np.ndarray, levels: list[np.ndarray], backward: bool = False) -> None:
    """Run a first-order linear recurrence in place over precomputed scan levels.

    Forward levels add coef * z[i - 2^k] to z[i]; backward levels, stored in
    the same orientation as z, add coef * z[i + 2^k].  z may carry extra
    trailing axes (a block of right-hand sides).
    """
    s = 1
    for coef in levels:
        if z.ndim > 1:
            coef = coef.reshape(coef.shape + (1,) * (z.ndim - 1))
        if backward:
            z[:-s] += coef * z[s:]
        else:
            z[s:] += coef * z[:-s]
        s *= 2


class BandedLDL:
    """LDL' factorization of a symmetric positive definite banded matrix, no pivoting.

    `lower` holds the bands as `band_form` returns them.  The factorization is
    a scalar loop over the rows, O(d w^2), made once.  A tridiagonal factor
    (w <= 1) with dim <= SMALL_DIM solves by a scalar Thomas loop; a larger
    one by recursive doubling: forward and back substitution are first-order
    recurrences, each run as about log2(d) vectorized scans over coefficients
    precomputed on first solve.  Wider bands solve by a scalar loop.
    Raises SingularOperatorError at the first pivot that is not positive, so
    a successful factorization certifies positive definiteness (Sylvester's
    law of inertia).
    """

    def __init__(self, lower: np.ndarray):
        w, d = lower.shape[0] - 1, lower.shape[1]
        a = lower.tolist()
        low = [[0.0] * d for _ in range(w + 1)]  # low[m][i] = L[i, i-m]
        piv = [0.0] * d
        for i in range(d):
            top = i if i < w else w
            s = a[0][i]
            if w == 1 and i:  # the tridiagonal recurrence, unrolled
                low[1][i] = lij = a[1][i] / piv[i - 1]
                s -= lij * a[1][i]
            elif top:
                for m in range(top, 0, -1):
                    j = i - m
                    t = a[m][i]
                    for k in range(i - top, j):
                        t -= low[i - k][i] * piv[k] * low[j - k][j]
                    low[m][i] = t / piv[j]
                for m in range(1, top + 1):
                    s -= low[m][i] * low[m][i] * piv[i - m]
            if not s > 0.0:
                raise SingularOperatorError(
                    f"LDL' pivot {i} is {s:.3e}: the matrix is not positive definite"
                )
            piv[i] = s
        self.dim = d
        self.width = w
        self.pivots = np.array(piv)
        self._low = low
        self._piv = piv

    @functools.cached_property
    def _scans(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Forward and backward scan levels of a tridiagonal factor, built on first solve."""
        sub = -np.array(self._low[1]) if self.width else np.zeros(self.dim)
        # forward: z_i = r_i - L[i, i-1] z_(i-1).  backward: x_i = u_i - L[i+1, i] x_(i+1),
        # the forward scan of the reversed vector with its levels turned back
        back = _scan_levels(np.append(sub[1:], 0.0)[::-1])
        return _scan_levels(sub), [coef[::-1].copy() for coef in back]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for a (dim,) rhs, or a (dim, k) block of them.

        A factor that scans solves a block at once; any other solves it column
        by column, so each column equals the solve of that column alone.
        """
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"factor dim {self.dim} incompatible with rhs shape {rhs.shape}"
            )
        if self.width > 1 or self.dim <= SMALL_DIM:
            loop = self._solve_by_loop if self.width > 1 else self._solve_tridiagonal_by_loop
            if rhs.ndim == 1:
                return loop(rhs)
            x = np.empty(rhs.shape)
            for j in range(rhs.shape[1]):
                x[:, j] = loop(rhs[:, j])
            return x
        forward, backward = self._scans
        x = np.array(rhs, dtype=np.float64)
        _scan(x, forward)
        x /= self.pivots if x.ndim == 1 else self.pivots[:, None]
        _scan(x, backward, backward=True)
        return x

    def _solve_tridiagonal_by_loop(self, rhs: np.ndarray) -> np.ndarray:
        """Thomas: forward substitution, then back substitution with the pivot division folded in."""
        d, piv = self.dim, self._piv
        sub = self._low[1] if self.width else [0.0] * d  # sub[i] = L[i, i-1]
        z = rhs.tolist()
        for i in range(1, d):
            z[i] -= sub[i] * z[i - 1]
        z[-1] /= piv[-1]
        for i in range(d - 2, -1, -1):
            z[i] = z[i] / piv[i] - sub[i + 1] * z[i + 1]
        return np.array(z)

    def _solve_by_loop(self, rhs: np.ndarray) -> np.ndarray:
        low, piv, w, d = self._low, self.pivots.tolist(), self.width, self.dim
        z = rhs.tolist()
        for i in range(d):
            s = z[i]
            for m in range(1, min(w, i) + 1):
                s -= low[m][i] * z[i - m]
            z[i] = s
        z = [zi / p for zi, p in zip(z, piv)]
        for i in range(d - 1, -1, -1):
            s = z[i]
            for m in range(1, min(w, d - 1 - i) + 1):
                s -= low[m][i + m] * z[i + m]
            z[i] = s
        return np.array(z)


def _lower_bands(op: StructuredOperator) -> np.ndarray:
    """`band_form(op)`, or for any other stencil one full band (w = dim-1) read off `to_dense()`."""
    lower = band_form(op)
    if lower is None:
        rows = np.arange(op.dim)
        lower = np.where(rows >= rows[:, None], op.to_dense()[rows, rows - rows[:, None]], 0.0)
    return lower


def banded_ldl(op: StructuredOperator) -> BandedLDL:
    """Factor a symmetric positive definite operator.

    A banded stencil is factored in place, O(d w^2).  Any other (`dense`, a
    power sum with odd powers, `shifted_scaled`) is factored as one full band,
    O(d^3) in the scalar LDL' loop, which is meant for desk-scale operators.
    """
    return BandedLDL(_lower_bands(op))


def spectrum_within(op: StructuredOperator, lo: float, hi: float) -> bool:
    """Whether every eigenvalue of the symmetric `op` lies strictly inside (lo, hi).

    Decided by inertia: op - lo*I and hi*I - op must both factor with
    positive LDL' pivots, with no eigendecomposition.  The cost is that of
    `banded_ldl`: O(d w^2) on a banded stencil, O(d^3) on any other.
    """
    lower = _lower_bands(op)
    above, below = lower.copy(), -lower
    above[0] -= lo
    below[0] += hi
    try:
        BandedLDL(above)
        BandedLDL(below)
    except SingularOperatorError:
        return False
    return True


def solve_z(flavor: str, rhs: np.ndarray) -> np.ndarray:
    """Z^-1 rhs for the anti-banded Z of either flavor, as a cumulative sum.

    scsc: (Z b)_i = b_(d-1-i) - b_(d-i) telescopes to b_k = sum_(j <= d-1-k) rhs_j.
    csc: (Z b)_i = b_(d-2-i) - b_(d-1-i) telescopes to b_k = -sum_(j >= d-1-k) rhs_j.
    """
    if flavor == "scsc":
        return np.cumsum(rhs)[::-1].copy()
    if flavor == "csc":
        return -np.cumsum(rhs[::-1])
    raise ValueError(f"unknown flavor {flavor!r}")


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


def symmetric_eig_extremes(op: StructuredOperator) -> tuple[float, float]:
    """Smallest and largest eigenvalues via dense symmetric eigendecomposition."""
    eigs = np.linalg.eigvalsh(op.to_dense())
    return float(eigs[0]), float(eigs[-1])
