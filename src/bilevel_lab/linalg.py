"""Polynomials in the anti-banded coupling Z, their banded LDL' factors, root finding and slopes.

Every operator is a polynomial in one anti-banded Z (`poly`), held as a
fixed-width row stencil: arrays `cols` and `vals` of shape (w, dim), where
row i holds vals[k, i] at column cols[k, i].  Its dense form is one
scatter, and each constructor builds the stencil directly.  Which kernel
applies it is chosen by the dimension alone.

An operator with dim <= SMALL_DIM scatters its stencil once, at
construction, into a private read-only dense form, and `apply` is then one
dense matvec; a tridiagonal `BandedLDL` of that size solves by its scalar
kernel instead of scans.  From TAP_DIM on, an operator applies by its tap
kernel: away from its first and last few rows it is shift-invariant, so
`apply` is one `np.correlate` per parity of the powers and `apply_block` one
slice-add per stencil slot, and only the edge rows, where the powers meet
the boundary, are summed slot by slot.  In between it applies by the gather
`(vals * v[cols]).sum(0)`.  The stencil stays the only stored form: the
dense form and the taps are derived from it, and `to_dense` still scatters
a fresh array.

The two anti-banded coupling operators built here (the "scsc" and "csc"
flavors) are integer +-1 matrices whose even powers are banded and extend the
support of a vector by at most one coordinate per squared application.  The
power Z^(2k) lives on the window of columns i-k..i+k of row i and Z^(2k+1) on
(d-1-i)-k..(d-1-i)+k+1 (scsc; one column earlier for csc), so a power sum
stores one window per parity, filled by weighted slice-adds of the integer
windows of the powers, which are computed once per (flavor, dim, power).
Since every operator remembers its polynomial, products of operators are
formed as power sums again.

A power sum of even powers has a banded stencil (`band_form`), read in
place; `BandedLDL` factors it once, O(d w^2), and an operator with odd
powers, which has no band form, is refused with CapabilityError.  A
tridiagonal factor above SMALL_DIM solves by recursive-doubling scans,
O(d log d) in about 2 log2(d) vectorized steps.  A (d, k) block of
right-hand sides scans all its columns at once, over the scan levels and
pivots repeated across k columns (`BandedLDL._tiled`): built once per block
width and kept on the factor, they make each step one element-wise pass over
contiguous arrays instead of a column of coefficients broadcast across the
block, and give every element the same product.  The scalar factor
and solve loops run as straight-line kernels, one per band width, whose
source is generated and compiled once per width (`_ldl_kernel`) the way
`collections.namedtuple` builds its methods: each keeps the last w pivots
and entries in locals instead of indexing the band rows, and performs the
operations of the generic per-row loop in the same order, so pivots, L and
solves are those of the generic loop to the bit.  The same factorization decides spectrum
bounds by inertia (`spectrum_within`), `solve_z` inverts Z by a
cumulative sum and `apply_z` applies it as one difference of slices of the
reversed vector, so the anti-banded
families never need a dense form above SMALL_DIM.  `solve_dense` and `symmetric_eig_extremes` remain as dense
references.
"""

from __future__ import annotations

import functools
import linecache
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import (
    BracketError,
    CapabilityError,
    DimensionMismatchError,
    DomainError,
    SingularOperatorError,
)

# largest dimension served by the small-dimension kernels (dense matvec apply,
# scalar tridiagonal solve).  Measured on x86-64, numpy 2.4 with one OpenBLAS
# thread: a dense matvec beats the stencil gather up to d~128 and a scalar
# tridiagonal solve beats the scans up to about the same size (table in
# CHANGES.md, taken on a Thomas loop that the w=1 kernel matches or beats);
# 64 keeps both clear of the crossover.
SMALL_DIM = 64
# smallest dimension at which a polynomial in Z applies by its tap kernel.
# Measured on the same machine (table in CHANGES.md): a correlation carries
# about 2 us of fixed cost (the zero padding, the call, the edge rows), so
# the kernel of A_xy, with two edge rows of up to three slots, ties the
# gather near d = 192 and wins from 224 on; those of H, J and A_xx win
# earlier.
TAP_DIM = 224
SOLVE_RESIDUAL_TOL = 1e-10
# scan coefficients below this are flushed to zero: each term dropped is under
# 2^-64 of the partial sum it multiplies, below the float64 rounding of a solve
SCAN_COEFF_FLOOR = 2.0**-64


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
    """A polynomial in the anti-banded Z, stored as a fixed-width row stencil.

    `poly` is (flavor, {power: coefficient}), power 0 being the identity.
    `cols` and `vals` have shape (w, dim): row i of the operator holds
    vals[k, i] at column cols[k, i] for k < w, and padding slots hold 0 at
    an in-range column.  `to_dense` is one scatter.  With dim <= SMALL_DIM,
    `apply` is a matvec with the dense form scattered once at construction.
    From TAP_DIM on it applies by its tap kernel (`_tap_kernel`), derived
    from the stencil on first apply, so an operator that is only factored
    never derives it; in between, by the gather `_gather`.  Instances are
    immutable after construction and safe to share; `kind` is a
    human-readable tag.
    """

    def __init__(
        self,
        kind: str,
        cols: np.ndarray,
        vals: np.ndarray,
        poly: tuple[str, dict[int, float]],
    ):
        _check_dim(cols.shape[1])
        self.kind = kind
        self.dim = cols.shape[1]
        self.cols = cols
        self.vals = vals
        self.poly = poly
        self._matrix = None
        if self.dim <= SMALL_DIM:
            matrix = self.to_dense()
            matrix.flags.writeable = False
            self._matrix = matrix

    def __repr__(self) -> str:
        return f"StructuredOperator(kind={self.kind!r}, dim={self.dim})"

    @functools.cached_property
    def _taps(self) -> _TapKernel | None:
        """The tap kernel from TAP_DIM on, derived on first apply."""
        if self.dim < TAP_DIM:
            return None
        return _tap_kernel(self)

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.dim,):
            raise DimensionMismatchError(
                f"operator dim {self.dim} incompatible with vector shape {v.shape}"
            )
        if self._matrix is not None:
            return self._matrix.dot(v)
        taps = self._taps
        if taps is None:
            return _gather(self, v)
        d, head = self.dim, taps.head
        # zero-padded, so that every row of the correlation sums all its taps
        padded = np.zeros(d + head + taps.tail)
        padded[head : head + d] = v
        out = None
        for reverse, kernel, start in taps.parts:
            # correlating the taps with v gives the correlation of v with the
            # taps, reversed, still summed in tap order
            full = np.correlate(kernel, padded) if reverse else np.correlate(padded, kernel)
            part = full[start : start + d]
            out = part if out is None else out + part
        item = v.item
        for row, slots in taps.edges:
            s = 0.0
            for col, val in slots:
                s += val * item(col)
            out[row] = s
        return out

    def apply_block(self, block: np.ndarray) -> np.ndarray:
        """Apply to every column of a (dim, k) block: one slice-add per tap, or per gather slot."""
        if block.ndim != 2 or block.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"operator dim {self.dim} incompatible with block shape {block.shape}"
            )
        if self._matrix is not None:
            return self._matrix @ block
        taps = self._taps
        if taps is None:
            return _gather_block(self, block)
        d = self.dim
        out = np.empty(block.shape)
        mirrored = block[::-1]
        for n, (reverse, off, val) in enumerate(taps.slots):
            # row i reads block[i + off], or block[d-1-i + off] = mirrored[i - off]
            src, off = (mirrored, -off) if reverse else (block, off)
            lo, hi = max(0, -off), min(d, d - off)
            if n:
                out[lo:hi] += val * src[lo + off : hi + off]
            else:  # written, not added to zeros, which can change only the sign of a zero
                out[:lo] = out[hi:] = 0.0
                np.multiply(src[lo + off : hi + off], val, out=out[lo:hi])
        for row, slots in taps.edges:
            edge = out[row]
            edge[:] = 0.0
            for col, val in slots:
                edge += val * block[col]
        return out

    def to_dense(self) -> np.ndarray:
        """Materialize the operator by one scatter of the stencil (a fresh array)."""
        d = self.dim
        flat = self.cols + d * np.arange(d)
        dense = np.bincount(flat.ravel(), weights=self.vals.ravel(), minlength=d * d)
        return dense.reshape(d, d)


def _gather(op: StructuredOperator, v: np.ndarray) -> np.ndarray:
    """The stencil applied to v by one gather, for an operator without taps."""
    return (op.vals * v[op.cols]).sum(0)


def _gather_block(op: StructuredOperator, block: np.ndarray) -> np.ndarray:
    """The stencil applied to a (dim, k) block by one gather per slot, for an operator without taps."""
    out = np.zeros(block.shape)
    for cols, vals in zip(op.cols, op.vals):
        out += vals[:, None] * block[cols]
    return out


class _TapKernel(NamedTuple):
    """A Z-polynomial stencil as shift-invariant taps plus the rows they miss.

    `parts` holds (reverse, taps, start) per parity for `apply`: the
    correlation of v, padded with `head` and `tail` zeros, read from
    `start` on, gives row i its taps over v[i + off] (even powers and the
    shift) or over v[d-1-i + off] (odd powers).  `slots` holds
    (reverse, off, val) per stencil slot, in slot order, for `apply_block`.
    The edge rows, where the powers meet the boundary, are summed from their
    own slots, listed in `edges` as (row, [(col, val), ...]).
    """

    parts: list[tuple[bool, np.ndarray, int]]
    head: int
    tail: int
    slots: list[tuple[bool, int, float]]
    edges: list[tuple[int, list[tuple[int, float]]]]


def _tap_kernel(op: StructuredOperator) -> _TapKernel | None:
    """Read the taps of a Z-polynomial stencil off its middle column.

    A polynomial's stencil is made of windows (`_window`): row i of a slot
    reads column i + off (even powers and the shift) or d-1-i + off (odd
    powers) wherever that column is in range, and a padding slot, holding 0,
    the clipped one.  So the middle two rows give each slot's direction and
    offset, and the middle row its tap.  A row is regular when each in-range
    slot holds its tap and each padding slot sits where the correlation
    reads the zero padding; every other row is an edge row.  Within a parity
    the taps lie in slot order, so a regular row of a single-parity power
    sum is summed as the gather sums it; slots at one offset (the diagonal
    slot of `shifted_scaled`) share one tap, and the two parities are summed
    apart, which moves a row by a few ulps of its absolute sum.  None when
    the stencil has no such form, or its values differ from the taps in more
    than 2w rows.
    """
    cols, vals = op.cols, op.vals
    w, d = cols.shape
    if 2 * w >= d:
        return None
    mid = d // 2
    slots = []  # (reverse, off, tap) in slot order
    for col, after, tap in zip(cols[:, mid].tolist(), cols[:, mid + 1].tolist(), vals[:, mid].tolist()):
        if abs(after - col) != 1:
            return None
        reverse = after < col
        slots.append((reverse, col - (d - 1 - mid if reverse else mid), tap))
    # only rows whose values differ from the taps can be edge rows; they lie
    # where the powers meet the boundary, so there are few of them
    rows = np.flatnonzero((vals != vals[:, mid : mid + 1]).any(0))
    if rows.size > 2 * w:
        return None
    # an edge row skips its padding slots: each adds 0 * v[c] for a column c
    # that an in-range slot of the row reads too, so skipping it can change
    # only the sign of a zero sum, and a non-finite v[c] still shows
    edges = []
    for row, row_cols, row_vals in zip(rows.tolist(), cols[:, rows].T.tolist(), vals[:, rows].T.tolist()):
        regular, kept = True, []
        for (reverse, off, tap), col, val in zip(slots, row_cols, row_vals):
            target = (d - 1 - row if reverse else row) + off
            if 0 <= target < d:
                regular &= val == tap
                kept.append((col, val))
            elif val != 0.0:  # not a padding slot: the value is the row's own
                regular = False
                kept.append((col, val))
        if not regular:
            edges.append((row, kept))
    parts = []
    offs = [off for _, off, _ in slots]
    head, tail = max(0, -min(offs)), max(0, max(offs))
    for parity in (False, True):
        mine = [(off, tap) for reverse, off, tap in slots if reverse == parity]
        if mine:
            first, last = min(off for off, _ in mine), max(off for off, _ in mine)
            kernel = [0.0] * (last - first + 1)
            for off, tap in mine:  # slots at one offset are summed in slot order
                kernel[off - first] += tap
            parts.append((parity, np.array(kernel), tail - last if parity else head + first))
    return _TapKernel(parts, head, tail, slots, edges)


def _window(start: np.ndarray, width: int) -> np.ndarray:
    """Columns start[i] .. start[i] + width - 1 of each row, clipped into range."""
    dim = start.shape[0]
    # minimum/maximum: np.clip costs several times more on stencil-sized arrays
    return np.minimum(np.maximum(start + np.arange(width)[:, None], 0), dim - 1)


def shifted_scaled(base: StructuredOperator, scale: float, shift: float) -> StructuredOperator:
    """scale * base + shift * I: the base stencil scaled, with a diagonal slot appended."""
    cols = np.vstack([base.cols, np.arange(base.dim)])
    vals = np.vstack([scale * base.vals, np.full(base.dim, float(shift))])
    flavor, coeffs = base.poly
    scaled = {p: scale * c for p, c in coeffs.items()}
    scaled[0] = scaled.get(0, 0.0) + float(shift)
    return StructuredOperator("shifted-scaled", cols, vals, (flavor, scaled))


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
    form of a power sum of even powers only.  A power sum with odd powers,
    and a `shifted_scaled` copy (its appended diagonal slot), have none.
    Row m of the result holds the entries A[i, i-m] (zero for i < m), read
    from the stencil without a copy.
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
    the same orientation as z, add coef * z[i + 2^k].  Each level has the
    shape of the rows of z it updates: (n,) for a vector, (n, k) tiled for a
    (d, k) block.
    """
    s = 1
    for coef in levels:
        if backward:
            z[:-s] += coef * z[s:]
        else:
            z[s:] += coef * z[:-s]
        s *= 2


def _tile(coef: np.ndarray, k: int) -> np.ndarray:
    """coef repeated across k columns: a read-only, C-contiguous (n, k) array."""
    tile = np.repeat(coef[:, None], k, axis=1)
    tile.flags.writeable = False
    return tile


def _pivot_error(i: int, s: float) -> SingularOperatorError:
    return SingularOperatorError(
        f"LDL' pivot {i} is {s:.3e}: the matrix is not positive definite"
    )


def _factor_source(w: int) -> list[str]:
    """Rows w.. of the LDL' factor of band width w, each one straight-line body.

    Row i reads A[i, i-m] as t{m} and A[i, i] as p0, and carries the previous
    rows in locals: p{m} = D[i-m] and l{m}_{n} = L[i-m, i-m-n], the latter
    kept for n <= w-m, the ones that row i reads; row i's own entries become
    l0_{m} = L[i, i-m] and p0 = D[i].  The operations and their order are
    those of the generic loop in `BandedLDL.__init__`: the entries L[i, i-m]
    for m descending, each reduced over k ascending, then the pivot reduced
    over m ascending.
    """
    ms = range(1, w + 1)
    rows = ", ".join(["i", "p0"] + [f"t{m}" for m in ms])
    columns = ", ".join([f"range({w}, len(piv))"] + [f"a{m}[{w}:]" for m in range(w + 1)])
    lines = [
        "def factor(a, low, piv):",
        f"    [{', '.join(f'a{m}' for m in range(w + 1))}] = a",
        f"    [{', '.join(f'low{m}' for m in ms)}] = low[1:]",
        *(f"    p{m} = piv[{w - m}]" for m in ms),
        *(f"    l{m}_{n} = low{n}[{w - m}]" for m in ms for n in range(1, w - m + 1)),
        f"    for {rows} in zip({columns}):",
    ]
    for m in range(w, 0, -1):
        lines += [f"        t{m} -= l0_{q} * p{q} * l{m}_{q - m}" for q in range(w, m, -1)]
        lines.append(f"        l0_{m} = t{m} / p{m}")
    if w == 1:  # the tridiagonal recurrence: L[i, i-1] A[i, i-1], not L[i, i-1]^2 D[i-1]
        lines.append("        p0 -= l0_1 * t1")
    else:
        lines += [f"        p0 -= l0_{m} * l0_{m} * p{m}" for m in ms]
    return lines + [
        "        if not p0 > 0.0:",
        "            raise _pivot_error(i, p0)",
        "        piv[i] = p0",
        *(f"        low{m}[i] = l0_{m}" for m in ms),
        *(f"        p{m} = p{m - 1}" for m in range(w, 0, -1)),
        *(
            f"        l{m}_{n} = l{m - 1}_{n}"
            for m in range(w - 1, 0, -1)
            for n in range(1, w - m + 1)
        ),
    ]


def _solve_source(w: int) -> list[str]:
    """Forward and back substitution in place on a factor of band width w >= 1.

    Each pass carries the last w values in x1..x{w}, starting from 0.0, and
    reads the bands that `BandedLDL._solve_kernel` pads with 0.0, so a row near
    either end subtracts +0.0 products, which leave every value, signed zeros
    included, as the shorter sums of a generic loop would.  Forward:
    z_i = r_i - sum_m L[i, i-m] z_(i-m), m ascending.  Back, with the pivot
    division folded in: x_i = z_i / D_i - sum_m L[i+m, i] x_(i+m), m ascending.
    """
    ms = range(1, w + 1)
    carry = ", ".join(f"x{m}" for m in ms)
    older = "".join(f", x{m}" for m in range(1, w))
    zeros = ", ".join(["0.0"] * w)

    def step(first: str, band: str) -> str:
        terms = "".join(f" - {band}{m}[i] * x{m}" for m in ms)
        return f"        {carry} = {first}{terms}{older}"

    return [
        "def solve(piv, lows, ups, z):",
        f"    [{', '.join(f'l{m}' for m in ms)}] = lows",
        f"    [{', '.join(f'u{m}' for m in ms)}] = ups",
        f"    {carry} = {zeros}",
        "    for i in range(len(z)):",
        step("z[i]", "l"),
        "        z[i] = x1",
        f"    {carry} = {zeros}",
        "    for i in range(len(z) - 1, -1, -1):",
        step("z[i] / piv[i]", "u"),
        "        z[i] = x1",
        "    return z",
    ]


_KERNEL_SOURCES = {"factor": _factor_source, "solve": _solve_source}


@functools.lru_cache(maxsize=32)
def _ldl_kernel(kind: str, w: int) -> Callable:
    """The `kind` kernel ("factor" or "solve") for band width w, compiled once.

    Its source is generated for this width and compiled under a filename of
    its own, registered with `linecache`, so tracebacks, `inspect` and
    profiles show each width's kernel on its own lines.
    """
    source = "\n".join(_KERNEL_SOURCES[kind](w)) + "\n"
    filename = f"<{__name__} ldl-{kind} w={w}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"__name__": __name__, "_pivot_error": _pivot_error}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[kind]


class BandedLDL:
    """LDL' factorization of a symmetric positive definite banded matrix, no pivoting.

    `lower` holds the bands as `band_form` returns them.  The factorization is
    made once, O(d w^2): the first w rows, which have fewer than w entries
    left of the diagonal, by a generic scalar loop, and the rest by a
    straight-line kernel generated for the width w (`_ldl_kernel`).  A full
    band (w >= d-1) runs in the generic loop alone.  A tridiagonal factor
    (w <= 1) above SMALL_DIM solves by recursive doubling: forward and back
    substitution are first-order recurrences, each run as about log2(d)
    vectorized scans over coefficients precomputed on first solve, and tiled
    once per width for a block of right-hand sides.  Any other
    factor solves by the generated scalar kernel of its width (w = 1 for a
    diagonal one).  Raises SingularOperatorError at the first pivot that is
    not positive, so a successful factorization certifies positive
    definiteness (Sylvester's law of inertia).
    """

    def __init__(self, lower: np.ndarray):
        w, d = lower.shape[0] - 1, lower.shape[1]
        a = lower.tolist()
        low = [[0.0] * d for _ in range(w + 1)]  # low[m][i] = L[i, i-m]
        piv = [0.0] * d
        # the first w rows hold fewer than w entries left of the diagonal and
        # run in the generic loop; a full band (w >= d-1) has at most one row
        # more, so it runs there whole rather than compile an O(w^2)-line
        # kernel for that row
        head = w if w < d - 1 else d
        for i in range(head):
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
                raise _pivot_error(i, s)
            piv[i] = s
        if head < d:
            _ldl_kernel("factor", w)(a, low, piv)
        self.dim = d
        self.width = w
        self.pivots = np.array(piv)
        self._low = low
        self._piv = piv
        self._tiles: dict[int, tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]] = {}

    @functools.cached_property
    def _scans(self) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
        """Forward levels, pivots and backward levels of a tridiagonal factor's scans, built on first solve."""
        sub = -np.array(self._low[1]) if self.width else np.zeros(self.dim)
        # forward: z_i = r_i - L[i, i-1] z_(i-1).  backward: x_i = u_i - L[i+1, i] x_(i+1),
        # the forward scan of the reversed vector with its levels turned back
        back = _scan_levels(np.append(sub[1:], 0.0)[::-1])
        return _scan_levels(sub), self.pivots, [coef[::-1].copy() for coef in back]

    @functools.cached_property
    def _solve_kernel(self) -> Callable[[list[float]], list[float]]:
        """The scalar solve kernel of this width, bound to the factor on first solve.

        It reads L[i, i-m] and L[i+m, i] per row i, the second padded with 0.0
        past the last row.  A diagonal factor solves as a tridiagonal one with
        L = 0, so every w <= 1 takes the one w = 1 kernel.
        """
        d = self.dim
        lows = self._low[1:] or [[0.0] * d]
        ups = [(low[m:] + [0.0] * m)[:d] for m, low in enumerate(lows, 1)]
        return functools.partial(_ldl_kernel("solve", len(lows)), self._piv, lows, ups)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for a (dim,) rhs, or a (dim, k) block of them.

        A factor that scans solves a block at once, over its levels and
        pivots tiled to k columns (`_tiled`); any other solves it column by
        column.  Either way each column equals the solve of that column
        alone, bit for bit.
        """
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"factor dim {self.dim} incompatible with rhs shape {rhs.shape}"
            )
        if self.width > 1 or self.dim <= SMALL_DIM:
            kernel = self._solve_kernel
            if rhs.ndim == 1:
                return np.array(kernel(rhs.tolist()))
            x = np.empty(rhs.shape)
            for j, column in enumerate(rhs.T.tolist()):
                x[:, j] = kernel(column)
            return x
        forward, pivots, backward = self._scans if rhs.ndim == 1 else self._tiled(rhs.shape[1])
        x = np.array(rhs, dtype=np.float64)
        _scan(x, forward)
        x /= pivots
        _scan(x, backward, backward=True)
        return x

    def _tiled(self, k: int) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
        """The scan levels and pivots repeated across k columns, built once per width k.

        A level broadcast from (n, 1) against an (n, k) block runs n short
        inner loops; its tile runs one loop over the whole contiguous block.
        Every element gets the same product or quotient, so the solve is that
        of the broadcast, bit for bit.  The tiles are read-only and kept on
        the factor, one set per width, each about (2 levels + 1) times the
        size of a block of that width.
        """
        tiles = self._tiles.get(k)
        if tiles is None:
            forward, pivots, backward = self._scans
            tiles = [_tile(c, k) for c in forward], _tile(pivots, k), [_tile(c, k) for c in backward]
            self._tiles[k] = tiles
        return tiles


def _lower_bands(op: StructuredOperator) -> np.ndarray:
    """`band_form(op)`; CapabilityError when the stencil has no band form."""
    lower = band_form(op)
    if lower is None:
        raise CapabilityError(f"{op.kind} has no band form to factor")
    return lower


def banded_ldl(op: StructuredOperator) -> BandedLDL:
    """Factor a symmetric positive definite power sum of even powers in place, O(d w^2).

    An operator without a band form (odd powers, a `shifted_scaled` copy)
    raises CapabilityError.
    """
    return BandedLDL(_lower_bands(op))


def spectrum_within(op: StructuredOperator, lo: float, hi: float) -> bool:
    """Whether every eigenvalue of the symmetric `op` lies strictly inside (lo, hi).

    Decided by inertia: op - lo*I and hi*I - op must both factor with
    positive LDL' pivots, with no eigendecomposition, O(d w^2).  An operator
    without a band form raises CapabilityError, as in `banded_ldl`.
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


def apply_z(flavor: str, v: np.ndarray) -> np.ndarray:
    """Z v for the anti-banded Z of either flavor, as one difference of the reversed v.

    scsc: (Z v)_i = v_(d-1-i) - v_(d-i), csc: (Z v)_i = v_(d-2-i) - v_(d-1-i),
    with v_d and v_(-1) read as 0.  Each entry is the one rounded difference
    that `anti_banded_z(flavor, d).apply(v)` computes, up to the sign of a
    zero, and no operator is built.
    """
    r = v[::-1]
    out = np.empty(r.shape)
    if flavor == "scsc":
        out[0] = r[0]  # r_0 - 0.0, which is r_0 with its sign
        np.subtract(r[1:], r[:-1], out=out[1:])
    elif flavor == "csc":
        np.subtract(r[1:], r[:-1], out=out[:-1])
        out[-1] = 0.0 - r[-1]  # not -r_(d-1): 0.0 - 0.0 is +0.0
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return out


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


def least_squares_slope(x, y) -> float:
    """Slope of the least-squares line through the points (x_i, y_i), in closed form.

    With xc = x - mean(x) it is xc.(y - mean(y)) / xc.xc; no LAPACK solve.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    return float(xc.dot(y - y.mean()) / xc.dot(xc))


def symmetric_eig_extremes(op: StructuredOperator) -> tuple[float, float]:
    """Smallest and largest eigenvalues via dense symmetric eigendecomposition."""
    eigs = np.linalg.eigvalsh(op.to_dense())
    return float(eigs[0]), float(eigs[-1])
