"""Polynomials in the anti-banded coupling Z, their banded LDL' factors, root finding and slopes.

Every operator is a polynomial in one anti-banded Z, and that polynomial,
(flavor, {power: coefficient}), is the only form it stores (`poly`), so
products of operators are formed as power sums again.  Which kernel
applies it is chosen by the dimension alone: with dim <= SMALL_DIM it
builds its dense form once, at construction, and `apply` is one dense
matvec; a tridiagonal `BandedLDL` of that size solves by its scalar kernel
instead of scans.  Above SMALL_DIM it applies by its tap kernel: away from
its first and last few rows a polynomial in Z is shift-invariant, so
`apply` is one `np.correlate` per parity of the powers and `apply_block`
one slice-add per tap, and only the edge rows, where the powers meet the
boundary, are summed slot by slot.

The two anti-banded coupling operators (the "scsc" and "csc" flavors) are
integer +-1 matrices whose even powers are banded and extend the support
of a vector by at most one coordinate per squared application.  The power
Z^(2k) lives on the window of columns i-k..i+k of row i and Z^(2k+1) on
(d-1-i)-k..(d-1-i)+k+1 (scsc; one column earlier for csc), so a power sum
is a row stencil of one window per parity, filled by weighted slice-adds
of the integer windows of the powers.  Only rows within about half the
degree of either end differ from the middle row, so the stencil is built
on first use at a dimension set by the degree (4 deg + 9, or the
operator's own when smaller), and it gives the taps and edge rows, the
dense form (one scatter of the stencil widened to dim rows) and the band
form.

A power sum of even powers is banded (`band_form`); `BandedLDL` factors
it, O(d w^2) at most, and an operator with odd powers, which has no band
form, is refused with CapabilityError.  Above SMALL_DIM the factor stops
where its rows repeat bit for bit, skips to the band's bottom edge and
resumes there, and is stored as float64 head, limit and tail rows.  A
tridiagonal factor above SMALL_DIM solves by recursive-doubling scans,
O(d log d) in about 2 log2(d) vectorized steps; a (d, k) block of
right-hand sides scans all its columns at once, over levels and pivots
tiled across k columns (`BandedLDL._tiled`).  The scalar factor, the
store-free inertia pass of `spectrum_within` and the scalar solve run as
straight-line kernels, one per band width, whose source is generated and
compiled once per width (`_ldl_kernel`) the way `collections.namedtuple`
builds its methods: each keeps the last w pivots and entries in locals
instead of indexing the band rows.  The factor and inertia kernels run
from row 0, from w seeded rows of pivot 1.0 and L 0.0 and the band's
corner left of column 0 read as +0.0, so each row performs the operations
of the generic per-row loop (Golub and Van Loan, Matrix Computations, 4.3)
in its order, and pivots, L and solves are that loop's to the bit.
`solve_z` inverts Z by a cumulative sum and `apply_z` applies it as one
difference of slices of the reversed vector, so the anti-banded families
never need a dense form above SMALL_DIM.  `solve_dense` and
`symmetric_eig_extremes` remain as dense references.
"""

from __future__ import annotations

import bisect
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
# scalar tridiagonal solve), and the one switch between apply kernels.
# Measured on x86-64, numpy 2.4 with one OpenBLAS thread: a dense matvec beats
# the taps up to about d = 150-200 (table in README.md) and a scalar tridiagonal
# solve beats the scans up to about d = 128 (table in CHANGES.md, taken on a
# Thomas loop that the w=1 kernel matches or beats).  Moving the switch up
# would put the shipped battery's d = 65 run on a BLAS matvec and change its
# bits, so 64 stays.
SMALL_DIM = 64
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


class StructuredOperator:
    """A polynomial in the anti-banded Z, held as its coefficients alone.

    `poly` is (flavor, {power: coefficient}), power 0 being the identity,
    and it is the only stored form.  Derived from it: its row stencil at a
    dimension set by the degree (`_stencil`), which gives `to_dense` and
    `band_form`, and from that, on first apply above SMALL_DIM, the taps and
    edge rows (`_taps`) by which `apply` and `apply_block` run there.  With
    dim <= SMALL_DIM, `apply` is a matvec with the dense form built once at
    construction.  Instances are immutable after construction and safe to
    share.
    """

    def __init__(self, flavor: str, dim: int, coeffs: Mapping[int, float]):
        if flavor not in ("scsc", "csc"):
            raise ValueError(f"unknown flavor {flavor!r}")
        if dim <= 0:
            raise DimensionMismatchError("operator dimension must be positive")
        self.dim = dim
        self.poly = (flavor, dict(coeffs))
        self._matrix = None
        self._taps: _TapKernel | None = None
        if dim <= SMALL_DIM:
            matrix = self.to_dense()
            matrix.flags.writeable = False
            self._matrix = matrix

    @property
    def kind(self) -> str:
        """A human-readable label of the polynomial."""
        flavor, coeffs = self.poly
        label = "+".join(f"{c:g}*Z^{p}" for p, c in coeffs.items() if p)
        return f"z-power-sum({flavor}:{label};shift={coeffs.get(0, 0.0):g})"

    def __repr__(self) -> str:
        return f"StructuredOperator(kind={self.kind!r}, dim={self.dim})"

    def _stencil(self) -> tuple[list[tuple[bool, int]], np.ndarray]:
        """The slot layout and values of the row stencil at dimension min(dim, 4 deg + 9).

        Only rows within about deg/2 + 2 of either end (deg the degree)
        differ from the middle row, so the first n//2 rows of that stencil
        are the operator's first rows, its middle row repeats, and its other
        rows are the operator's last (`_widen`).  Not a cached_property:
        one set at construction writes through the instance's `__dict__`,
        which makes CPython keep its attributes in a dict, and that slowed
        each dense apply at d = 32 by 15-50%.
        """
        flavor, coeffs = self.poly
        return _z_stencil(flavor, min(self.dim, 4 * max(coeffs, default=0) + 9), coeffs)

    def _derive_taps(self) -> _TapKernel:
        """The taps and edge rows, derived on first apply above SMALL_DIM and kept in `_taps`.

        A plain attribute set in `__init__`, not a cached_property: one
        filled later writes through the instance `__dict__`, and that made
        each tap apply 5-9% slower.
        """
        self._taps = _tap_kernel(*self._stencil(), self.dim)
        return self._taps

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.dim,):
            raise DimensionMismatchError(
                f"operator dim {self.dim} incompatible with vector shape {v.shape}"
            )
        if self._matrix is not None:
            return self._matrix.dot(v)
        taps = self._taps or self._derive_taps()
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
        """Apply to every column of a (dim, k) block: one slice-add per tap."""
        if block.ndim != 2 or block.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"operator dim {self.dim} incompatible with block shape {block.shape}"
            )
        if self._matrix is not None:
            return self._matrix @ block
        taps = self._taps or self._derive_taps()
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
        """Materialize the operator from its row stencil (a fresh array).

        Each entry is 0.0 plus the stencil values that land on it, in slot
        order, as a scatter of the whole stencil sums them; a slot whose
        column is out of range holds 0 and is skipped.
        """
        d = self.dim
        layout, vals = self._stencil()
        vals = _widen(vals, d)
        dense = np.zeros((d, d))
        flat = dense.reshape(-1)
        for (reverse, off), row_vals in zip(layout, vals):
            # row i's entry is flat[(i+1)(d-1) + off] when reversed, else flat[i(d+1) + off]
            if reverse:
                lo, hi, step = max(0, off), min(d, d + off), d - 1
                start = (lo + 1) * step + off
            else:
                lo, hi, step = max(0, -off), min(d, d - off), d + 1
                start = lo * step + off
            if lo < hi:
                flat[start : start + (hi - lo - 1) * step + 1 : max(step, 1)] += row_vals[lo:hi]
        return dense


class _TapKernel(NamedTuple):
    """A polynomial in Z as shift-invariant taps plus the rows they miss.

    `slots` holds (reverse, off, tap) per stencil slot, in slot order: row
    i reads v[i + off] (even powers and the shift) or v[d-1-i + off] (odd
    powers), where that column is in range.  `parts` holds (reverse, taps,
    start) per parity for `apply`: the correlation of v, padded with `head`
    and `tail` zeros, read from `start` on, gives every row its taps.  The
    edge rows, where the powers meet the boundary, hold values of their
    own, listed in `edges` as (row, [(col, val), ...]) over their in-range
    slots in slot order.
    """

    parts: list[tuple[bool, np.ndarray, int]]
    head: int
    tail: int
    slots: list[tuple[bool, int, float]]
    edges: list[tuple[int, list[tuple[int, float]]]]


def _tap_kernel(layout: list[tuple[bool, int]], vals: np.ndarray, dim: int) -> _TapKernel:
    """The taps and edge rows of a row stencil (`_z_stencil`) at dimension dim.

    The stencil's middle row holds the taps, and its other rows are the
    operator's first and last rows (`_widen`).  A row is regular when each
    in-range slot holds its tap (the others hold 0, where the correlation
    reads zero padding); every other row is an edge row.  Within a parity
    the taps lie in slot order, and np.correlate sums a kernel of up to 11
    taps in that order (numpy 2.4), so a regular row of a single-parity
    power sum of degree up to 10 is summed as the stencil's gather sums it;
    longer kernels, and the two parities summed apart, move a row by a few
    ulps of its absolute sum.  An edge row skips its out-of-range slots,
    each 0 * v[c] at a column c that an in-range slot of the row reads too,
    so skipping it can change only the sign of a zero sum, and a non-finite
    v[c] still shows.
    """
    n = vals.shape[1]
    mid = n // 2
    taps = vals[:, mid]
    slots = [(reverse, off, tap) for (reverse, off), tap in zip(layout, taps.tolist())]
    edges = []
    # only rows whose values differ from the taps can be edge rows
    for r in np.flatnonzero((vals != taps[:, None]).any(0)).tolist():
        row = r if r < mid else r + dim - n
        regular, kept = True, []
        for (reverse, off, tap), val in zip(slots, vals[:, r].tolist()):
            col = (dim - 1 - row if reverse else row) + off
            if 0 <= col < dim:
                regular &= val == tap
                kept.append((col, val))
        if not regular:
            edges.append((row, kept))
    parts = []
    offs = [off for _, off in layout]
    head, tail = max(0, -min(offs)), max(0, max(offs))
    for parity in (False, True):
        mine = [(off, tap) for reverse, off, tap in slots if reverse == parity]
        if mine:
            first, last = mine[0][0], mine[-1][0]
            kernel = np.array([tap for _, tap in mine])
            parts.append((parity, kernel, tail - last if parity else head + first))
    return _TapKernel(parts, head, tail, slots, edges)


@functools.lru_cache(maxsize=64)
def _z_table(flavor: str, dim: int, power: int) -> np.ndarray:
    """Integer entries of Z^power on its window, shape (power + 1, dim), read-only.

    Entry [k, i] sits at column start + k of row i, where the window starts
    at i - power/2 for an even power, and for an odd power at
    (d-1-i) - (power-1)/2 (scsc) or one column earlier (csc); an entry at a
    column out of range is 0.  Built by the row recurrence of
    Z^p = Z Z^(p-1): scsc row i of Z M is M[d-1-i] - M[d-i], csc row i is
    M[d-2-i] - M[d-1-i].  Called only at dimensions set by the degree
    (`StructuredOperator._stencil`), so the cache stays small.
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
    flavor: str, dim: int, coeffs: Mapping[int, float]
) -> tuple[list[tuple[bool, int]], np.ndarray]:
    """Values of sum_p coeffs[p] Z^p (power 0 the shift) on one fixed window per parity.

    Returns each slot's (reverse, off) and the read-only values, shape
    (w, dim): slot k of row i sits at column i + off, or d-1-i + off when
    reversed, and holds 0 where that column is out of range.  The
    even powers and the shift share the window i-k..i+k (k the largest even
    power over 2); the odd powers share the window of the largest odd power,
    (d-1-i)-k..(d-1-i)+k+1 (scsc; one column earlier for csc).  Within a
    window the shift is placed first and the weighted powers are added in
    ascending order, so each entry of a one-parity sum is rounded exactly as
    in the accumulation shift*I + c_p Z^p + ... .
    """
    shift = coeffs.get(0, 0.0)
    layout, blocks = [], []
    for parity in (0, 1):
        powers = [p for p in sorted(coeffs) if p and p % 2 == parity]
        if not powers and (parity or shift == 0.0):
            continue
        half = max(powers, default=0) // 2
        vals = np.zeros((2 * half + 1 + parity, dim))
        if parity == 0:
            vals[half] = shift
        for p in powers:
            off = half - p // 2
            vals[off : off + p + 1] += coeffs[p] * _z_table(flavor, dim, p)
        first = -half - (parity and flavor == "csc")
        layout += [(bool(parity), first + k) for k in range(vals.shape[0])]
        blocks.append(vals)
    if not blocks:  # the zero operator
        layout, blocks = [(False, 0)], [np.zeros((1, dim))]
    vals = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
    vals.flags.writeable = False
    return layout, vals


def _widen(vals: np.ndarray, dim: int) -> np.ndarray:
    """Stencil values of shape (w, n) as those of dimension dim >= n: the middle row repeated."""
    n = vals.shape[1]
    if n == dim:
        return vals
    mid = n // 2
    middle = np.repeat(vals[:, mid : mid + 1], dim - n, axis=1)
    return np.concatenate([vals[:, :mid], middle, vals[:, mid:]], axis=1)


def anti_banded_z(flavor: str, dim: int) -> StructuredOperator:
    """The +-1 anti-banded coupling operator, in either flavor: the power sum Z^1.

    scsc: entry 1 on the main anti-diagonal (i+j = dim-1, 0-based) and -1 just
    below it (i+j = dim).  csc: entry 1 on i+j = dim-2 and -1 on i+j = dim-1.
    Both are symmetric and invertible; their squares are tridiagonal.
    """
    return z_power_sum(flavor, dim, {1: 1.0})


def z_power_sum(
    flavor: str, dim: int, coeffs: Mapping[int, float], shift: float = 0.0
) -> StructuredOperator:
    """sum_p coeffs[p] * Z^p + shift * I with Z the anti-banded operator."""
    powers = sorted(p for p, c in coeffs.items() if c != 0.0)
    if powers and powers[0] < 1:
        raise ValueError("powers must be >= 1; the identity term is the shift")
    poly = {p: float(coeffs[p]) for p in powers}
    if shift != 0.0:
        poly[0] = float(shift)
    return StructuredOperator(flavor, dim, poly)


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
    """The lower bands of a power sum of even powers, or None when it has odd powers.

    Its row stencil is the window of columns i-w..i+w of each row i, so row
    m of the stencil's first w+1 rows, reversed, holds the entries A[i, i-m]
    (zero for i < m).  A view of the stencil widened to dim rows.
    """
    if any(p % 2 for p in op.poly[1]):
        return None
    vals = _widen(op._stencil()[1], op.dim)
    return vals[vals.shape[0] // 2 :: -1]


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


def _repeats(rows, a, i: int) -> bool:
    """Whether rows i-w..i of the factor are equal bit for bit, and band column i+1 is column i.

    `rows` and `a` are memoryviews of the factor and band rows.  Then row
    i+1 reads the same band entries and the same w rows before it as row i
    did, so it repeats row i, and so does every row up to the next band
    column that differs.  Bits, not `==`: a -0.0 and a +0.0 entry can round
    a later entry apart.
    """
    n = len(rows)
    for row in rows:
        last = row[i + 1 - n : i + 1].tobytes()
        if last != last[:8] * n:
            return False
    for band in a:
        pair = band[i : i + 2].tobytes()
        if pair[:8] != pair[8:]:
            return False
    return True


def _interior(lower: np.ndarray) -> tuple[int, int]:
    """The band's interior rows [top, bottom): the run of band columns equal, bit for bit, to its middle one."""
    bits = lower.view(np.int64)
    mid = bits.shape[1] // 2
    other = np.flatnonzero((bits != bits[:, mid, None]).any(0)).tolist()
    k = bisect.bisect(other, mid)
    return other[k - 1] + 1 if k else 0, other[k] if k < len(other) else bits.shape[1]


def _band_views(lower: np.ndarray) -> list[memoryview]:
    """Memoryviews of the band rows, their corner A[i, i-m] (i < m) left of column 0 holding +0.0.

    The kernels read the corner as any other entry (`_factor_source`).  A
    band holding anything else there, such as `spectrum_within`'s negated
    band with its -0.0, is copied with the corner cleared, never written.
    """
    a = [memoryview(band) for band in lower]
    if any(band[:m].tobytes().strip(b"\0") for m, band in enumerate(a)):  # a corner byte set
        lower = lower.copy()
        for m, band in enumerate(lower):
            band[:m] = 0.0
        a = [memoryview(band) for band in lower]
    return a


def _factor_source(w: int, store: bool = True) -> list[str]:
    """Rows of the LDL' factor of band width w, each one straight-line body.

    Row i reads A[i, i-m] as t{m} and A[i, i] as p0, and carries the previous
    rows in locals: p{m} = D[i-m] and l{m}_{n} = L[i-m, i-m-n], the latter
    kept for n <= w-m, the ones that row i reads; row i's own entries become
    l0_{m} = L[i, i-m] and p0 = D[i].  Row i reduces L[i, i-m] for m
    descending, each over k ascending, then the pivot over m ascending, in
    the order of the generic per-row loop (`tests/ldl_reference.py`).  Both
    kernels read the band rows `a` as memoryviews (`_band_views`), and from
    row 0 their locals hold w copies of the row `last`, by default of pivot
    1.0 and L 0.0.  Row i < m reads the corner's +0.0 as A[i, i-m], so it
    reduces L[i, i-m] to +0.0 for each m > i, and every term that reads a
    seeded row is a product with one of those, +0.0: subtracting it leaves
    each value, signed zeros included, as the generic loop's shorter sums.

    `factor(a, rows, top, stop, start=0, last)` writes rows start.. into
    `rows`, memoryviews of w + 1 arrays of length d, raises at the first
    pivot that is not positive, and returns d, or the first row top <= i <
    stop at which rows i-w..i repeat on a band column that continues
    (`_repeats`); its pivots compare first, one float compare per row.  A
    resume passes the row that repeats as `last`.  `inertia(a)` stores
    nothing and returns whether every pivot is positive.
    """
    ms = range(1, w + 1)
    seed = repr((1.0,) + (0.0,) * w)
    # only the factor reads the row index, for its message and its stop
    targets = ["i"] * store + ["p0"] + [f"t{m}" for m in ms]
    rows = ", ".join(targets) + "," * (len(targets) == 1)
    columns = ", ".join(["range(start, len(a[0]))"] * store + [f"a{m}" for m in range(w + 1)])
    bands = ", ".join(f"a{m}" for m in range(w + 1))
    lines = [
        f"def factor(a, rows, top, stop, start=0, last={seed}):" if store else f"def inertia(a, last={seed}):",
        f"    [{bands}] = [band[start:] for band in a]" if store else f"    [{bands}] = a",
        *[f"    [{', '.join(['piv'] + [f'low{m}' for m in ms])}] = rows"] * store,
        *(f"    p{m} = last[0]" for m in ms),
        *(f"    l{m}_{n} = last[{n}]" for m in ms for n in range(1, w - m + 1)),
        f"    for {rows} in zip({columns}):",
    ]
    for m in range(w, 0, -1):
        lines += [f"        t{m} -= l0_{q} * p{q} * l{m}_{q - m}" for q in range(w, m, -1)]
        lines.append(f"        l0_{m} = t{m} / p{m}")
    if w == 1:  # the tridiagonal recurrence: L[i, i-1] A[i, i-1], not L[i, i-1]^2 D[i-1]
        lines.append("        p0 -= l0_1 * t1")
    else:
        lines += [f"        p0 -= l0_{m} * l0_{m} * p{m}" for m in ms]
    lines.append("        if not p0 > 0.0:")
    if store:
        pivots_repeat = "".join(f"p{m} == " for m in range(w)) + f"p{w} and " if w else ""
        lines += [
            "            raise _pivot_error(i, p0)",
            "        piv[i] = p0",
            *(f"        low{m}[i] = l0_{m}" for m in ms),
            f"        if {pivots_repeat}top <= i < stop and _repeats(rows, a, i):",
            "            return i",
        ]
    else:
        lines.append("            return False")
    lines += [
        *(f"        p{m} = p{m - 1}" for m in range(w, 0, -1)),
        *(
            f"        l{m}_{n} = l{m - 1}_{n}"
            for m in range(w - 1, 0, -1)
            for n in range(1, w - m + 1)
        ),
    ]
    return lines + ["    return len(piv)" if store else "    return True"]


def _solve_source(w: int) -> list[str]:
    """Forward and back substitution in place on a factor of band width w >= 1.

    The rows come in three parts: the head rows 0..h-1 and the tail rows
    b..d-1, each as lists (pivots, L[i, i-m] per m, L[i+m, i] per m), and
    between them rows that repeat the limit row, read from the locals
    c0 = D and c{m} = L[i, i-m] = L[i+m, i].  A factor that never stopped
    is all head, and its passes are the head loops alone.  Each pass
    carries the last w values in x1..x{w}, starting from 0.0, and reads the
    bands that `BandedLDL._scalar_solver` pads with 0.0, so a row near
    either end subtracts +0.0 products, which leave every value, signed
    zeros included, as the shorter sums of a generic loop would.  Forward:
    z_i = r_i - sum_m L[i, i-m] z_(i-m), m ascending.  Back, with the pivot
    division folded in: x_i = z_i / D_i - sum_m L[i+m, i] x_(i+m), m ascending.
    """
    ms = range(1, w + 1)
    carry = ", ".join(f"x{m}" for m in ms)
    older = "".join(f", x{m}" for m in range(1, w))
    zeros = ", ".join(["0.0"] * w)

    def names(prefix: str) -> str:
        return ", ".join(f"{prefix}{m}" for m in ms)

    def step(loop: str, first: str, band: str, at: str, indent: str = "") -> list[str]:
        terms = "".join(f" - {band}{m}{at} * x{m}" for m in ms)
        return [
            f"    {indent}for {loop}:",
            f"        {indent}{carry} = {first}{terms}{older}",
            f"        {indent}z[i] = x1",
        ]

    return [
        "def solve(head, limit, tail, z):",
        f"    piv, [{names('l')}], [{names('u')}] = head",
        "    h, d = len(piv), len(z)",
        f"    {carry} = {zeros}",
        *step("i in range(h)", "z[i]", "l", "[i]"),
        "    if h < d:",
        f"        c0, {names('c')} = limit",
        f"        tpiv, [{names('tl')}], [{names('tu')}] = tail",
        "        b = d - len(tpiv)",
        *step("i in range(h, b)", "z[i]", "c", "", "    "),
        *step("j, i in enumerate(range(b, d))", "z[i]", "tl", "[j]", "    "),
        f"    {carry} = {zeros}",
        "    if h < d:",
        *step("j, i in zip(range(d - b - 1, -1, -1), range(d - 1, b - 1, -1))",
              "z[i] / tpiv[j]", "tu", "[j]", "    "),
        *step("i in range(b - 1, h - 1, -1)", "z[i] / c0", "c", "", "    "),
        *step("i in range(h - 1, -1, -1)", "z[i] / piv[i]", "u", "[i]"),
        "    return z",
    ]


_KERNEL_SOURCES = {
    "factor": _factor_source,
    "inertia": functools.partial(_factor_source, store=False),
    "solve": _solve_source,
}


@functools.lru_cache(maxsize=48)
def _ldl_kernel(kind: str, w: int) -> Callable:
    """The `kind` kernel ("factor", "inertia" or "solve") for band width w, compiled once.

    Its source is generated for this width and compiled under a filename of
    its own, registered with `linecache`, so tracebacks, `inspect` and
    profiles show each width's kernel on its own lines.
    """
    source = "\n".join(_KERNEL_SOURCES[kind](w)) + "\n"
    filename = f"<{__name__} ldl-{kind} w={w}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"__name__": __name__, "_pivot_error": _pivot_error, "_repeats": _repeats}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[kind]


def _solve_lists(rows: list[list[float]], after: list[float]) -> tuple:
    """The pivots, L[i, i-m] per m and L[i+m, i] per m of factor rows given as lists.

    L[i+m, i] past the last of the rows reads after[m].
    """
    lows = rows[1:]
    return rows[0], lows, [(low[m:] + [after[m]] * m)[: len(low)] for m, low in enumerate(lows, 1)]


class BandedLDL:
    """LDL' factorization of a symmetric positive definite banded matrix, no pivoting.

    `lower` holds the bands as `band_form` returns them.  Every row runs in
    the straight-line kernel generated for the width w (`_ldl_kernel`),
    from row 0.  Raises SingularOperatorError at the first pivot that is not
    positive, so a successful factorization certifies positive definiteness
    (Sylvester's law of inertia).

    A power sum's band is constant away from its first and last few rows,
    and its factor often converges to a fixed row, bit for bit: the
    benchmark preset's H after 18 rows, its minimizer operator after 44, Z^4
    + 0.9 Z^2 + 0.01 after 158 at d = 1024 and d = 109 731 alike.  So above
    SMALL_DIM the kernel stops at the first row i where rows i-w..i repeat
    (`_repeats`) on interior band rows, the run of band columns equal to the
    middle one (`_interior`), found before the factor: every row up to the
    bottom edge, where the band changes again, repeats row i.  It resumes
    there, with the repeated row as the w rows before it, so a failing
    bottom pivot raises at its own index.  At d <= SMALL_DIM it runs whole:
    a repeat there would skip fewer rows than the stop costs.  Some factors
    never repeat: the mild preset's minimizer operator settles into two
    alternating rows, and the shifted bands of a spectrum test near its
    bounds keep changing.  The factor is stored as float64 arrays of shape
    (w+1, .), row 0 the pivots D[i] and row m the entries L[i, i-m]: `head`
    holds rows 0..h-1, every row h..t-1 is `limit`, and `tail` holds rows
    t..d-1.  A factor that never stopped is all head.  `pivots` and `_rows`
    assemble full rows.

    A tridiagonal factor (w <= 1) above SMALL_DIM solves by recursive
    doubling: forward and back substitution are first-order recurrences,
    each run as about log2(d) vectorized scans over coefficients built on
    first solve from the assembled L column, and tiled once per width for a
    block of right-hand sides.  Any other factor solves by the generated
    scalar kernel of its width (w = 1 for a diagonal one), which reads the
    head and tail as lists and the limit from locals.  Both solve states
    are built on first solve.
    """

    def __init__(self, lower: np.ndarray):
        w, d = lower.shape[0] - 1, lower.shape[1]
        a = _band_views(lower)
        rows = np.zeros((w + 1, d))
        flat = memoryview(rows.reshape(-1))
        views = [flat[m * d : (m + 1) * d] for m in range(w + 1)]
        factor = _ldl_kernel("factor", w)
        # at d <= SMALL_DIM a repeat would skip fewer rows than the stop costs
        top, bottom = _interior(lower) if d > SMALL_DIM else (d, d)
        stop = factor(a, views, top + w, bottom - 1)
        self.dim, self.width = d, w
        if stop == d:  # it never stopped
            self.head, self.limit, self.tail = rows, np.zeros(w + 1), rows[:, d:]
        else:  # rows stop-w..stop repeat up to the bottom edge; copies free the rows skipped
            if bottom < d:  # resume there, with the repeated row as the w rows before it
                factor(a, views, 0, 0, bottom, rows[:, stop].tolist())
            self.head, self.limit, self.tail = rows[:, : stop - w].copy(), rows[:, stop].copy(), rows[:, bottom:].copy()
        self._solver: Callable[[list[float]], list[float]] | None = None
        self._scan_state: tuple[list[np.ndarray], np.ndarray, list[np.ndarray]] | None = None
        self._tiles: dict[int, tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]] = {}

    def _rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 of the factor, shape (w+1, hi-lo), assembled from head, limit and tail."""
        h, t = self.head.shape[1], self.dim - self.tail.shape[1]
        parts = [self.head[:, lo:hi]]
        if max(lo, h) < min(hi, t):
            parts.append(np.repeat(self.limit[:, None], min(hi, t) - max(lo, h), axis=1))
        parts.append(self.tail[:, max(lo - t, 0) : max(hi - t, 0)])
        return np.concatenate(parts, axis=1)

    @property
    def pivots(self) -> np.ndarray:
        """The pivots D[i], a fresh (dim,) array."""
        return self._rows(0, self.dim)[0].copy()

    def _scans(self) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
        """Forward levels, pivots and backward levels of a tridiagonal factor's scans, built on first solve."""
        if self._scan_state is None:
            rows = self._rows(0, self.dim)
            sub = -rows[1] if self.width else np.zeros(self.dim)
            # forward: z_i = r_i - L[i, i-1] z_(i-1).  backward: x_i = u_i - L[i+1, i] x_(i+1),
            # the forward scan of the reversed vector with its levels turned back
            back = _scan_levels(np.append(sub[1:], 0.0)[::-1])
            self._scan_state = _scan_levels(sub), rows[0].copy(), [c[::-1].copy() for c in back]
        return self._scan_state

    def _scalar_solver(self) -> Callable[[list[float]], list[float]]:
        """The scalar solve kernel of this width, bound to the factor on first solve.

        It takes the head rows, and the tail rows from b = t - w on (the
        first w of them the limit's), as lists: the pivots, L[i, i-m] and
        L[i+m, i] per m, the last padded with the limit's entries past the
        head and with 0.0 past the last row.  Rows h..b-1, whose entries and
        those of the w rows after them are the limit's, it reads from the
        limit.  A diagonal factor solves as a tridiagonal one with L = 0, so
        every w <= 1 takes the one w = 1 kernel; such a factor stops only
        above SMALL_DIM, where it scans instead.
        """
        if self._solver is None:
            w, h = max(self.width, 1), self.head.shape[1]
            zeros = [0.0] * (w + 1)  # L[i+m, i] past the last row
            head = self.head.tolist() + [[0.0] * h] * (w - self.width)
            limit = tail = None
            if h < self.dim:  # stopped, so above SMALL_DIM, where only w >= 2 solves here
                limit = self.limit.tolist()
                tail = _solve_lists([[c] * w + row for c, row in zip(limit, self.tail.tolist())], zeros)
            head = _solve_lists(head, limit or zeros)
            self._solver = functools.partial(_ldl_kernel("solve", w), head, limit, tail)
        return self._solver

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
            kernel = self._solver or self._scalar_solver()
            if rhs.ndim == 1:
                return np.array(kernel(rhs.tolist()))
            x = np.empty(rhs.shape)
            for j, column in enumerate(rhs.T.tolist()):
                x[:, j] = kernel(column)
            return x
        forward, pivots, backward = self._scans() if rhs.ndim == 1 else self._tiled(rhs.shape[1])
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
            forward, pivots, backward = self._scans()
            tiles = [_tile(c, k) for c in forward], _tile(pivots, k), [_tile(c, k) for c in backward]
            self._tiles[k] = tiles
        return tiles


def _lower_bands(op: StructuredOperator) -> np.ndarray:
    """`band_form(op)`; CapabilityError when the operator has odd powers."""
    lower = band_form(op)
    if lower is None:
        raise CapabilityError(f"{op.kind} has no band form to factor")
    return lower


def banded_ldl(op: StructuredOperator) -> BandedLDL:
    """Factor a symmetric positive definite power sum of even powers, O(d w^2).

    An operator with odd powers has no band form and raises CapabilityError.
    """
    return BandedLDL(_lower_bands(op))


def spectrum_within(op: StructuredOperator, lo: float, hi: float) -> bool:
    """Whether every eigenvalue of the symmetric `op` lies strictly inside (lo, hi).

    Decided by inertia: op - lo*I and hi*I - op must both have positive LDL'
    pivots, with no eigendecomposition, O(d w^2).  Each band runs through the
    store-free inertia kernel, whose pivots are the factor kernel's: it keeps
    only the last w rows in locals, builds no `BandedLDL` and returns at the
    first non-positive pivot; the second band runs only when the first
    passes.  Near the spectrum's ends the shifted factors do not repeat
    (neither H - lo*I nor hi*I - H of the scsc builds does within d = 1024),
    so the factor's stop rule would not shorten them.  An operator without a
    band form raises CapabilityError, as in `banded_ldl`.
    """
    lower = _lower_bands(op)
    above, below = lower.copy(), -lower
    above[0] -= lo
    below[0] += hi
    inertia = _ldl_kernel("inertia", lower.shape[0] - 1)
    return inertia(_band_views(above)) and inertia(_band_views(below))


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
