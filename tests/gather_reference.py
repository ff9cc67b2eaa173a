"""The row stencil that every operator stored before it kept its polynomial alone, and its gathers.

`stencil(op)` rebuilds that stencil from `op.poly` at the operator's own
dimension, by `_z_table`, `_window` and `_z_stencil` kept verbatim (the
table without its cache, so that no test fills linalg's).  It is the test
oracle of the tap kernels, `to_dense` and `band_form`: on a single-parity
polynomial in Z the tap kernels must give the gather's values bit for bit,
apart from the sign of a zero; on any other they must stay within a few
ulps of each row's absolute sum, and be non-finite wherever the gather is.
"""

from typing import Mapping

import numpy as np


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


def _window(start: np.ndarray, width: int) -> np.ndarray:
    """Columns start[i] .. start[i] + width - 1 of each row, clipped into range."""
    dim = start.shape[0]
    # minimum/maximum: np.clip costs several times more on stencil-sized arrays
    return np.minimum(np.maximum(start + np.arange(width)[:, None], 0), dim - 1)


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


def stencil(op) -> tuple[np.ndarray, np.ndarray]:
    """(cols, vals) of shape (w, dim): row i holds vals[k, i] at column cols[k, i]."""
    flavor, coeffs = op.poly
    weights = {p: c for p, c in coeffs.items() if p}
    return _z_stencil(flavor, op.dim, weights, coeffs.get(0, 0.0))


def apply(op, v: np.ndarray) -> np.ndarray:
    """One gather: row i sums vals[k, i] * v[cols[k, i]] over the slots k, in slot order."""
    cols, vals = stencil(op)
    return (vals * v[cols]).sum(0)


def apply_block(op, block: np.ndarray) -> np.ndarray:
    """One gather per slot on a (dim, k) block, accumulated from zero in slot order."""
    out = np.zeros(block.shape)
    for cols, vals in zip(*stencil(op)):
        out += vals[:, None] * block[cols]
    return out


def abs_sum(op, v: np.ndarray) -> np.ndarray:
    """Per row, the sum of |vals * v[cols]|: the scale of that row's rounding error."""
    cols, vals = stencil(op)
    return np.abs(vals * v[cols]).sum(0)


def to_dense(op) -> np.ndarray:
    """The dense form by one scatter of the stencil."""
    cols, vals = stencil(op)
    d = op.dim
    flat = cols + d * np.arange(d)
    return np.bincount(flat.ravel(), weights=vals.ravel(), minlength=d * d).reshape(d, d)


def band_form(op) -> np.ndarray | None:
    """The stencil's lower bands, row m holding A[i, i-m], or None when it is not banded."""
    cols, vals = stencil(op)
    rows = cols.shape[0]
    if rows % 2 == 0:
        return None
    w = rows // 2
    if not np.array_equal(cols, _window(np.arange(op.dim) - w, rows)):
        return None
    return vals[w::-1]
