"""The broadcast scan solve and the `np.diff` form of Z that `linalg` ran before
its tiled block solves and its slice difference.

Kept verbatim as test oracles: a scan factor's block solve must equal the
broadcast solve, and `apply_z` the difference of the reversed vector, bit for
bit, signed zeros included.
"""

import numpy as np


def scan(z: np.ndarray, levels: list[np.ndarray], backward: bool = False) -> None:
    """The scan of `linalg._scan` with each level broadcast across the trailing axes of z."""
    s = 1
    for coef in levels:
        if z.ndim > 1:
            coef = coef.reshape(coef.shape + (1,) * (z.ndim - 1))
        if backward:
            z[:-s] += coef * z[s:]
        else:
            z[s:] += coef * z[:-s]
        s *= 2


def block_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """A scan factor's solve of a (dim,) or (dim, k) rhs, its levels and pivots broadcast."""
    forward, pivots, backward = factor._scans()
    x = np.array(rhs, dtype=np.float64)
    scan(x, forward)
    x /= pivots if x.ndim == 1 else pivots[:, None]
    scan(x, backward, backward=True)
    return x


def apply_z(flavor: str, v: np.ndarray) -> np.ndarray:
    """Z v as one `np.diff` of the reversed v, a 0.0 prepended (scsc) or appended (csc)."""
    if flavor == "scsc":
        return np.diff(v[::-1], prepend=0.0)
    return np.diff(v[::-1], append=0.0)
