"""Scalar reference loops for the banded LDL' factor and its solves.

These are the generic per-row loops that `linalg.BandedLDL` ran before its
per-width kernels, kept verbatim as test oracles: the kernels must give the
same pivots, the same `L` and the same solves, bit for bit, and reject an
indefinite matrix at the same pivot with the same message.
"""

import numpy as np

from bilevel_lab.errors import SingularOperatorError


def factor(lower: np.ndarray) -> tuple[list[list[float]], list[float]]:
    """(low, piv) with low[m][i] = L[i, i-m] and piv[i] = D[i, i]."""
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
    return low, piv


def solve_tridiagonal_by_loop(low, piv, rhs: np.ndarray) -> np.ndarray:
    """Thomas: forward substitution, then back substitution with the pivot division folded in."""
    d = len(piv)
    sub = low[1] if len(low) > 1 else [0.0] * d  # sub[i] = L[i, i-1]
    z = rhs.tolist()
    for i in range(1, d):
        z[i] -= sub[i] * z[i - 1]
    z[-1] /= piv[-1]
    for i in range(d - 2, -1, -1):
        z[i] = z[i] / piv[i] - sub[i + 1] * z[i + 1]
    return np.array(z)


def solve_by_loop(low, piv, rhs: np.ndarray) -> np.ndarray:
    w, d = len(low) - 1, len(piv)
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


def solve(low, piv, rhs: np.ndarray) -> np.ndarray:
    """The scalar solve a factor of this width took: Thomas up to w = 1, else the general loop."""
    loop = solve_by_loop if len(low) > 2 else solve_tridiagonal_by_loop
    if rhs.ndim == 1:
        return loop(low, piv, rhs)
    return np.column_stack([loop(low, piv, rhs[:, j]) for j in range(rhs.shape[1])])
