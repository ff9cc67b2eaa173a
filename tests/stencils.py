"""Hand-tabulated dense forms of the anti-banded operator powers.

These are written out from the boundary-corrected band stencils and exist
only as test oracles; the package itself never stores dense powers.
`apply_power` applies an operator's power by repeated `apply`.
"""

import numpy as np


def apply_power(op, v: np.ndarray, power: int) -> np.ndarray:
    """op^power v, as `power` applies of op in turn."""
    for _ in range(power):
        v = op.apply(v)
    return v


def _band_matrix(d: int, stencil: dict[int, float]) -> np.ndarray:
    a = np.zeros((d, d))
    for off, value in stencil.items():
        for i in range(d):
            j = i + off
            if 0 <= j < d:
                a[i, j] = value
                a[j, i] = value
    return a


def scsc_z_table(d: int) -> np.ndarray:
    a = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if i + j == d - 1:
                a[i, j] = 1.0
            elif i + j == d:
                a[i, j] = -1.0
    return a


def scsc_z2_table(d: int) -> np.ndarray:
    a = _band_matrix(d, {0: 2.0, 1: -1.0})
    a[0, 0] = 1.0
    return a


def scsc_z4_table(d: int) -> np.ndarray:
    a = _band_matrix(d, {0: 6.0, 1: -4.0, 2: 1.0})
    a[0, 0] += -4.0  # 2
    a[0, 1] += 1.0  # -3
    a[1, 0] += 1.0
    a[d - 1, d - 1] += -1.0  # 5
    return a


def scsc_zinv_table(d: int) -> np.ndarray:
    i = np.arange(d)[:, None] + np.arange(d)[None, :]
    return np.where(i <= d - 1, 1.0, 0.0)


def csc_z_table(d: int) -> np.ndarray:
    a = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if i + j == d - 2:
                a[i, j] = 1.0
            elif i + j == d - 1:
                a[i, j] = -1.0
    return a


def csc_z2_table(d: int) -> np.ndarray:
    a = _band_matrix(d, {0: 2.0, 1: -1.0})
    a[d - 1, d - 1] = 1.0
    return a


def csc_z4_table(d: int) -> np.ndarray:
    a = _band_matrix(d, {0: 6.0, 1: -4.0, 2: 1.0})
    a[0, 0] += -1.0  # 5
    a[d - 2, d - 1] += 1.0  # -3
    a[d - 1, d - 2] += 1.0
    a[d - 1, d - 1] += -4.0  # 2
    return a


def csc_z6_table(d: int) -> np.ndarray:
    a = _band_matrix(d, {0: 20.0, 1: -15.0, 2: 6.0, 3: -1.0})
    a[0, 0] += -6.0  # 14
    a[0, 1] += 1.0  # -14
    a[1, 0] += 1.0
    if d >= 3:
        a[d - 3, d - 1] += -1.0  # 5
        a[d - 1, d - 3] += -1.0
    a[d - 2, d - 2] += -1.0  # 19
    a[d - 2, d - 1] += 6.0  # -9
    a[d - 1, d - 2] += 6.0
    a[d - 1, d - 1] += -15.0  # 5
    return a


def csc_zinv_table(d: int) -> np.ndarray:
    i = np.arange(d)[:, None] + np.arange(d)[None, :]
    return np.where(i >= d - 1, -1.0, 0.0)
