"""The stencil gathers that applied every operator above SMALL_DIM before the tap kernels.

Kept verbatim as test oracles: on a single-parity polynomial in Z the tap
kernels must give the gather's values bit for bit, apart from the sign of a
zero; on any other they must stay within a few ulps of each row's absolute
sum, and be non-finite wherever the gather is.
"""

import numpy as np


def apply(op, v: np.ndarray) -> np.ndarray:
    """One gather: row i sums vals[k, i] * v[cols[k, i]] over the slots k, in slot order."""
    return (op.vals * v[op.cols]).sum(0)


def apply_block(op, block: np.ndarray) -> np.ndarray:
    """One gather per slot on a (dim, k) block, accumulated from zero in slot order."""
    out = np.zeros(block.shape)
    for cols, vals in zip(op.cols, op.vals):
        out += vals[:, None] * block[cols]
    return out


def abs_sum(op, v: np.ndarray) -> np.ndarray:
    """Per row, the sum of |vals * v[cols]|: the scale of that row's rounding error."""
    return np.abs(op.vals * v[op.cols]).sum(0)
