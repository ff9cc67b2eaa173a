"""The spectrum test that `linalg` ran before its store-free inertia kernel.

Kept verbatim as a test oracle: it factors both shifted bands with
`linalg.BandedLDL`, whose pivots tests/ldl_reference.py pins to the generic
loop, and `linalg.spectrum_within` must reach the same decision for every
(lo, hi).
"""

from bilevel_lab import linalg
from bilevel_lab.errors import SingularOperatorError


def spectrum_within(op, lo: float, hi: float) -> bool:
    """Whether every eigenvalue of the symmetric `op` lies strictly inside (lo, hi).

    Decided by inertia: op - lo*I and hi*I - op must both factor with
    positive LDL' pivots, with no eigendecomposition, O(d w^2).  An operator
    without a band form raises CapabilityError, as in `banded_ldl`.
    """
    lower = linalg._lower_bands(op)
    above, below = lower.copy(), -lower
    above[0] -= lo
    below[0] += hi
    try:
        linalg.BandedLDL(above)
        linalg.BandedLDL(below)
    except SingularOperatorError:
        return False
    return True
