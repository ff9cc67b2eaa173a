"""`QuadraticOuter.values` as it was before its quadratic products were formed in place.

Kept verbatim as a test oracle: each term's product was a fresh temporary,
summed down the columns.  The in-place form must give the same values bit for
bit.
"""


def values(outer, xs, ys):
    """`value` at each column pair of a (p, k) block xs and a (q, k) block ys."""
    val = 0.5 * (xs * outer.a_xx.apply_block(xs)).sum(0)
    val += 0.5 * (ys * outer.a_yy.apply_block(ys)).sum(0)
    if outer.a_xy is not None:
        val += (xs * outer.a_xy.apply_block(ys)).sum(0)
    if outer.lin_x is not None:
        val += (outer.lin_x[:, None] * xs).sum(0)
    if outer.lin_y is not None:
        val += (outer.lin_y[:, None] * ys).sum(0)
    return val
