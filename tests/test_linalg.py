import gc
import inspect
import traceback
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevel_lab import linalg, oracles
from bilevel_lab.errors import (
    BracketError,
    CapabilityError,
    DimensionMismatchError,
    DomainError,
    SingularOperatorError,
)

import gather_reference
import inertia_reference
import ldl_reference
import scan_reference
import stencils

SMALL = linalg.SMALL_DIM


def _z_power_dense(flavor, d, power):
    z = linalg.anti_banded_z(flavor, d)
    eye = np.eye(d)
    return np.column_stack([stencils.apply_power(z, eye[:, j], power) for j in range(d)])


class TestAntiBandedTables:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_scsc_powers_match_tables(self, d):
        assert np.array_equal(_z_power_dense("scsc", d, 1), stencils.scsc_z_table(d))
        assert np.array_equal(_z_power_dense("scsc", d, 2), stencils.scsc_z2_table(d))
        assert np.array_equal(_z_power_dense("scsc", d, 4), stencils.scsc_z4_table(d))

    @pytest.mark.parametrize("d", range(2, 13))
    def test_csc_powers_match_tables(self, d):
        assert np.array_equal(_z_power_dense("csc", d, 1), stencils.csc_z_table(d))
        assert np.array_equal(_z_power_dense("csc", d, 2), stencils.csc_z2_table(d))
        assert np.array_equal(_z_power_dense("csc", d, 4), stencils.csc_z4_table(d))
        assert np.array_equal(_z_power_dense("csc", d, 6), stencils.csc_z6_table(d))

    @pytest.mark.parametrize("flavor,inv", [("scsc", stencils.scsc_zinv_table), ("csc", stencils.csc_zinv_table)])
    @pytest.mark.parametrize("d", range(2, 13))
    def test_closed_form_inverse(self, flavor, inv, d):
        z = linalg.anti_banded_z(flavor, d).to_dense()
        assert np.allclose(z @ inv(d), np.eye(d), atol=1e-12)


Z_TABLES = {"scsc": stencils.scsc_z_table, "csc": stencils.csc_z_table}
# the builders' power sums ({2}+shift, {3,1}, {4,2}+shift) and single powers
ONE_PARITY_SUMS = [
    ({2: 0.225}, 0.1),
    ({3: -0.3, 1: 0.7}, 0.0),
    ({4: 1.0, 2: 3.7}, 0.013),
    ({1: -1.25}, 0.0),
    ({6: -1.5, 4: 0.3, 2: 2.0}, 0.2),
    ({5: 0.5, 3: -0.125, 1: 3.0}, 0.0),
]
OPERATOR_KINDS = [
    "z-scsc", "z-csc", "z-sum-scsc", "z-sum-csc", "shift-only", "zero", "even-to-6", "odd-sum",
]
# the power sums of the kinds above that take their flavor from the dimension
KIND_SUMS = {
    "shift-only": ({}, 1.0),  # the identity, as `decoupled` builds it
    "zero": ({}, 0.0),
    "even-to-6": ({2: 0.5, 4: -1.25, 6: 0.125}, 2.0),
    "odd-sum": ({1: 2.0, 3: -0.7}, 0.0),
}


def _power_sum_reference(flavor, d, coeffs, shift):
    """shift*I + sum_p c_p Z^p from the hand-tabulated Z, accumulated in that order."""
    z = Z_TABLES[flavor](d)
    ref = shift * np.eye(d)
    for p in sorted(coeffs):
        ref = ref + coeffs[p] * np.linalg.matrix_power(z, p)
    return ref


def _operator_and_reference(kind, d, gen):
    """An operator of the given kind and its dense form written out independently."""
    if kind in ("z-scsc", "z-csc"):
        flavor = kind[2:]
        return linalg.anti_banded_z(flavor, d), Z_TABLES[flavor](d)
    if kind in ("z-sum-scsc", "z-sum-csc"):
        flavor = kind[6:]
        coeffs, shift = {4: 1.0, 2: 3.7}, 0.013
        return linalg.z_power_sum(flavor, d, coeffs, shift), _power_sum_reference(
            flavor, d, coeffs, shift
        )
    flavor = "csc" if d % 2 else "scsc"
    coeffs, shift = KIND_SUMS[kind]
    return linalg.z_power_sum(flavor, d, coeffs, shift), _power_sum_reference(
        flavor, d, coeffs, shift
    )


class TestStencil:
    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    @pytest.mark.parametrize("d", [4, 5, 32, 33])
    @pytest.mark.parametrize("coeffs,shift", ONE_PARITY_SUMS)
    def test_power_sum_dense_form_is_exact(self, flavor, d, coeffs, shift):
        op = linalg.z_power_sum(flavor, d, coeffs, shift)
        assert np.array_equal(op.to_dense(), _power_sum_reference(flavor, d, coeffs, shift))

    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    @pytest.mark.parametrize("d", [4, 5, 32, 33])
    def test_mixed_parity_sum_within_rounding(self, flavor, d):
        # the two parity windows overlap near the middle row, where the even
        # and odd parts are rounded separately before they are added
        coeffs, shift = {1: 0.5, 2: 0.3, 3: 0.1, 4: 1.7}, 0.9
        ref = _power_sum_reference(flavor, d, coeffs, shift)
        dense = linalg.z_power_sum(flavor, d, coeffs, shift).to_dense()
        assert np.max(np.abs(dense - ref)) <= 8 * np.finfo(np.float64).eps * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    @pytest.mark.parametrize("d", [4, 5, 32, 33])
    def test_dense_form_of_every_kind_is_exact(self, kind, d):
        op, ref = _operator_and_reference(kind, d, np.random.default_rng(d))
        assert np.array_equal(op.to_dense(), ref)

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    @pytest.mark.parametrize("d", [4, 5, 32, 33, SMALL, SMALL + 1])
    def test_apply_matches_dense_form(self, kind, d):
        gen = np.random.default_rng(100 + d)
        op, _ = _operator_and_reference(kind, d, gen)
        a = op.to_dense()
        for _ in range(3):
            v = gen.standard_normal(d)
            expected = a @ v
            assert np.linalg.norm(op.apply(v) - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    def test_to_dense_makes_no_apply_call(self, kind, monkeypatch):
        op, ref = _operator_and_reference(kind, 9, np.random.default_rng(3))

        def forbidden(self, v):
            raise AssertionError("to_dense must not apply the operator")

        monkeypatch.setattr(linalg.StructuredOperator, "apply", forbidden)
        assert np.array_equal(op.to_dense(), ref)

    def test_to_dense_returns_a_fresh_array(self):
        op = linalg.z_power_sum("scsc", 6, {2: 1.0}, shift=0.5)
        first = op.to_dense()
        first[:] = 0.0
        assert np.array_equal(op.to_dense(), _power_sum_reference("scsc", 6, {2: 1.0}, 0.5))

    def test_benchmark_build_densifies_only_what_the_exact_surface_needs(
        self, benchmark_constants, monkeypatch, factor_calls
    ):
        from bilevel_lab.hard_instances import build_scsc_benchmark

        densified = []
        to_dense = linalg.StructuredOperator.to_dense

        def spy(self):
            densified.append(self.kind)
            return to_dense(self)

        monkeypatch.setattr(linalg.StructuredOperator, "to_dense", spy)
        d = SMALL + 1  # above the small-dimension kernels, which keep a dense form
        build_scsc_benchmark(d, benchmark_constants, initial_gap=1.0)
        # the exact surface is banded, so nothing is densified; the gap is
        # measured in one pass: the tridiagonal H and the (pentadiagonal)
        # cleared system for x*, while the spectrum check's inertia passes
        # store no factor
        assert densified == []
        assert sorted(factor_calls) == [(1, d), (2, d)]


class TestApply:
    def test_scsc_z2_first_column(self):
        z2 = linalg.z_power_sum("scsc", 4, {2: 1.0})
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(z2.apply(e1), np.array([1.0, -1.0, 0.0, 0.0]))

    def test_csc_z2_first_column(self):
        z2 = linalg.z_power_sum("csc", 4, {2: 1.0})
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(z2.apply(e1), np.array([2.0, -1.0, 0.0, 0.0]))

    def test_zero_vector_maps_to_zero(self):
        for flavor in ("scsc", "csc"):
            op = linalg.z_power_sum(flavor, 9, {2: 1.5, 4: -0.25}, shift=0.8)
            assert np.array_equal(op.apply(np.zeros(9)), np.zeros(9))

    def test_dimension_mismatch(self):
        op = linalg.anti_banded_z("scsc", 5)
        with pytest.raises(DimensionMismatchError):
            op.apply(np.zeros(6))

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    def test_dimension_mismatch_every_kind(self, kind):
        # a longer vector would gather without error, and a dense matvec
        # accepts a (d, 1) column: the shape check must fire for both kernels
        for d in (5, SMALL, SMALL + 1):
            op, _ = _operator_and_reference(kind, d, np.random.default_rng(7))
            for bad in (np.zeros(d + 1), np.zeros(d - 1), np.zeros((d, 1))):
                with pytest.raises(DimensionMismatchError):
                    op.apply(bad)
            for bad in (np.zeros(d), np.zeros((d + 1, 2)), np.zeros((d, 2, 1))):
                with pytest.raises(DimensionMismatchError):
                    op.apply_block(bad)

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    @pytest.mark.parametrize("d", [5, SMALL + 1])
    def test_block_apply_matches_columns(self, kind, d):
        gen = np.random.default_rng(200 + d)
        op, _ = _operator_and_reference(kind, d, gen)
        block = gen.standard_normal((d, 4))
        out = op.apply_block(block)
        for k in range(4):
            expected = op.apply(block[:, k])
            assert np.linalg.norm(out[:, k] - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    @pytest.mark.parametrize("d", [8, 64])
    def test_zero_chain_is_structural(self, flavor, d, rng):
        # support grows by exactly one coordinate, with exact zeros beyond
        z2 = linalg.z_power_sum(flavor, d, {2: 1.0})
        for k in range(1, d - 1):
            v = np.zeros(d)
            v[:k] = rng.standard_normal(k)
            out = z2.apply(v)
            assert np.all(out[k + 1 :] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["z-poly", "even-sum", "odd-sum", "mixed-sum"]),
        d=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_symmetry_property(self, kind, d, seed):
        gen = np.random.default_rng(seed)
        flavor = "scsc" if seed % 2 else "csc"
        if kind == "z-poly":
            op = linalg.z_power_sum(flavor, d, {1 + seed % 4: 1.0}, shift=0.3)
        else:  # random coefficients on the powers of one parity, or both
            powers = {"even-sum": (2, 4, 6), "odd-sum": (1, 3, 5), "mixed-sum": (1, 2, 5)}[kind]
            coeffs = dict(zip(powers, gen.standard_normal(3)))
            op = linalg.z_power_sum(flavor, d, coeffs, shift=gen.standard_normal())
        u, v = gen.standard_normal(d), gen.standard_normal(d)
        lhs = float(op.apply(u) @ v)
        rhs = float(u @ op.apply(v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


# (label, coeffs, shift): polynomials in Z with powers up to 6
TAP_CASES = [
    ("z", {1: 1.0}, 0.0),
    ("even", {2: 1.5}, 0.3),
    ("even-to-6", {2: 0.5, 4: -1.25, 6: 0.125}, 2.0),
    ("odd", {1: 2.0, 3: -0.7}, 0.0),
    ("odd-to-5", {1: -0.5, 5: 0.25}, 0.0),
    ("mixed", {1: 1.0, 2: 0.5, 5: 0.25}, 0.1),
    ("mixed-to-6", {3: 1.0, 6: -0.3}, 0.0),
    ("shift-only", {}, 3.0),
    ("zero", {}, 0.0),
]
# just above SMALL_DIM, one size between, and the sizes around 224, where the
# gather once handed over to the taps
TAP_DIMS = [65, 100, 223, 224, 225, 226, 257, 1024]
ULPS = 4


def _tap_inputs(d, gen):
    """Vectors as the columns of a (d, 5) block: random, signed zeros, one inf, one NaN."""
    block = np.column_stack([gen.standard_normal(d) for _ in range(5)])
    block[: d // 2, 1] = 0.0
    block[::3, 1] = -0.0
    block[1, 2] = np.inf
    block[d // 2, 3] = -np.inf
    block[d - 2, 4] = np.nan
    return block


def _taps(op):
    """The operator's taps and edge rows, derived as its first apply derives them."""
    return op._taps or op._derive_taps()


def _pivots_or_error(factor):
    """The pivots of a factorization, or the message of the SingularOperatorError it raises."""
    try:
        return factor().pivots
    except SingularOperatorError as exc:
        return str(exc)


def _check_kernels(op, block, exact):
    """`apply` and `apply_block` on every column of block, against the stencil's gathers.

    `apply` matches bit for bit when `exact` (up to the sign of a zero), else
    within ULPS ulps of each row's absolute sum; its edge rows and every row
    of `apply_block` match bit for bit, and both are non-finite exactly where
    the gather is.
    """
    edges = [row for row, _ in _taps(op).edges]
    for v in block.T:
        out, ref = op.apply(v), gather_reference.apply(op, v)
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(out), finite)
        err = np.abs(out - ref)[finite]
        if exact:
            assert np.all(err == 0.0)
        else:
            bound = ULPS * np.finfo(float).eps * gather_reference.abs_sum(op, v)[finite]
            assert np.all(err <= bound)
        at_edges = finite[edges]
        assert np.array_equal(out[edges][at_edges], ref[edges][at_edges])
    out, ref = op.apply_block(block), gather_reference.apply_block(op, block)
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(out), finite)
    assert np.array_equal(out[finite], ref[finite])


class TestTapKernels:
    """The taps and edge rows against the row stencil in tests/gather_reference.py.

    Every operator keeps its polynomial alone and derives taps and edge rows
    from the powers of Z at a dimension set by its degree; the reference
    rebuilds the whole stencil at the operator's dimension, as operators
    once stored it.  Single-parity sums must match the gather's values bit
    for bit (equal up to the sign of a zero), mixed-parity sums within ULPS
    ulps of each row's absolute sum; `to_dense`, `band_form` and the LDL'
    pivots must be those of the stencil to the bit.
    """

    @pytest.mark.parametrize("d", TAP_DIMS)
    @pytest.mark.parametrize("label,coeffs,shift", TAP_CASES, ids=[c[0] for c in TAP_CASES])
    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_kernels_match_the_gather(self, flavor, label, coeffs, shift, d):
        op = linalg.z_power_sum(flavor, d, coeffs, shift)
        powers = set(op.poly[1])
        exact = powers <= {0, 2, 4, 6} or powers <= {1, 3, 5}
        assert len(_taps(op).edges) <= 2 * len(_taps(op).slots)
        _check_kernels(op, _tap_inputs(d, np.random.default_rng(d)), exact)

    @pytest.mark.parametrize("d", TAP_DIMS)
    @pytest.mark.parametrize("label,coeffs,shift", TAP_CASES, ids=[c[0] for c in TAP_CASES])
    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    def test_dense_and_band_forms_are_the_stencils(self, flavor, label, coeffs, shift, d):
        op = linalg.z_power_sum(flavor, d, coeffs, shift)
        assert _bitwise_equal(op.to_dense(), gather_reference.to_dense(op))
        lower, want = linalg.band_form(op), gather_reference.band_form(op)
        assert (lower is None) == (want is None)
        if lower is not None:
            assert _bitwise_equal(lower, want)
            got, ref = _pivots_or_error(lambda: linalg.banded_ldl(op)), _pivots_or_error(
                lambda: linalg.BandedLDL(want)
            )
            assert got == ref if isinstance(ref, str) else _bitwise_equal(got, ref)

    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    @pytest.mark.parametrize("degree", range(1, 11))
    def test_the_widened_stencil_is_the_operators_own(self, flavor, degree):
        """Built at 4 deg + 9 rows and widened, the stencil is the one built at the operator's dimension."""
        coeffs = {degree: 0.75, 1 + degree % 2: -1.5}
        n = 4 * degree + 9
        for d in (n - 1, n, n + 1, n + 2, 2 * n, 5 * n + 3):
            op = linalg.z_power_sum(flavor, d, coeffs, shift=0.25)
            assert _bitwise_equal(linalg._widen(op._stencil()[1], d), gather_reference.stencil(op)[1])

    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    @pytest.mark.parametrize("d", [65, 100])
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_a_degree_with_no_interior_applies_by_its_edge_rows(self, flavor, d):
        """Degree 40 at d below 4 deg + 9: the stencil is the operator's own, over a third of it edge rows.

        A kernel of 41 taps is not summed in tap order by np.correlate, so
        even this single-parity sum matches within ULPS ulps of each row.
        """
        op = linalg.z_power_sum(flavor, d, {40: 1e-3, 2: 1.0}, shift=0.5)
        assert len(_taps(op).edges) > d // 3
        _check_kernels(op, _tap_inputs(d, np.random.default_rng(d)), exact=False)
        assert _bitwise_equal(op.to_dense(), gather_reference.to_dense(op))
        assert _bitwise_equal(linalg.band_form(op), gather_reference.band_form(op))

    def test_taps_are_derived_once_on_first_apply(self, monkeypatch):
        derived = []
        tap_kernel = linalg._tap_kernel

        def spy(layout, vals, dim):
            derived.append(dim)
            return tap_kernel(layout, vals, dim)

        monkeypatch.setattr(linalg, "_tap_kernel", spy)
        d = SMALL + 1
        op = linalg.z_power_sum("scsc", d, {2: 1.0}, 0.5)
        linalg.banded_ldl(op)
        op.to_dense()
        assert derived == []  # factored or densified, an operator needs no taps
        op.apply(np.ones(d))
        op.apply_block(np.ones((d, 2)))
        assert derived == [d]
        small = linalg.z_power_sum("scsc", SMALL, {2: 1.0}, 0.5)
        small.apply(np.ones(SMALL))
        small.apply_block(np.ones((SMALL, 2)))
        assert derived == [d]  # its dense form applies it

    def test_the_table_dimension_is_set_by_the_degree(self, monkeypatch):
        dims = []
        z_table = linalg._z_table.__wrapped__

        def spy(flavor, dim, power):
            dims.append(dim)
            return z_table(flavor, dim, power)

        monkeypatch.setattr(linalg, "_z_table", spy)
        for d in (SMALL + 1, 1024, 100_000):
            dims.clear()
            linalg.z_power_sum("csc", d, {4: 1.0, 2: 0.5}, shift=0.1).apply(np.ones(d))
            assert set(dims) == {4 * 4 + 9}

    def test_memory_held_by_an_applied_operator(self):
        """Under 1 MB held after a d = 100 000 operator is built and applied, by it and linalg's caches.

        A stored (w, d) row stencil of its five slots would hold 8 MB, and
        the powers of Z at that dimension another 12 MB.
        """
        d = 100_000
        v, block = np.ones(d), np.ones((d, 2))
        gc.collect()
        tracemalloc.start()
        try:
            op = linalg.z_power_sum("scsc", d, {4: 1.0, 2: 0.5}, shift=0.1)
            out, out_block = op.apply(v), op.apply_block(block)
            del out, out_block
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert op.dim == d and held < 1_000_000


def _shift_only(d, shift=1.0):
    """shift * I, the shift-only power sum in Z (the identity by default)."""
    return linalg.z_power_sum("scsc", d, {}, shift=shift)


class TestSolveDense:
    def test_identity(self):
        x = linalg.solve_dense(_shift_only(2), np.array([3.0, -1.0]))
        assert np.array_equal(x, np.array([3.0, -1.0]))

    def test_round_trip_through_z(self, rng):
        z = linalg.anti_banded_z("scsc", 8)
        v = rng.standard_normal(8)
        rhs = z.apply(v)
        x = linalg.solve_dense(z, rhs)
        assert np.linalg.norm(x - v) <= 1e-10 * np.linalg.norm(v)

    def test_residual_contract(self, rng):
        op = linalg.z_power_sum("csc", 16, {2: 0.4}, shift=0.7)
        rhs = rng.standard_normal(16)
        x = linalg.solve_dense(op, rhs)
        assert np.linalg.norm(op.apply(x) - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_singular_raises_with_condition_number(self):
        op = _shift_only(3, 0.0)  # the zero operator
        with pytest.raises(SingularOperatorError):
            linalg.solve_dense(op, np.array([1.0, 1.0, 1.0]))

    def test_matrix_rhs_matches_column_solves(self, rng):
        op = linalg.z_power_sum("scsc", 12, {2: 0.3}, shift=0.9)
        rhs = rng.standard_normal((12, 5))
        x = linalg.solve_dense(op, rhs)
        assert x.shape == (12, 5)
        for j in range(5):
            col = linalg.solve_dense(op, rhs[:, j])
            assert np.linalg.norm(x[:, j] - col) <= 1e-12 * np.linalg.norm(col)

    def test_matrix_rhs_singular_raises(self):
        op = _shift_only(3, 0.0)
        with pytest.raises(SingularOperatorError):
            linalg.solve_dense(op, np.ones((3, 2)))

    def test_matrix_rhs_residual_checked_per_column(self):
        # Z - t I at d = 2, cond ~ 5e16: the scsc Z there has the eigenvalues
        # t = (sqrt(5) - 1)/2 and -(1 + t), with eigenvectors (1, t) and
        # (1, -(1 + t)).  The large column, along the second, has a residual
        # tiny relative to its norm, the small column's is not, and the whole
        # block's Frobenius residual still sits far below the tolerance
        # times its norm
        t = (5**0.5 - 1) / 2
        op = linalg.z_power_sum("scsc", 2, {1: 1.0}, shift=-t)
        rhs = np.column_stack([[1e6, -1e6 * (1 + t)], [1e-12, 0.0]])
        a = op.to_dense()
        x = np.linalg.solve(a, rhs)
        resid = np.linalg.norm(a @ x - rhs, axis=0)
        assert resid[1] > linalg.SOLVE_RESIDUAL_TOL * np.linalg.norm(rhs[:, 1])
        assert np.linalg.norm(resid) <= linalg.SOLVE_RESIDUAL_TOL * np.linalg.norm(rhs)
        with pytest.raises(SingularOperatorError):
            linalg.solve_dense(op, rhs)

    def test_rhs_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.solve_dense(_shift_only(3), np.ones((4, 2)))


class TestBandedLDL:
    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    @pytest.mark.parametrize("d", [4, 5, 32, SMALL, SMALL + 1, 1024, 16384])
    def test_tridiagonal_scan_solve_residual(self, flavor, d):
        h = linalg.z_power_sum(flavor, d, {2: 0.375}, shift=0.5)  # H at kappa_y = 4
        factor = linalg.banded_ldl(h)
        gen = np.random.default_rng(d)
        rhs = gen.standard_normal(d)
        x = factor.solve(rhs)
        assert np.linalg.norm(h.apply(x) - rhs) <= 1e-14 * np.linalg.norm(rhs)
        block = gen.standard_normal((d, 3))
        xs = factor.solve(block)
        for k in range(3):
            assert np.array_equal(xs[:, k], factor.solve(block[:, k]))

    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    @pytest.mark.parametrize("d", [4, 5, 33])
    @pytest.mark.parametrize(
        "coeffs,shift", [({4: 1.0, 2: 3.7}, 0.013), ({6: 0.2, 4: 1.0, 2: 2.0}, 0.5)]
    )
    def test_wide_band_solve_matches_dense(self, flavor, d, coeffs, shift):
        op = linalg.z_power_sum(flavor, d, coeffs, shift)
        rhs = np.random.default_rng(d).standard_normal(d)
        factor = linalg.banded_ldl(op)
        x = factor.solve(rhs)
        ref = np.linalg.solve(op.to_dense(), rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        block = np.random.default_rng(d + 1).standard_normal((d, 3))
        xs = factor.solve(block)
        assert xs.shape == (d, 3)
        for k in range(3):
            assert np.array_equal(xs[:, k], factor.solve(block[:, k]))

    def test_pivots_are_those_of_the_dense_factorization(self):
        lower = np.array([[2.0, 3.0, 4.0], [0.0, 1.0, -1.0]])  # diagonal, then A[i, i-1]
        pivots = linalg.BandedLDL(lower).pivots
        assert np.allclose(pivots, [2.0, 2.5, 4.0 - 1.0 / 2.5])
        chol = np.linalg.cholesky(_dense_from_lower(lower))  # C = L sqrt(D)
        assert np.allclose(pivots, np.diag(chol) ** 2)

    @pytest.mark.parametrize(
        "w,d", [(1, 9), (3, 11), (5, 6)], ids=["random-tridiagonal", "wide-band", "full-band"]
    )
    def test_general_bands_match_the_reference_and_numpy(self, w, d):
        """Bands of no polynomial in Z, handed to the factor directly; w = d - 1 is one full band."""
        gen = np.random.default_rng(10 * w + d)
        lower = _banded_lower(w, d, gen)
        factor = linalg.BandedLDL(lower)
        assert factor.width == w
        low, piv = ldl_reference.factor(lower)
        assert _bitwise_equal(factor.pivots, piv)
        a = _dense_from_lower(lower)
        assert np.allclose(factor.pivots, np.diag(np.linalg.cholesky(a)) ** 2, rtol=1e-13, atol=0.0)
        rhs = gen.standard_normal((d, 2))
        ref = np.linalg.solve(a, rhs)
        x = factor.solve(rhs)
        assert _bitwise_equal(x, ldl_reference.solve(low, piv, rhs))
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("w,d", [(1, 3), (3, 4)], ids=["tridiagonal", "full-band"])
    def test_indefinite_matrix_is_rejected(self, w, d):
        lower = np.zeros((w + 1, d))
        lower[0] = 1.0
        for m in range(1, w + 1):
            lower[m, m:] = 2.0
        assert np.linalg.eigvalsh(_dense_from_lower(lower))[0] < 0.0
        with pytest.raises(SingularOperatorError) as want:
            ldl_reference.factor(lower)
        with pytest.raises(SingularOperatorError) as got:
            linalg.BandedLDL(lower)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("op", [
        linalg.anti_banded_z("scsc", 8),
        linalg.z_power_sum("csc", 8, {3: 1.0, 1: 2.0}),
        linalg.z_power_sum("scsc", 8, {1: 0.5, 2: 1.0}, shift=3.0),
    ], ids=["z", "odd-sum", "mixed"])
    def test_operators_without_a_band_form_are_refused(self, op):
        """Odd powers leave no band form."""
        assert linalg.band_form(op) is None
        with pytest.raises(CapabilityError, match="no band form"):
            linalg.banded_ldl(op)
        with pytest.raises(CapabilityError, match="no band form"):
            linalg.spectrum_within(op, -10.0, 10.0)

    @pytest.mark.parametrize("d", [8, 300])
    def test_a_regularized_a_xx_factors(self, csc_constants, d):
        """`regularize_convex` adds its ridge to the shift of A_xx, so the power sum stays banded."""
        from bilevel_lab.hard_instances import build_csc
        from bilevel_lab.solvers import regularize_convex

        a_xx = regularize_convex(build_csc(d, csc_constants, B=1.0).oracle, 1e-2, 2.0).outer.a_xx
        assert a_xx.poly[1][0] == 1e-2 / 2.0
        assert linalg.banded_ldl(a_xx).pivots.min() > 0.0
        lo, hi = np.linalg.eigvalsh(a_xx.to_dense())[[0, -1]]
        assert linalg.spectrum_within(a_xx, lo - 1e-9, hi + 1e-9)
        assert not linalg.spectrum_within(a_xx, lo + 1e-9, hi + 1e-9)
        assert not linalg.spectrum_within(a_xx, lo - 1e-9, hi - 1e-9)

    @pytest.mark.parametrize("op,width", [
        (linalg.z_power_sum("scsc", 5, {}, shift=1.0), 0),
        (linalg.z_power_sum("scsc", 7, {2: 1.0}, shift=0.1), 1),
        (linalg.z_power_sum("csc", 7, {4: 1.0, 2: 1.0}), 2),
        (linalg.z_power_sum("csc", 6, {6: 0.5, 2: 1.0}, shift=0.25), 3),
    ], ids=["shift-only", "z2", "z4", "z6"])
    def test_band_form_reads_the_lower_bands(self, op, width):
        lower = linalg.band_form(op)
        dense = op.to_dense()
        assert lower.shape == (width + 1, op.dim)
        for m in range(width + 1):
            assert np.array_equal(lower[m, m:], np.diagonal(dense, -m))
            assert not lower[m, :m].any()

    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    @pytest.mark.parametrize("d", [2, 5, SMALL, SMALL + 1, 224, 1024])
    def test_apply_z_is_the_operator_apply(self, flavor, d):
        v = np.random.default_rng(d).standard_normal(d)
        v[::3] = 0.0
        assert np.array_equal(linalg.apply_z(flavor, v), linalg.anti_banded_z(flavor, d).apply(v))

    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    @pytest.mark.parametrize("d", [1, 2, 3, 245])
    def test_apply_z_is_the_diff_reference(self, flavor, d):
        """Values and signs of zeros, with +0.0 and -0.0 at both ends of v."""
        gen = np.random.default_rng(d)
        for first, last in [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)]:
            v = gen.standard_normal(d)
            v[1::4] = -0.0
            v[0], v[-1] = first, last
            got, want = linalg.apply_z(flavor, v), scan_reference.apply_z(flavor, v)
            assert _bitwise_equal(got, want)
            assert got.flags.c_contiguous
            if d > 1:  # a strided view, as the chain's columns are
                strided = np.repeat(v[:, None], 2, axis=1)[:, 1]
                assert _bitwise_equal(linalg.apply_z(flavor, strided), want)

    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    @pytest.mark.parametrize("d", [2, 5, 32, 1024])
    def test_solve_z_inverts_z(self, flavor, d):
        rhs = np.random.default_rng(d).standard_normal(d)
        b = linalg.solve_z(flavor, rhs)
        # a cumulative sum rounds like a sum of d terms
        resid = np.linalg.norm(linalg.anti_banded_z(flavor, d).apply(b) - rhs)
        assert resid <= 1e-14 * np.sqrt(d) * np.linalg.norm(rhs)

    def test_spectrum_within_decides_both_ends(self):
        h = linalg.z_power_sum("scsc", 16, {2: 0.4}, shift=0.7)
        lo, hi = np.linalg.eigvalsh(h.to_dense())[[0, -1]]
        assert linalg.spectrum_within(h, lo - 1e-9, hi + 1e-9)
        assert not linalg.spectrum_within(h, lo + 1e-9, hi + 1e-9)
        assert not linalg.spectrum_within(h, lo - 1e-9, hi - 1e-9)
        # a Z^6 sum at d = 4 has w = 3 = d - 1: one full band, every row in the first w rows
        full = linalg.z_power_sum("scsc", 4, {6: 0.1, 2: 1.0}, shift=0.5)
        assert linalg.band_form(full).shape == (4, 4)
        lo, hi = np.linalg.eigvalsh(full.to_dense())[[0, -1]]
        assert linalg.spectrum_within(full, lo - 1e-9, hi + 1e-9)
        assert not linalg.spectrum_within(full, lo + 1e-9, hi + 1e-9)
        assert not linalg.spectrum_within(full, lo - 1e-9, hi - 1e-9)


def _dense_from_lower(lower):
    """The symmetric matrix whose lower bands are `lower` (row m holds A[i, i-m])."""
    a = np.diag(lower[0])
    for m in range(1, lower.shape[0]):
        a += np.diag(lower[m, m:], -m) + np.diag(lower[m, m:], m)
    return a


def _banded_lower(w, d, gen, zero_every=0):
    """Lower bands of a strictly diagonally dominant banded matrix.

    With zero_every > 0, every zero_every-th entry of each off-diagonal band
    is +0.0 and the one after it -0.0, so signed zeros reach the factor.
    """
    lower = np.zeros((w + 1, d))
    for m in range(1, w + 1):
        band = gen.uniform(-1.0, 1.0, max(d - m, 0))
        if zero_every:
            band[::zero_every] = 0.0
            band[1::zero_every] = -0.0
        lower[m, m:] = band
    lower[0] = 2 * w + 1 + gen.random(d)
    return lower


def _signed_zero_block(d, gen):
    """Three right-hand sides: zeros of both signs ahead of random entries, and all -0.0."""
    rhs = gen.standard_normal((d, 3))
    rhs[: d // 2, 0] = 0.0
    rhs[::2, 1] = -0.0
    rhs[:, 2] = -0.0
    return rhs


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    same_signs = np.array_equal(np.signbit(a), np.signbit(b))
    return a.shape == b.shape and np.array_equal(a, b) and same_signs


REFERENCE_CASES = [
    (w, d)
    for w in range(5)
    for d in sorted({1, 2, w, w + 1, SMALL, SMALL + 1, 300} - {0})
]


class TestBandedLDLAgainstReference:
    """The per-width kernels against the generic loops in tests/ldl_reference.py, bit for bit."""

    @pytest.mark.parametrize("zero_every", [0, 3], ids=["dense-bands", "signed-zeros"])
    @pytest.mark.parametrize("w,d", REFERENCE_CASES, ids=[f"w{w}-d{d}" for w, d in REFERENCE_CASES])
    def test_pivots_factor_and_solves_are_bitwise_equal(self, w, d, zero_every):
        gen = np.random.default_rng(100 * w + d)
        lower = _banded_lower(w, d, gen, zero_every)
        low, piv = ldl_reference.factor(lower)
        factor = linalg.BandedLDL(lower)
        assert _bitwise_equal(factor.pivots, piv)
        rows = factor._rows(0, d)
        assert rows.shape == (w + 1, d)
        for m in range(1, w + 1):
            assert _bitwise_equal(rows[m], low[m])
        assert factor.head.shape[1] == d  # random bands never repeat, so the factor is all head
        if w <= 1 and d > SMALL:
            return  # the tridiagonal scans, which no kernel replaces
        rhs = _signed_zero_block(d, gen)
        assert _bitwise_equal(factor.solve(rhs), ldl_reference.solve(low, piv, rhs))
        for j in range(rhs.shape[1]):
            want = ldl_reference.solve(low, piv, rhs[:, j])
            assert _bitwise_equal(factor.solve(rhs[:, j]), want)

    @pytest.mark.parametrize(
        "w,where",
        [(w, where) for w in range(5) for where in ("head", "body", "last") if w or where != "head"],
    )
    def test_indefinite_matrix_fails_at_the_same_pivot(self, w, where):
        """The first non-positive pivot in the first w rows, in a row after them, and last."""
        d = 40
        bad = {"head": w - 1, "body": w + 3, "last": d - 1}[where]
        lower = _banded_lower(w, d, np.random.default_rng(w))
        lower[0, bad] = -0.5
        with pytest.raises(SingularOperatorError) as want:
            ldl_reference.factor(lower)
        with pytest.raises(SingularOperatorError) as got:
            linalg.BandedLDL(lower)
        assert str(got.value) == str(want.value)
        assert f"pivot {bad} " in str(got.value)

    def test_zero_pivot_is_rejected(self):
        lower = _banded_lower(2, 10, np.random.default_rng(0))
        lower[:, 6] = 0.0  # row 6 of A is zero, so D[6] is exactly 0
        with pytest.raises(SingularOperatorError) as want:
            ldl_reference.factor(lower)
        with pytest.raises(SingularOperatorError, match="pivot 6 ") as got:
            linalg.BandedLDL(lower)
        assert str(got.value) == str(want.value)


def _reference_scans(low, piv):
    """The scan levels and pivots built from the reference's L and pivots, as `BandedLDL._scans` builds them."""
    sub = -np.array(low[1]) if len(low) > 1 else np.zeros(len(piv))
    back = linalg._scan_levels(np.append(sub[1:], 0.0)[::-1])
    return linalg._scan_levels(sub), np.array(piv), [coef[::-1].copy() for coef in back]


def _assert_is_the_reference(factor, lower, gen):
    """Pivots, L and solves of `factor` against tests/ldl_reference.py, bit for bit.

    A scalar-kernel factor solves a (d, 2) block and its first column as a
    vector; a scan factor builds its levels from the L column it assembles,
    so those must be the reference's.
    """
    d = lower.shape[1]
    low, piv = ldl_reference.factor(lower)
    rows = factor._rows(0, d)
    assert _bitwise_equal(rows[0], piv) and _bitwise_equal(factor.pivots, piv)
    for m in range(1, factor.width + 1):
        assert _bitwise_equal(rows[m], low[m])
    rhs = _signed_zero_block(d, gen)[:, :2]
    if factor.width > 1 or d <= SMALL:
        want = ldl_reference.solve(low, piv, rhs)
        assert _bitwise_equal(factor.solve(rhs), want)
        assert _bitwise_equal(factor.solve(rhs[:, 0]), want[:, 0])
    else:
        forward, pivots, backward = factor._scans()
        want_forward, want_pivots, want_backward = _reference_scans(low, piv)
        assert _bitwise_equal(pivots, want_pivots)
        for got, want in ((forward, want_forward), (backward, want_backward)):
            assert len(got) == len(want) and all(map(_bitwise_equal, got, want))
        assert _bitwise_equal(factor.solve(rhs), scan_reference.block_solve(factor, rhs))


def _stored_run(factor):
    """(head, run, tail) row counts of the stored form; the run rows repeat `limit`."""
    head, tail = factor.head.shape[1], factor.tail.shape[1]
    return head, factor.dim - head - tail, tail


@pytest.fixture(scope="module")
def build_polys():
    """The even power sums the builds factor: the benchmark scsc instance's H (w = 1),
    minimizer operator and cleared P (w = 2), and the mild csc instance's H (w = 1)
    and cleared P (w = 3)."""
    from bilevel_lab import build_csc, build_scsc
    from bilevel_lab.presets import benchmark_scsc_constants, mild_csc_constants

    scsc = build_scsc(16, benchmark_scsc_constants(4.0))
    csc = build_csc(16, mild_csc_constants(), B=1.0)
    minimizer = {4: 1.0, 2: scsc.lam_coef, 0: scsc.tau_coef}
    return {
        "H": scsc.oracle.h_op.poly[1],
        "minimizer": minimizer,
        "P": scsc.oracle._cleared_system()[0].poly[1],
        "csc-H": csc.oracle.h_op.poly[1],
        "csc-P": csc.oracle._cleared_system()[0].poly[1],
    }


BUILD_WIDTHS = {"H": 1, "minimizer": 2, "P": 2, "csc-H": 1, "csc-P": 3}
STOP_DIMS = sorted({2, 3, 4, 5, 16, 32, SMALL, 300, *TAP_DIMS})
# the first rows and the full band (w >= d - 1) at w = 1, 2, 3, and a band on each side of SMALL_DIM
CORNER_DIMS = [2, 3, 4, 5, 16, SMALL + 1, 300]
CORNERS = {"plus-zero": 0.0, "minus-zero": -0.0, "junk": None}


def _with_corner(lower, corner, gen):
    """A copy of `lower` whose corner, the entries A[i, i-m] (i < m) left of column 0, holds `corner`.

    A corner of None is nonzero junk of both signs.
    """
    lower = lower.copy()
    for m in range(1, lower.shape[0]):
        n = min(m, lower.shape[1])
        lower[m, :n] = gen.uniform(1.0, 2.0, n) * gen.choice([-1.0, 1.0], n) if corner is None else corner
    return lower


def _factor_leaving_the_band(lower):
    """`BandedLDL(lower)`, checking that the caller's band is left as it was, bit for bit."""
    before = lower.copy()
    factor = linalg.BandedLDL(lower)
    assert _bitwise_equal(lower, before)
    return factor


class TestStopRule:
    """The factor kernel's stop rule against tests/ldl_reference.py, bit for bit.

    A power sum's factor rows turn bit-constant after a head; the kernel
    stops once w + 1 rows repeat on interior band rows, skips to the bottom
    edge and resumes there.  Every pivot, L entry and solve must still be
    the generic loop's, on bands that stop and on bands that never do.
    """

    @pytest.mark.parametrize("d", STOP_DIMS)
    @pytest.mark.parametrize("name", list(BUILD_WIDTHS))
    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    def test_the_builds_operators(self, build_polys, flavor, name, d):
        op = linalg.StructuredOperator(flavor, d, build_polys[name])
        lower = linalg.band_form(op)
        factor = linalg.BandedLDL(lower)
        assert factor.width == BUILD_WIDTHS[name]
        _assert_is_the_reference(factor, lower, np.random.default_rng(d))

    @pytest.mark.parametrize("name", ["H", "minimizer", "csc-P"])
    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    def test_the_builds_operators_at_the_tight_dimension(self, build_polys, flavor, name):
        """d = 109 731, the run dimension at mu_x = 1e-6, at w = 1, 2 and 3: the head and tail do not grow with d."""
        d = 109_731
        op = linalg.StructuredOperator(flavor, d, build_polys[name])
        lower = linalg.band_form(op)
        factor = linalg.BandedLDL(lower)
        small = linalg.BandedLDL(linalg.band_form(linalg.StructuredOperator(flavor, 1024, build_polys[name])))
        if _stored_run(small)[1]:
            head, run, tail = _stored_run(factor)
            assert (head, tail) == _stored_run(small)[::2] and run == d - head - tail
        _assert_is_the_reference(factor, lower, np.random.default_rng(0))

    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_near_critical_shifted_h_never_repeats(self, benchmark_constants, flavor, end):
        """The two bands `spectrum_within` tests for H at d = 1024: neither repeats, so both are all head."""
        d = 1024
        c = benchmark_constants
        slack = oracles.SPECTRUM_SLACK * max(1.0, c.Ltil_y)
        h = linalg.z_power_sum(flavor, d, {2: 0.375}, shift=0.5)
        lower = linalg.band_form(h)
        shifted = lower.copy() if end == "lo" else -lower
        shifted[0] += -(c.mu_y - slack) if end == "lo" else c.Ltil_y + slack
        factor = linalg.BandedLDL(shifted)
        assert _stored_run(factor) == (d, 0, 0)
        _assert_is_the_reference(factor, shifted, np.random.default_rng(1))

    @pytest.mark.parametrize("corner", ["minus-zero", "junk"])
    @pytest.mark.parametrize("d", CORNER_DIMS)
    @pytest.mark.parametrize("name", list(BUILD_WIDTHS))
    def test_the_builds_operators_with_any_corner(self, build_polys, name, d, corner):
        """The kernel reads the corner left of column 0 as +0.0, whatever it holds, and never writes the band."""
        gen = np.random.default_rng(d)
        flavor = "csc" if name.startswith("csc") else "scsc"
        op = linalg.StructuredOperator(flavor, d, build_polys[name])
        lower = _with_corner(linalg.band_form(op), CORNERS[corner], gen)
        _assert_is_the_reference(_factor_leaving_the_band(lower), lower, gen)

    @pytest.mark.parametrize("zero_every", [0, 3], ids=["dense-bands", "signed-zeros"])
    @pytest.mark.parametrize("corner", list(CORNERS))
    @pytest.mark.parametrize("d", CORNER_DIMS)
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_first_rows_with_any_corner(self, w, d, corner, zero_every):
        """Random bands, their rows holding zeros of both signs or none, the full band included."""
        gen = np.random.default_rng(100 * w + d)
        lower = _with_corner(_banded_lower(w, d, gen, zero_every), CORNERS[corner], gen)
        _assert_is_the_reference(_factor_leaving_the_band(lower), lower, gen)

    def test_a_repeat_ahead_of_the_interior_does_not_stop(self):
        """Rows 0..3 repeat on band rows 0..3, which differ from the interior from row 4 on.

        The candidate at row 2 is ahead of the interior, so the kernel goes
        on and stops in the interior, at or after its first w rows.
        """
        d = SMALL + 36  # above SMALL_DIM, where a factor may stop
        lower = np.zeros((3, d))
        lower[0] = 3.0
        lower[1, 4:], lower[2, 4:] = 0.5, 0.25
        factor = linalg.BandedLDL(lower)
        head, run, tail = _stored_run(factor)
        assert head >= 4 and run > 0
        _assert_is_the_reference(factor, lower, np.random.default_rng(2))

    def test_a_run_of_negative_zeros_stops_with_them(self):
        """A1 = A2 = -0.0 in the interior: L settles at -0.0 in both bands, and the limit keeps the signs."""
        d = SMALL + 36  # above SMALL_DIM, where a factor may stop
        lower = np.zeros((3, d))
        lower[0] = 3.0
        lower[0, -1] = 2.5  # a bottom edge row
        lower[1, 1:], lower[2, 2:] = -0.0, -0.0
        factor = linalg.BandedLDL(lower)
        assert _stored_run(factor)[1] > 0
        assert np.all(np.signbit(factor.limit[1:]))
        _assert_is_the_reference(factor, lower, np.random.default_rng(3))

    def test_zeros_of_alternating_sign_never_repeat(self):
        """A1 = -0.0, A2 = +0.0: L[i, i-1] alternates between -0.0 and +0.0, so rows are `==` but never bitwise equal."""
        d = SMALL + 36  # above SMALL_DIM, where a factor may stop
        lower = np.zeros((3, d))
        lower[0] = 3.0
        lower[0, -1] = 2.5
        lower[1, 1:] = -0.0
        factor = linalg.BandedLDL(lower)
        rows = factor._rows(0, d)
        assert np.all(rows[:, 5:20] == rows[:, 4:5])  # equal as floats
        assert _stored_run(factor) == (d, 0, 0)
        _assert_is_the_reference(factor, lower, np.random.default_rng(4))

    @pytest.mark.parametrize("d", [4, 32, SMALL])
    def test_a_small_factor_runs_whole(self, d):
        """At d <= SMALL_DIM a repeat would skip fewer rows than the stop costs, so the factor is all head."""
        lower = linalg.band_form(linalg.z_power_sum("scsc", d, {2: 0.375}, shift=0.5))
        factor = linalg.BandedLDL(lower)
        assert _stored_run(factor) == (d, 0, 0)
        _assert_is_the_reference(factor, lower, np.random.default_rng(d))

    @pytest.mark.parametrize("d", [SMALL + 1, 300])
    @pytest.mark.parametrize("last", [2.0, 3.0], ids=["constant", "bottom-edge"])
    def test_a_diagonal_band(self, d, last):
        lower = np.full((1, d), 2.0)
        lower[0, -1] = last
        factor = linalg.BandedLDL(lower)
        assert _stored_run(factor) == (0, d - (last != 2.0), last != 2.0)
        _assert_is_the_reference(factor, lower, np.random.default_rng(d))

    @pytest.mark.parametrize(
        "flavor,coeffs,shift,back",
        [
            ("scsc", {2: 0.375}, 0.5, 1),
            ("csc", {2: 0.375}, 0.5, 1),
            ("scsc", {4: 1.0, 2: 0.9}, 0.01, 1),
            ("scsc", {4: 1.0, 2: 0.9}, 0.01, 2),
            ("csc", {6: 0.2, 4: 1.0, 2: 2.0}, 1.0, 2),
        ],
    )
    def test_an_indefinite_bottom_edge_fails_at_the_same_pivot(self, flavor, coeffs, shift, back):
        """A bottom band row made indefinite after the stop: the kernel resumes there and raises as the reference does."""
        d = 300
        lower = linalg.band_form(linalg.z_power_sum(flavor, d, coeffs, shift)).copy()
        stored = _stored_run(linalg.BandedLDL(lower))
        bad = d - back
        assert stored[1] > 0 and stored[0] < bad - lower.shape[0]  # it stops before the bad row
        lower[0, bad] = -1.0
        with pytest.raises(SingularOperatorError) as want:
            ldl_reference.factor(lower)
        with pytest.raises(SingularOperatorError) as got:
            linalg.BandedLDL(lower)
        assert str(got.value) == str(want.value)
        assert f"pivot {bad} " in str(got.value)

    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    def test_head_lengths(self, flavor):
        """The heads item 12 of ROADMAP.md measured: Z^4 + 0.9 Z^2 + 0.01 stops after the same head at
        d = 1024 and d = 109 731 (156-158 rows in scsc), and H = 0.375 Z^2 + 0.5 after 17-18 rows."""
        minimizer = [
            linalg.banded_ldl(linalg.z_power_sum(flavor, d, {4: 1.0, 2: 0.9}, shift=0.01))
            for d in (1024, 109_731)
        ]
        heads = [factor.head.shape[1] for factor in minimizer]
        assert heads[0] == heads[1] and (flavor == "csc" or 156 <= heads[0] <= 158)
        h = linalg.banded_ldl(linalg.z_power_sum(flavor, 1024, {2: 0.375}, shift=0.5))
        assert 17 <= h.head.shape[1] <= 18

    def test_memory_held_by_a_stopped_factor(self):
        """The scsc minimizer operator at d = 109 731: under 1.5 MB live after the factor and one
        solve, and a peak under 14.5 MB, against 14.9 MB and 29.0 MB with the factor held as lists."""
        d = 109_731
        op = linalg.z_power_sum("scsc", d, {4: 1.0, 2: 0.9}, shift=0.01)
        rhs = np.ones(d)
        linalg.banded_ldl(linalg.z_power_sum("scsc", 64, {4: 1.0}, shift=1.0)).solve(np.ones(64))  # kernels compiled
        gc.collect()
        tracemalloc.start()
        try:
            factor = linalg.banded_ldl(op)
            factor.solve(rhs)
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert factor.dim == d
        assert held < 1_500_000 and peak < 14_500_000


class TestInertia:
    """`spectrum_within`'s store-free inertia kernel against the two factors tests/inertia_reference.py makes."""

    OPERATORS = {
        "w1": ({2: 0.375}, 0.5),
        "w2": ({4: 1.0, 2: 2.5555555555555554}, 0.4444444444444444),
        "w3": ({6: 0.00390625, 4: 0.03125, 2: 0.3125}, 0.0),
    }

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 16, SMALL + 1, 300])
    @pytest.mark.parametrize("name", list(OPERATORS))
    @pytest.mark.parametrize("flavor", ["scsc", "csc"])
    def test_decisions_are_the_reference(self, flavor, name, d):
        """A grid of (lo, hi) around eigvalsh's extremes, the full band (w >= d - 1) included."""
        coeffs, shift = self.OPERATORS[name]
        op = linalg.z_power_sum(flavor, d, coeffs, shift)
        lo, hi = np.linalg.eigvalsh(op.to_dense())[[0, -1]]
        scale = max(abs(lo), abs(hi))
        steps = [-1e-3, -1e-9, -1e-14, 0.0, 1e-14, 1e-9, 1e-3]
        decided = set()
        for dl in steps:
            for dh in steps:
                a, b = lo + dl * scale, hi + dh * scale
                got = linalg.spectrum_within(op, a, b)
                assert got == inertia_reference.spectrum_within(op, a, b), (a, b)
                decided.add(got)
        assert decided == {True, False}

    @pytest.mark.parametrize("corner", list(CORNERS))
    @pytest.mark.parametrize("d", CORNER_DIMS)
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_any_corner_decides_as_the_reference(self, w, d, corner):
        """A band with zeros of both signs and any corner, definite or with a negative diagonal entry
        in its first rows or its last: the reference factor's decision, and the band left as it was."""
        gen = np.random.default_rng(10 * w + d)
        for bad in [None, 0, min(w, d) - 1, d - 1]:
            lower = _with_corner(_banded_lower(w, d, gen, zero_every=3), CORNERS[corner], gen)
            if bad is not None:
                lower[0, bad] = -0.5
            before = lower.copy()
            try:
                ldl_reference.factor(lower)
            except SingularOperatorError:
                definite = False
            else:
                definite = True
            assert linalg._ldl_kernel("inertia", w)(linalg._band_views(lower)) == definite, bad
            assert _bitwise_equal(lower, before)

    def test_a_diagonal_band(self):
        op = linalg.z_power_sum("scsc", 100, {}, shift=2.0)
        assert linalg.spectrum_within(op, 1.9, 2.1)
        assert not linalg.spectrum_within(op, 2.0, 2.1) and not linalg.spectrum_within(op, 1.9, 2.0)

    def test_no_factor_is_constructed(self, factor_calls):
        for flavor in ("scsc", "csc"):
            for coeffs, shift in self.OPERATORS.values():
                op = linalg.z_power_sum(flavor, 300, coeffs, shift)
                linalg.spectrum_within(op, -1.0, 100.0)
                linalg.spectrum_within(op, 1.0, 2.0)
        assert factor_calls == []


class TestTiledBlockSolve:
    """A scan factor's block solve against the broadcast solve in tests/scan_reference.py.

    The levels and pivots are tiled once per block width and kept on the
    factor, so every width and every repeat of a width must give the
    broadcast solve, and the 1-D solve of each column, bit for bit.
    """

    FD_WIDTH = 2 * oracles.FD_BLOCK  # the points of one finite-difference block

    FACTORS = {
        "h": lambda: linalg.banded_ldl(linalg.z_power_sum("scsc", 256, {2: 0.375}, shift=0.5)),
        "signed-zeros": lambda: linalg.BandedLDL(
            _banded_lower(1, SMALL + 1, np.random.default_rng(1), zero_every=3)
        ),
        "diagonal": lambda: linalg.BandedLDL(_banded_lower(0, 300, np.random.default_rng(0))),
    }

    @staticmethod
    def _block(d, k, gen):
        block = gen.standard_normal((d, k))
        block[: d // 2, 0] = 0.0
        block[::2, -1] = -0.0
        return block

    @pytest.mark.parametrize("name", list(FACTORS))
    @pytest.mark.parametrize("k", [1, 2, 3, FD_WIDTH, 33])
    def test_block_solve_is_the_broadcast_solve(self, name, k):
        factor = self.FACTORS[name]()
        assert factor.width <= 1 and factor.dim > SMALL  # it scans
        block = self._block(factor.dim, k, np.random.default_rng(k))
        got = factor.solve(block)
        assert _bitwise_equal(got, scan_reference.block_solve(factor, block))
        columns = np.column_stack([factor.solve(block[:, j]) for j in range(k)])
        assert _bitwise_equal(got, columns)

    def test_two_widths_on_one_factor(self):
        factor = self.FACTORS["h"]()
        gen = np.random.default_rng(0)
        blocks = [self._block(factor.dim, k, gen) for k in (self.FD_WIDTH, 5, self.FD_WIDTH, 5)]
        for block in blocks:
            got = factor.solve(block)
            assert _bitwise_equal(got, scan_reference.block_solve(factor, block))
        assert sorted(factor._tiles) == [5, self.FD_WIDTH]

    def test_tiles_are_read_only_and_held_on_the_factor(self):
        factor = self.FACTORS["h"]()
        factor.solve(np.ones(factor.dim))  # a vector solve takes no tiles
        assert not factor._tiles
        factor.solve(np.ones((factor.dim, 4)))
        tiles = factor._tiles[4]
        assert factor._tiled(4) is tiles
        forward, pivots, backward = factor._scans()
        for tile, coef in zip([*tiles[0], tiles[1], *tiles[2]], [*forward, pivots, *backward]):
            assert tile.shape == (coef.shape[0], 4) and tile.flags.c_contiguous
            assert not tile.flags.writeable
            assert _bitwise_equal(tile, np.column_stack([coef] * 4))
        # another factor of the same shape builds its own tiles at the same width
        other = linalg.banded_ldl(linalg.z_power_sum("scsc", factor.dim, {2: 0.25}, shift=0.75))
        block = self._block(other.dim, 4, np.random.default_rng(4))
        assert _bitwise_equal(other.solve(block), scan_reference.block_solve(other, block))
        assert other._tiles[4] is not tiles and factor._tiles[4] is tiles


class TestLDLKernels:
    @pytest.mark.parametrize(
        "kind,w",
        [("factor", 0), ("factor", 2), ("factor", 3), ("inertia", 0), ("inertia", 2), ("solve", 1), ("solve", 3)],
    )
    def test_each_width_compiles_under_its_own_filename(self, kind, w):
        kernel = linalg._ldl_kernel(kind, w)
        filename = f"<bilevel_lab.linalg ldl-{kind} w={w}>"
        assert kernel.__code__.co_filename == filename
        assert inspect.getsourcefile(kernel) == filename
        source = inspect.getsource(kernel)
        assert source.startswith(f"def {kind}(")
        assert source.splitlines() == linalg._KERNEL_SOURCES[kind](w)

    def test_a_traceback_points_into_the_kernel_of_the_width(self):
        lower = _banded_lower(3, 20, np.random.default_rng(3))
        lower[0, 12] = -1.0
        with pytest.raises(SingularOperatorError) as info:
            linalg.BandedLDL(lower)
        frame = traceback.extract_tb(info.value.__traceback__)[-1]
        assert frame.filename == "<bilevel_lab.linalg ldl-factor w=3>"
        assert frame.line == "raise _pivot_error(i, p0)"


class TestBisect:
    def test_known_sqrt2(self):
        root = linalg.bisect_root(lambda r: r * r - 2.0, 1.0, 2.0, 1e-12)
        assert abs(root - np.sqrt(2.0)) <= 1e-11

    def test_linear(self):
        assert abs(linalg.bisect_root(lambda r: r - 0.5, 0.0, 1.0, 1e-12) - 0.5) <= 1e-11

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            linalg.bisect_root(lambda r: r * r + 1.0, -1.0, 1.0, 1e-8)

    def test_non_finite_evaluation(self):
        with pytest.raises(DomainError):
            linalg.bisect_root(lambda r: float("nan"), 0.0, 1.0, 1e-8)

    @settings(max_examples=30, deadline=None)
    @given(root=st.floats(min_value=-5.0, max_value=5.0), shift=st.floats(min_value=0.1, max_value=3.0))
    def test_recovers_cubic_root(self, root, shift):
        f = lambda r: (r - root) ** 3 + 0.5 * (r - root)
        found = linalg.bisect_root(f, root - shift, root + shift, 1e-12)
        assert abs(found - root) <= 1e-10


class TestEigExtremes:
    def test_identity(self):
        lo, hi = linalg.symmetric_eig_extremes(_shift_only(5))
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    def test_z_at_dimension_two(self):
        # Z = [[0, 1], [1, -1]]: the roots of t^2 + t - 1
        lo, hi = linalg.symmetric_eig_extremes(linalg.anti_banded_z("scsc", 2))
        assert lo == pytest.approx(-(1 + 5**0.5) / 2) and hi == pytest.approx((5**0.5 - 1) / 2)

    def test_inner_hessian_bounds(self):
        # beta Z^2 + mu I keeps its spectrum inside [mu, 4 beta + mu]
        op = linalg.z_power_sum("scsc", 8, {2: 0.225}, shift=0.1)
        lo, hi = linalg.symmetric_eig_extremes(op)
        assert lo >= 0.1 - 1e-12
        assert hi <= 4 * 0.225 + 0.1 + 1e-12


class TestVector:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            linalg.vector([1.0, float("inf")])

    def test_rejects_wrong_dim(self):
        with pytest.raises(DimensionMismatchError):
            linalg.vector([1.0, 2.0], dim=3)
