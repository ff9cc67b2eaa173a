import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevel_lab import linalg
from bilevel_lab.errors import (
    BracketError,
    DimensionMismatchError,
    DomainError,
    SingularOperatorError,
)

import stencils

SMALL = linalg.SMALL_DIM


def _z_power_dense(flavor, d, power):
    z = linalg.anti_banded_z(flavor, d)
    eye = np.eye(d)
    return np.column_stack([z.apply_power(eye[:, j], power) for j in range(d)])


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
    "z-scsc", "z-csc", "z-sum-scsc", "z-sum-csc", "identity", "diagonal",
    "tridiagonal", "banded", "dense", "shifted-scaled",
]


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
    if kind == "identity":
        return linalg.identity(d), np.eye(d)
    if kind == "diagonal":
        v = gen.standard_normal(d)
        return linalg.diagonal(v), np.diag(v)
    if kind == "tridiagonal":
        diag, off = gen.standard_normal(d), gen.standard_normal(d - 1)
        return linalg.tridiagonal(diag, off), np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    if kind == "banded":
        bands = {0: gen.standard_normal(d), 2: gen.standard_normal(d - 2)}
        ref = np.diag(bands[0]) + np.diag(bands[2], 2) + np.diag(bands[2], -2)
        return linalg.banded(d, bands), ref
    if kind == "dense":
        a = gen.standard_normal((d, d))
        a = a + a.T
        return linalg.dense(a), a
    base_flavor = "csc" if d % 2 else "scsc"
    base = linalg.z_power_sum(base_flavor, d, {2: 0.25})
    ref = 1.7 * _power_sum_reference(base_flavor, d, {2: 0.25}, 0.0) + -0.4 * np.eye(d)
    return linalg.shifted_scaled(base, 1.7, -0.4), ref


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
        # measured in one pass: two inertia factors of the spectrum check, the
        # tridiagonal H, and the (pentadiagonal) cleared system for x*
        assert densified == []
        assert sorted(factor_calls) == [(1, d)] * 3 + [(2, d)]


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
        kind=st.sampled_from(["z-poly", "tridiagonal", "banded", "shifted", "dense"]),
        d=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_symmetry_property(self, kind, d, seed):
        gen = np.random.default_rng(seed)
        if kind == "z-poly":
            flavor = "scsc" if seed % 2 else "csc"
            op = linalg.z_power_sum(flavor, d, {1 + seed % 4: 1.0}, shift=0.3)
        elif kind == "tridiagonal":
            op = linalg.tridiagonal(gen.standard_normal(d), gen.standard_normal(d - 1))
        elif kind == "banded":
            width = min(2, d - 1)
            op = linalg.banded(
                d, {off: gen.standard_normal(d - off) for off in range(width + 1)}
            )
        elif kind == "shifted":
            op = linalg.shifted_scaled(linalg.anti_banded_z("scsc", d), 1.7, -0.4)
        else:
            a = gen.standard_normal((d, d))
            op = linalg.dense(a + a.T)
        u, v = gen.standard_normal(d), gen.standard_normal(d)
        lhs = float(op.apply(u) @ v)
        rhs = float(u @ op.apply(v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestSolveDense:
    def test_identity(self):
        x = linalg.solve_dense(linalg.identity(2), np.array([3.0, -1.0]))
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
        op = linalg.diagonal(np.array([1.0, 0.0, 2.0]))
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
        op = linalg.diagonal(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(SingularOperatorError):
            linalg.solve_dense(op, np.ones((3, 2)))

    def test_matrix_rhs_residual_checked_per_column(self):
        # cond ~ 1e16: the large column's residual is tiny relative to its
        # norm, the small column's is not, and the whole block's Frobenius
        # residual still sits far below the tolerance times its norm
        op = linalg.dense(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
        rhs = np.column_stack([[1e6, 1e6], [1e-12, 0.0]])
        a = op.to_dense()
        x = np.linalg.solve(a, rhs)
        resid = np.linalg.norm(a @ x - rhs, axis=0)
        assert resid[1] > linalg.SOLVE_RESIDUAL_TOL * np.linalg.norm(rhs[:, 1])
        assert np.linalg.norm(resid) <= linalg.SOLVE_RESIDUAL_TOL * np.linalg.norm(rhs)
        with pytest.raises(SingularOperatorError):
            linalg.solve_dense(op, rhs)

    def test_rhs_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.solve_dense(linalg.identity(3), np.ones((4, 2)))


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
        op = linalg.tridiagonal(np.array([2.0, 3.0, 4.0]), np.array([1.0, -1.0]))
        pivots = linalg.banded_ldl(op).pivots
        assert np.allclose(pivots, [2.0, 2.5, 4.0 - 1.0 / 2.5])

    def test_indefinite_matrix_is_rejected(self):
        op = linalg.tridiagonal(np.array([1.0, 1.0, 1.0]), np.array([2.0, 0.0]))
        with pytest.raises(SingularOperatorError):
            linalg.banded_ldl(op)

    @pytest.mark.parametrize("op,definite", [
        (linalg.anti_banded_z("scsc", 6), False),
        (linalg.z_power_sum("csc", 6, {3: 1.0, 1: 2.0}), False),
        (linalg.dense(np.eye(5) + 0.1 * np.ones((5, 5))), True),
        (linalg.shifted_scaled(linalg.anti_banded_z("scsc", 6), 1.0, 2.5), True),
    ], ids=["z", "odd-sum", "dense", "shifted-scaled"])
    def test_only_banded_stencils_have_a_band_form(self, op, definite):
        """Any other stencil is factored as one full band read off its dense form."""
        assert linalg.band_form(op) is None
        if not definite:
            with pytest.raises(SingularOperatorError):
                linalg.banded_ldl(op)
            return
        factor = linalg.banded_ldl(op)
        assert factor.width == op.dim - 1
        rhs = np.random.default_rng(op.dim).standard_normal((op.dim, 2))
        ref = np.linalg.solve(op.to_dense(), rhs)
        assert np.linalg.norm(factor.solve(rhs) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("op,width", [
        (linalg.identity(5), 0),
        (linalg.z_power_sum("scsc", 7, {2: 1.0}, shift=0.1), 1),
        (linalg.z_power_sum("csc", 7, {4: 1.0, 2: 1.0}), 2),
        (linalg.banded(6, {0: np.ones(6), 3: np.ones(3)}), 3),
    ], ids=["identity", "z2", "z4", "banded"])
    def test_band_form_reads_the_lower_bands(self, op, width):
        lower = linalg.band_form(op)
        dense = op.to_dense()
        assert lower.shape == (width + 1, op.dim)
        for m in range(width + 1):
            assert np.array_equal(lower[m, m:], np.diagonal(dense, -m))
            assert not lower[m, :m].any()

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
        dense = linalg.dense(h.to_dense())  # factored as one full band
        assert linalg.spectrum_within(dense, lo - 1e-9, hi + 1e-9)
        assert not linalg.spectrum_within(dense, lo + 1e-9, hi + 1e-9)


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
        lo, hi = linalg.symmetric_eig_extremes(linalg.identity(5))
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    def test_diagonal(self):
        lo, hi = linalg.symmetric_eig_extremes(linalg.diagonal(np.array([1.0, 2.0, 3.0])))
        assert lo == pytest.approx(1.0) and hi == pytest.approx(3.0)

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
