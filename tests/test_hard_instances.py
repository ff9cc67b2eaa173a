import dataclasses
import math
import time

import numpy as np
import pytest

from bilevel_lab import (
    QuadraticBilevelOracle,
    SmoothnessConstants,
    build_csc,
    build_scsc,
    build_scsc_benchmark,
    csc_grad_floor_verify,
    csc_rstar,
    instance_from_json,
    instance_to_json,
    linalg,
    scsc_feasible_dimension,
    scsc_gap_floor,
)
from bilevel_lab.errors import (
    CapabilityError,
    ConstraintError,
    InfeasibleDimensionError,
    InvariantViolationError,
)
from bilevel_lab.hard_instances import (
    csc_grad_floor_value,
    scsc_bracket_low,
    scsc_quartic,
)
from bilevel_lab.linalg import SMALL_DIM, z_power_sum
from bilevel_lab.presets import mild_csc_constants, mild_scsc_constants
from bilevel_lab.span_lab import span_projection_residual, support_cap

import gather_reference
import stencils


def dense_grad_floor(instance) -> float:
    """Reference constrained minimum of ||grad phi|| over {x : last three coords zero}.

    Densifies grad phi(x) = H_phi x + c_phi and solves the normal equations
    over the first d-3 coordinates, O(d^3).
    """
    d = instance.d
    h_phi, c_phi = instance.oracle.phi_quadratic_reduction()
    reduced = h_phi[:, : d - 3]
    coeffs = np.linalg.solve(reduced.T @ reduced, -reduced.T @ c_phi)
    return float(np.linalg.norm(reduced @ coeffs + c_phi))


class TestScscConstruction:
    def test_alpha_beta_quarters(self, scsc_mild16):
        assert scsc_mild16.alpha == pytest.approx(0.125)
        assert scsc_mild16.beta == pytest.approx(0.125)

    def test_quartic_root_in_bracket(self, scsc_mild16):
        inst = scsc_mild16
        quartic = scsc_quartic(inst.lam_coef, inst.tau_coef)
        assert abs(quartic(inst.r)) <= 1e-10
        lo = scsc_bracket_low(inst.lam_coef, inst.tau_coef)
        assert lo < inst.r < 1.0

    def test_btilde_structure(self, scsc_mild16):
        inst = scsc_mild16
        r, lam, tau = inst.r, inst.lam_coef, inst.tau_coef
        assert inst.b_tilde[0] == pytest.approx((2 + lam + tau) * r - (3 + lam) * r**2 + r**3)
        assert inst.b_tilde[1] == pytest.approx(r - 1.0)
        assert np.all(inst.b_tilde[2:] == 0.0)

    def test_b_recovers_btilde_through_z(self, scsc_mild16):
        # Z b equals b_tilde up to the minimizer equation's right-hand scalar
        inst = scsc_mild16
        zb = inst.z.apply(inst.b)
        assert np.allclose(inst.gamma_coef * zb, inst.b_tilde, atol=1e-12)

    @pytest.mark.parametrize("d", [16, 32])
    def test_geometric_minimizer_certificate(self, mild_constants, d):
        inst = build_scsc(d, mild_constants)
        err = np.linalg.norm(inst.x_hat - inst.x_star_dense)
        bound = (7.0 + inst.lam_coef) / inst.tau_coef * inst.r**d
        assert err <= bound

    def test_corrupted_btilde_breaks_certificate(self, mild_constants, scsc_mild16):
        bad = scsc_mild16.b_tilde.copy()
        bad[2] = 0.1
        inst = build_scsc(16, mild_constants, btilde_shift=bad - scsc_mild16.b_tilde)
        assert np.array_equal(inst.b_tilde, bad)
        err = np.linalg.norm(inst.x_hat - inst.x_star_dense)
        bound = (7.0 + inst.lam_coef) / inst.tau_coef * inst.r**16
        assert err > bound

    def test_minimizer_agrees_with_oracle(self, scsc_mild16):
        assert np.allclose(
            scsc_mild16.x_star_dense, scsc_mild16.oracle.x_star, atol=1e-9
        )
        g = scsc_mild16.oracle.grad_phi(scsc_mild16.x_star_dense)
        assert np.linalg.norm(g) <= 1e-10

    @pytest.mark.parametrize("d", [16, 64])
    def test_outer_objective_strongly_convex(self, mild_constants, d):
        inst = build_scsc(d, mild_constants)
        h_phi, _ = inst.oracle.phi_quadratic_reduction()
        min_eig = float(np.linalg.eigvalsh(h_phi)[0])
        assert min_eig >= mild_constants.mu_x * (1.0 - 1e-8)

    def test_infeasible_cross_smoothness(self):
        constants = SmoothnessConstants(
            mu_x=0.5, mu_y=0.5, L_x=9.0, L_y=1.0, L_xy=0.1, Ltil_xy=1.0, Ltil_y=9.0
        )
        # (L_x - mu_x)(Ltil_y - mu_y) / (2 Ltil_xy) = 36.125 >> L_xy
        with pytest.raises(ConstraintError):
            build_scsc(8, constants)

    def test_requires_strongly_convex_outer(self):
        with pytest.raises(ConstraintError):
            build_scsc(8, mild_csc_constants())

    def test_requires_inner_curvature_gap(self):
        flat = dataclasses.replace(mild_scsc_constants(), Ltil_y=0.5)
        with pytest.raises(ConstraintError):
            build_scsc(8, flat)


class TestFeasibleDimension:
    def test_worked_example(self):
        # branches: 2M = 20 and M + 1 + log_0.5(2/40) = 15.32; smallest d above is 21
        assert scsc_feasible_dimension(M=10, r=0.5, lam_coef=3.0, tau_coef=2.0) == 21

    def test_tiny_r_first_branch_dominates(self):
        assert scsc_feasible_dimension(M=1, r=1e-9, lam_coef=3.0, tau_coef=2.0) == 3

    def test_mild_preset_is_desk_scale(self, scsc_mild16):
        d = scsc_feasible_dimension(
            32, scsc_mild16.r, scsc_mild16.lam_coef, scsc_mild16.tau_coef
        )
        assert d <= 256

    def test_cap_carries_required_dimension(self):
        with pytest.raises(InfeasibleDimensionError) as err:
            scsc_feasible_dimension(M=4000, r=0.99, lam_coef=3.0, tau_coef=2.0, cap=512)
        assert err.value.required_dim > 512


class TestGapFloor:
    def test_zero_budget_closed_form(self, scsc_mild16):
        floor = scsc_gap_floor(scsc_mild16, 0, np.zeros(16))
        expected = (
            scsc_mild16.constants.mu_x
            * np.linalg.norm(scsc_mild16.x_star_dense) ** 2
            / 36.0
        )
        assert floor == pytest.approx(expected)

    def test_monotone_in_budget(self, mild_constants):
        inst = build_scsc(96, mild_constants)
        floors = [scsc_gap_floor(inst, m, np.zeros(96)) for m in (0, 8, 16, 32)]
        assert all(a > b for a, b in zip(floors, floors[1:]))
        assert floors[-1] > 0.0

    def test_requires_zero_start(self, scsc_mild16):
        with pytest.raises(InvariantViolationError):
            scsc_gap_floor(scsc_mild16, 2, np.ones(16))

    def test_requires_feasible_dimension(self, scsc_mild16):
        with pytest.raises(InvariantViolationError):
            scsc_gap_floor(scsc_mild16, 40, np.zeros(16))


class TestCscConstruction:
    def test_minimizer_is_stationary(self, csc_constants):
        for d in (8, 20):
            inst = build_csc(d, csc_constants, B=1.0)
            g = inst.oracle.grad_phi(inst.x_star)
            assert np.linalg.norm(g) <= 1e-9 * np.linalg.norm(inst.b_tilde)

    def test_minimizer_norm_is_B(self, csc20):
        assert np.linalg.norm(csc20.x_star) == pytest.approx(csc20.B, abs=1e-12)

    def test_btilde_supported_on_first_three(self, csc20):
        assert np.all(csc20.b_tilde[3:] == 0.0)
        assert np.all(csc20.b_tilde[:3] != 0.0)

    def test_grad_floor_closed_form(self, csc_constants):
        d, B = 20, 1.0
        c = csc_constants
        beta = (c.Ltil_y - c.mu_y) / 4.0
        numer = B * (c.Ltil_xy**2 * c.L_y / 4.0 + c.L_x * c.mu_y**2 / 4.0)
        denom = math.sqrt(
            8.0 * c.mu_y**4 * d**4
            + 16.0 * d * beta**4
            + 32.0 * d * beta**3 * c.mu_y
            + 32.0 * d * beta**2 * c.mu_y**2
        )
        assert csc_grad_floor_value(c, B, d) == pytest.approx(numer / denom)
        assert build_csc(d, c, B).grad_floor == pytest.approx(numer / denom)

    @pytest.mark.parametrize("d", [8, 12, 20])
    def test_constrained_minimum_above_floor(self, csc_constants, d):
        inst = build_csc(d, csc_constants, B=1.0)
        measured, floor = csc_grad_floor_verify(inst)
        assert measured >= floor

    @pytest.mark.parametrize("shifted", [False, True], ids=["clean", "btilde3"])
    @pytest.mark.parametrize("d", [8, 20, SMALL_DIM, SMALL_DIM + 1, 512])
    def test_closed_form_matches_dense_normal_equations(self, csc_constants, d, shifted):
        shift = 0.1 * (np.arange(d) == 2) if shifted else None
        measured, floor = csc_grad_floor_verify(build_csc(d, csc_constants, 1.0, shift))
        reference = dense_grad_floor(build_csc(d, csc_constants, 1.0, shift))
        assert measured == pytest.approx(reference, rel=1e-9)
        assert floor == csc_grad_floor_value(csc_constants, 1.0, d)

    def test_closed_form_needs_the_cleared_system(self, csc20):
        # the same oracle with A_yy = L_y I in the other flavor's Z: equal
        # operators, but polynomials in two Z, so there is no cleared system
        o = csc20.oracle
        a_yy = z_power_sum("scsc", csc20.d, {}, shift=o.constants.L_y)
        assert np.array_equal(a_yy.to_dense(), o.outer.a_yy.to_dense())
        outer = dataclasses.replace(o.outer, a_yy=a_yy)
        oracle = QuadraticBilevelOracle(o.h_op, o.j_op, o.b, outer, o.constants)
        with pytest.raises(CapabilityError, match="more than one Z"):
            csc_grad_floor_verify(dataclasses.replace(csc20, oracle=oracle))

    def test_closed_form_factors_the_cleared_system_once(self, csc_constants, factor_calls):
        inst = build_csc(32, csc_constants, B=1.0)
        _ = inst.oracle.x_star
        factor_calls.clear()
        csc_grad_floor_verify(inst)
        assert factor_calls == []  # the floor reuses the factor x* was solved with

    def test_floor_not_vacuous_at_d20(self, csc20):
        measured, floor = csc_grad_floor_verify(csc20)
        assert 1.0 <= measured / floor <= 1e3

    def test_unconstrained_minimum_is_zero(self, csc20):
        # x_star has nonzero trailing coordinates, outside the feasible set of
        # the constrained problem: there the gradient vanishes entirely.
        assert np.all(csc20.x_star[-3:] != 0.0)
        assert np.linalg.norm(csc20.oracle.grad_phi(csc20.x_star)) < csc20.grad_floor

    @pytest.mark.parametrize("d", [16, 64])
    def test_outer_objective_convex(self, csc_constants, d):
        inst = build_csc(d, csc_constants, B=1.0)
        h_phi, _ = inst.oracle.phi_quadratic_reduction()
        eigs = np.linalg.eigvalsh(h_phi)
        assert eigs[0] >= -1e-10 * eigs[-1]

    def test_rejects_bad_inputs(self, csc_constants):
        with pytest.raises(ConstraintError):
            build_csc(3, csc_constants, B=1.0)
        with pytest.raises(ConstraintError):
            build_csc(8, csc_constants, B=0.0)


class TestTightScale:
    def test_builds_and_certificates_at_the_tight_run_dimension(self):
        """mu_x = 1e-6, mu_y = 0.1 (r = 0.99982) at its run dimension, d = 109 731, within 30 s."""
        d = 109_731
        tight = dataclasses.replace(mild_scsc_constants(), mu_x=1e-6, mu_y=0.1)
        start = time.perf_counter()
        scsc = build_scsc(d, tight)
        x_star = scsc.oracle.x_star
        csc = build_csc(d, dataclasses.replace(tight, mu_x=0.0), 1.0)
        measured, floor = csc_grad_floor_verify(csc)
        # a chain column at the scaled battery's cap, projected on its head
        m = support_cap("scsc", K=60, Q=10, T=5)
        z = scsc.z
        column = z.apply(scsc.b)
        for _ in range(m // 2):
            column = stencils.apply_power(z, column, 2)
        residual = span_projection_residual(scsc, column, m)
        # every scsc operator's tap kernels and band form, and the minimizer's
        # LDL' pivots, against the row stencil of tests/gather_reference.py
        gen = np.random.default_rng(0)
        v, block = gen.standard_normal(d), gen.standard_normal((d, 4))
        outer = scsc.oracle.outer
        minimizer = linalg.z_power_sum("scsc", d, {4: 1.0, 2: scsc.lam_coef}, shift=scsc.tau_coef)
        for op in (scsc.oracle.h_op, scsc.oracle.j_op, outer.a_xx, outer.a_xy, outer.a_yy, minimizer):
            assert np.array_equal(op.apply(v), gather_reference.apply(op, v))
            assert np.array_equal(op.apply_block(block), gather_reference.apply_block(op, block))
            lower, want = linalg.band_form(op), gather_reference.band_form(op)
            assert (lower is None) == (want is None)
            assert lower is None or lower.tobytes() == want.tobytes()
        pivots = linalg.banded_ldl(minimizer).pivots
        assert pivots.tobytes() == linalg.BandedLDL(gather_reference.band_form(minimizer)).pivots.tobytes()
        assert time.perf_counter() - start <= 30.0
        assert scsc.r > 0.9998
        assert np.linalg.norm(x_star - scsc.x_star_dense) <= 1e-6 * np.linalg.norm(x_star)
        assert measured >= floor > 0.0
        assert residual <= 1e-12


class TestRstar:
    def test_pure_quartic_when_beta_zero(self):
        c = dataclasses.replace(mild_csc_constants(), Ltil_y=0.5)  # beta = 0
        res = csc_rstar(c, B=1.0, eps=1e-2)
        rhs = (c.Ltil_xy**2 * c.L_y + c.L_x * c.mu_y**2) ** 2 / (
            128.0 * c.mu_y**4 * 1e-4
        )
        assert res.r_star == pytest.approx(rhs**0.25, rel=1e-9)

    def test_halving_eps_scales_by_sqrt2(self):
        c = dataclasses.replace(mild_csc_constants(), Ltil_y=0.5)
        r1 = csc_rstar(c, B=1.0, eps=1e-2).r_star
        r2 = csc_rstar(c, B=1.0, eps=5e-3).r_star
        assert r2 / r1 == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_small_beta_regime_near_closed_form(self, csc_constants):
        res = csc_rstar(csc_constants, B=1.0, eps=1e-2)
        ratio = res.small_beta_regime / res.r_star
        assert 0.25 <= ratio <= 4.0


class TestSerialization:
    def test_scsc_round_trip_bit_exact(self, scsc_mild16):
        text = instance_to_json(scsc_mild16)
        rebuilt = instance_from_json(text)
        assert instance_to_json(rebuilt) == text
        assert rebuilt.b.tobytes() == scsc_mild16.b.tobytes()
        assert rebuilt.x_hat.tobytes() == scsc_mild16.x_hat.tobytes()
        assert rebuilt.r == scsc_mild16.r

    def test_csc_round_trip_bit_exact(self, csc20):
        text = instance_to_json(csc20)
        rebuilt = instance_from_json(text)
        assert instance_to_json(rebuilt) == text
        assert rebuilt.x_star.tobytes() == csc20.x_star.tobytes()

    def test_rebuilt_oracle_behaves_identically(self, scsc_mild16, rng):
        rebuilt = instance_from_json(instance_to_json(scsc_mild16))
        x = rng.standard_normal(16)
        assert np.array_equal(
            rebuilt.oracle.grad_phi(x), scsc_mild16.oracle.grad_phi(x)
        )


class TestBenchmarkFamily:
    def test_supports_unit_condition_number(self):
        from bilevel_lab.presets import benchmark_scsc_constants

        c = benchmark_scsc_constants(1.0)
        oracle = build_scsc_benchmark(16, c)
        assert oracle.constants.kappa_y == pytest.approx(1.0)
        assert oracle.phi(np.zeros(16)) - oracle.phi_star > 0.0

    def test_initial_gap_normalization(self):
        from bilevel_lab.presets import benchmark_scsc_constants

        for kappa in (1.0, 16.0):
            oracle = build_scsc_benchmark(
                16, benchmark_scsc_constants(kappa), initial_gap=1.0
            )
            gap = oracle.phi(np.zeros(16)) - oracle.phi_star
            assert gap == pytest.approx(1.0, rel=1e-9)
