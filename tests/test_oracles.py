import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevel_lab import (
    OracleCounters,
    QuadraticBilevelOracle,
    QuadraticOuter,
    SmoothnessConstants,
    counted,
    exact_hypergradient,
    finite_difference_check,
    linalg,
)
from bilevel_lab.errors import (
    DimensionMismatchError,
    InvariantViolationError,
)


def _plain_constants(**overrides):
    fields = dict(mu_x=1.0, mu_y=1.0, L_x=1.0, L_y=1.0, L_xy=0.0, Ltil_xy=1.0, Ltil_y=1.0)
    fields.update(overrides)
    return SmoothnessConstants(**fields)


def decoupled_oracle(d=4):
    outer = QuadraticOuter(a_xx=linalg.identity(d), a_yy=linalg.identity(d))
    return QuadraticBilevelOracle(
        linalg.identity(d), None, np.zeros(d), outer, _plain_constants()
    )


def coupled_oracle(d=4):
    outer = QuadraticOuter(a_xx=linalg.identity(d), a_yy=linalg.identity(d))
    return QuadraticBilevelOracle(
        linalg.identity(d), linalg.identity(d), np.zeros(d), outer, _plain_constants()
    )


class TestQuadraticConstructor:
    def test_decoupled_exact_surface(self):
        oracle = decoupled_oracle()
        x = np.array([1.0, 2.0, -1.0, 0.5])
        assert np.array_equal(oracle.y_star(x), np.zeros(4))
        assert oracle.phi(x) == pytest.approx(0.5 * float(x @ x))
        assert np.allclose(oracle.x_star, np.zeros(4), atol=1e-12)
        assert oracle.phi_star == pytest.approx(0.0, abs=1e-14)

    def test_coupled_exact_surface(self):
        oracle = coupled_oracle()
        x = np.array([0.3, -0.7, 1.1, 0.0])
        assert np.allclose(oracle.y_star(x), -x, atol=1e-12)
        assert oracle.phi(x) == pytest.approx(float(x @ x))
        assert np.allclose(oracle.x_star, np.zeros(4), atol=1e-12)

    def test_spectrum_invariant_enforced(self):
        outer = QuadraticOuter(a_xx=linalg.identity(3), a_yy=linalg.identity(3))
        bad_h = linalg.diagonal(np.array([0.5, 1.0, 3.0]))  # above Ltil_y = 1
        with pytest.raises(InvariantViolationError):
            QuadraticBilevelOracle(bad_h, None, np.zeros(3), outer, _plain_constants())

    def test_dimension_mismatch(self):
        outer = QuadraticOuter(a_xx=linalg.identity(4), a_yy=linalg.identity(4))
        with pytest.raises(DimensionMismatchError):
            QuadraticBilevelOracle(
                linalg.identity(4), linalg.identity(5), np.zeros(4), outer, _plain_constants()
            )

    def test_y_star_optimality_at_random_points(self, scsc_mild16, rng):
        oracle = scsc_mild16.oracle
        for _ in range(10):
            x = rng.standard_normal(16)
            ys = oracle.y_star(x)
            resid = np.linalg.norm(oracle.grad_y_g(x, ys))
            assert resid <= 1e-9 * (1.0 + np.linalg.norm(x))


class TestExactHypergradient:
    def test_decoupled(self):
        oracle = decoupled_oracle()
        x = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(exact_hypergradient(oracle, x), x, atol=1e-12)

    def test_coupled_doubles(self):
        oracle = coupled_oracle()
        x = np.array([0.4, -1.2, 0.0, 2.0])
        assert np.allclose(exact_hypergradient(oracle, x), 2.0 * x, atol=1e-12)

    def test_csc_minimizer_is_stationary(self, csc20):
        g = exact_hypergradient(csc20.oracle, csc20.x_star)
        assert np.linalg.norm(g) <= 1e-9 * np.linalg.norm(csc20.b_tilde)

    def test_matches_central_differences_at_random_points(self, scsc_mild16, csc20, rng):
        for oracle in (scsc_mild16.oracle, csc20.oracle):
            for _ in range(10):
                x = rng.standard_normal(oracle.p)
                assert finite_difference_check(oracle, x, 1e-5) <= 1e-6


class TestFiniteDifferenceCheck:
    def test_decoupled(self):
        oracle = decoupled_oracle()
        x = np.array([0.2, 0.4, -0.6, 1.0])
        assert finite_difference_check(oracle, x, 1e-5) <= 1e-6

    @pytest.mark.parametrize("fixture", ["scsc_mild16", "csc20"])
    def test_hard_instances(self, fixture, rng, request):
        inst = request.getfixturevalue(fixture)
        x = rng.standard_normal(16 if fixture == "scsc_mild16" else 20)
        assert finite_difference_check(inst.oracle, x, 1e-5) <= 1e-6

    def test_csc_at_dimension_sixteen(self, csc_constants, rng):
        from bilevel_lab import build_csc

        inst = build_csc(16, csc_constants, B=1.0)
        x = rng.standard_normal(16)
        assert finite_difference_check(inst.oracle, x, 1e-5) <= 1e-6


class TestCounters:
    def test_scripted_sequence_tally(self):
        oracle, counters = counted(coupled_oracle())
        x, y, v = np.zeros(4), np.zeros(4), np.ones(4)
        oracle.grad_x_f(x, y)
        oracle.grad_y_f(x, y)
        oracle.grad_y_g(x, y)
        for _ in range(5):
            oracle.hess_y_g_vec(x, y, v)
        oracle.jac_xy_g_vec(x, y, v)
        assert (counters.n_G, counters.n_H, counters.n_J) == (3, 5, 1)

    def test_exact_surface_not_counted(self):
        base = coupled_oracle()
        oracle, counters = counted(base)
        for name in ("y_star", "phi", "grad_phi", "phi_star", "x_star"):
            assert not hasattr(oracle, name)
        x = np.ones(4)
        base.y_star(x)
        base.phi(x)
        base.grad_phi(x)
        _ = base.phi_star
        assert (counters.n_G, counters.n_H, counters.n_J) == (0, 0, 0)

    def test_zero_calls_zero_complexity(self):
        _, counters = counted(decoupled_oracle())
        assert counters.complexity() == 0.0

    def test_weighted_complexity_arithmetic(self):
        counters = OracleCounters(n_G=10, n_J=1, n_H=5, tau_cost=2.0)
        assert counters.complexity() == 22.0
        assert counters.complexity(tau_cost=1.0) == 16.0
        assert counters.complexity(tau_cost=5.0) == 40.0

    @settings(max_examples=30, deadline=None)
    @given(script=st.lists(st.sampled_from(["gx", "gy", "gg", "h", "j"]), max_size=40))
    def test_counts_equal_hand_tally(self, script):
        oracle, counters = counted(coupled_oracle())
        x, y, v = np.zeros(4), np.zeros(4), np.ones(4)
        tally = {"G": 0, "H": 0, "J": 0}
        for op in script:
            if op == "gx":
                oracle.grad_x_f(x, y)
                tally["G"] += 1
            elif op == "gy":
                oracle.grad_y_f(x, y)
                tally["G"] += 1
            elif op == "gg":
                oracle.grad_y_g(x, y)
                tally["G"] += 1
            elif op == "h":
                oracle.hess_y_g_vec(x, y, v)
                tally["H"] += 1
            else:
                oracle.jac_xy_g_vec(x, y, v)
                tally["J"] += 1
        assert (counters.n_G, counters.n_H, counters.n_J) == (
            tally["G"],
            tally["H"],
            tally["J"],
        )


class TestConstants:
    def test_rejects_nonpositive_mu_y(self):
        with pytest.raises(InvariantViolationError):
            _plain_constants(mu_y=0.0)

    def test_rejects_ltil_y_below_mu_y(self):
        with pytest.raises(InvariantViolationError):
            _plain_constants(mu_y=1.0, Ltil_y=0.5)

    def test_kappa_y(self):
        assert _plain_constants(mu_y=0.5, Ltil_y=2.0).kappa_y == pytest.approx(4.0)
