import numpy as np
import pytest

from bilevel_lab import (
    AccBiOBGConfig,
    AccBiOConfig,
    AgdConfig,
    HeavyBallConfig,
    QuadraticBilevelOracle,
    QuadraticOuter,
    SmoothnessConstants,
    SolverConfig,
    accbio,
    accbio_bg,
    baseline_aid_gd,
    build_scsc,
    build_scsc_benchmark,
    counted,
    exact_hypergradient,
    l_phi_estimate,
    linalg,
    regularize_convex,
    trace_to_csv,
)
from bilevel_lab.errors import CapabilityError, DivergenceError, InvariantViolationError
from bilevel_lab.solvers import ALGORITHMS, accbio_bg_rule, accbio_rule, gd_rule, outer_loop


def shifted_quadratic_oracle(d=4, curvatures=None, target=1.0):
    """Decoupled instance whose outer minimizer sits away from the origin."""
    curvatures = np.ones(d) if curvatures is None else np.asarray(curvatures)
    constants = SmoothnessConstants(
        mu_x=float(curvatures.min()),
        mu_y=1.0,
        L_x=float(curvatures.max()),
        L_y=1.0,
        L_xy=0.0,
        Ltil_xy=0.0,
        Ltil_y=1.0,
    )
    outer = QuadraticOuter(
        a_xx=linalg.diagonal(curvatures),
        a_yy=linalg.identity(d),
        lin_x=-target * curvatures,
    )
    return QuadraticBilevelOracle(linalg.identity(d), None, np.zeros(d), outer, constants)


def small_budgets(constants, n=5, m=5):
    return AgdConfig.from_constants(constants, n), HeavyBallConfig.from_constants(constants, m)


def accbio_momentum(cfg):
    """The momentum of accbio's update at cfg, read off x = z_next + momentum (z_next - z)."""
    (_, update), _ = ALGORITHMS["accbio"].setup(cfg)
    x_next, z_next = update(None, 0.0, 1.0, 0.0)  # z = 0, x_query = 1, G = 0: z_next = 1
    return x_next - z_next


class TestAccBiO:
    def test_momentum_formula(self):
        agd = AgdConfig(N=1, step=1.0, kappa_y=1.0)
        hb = HeavyBallConfig(M=1, hb_step=1.0, hb_momentum=0.0)
        cfg = AccBiOConfig(K=1, L_phi=4.0, mu_x=1.0, agd=agd, hb=hb, eps=1e-6)
        assert ALGORITHMS["accbio"].setup(cfg)[1]["kappa_x"] == pytest.approx(4.0)
        assert accbio_momentum(cfg) == pytest.approx(1.0 / 3.0)

    def test_unit_condition_number_is_plain_gradient_descent(self):
        # kappa_x = 1 kills the momentum: iterates match hand-rolled descent
        oracle = shifted_quadratic_oracle(d=3, target=2.0)
        agd, hb = small_budgets(oracle.constants, 3, 3)
        cfg = AccBiOConfig(K=4, L_phi=1.0, mu_x=1.0, agd=agd, hb=hb, eps=1e-9)
        assert accbio_momentum(cfg) == pytest.approx(0.0)
        trace = accbio(oracle, cfg)
        x = np.zeros(3)
        for _ in range(4):
            x = x - exact_hypergradient(oracle, x)
        assert np.allclose(trace.final_point, x, atol=1e-12)

    def test_trace_rows_and_counters(self, scsc_bench32):
        c = scsc_bench32.constants
        agd, hb = small_budgets(c, 6, 4)
        cfg = AccBiOConfig(
            K=5, L_phi=l_phi_estimate(c), mu_x=c.mu_x, agd=agd, hb=hb, eps=1e-6
        )
        trace = accbio(scsc_bench32.oracle, cfg)
        assert len(trace.records) == 6
        final = trace.final
        assert (final.n_G, final.n_H, final.n_J) == (5 * (6 + 2), 5 * 4, 5)
        assert final.complexity == pytest.approx(2.0 * (20 + 5) + 40)

    def test_counters_nondecreasing_over_iterations(self, scsc_bench32):
        c = scsc_bench32.constants
        agd, hb = small_budgets(c, 4, 4)
        cfg = AccBiOConfig(
            K=6, L_phi=l_phi_estimate(c), mu_x=c.mu_x, agd=agd, hb=hb, eps=1e-6
        )
        trace = accbio(scsc_bench32.oracle, cfg)
        for before, after in zip(trace.records, trace.records[1:]):
            assert after.n_G >= before.n_G
            assert after.n_H >= before.n_H
            assert after.n_J >= before.n_J
            assert after.complexity >= before.complexity

    def test_exact_surface_solves_do_not_grow_with_K(
        self, benchmark_constants, solve_calls, factor_calls
    ):
        per_run = []
        for K in (5, 20):
            oracle = build_scsc(32, benchmark_constants).oracle  # a cold cache
            c = oracle.constants
            agd, hb = small_budgets(c, 4, 4)
            cfg = AccBiOConfig(
                K=K, L_phi=l_phi_estimate(c), mu_x=c.mu_x, agd=agd, hb=hb, eps=1e-6
            )
            solve_calls.clear()
            factor_calls.clear()
            trace = accbio(oracle, cfg)
            assert len(trace.records) == K + 1
            per_run.append((list(factor_calls), len(solve_calls)))
        # one factor of H and one of the cleared system per oracle, none per record
        assert per_run[0] == per_run[1] == ([(1, 32), (2, 32)], 0)

    def test_divergence_carries_partial_trace(self, scsc_bench32):
        c = scsc_bench32.constants
        agd, hb = small_budgets(c, 3, 3)
        cfg = AccBiOConfig(K=200, L_phi=1e-4, mu_x=1e-5, agd=agd, hb=hb, eps=1e-6)
        with pytest.raises(DivergenceError) as err:
            accbio(scsc_bench32.oracle, cfg)
        assert err.value.trace is not None
        assert err.value.trace.status == "diverged"
        assert len(err.value.trace.records) >= 1


class TestAccBiOBG:
    def test_derived_parameters(self):
        agd = AgdConfig(N=1, step=1.0, kappa_y=1.0)
        hb = HeavyBallConfig(M=1, hb_step=1.0, hb_momentum=0.0)
        cfg = AccBiOBGConfig(K=1, alpha=1.0 / 16.0, mu_x=1.0, agd=agd, hb=hb, U=1.0)
        _, params = ALGORITHMS["accbio_bg"].setup(cfg)
        assert params["eta_k"] == pytest.approx(1.0 / 9.0)
        assert params["tau_k"] == pytest.approx(1.0 / 8.0)
        assert params["beta_k"] == pytest.approx(4.0 * cfg.alpha)

    def test_first_step_from_origin(self):
        oracle = shifted_quadratic_oracle(d=3, target=1.0)
        agd, hb = small_budgets(oracle.constants, 4, 4)
        alpha = 0.25
        cfg = AccBiOBGConfig(K=1, alpha=alpha, mu_x=1.0, agd=agd, hb=hb, U=5.0)
        trace = accbio_bg(oracle, cfg)
        expected = -alpha * exact_hypergradient(oracle, np.zeros(3))
        assert np.allclose(trace.final_point, expected, atol=1e-12)

    def test_requires_declared_U(self, scsc_bench32):
        c = scsc_bench32.constants
        agd, hb = small_budgets(c)
        cfg = AccBiOBGConfig(K=1, alpha=0.01, mu_x=c.mu_x, agd=agd, hb=hb, U=None)
        with pytest.raises(CapabilityError):
            accbio_bg(scsc_bench32.oracle, cfg)

    def test_warm_start_saves_inner_gradients(self, benchmark_constants):
        # directional check: warm start reaches a fixed inner residual with
        # strictly fewer total inner gradient evaluations than cold starts
        oracle = build_scsc_benchmark(32, benchmark_constants)
        c = oracle.constants
        agd = AgdConfig.from_constants(c, 200)
        hb = HeavyBallConfig.from_constants(c, 10)
        alpha = 1.0 / (2.0 * l_phi_estimate(c))
        cfg = AccBiOBGConfig(K=12, alpha=alpha, mu_x=c.mu_x, agd=agd, hb=hb, U=10.0)
        (query, update), _ = ALGORITHMS["accbio_bg"].setup(cfg)
        totals = {}
        for warm in (True, False):
            # observer: inner gradients spent until the first AGD step within
            # 1e-8 of y*(x_tilde), summed over outer steps
            state = {"total": 0}

            def observed_query(x, z):
                x_tilde = query(x, z)
                state.update(target=oracle.y_star(x_tilde), hit=False)
                return x_tilde

            def on_inner(y):
                if not state["hit"]:
                    state["total"] += 1
                    state["hit"] = float(np.linalg.norm(y - state["target"])) <= 1e-8

            metered, _ = counted(oracle)
            outer_loop(
                metered, cfg.K, agd, hb, observed_query, update, warm, lambda *a: None, on_inner
            )
            totals[warm] = state["total"]
        assert totals[True] < totals[False]


def _refuse(*args):
    raise AssertionError("the outer loop read the exact surface")


class _NoExactSurface(QuadraticBilevelOracle):
    """A quadratic oracle whose exact surface refuses every call."""

    y_star = phi = grad_phi = _refuse
    x_star = phi_star = property(_refuse)


class TestOuterLoop:
    def test_rules_run_on_the_counted_surface_alone(self):
        d, K, N, M = 4, 3, 4, 5
        c = SmoothnessConstants(
            mu_x=1.0, mu_y=1.0, L_x=1.0, L_y=1.0, L_xy=1.0, Ltil_xy=1.0, Ltil_y=1.0
        )
        outer = QuadraticOuter(a_xx=linalg.identity(d), a_yy=linalg.identity(d))
        oracle = _NoExactSurface(linalg.identity(d), linalg.identity(d), np.ones(d), outer, c)
        agd, hb = small_budgets(c, N, M)
        rules = (accbio_rule(2.0, 0.5), accbio_bg_rule(0.1, 0.2, 0.3, 0.4), gd_rule(0.1))
        for rule in rules:
            for warm in (True, False):
                metered, counters = counted(oracle)
                outer_loop(metered, K, agd, hb, *rule, warm, lambda *a: None)
                assert (counters.n_G, counters.n_H, counters.n_J) == (K * (N + 2), K * M, K)


class TestStepSizes:
    SOLVERS = {"accbio": accbio, "accbio_bg": accbio_bg, "baseline_aid_gd": baseline_aid_gd}

    @pytest.mark.parametrize("name,key", [("accbio_bg", "alpha"), ("baseline_aid_gd", "stepsize")])
    @pytest.mark.parametrize("value", [0.0, -0.5, np.inf, np.nan])
    def test_bad_override_raises(self, name, key, value):
        oracle = shifted_quadratic_oracle(d=3)
        agd, hb = small_budgets(oracle.constants)
        cfg = SolverConfig(K=1, agd=agd, hb=hb, L_phi=1.0, mu_x=1.0, U=1.0, **{key: value})
        with pytest.raises(InvariantViolationError, match=key):
            self.SOLVERS[name](oracle, cfg)

    @pytest.mark.parametrize("name", ["accbio", "accbio_bg", "baseline_aid_gd"])
    def test_default_step_needs_L_phi(self, name):
        oracle = shifted_quadratic_oracle(d=3)
        agd, hb = small_budgets(oracle.constants)
        cfg = SolverConfig(K=1, agd=agd, hb=hb, mu_x=1.0, U=1.0)
        with pytest.raises(InvariantViolationError):
            self.SOLVERS[name](oracle, cfg)

    def test_non_finite_default_step_raises(self):
        oracle = shifted_quadratic_oracle(d=3)
        agd, hb = small_budgets(oracle.constants)
        cfg = SolverConfig(K=1, agd=agd, hb=hb, L_phi=1e-310)  # 1 / L_phi overflows
        with pytest.raises(InvariantViolationError, match="stepsize"):
            baseline_aid_gd(oracle, cfg)

    def test_explicit_step_needs_no_L_phi(self):
        oracle = shifted_quadratic_oracle(d=3)
        agd, hb = small_budgets(oracle.constants)
        trace = baseline_aid_gd(oracle, SolverConfig(K=1, agd=agd, hb=hb, stepsize=0.5))
        assert trace.meta["stepsize"] == 0.5


class TestBaseline:
    def test_zero_steps_only_initial_record(self, scsc_bench32):
        agd, hb = small_budgets(scsc_bench32.constants)
        cfg = SolverConfig(K=0, agd=agd, hb=hb, stepsize=0.1)
        trace = baseline_aid_gd(scsc_bench32.oracle, cfg)
        assert len(trace.records) == 1
        assert trace.records[0].k == 0

    def test_per_step_gap_contraction(self):
        # exact hypergradients, quadratic outer with kappa_x = 2: the gap
        # contracts at least as fast as (1 - 1/kappa_x)^2 every step
        oracle = shifted_quadratic_oracle(d=2, curvatures=np.array([0.5, 1.0]), target=1.0)
        agd, hb = small_budgets(oracle.constants, 30, 30)
        trace = baseline_aid_gd(oracle, SolverConfig(K=8, agd=agd, hb=hb, stepsize=1.0))
        gaps = [rec.phi_gap for rec in trace.records]
        bound = (1.0 - 0.5) ** 2
        for before, after in zip(gaps, gaps[1:]):
            if before > 1e-14:
                assert after <= bound * before + 1e-14

    def test_accelerated_beats_baseline_on_conditioned_instance(self, scsc_bench32):
        # kappa_x = 18 here; both solvers to the same gap target
        c = scsc_bench32.constants
        l_phi = l_phi_estimate(c)
        eps = 1e-3
        agd, hb = small_budgets(c, 40, 40)
        acc = accbio(
            scsc_bench32.oracle,
            AccBiOConfig(K=80, L_phi=l_phi, mu_x=c.mu_x, agd=agd, hb=hb, eps=eps),
        )
        base = baseline_aid_gd(
            scsc_bench32.oracle, SolverConfig(K=300, agd=agd, hb=hb, stepsize=1.0 / l_phi)
        )
        acc_cross = acc.first_crossing(eps)
        base_cross = base.first_crossing(eps)
        assert acc_cross is not None and base_cross is not None
        assert acc_cross.complexity < base_cross.complexity


class TestLPhiEstimate:
    def test_quadratic_regime_value(self):
        c = SmoothnessConstants(
            mu_x=0.5, mu_y=0.5, L_x=1.0, L_y=1.0, L_xy=1.0, Ltil_xy=1.0, Ltil_y=1.0
        )
        assert l_phi_estimate(c) == pytest.approx(9.0)


class TestRegularizeConvex:
    def test_gradient_shift_at_random_points(self, csc20, rng):
        eps, R = 1e-3, 2.0
        wrapped = regularize_convex(csc20.oracle, eps, R)
        assert wrapped.constants.mu_x == pytest.approx(eps / R)
        assert wrapped.constants.L_x == pytest.approx(csc20.constants.L_x + eps / R)
        for _ in range(5):
            x = rng.standard_normal(20)
            expected = exact_hypergradient(csc20.oracle, x) + (eps / R) * x
            assert np.allclose(exact_hypergradient(wrapped, x), expected, atol=1e-10)

    def test_vanishing_ridge_leaves_oracle_unchanged(self, csc20, rng):
        wrapped = regularize_convex(csc20.oracle, 1e-14, 1.0)
        x = rng.standard_normal(20)
        assert np.allclose(
            exact_hypergradient(wrapped, x),
            exact_hypergradient(csc20.oracle, x),
            atol=1e-10,
        )

    def test_phi_shift(self, csc20, rng):
        eps, R = 1e-2, 1.0
        wrapped = regularize_convex(csc20.oracle, eps, R)
        x = rng.standard_normal(20)
        assert wrapped.phi(x) == pytest.approx(
            csc20.oracle.phi(x) + 0.5 * (eps / R) * float(x @ x)
        )


class TestTraceCsv:
    def test_header_and_shape(self, scsc_bench32):
        agd, hb = small_budgets(scsc_bench32.constants)
        cfg = SolverConfig(K=3, agd=agd, hb=hb, stepsize=0.05)
        trace = baseline_aid_gd(scsc_bench32.oracle, cfg)
        text = trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "k,phi_gap,grad_norm,hypergrad_error,n_G,n_J,n_H,complexity"
        assert len(lines) == 5
        # floats round-trip through repr
        row = lines[2].split(",")
        rec = trace.records[1]
        assert float(row[1]) == rec.phi_gap
        assert float(row[7]) == rec.complexity

    def test_absent_quantities_are_empty_fields(self, scsc_bench32):
        agd, hb = small_budgets(scsc_bench32.constants, 2, 2)
        cfg = SolverConfig(K=2, agd=agd, hb=hb, stepsize=0.1)
        trace = baseline_aid_gd(scsc_bench32.oracle, cfg)
        lines = trace_to_csv(trace).strip().split("\n")
        first = lines[1].split(",")
        assert first[3] == ""  # no estimate before the first iteration
        second = lines[2].split(",")
        assert second[3] != ""
