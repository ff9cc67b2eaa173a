import numpy as np
import pytest

from bilevel_lab import (
    AgdConfig,
    HeavyBallConfig,
    QuadraticBilevelOracle,
    QuadraticOuter,
    SmoothnessConstants,
    agd_inner,
    aid_estimate,
    build_scsc_benchmark,
    counted,
    exact_hypergradient,
    heavy_ball_solve,
    hypergradient_error_bound,
    itd_estimate,
    linalg,
    tail_log_slope,
)
from bilevel_lab.errors import DivergenceError, InvariantViolationError
from bilevel_lab.presets import benchmark_scsc_constants


def _constants(**overrides):
    fields = dict(mu_x=1.0, mu_y=1.0, L_x=1.0, L_y=1.0, L_xy=0.0, Ltil_xy=1.0, Ltil_y=1.0)
    fields.update(overrides)
    return SmoothnessConstants(**fields)


def quadratic_oracle(d, kappa_y, rng, coupled=True):
    """Dense random quadratic instance with inner spectrum exactly [mu, L]."""
    mu_y, lt_y = 0.5, 0.5 * kappa_y
    evals = np.linspace(mu_y, lt_y, d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    h = linalg.dense(q @ np.diag(evals) @ q.T)
    j = linalg.z_power_sum("scsc", d, {1: -0.5}) if coupled else None
    b = rng.standard_normal(d)
    outer = QuadraticOuter(a_xx=linalg.identity(d), a_yy=linalg.identity(d))
    constants = _constants(mu_y=mu_y, Ltil_y=lt_y, Ltil_xy=1.0)
    return QuadraticBilevelOracle(h, j, b, outer, constants)


class TestAgdInner:
    def test_fixed_point_at_y_star(self, scsc_mild16):
        oracle = scsc_mild16.oracle
        x = np.linspace(-1, 1, 16)
        y_star = oracle.y_star(x)
        cfg = AgdConfig.from_constants(oracle.constants, 10)
        y = agd_inner(oracle.grad_y_g_at(x), y_star, cfg)
        assert np.allclose(y, y_star, atol=1e-10)

    def test_kappa4_coefficients(self):
        cfg = AgdConfig(N=5, step=0.5, kappa_y=4.0)
        assert cfg.momentum == pytest.approx(1.0 / 3.0)
        assert cfg.extrapolation == pytest.approx(4.0 / 3.0)

    def test_contraction_envelope(self, rng):
        # kappa_y = 4 quadratic: error under the theoretical envelope at each N
        oracle = quadratic_oracle(16, 4.0, rng)
        c = oracle.constants
        x = rng.standard_normal(16)
        y_star = oracle.y_star(x)
        prefactor = np.sqrt((c.Ltil_y + c.mu_y) / c.mu_y) * np.linalg.norm(y_star)
        for n in range(1, 21):
            y = agd_inner(oracle.grad_y_g_at(x), np.zeros(16), AgdConfig.from_constants(c, n))
            envelope = prefactor * np.exp(-n / (2.0 * np.sqrt(c.kappa_y)))
            assert np.linalg.norm(y - y_star) <= envelope

    def test_rejects_bad_config(self):
        with pytest.raises(InvariantViolationError):
            AgdConfig(N=0, step=1.0, kappa_y=2.0)
        with pytest.raises(InvariantViolationError):
            AgdConfig(N=3, step=1.0, kappa_y=0.5)


class TestHeavyBall:
    def test_identity_hessian_one_step(self):
        cfg = HeavyBallConfig.from_bounds(1.0, 1.0, 1)
        assert cfg.hb_step == pytest.approx(1.0)
        assert cfg.hb_momentum == pytest.approx(0.0)
        rhs = np.array([2.0, -3.0, 0.5])
        v = heavy_ball_solve(lambda u: u, rhs, cfg)
        assert np.array_equal(v, rhs)

    def test_step_momentum_formulas(self):
        cfg = HeavyBallConfig.from_bounds(1.0, 4.0, 3)
        assert cfg.hb_step == pytest.approx(4.0 / 9.0)
        assert cfg.hb_momentum == pytest.approx(1.0 / 9.0)

    def test_asymptotic_rate_kappa100(self, rng):
        # tail log-slope within 10% of the certified contraction log(9/11)
        n, mu, lt = 50, 1.0, 100.0
        evals = np.linspace(mu, lt, n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        h = q @ np.diag(evals) @ q.T
        h = 0.5 * (h + h.T)
        rhs = rng.standard_normal(n)
        v_star = np.linalg.solve(h, rhs)
        errors = []
        for m in range(1, 201):
            v = heavy_ball_solve(lambda u: h @ u, rhs, HeavyBallConfig.from_bounds(mu, lt, m))
            errors.append(np.linalg.norm(v - v_star))
        slope = tail_log_slope(np.asarray(errors), window=50)
        target = np.log(9.0 / 11.0)
        assert abs(slope - target) <= 0.10 * abs(target)

    def test_monotone_budget(self, rng):
        # error at M+50 never exceeds error at M on the test grid
        oracle = quadratic_oracle(20, 16.0, rng)
        c = oracle.constants
        x = rng.standard_normal(20)
        y = oracle.y_star(x)
        rhs = oracle.grad_y_f(x, y)
        h_apply = lambda u: oracle.hess_y_g_vec(x, y, u)
        v_star = linalg.solve_dense(oracle.h_op, rhs)
        for m in (5, 10, 20, 40):
            e_m = np.linalg.norm(
                heavy_ball_solve(h_apply, rhs, HeavyBallConfig.from_constants(c, m)) - v_star
            )
            e_m50 = np.linalg.norm(
                heavy_ball_solve(h_apply, rhs, HeavyBallConfig.from_constants(c, m + 50)) - v_star
            )
            assert e_m50 <= e_m


REFERENCE_DIMS = (8, 32, linalg.SMALL_DIM + 1, 1024)
REFERENCE_BUDGETS = (1, 2, 245)


def _reference_agd(grad, y0, cfg):
    """The textbook accelerated recurrence, one vector expression per update."""
    y_prev = s = y = y0
    iterates = []
    for _ in range(cfg.N):
        y = s - cfg.step * grad(s)
        s = cfg.extrapolation * y - cfg.momentum * y_prev
        y_prev = y
        iterates.append(y)
    return iterates


def _reference_heavy_ball(hess_apply, rhs, cfg):
    """The textbook heavy-ball recurrence from v0 = v1 = 0."""
    v_prev = v = np.zeros_like(rhs)
    for _ in range(cfg.M):
        v_next = v - cfg.hb_step * (hess_apply(v) - rhs) + cfg.hb_momentum * (v - v_prev)
        v_prev, v = v, v_next
    return v


def _rel(a, b):
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)


class TestInnerLoopsMatchReference:
    @pytest.mark.parametrize("kappa_y", (1.0, 64.0))
    @pytest.mark.parametrize("d", REFERENCE_DIMS)
    def test_agd_matches_textbook_recurrence(self, d, kappa_y):
        c = benchmark_scsc_constants(kappa_y)
        oracle = build_scsc_benchmark(d, c)
        rng = np.random.default_rng(d)
        grad = oracle.grad_y_g_at(rng.standard_normal(d))
        y0 = rng.standard_normal(d)
        for n in REFERENCE_BUDGETS:
            cfg = AgdConfig.from_constants(c, n)
            seen = []
            y = agd_inner(grad, y0, cfg, on_iterate=seen.append)
            expected = _reference_agd(grad, y0, cfg)
            assert len(seen) == n and seen[-1] is y
            for got, want in zip(seen, expected):
                assert _rel(got, want) <= 1e-12

    @pytest.mark.parametrize("kappa_y", (1.0, 64.0))
    @pytest.mark.parametrize("d", REFERENCE_DIMS)
    def test_heavy_ball_matches_textbook_recurrence(self, d, kappa_y):
        c = benchmark_scsc_constants(kappa_y)
        oracle = build_scsc_benchmark(d, c)
        rhs = np.random.default_rng(d).standard_normal(d)
        hess = oracle.hess_y_g_at(None, None)
        for m in REFERENCE_BUDGETS:
            cfg = HeavyBallConfig.from_constants(c, m)
            v = heavy_ball_solve(hess, rhs, cfg)
            assert _rel(v, _reference_heavy_ball(hess, rhs, cfg)) <= 1e-12


def _poisoned(fn, bad_call):
    """fn, except that its `bad_call`-th call returns a vector of inf."""
    calls = [0]

    def wrapped(v):
        calls[0] += 1
        out = fn(v)
        return np.full_like(out, np.inf) if calls[0] == bad_call else out

    return wrapped


class TestInnerLoopGuardsAndAliasing:
    def test_agd_divergence_reports_step_and_last_good(self, scsc_bench32, rng):
        oracle = scsc_bench32.oracle
        grad = oracle.grad_y_g_at(rng.standard_normal(32))
        y0 = rng.standard_normal(32)
        cfg = AgdConfig.from_constants(oracle.constants, 8)
        clean = []
        agd_inner(grad, y0, cfg, on_iterate=clean.append)
        for t in (1, 2, 3, 8):
            with pytest.raises(DivergenceError) as info:
                agd_inner(_poisoned(grad, t), y0, cfg)
            assert info.value.step == t
            assert np.array_equal(info.value.last_good, y0 if t == 1 else clean[t - 2])

    def test_heavy_ball_divergence_reports_step_and_last_good(self, scsc_bench32, rng):
        oracle = scsc_bench32.oracle
        hess = oracle.hess_y_g_at(None, None)
        rhs = rng.standard_normal(32)
        c = oracle.constants
        for t in (1, 2, 3, 8):
            with pytest.raises(DivergenceError) as info:
                heavy_ball_solve(_poisoned(hess, t), rhs, HeavyBallConfig.from_constants(c, 8))
            assert info.value.step == t
            previous = (
                np.zeros(32)
                if t == 1
                else heavy_ball_solve(hess, rhs, HeavyBallConfig.from_constants(c, t - 1))
            )
            assert np.array_equal(info.value.last_good, previous)

    def test_observed_iterates_are_never_overwritten(self, scsc_bench32, rng):
        oracle = scsc_bench32.oracle
        grad = oracle.grad_y_g_at(rng.standard_normal(32))
        y0 = rng.standard_normal(32)
        stored, snapshots = [], []

        def observe(y):
            stored.append(y)
            snapshots.append(y.copy())

        y = agd_inner(grad, y0, AgdConfig.from_constants(oracle.constants, 9), on_iterate=observe)
        assert stored[-1] is y
        hess = oracle.hess_y_g_at(None, None)

        def observed_hess(v):
            observe(v)
            return hess(v)

        rhs = rng.standard_normal(32)
        heavy_ball_solve(observed_hess, rhs, HeavyBallConfig.from_constants(oracle.constants, 9))
        assert len(stored) == 18
        for kept, snapshot in zip(stored, snapshots):
            assert np.array_equal(kept, snapshot)

    def test_inputs_are_never_written(self, scsc_bench32, rng):
        oracle = scsc_bench32.oracle
        c = oracle.constants
        y0 = rng.standard_normal(32)
        rhs = rng.standard_normal(32)
        y0_copy, rhs_copy = y0.copy(), rhs.copy()
        y0.flags.writeable = False
        rhs.flags.writeable = False
        grad = oracle.grad_y_g_at(rng.standard_normal(32))
        hess = oracle.hess_y_g_at(None, None)
        for budget in (1, 2, 7):
            agd_inner(grad, y0, AgdConfig.from_constants(c, budget))
            heavy_ball_solve(hess, rhs, HeavyBallConfig.from_constants(c, budget))
        assert np.array_equal(y0, y0_copy) and np.array_equal(rhs, rhs_copy)


class TestAidEstimate:
    def test_exact_regime_matches_hypergradient(self, scsc_bench32, rng):
        oracle = scsc_bench32.oracle
        c = oracle.constants
        x = rng.standard_normal(32)
        est = aid_estimate(
            oracle,
            x,
            np.zeros(32),
            AgdConfig.from_constants(c, 200),
            HeavyBallConfig.from_constants(c, 200),
        )
        g_exact = exact_hypergradient(oracle, x)
        err = np.linalg.norm(est.G - g_exact)
        assert err <= 1e-8 * (1.0 + np.linalg.norm(g_exact))

    def test_decoupled_ignores_heavy_ball_budget(self, rng):
        oracle = quadratic_oracle(8, 4.0, rng, coupled=False)
        c = oracle.constants
        x = rng.standard_normal(8)
        agd = AgdConfig.from_constants(c, 12)
        results = [
            aid_estimate(oracle, x, np.zeros(8), agd, HeavyBallConfig.from_constants(c, m)).G
            for m in (1, 5, 25)
        ]
        # with no coupling the Jacobian term vanishes: G = grad_x f(x, y_N)
        y_n = agd_inner(oracle.grad_y_g_at(x), np.zeros(8), agd)
        expected = oracle.grad_x_f(x, y_n)
        for g in results:
            assert np.allclose(g, expected, atol=1e-14)

    def test_error_bound_is_envelope(self, scsc_bench32, rng):
        oracle = scsc_bench32.oracle
        c = oracle.constants
        for _ in range(3):
            x = rng.standard_normal(32)
            for n in (5, 20):
                for m in (5, 20):
                    est = aid_estimate(
                        oracle,
                        x,
                        np.zeros(32),
                        AgdConfig.from_constants(c, n),
                        HeavyBallConfig.from_constants(c, m),
                    )
                    bound = hypergradient_error_bound(
                        c,
                        n,
                        m,
                        dist_to_xstar=float(np.linalg.norm(x - oracle.x_star)),
                        norm_y_star_at_xstar=oracle.norm_y_star_at_xstar,
                        norm_grad_y_f_at_xstar=oracle.norm_grad_y_f_at_xstar,
                    )
                    measured = np.linalg.norm(est.G - exact_hypergradient(oracle, x))
                    assert measured <= bound

    def test_counted_surface_matches_full_oracle(self, scsc_bench32, rng):
        # cold and warm starts: the five counted queries alone give the same
        # estimate as the full oracle, and est.y is the inner solver's output
        oracle = scsc_bench32.oracle
        c = oracle.constants
        x = rng.standard_normal(32)
        agd = AgdConfig.from_constants(c, 5)
        hb = HeavyBallConfig.from_constants(c, 5)
        for y0 in (np.zeros(32), np.ones(32)):
            metered, _ = counted(oracle)
            est = aid_estimate(metered, x, y0, agd, hb)
            full = aid_estimate(oracle, x, y0, agd, hb)
            assert np.array_equal(est.G, full.G)
            assert np.array_equal(est.y, agd_inner(oracle.grad_y_g_at(x), y0, agd))

    def test_counter_footprint(self, scsc_mild16, rng):
        x = rng.standard_normal(16)
        for n, m in ((3, 4), (7, 2), (10, 10)):
            oracle, counters = counted(scsc_mild16.oracle)
            aid_estimate(
                oracle,
                x,
                np.zeros(16),
                AgdConfig.from_constants(oracle.constants, n),
                HeavyBallConfig.from_constants(oracle.constants, m),
            )
            assert (counters.n_G, counters.n_H, counters.n_J) == (n + 2, m, 1)


class TestItdEstimate:
    def test_single_step_formula(self, scsc_mild16):
        oracle = scsc_mild16.oracle
        c = oracle.constants
        eta = 1.0 / c.Ltil_y
        x = np.linspace(0.0, 1.0, 16)
        y0 = np.zeros(16)
        est = itd_estimate(oracle, x, y0, N=1, eta=eta)
        y1 = y0 - eta * oracle.grad_y_g(x, y0)
        expected = oracle.grad_x_f(x, y1) - eta * oracle.jac_xy_g_vec(
            x, y0, oracle.grad_y_f(x, y1)
        )
        assert np.allclose(est.G, expected, atol=1e-14)

    def test_decoupled(self, rng):
        oracle = quadratic_oracle(8, 2.0, rng, coupled=False)
        x = rng.standard_normal(8)
        est = itd_estimate(oracle, x, np.zeros(8), N=6, eta=1.0 / oracle.constants.Ltil_y)
        y = np.zeros(8)
        for _ in range(6):
            y = y - (1.0 / oracle.constants.Ltil_y) * oracle.grad_y_g(x, y)
        assert np.allclose(est.G, oracle.grad_x_f(x, y), atol=1e-14)

    def test_long_unroll_converges(self, scsc_bench32, rng):
        oracle = scsc_bench32.oracle
        x = rng.standard_normal(32)
        est = itd_estimate(oracle, x, np.zeros(32), N=200, eta=1.0 / oracle.constants.Ltil_y)
        g_exact = exact_hypergradient(oracle, x)
        err = np.linalg.norm(est.G - g_exact)
        assert err <= 1e-4 * (1.0 + np.linalg.norm(g_exact))

    def test_counter_footprint(self, scsc_mild16, rng):
        x = rng.standard_normal(16)
        for n in (1, 4, 9):
            oracle, counters = counted(scsc_mild16.oracle)
            itd_estimate(oracle, x, np.zeros(16), N=n, eta=1.0 / oracle.constants.Ltil_y)
            assert (counters.n_G, counters.n_H, counters.n_J) == (n + 2, n, n)

    def test_rejects_unstable_eta(self, scsc_mild16):
        with pytest.raises(InvariantViolationError):
            itd_estimate(scsc_mild16.oracle, np.zeros(16), np.zeros(16), N=2, eta=10.0)


class TestAidItdAgreement:
    def test_matched_large_budgets(self, scsc_bench32, rng):
        oracle = scsc_bench32.oracle
        c = oracle.constants
        for _ in range(5):
            x = rng.standard_normal(32)
            g_aid = aid_estimate(
                oracle,
                x,
                np.zeros(32),
                AgdConfig.from_constants(c, 400),
                HeavyBallConfig.from_constants(c, 400),
            ).G
            g_itd = itd_estimate(oracle, x, np.zeros(32), N=400, eta=1.0 / c.Ltil_y).G
            scale = 1.0 + np.linalg.norm(exact_hypergradient(oracle, x))
            assert np.linalg.norm(g_aid - g_itd) <= 1e-6 * scale


class TestTailLogSlope:
    def test_recovers_synthetic_rate(self):
        errors = 3.0 * np.exp(-0.2 * np.arange(200))
        assert tail_log_slope(errors, window=50) == pytest.approx(-0.2, rel=1e-6)

    def test_ignores_noise_floor(self):
        errors = np.maximum(np.exp(-0.3 * np.arange(200)), 1e-16)
        slope = tail_log_slope(np.asarray(errors), window=50, rel_floor=1e-12)
        assert slope == pytest.approx(-0.3, rel=1e-3)
