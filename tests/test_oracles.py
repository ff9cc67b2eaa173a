import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevel_lab import (
    OracleCounters,
    QuadraticBilevelOracle,
    QuadraticOuter,
    SmoothnessConstants,
    build_scsc,
    build_scsc_benchmark,
    counted,
    exact_hypergradient,
    finite_difference_check,
    linalg,
    oracles,
    regularize_convex,
)
from bilevel_lab.errors import (
    DimensionMismatchError,
    InvariantViolationError,
)
from test_hypergrad import quadratic_oracle


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

    @pytest.mark.parametrize(
        "evals,rotated",
        [([0.5, 1.0, 3.0], False), ([1.0, 1.5, 2.0 + 1e-6], True), ([1.0 - 1e-6, 1.5, 2.0], True)],
        ids=["diagonal", "dense-above", "dense-below"],
    )
    def test_spectrum_invariant_enforced(self, evals, rotated):
        outer = QuadraticOuter(a_xx=linalg.identity(3), a_yy=linalg.identity(3))
        constants = _plain_constants(Ltil_y=2.0)  # H must lie in [1, 2]
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]

        def h_op(e):
            if not rotated:
                return linalg.diagonal(np.asarray(e))
            m = (q * e) @ q.T
            return linalg.dense(0.5 * (m + m.T))

        with pytest.raises(InvariantViolationError):
            QuadraticBilevelOracle(h_op(evals), None, np.zeros(3), outer, constants)
        # the same H with its spectrum clipped into the bounds is accepted
        QuadraticBilevelOracle(h_op(np.clip(evals, 1.0, 2.0)), None, np.zeros(3), outer, constants)

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

    @staticmethod
    def _dense_oracle(d):
        """Dense H, J and A_xy with both linear terms: H is factored as one full band."""
        gen = np.random.default_rng(d)
        q, _ = np.linalg.qr(gen.standard_normal((d, d)))
        h = (q * gen.uniform(1.0, 2.0, d)) @ q.T
        j, a_xy = (0.3 * gen.standard_normal((d, d)) for _ in range(2))
        outer = QuadraticOuter(
            a_xx=linalg.identity(d),
            a_yy=linalg.identity(d),
            a_xy=linalg.dense(a_xy + a_xy.T),
            lin_x=gen.standard_normal(d),
            lin_y=gen.standard_normal(d),
        )
        return QuadraticBilevelOracle(
            linalg.dense(0.5 * (h + h.T)),
            linalg.dense(j + j.T),
            gen.standard_normal(d),
            outer,
            _plain_constants(Ltil_y=2.0),
        )

    @pytest.mark.parametrize(
        "which", ["decoupled", "dense6", "dense65", "scsc_mild16", "csc20", "scsc_mild65"]
    )
    @pytest.mark.parametrize("block", [oracles.FD_BLOCK, 5])
    def test_block_path_matches_per_coordinate_phi(
        self, which, block, request, mild_constants, monkeypatch
    ):
        if which == "decoupled":
            oracle = decoupled_oracle()
        elif which.startswith("dense"):
            oracle = self._dense_oracle(int(which.removeprefix("dense")))
        elif which == "scsc_mild65":  # above SMALL_DIM: gather kernels, scan solves
            oracle = build_scsc(65, mild_constants).oracle
        else:
            oracle = request.getfixturevalue(which).oracle
        monkeypatch.setattr(oracles, "FD_BLOCK", block)  # 5 splits x into several blocks
        x, h = np.random.default_rng(5).standard_normal(oracle.p), 1e-5
        fd = oracles.finite_difference_gradient(oracle, x, h)
        ref = np.zeros(oracle.p)
        for i in range(oracle.p):
            step = np.zeros(oracle.p)
            step[i] = h
            ref[i] = (oracle.phi(x + step) - oracle.phi(x - step)) / (2 * h)
        g = exact_hypergradient(oracle, x)
        assert np.max(np.abs(fd - ref)) <= 1e-8 * (1.0 + np.max(np.abs(g)))


class TestAffineMap:
    @staticmethod
    def _oracle(which, request):
        if which == "decoupled":
            d = 5
            outer = QuadraticOuter(
                a_xx=linalg.diagonal(np.linspace(1.0, 2.0, d)),
                a_yy=linalg.identity(d),
                lin_y=np.linspace(-1.0, 1.0, d),
            )
            h = linalg.diagonal(np.linspace(1.0, 3.0, d))
            b = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
            return QuadraticBilevelOracle(h, None, b, outer, _plain_constants(Ltil_y=3.0))
        if which == "regularized_csc20":
            return regularize_convex(request.getfixturevalue("csc20").oracle, 1e-3, 1.0)
        return request.getfixturevalue(which).oracle

    @pytest.mark.parametrize("which", ["scsc_mild16", "csc20", "decoupled", "regularized_csc20"])
    def test_matches_per_call_solves(self, which, request):
        oracle = self._oracle(which, request)
        assert (oracle.j_op is None) == (which == "decoupled")
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal(oracle.p)
            g_yy = oracle.b if oracle.j_op is None else oracle.j_op.apply(x) + oracle.b
            ys_ref = linalg.solve_dense(oracle.h_op, -g_yy)
            v = linalg.solve_dense(oracle.h_op, oracle.grad_y_f(x, ys_ref))
            g_ref = oracle.grad_x_f(x, ys_ref) - oracle.jac_xy_g_vec(x, ys_ref, v)
            ys = oracle.y_star(x)
            g = exact_hypergradient(oracle, x)
            assert np.linalg.norm(ys - ys_ref) <= 1e-10 * np.linalg.norm(ys_ref)
            assert np.linalg.norm(g - g_ref) <= 1e-10 * np.linalg.norm(g_ref)

    def test_one_solve_serves_the_exact_surface(self, mild_constants, solve_calls, factor_calls):
        oracle = build_scsc(16, mild_constants).oracle
        factor_calls.clear()  # the builder's minimizer solve and spectrum check
        x = np.linspace(-1.0, 1.0, 16)
        oracle.y_star(x)
        assert factor_calls == [(1, 16)]  # the tridiagonal H, factored once
        oracle.phi(x)
        oracle.grad_phi(x)
        _ = oracle.phi_star
        _ = oracle.norm_grad_y_f_at_xstar
        # and the cleared system for x*: pentadiagonal, as the Z^6 terms of
        # H^2 A_xx and 2 H A_xy J cancel in the scsc family
        assert factor_calls == [(1, 16), (2, 16)]
        assert solve_calls == []

    def test_fd_check_makes_no_solve_once_cached(self, scsc_mild16, solve_calls, factor_calls):
        oracle = scsc_mild16.oracle
        oracle.y_star(np.zeros(16))
        factor_calls.clear()
        x = np.random.default_rng(3).standard_normal(16)
        assert finite_difference_check(oracle, x, 1e-5) <= 1e-6
        assert factor_calls == []
        assert solve_calls == []


class TestOneInnerFactor:
    """Every oracle's exact surface is served by the LDL' factor of H, with no dense solve."""

    @pytest.mark.parametrize("which", ["decoupled", "dense6", "quadratic16"])
    def test_exact_surface_without_dense_solve_or_eigendecomposition(self, which, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the exact surface must not call a dense solve or eigensolver")

        monkeypatch.setattr(linalg, "solve_dense", forbidden)
        monkeypatch.setattr(linalg, "symmetric_eig_extremes", forbidden)
        if which == "decoupled":
            oracle = decoupled_oracle()
        elif which == "dense6":
            oracle = TestFiniteDifferenceCheck._dense_oracle(6)
        else:
            oracle = quadratic_oracle(16, 4.0, np.random.default_rng(2))
        x = np.random.default_rng(3).standard_normal(oracle.p)
        h = oracle.h_op.to_dense()
        j = np.zeros((oracle.q, oracle.p)) if oracle.j_op is None else oracle.j_op.to_dense()
        ys_ref = np.linalg.solve(h, -(j @ x + oracle.b))
        ys = oracle.y_star(x)
        assert np.linalg.norm(ys - ys_ref) <= 1e-12 * (1.0 + np.linalg.norm(ys_ref))
        assert oracle.phi(x) == pytest.approx(oracle.outer.value(x, ys_ref), rel=1e-12)
        g_ref = oracle.grad_x_f(x, ys_ref) - j.T @ np.linalg.solve(h, oracle.grad_y_f(x, ys_ref))
        g = oracle.grad_phi(x)
        assert np.linalg.norm(g - g_ref) <= 1e-12 * (1.0 + np.linalg.norm(g_ref))
        h_phi, c_phi = oracle.phi_quadratic_reduction()
        assert np.linalg.norm(h_phi @ x + c_phi - g) <= 1e-12 * (1.0 + np.linalg.norm(g))
        # the reduction through the affine map y*(x) = S x + t, S = -H^-1 J, t = -H^-1 b
        o = oracle.outer
        s, t = -np.linalg.solve(h, j), -np.linalg.solve(h, oracle.b)
        a_xx, a_yy = o.a_xx.to_dense(), o.a_yy.to_dense()
        a_xy = np.zeros((oracle.p, oracle.q)) if o.a_xy is None else o.a_xy.to_dense()
        lin_x = np.zeros(oracle.p) if o.lin_x is None else o.lin_x
        lin_y = np.zeros(oracle.q) if o.lin_y is None else o.lin_y
        h_ref = a_xx + s.T @ a_yy @ s + a_xy @ s + s.T @ a_xy.T
        c_ref = s.T @ (a_yy @ t + lin_y) + a_xy @ t + lin_x
        assert np.linalg.norm(h_phi - 0.5 * (h_ref + h_ref.T)) <= 1e-12 * np.linalg.norm(h_ref)
        assert np.linalg.norm(c_phi - c_ref) <= 1e-12 * (1.0 + np.linalg.norm(c_ref))
        assert np.linalg.norm(oracle.grad_phi(oracle.x_star)) <= 1e-10
        assert oracle.phi_star == oracle.phi(oracle.x_star) <= oracle.phi(x)
        assert finite_difference_check(oracle, x, 1e-5) <= 1e-6


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

    def test_bound_hessian_counts_one_product_per_call(self):
        base = coupled_oracle()
        oracle, counters = counted(base)
        x, y, v = np.zeros(4), np.zeros(4), np.arange(4.0)
        hess = oracle.hess_y_g_at(x, y)
        assert counters.n_H == 0  # binding is not a query
        for k in range(1, 4):
            assert np.array_equal(hess(v), base.hess_y_g_vec(x, y, v))
            assert (counters.n_G, counters.n_H, counters.n_J) == (0, k, 0)

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


def _dense_exact_surface(oracle, x):
    """(y*(x), grad phi(x), x*, phi*) by dense solves with the operators' dense forms."""
    o = oracle.outer
    d = oracle.p
    h, j = oracle.h_op.to_dense(), oracle.j_op.to_dense()
    a_xx, a_yy = o.a_xx.to_dense(), o.a_yy.to_dense()
    a_xy = np.zeros((d, d)) if o.a_xy is None else o.a_xy.to_dense()
    lin_x = np.zeros(d) if o.lin_x is None else o.lin_x
    lin_y = np.zeros(d) if o.lin_y is None else o.lin_y
    y = -np.linalg.solve(h, j @ x + oracle.b)
    grad = a_xx @ x + a_xy @ y + lin_x - j @ np.linalg.solve(h, a_yy @ y + a_xy @ x + lin_y)
    s, t = -np.linalg.solve(h, j), -np.linalg.solve(h, oracle.b)
    h_phi = a_xx + a_xy @ s + s.T @ a_xy + s.T @ a_yy @ s
    c_phi = lin_x + a_xy @ t + s.T @ (a_yy @ t + lin_y)
    xs = np.linalg.solve(h_phi, -c_phi)
    ys = s @ xs + t
    phi = 0.5 * xs @ a_xx @ xs + xs @ a_xy @ ys + 0.5 * ys @ a_yy @ ys + lin_x @ xs + lin_y @ ys
    return y, grad, xs, phi


class TestBandedSurface:
    @staticmethod
    def _oracle(which, request):
        from bilevel_lab import build_csc
        from bilevel_lab.presets import benchmark_scsc_constants, mild_csc_constants

        if which == "scsc_d1024":
            return build_scsc(1024, benchmark_scsc_constants(4.0)).oracle
        if which.startswith("benchmark_kappa"):
            kappa = float(which.removeprefix("benchmark_kappa"))
            return build_scsc_benchmark(32, benchmark_scsc_constants(kappa), initial_gap=1.0)
        if which == "regularized_csc20":
            return regularize_convex(build_csc(20, mild_csc_constants(), B=1.0).oracle, 1e-3, 1.0)
        return request.getfixturevalue(which).oracle

    @pytest.mark.parametrize(
        "which",
        [
            "scsc_mild16",
            "scsc_bench32",
            "scsc_d1024",
            "csc20",
            "benchmark_kappa1",
            "benchmark_kappa64",
            "regularized_csc20",
        ],
    )
    def test_matches_dense_reference(self, which, request, solve_calls):
        oracle = self._oracle(which, request)
        x = np.random.default_rng(11).standard_normal(oracle.p)
        ys, grad = oracle.y_star(x), oracle.grad_phi(x)
        xs, phi_star = oracle.x_star, oracle.phi_star
        assert solve_calls == []  # served by the banded factors, not densified
        ys_ref, grad_ref, xs_ref, phi_ref = _dense_exact_surface(oracle, x)
        assert np.linalg.norm(ys - ys_ref) <= 1e-10 * np.linalg.norm(ys_ref)
        assert np.linalg.norm(grad - grad_ref) <= 1e-10 * np.linalg.norm(grad_ref)
        assert np.linalg.norm(xs - xs_ref) <= 1e-10 * np.linalg.norm(xs_ref)
        assert abs(phi_star - phi_ref) <= 1e-10 * abs(phi_ref)

    def test_rescaled_oracle_matches_a_fresh_build(self, benchmark_constants):
        base = build_scsc_benchmark(32, benchmark_constants)
        _ = base.x_star  # cached, so the rescaled copy takes it rescaled
        scaled = base.rescaled(2.5)
        fresh = build_scsc_benchmark(32, benchmark_constants, b_scale=2.5)
        x = np.random.default_rng(2).standard_normal(32)
        assert np.allclose(scaled.x_star, fresh.x_star, rtol=1e-12, atol=0.0)
        assert scaled.phi_star == pytest.approx(fresh.phi_star, rel=1e-12)
        assert scaled.phi(x) == pytest.approx(fresh.phi(x), rel=1e-12)
        assert np.allclose(scaled.grad_phi(x), fresh.grad_phi(x), rtol=1e-12, atol=1e-14)

    def test_rescaled_oracle_shares_both_factors(self, benchmark_constants, factor_calls):
        base = build_scsc_benchmark(32, benchmark_constants)
        _ = base.phi_star  # factors H and the cleared system's P
        factor_calls.clear()
        scaled = base.rescaled(2.5)
        assert scaled._inner_factor() is base._inner_factor()
        assert scaled._cleared_factor() is base._cleared_factor()
        _ = scaled.phi_star
        assert factor_calls == []


class TestSpectrumCheck:
    @staticmethod
    def _oracle(mu_y, ltil_y):
        h = linalg.z_power_sum("scsc", 24, {2: 0.4}, shift=0.7)
        outer = QuadraticOuter(a_xx=linalg.identity(24), a_yy=linalg.identity(24))
        c = _plain_constants(mu_y=mu_y, Ltil_y=ltil_y)
        return QuadraticBilevelOracle(h, None, np.zeros(24), outer, c)

    @pytest.mark.parametrize("end", ["low", "high"])
    def test_inertia_rejects_two_slacks_outside_accepts_half(self, end):
        from bilevel_lab.oracles import SPECTRUM_SLACK

        h = linalg.z_power_sum("scsc", 24, {2: 0.4}, shift=0.7).to_dense()
        lo, hi = np.linalg.eigvalsh(h)[[0, -1]]
        slack = SPECTRUM_SLACK * max(1.0, hi)
        for factor, accepted in ((2.0, False), (0.5, True)):
            if end == "low":  # the spectrum reaches factor * slack below mu_y
                mu_y, ltil_y = lo + factor * slack, hi
            else:  # and above Ltil_y
                mu_y, ltil_y = lo, hi - factor * slack
            if accepted:
                self._oracle(mu_y, ltil_y)
            else:
                with pytest.raises(InvariantViolationError):
                    self._oracle(mu_y, ltil_y)
