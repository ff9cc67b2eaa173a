"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines; each test also enforces its runtime cap.
"""

import time

import numpy as np

import stencils
from bilevel_lab import (
    AccBiOBGConfig,
    AccBiOConfig,
    AgdConfig,
    HeavyBallConfig,
    OracleCounters,
    accbio,
    accbio_bg,
    agd_inner,
    aid_estimate,
    build_csc,
    build_scsc,
    build_scsc_benchmark,
    counted,
    csc_grad_floor_verify,
    exact_hypergradient,
    heavy_ball_solve,
    hypergradient_error_bound,
    itd_estimate,
    l_phi_estimate,
    linalg,
    regularize_convex,
    scsc_feasible_dimension,
    tail_log_slope,
)
from bilevel_lab.hard_instances import scsc_bracket_low, scsc_quartic
from bilevel_lab.presets import (
    benchmark_scsc_constants,
    mild_csc_constants,
    mild_scsc_constants,
)
from bilevel_lab.span_lab import (
    simulate_on_instance,
    support_cap,
    verify_gap_floor,
    verify_grad_floor,
    verify_support_cap,
)


def _finish(num, name, start, cap_seconds, ok):
    elapsed = time.perf_counter() - start
    status = "PASS" if ok and elapsed < cap_seconds else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({elapsed:.2f}s / cap {cap_seconds:.0f}s)")
    assert ok, f"criterion {num} checks failed"
    assert elapsed < cap_seconds, f"criterion {num} exceeded runtime cap"


def test_c01_zero_chain_exactness():
    start = time.perf_counter()
    ok = True
    for flavor in ("scsc", "csc"):
        for d in (8, 64):
            z2 = linalg.z_power_sum(flavor, d, {2: 1.0})
            for k in range(d):
                out = z2.apply(np.eye(d)[:, k])
                ok = ok and np.all(out[k + 2 :] == 0.0)  # coords > k+1 exactly zero
    _finish(1, "zero-chain exactness", start, 1.0, ok)


def test_c02_matrix_tables():
    start = time.perf_counter()

    def dense_power(flavor, d, p):
        z = linalg.anti_banded_z(flavor, d)
        return np.column_stack([z.apply_power(col, p) for col in np.eye(d).T])

    ok = True
    for d in range(4, 9):
        ok = ok and np.array_equal(dense_power("scsc", d, 1), stencils.scsc_z_table(d))
        ok = ok and np.array_equal(dense_power("scsc", d, 2), stencils.scsc_z2_table(d))
        ok = ok and np.array_equal(dense_power("scsc", d, 4), stencils.scsc_z4_table(d))
        ok = ok and np.array_equal(dense_power("csc", d, 2), stencils.csc_z2_table(d))
        ok = ok and np.array_equal(dense_power("csc", d, 4), stencils.csc_z4_table(d))
        ok = ok and np.array_equal(dense_power("csc", d, 6), stencils.csc_z6_table(d))
    _finish(2, "matrix tables", start, 1.0, ok)


def test_c03_geometric_minimizer_certificate():
    start = time.perf_counter()
    constants = mild_scsc_constants()
    ok = True
    for d in (16, 32):
        inst = build_scsc(d, constants)
        quartic = scsc_quartic(inst.lam_coef, inst.tau_coef)
        ok = ok and abs(quartic(inst.r)) <= 1e-10
        ok = ok and scsc_bracket_low(inst.lam_coef, inst.tau_coef) < inst.r < 1.0
        err = np.linalg.norm(inst.x_hat - inst.x_star_dense)
        ok = ok and err <= (7.0 + inst.lam_coef) / inst.tau_coef * inst.r**d
    _finish(3, "geometric-minimizer certificate", start, 5.0, ok)


def test_c04_csc_minimizer_and_floor():
    start = time.perf_counter()
    constants = mild_csc_constants()
    ok = True
    for d in (8, 20):
        inst = build_csc(d, constants, B=1.0)
        grad = np.linalg.norm(exact_hypergradient(inst.oracle, inst.x_star))
        ok = ok and grad <= 1e-9 * np.linalg.norm(inst.b_tilde)
        measured, floor = csc_grad_floor_verify(inst)
        ok = ok and measured >= floor
    _finish(4, "convex-family minimizer and gradient floor", start, 5.0, ok)


def test_c05_support_cap_and_gap_floor():
    start = time.perf_counter()
    constants = mild_scsc_constants()
    budgets = {"K": 10, "Q": 5, "T": 3}
    M = support_cap("scsc", **budgets)
    probe = build_scsc(16, constants)
    d = scsc_feasible_dimension(M, probe.r, probe.lam_coef, probe.tau_coef)
    ok = M == 32 and d <= 256
    inst = build_scsc(d, constants)
    x_final, profile = simulate_on_instance(inst, "baseline_aid_gd", budgets)
    support = verify_support_cap(profile, inst)
    ok = ok and support.checks["coordinates_within_cap"]
    ok = ok and support.span_residual <= 1e-8
    gap = verify_gap_floor(inst, x_final, M)
    ok = ok and gap.gap >= gap.gap_floor > 0.0
    _finish(5, "support cap and suboptimality floor", start, 30.0, ok)


def test_c06_gradient_norm_floor():
    start = time.perf_counter()
    inst = build_csc(20, mild_csc_constants(), B=1.0)
    budgets = {"K": 5, "Q": 1, "T": 3}
    M = support_cap("csc", **budgets)
    ok = M == 10
    x_final, profile = simulate_on_instance(inst, "baseline_aid_gd", budgets)
    ok = ok and verify_support_cap(profile, inst).passed
    ok = ok and verify_grad_floor(inst, x_final, M).passed
    # negative control: the true minimizer defeats the floor
    ok = ok and not verify_grad_floor(inst, inst.x_star, M).passed
    _finish(6, "gradient-norm floor", start, 10.0, ok)


def test_c07_inner_solver_rates():
    start = time.perf_counter()
    ok = True
    # accelerated descent under its contraction envelope at every checked N
    oracle = build_scsc(16, benchmark_scsc_constants(4.0)).oracle
    c = oracle.constants
    rng = np.random.default_rng(0)
    x = rng.standard_normal(16)
    y_star = oracle.y_star(x)
    prefactor = np.sqrt((c.Ltil_y + c.mu_y) / c.mu_y) * np.linalg.norm(y_star)
    for n in range(1, 21):
        y = agd_inner(oracle.grad_y_g_at(x), np.zeros(16), AgdConfig.from_constants(c, n))
        ok = ok and np.linalg.norm(y - y_star) <= prefactor * np.exp(
            -n / (2.0 * np.sqrt(c.kappa_y))
        )
    # heavy-ball asymptotic contraction at condition number 100
    n_dim, mu, lt = 50, 1.0, 100.0
    q, _ = np.linalg.qr(rng.standard_normal((n_dim, n_dim)))
    h = q @ np.diag(np.linspace(mu, lt, n_dim)) @ q.T
    h = 0.5 * (h + h.T)
    rhs = rng.standard_normal(n_dim)
    v_star = np.linalg.solve(h, rhs)
    errors = [
        np.linalg.norm(
            heavy_ball_solve(lambda u: h @ u, rhs, HeavyBallConfig.from_bounds(mu, lt, m))
            - v_star
        )
        for m in range(1, 201)
    ]
    slope = tail_log_slope(np.asarray(errors), window=50)
    target = np.log(9.0 / 11.0)
    ok = ok and abs(slope - target) <= 0.10 * abs(target)
    _finish(7, "inner-solver rates", start, 10.0, ok)


def test_c08_hypergradient_error_bound():
    start = time.perf_counter()
    inst = build_scsc(32, benchmark_scsc_constants(4.0))
    oracle = inst.oracle
    c = oracle.constants
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(5):
        x = rng.standard_normal(32)
        g_exact = exact_hypergradient(oracle, x)
        for n in (5, 10, 20, 40):
            for m in (5, 10, 20, 40):
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
                ok = ok and np.linalg.norm(est.G - g_exact) <= bound
    # implicit and unrolled estimators agree at large matched budgets
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
        ok = ok and np.linalg.norm(g_aid - g_itd) <= 1e-6 * scale
    _finish(8, "hypergradient error bound", start, 30.0, ok)


def test_c09_accelerated_rate():
    start = time.perf_counter()
    inst = build_scsc(32, benchmark_scsc_constants(4.0))
    oracle = inst.oracle
    c = oracle.constants
    eps = 1e-6
    l_phi = l_phi_estimate(c)
    kappa_x = l_phi / c.mu_x
    cfg = AccBiOConfig(
        K=60,
        L_phi=l_phi,
        mu_x=c.mu_x,
        agd=AgdConfig.from_constants(c, 80),
        hb=HeavyBallConfig.from_constants(c, 80),
        eps=eps,
    )
    trace = accbio(oracle, cfg)
    gap0 = trace.records[0].phi_gap
    envelope = (1.0 - 1.0 / np.sqrt(kappa_x)) ** 60 * (
        gap0 + 0.5 * c.mu_x * np.linalg.norm(oracle.x_star) ** 2
    ) + eps / 2.0
    ok = trace.final.phi_gap <= envelope
    # decay slope of log(gap - eps/2)+ over k in [15, 60]: at least 85% of the
    # certified per-iteration rate (the exact method may beat the envelope,
    # so the check is one-sided)
    ks, logs = [], []
    for rec in trace.records:
        if 15 <= rec.k <= 60 and rec.phi_gap is not None and rec.phi_gap - eps / 2 > 0:
            ks.append(rec.k)
            logs.append(np.log(rec.phi_gap - eps / 2))
    ok = ok and len(ks) >= 6
    slope = np.polyfit(ks, logs, 1)[0]
    theory = np.log(1.0 - 1.0 / np.sqrt(kappa_x))
    ok = ok and slope <= 0.85 * theory
    _finish(9, "accelerated outer rate", start, 60.0, ok)


def test_c10_warm_start_scaling():
    start = time.perf_counter()
    eps = 1e-4
    kappas = [1.0, 4.0, 16.0, 64.0]
    complexities = []
    ok = True
    for kappa_y in kappas:
        c = benchmark_scsc_constants(kappa_y)
        oracle = build_scsc_benchmark(32, c, initial_gap=1.0)
        l_phi = l_phi_estimate(c)
        n = int(np.ceil(2.0 * np.sqrt(c.kappa_y) * np.log(100.0 * np.sqrt(l_phi / c.mu_x) / eps)))
        cfg = AccBiOBGConfig(
            K=600,
            alpha=1.0 / (2.0 * l_phi),
            mu_x=c.mu_x,
            agd=AgdConfig.from_constants(c, n),
            hb=HeavyBallConfig.from_constants(c, n),
            U=10.0,
        )
        trace = accbio_bg(oracle, cfg)
        crossing = trace.first_crossing(eps)
        ok = ok and crossing is not None
        complexities.append(np.nan if crossing is None else crossing.complexity)
    if ok:
        slope = np.polyfit(np.log(kappas), np.log(complexities), 1)[0]
        ok = 0.25 <= slope <= 1.0
    _finish(10, "warm-start complexity scaling", start, 300.0, ok)


def test_c11_convex_wrappers():
    start = time.perf_counter()
    B, eps = 2.0, 1e-3
    base = build_csc(20, mild_csc_constants(), B=B).oracle
    phi_star = base.phi_star
    ok = True

    def run_wrapped(R, eps_thm):
        wrapped = regularize_convex(base, eps, R)
        c = wrapped.constants
        l_phi = l_phi_estimate(c)
        kappa_x = l_phi / c.mu_x
        gap0 = wrapped.phi(np.zeros(20)) - wrapped.phi_star
        scale = gap0 + 0.5 * c.mu_x * np.linalg.norm(wrapped.x_star) ** 2
        K = int(np.ceil(np.sqrt(kappa_x) * np.log(max(scale, 1e-12) * 4.0 / eps_thm))) + 20
        n = int(np.ceil(2.0 * np.sqrt(c.kappa_y) * np.log(100.0 * np.sqrt(kappa_x) / eps_thm)))
        cfg = AccBiOConfig(
            K=K,
            L_phi=l_phi,
            mu_x=c.mu_x,
            agd=AgdConfig.from_constants(c, n),
            hb=HeavyBallConfig.from_constants(c, n),
            eps=eps_thm,
        )
        return accbio(wrapped, cfg), l_phi

    # suboptimality clause: ridge eps/B^2, target eps/2 inside the solver
    trace, _ = run_wrapped(B**2, eps / 2.0)
    final_gap = base.phi(trace.final_point) - phi_star
    ok = ok and final_gap <= eps
    # gradient-norm clause: ridge eps/B, tighter inner target
    l_phi_grad = l_phi_estimate(regularize_convex(base, eps, B).constants)
    eps_thm = eps**2 / (4.0 * l_phi_grad + 8.0 * eps / B)
    trace, _ = run_wrapped(B, eps_thm)
    grad_norm = np.linalg.norm(exact_hypergradient(base, trace.final_point))
    ok = ok and grad_norm <= 5.0 * eps
    _finish(11, "convex-to-strongly-convex wrappers", start, 120.0, ok)


def test_c12_complexity_accounting():
    start = time.perf_counter()
    inst = build_scsc(32, benchmark_scsc_constants(4.0))
    c = inst.constants
    rng = np.random.default_rng(7)
    x = rng.standard_normal(32)
    ok = True
    for n in (5, 10, 20, 40):
        for m in (5, 10, 20, 40):
            oracle, counters = counted(inst.oracle)
            aid_estimate(
                oracle,
                x,
                np.zeros(32),
                AgdConfig.from_constants(c, n),
                HeavyBallConfig.from_constants(c, m),
            )
            ok = ok and (counters.n_G, counters.n_H, counters.n_J) == (n + 2, m, 1)
    for n in (5, 20):
        oracle, counters = counted(inst.oracle)
        itd_estimate(oracle, x, np.zeros(32), N=n, eta=1.0 / c.Ltil_y)
        ok = ok and (counters.n_G, counters.n_H, counters.n_J) == (n + 2, n, n)
    for tau in (1.0, 2.0, 5.0):
        tallies = OracleCounters(n_G=17, n_J=3, n_H=11, tau_cost=tau)
        ok = ok and tallies.complexity() == tau * (3 + 11) + 17
    _finish(12, "complexity accounting", start, 1.0, ok)
