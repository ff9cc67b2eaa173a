import json

import numpy as np
import pytest

from bilevel_lab import build_csc, build_scsc, scsc_feasible_dimension
from bilevel_lab.cli import run_solver
from bilevel_lab.errors import InfeasibleDimensionError, InvariantViolationError
from bilevel_lab.span_lab import (
    SIMULATOR_ALGORITHMS,
    SupportProfile,
    active_index,
    simulate_on_instance,
    span_head,
    span_projection_residual,
    support_cap,
    verify_gap_floor,
    verify_grad_floor,
    verify_support_cap,
)

BUDGETS = {"K": 10, "Q": 5, "T": 3}
BATTERY_BUDGETS = {"K": 60, "Q": 10, "T": 5}  # the scaled battery's run budgets


def feasible_instance(constants, budgets):
    probe = build_scsc(16, constants)
    m = support_cap("scsc", **budgets)
    d = scsc_feasible_dimension(m, probe.r, probe.lam_coef, probe.tau_coef)
    return build_scsc(d, constants)


@pytest.fixture(scope="module")
def scsc_run_instance(mild_constants):
    return feasible_instance(mild_constants, BUDGETS)


@pytest.fixture(scope="module")
def battery_run_instance(mild_constants):
    return feasible_instance(mild_constants, BATTERY_BUDGETS)


def chain_basis(instance, M):
    """Reference: the full d x (M+1) basis Z^(2j) Z b, j = 0..M."""
    z = instance.z
    cols = [z.apply(instance.b)]
    for _ in range(M):
        cols.append(z.apply_power(cols[-1], 2))
    return np.column_stack(cols)


def full_basis_residual(instance, x, M):
    """Reference: relative distance of x to the span, by a QR of the full basis."""
    basis = chain_basis(instance, M)
    q, _ = np.linalg.qr(basis / np.linalg.norm(basis, axis=0, keepdims=True))
    return float(np.linalg.norm(x - q @ (q.T @ x))) / float(np.linalg.norm(x))


class TestSupportBookkeeping:
    def test_zero_vector_has_support_zero(self):
        assert active_index(np.zeros(8)) == 0

    def test_noop_script_keeps_origin(self, scsc_run_instance):
        x, profile = simulate_on_instance(
            scsc_run_instance, lambda oracle, d, budgets: np.zeros(d), BUDGETS
        )
        assert np.array_equal(x, np.zeros(scsc_run_instance.d))
        assert profile.max_x_index == 0

    def test_first_y_update_has_support_of_b(self, scsc_run_instance):
        _, profile = simulate_on_instance(scsc_run_instance, "baseline_aid_gd", BUDGETS)
        assert profile.y_support[0] == active_index(scsc_run_instance.b)

    def test_support_caps_formulas(self):
        assert support_cap("scsc", 10, 5, 3) == 32
        assert support_cap("csc", 10, 5, 3) == 23

    def test_per_update_growth_bounded_by_chain_budget(self, scsc_run_instance):
        # each x-update embeds at most n_inner + T + 1 squared-operator events
        _, profile = simulate_on_instance(scsc_run_instance, "baseline_aid_gd", BUDGETS)
        n_inner = BUDGETS["K"] // BUDGETS["Q"] - 1
        steps = profile.x_support
        increments = [b - a for a, b in zip(steps, steps[1:])]
        assert all(inc <= n_inner + BUDGETS["T"] + 1 for inc in increments)

    def test_cumulative_support_nondecreasing(self, scsc_run_instance):
        _, profile = simulate_on_instance(scsc_run_instance, "accbio", BUDGETS)
        assert all(b >= a for a, b in zip(profile.x_support, profile.x_support[1:]))
        assert all(b >= a for a, b in zip(profile.y_support, profile.y_support[1:]))


class TestBudgetMapping:
    def test_counters_match_accounting(self, scsc_run_instance):
        _, profile = simulate_on_instance(scsc_run_instance, "baseline_aid_gd", BUDGETS)
        counters = profile.mapping["counters"]
        n_inner = BUDGETS["K"] // BUDGETS["Q"] - 1
        assert counters["n_G"] == BUDGETS["Q"] * (n_inner + 2)
        assert counters["n_H"] == BUDGETS["Q"] * BUDGETS["T"]
        assert counters["n_J"] == BUDGETS["Q"]

    def test_rejects_nonuniform_schedule(self, scsc_run_instance):
        with pytest.raises(InvariantViolationError):
            simulate_on_instance(scsc_run_instance, "baseline_aid_gd", {"K": 11, "Q": 5, "T": 3})
        with pytest.raises(InvariantViolationError):
            simulate_on_instance(scsc_run_instance, "baseline_aid_gd", {"K": 5, "Q": 5, "T": 3})

    @pytest.mark.parametrize("algorithm", ["accbio", "accbio_bg"])
    def test_accelerated_rules_need_strong_convexity(self, csc20, algorithm):
        # the convex family has mu_x = 0: no momentum or step is defined there
        assert csc20.constants.mu_x == 0.0
        with pytest.raises(InvariantViolationError, match="mu_x"):
            simulate_on_instance(csc20, algorithm, {"K": 4, "Q": 2, "T": 3})

    def test_rejects_infeasible_dimension(self, mild_constants):
        small = build_scsc(16, mild_constants)
        with pytest.raises(InfeasibleDimensionError) as err:
            simulate_on_instance(small, "baseline_aid_gd", BUDGETS)
        assert err.value.required_dim > 16


class TestSupportCap:
    @pytest.mark.parametrize("algorithm", SIMULATOR_ALGORITHMS)
    def test_all_algorithms_within_cap(self, scsc_run_instance, algorithm):
        _, profile = simulate_on_instance(scsc_run_instance, algorithm, BUDGETS)
        report = verify_support_cap(profile, scsc_run_instance)
        assert report.passed
        assert report.observed_max_index <= report.predicted_support_cap
        assert report.span_residual <= 1e-8

    def test_zb_is_in_span_with_small_support(self, scsc_run_instance):
        zb = scsc_run_instance.z.apply(scsc_run_instance.b)
        assert active_index(zb) <= 2
        assert span_projection_residual(scsc_run_instance, zb, 32) <= 1e-12

    def test_out_of_span_mass_fails(self, scsc_run_instance):
        d = scsc_run_instance.d
        m = support_cap("scsc", **BUDGETS)
        # unit mass at coordinate M + 5, and at M + 2: the chain's M + 1
        # columns end at coordinate M + 2, so a tail norm beyond it reads 0
        # there although the vector is far from their span
        for index in (m + 4, m + 1):
            bad = np.zeros(d)
            bad[index] = 1.0
            profile = SupportProfile(budgets=dict(BUDGETS))
            profile.observe_x(bad)
            profile.final_x = bad
            report = verify_support_cap(profile, scsc_run_instance)
            assert not report.passed
            assert not report.checks["coordinates_within_cap"]
            assert not report.checks["span_projection"]

    def test_accbio_iterate_in_span_at_battery_budgets(self, battery_run_instance):
        _, profile = simulate_on_instance(battery_run_instance, "accbio", BATTERY_BUDGETS)
        report = verify_support_cap(profile, battery_run_instance)
        assert battery_run_instance.d == 245 and report.predicted_support_cap == 122
        assert report.span_residual <= 1e-8
        assert report.passed

    def test_unit_vector_inside_cap_is_in_span(self, battery_run_instance):
        # every chain direction counts, however small its share of the
        # normalized basis's spectrum: e at coordinate M//2 is in the span
        m = support_cap("scsc", **BATTERY_BUDGETS)
        e = np.zeros(battery_run_instance.d)
        e[m // 2] = 1.0
        assert span_projection_residual(battery_run_instance, e, m) <= 1e-8


class TestRunParity:
    """`run` and the simulator drive each algorithm the same way at equal budgets."""

    @pytest.mark.parametrize("algorithm", SIMULATOR_ALGORITHMS)
    def test_run_solver_matches_simulator(self, battery_run_instance, algorithm):
        K, Q, T = BATTERY_BUDGETS["K"], BATTERY_BUDGETS["Q"], BATTERY_BUDGETS["T"]
        solver = {"algorithm": algorithm, "K": Q, "N": K // Q - 1, "M": T, "U": 1.0}
        trace, _ = run_solver(battery_run_instance.oracle, solver, 2.0)
        x_final, profile = simulate_on_instance(battery_run_instance, algorithm, BATTERY_BUDGETS)
        assert np.array_equal(trace.final_point, x_final)
        final, counters = trace.final, profile.mapping["counters"]
        assert (final.n_G, final.n_J, final.n_H) == (
            counters["n_G"], counters["n_J"], counters["n_H"]
        )


class TestSpanHead:
    """The span check on the chain's support agrees with the full-basis QR."""

    CSC_BUDGETS = {"K": 40, "Q": 10, "T": 3}  # the scaled battery's csc budgets

    @pytest.fixture(scope="class")
    def csc_run_instance(self, csc_constants):
        return build_csc(512, csc_constants, B=1.0)

    def _cases(self, request, kind):
        if kind == "scsc":
            return request.getfixturevalue("battery_run_instance"), BATTERY_BUDGETS
        return request.getfixturevalue("csc_run_instance"), self.CSC_BUDGETS

    @pytest.mark.parametrize("kind", ["scsc", "csc"])
    def test_head_is_read_off_the_columns(self, request, kind):
        instance, budgets = self._cases(request, kind)
        m = support_cap(kind, **budgets)
        full = chain_basis(instance, m)
        rows = 1 + int(np.flatnonzero(np.any(full != 0.0, axis=1))[-1])
        head = span_head(instance, m)
        assert head.shape == (rows, m + 1) and rows < instance.d
        assert rows == m + (2 if kind == "scsc" else 3)
        assert np.array_equal(head, full[:rows])

    def test_head_follows_a_shifted_b_tilde(self, mild_constants):
        # the btilde3 shift puts mass on b_tilde's third entry, so every
        # column reaches one coordinate further than in the clean build
        clean = feasible_instance(mild_constants, BUDGETS)
        d = clean.d
        shifted = build_scsc(d, mild_constants, btilde_shift=0.1 * (np.arange(d) == 2))
        m = support_cap("scsc", **BUDGETS)
        assert span_head(shifted, m).shape[0] == span_head(clean, m).shape[0] + 1
        x = chain_basis(shifted, m) @ np.full(m + 1, 1e-3)
        assert span_projection_residual(shifted, x, m) <= 1e-8

    @pytest.mark.parametrize("kind", ["scsc", "csc"])
    def test_residual_matches_full_basis_qr(self, request, kind):
        instance, budgets = self._cases(request, kind)
        m = support_cap(kind, **budgets)
        # verify-lb runs only baseline_aid_gd on the convex family (mu_x = 0)
        algorithm = "accbio" if kind == "scsc" else "baseline_aid_gd"
        x_final, _ = simulate_on_instance(instance, algorithm, budgets)
        chain = chain_basis(instance, m)[:, m // 2]
        tail = np.zeros(instance.d)
        tail[3], tail[m + 5] = 1.0, 1.0
        for x in (x_final, chain, tail):
            fast, ref = span_projection_residual(instance, x, m), full_basis_residual(instance, x, m)
            assert fast == pytest.approx(ref, rel=1e-9, abs=1e-15)
        assert span_projection_residual(instance, tail, m) == pytest.approx(np.sqrt(0.5))


class TestFloors:
    def test_gap_floor_holds_uniformly_across_algorithms(self, scsc_run_instance):
        m = support_cap("scsc", **BUDGETS)
        for algorithm in SIMULATOR_ALGORITHMS:
            x_final, _ = simulate_on_instance(scsc_run_instance, algorithm, BUDGETS)
            report = verify_gap_floor(scsc_run_instance, x_final, m)
            assert report.passed
            assert report.gap >= report.gap_floor > 0.0

    def test_minimizer_defeats_gap_floor(self, scsc_run_instance):
        m = support_cap("scsc", **BUDGETS)
        report = verify_gap_floor(scsc_run_instance, scsc_run_instance.x_star_dense, m)
        assert not report.passed

    def test_grad_floor_run_and_controls(self, csc20):
        budgets = {"K": 5, "Q": 1, "T": 3}
        m = support_cap("csc", **budgets)
        assert m == 10
        x_final, profile = simulate_on_instance(csc20, "baseline_aid_gd", budgets)
        support = verify_support_cap(profile, csc20)
        assert support.passed
        report = verify_grad_floor(csc20, x_final, m)
        assert report.passed
        # starting point: the gradient at the origin also clears the floor
        zero_report = verify_grad_floor(csc20, np.zeros(csc20.d), m)
        assert zero_report.passed
        # the true minimizer (support violation aside) defeats the floor
        neg = verify_grad_floor(csc20, csc20.x_star, m)
        assert not neg.passed

    def test_grad_floor_requires_small_budget(self, csc20):
        with pytest.raises(InvariantViolationError):
            verify_grad_floor(csc20, np.zeros(csc20.d), csc20.d - 2)


class TestCustomScripts:
    def test_span_legal_script_passes(self, scsc_run_instance):
        d = scsc_run_instance.d

        def one_step(oracle, dim, budgets):
            x0, y0 = np.zeros(dim), np.zeros(dim)
            y = y0 - 0.5 * oracle.grad_y_g(x0, y0)
            rhs = oracle.grad_y_f(x0, y)
            v = rhs - 0.3 * oracle.hess_y_g_vec(x0, y, rhs)
            return -0.1 * (oracle.grad_x_f(x0, y) - oracle.jac_xy_g_vec(x0, y, v))

        x_final, profile = simulate_on_instance(scsc_run_instance, one_step, BUDGETS)
        report = verify_support_cap(profile, scsc_run_instance)
        assert report.passed

    def test_scripts_only_see_the_query_surface(self, scsc_run_instance):
        seen = {}

        def probe(oracle, dim, budgets):
            seen["has_exact"] = hasattr(oracle, "y_star") or hasattr(oracle, "phi")
            seen["has_queries"] = all(
                hasattr(oracle, name)
                for name in ("grad_x_f", "grad_y_f", "grad_y_g", "hess_y_g_vec", "jac_xy_g_vec")
            )
            return np.zeros(dim)

        simulate_on_instance(scsc_run_instance, probe, BUDGETS)
        assert seen["has_queries"] and not seen["has_exact"]

    def test_cheating_script_is_caught(self, scsc_run_instance):
        d = scsc_run_instance.d
        m = support_cap("scsc", **BUDGETS)

        def cheat(oracle, dim, budgets):
            x = np.zeros(dim)
            x[dim - 1] = 1.0  # coordinate unreachable within the budget
            return x

        _, profile = simulate_on_instance(scsc_run_instance, cheat, BUDGETS)
        report = verify_support_cap(profile, scsc_run_instance)
        assert not report.passed


class TestReportSerialization:
    def test_json_round_trip(self, scsc_run_instance):
        x_final, profile = simulate_on_instance(
            scsc_run_instance, "baseline_aid_gd", BUDGETS
        )
        report = verify_support_cap(profile, scsc_run_instance)
        doc = json.loads(report.to_json())
        assert doc["passed"] == report.passed
        assert doc["predicted_support_cap"] == report.predicted_support_cap
        assert doc["budgets"] == BUDGETS
        assert set(doc["checks"]) == set(report.checks)
