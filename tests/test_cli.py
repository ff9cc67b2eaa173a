import csv
import json

import numpy as np

from bilevel_lab import hard_instances, span_lab
from bilevel_lab.cli import main


def write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def minimal_run_config(out_dir, K=10):
    return {
        "seed": 3,
        "output_dir": str(out_dir),
        "instance": {"kind": "decoupled", "d": 6},
        "solver": {"algorithm": "accbio", "K": K, "N": 4, "M": 4, "eps": 1e-8},
    }


class TestRunVerb:
    def test_minimal_run_row_count(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", minimal_run_config(tmp_path / "out"))
        assert main(["run", cfg]) == 0
        lines = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == 12  # header + initial record + 10 iterations

    def test_benchmark_run_reaches_target(self, tmp_path):
        doc = {
            "seed": 4,
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "scsc", "preset": "benchmark", "d": 32},
            "solver": {"algorithm": "accbio", "K": 80, "eps": 1e-5},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["run", cfg]) == 0
        last = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()[-1]
        assert float(last.split(",")[1]) <= 1e-5

    def test_artifacts_present_and_metadata_resolved(self, tmp_path):
        doc = {
            "seed": 5,
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "scsc", "preset": "mild", "d": 16},
            "solver": {"algorithm": "accbio", "K": 3, "eps": 1e-4},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["run", cfg]) == 0
        for name in ("trace.csv", "instance.json", "resolved_config.json", "summary.csv"):
            assert (tmp_path / "out" / name).exists()
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        solver = resolved["solver_resolved"]
        # auto-derived budgets and constants are echoed resolved
        assert isinstance(solver["N"], int) and solver["N"] >= 1
        assert isinstance(solver["M"], int) and solver["M"] >= 1
        assert solver["L_phi"] > 0
        assert resolved["seed"] == 5

    def test_determinism_byte_identical(self, tmp_path):
        cfg_doc = minimal_run_config(tmp_path / "out_a")
        cfg = write_config(tmp_path / "c.json", cfg_doc)
        assert main(["run", cfg]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "out_b")]) == 0
        for name in ("trace.csv", "summary.csv", "instance.json"):
            a = (tmp_path / "out_a" / name).read_bytes()
            b = (tmp_path / "out_b" / name).read_bytes()
            assert a == b

    def test_tau_cost_flag_scales_complexity(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", minimal_run_config(tmp_path / "out1", K=2))
        main(["run", cfg])
        main(["run", cfg, "--out", str(tmp_path / "out5"), "--tau-cost", "5"])
        last1 = (tmp_path / "out1" / "trace.csv").read_text().strip().splitlines()[-1]
        last5 = (tmp_path / "out5" / "trace.csv").read_text().strip().splitlines()[-1]
        c1, c5 = float(last1.split(",")[-1]), float(last5.split(",")[-1])
        n_g, n_j, n_h = (int(v) for v in last1.split(",")[4:7])
        assert c1 == 2 * (n_j + n_h) + n_g
        assert c5 == 5 * (n_j + n_h) + n_g

    def test_config_errors_exit_one(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 1
        no_solver = write_config(
            tmp_path / "ns.json",
            {"output_dir": str(tmp_path / "o"), "instance": {"kind": "decoupled", "d": 4}},
        )
        assert main(["run", no_solver]) == 1
        unknown_kind = write_config(
            tmp_path / "uk.json",
            {
                "output_dir": str(tmp_path / "o"),
                "instance": {"kind": "mystery", "d": 4},
                "solver": {"algorithm": "accbio", "K": 1},
            },
        )
        assert main(["run", unknown_kind]) == 1

    def test_divergence_exits_two_with_partial_trace(self, tmp_path):
        doc = {
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "scsc", "preset": "benchmark", "d": 16},
            "solver": {
                "algorithm": "baseline-gd",
                "K": 400,
                "N": 2,
                "M": 2,
                "eps": 1e-6,
                "stepsize": 50.0,
            },
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["run", cfg]) == 2
        assert (tmp_path / "out" / "trace.csv").exists()


class TestSweepVerb:
    def test_single_point_matches_run(self, tmp_path):
        base = {
            "seed": 11,
            "instance": {"kind": "scsc-benchmark", "d": 12, "preset": "benchmark"},
            "solver": {"algorithm": "accbio", "K": 20, "eps": 1e-4},
        }
        run_cfg = write_config(
            tmp_path / "run.json", {**base, "output_dir": str(tmp_path / "run_out")}
        )
        sweep_cfg = write_config(
            tmp_path / "sweep.json",
            {
                **base,
                "output_dir": str(tmp_path / "sweep_out"),
                "sweep": {"axis": "kappa_y", "values": [4.0]},
            },
        )
        assert main(["run", run_cfg]) == 0
        assert main(["sweep", sweep_cfg]) == 0
        a = (tmp_path / "run_out" / "trace.csv").read_bytes()
        b = (tmp_path / "sweep_out" / "point_00" / "trace.csv").read_bytes()
        assert a == b

    def test_summary_format_and_slope(self, tmp_path):
        doc = {
            "seed": 11,
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "scsc-benchmark", "d": 12, "preset": "benchmark"},
            "solver": {"algorithm": "accbio", "K": 40, "eps": 1e-4},
            "sweep": {"axis": "kappa_y", "values": [1.0, 4.0]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", cfg, "--jobs", "2"]) == 0
        lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "axis_value,complexity_to_eps,final_gap"
        assert len(lines) == 3
        meta = json.loads((tmp_path / "out" / "sweep_meta.json").read_text())
        assert "loglog_slope" in meta

    def test_eps_sweep_complexity_grows_logarithmically(self, tmp_path):
        # fixed inner budgets isolate the outer iteration count: complexity to
        # target then grows like log(1/eps), linear on the log axis within 25%
        doc = {
            "seed": 2,
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "scsc", "preset": "benchmark", "d": 32},
            "solver": {"algorithm": "accbio", "K": 200, "N": 60, "M": 60, "eps": 1e-2},
            "sweep": {"axis": "eps", "values": [1e-2, 1e-3, 1e-4]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", cfg]) == 0
        lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()[1:]
        eps_vals, comps = [], []
        for line in lines:
            eps_str, comp_str, _ = line.split(",")
            assert comp_str != ""  # every point reached its target
            eps_vals.append(float(eps_str))
            comps.append(float(comp_str))
        logs = [float(np.log(1.0 / e)) for e in eps_vals]
        coeffs = np.polyfit(logs, comps, 1)
        fitted = np.polyval(coeffs, logs)
        rel_dev = np.max(np.abs(fitted - comps) / np.abs(comps))
        assert coeffs[0] > 0.0
        assert rel_dev <= 0.25

    def test_empty_grid_is_config_error(self, tmp_path):
        doc = {
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "decoupled", "d": 4},
            "solver": {"algorithm": "accbio", "K": 2},
            "sweep": {"axis": "eps", "values": []},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", cfg]) == 1

    def test_partial_failure_marks_point_but_exits_zero(self, tmp_path):
        # d = 3 is below the instance minimum: that point is marked failed in
        # the summary while the healthy point keeps the sweep's exit at 0
        doc = {
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "scsc", "preset": "mild", "d": 16},
            "solver": {"algorithm": "accbio", "K": 30, "N": 20, "M": 20, "eps": 1e-3},
            "sweep": {"axis": "d", "values": [3, 16]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", cfg]) == 0
        lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert lines[1].split(",")[1] == ""  # failed point: no complexity
        assert lines[2].split(",")[1] != ""

    def test_all_points_failing_exits_nonzero(self, tmp_path):
        doc = {
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "scsc", "preset": "mild", "d": 16},
            "solver": {"algorithm": "accbio", "K": 5, "N": 5, "M": 5, "eps": 1e-3},
            "sweep": {"axis": "d", "values": [2, 3]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", cfg]) == 2


def battery_config(out_dir, scsc_dims=(16,), algorithms=("baseline_aid_gd",), corruption=None):
    instance = {"kind": "scsc", "preset": "mild"}
    if corruption is not None:
        instance["corruption"] = corruption
    return {
        "seed": 1,
        "output_dir": str(out_dir),
        "instance": instance,
        "lower_bound": {
            "budgets": {"K": 10, "Q": 5, "T": 3},
            "scsc_dims": list(scsc_dims),
            "csc_d": 12,
            "csc_budgets": {"K": 4, "Q": 2, "T": 2},
            "algorithms": list(algorithms),
        },
    }


class TestVerifyLbVerb:
    def test_mild_battery_passes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", battery_config(tmp_path / "out"))
        assert main(["verify-lb", cfg]) == 0
        report = json.loads((tmp_path / "out" / "lower_bound_report.json").read_text())
        assert report["passed"] is True
        assert report["failed_items"] == []

    def test_corrupted_instance_fails_certificate(self, tmp_path):
        doc = battery_config(tmp_path / "out", corruption="btilde3")
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["verify-lb", cfg]) == 3
        report = json.loads((tmp_path / "out" / "lower_bound_report.json").read_text())
        assert any("geometric_minimizer" in item for item in report["failed_items"])

    def test_each_listed_dimension_is_built_once(self, tmp_path, monkeypatch):
        built = []
        build_scsc = hard_instances.build_scsc

        def spy(d, *args, **kwargs):
            built.append(d)
            return build_scsc(d, *args, **kwargs)

        monkeypatch.setattr(hard_instances, "build_scsc", spy)
        doc = battery_config(tmp_path / "out", scsc_dims=(16, 32))
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["verify-lb", cfg]) == 0
        assert {16, 32} <= set(built)
        assert len(built) == len(set(built))

    def test_tau_cost_override_reaches_every_counter(self, tmp_path, monkeypatch):
        tau_costs = []
        counted = span_lab.counted

        def spy(oracle, tau_cost=2.0):
            metered, counters = counted(oracle, tau_cost)
            tau_costs.append(counters.tau_cost)
            return metered, counters

        monkeypatch.setattr(span_lab, "counted", spy)
        doc = battery_config(tmp_path / "out", algorithms=("baseline_aid_gd", "accbio"))
        cfg = write_config(tmp_path / "c.json", doc)
        main(["verify-lb", cfg, "--tau-cost", "3"])
        assert len(tau_costs) == 3  # two scsc algorithms and the csc run
        assert all(t == 3.0 for t in tau_costs)


class TestReportVerb:
    def test_report_over_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", minimal_run_config(tmp_path / "out"))
        main(["run", cfg])
        # a trace with a column the report does not read, placed before complexity
        extra = tmp_path / "extra" / "trace.csv"
        extra.parent.mkdir()
        extra.write_text(
            "k,phi_gap,grad_norm,hypergrad_error,n_G,n_J,n_H,stage_s,complexity\n"
            "0,0.5,1.0,,0,0,0,9.5,0.0\n"
            "1,0.25,0.5,0.125,4,1,1,9.5,8.0\n"
        )
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "artifact,rows,final_phi_gap,complexity" in out
        with open(tmp_path / "out" / "trace.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[1:] == [
            "extra/trace.csv,2,0.25,8.0",
            f"out/trace.csv,11,{last['phi_gap']},{last['complexity']}",
        ]

    def test_missing_directory_is_config_error(self, tmp_path):
        assert main(["report", str(tmp_path / "nope")]) == 1
