import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from bilevel_lab import cli, hard_instances, linalg, span_lab
from bilevel_lab.cli import main, resolve


def write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# one run per instance kind, each built from polynomials in Z; the dimension
# is set by each test
Z_FAMILY_RUNS = [
    ({"kind": "scsc", "preset": "benchmark"}, {}),
    ({"kind": "scsc-benchmark", "preset": "benchmark", "initial_gap": 1.0}, {}),
    ({"kind": "csc", "preset": "mild-csc"}, {"regularize": {"eps": 0.01, "R": 2.0}}),
    ({"kind": "decoupled"}, {}),
]
Z_FAMILY_IDS = ["scsc", "scsc-benchmark", "csc-regularized", "decoupled"]


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

    def test_main_calls_parse_independently(self, tmp_path):
        """The parser is built once, and each main call parses its own verb and flags.

        A --seed and --tau-cost given to a sweep do not reach the run after it.
        """
        assert cli.make_parser() is cli.make_parser()
        doc = minimal_run_config(tmp_path / "unused", K=4)
        doc["sweep"] = {"axis": "d", "values": [4, 6]}
        sweep = ["sweep", write_config(tmp_path / "s.json", doc), "--out", str(tmp_path / "s")]
        assert main(sweep + ["--seed", "7", "--tau-cost", "3"]) == 0
        run = ["run", write_config(tmp_path / "r.json", minimal_run_config(tmp_path / "unused"))]
        assert main(run + ["--out", str(tmp_path / "r")]) == 0
        for out, seed, tau_cost in (("s/point_00", 7, 3.0), ("r", 3, 2.0)):
            resolved = json.loads((tmp_path / out / "resolved_config.json").read_text())
            assert (resolved["seed"], resolved["solver_resolved"]["tau_cost"]) == (seed, tau_cost)

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

    @pytest.mark.parametrize(
        "spellings", [("accbio-bg", "accbio_bg"), ("baseline-gd", "baseline_aid_gd")]
    )
    def test_each_spelling_runs_the_same_solver(self, tmp_path, spellings):
        traces = []
        for spelling in spellings:
            doc = minimal_run_config(tmp_path / spelling, K=3)
            doc["solver"].update(algorithm=spelling, U=1.0)
            assert main(["run", write_config(tmp_path / f"{spelling}.json", doc)]) == 0
            text = (tmp_path / spelling / "resolved_config.json").read_text()
            assert json.loads(text)["solver_resolved"]["algorithm"] == spelling  # as given
            traces.append((tmp_path / spelling / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

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

    @pytest.mark.parametrize(
        "block,key,value",
        [
            ("solver", "K", "ten"),
            ("solver", "K", 0),
            ("solver", "K", 2.5),
            ("solver", "K", True),
            ("solver", "N", "many"),
            ("solver", "N", 0),
            ("solver", "M", -3),
            ("solver", "M", "4"),
            ("instance", "d", "six"),
            ("instance", "d", 6.5),
            (None, "seed", "x"),
            ("instance", "d", 0),
            (None, "seed", -1),
        ],
    )
    def test_bad_integer_field_is_config_error(self, tmp_path, capsys, block, key, value):
        doc = minimal_run_config(tmp_path / "out")
        (doc if block is None else doc[block])[key] = value
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key in err and "Traceback" not in err

    def test_integral_float_fields_are_accepted(self, tmp_path):
        doc = minimal_run_config(tmp_path / "out", K=3.0)
        doc["solver"]["N"] = 4.0
        doc["instance"]["d"] = 6.0
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["run", cfg]) == 0
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert resolved["solver_resolved"]["K"] == 3 and resolved["solver_resolved"]["N"] == 4
        assert resolved["instance"]["d"] == 6

    @pytest.mark.parametrize("kind,preset", [("scsc", "mild"), ("csc", "mild-csc")])
    def test_corrupted_instance_is_built_once(self, tmp_path, monkeypatch, kind, preset):
        built = []
        build = getattr(hard_instances, f"build_{kind}")

        def spy(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(hard_instances, f"build_{kind}", spy)
        doc = {
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": kind, "preset": preset, "d": 16, "corruption": "btilde3"},
            "solver": {"algorithm": "accbio", "K": 3, "N": 4, "M": 4, "eps": 1e-3,
                       "regularize": {"eps": 0.01, "R": 2.0}},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["run", cfg]) == 0
        assert len(built) == 1
        inst = built[0]
        clean = build(16, inst.constants, *([inst.B] if kind == "csc" else []))
        expected = clean.b_tilde.copy()
        expected[2] += 0.1
        assert np.array_equal(inst.b_tilde, expected)

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


    @pytest.mark.parametrize(
        "instance",
        [
            {"kind": "scsc", "preset": "benchmark", "d": 3},
            {"kind": "csc", "preset": "mild-csc", "d": 3},
            {"kind": "scsc", "preset": "benchmark", "kappa_y": -1, "d": 16},
            {"kind": "scsc-benchmark", "preset": "benchmark", "kappa_y": "x", "d": 16},
            {"kind": "scsc", "preset": "mild", "constants": {"mu_x": 0.0}, "d": 16},
        ],
        ids=["scsc-d3", "csc-d3", "kappa-negative", "kappa-not-a-number", "scsc-mu_x-zero"],
    )
    def test_invalid_instance_is_config_error(self, tmp_path, capsys, instance):
        doc = minimal_run_config(tmp_path / "out", K=2)
        doc["instance"] = instance
        doc["solver"]["regularize"] = {"eps": 0.01, "R": 2.0}
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind,constants",
        [
            ("scsc", {"mu_y": 1e-300}),
            ("csc", {"mu_y": 1e-300}),
            ("scsc-benchmark", {"mu_y": 1e-300}),
            ("scsc-benchmark", {"Ltil_xy": 1e-300}),
            ("scsc", {"Ltil_xy": 1e300}),
            ("csc", {"Ltil_xy": 1e300}),
            ("scsc-benchmark", {"Ltil_xy": 1e300}),
            ("csc", {"Ltil_y": 1e300}),
            ("csc", {"Ltil_y": 1e150}),
            ("scsc", {"Ltil_xy": 0.0}),
            ("scsc-benchmark", {"Ltil_xy": 0.0}),
        ],
        ids=[
            "scsc-mu_y-tiny", "csc-mu_y-tiny", "benchmark-mu_y-tiny", "benchmark-Ltil_xy-tiny",
            "scsc-Ltil_xy-huge", "csc-Ltil_xy-huge", "benchmark-Ltil_xy-huge", "csc-Ltil_y-huge",
            "csc-Ltil_y-1e150", "scsc-Ltil_xy-zero", "benchmark-Ltil_xy-zero",
        ],
    )
    def test_constants_out_of_the_float_range_are_config_errors(self, tmp_path, capsys, kind, constants):
        """Constants valid one by one whose derived scalars overflow, underflow to zero or divide by zero."""
        doc = minimal_run_config(tmp_path / "out", K=2)
        doc["instance"] = {"kind": kind, "preset": "mild", "d": 8, "constants": constants}
        doc["solver"] = {"algorithm": "accbio", "K": 2, "regularize": {"eps": 0.1, "R": 1.0}}
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_out_of_memory_is_config_error(self, tmp_path, capsys, monkeypatch):
        """A d too large to allocate: numpy's MemoryError, raised by a patched builder, since
        whether a real allocation of that size fails at once depends on the overcommit policy."""

        def build(d, *args, **kwargs):
            raise MemoryError(f"Unable to allocate 7.28 TiB for an array with shape ({d},) and data type float64")

        monkeypatch.setattr(hard_instances, "build_scsc_benchmark", build)
        doc = minimal_run_config(tmp_path / "out", K=2)
        doc["instance"] = {"kind": "scsc-benchmark", "preset": "benchmark", "d": 10**12}
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: Unable to allocate") and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind,d",
        [("scsc", 5000), ("scsc", 16384), ("decoupled", 16384)],
        ids=["5000", "16384", "decoupled-16384"],
    )
    def test_large_dimension_runs(self, tmp_path, capsys, kind, d):
        # a d x d float64 array at d=16384 would take 2 GB
        doc = minimal_run_config(tmp_path / "out", K=2)
        doc["instance"] = {"kind": kind, "d": d}
        if kind == "scsc":
            doc["instance"].update(preset="benchmark", kappa_y=4.0)
        cfg = write_config(tmp_path / "c.json", doc)
        start = time.perf_counter()
        assert main(["run", cfg]) == 0
        assert time.perf_counter() - start <= 30.0
        assert "Traceback" not in capsys.readouterr().err
        lines = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == 4

    @pytest.mark.parametrize("instance,extra", Z_FAMILY_RUNS, ids=Z_FAMILY_IDS)
    def test_z_family_run_densifies_nothing(self, tmp_path, monkeypatch, instance, extra):
        def forbidden(*args, **kwargs):
            raise AssertionError("a Z-family run must not densify")

        monkeypatch.setattr(linalg.StructuredOperator, "to_dense", forbidden)
        monkeypatch.setattr(linalg, "solve_dense", forbidden)
        monkeypatch.setattr(linalg, "symmetric_eig_extremes", forbidden)
        doc = minimal_run_config(tmp_path / "out", K=3)
        # above the small-dimension kernels, whose operators keep a dense form
        doc["instance"] = {**instance, "d": linalg.SMALL_DIM + 1}
        doc["solver"].update(extra)
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["run", cfg]) == 0

    @pytest.mark.parametrize("instance,extra", Z_FAMILY_RUNS, ids=Z_FAMILY_IDS)
    def test_small_z_family_run_densifies_each_operator_once(
        self, tmp_path, monkeypatch, instance, extra
    ):
        densified, applying = [], []
        to_dense, apply = linalg.StructuredOperator.to_dense, linalg.StructuredOperator.apply

        def spy_to_dense(self):
            if applying:
                raise AssertionError("an apply must not densify")
            densified.append(self)  # kept alive, so ids stay distinct
            return to_dense(self)

        def spy_apply(self, v):
            applying.append(self)
            try:
                return apply(self, v)
            finally:
                applying.pop()

        def forbidden(*args, **kwargs):
            raise AssertionError("a Z-family run must not solve or decompose densely")

        monkeypatch.setattr(linalg.StructuredOperator, "to_dense", spy_to_dense)
        monkeypatch.setattr(linalg.StructuredOperator, "apply", spy_apply)
        monkeypatch.setattr(linalg, "solve_dense", forbidden)
        monkeypatch.setattr(linalg, "symmetric_eig_extremes", forbidden)
        doc = minimal_run_config(tmp_path / "out", K=3)
        doc["instance"] = {**instance, "d": 32}
        doc["solver"].update(extra)
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["run", cfg]) == 0
        ids = [id(op) for op in densified]
        assert ids and len(set(ids)) == len(ids)


PERFBENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def perfbench_workloads():
    """The benchmark's workload table, loaded from its file: perfbench is not a package."""
    name = "perfbench_workloads"
    if name not in sys.modules:  # registered first: its dataclass looks itself up there
        spec = importlib.util.spec_from_file_location(name, PERFBENCH_WORKLOADS)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].WORKLOADS


class TestTapKernelGuard:
    """Above SMALL_DIM every polynomial in Z applies by its taps, and none densifies.

    At d <= SMALL_DIM an operator applies by the dense form it builds at
    construction; above, by the taps it derives on first use, with no
    dense form, and `to_dense` is never called.
    """

    @pytest.fixture()
    def watch(self, monkeypatch):
        applied = []
        op = linalg.StructuredOperator
        apply, apply_block, to_dense = op.apply, op.apply_block, op.to_dense

        def checked(kernel):
            def spy(self, x):
                out = kernel(self, x)
                applied.append(self)  # kept alive, so ids stay distinct
                if self.dim > linalg.SMALL_DIM:
                    assert self._matrix is None and self._taps is not None, self.kind
                else:
                    assert self._matrix is not None, self.kind
                return out

            return spy

        def spy_to_dense(self):
            if self.dim > linalg.SMALL_DIM:
                raise AssertionError(f"{self.kind} of dim {self.dim} densified")
            return to_dense(self)

        monkeypatch.setattr(op, "apply", checked(apply))
        monkeypatch.setattr(op, "apply_block", checked(apply_block))
        monkeypatch.setattr(op, "to_dense", spy_to_dense)
        return applied

    @pytest.mark.parametrize(
        # in five steps no sweep point reaches eps, but every point runs, so that sweep exits 0
        "name,code", [("sweep-kappa-d32", 0), ("run-scsc-d1024", 0), ("battery-lb-d1024", 3)]
    )
    def test_perfbench_workloads(self, tmp_path, watch, name, code):
        workload = perfbench_workloads()[name]
        doc = json.loads(json.dumps(workload.config))
        doc["output_dir"] = str(tmp_path / "out")
        if workload.verb == "sweep":
            # d = 32 applies densely; a few outer steps show that as well as 600
            doc["solver"]["K"] = 5
        assert main([workload.verb, write_config(tmp_path / "c.json", doc)]) == code
        above = [op for op in watch if op.dim > linalg.SMALL_DIM]
        assert watch and bool(above) == (workload.verb != "sweep")

    @pytest.mark.parametrize("instance,extra", Z_FAMILY_RUNS, ids=Z_FAMILY_IDS)
    def test_runs_above_the_switch(self, tmp_path, watch, instance, extra):
        doc = minimal_run_config(tmp_path / "out", K=3)
        doc["instance"] = {**instance, "d": linalg.SMALL_DIM + 1}
        doc["solver"].update(extra)
        assert main(["run", write_config(tmp_path / "c.json", doc)]) == 0
        assert watch and all(op.dim > linalg.SMALL_DIM for op in watch)


SHIPPED_CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"
ARTIFACT_DIGESTS = Path(__file__).resolve().parent / "artifact_digests.json"


def artifact_digests(root: Path, prefix: str) -> dict[str, str]:
    """The SHA-256 of every file under root, keyed by prefix/<path relative to root>."""
    return {
        f"{prefix}/{path.relative_to(root).as_posix()}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def recorded_digests(prefix: str) -> dict[str, str]:
    """The digests in tests/artifact_digests.json of the files under prefix/."""
    recorded = json.loads(ARTIFACT_DIGESTS.read_text())
    return {key: digest for key, digest in recorded.items() if key.startswith(prefix + "/")}


class TestArtifactDigests:
    """Every file the shipped configs write is byte-identical to its recorded SHA-256.

    tests/artifact_digests.json holds the digests of the files that `run`
    of benchmark_run.json, `sweep` of kappa_sweep.json and `verify-lb` of
    lower_bound_battery.json at seeds 0, 5 and 11 write.  The sweep's and
    the battery's are checked on the runs their tests make anyway
    (TestSweepVerb.test_shipped_sweep_records_no_negative_gap,
    TestVerifyLbVerb.test_shipped_battery_is_consistent_at_each_seed), so
    the digests add about 0.1 s to the suite, the `run` here.  A refactor
    must leave every digest as it is, which makes its byte-identical
    trace.csv and counters a check; a change that means to move a bit
    re-records them and says why.  The digests are for numpy 2.4 with
    OpenBLAS on x86-64: another numpy or BLAS may round differently.
    """

    def test_shipped_run_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", str(SHIPPED_CONFIGS / "benchmark_run.json"), "--out", str(out)]) == 0
        assert artifact_digests(out, "run") == recorded_digests("run")


class TestConfigKeys:
    @pytest.mark.parametrize(
        "verb,config,path,key",
        [
            ("run", "benchmark_run.json", (), "sed"),
            ("run", "benchmark_run.json", ("instance",), "dd"),
            ("run", "benchmark_run.json", ("solver",), "NN"),
            ("run", "benchmark_run.json", ("solver", "regularize"), "RR"),
            ("sweep", "kappa_sweep.json", ("sweep",), "value"),
            ("sweep", "kappa_sweep.json", ("solver",), "NN"),
            ("verify-lb", "lower_bound_battery.json", ("lower_bound",), "budget"),
            ("verify-lb", "lower_bound_battery.json", (), "lowerbound"),
            ("run", "benchmark_run.json", ("instance", "constants"), "rho_xy"),
        ],
    )
    def test_unknown_key_is_config_error(
        self, tmp_path, capsys, monkeypatch, verb, config, path, key
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("an unknown key must be rejected before any build")

        for builder in ("build_scsc", "build_csc", "build_scsc_benchmark"):
            monkeypatch.setattr(hard_instances, builder, forbidden)
        doc = json.loads((SHIPPED_CONFIGS / config).read_text())
        doc["output_dir"] = str(tmp_path / "out")
        if path == ("solver", "regularize"):
            doc["solver"]["regularize"] = {"eps": 0.01, "R": 2.0}
        block = doc
        for name in path:
            block = block.setdefault(name, {})
        block[key] = 3
        assert main([verb, write_config(tmp_path / "c.json", doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("path", [("sweep",), ("solver", "regularize")])
    def test_block_that_is_not_an_object_is_config_error(self, tmp_path, capsys, path):
        doc = minimal_run_config(tmp_path / "out")
        block = doc
        for name in path[:-1]:
            block = block[name]
        block[path[-1]] = 5
        assert main(["run", write_config(tmp_path / "c.json", doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("config", sorted(p.name for p in SHIPPED_CONFIGS.glob("*.json")))
    def test_shipped_configs_hold_only_known_keys(self, config):
        resolve(json.loads((SHIPPED_CONFIGS / config).read_text()))


class TestNumericFields:
    """A malformed real-valued field exits 1 before any build: no traceback, no exit 2."""

    @pytest.mark.parametrize(
        "verb,config,path,key,value",
        [
            ("run", "benchmark_run.json", ("solver",), "eps", "x"),
            ("run", "benchmark_run.json", ("solver",), "eps", -1.0),
            ("run", "benchmark_run.json", ("solver",), "eps", float("nan")),
            ("run", "benchmark_run.json", ("solver",), "tau_cost", "x"),
            ("run", "benchmark_run.json", ("solver",), "tau_cost", float("inf")),
            ("run", "benchmark_run.json", ("solver",), "L_phi", "x"),
            ("run", "benchmark_run.json", ("solver",), "L_phi", -3),
            ("run", "benchmark_run.json", ("solver", "regularize"), "eps", "x"),
            ("run", "benchmark_run.json", ("solver", "regularize"), "eps", -1),
            ("run", "benchmark_run.json", ("solver", "regularize"), "R", True),
            ("run", "benchmark_run.json", ("instance",), "Lbar_xy", "x"),
            ("run", "benchmark_run.json", ("instance",), "kappa_y", float("nan")),
            ("verify-lb", "lower_bound_battery.json", ("lower_bound",), "csc_B", "x"),
            ("verify-lb", "lower_bound_battery.json", ("lower_bound",), "csc_B", -1.0),
            ("verify-lb", "lower_bound_battery.json", ("lower_bound",), "rstar_eps", "x"),
            ("verify-lb", "lower_bound_battery.json", ("lower_bound",), "rstar_eps", -1),
            ("run", "benchmark_run.json", (), "output_dir", 5),
            ("verify-lb", "lower_bound_battery.json", (), "seed", -1),
            ("sweep", "kappa_sweep.json", ("instance",), "d", -3),
            ("run", "benchmark_run.json", ("instance", "constants"), "mu_y", float("nan")),
            ("run", "benchmark_run.json", ("instance", "constants"), "L_x", True),
            ("run", "benchmark_run.json", ("solver",), "L_phi", []),
            ("sweep", "kappa_sweep.json", ("solver",), "U", None),
        ],
    )
    def test_bad_number_is_config_error(
        self, tmp_path, capsys, monkeypatch, verb, config, path, key, value
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("a malformed field must be rejected before any build")

        for builder in ("build_scsc", "build_csc", "build_scsc_benchmark"):
            monkeypatch.setattr(hard_instances, builder, forbidden)
        doc = json.loads((SHIPPED_CONFIGS / config).read_text())
        doc["output_dir"] = str(tmp_path / "out")
        if path == ("solver", "regularize"):
            doc["solver"]["regularize"] = {"eps": 0.01, "R": 2.0}
        block = doc
        for name in path:
            block = block.setdefault(name, {})
        block[key] = value
        assert main([verb, write_config(tmp_path / "c.json", doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    @pytest.mark.parametrize(
        "verb,config",
        [
            ("run", "benchmark_run.json"),
            ("sweep", "kappa_sweep.json"),
            ("verify-lb", "lower_bound_battery.json"),
        ],
    )
    def test_bad_tau_cost_flag_is_config_error(self, tmp_path, capsys, verb, config, value):
        doc = json.loads((SHIPPED_CONFIGS / config).read_text())
        doc["output_dir"] = str(tmp_path / "out")
        cfg = write_config(tmp_path / "c.json", doc)
        assert main([verb, cfg, "--tau-cost", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--tau-cost" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["L_phi", "stepsize"])
    def test_falsy_auto_fields_keep_the_derived_default(self, tmp_path, key):
        resolved = []
        for name, value in (("absent", None), ("zero", 0)):
            doc = minimal_run_config(tmp_path / name, K=2)
            doc["solver"]["algorithm"] = "baseline-gd"
            if value is not None:
                doc["solver"][key] = value
            assert main(["run", write_config(tmp_path / f"{name}.json", doc)]) == 0
            text = (tmp_path / name / "resolved_config.json").read_text()
            resolved.append(json.loads(text)["solver_resolved"][key])
        assert resolved[0] == resolved[1] > 0

    def test_non_finite_derived_step_is_config_error(self, tmp_path, capsys):
        doc = minimal_run_config(tmp_path / "out", K=2)
        doc["solver"].update(algorithm="baseline-gd", L_phi=1e-310)  # 1 / L_phi overflows
        assert main(["run", write_config(tmp_path / "c.json", doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "stepsize" in err
        assert not (tmp_path / "out" / "trace.csv").exists()


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

    def test_pool_is_no_wider_than_the_point_count(self, tmp_path, monkeypatch):
        widths = []

        class InProcessPool:
            """Stands in for the process pool: records its width, starts no process."""

            def __init__(self, workers):
                widths.append(workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "_process_pool", InProcessPool)
        doc = {
            "seed": 11,
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "scsc-benchmark", "d": 12, "preset": "benchmark"},
            "solver": {"algorithm": "accbio", "K": 40, "eps": 1e-4},
            "sweep": {"axis": "kappa_y", "values": [1.0, 4.0]},
        }
        for values, pools in (([1.0, 4.0], [2]), ([4.0], [])):
            widths.clear()
            doc["sweep"]["values"] = values
            assert main(["sweep", write_config(tmp_path / "c.json", doc), "--jobs", "8"]) == 0
            assert widths == pools  # a single point runs in this process

    def test_summary_format_and_slope(self, tmp_path, monkeypatch):
        pools = []
        process_pool = cli._process_pool

        def spy(workers):
            pool = process_pool(workers)  # the real pool: its workers run the points
            pools.append(type(pool).__name__)
            return pool

        monkeypatch.setattr(cli, "_process_pool", spy)
        doc = {
            "seed": 11,
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "scsc-benchmark", "d": 12, "preset": "benchmark"},
            "solver": {"algorithm": "accbio", "K": 40, "eps": 1e-4},
            "sweep": {"axis": "kappa_y", "values": [1.0, 4.0]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", cfg, "--jobs", "2"]) == 0
        assert pools == ["ProcessPoolExecutor"]
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

    def test_shipped_sweep_records_no_negative_gap(self, tmp_path):
        # phi_star is the minimum of phi: a gap below zero is rounding, recorded as 0.0
        doc = json.loads((SHIPPED_CONFIGS / "kappa_sweep.json").read_text())
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["sweep", write_config(tmp_path / "c.json", doc)]) == 0
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(doc["sweep"]["values"])
        assert all(float(row["final_gap"]) >= 0.0 for row in rows)
        for i in range(len(rows)):
            with open(tmp_path / "out" / f"point_{i:02d}" / "trace.csv", newline="") as fh:
                gaps = [float(rec["phi_gap"]) for rec in csv.DictReader(fh)]
            assert len(gaps) == doc["solver"]["K"] + 1
            assert min(gaps) >= 0.0
        assert artifact_digests(tmp_path / "out", "sweep") == recorded_digests("sweep")

    def test_point_at_zero_complexity_writes_strict_json(self, tmp_path):
        # decoupled starts at its minimizer, so each point reaches eps at complexity 0
        doc = {
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "decoupled", "d": 8},
            "solver": {"algorithm": "accbio", "K": 3, "eps": 1e-4},
            "sweep": {"axis": "d", "values": [4, 8]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", cfg]) == 0

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        text = (tmp_path / "out" / "sweep_meta.json").read_text()
        meta = json.loads(text, parse_constant=reject)
        assert "loglog_slope" not in meta

    def test_empty_grid_is_config_error(self, tmp_path):
        doc = {
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "decoupled", "d": 4},
            "solver": {"algorithm": "accbio", "K": 2},
            "sweep": {"axis": "eps", "values": []},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", cfg]) == 1

    @pytest.mark.parametrize("values", [5, "abc", {"a": 1.0}], ids=["number", "string", "object"])
    def test_values_not_a_list_is_config_error(self, tmp_path, capsys, values):
        doc = json.loads((SHIPPED_CONFIGS / "kappa_sweep.json").read_text())
        doc["output_dir"] = str(tmp_path / "out")
        doc["sweep"]["values"] = values
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep.values must be a non-empty list")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_integer_d_value_is_config_error(self, tmp_path, capsys):
        doc = {
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "scsc", "preset": "mild", "d": 16},
            "solver": {"algorithm": "accbio", "K": 5, "N": 5, "M": 5, "eps": 1e-3},
            "sweep": {"axis": "d", "values": [16, "big"]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", cfg]) == 1
        assert capsys.readouterr().err.startswith("config error:")

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

    @pytest.mark.parametrize("block,key,jobs", [("solver", "eps", 1), ("instance", "initial_gap", 2)])
    def test_bad_shared_field_exits_one(self, tmp_path, capsys, block, key, jobs):
        # a malformed field shared by every point is invalid input, not a
        # numeric failure of each point
        doc = json.loads((SHIPPED_CONFIGS / "kappa_sweep.json").read_text())
        doc["output_dir"] = str(tmp_path / "out")
        doc[block][key] = "x"
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", cfg, "--jobs", str(jobs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{block}.{key}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_bad_value_fails_before_any_point_runs(self, tmp_path, capsys):
        doc = json.loads((SHIPPED_CONFIGS / "kappa_sweep.json").read_text())
        doc["output_dir"] = str(tmp_path / "out")
        doc["sweep"]["values"] = [4.0, 16.0, "x"]
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep.values[2]") and "Traceback" not in err
        assert not list(tmp_path.glob("out/point_*"))

    def test_all_points_failing_exits_nonzero(self, tmp_path, capsys):
        doc = {
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "scsc", "preset": "mild", "d": 16},
            "solver": {"algorithm": "accbio", "K": 5, "N": 5, "M": 5, "eps": 1e-3},
            "sweep": {"axis": "d", "values": [2, 3]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: no sweep point ran:")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "point_00 (d=2)" in err and "point_01 (d=3)" in err

    def test_points_short_of_eps_exit_zero(self, tmp_path, capsys):
        # every point runs but none reaches eps in five steps: a completed
        # sweep, as a `run` short of eps is a completed run
        doc = {
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "instance": {"kind": "scsc", "preset": "mild", "d": 16},
            "solver": {"algorithm": "accbio", "K": 5, "N": 5, "M": 5, "eps": 1e-12},
            "sweep": {"axis": "d", "values": [8, 16]},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", cfg]) == 0
        assert capsys.readouterr().err == ""
        for point in ("point_00", "point_01"):
            summary = (tmp_path / "out" / point / "summary.csv").read_text().splitlines()
            assert "reached_eps,False" in summary
        rows = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["", ""]
        meta = json.loads((tmp_path / "out" / "sweep_meta.json").read_text())
        assert meta["failures"] == 0 and "loglog_slope" not in meta


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

    @pytest.mark.parametrize(
        "key,value",
        [
            ("scsc_dims", [16, "x"]),
            ("csc_d", 12.5),
            ("scsc_dims", []),
            ("budgets", {"K": "ten", "Q": 5, "T": 3}),
            ("budgets", {"K": 10, "Q": 5}),
            ("budgets", {"K": 10, "Q": 5, "T": 3, "N": 2}),
            ("budgets", {"K": 10, "Q": 0, "T": 3}),
            ("algorithms", ["acbio"]),
            ("algorithms", "accbio"),
            ("csc_budgets", {"K": 4.5, "Q": 2, "T": 2}),
            ("algorithms", []),
            ("algorithms", ["accbio", "accbio"]),
            ("algorithms", ["accbio_bg", "accbio-bg"]),  # two spellings of one algorithm
            ("scsc_dims", [16, 32, 32]),
        ],
    )
    def test_bad_dimension_is_config_error(self, tmp_path, capsys, key, value):
        doc = battery_config(tmp_path / "out")
        doc["lower_bound"][key] = value
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["verify-lb", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "constants",
        [{"L_xy": 0.0}, {"mu_x": 0.0}, {"mu_y": 1e-300}, {"Ltil_xy": 1e300}, {"Ltil_xy": 0.0}],
        ids=["L_xy-zero", "mu_x-zero", "mu_y-tiny", "Ltil_xy-huge", "Ltil_xy-zero"],
    )
    def test_invalid_instance_is_config_error(self, tmp_path, capsys, constants):
        """Constants the builders reject exit 1, as `run` exits on them."""
        doc = battery_config(tmp_path / "out")
        doc["instance"]["constants"] = constants
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["verify-lb", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid instance:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("budgets", {"K": 11, "Q": 5, "T": 3}),
            ("budgets", {"K": 5, "Q": 5, "T": 3}),
            ("csc_budgets", {"K": 3, "Q": 2, "T": 2}),
            ("scsc_dims", [3]),
            ("csc_d", 3),
        ],
        ids=["K-not-divisible", "K-below-2Q", "csc-K-not-divisible", "scsc-d3", "csc-d3"],
    )
    def test_budgets_breaking_the_schedule_are_config_errors(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        builds = []
        monkeypatch.setattr(hard_instances, "build_scsc", lambda *a, **k: builds.append(a))
        doc = battery_config(tmp_path / "out")
        doc["lower_bound"][key] = value
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["verify-lb", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert builds == []  # rejected before any build

    def test_csc_dimension_below_its_support_cap_is_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # csc_budgets (40, 10, 3) put the convex chain's support cap at
        # K + QT - Q + 3 = 63, which needs csc_d - 3 >= 63
        builds = []
        for name in ("build_scsc", "build_csc"):
            monkeypatch.setattr(hard_instances, name, lambda *a, **k: builds.append(a))
        doc = battery_config(tmp_path / "out")
        doc["lower_bound"].update(csc_d=20, csc_budgets={"K": 40, "Q": 10, "T": 3})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["verify-lb", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: lower_bound.csc_d = 20") and "Traceback" not in err
        assert "support cap 63 needs csc_d >= 66" in err
        assert builds == [] and not (tmp_path / "out").exists()
        doc["lower_bound"]["csc_d"] = 66  # the smallest csc_d that holds the cap
        assert resolve(doc)["lower_bound"]["csc_d"] == 66

    def test_lower_bound_block_must_be_an_object(self, tmp_path, capsys):
        doc = battery_config(tmp_path / "out")
        doc["lower_bound"] = []
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["verify-lb", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_corrupted_instance_fails_certificate(self, tmp_path):
        doc = battery_config(tmp_path / "out", corruption="btilde3")
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["verify-lb", cfg]) == 3
        report = json.loads((tmp_path / "out" / "lower_bound_report.json").read_text())
        assert any("geometric_minimizer" in item for item in report["failed_items"])

    @pytest.mark.parametrize(
        "corruption,exit_code", [(None, 0), ("btilde3", 3)], ids=["clean", "btilde3"]
    )
    def test_each_listed_dimension_is_built_once(
        self, tmp_path, monkeypatch, corruption, exit_code
    ):
        built = []
        build_scsc = hard_instances.build_scsc

        def spy(d, *args, **kwargs):
            built.append(d)
            return build_scsc(d, *args, **kwargs)

        monkeypatch.setattr(hard_instances, "build_scsc", spy)
        doc = battery_config(tmp_path / "out", scsc_dims=(16, 32), corruption=corruption)
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["verify-lb", cfg]) == exit_code
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

    def test_items_are_named_by_table_name(self, tmp_path):
        doc = battery_config(tmp_path / "out", algorithms=("baseline-gd", "accbio-bg"))
        assert main(["verify-lb", write_config(tmp_path / "c.json", doc)]) == 0
        items = json.loads((tmp_path / "out" / "lower_bound_report.json").read_text())["items"]
        assert {"scsc_gap_floor_baseline_aid_gd", "scsc_gap_floor_accbio_bg"} <= set(items)
        assert not any("-" in name for name in items)

    def test_floor_items_carry_their_ratio(self, tmp_path):
        doc = battery_config(tmp_path / "out", algorithms=("baseline_aid_gd", "accbio"))
        assert main(["verify-lb", write_config(tmp_path / "c.json", doc)]) == 0
        items = json.loads((tmp_path / "out" / "lower_bound_report.json").read_text())["items"]
        measured = {
            "scsc_gap_floor_baseline_aid_gd": "gap",
            "scsc_gap_floor_accbio": "gap",
            "csc_grad_floor_static": "measured_min",
            "csc_grad_floor_run": "grad_norm",
        }
        assert {name for name, item in items.items() if "ratio" in item} == set(measured)
        for name, key in measured.items():
            item = items[name]
            assert item["ratio"] == item[key] / item["floor"] >= 1.0

    # the scaled battery of the benchmark's battery-lb-d1024 workload
    SCALED_BATTERY = {
        "seed": 0,
        "instance": {"kind": "scsc", "preset": "mild"},
        "lower_bound": {
            "budgets": {"K": 60, "Q": 10, "T": 5},
            "scsc_dims": [256, 1024],
            "csc_d": 512,
            "csc_B": 1.0,
            "csc_budgets": {"K": 40, "Q": 10, "T": 3},
            "algorithms": ["baseline_aid_gd", "accbio", "accbio_bg"],
            "rstar_eps": 1e-2,
        },
    }

    @pytest.mark.parametrize("which", ["shipped", "scaled"])
    def test_battery_densifies_nothing_above_small_dim(self, tmp_path, monkeypatch, capsys, which):
        to_dense, qr = linalg.StructuredOperator.to_dense, np.linalg.qr
        qr_shapes = []

        def guarded_to_dense(self):
            if self.dim > linalg.SMALL_DIM:
                raise AssertionError(f"verify-lb densified an operator of dim {self.dim}")
            return to_dense(self)

        def spy_qr(a, *args, **kwargs):
            qr_shapes.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(linalg.StructuredOperator, "to_dense", guarded_to_dense)
        monkeypatch.setattr(np.linalg, "qr", spy_qr)
        if which == "shipped":
            doc = json.loads((SHIPPED_CONFIGS / "lower_bound_battery.json").read_text())
        else:
            doc = json.loads(json.dumps(self.SCALED_BATTERY))
        doc["output_dir"] = str(tmp_path / "out")
        code = main(["verify-lb", write_config(tmp_path / "c.json", doc)])
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "lower_bound_report.json").read_text())
        # the scaled battery's geometric-minimizer items fail at the float64
        # rounding floor; every other item passes
        assert all(name.startswith("scsc_geometric_minimizer_") for name in report["failed_items"])
        assert code == (3 if report["failed_items"] else 0)
        assert len(report["items"]) == 15
        # the csc floor's (d, 3) block, and span heads at most two rows taller than wide
        assert qr_shapes and all(cols <= 3 or rows <= cols + 2 for rows, cols in qr_shapes)

    def test_support_cap_items_carry_oracle_counts(self, tmp_path):
        items = {}
        for tau in (None, "3"):
            out = tmp_path / f"out-{tau}"
            doc = battery_config(out, algorithms=("baseline_aid_gd", "accbio"))
            cfg = write_config(tmp_path / "c.json", doc)
            main(["verify-lb", cfg] + ([] if tau is None else ["--tau-cost", tau]))
            report = json.loads((out / "lower_bound_report.json").read_text())
            items[tau] = {k: v for k, v in report["items"].items() if "support_cap" in k}
        assert set(items["3"]) == {
            "scsc_support_cap_baseline_aid_gd", "scsc_support_cap_accbio", "csc_support_cap"
        }
        for name, item in items["3"].items():
            default = items[None][name]
            counts = (item["n_G"], item["n_J"], item["n_H"])
            assert counts == (default["n_G"], default["n_J"], default["n_H"])
            assert item["n_G"] > 0 and item["n_J"] > 0 and item["n_H"] > 0
            assert item["tau_cost"] == 3.0 and default["tau_cost"] == 2.0
            assert item["complexity"] == 3 * (item["n_J"] + item["n_H"]) + item["n_G"]

    def test_seed_sets_the_finite_difference_points(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", battery_config(tmp_path / "unused"))
        reports = {}
        for name, seed in (("a", "4"), ("b", "4"), ("c", "5")):
            assert main(["verify-lb", cfg, "--seed", seed, "--out", str(tmp_path / name)]) == 0
            reports[name] = (tmp_path / name / "lower_bound_report.json").read_bytes()
        assert reports["a"] == reports["b"]
        deviation = {
            name: json.loads(text)["items"]["scsc_hypergradient_consistency"]["max_deviation"]
            for name, text in reports.items()
        }
        assert deviation["c"] != deviation["a"]

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_shipped_battery_is_consistent_at_each_seed(self, tmp_path, seed):
        doc = json.loads((SHIPPED_CONFIGS / "lower_bound_battery.json").read_text())
        doc.update(seed=seed, output_dir=str(tmp_path / "out"))
        assert main(["verify-lb", write_config(tmp_path / "c.json", doc)]) == 0
        report = json.loads((tmp_path / "out" / "lower_bound_report.json").read_text())
        item = report["items"]["scsc_hypergradient_consistency"]
        assert item["passed"] and item["max_deviation"] <= 1e-6
        prefix = f"verify-lb-seed{seed}"
        assert artifact_digests(tmp_path / "out", prefix) == recorded_digests(prefix)


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

    @pytest.mark.parametrize(
        "name,content",
        [
            ("lower_bound_report.json", b"{not json"),
            ("lower_bound_report.json", b"[1, 2]"),
            ("lower_bound_report.json", b'{"passed": "\xff"}'),
            ("lower_bound_report.json", b'{"passed": "no", "items": {}}'),
            ("lower_bound_report.json", b'{"passed": 1, "items": {}}'),
            ("lower_bound_report.json", b'{"passed": null, "items": {}}'),
            ("lower_bound_report.json", b'{"items": {}}'),
            ("trace.csv", b"k,phi_gap\n0,\xff\n"),
            ("trace.csv", None),  # a directory
        ],
        ids=[
            "report-not-json",
            "report-a-list",
            "report-not-utf8",
            "report-passed-a-string",
            "report-passed-a-number",
            "report-passed-null",
            "report-passed-missing",
            "trace-not-utf8",
            "trace-a-dir",
        ],
    )
    def test_malformed_artifact_is_config_error(self, tmp_path, capsys, name, content):
        path = tmp_path / "bad" / name
        if content is None:
            path.mkdir(parents=True)
        else:
            path.parent.mkdir()
            path.write_bytes(content)
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not (tmp_path / "report.csv").exists()

    def test_missing_directory_is_config_error(self, tmp_path):
        assert main(["report", str(tmp_path / "nope")]) == 1


class TestLoadedModules:
    """Each verb loads only what it runs: no process pool at --jobs 1, no numpy.random."""

    UNUSED = ("numpy.random", "concurrent.futures", "multiprocessing")

    @staticmethod
    def _argv(verb, tmp_path):
        if verb == "run":
            doc = minimal_run_config(tmp_path / "out")
        elif verb == "sweep":
            doc = minimal_run_config(tmp_path / "out", K=4)
            doc["sweep"] = {"axis": "d", "values": [4, 6]}
        else:
            doc = battery_config(tmp_path / "out")
        argv = [verb, write_config(tmp_path / "c.json", doc)]
        return argv + (["--jobs", "1"] if verb == "sweep" else [])

    @pytest.mark.parametrize("verb", ["run", "sweep", "verify-lb"])
    def test_verb_leaves_unused_modules_unloaded(self, tmp_path, verb):
        script = (
            "import json, sys\n"
            "from bilevel_lab.cli import main\n"
            "code = main(json.loads(sys.argv[1]))\n"
            f"print(json.dumps([code, [m for m in {self.UNUSED!r} if m in sys.modules]]))\n"
        )
        paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        argv = json.dumps(self._argv(verb, tmp_path))
        done = subprocess.run(
            [sys.executable, "-c", script, argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        code, loaded = json.loads(done.stdout.strip().splitlines()[-1])
        assert code == 0
        assert loaded == []
