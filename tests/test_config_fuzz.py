"""Config fuzzing: mutated copies of the shipped configs never end in a traceback.

Up to three fields of a shipped config are set, each to a cheap valid value
(d <= 16, K <= 5) or to junk.  Whatever the mix, `main` returns an exit code
from the contract, raises nothing and prints no traceback; an exit 0 run
re-runs to byte-identical artifacts.  Artifacts go to `--out`, so a junk
`output_dir` is checked but never written to.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bilevel_lab.cli import main

SHIPPED_CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"
VERBS = {
    "benchmark_run.json": "run",
    "kappa_sweep.json": "sweep",
    "lower_bound_battery.json": "verify-lb",
}

# cheap valid values per field, by (block, key); a block of None is the top level
VALID = {
    (None, "seed"): [0, 7],
    (None, "output_dir"): ["out"],
    ("instance", "kind"): ["scsc", "csc", "scsc-benchmark", "decoupled"],
    ("instance", "d"): [4, 8, 16],
    ("instance", "preset"): ["mild", "mild-csc", "benchmark"],
    ("instance", "kappa_y"): [1.0, 4.0],
    ("instance", "initial_gap"): [1.0, None],
    # the last two are valid constants whose derived scalars leave the float range
    ("instance", "constants"): [{"mu_y": 0.25}, {"L_x": 2.0}, {"mu_y": 1e-300}, {"Ltil_xy": 1e300}],
    ("solver", "algorithm"): ["accbio", "accbio-bg", "accbio_bg", "baseline-gd", "baseline_aid_gd"],
    ("solver", "K"): [1, 5],
    ("solver", "N"): ["auto", 3],
    ("solver", "M"): ["auto", 3],
    ("solver", "eps"): [0.5, 1e-4],
    ("solver", "U"): [10.0],
    ("sweep", "axis"): ["kappa_y", "eps", "d"],
    ("sweep", "values"): [[4.0, 16.0], [4, 8]],
    ("lower_bound", "budgets"): [{"K": 4, "Q": 2, "T": 2}],
    ("lower_bound", "scsc_dims"): [[16], [8, 16]],
    ("lower_bound", "csc_d"): [8, 16],
    ("lower_bound", "csc_B"): [1.0],
    ("lower_bound", "csc_budgets"): [{"K": 4, "Q": 2, "T": 2}],
    ("lower_bound", "algorithms"): [
        ["accbio"], ["baseline_aid_gd", "accbio_bg"], ["baseline-gd", "accbio-bg"]
    ],
    ("lower_bound", "rstar_eps"): [1e-2],
}
JUNK = [
    "x", "", True, False, None, float("nan"), float("inf"), -float("inf"), -1, -2.5, 0,
    [], [1.0, "x"], {}, {"K": 1}, {"L_x": True}, {"mu_y": float("nan")},
]


def cheap(doc: dict) -> dict:
    """The shipped config with a run or sweep cut to d=8 and K=5 (the battery is already quick)."""
    if "solver" in doc:
        doc["instance"]["d"] = 8
        doc["solver"]["K"] = 5
    return doc


@st.composite
def mutated_configs(draw):
    """(verb, config): a cheap shipped config with up to three fields set, each valid or junk."""
    name = draw(st.sampled_from(sorted(VERBS)))
    doc = cheap(json.loads((SHIPPED_CONFIGS / name).read_text()))
    fields = [(block, key) for block, key in VALID if block is None or block in doc]
    for block, key in draw(st.lists(st.sampled_from(fields), max_size=3, unique=True)):
        values = st.sampled_from(VALID[block, key]) | st.sampled_from(JUNK)
        (doc if block is None else doc[block])[key] = draw(values)
    return VERBS[name], doc


def run(verb: str, doc: dict, out: Path) -> tuple[int, str]:
    path = out.with_suffix(".json")
    path.write_text(json.dumps(doc), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([verb, str(path), "--out", str(out)])
    return code, stderr.getvalue()


def artifacts(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_configs())
def test_mutated_shipped_config_keeps_the_exit_contract(case):
    verb, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run(verb, doc, Path(tmp) / "a")
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err
        if code == 0:
            assert run(verb, doc, Path(tmp) / "b")[0] == 0
            assert artifacts(Path(tmp) / "a") == artifacts(Path(tmp) / "b")
