"""Output checker: compares one workload call's artifacts to a recorded reference.

What must match exactly: the counter columns of every trace
(`k,n_G,n_J,n_H,complexity`), every metered counter handle, the sweep's
`complexity_to_eps`, and each battery item's pass/fail.  What must match
within a tolerance: the float columns (`phi_gap`, `grad_norm`,
`hypergrad_error`) and the sweep's `loglog_slope`, which must also stay in
the c10 band.  Floats are not held to byte identity on purpose: a
structured exact surface changes their last bits.

Each operation (one run, one sweep point, one battery item) gets a status:
  ok          output matches the reference
  known_fail  a battery certificate that also failed in the reference
  fixed       a battery certificate that failed in the reference and passes now
  mismatch    anything else: unexpected exit code, missing artifact, counter
              or float outside its tolerance, or a certificate that regressed
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

FLOAT_RTOL = 1e-6
# absolute slack as a share of the column's scale: the largest |phi_gap| for
# the gap, the largest |grad_norm| for both gradient columns (the
# hypergradient error sits at the rounding floor of grad_phi on exact runs)
FLOAT_ATOL_SHARE = 1e-9
SLOPE_ATOL = 1e-9
SLOPE_BAND = (0.25, 1.0)
COUNTER_COLUMNS = ("k", "n_G", "n_J", "n_H", "complexity")
FLOAT_COLUMNS = ("phi_gap", "grad_norm", "hypergrad_error")
SCALE_COLUMN = {"phi_gap": "phi_gap", "grad_norm": "grad_norm", "hypergrad_error": "grad_norm"}

OK, KNOWN_FAIL, FIXED, MISMATCH = "ok", "known_fail", "fixed", "mismatch"


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _counter_digest(rows: list[dict]) -> str:
    joined = "\n".join(",".join(r[c] for c in COUNTER_COLUMNS) for r in rows)
    return hashlib.sha256(joined.encode()).hexdigest()


def _float_or_none(field: str):
    return None if field == "" else float(field)


def trace_reference(text: str) -> dict:
    """The parts of a trace.csv that the checker compares."""
    rows = _rows(text)
    return {
        "rows": len(rows),
        "counters_sha256": _counter_digest(rows),
        "final_counters": [rows[-1][c] for c in COUNTER_COLUMNS],
        "floats": {c: [_float_or_none(r[c]) for r in rows] for c in FLOAT_COLUMNS},
    }


def compare_trace(text: str, ref: dict) -> str | None:
    """None when the trace matches `ref`, else the first difference found."""
    rows = _rows(text)
    if len(rows) != ref["rows"]:
        return f"{len(rows)} trace rows, reference has {ref['rows']}"
    if _counter_digest(rows) != ref["counters_sha256"]:
        final = [rows[-1][c] for c in COUNTER_COLUMNS]
        return f"counter columns differ (final row {final}, reference {ref['final_counters']})"
    for column in FLOAT_COLUMNS:
        expected = ref["floats"][column]
        scale_col = ref["floats"][SCALE_COLUMN[column]]
        scale = max((abs(v) for v in scale_col if v is not None), default=0.0)
        for i, (row, want) in enumerate(zip(rows, expected)):
            got = _float_or_none(row[column])
            if (got is None) != (want is None):
                return f"{column} row {i}: presence differs ({got!r} vs {want!r})"
            if got is None:
                continue
            if abs(got - want) > FLOAT_RTOL * abs(want) + FLOAT_ATOL_SHARE * scale:
                return f"{column} row {i}: {got!r} vs reference {want!r}"
    return None


# ---------------------------------------------------------------------------
# per-verb artifact readers
# ---------------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def _trace_paths(verb: str, n_points: int) -> list[str]:
    if verb == "run":
        return ["trace.csv"]
    return [f"point_{i:02d}/trace.csv" for i in range(n_points)]


def capture(verb: str, out_dir: Path, exit_code: int, counter_runs: list, n_points: int) -> dict:
    """Everything a reference holds, read from one call's artifacts."""
    ref = {"exit": exit_code, "counter_runs": counter_runs}
    if verb in ("run", "sweep"):
        ref["traces"] = {p: trace_reference(_read(out_dir / p)) for p in _trace_paths(verb, n_points)}
    if verb == "sweep":
        summary = _rows(_read(out_dir / "summary.csv"))
        ref["complexity_to_eps"] = [r["complexity_to_eps"] for r in summary]
        ref["loglog_slope"] = json.loads(_read(out_dir / "sweep_meta.json")).get("loglog_slope")
    if verb == "verify-lb":
        report = json.loads(_read(out_dir / "lower_bound_report.json"))
        ref["items"] = {name: item["passed"] for name, item in report["items"].items()}
        ref["known_failures"] = {
            name: item for name, item in report["items"].items() if not item["passed"]
        }
    return ref


def check_call(verb: str, out_dir: Path, exit_code: int, counter_runs: list, ref: dict) -> dict:
    """Status of every operation of one call: {op name: (status, reason)}."""
    if verb == "verify-lb":
        return _check_battery(out_dir, exit_code, counter_runs, ref)
    n_points = len(ref["traces"])
    ops = {p: (OK, "") for p in _trace_paths(verb, n_points)}

    def fail_all(reason):
        return {op: (MISMATCH, reason) for op in ops}

    if exit_code != ref["exit"]:
        return fail_all(f"exit code {exit_code}, reference {ref['exit']}")
    if counter_runs != ref["counter_runs"]:
        return fail_all(f"metered counters {counter_runs} differ from the reference")
    for path, trace_ref in ref["traces"].items():
        text = _read(out_dir / path)
        reason = "trace.csv missing" if text is None else compare_trace(text, trace_ref)
        if reason:
            ops[path] = (MISMATCH, reason)
    if verb == "sweep":
        summary_text = _read(out_dir / "summary.csv")
        meta_text = _read(out_dir / "sweep_meta.json")
        if summary_text is None or meta_text is None:
            return fail_all("sweep summary missing")
        summary = _rows(summary_text)
        for op, row, want in zip(list(ops), summary, ref["complexity_to_eps"]):
            if row["complexity_to_eps"] != want and ops[op][0] == OK:
                ops[op] = (MISMATCH, f"complexity_to_eps {row['complexity_to_eps']} vs {want}")
        slope = json.loads(meta_text).get("loglog_slope")
        want = ref["loglog_slope"]
        if slope is None or abs(slope - want) > SLOPE_ATOL:
            return fail_all(f"loglog_slope {slope} vs reference {want}")
        if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
            return fail_all(f"loglog_slope {slope} outside the band {SLOPE_BAND}")
    return ops


def _check_battery(out_dir: Path, exit_code: int, counter_runs: list, ref: dict) -> dict:
    text = _read(out_dir / "lower_bound_report.json")

    def fail_all(reason):
        return {name: (MISMATCH, reason) for name in ref["items"]}

    if text is None:
        return fail_all(f"no report (exit code {exit_code})")
    items = json.loads(text)["items"]
    expected_exit = 3 if any(not item["passed"] for item in items.values()) else 0
    if exit_code != expected_exit:
        return fail_all(f"exit code {exit_code} does not match the report (expected {expected_exit})")
    if counter_runs != ref["counter_runs"]:
        return fail_all(f"metered counters {counter_runs} differ from the reference")
    ops = {}
    for name, was_passed in ref["items"].items():
        if name not in items:
            ops[name] = (MISMATCH, "item missing from the report")
        elif items[name]["passed"] == was_passed:
            ops[name] = (OK, "") if was_passed else (KNOWN_FAIL, "fails in the reference too")
        elif was_passed:
            ops[name] = (MISMATCH, f"certificate regressed: {items[name]}")
        else:
            ops[name] = (FIXED, "failed in the reference, passes now")
    for name in items.keys() - ref["items"].keys():
        ops[name] = (MISMATCH, "item not in the reference")
    return ops
