"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import contextlib
import io
import json
import math

import pytest

import check
import run
import tracing
from workloads import WORKLOADS

CSV = "t,d_omega,entropy\n" + "".join(
    f"{t},{math.exp(-t / 30) + 0.1!r},{1 - math.exp(-t / 20)!r}\n" for t in range(200)
)


def _perturb(text, row, col, factor):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_percentile_rule():
    values = list(range(1, 11))
    assert tracing.percentile(values, 50) == 5
    assert tracing.percentile(values, 100) == 10
    assert tracing.percentile([], 50) is None
    # p99 needs ten values above its rank, so at least 1000 samples.
    assert tracing.tail_percentile(list(range(999)), 99) is None
    assert tracing.tail_percentile(list(range(1000)), 99) == 989
    assert tracing.tail_percentile(list(range(100)), 90) == 89


def _span(role, layer, parent, start, end):
    span = tracing.Span(tracing.Target(f"fake.{role}", layer, role), parent)
    span.start, span.end = start, end
    return span


def test_self_times_on_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    parents = [-1, 0, 1, 0]
    durations = [10.0, 3.0, 1.0, 4.0]
    assert tracing.self_times(parents, durations) == [3.0, 2.0, 1.0, 4.0]

    spans = [_span("main", "cli", -1, 0.0, 10.0), _span("quench", "analysis", 0, 1.0, 4.0),
             _span("step", "core", 1, 2.0, 3.0), _span("step", "core", 0, 5.0, 9.0)]
    summary = tracing.summarize_op(spans, wall=10.5, absent=set(), targets=())
    assert summary["layer_self"] == {"cli": 3.0, "analysis": 2.0, "core": 5.0}
    assert summary["unattributed"] == 0.5
    assert sum(summary["layer_self"].values()) + summary["unattributed"] == 10.5


def test_tracer_records_and_restores():
    run.import_ringwalk()
    import ringwalk.analysis

    original = ringwalk.analysis.select_fit_window
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ringwalk.analysis.select_fit_window is not original
        series = ringwalk.ObservableSeries(range(60), [0.9 ** t + 0.01 for t in range(60)],
                                           [0.0] * 60)
        assert ringwalk.analysis.select_fit_window(series) == original(series)
    finally:
        tracer.uninstall()
    assert ringwalk.analysis.select_fit_window is original
    spans = tracer.take()
    assert [s.target.role for s in spans] == ["window"]
    assert spans[0].end >= spans[0].start


def test_missing_name_reads_absent_and_never_fails():
    run.import_ringwalk()
    targets = tracing.TARGETS + (
        tracing.Target("ringwalk.core.step_renamed", "core", "step"),
        tracing.Target("ringwalk.no_such_module.f", "core", "step"),
    )
    tracer = tracing.Tracer(targets)
    assert {"ringwalk.core.step_renamed", "ringwalk.no_such_module.f"} <= tracer.absent
    tracer.install()
    tracer.uninstall()

    # Both step functions gone: the step metrics read absent, the rest stay.
    steps = {"ringwalk.core.step_nonlocal", "ringwalk.core.step_local"}
    spans = [_span("main", "cli", -1, 0.0, 2.0), _span("evolve", "core", 0, 0.5, 1.5)]
    spans[1].extra = 1e-14
    summary = tracing.summarize_op(spans, 2.0, steps)
    expected = WORKLOADS["local_bath"].expected_counts()
    assert tracing.count_problems(summary, expected) == []
    metrics = tracing.layer_metrics([summary], expected, 100, [1.9], 2, 0.0)
    assert metrics["core.step_s"] is None and metrics["core.steps"] is None
    assert metrics["core.evolve_self_s"] == 1.0
    assert metrics["core.norm_drift_max"] == 1e-14
    assert metrics["cli.self_s"] == 1.0
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)


def test_counts_are_asserted_exactly():
    expected = {"step": 4, "mixedness": 6, "sample": 2}
    spans = [_span("main", "cli", -1, 0.0, 1.0)]
    spans += [_span("step", "core", 0, 0.1, 0.2) for _ in range(3)]
    summary = tracing.summarize_op(spans, 1.0, set())
    assert tracing.count_problems(summary, expected) == ["step calls 3 != expected 4"]


def test_comparator_accepts_rounding_and_flags_perturbation():
    ref = check.fingerprint(CSV)
    assert check.compare_fingerprints(ref, check.fingerprint(CSV)) == []
    drift = CSV
    for row in range(200):  # systematic rounding drift in every value
        drift = _perturb(drift, row, 1, 1 + 1e-12)
    assert check.compare_fingerprints(ref, check.fingerprint(drift)) == []
    for row in (0, 57, 199):  # a picked row and rows between picks
        bad = _perturb(CSV, row, 1, 1 + 1e-3)
        assert check.compare_fingerprints(ref, check.fingerprint(bad)), row
    lines = CSV.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows[3][1], rows[4][1] = rows[4][1], rows[3][1]  # same sum, other moment
    swapped = "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"
    assert check.compare_fingerprints(ref, check.fingerprint(swapped))
    assert check.compare_fingerprints(ref, check.fingerprint(CSV + "200,0.1,0.9\n"))
    assert check.compare_fit({"C": 0.44, "x": 0.51}, {"C": math.nan, "x": 0.51})


def test_stored_reference_matches_and_flags_perturbed_cli_output(tmp_path):
    cli = run.import_ringwalk()
    workload = WORKLOADS["local_bath"]
    csv = tmp_path / "out.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(workload.argv(0, str(csv))) == 0
    reference = check.load_reference()[workload.name]["0"]
    got = check.summarize_outputs(csv, workload.siblings())
    assert check.compare_outputs(reference, got) == []
    csv.write_text(_perturb(csv.read_text(), 1234, 1, 1 + 1e-3))
    assert check.compare_outputs(reference, check.summarize_outputs(csv, workload.siblings()))
    (tmp_path / "out.manifest.json").unlink()
    with pytest.raises(OSError):
        check.summarize_outputs(csv, workload.siblings())


def test_benchmark_json_matches_reported_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER_UNITS


def test_compare_flags_different_blas_threads():
    import compare

    def record(threads, wall):
        return {"workload": "w", "trace": 0, "machine": {"blas_threads": threads},
                "result": {"metrics": {"wall_s": {"value": wall, "unit": "s"}}}}

    same = compare.compare({("w", 0): [record(2, 1.0)]}, {("w", 0): [record(2, 1.1)]})
    differ = compare.compare({("w", 0): [record(2, 1.0)]}, {("w", 0): [record(1, 1.1)]})
    assert not any("FLAG" in line for line in same)
    assert any("FLAG: BLAS threads differ" in line for line in differ)
    assert "new/base 1.1000" in same[-1]
