"""Self-tests of the benchmark's own arithmetic and output checks.

Run with `python3 -m pytest perfbench` from the root of a checkout.
"""

from __future__ import annotations

import copy
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import NO_PARENT, Tracer, covered, self_times  # noqa: E402


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_children_once():
    # parent [0, 10] > child [1, 4] > grandchild [2, 3]
    starts, ends, parents = [0.0, 1.0, 2.0], [10.0, 4.0, 3.0], [NO_PARENT, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # children [1, 5] and [3, 8] overlap on [3, 5]; [9, 12] sticks out of the parent
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 5.0, 8.0, 12.0]
    parents = [NO_PARENT, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_covered_ignores_intervals_outside_the_window():
    assert covered(0.0, 1.0, [(2.0, 3.0), (-1.0, -0.5)]) == 0.0
    assert covered(0.0, 4.0, [(1.0, 2.0), (1.5, 3.0), (3.5, 5.0)]) == pytest.approx(2.5)


def test_tracer_records_nesting_and_restores_patched_names():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner = mod.inner
    tracer = Tracer()
    tracer.patch(mod, "inner", "layer.inner")
    tracer.patch(mod, "outer", "layer.outer")
    tracer.request_id = 7
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert mod.inner is original_inner
    outer_idx = tracer.names.index("layer.outer")
    spans = {tracer.names[n]: i for i, n in enumerate(tracer.name_id)}
    assert tracer.parent[spans["layer.inner"]] == spans["layer.outer"]
    assert tracer.name_id[spans["layer.outer"]] == outer_idx
    assert set(tracer.request) == {7}
    assert tracer.ancestor(spans["layer.inner"], "layer.outer") == spans["layer.outer"]
    summary = tracer.summary(tracer.self_times())
    assert summary["layer.inner"][0] == summary["layer.outer"][0] == 1


# -- tail percentile ---------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    value, beyond = workloads.percentile_with_tail(list(range(1, 101)), 90)
    assert (value, beyond) == (90, 10)
    value, beyond = workloads.percentile_with_tail(list(range(1, 100)), 90)
    assert value is None and beyond == 9


def test_p90_counts_only_samples_strictly_beyond():
    # 110 samples: the p90 rank (99) falls among the tied 2.0s, none above
    assert workloads.percentile_with_tail([1.0] * 95 + [2.0] * 15, 90) == (None, 0)
    assert workloads.percentile_with_tail([1.0] * 95 + [2.0] * 5 + [3.0] * 10, 90) == (2.0, 10)
    assert workloads.percentile_with_tail([], 90) == (None, 0)


# -- output checks on tampered outputs ---------------------------------------


@pytest.fixture(scope="module")
def halc_traces():
    from halc import decoding, harness, world

    scene = world.demo_scene()
    detector = world.DetectorSim(world.DEMO_DETECTOR_ETA)
    cfg = decoding.DecodeConfig(seed=3, max_tokens=24)
    result = decoding.decode_halc(None, detector, world.oracle_match_score, None, scene, cfg)
    return harness, cfg.n, [result.trace]


def test_cost_checks_pass_on_real_traces(halc_traces):
    harness, n, traces = halc_traces
    assert workloads.check_cost_accounting(traces, n, harness) == []
    readings = workloads.cost_readings(traces, n, harness)
    assert readings["decoding.trigger_rate"] > 0
    assert workloads.check_call_ratio(readings) == []


def test_cost_checks_fail_on_tampered_traces(halc_traces):
    harness, n, traces = halc_traces
    tampered = copy.deepcopy(traces)
    tampered[0].model_calls += 1
    assert workloads.check_cost_accounting(tampered, n, harness)
    readings = workloads.cost_readings(tampered, n, harness)
    assert workloads.check_call_ratio(readings)


def test_chair_check_needs_halc_strictly_below_greedy():
    assert workloads.check_chair(0.0, 0.0238) == []
    assert workloads.check_chair(0.0238, 0.0238)


def test_oracle_check_fails_on_tampered_count():
    rows = [{"category": "existence", "eliminated": "169"}, {"category": "overall", "eliminated": "169"}]
    assert workloads.check_oracle_rows(rows, 169) == []
    rows[1]["eliminated"] = "168"
    assert workloads.check_oracle_rows(rows, 169)
    assert workloads.check_oracle_rows(rows[:1], 169)


def test_theorem_row_check_fails_on_tampered_rows():
    row = {"sampler": "normal", "epsilon": "1.0", "eta_norm": "0.0", "n": "4",
           "mean_min_deviation": "0.02", "bound": "0.09",
           "violation_fraction": "0.003"}
    assert workloads.theorem_row_problems(row) == []
    assert workloads.theorem_row_problems({**row, "mean_min_deviation": "0.1"})
    assert workloads.theorem_row_problems({**row, "violation_fraction": "0.02"})


def test_digest_check_fails_on_changed_output():
    assert workloads.check_digests("ab" * 32, "ab" * 32) == []
    assert workloads.check_digests("ab" * 32, "cd" * 32)


# -- the benchmark's own description -----------------------------------------


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_table()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
