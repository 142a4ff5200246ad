"""The benchmark's checks must be able to fail, and its result must have the
form BENCHMARK.json declares.  No test here looks at a timing.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from braidgamma import cli  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# check-literal
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def check_output():
    op = {"n": 5, "target": "gammar", "r": 2, "assembly": "doubled"}
    code, payload = _cli(["check", "-n", "5", "--target", "gammar", "--r", "2",
                          "--assembly", "doubled", "--format", "json"])
    return op, code, payload


def test_presentation_count_matches_formula():
    for n in range(4, 10):
        assert sum(checks.presentation(n).values()) == inputs.relation_count(n)


def test_check_output_passes(check_output):
    assert checks.check_check(*check_output) == []


def test_check_rejects_missing_instance(check_output):
    op, code, payload = copy.deepcopy(check_output)
    payload["instances"].pop(3)
    assert checks.check_check(op, code, payload)


def test_check_rejects_swapped_sides(check_output):
    op, code, payload = copy.deepcopy(check_output)
    inst = payload["instances"][-1]
    inst["lhs"], inst["rhs"] = inst["rhs"], inst["lhs"]
    assert checks.check_check(op, code, payload)


def test_check_rejects_wrong_exit_code(check_output):
    op, _, payload = copy.deepcopy(check_output)
    assert checks.check_check(op, 1, payload)
    payload["instances"][0]["ok"] = False
    payload["passed"] -= 1
    payload["failed"] += 1
    assert checks.check_check(op, 1, payload) == []  # a refutation is allowed
    assert checks.check_check(op, 0, payload)


def test_check_rejects_miscounted_verdicts(check_output):
    op, code, payload = copy.deepcopy(check_output)
    payload["passed"] += 1
    assert checks.check_check(op, code, payload)


# ---------------------------------------------------------------------------
# trace-mixed
# ---------------------------------------------------------------------------


def _traced(tmp_path, choreo):
    path = tmp_path / "choreo.json"
    path.write_text(json.dumps(choreo))
    return _cli(["trace", str(path), "--format", "json"])


@pytest.fixture(scope="module", params=[2, 3])
def trace_output(request, tmp_path_factory):
    rng = random.Random(11)
    choreo = (inputs.planar_loop(rng, 5, 3) if request.param == 2
              else inputs.spatial_loop(rng, 6, 3))
    code, payload = _traced(tmp_path_factory.mktemp("trace"), choreo)
    assert len(payload["events"]) > 4
    return choreo, code, payload


def test_trace_output_passes(trace_output):
    assert checks.check_trace(*trace_output) == []


def test_trace_rejects_dropped_event(trace_output):
    choreo, code, payload = copy.deepcopy(trace_output)
    payload["events"].pop(len(payload["events"]) // 2)
    assert checks.check_trace(choreo, code, payload)


def test_trace_rejects_swapped_letters(trace_output):
    choreo, code, payload = copy.deepcopy(trace_output)
    word = payload["word"].split()
    k = next(k for k in range(len(word) - 1) if word[k] != word[k + 1])
    word[k], word[k + 1] = word[k + 1], word[k]
    payload["word"] = " ".join(word)
    assert checks.check_trace(choreo, code, payload)


def test_trace_rejects_events_out_of_order(trace_output):
    choreo, code, payload = copy.deepcopy(trace_output)
    events = payload["events"]
    k = next(k for k in range(len(events) - 1)
             if events[k]["segment"] == events[k + 1]["segment"])
    events[k], events[k + 1] = events[k + 1], events[k]
    assert checks.check_trace(choreo, code, payload)


def test_trace_rejects_moved_event_time(trace_output):
    choreo, code, payload = copy.deepcopy(trace_output)
    event = payload["events"][0]
    if isinstance(event["time"], str):
        event["time"] = "1/3" if event["time"] != "1/3" else "1/4"
    elif "exact" in event["time"]:
        event["time"] = {"exact": "1/1000003"}
    else:
        event["time"]["poly"][0] += 1
    assert checks.check_trace(choreo, code, payload)


def test_trace_rejects_wrong_exit_code(trace_output):
    choreo, _, payload = trace_output
    assert checks.check_trace(choreo, 3, payload)


def test_generated_loops_are_closed_and_valid():
    rng = random.Random(5)
    for dim, n, excursions in inputs.TRACE_ROUND:
        make = inputs.planar_loop if dim == 2 else inputs.spatial_loop
        choreo = make(rng, n, excursions)
        assert len(choreo["moves"]) == 3 * excursions
        cur = [list(p) for p in choreo["points"]]
        for m in choreo["moves"]:
            cur[m["point"] - 1] = m["to"]
        assert cur == choreo["points"]


def test_inputs_depend_only_on_seed():
    def build(seed):
        rng = random.Random(seed)
        return (inputs.check_round(rng), inputs.trace_round(rng),
                inputs.map_round(rng, inputs.map_configs(rng)))

    assert build(3) == build(3)
    assert build(3) != build(4)


# ---------------------------------------------------------------------------
# map-long
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def map_outputs():
    rng = random.Random(2)
    configs = inputs.map_configs(rng)
    out = []
    for op in inputs.map_round(rng, configs)[:2] + inputs.map_round(rng, configs)[-1:]:
        raw, red, inv = worker._map_once(op)
        out.append((op, str(raw).split(), str(red).split(), inv.is_zero()))
    return out


def test_map_outputs_pass(map_outputs):
    (w, w_raw, w_red, w_zero), (inv, i_raw, i_red, i_zero), (uu, *uu_out) = map_outputs
    assert checks.check_map(w, w_raw, w_red, w_zero, None) == []
    assert checks.check_map(inv, i_raw, i_red, i_zero, w_raw) == []
    assert checks.check_map(uu, *uu_out, None) == []


def test_map_rejects_swapped_letter(map_outputs):
    op, raw, red, zero = map_outputs[0]
    k = next(k for k in range(len(red) - 1) if red[k] != red[k + 1])
    red = red[:k] + [red[k + 1], red[k]] + red[k + 2:]
    assert checks.check_map(op, raw, red, zero, None)


def test_map_rejects_inverse_not_reversed(map_outputs):
    (_, w_raw, _, _), (inv, i_raw, i_red, i_zero), _ = map_outputs
    assert checks.check_map(inv, i_raw, i_red, i_zero, w_raw[1:] + w_raw[:1])


def test_map_rejects_uncancelled_word(map_outputs):
    op, raw, red, _ = map_outputs[2]
    assert red == []
    assert checks.check_map(op, raw + raw[:1], raw[:1], False, None)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the printed result
# ---------------------------------------------------------------------------


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_form():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_printed_metrics_match_benchmark_json():
    spec = _spec()
    rec = run.Record()
    window = {"raw": 1.0, "factor": 1.0, "probes": 3}
    rec.add_op(window, 10, [])
    rec.setups.append(window)
    rec.rss_kb = 1024
    e2e, _ = run.end_to_end(rec)
    assert {k: v["unit"] for k, v in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = run.per_layer(rec)
    assert {k: v["unit"] for k, v in layers.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
