"""Gate test for the benchmark.

Every workload at a tiny size emits every metric that BENCHMARK.json names,
with no failed operation; and a deliberately wrong ratio or weight makes the
matching output check fail. Run with ``python3 -m pytest bench``.
"""
import json

import pytest

import harness
from workloads import ROOT, WORKLOADS, dpp, measures

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_emitted_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        harness.layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    result = harness.measure(name, seed=1, seconds=0.5, trace=trace,
                             tiny=True)
    assert result["failed"] == 0
    assert result["values"]["error_rate"] == 0.0
    line = json.loads(harness.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    assert set(result["values"]) == set(harness.REPORTED)


def _doubled(orig):
    return lambda self, t: 2.0 * orig(self, t)


def _inverted(orig):
    return lambda self, S, t: 1.0 / orig(self, S, t)


def _scaled_log_weight(orig):
    return lambda self, S: 1.01 * orig(self, S)


@pytest.mark.parametrize("name, owner, attr, wrong", [
    ("rbf-compare", dpp.CholeskyCache, "add_ratio", _doubled),
    ("product-trace", measures.ProductMeasure, "add_ratio", _inverted),
    ("kdpp-exchange", measures.CardinalityConditionedMeasure, "log_weight",
     _scaled_log_weight),
    ("exact-n16", dpp.LEnsemble, "log_weight", _scaled_log_weight),
])
def test_wrong_program_fails_its_check(name, owner, attr, wrong,
                                       monkeypatch):
    monkeypatch.setattr(owner, attr, wrong(owner.__dict__[attr]))
    workload = WORKLOADS[name](seed=1, tiny=True)
    workload.setup()
    verdicts = workload.check(workload.run())
    assert set(verdicts) == set(workload.op_names())
    assert not all(verdicts.values())
