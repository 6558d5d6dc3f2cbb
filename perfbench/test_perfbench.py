"""Tests of the benchmark itself; run with `python3 -m pytest perfbench -q`.

Repetitions run in-process here with a few rounds each; the benchmark proper
runs each repetition in a fresh subprocess.
"""

from __future__ import annotations

import json

import pytest

import rep
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(workload: str, trace: int, rounds: int = 3, **kwargs) -> dict:
    records = [
        rep.run_rep(workload, 7, trace=traced, rounds=rounds, **kwargs)
        for traced in ((False, True) if trace else (False,))
    ]
    return run.summarize(workload, 7, trace, rounds, records)[1]


@pytest.mark.parametrize("workload", sorted(rep.WORKLOADS))
def test_every_workload_emits_every_named_metric_with_its_unit(workload):
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert workload in names
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(workload, trace)
        assert result["correct"], result
        assert result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected


def test_tracing_changes_no_report_byte_and_is_removed_afterwards():
    pipechain = rep.import_pipechain()
    run_method = pipechain.Simulation.run
    node_hash = pipechain.merkle.node_hash
    plain = rep.run_rep("steady", 3, rounds=20)
    traced = rep.run_rep("steady", 3, trace=True, rounds=20)
    assert plain["report_sha256"] == traced["report_sha256"]
    assert plain["model"] == traced["model"]
    assert pipechain.Simulation.run is run_method
    assert pipechain.merkle.node_hash is node_hash


def test_layer_digest_counts_match_the_model_hash_counters():
    layers = rep.run_rep("steady", 3, trace=True, rounds=20)["layers"]
    model = rep.run_rep("steady", 3, rounds=20)["model"]
    assert layers["pipeline.leaf_digests"] == model["hashes_leaf"]
    assert layers["pipeline.inner_digests"] == model["hashes_inner"]
    assert layers["storage.apply_digests"] == model["hashes_storage"]


def test_gate_fails_a_run_with_a_dropped_confirmed_transfer():
    record = rep.run_rep("steady", 3, rounds=12, faults={"drop_confirmed_round": 4})
    assert record["gate"]["block_fail_share"] > 0
    assert not record["gate"]["ok"]
    result = run.summarize("steady", 3, 0, 12, [record])[1]
    assert not result["correct"]
    assert result["failed"] > 0


def test_a_crashed_repetition_counts_all_its_rounds_as_failed():
    good = rep.run_rep("steady", 3, rounds=5)
    records = [good, {"traced": False, "error": "boom"}]
    result = run.summarize("steady", 3, 0, 5, records)[1]
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (10, 5)


def test_end_to_end_times_are_scaled_to_the_reference_host_speed():
    nominal = dict(rep.run_rep("steady", 3, rounds=5), reference_s=rep.REFERENCE_S)
    slow_host = dict(nominal, reference_s=2 * rep.REFERENCE_S)
    at_nominal = run.summarize("steady", 3, 0, 5, [nominal])[1]["metrics"]
    at_slow = run.summarize("steady", 3, 0, 5, [slow_host])[1]["metrics"]
    for name, factor in (("accepted_tx_per_s", 2), ("setup_s", 0.5), ("peak_rss_mb", 1)):
        assert at_slow[name]["value"] == pytest.approx(factor * at_nominal[name]["value"])
