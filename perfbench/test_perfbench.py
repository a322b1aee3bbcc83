"""The benchmark's own tests, on shrunken copies of its workloads.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json

import pytest

from perfbench import ROOT, run, workloads
from perfbench.check import CheckFailed, check, load
from perfbench.record import recorded_for
from perfbench.run import call_pipeline

SPEC = workloads.load()["workloads"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def shrunk(params: dict) -> dict:
    if params["kind"] == "static":
        return {**params, "duration_s": 700.0}
    return {**params, "periods": 3}


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_the_metrics_the_runner_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPEC)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("name", list(SPEC))
@pytest.mark.parametrize("trace", [False, True])
def test_shrunken_workload_runs_end_to_end(name, trace, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    params = shrunk(SPEC[name]["params"])
    # The reference call runs the recorded seed 7; seed 6 is unrecorded.
    run.measure(name, params, 6, 0.0, trace, recorded_for(params, 7))
    result = last_json(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_recorded_digest_mismatch_fails_the_run(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    params = shrunk(SPEC["swap_shift"]["params"])
    recorded = {**recorded_for(params, 3), "digest": "0" * 64}
    assert 3 in run.batch_seeds(0)
    run.measure("swap_shift", params, 0, 0.0, False, recorded)
    result = last_json(capsys)
    assert not result["correct"] and result["failed"] == 2  # the reference call and seed 3's first call


def test_batches_of_different_seeds_do_not_overlap():
    assert len(set(run.batch_seeds(4))) == run.BATCH
    assert not set(run.batch_seeds(4)) & set(run.batch_seeds(5))


def test_counts_repeat_exactly_between_traced_runs_of_one_seed(capsys):
    params = shrunk(SPEC["crowd_events"]["params"])
    recorded = recorded_for(params, 9)
    metrics = []
    for _ in range(2):
        run.measure("crowd_events", params, 4, 0.0, True, recorded)
        metrics.append(last_json(capsys)["metrics"])
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] in ("count", "bytes")} for m in metrics]
    assert counts[0] == counts[1] and counts[0]["matcher.max_event"] == 8


@pytest.fixture
def pipeline_out(tmp_path):
    from proxmatch import io

    scenario_path = tmp_path / "scenario.json"
    io.write_scenario(scenario_path, workloads.scenario(shrunk(SPEC["swap_shift"]["params"])))
    out = tmp_path / "out"
    code, _, _ = call_pipeline(scenario_path, out, 2)
    assert code == 0
    return out


def test_check_accepts_untouched_outputs(pipeline_out):
    counts, replay_s = check(load(pipeline_out))
    assert counts["edge.reports"] == 27 and counts["ekf.steps"] == counts["simulator.ads"]
    assert replay_s > 0


def test_check_rejects_one_altered_distance(pipeline_out):
    path = pipeline_out / "reports.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[4])
    row["distance_m"] = row["distance_m"] * (1 + 1e-15)
    lines[4] = json.dumps(row, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CheckFailed, match="replay"):
        check(load(pipeline_out))


def test_non_zero_exit_counts_as_failed(capsys, monkeypatch):
    from proxmatch import cli

    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    params = shrunk(SPEC["static_long"]["params"])
    run.measure("static_long", params, 1, 0.0, False, {"seed": 2, "digest": "", "counts": {}})
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] == 1 + run.BATCH
    assert "exit code 1" in out
