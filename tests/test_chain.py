"""The chain module's two runs of the stages: ``pipeline``, which writes
every stage's file, and the Monte Carlo chains, which write none."""

import dataclasses
import json

import pytest

from proxmatch import chain, io
from proxmatch.cli import main
from proxmatch.matcher import EvalReport
from proxmatch.simulator import scenario_static, scenario_swap


@pytest.mark.parametrize("make", [
    pytest.param(lambda s: scenario_static(3, 3.0, 360.0, seed=s), id="static_3m"),
    pytest.param(lambda s: scenario_swap(3, 2.0, [120.0, 240.0], seed=s), id="swap_2m"),
])
def test_pooled_matching_sums_the_pipeline_metrics_of_each_seed(make, tmp_path):
    """The acceptance gate's chain and ``proxmatch pipeline --seed s`` run
    the same stages on the same scenarios, so they give the same counts."""
    scen = tmp_path / "scen.json"
    io.write_scenario(scen, make(0))
    pooled = EvalReport(0, 0, 0, 0)
    for seed in range(4):
        assert dataclasses.replace(make(0), seed=seed) == make(seed)
        out = tmp_path / f"seed{seed}"
        assert main(["pipeline", str(scen), "--out-dir", str(out), "--seed", str(seed)]) == 0
        pooled += EvalReport(**json.loads((out / "metrics.json").read_text(encoding="utf-8"))["counts"])
    assert pooled.total > 0
    assert chain.pooled_matching(make, 4) == pooled


def test_a_ranging_band_holds_at_most_1000_sessions(monkeypatch):
    """Band k's session j runs on scenario seed 1000*k + j, so a larger band
    would share seeds, and noise draws, with the next; it is rejected before
    any scenario is generated."""
    monkeypatch.setattr(chain, "generate", lambda *a: pytest.fail("a scenario was generated"))
    with pytest.raises(ValueError, match=r"^at most 1000 sessions per band \(seed 1000\*band \+ j\), got 1001$"):
        chain.ranging_band(0, 0.3, 1.0, 1001)
