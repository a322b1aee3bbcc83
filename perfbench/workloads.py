"""Workload definitions, kept in ``workloads.json`` next to this file."""

from __future__ import annotations

import json
from pathlib import Path

from proxmatch.simulator import ScenarioConfig, scenario_static, scenario_swap

SPEC_PATH = Path(__file__).with_name("workloads.json")


def load() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def scenario(params: dict) -> ScenarioConfig:
    """The scenario a workload's parameters describe (seed 0; each call sets its own)."""
    if params["kind"] == "static":
        return scenario_static(params["workers"], params["spacing_m"], params["duration_s"])
    period, periods = params["period_s"], params["periods"]
    return scenario_swap(
        params["workers"],
        params["spacing_m"],
        [period * k for k in range(1, periods)],
        duration=period * periods,
    )
