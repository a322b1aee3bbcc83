"""Record each workload's decision digest and counts for its recorded seed.

    python3 -m perfbench.record [WORKLOAD ...]

Rewrites the ``recorded`` entries of ``workloads.json``. Run it only when a
change to the program is meant to change its outputs; every benchmark run
checks its outputs against these entries.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from perfbench import ROOT, use_checkout_source


def recorded_for(params: dict, seed: int) -> dict:
    """The ``recorded`` entry of a workload: its outputs' digest and counts on ``seed``."""
    from proxmatch import io

    from perfbench import workloads
    from perfbench.check import digest
    from perfbench.traced import check_traced, traced_pipeline

    work = Path(tempfile.mkdtemp(prefix="perfbench-record-", dir=ROOT))
    try:
        scenario_path = work / "scenario.json"
        io.write_scenario(scenario_path, workloads.scenario(params))
        t = traced_pipeline(scenario_path, work / "out", seed)
        counts, _ = check_traced(t)
    finally:
        shutil.rmtree(work)
    return {"seed": seed, "digest": digest(t.outputs.reports, t.outputs.matches), "counts": counts}


if __name__ == "__main__":
    use_checkout_source()
    from perfbench import workloads

    spec = workloads.load()
    for name in sys.argv[1:] or list(spec["workloads"]):
        w = spec["workloads"][name]
        w["recorded"] = recorded_for(w["params"], w["recorded"]["seed"])
        print(f"{name}: {w['recorded']}")
    with open(workloads.SPEC_PATH, "w", encoding="utf-8") as f:
        f.write(json.dumps(spec, indent=2) + "\n")
