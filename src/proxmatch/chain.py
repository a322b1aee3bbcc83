"""The chain in stage order: simulate, estimate, match, evaluate.

Each stage function takes its input records, writes its output file, prints
its stage line and returns its output records. A stage command reads the
file it starts from and runs one stage function; ``pipeline`` chains the
same functions and passes each stage's records on in memory, so it writes
byte-identical files and prints the same stage lines as the commands run one
by one without reading any file back. Two Monte Carlo chains make the
stages' library calls on seed batches and write no file: ``pooled_matching``
and ``ranging_band``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, Sequence

from . import io, simulator
from .edge import Activity, Advertisement, DistanceReport, Grid, run_edge
from .ekf import EkfParams
from .matcher import EvalReport, MatchProblem, MatchResult, Trust, TruthRecord, evaluate, solve
from .simulator import GroundTruth, ScenarioConfig, generate, scenario_static

__all__ = ["estimate_stage", "evaluate_stage", "match_stage", "pipeline", "pooled_matching", "ranging_band",
           "simulate_stage"]

#: Seed of ranging band 0's true-distance draws; band k draws from this plus k.
RANGING_SEED = 20260819


def simulate_stage(config: ScenarioConfig, out_dir: Path) -> tuple[list[Grid], GroundTruth, int]:
    """The simulated grids, the truth and the count of advertisements."""
    out_dir.mkdir(parents=True, exist_ok=True)
    grids, truth = generate(config)
    if truth.floored:
        print(f"warning: {truth.floored} true distance(s) below "
              f"{simulator.MIN_TRUE_DISTANCE_M} m floored", file=sys.stderr)
    traces = {**truth.worker_traces, **truth.tool_traces}
    for name in truth.too_fast:
        print(f"warning: trace of {name!r} reaches {traces[name].max_speed:.2f} m/s, "
              f"above the walking bound {simulator.V_MAX_M_S} m/s", file=sys.stderr)
    io.write_advertisements(out_dir / "advertisements.jsonl", grids)
    io.write_truth(out_dir / "truth.jsonl", truth.sessions)
    n_ads = sum(map(len, grids))
    print(f"{n_ads} advertisement(s), {len(truth.sessions)} truth session(s) -> {out_dir}")
    return grids, truth, n_ads


def estimate_stage(ads: Sequence[Advertisement] | Sequence[Grid], n_ads: int, out_path: Path,
                   params: EkfParams, gap: float, active: frozenset[Activity]) -> list[DistanceReport]:
    """Reports from records read from a file or from the simulated grids,
    of ``n_ads`` advertisements in all."""
    reports = run_edge(ads, params, gap=gap, active=active)
    io.write_reports(out_path, reports)
    print(f"{len(reports)} report(s) from {n_ads} advertisement(s) -> {out_path}")
    return reports


def match_stage(reports: Sequence[DistanceReport], out_path: Path, margin: float,
                window: float) -> list[MatchResult]:
    results = solve(MatchProblem.from_reports(reports), threshold=margin, window=window)
    io.write_matches(out_path, results)
    sure = sum(1 for r in results if r.trust is Trust.SURE)  # a SURE result has a wearable
    unassigned = sum(1 for r in results if r.wearable is None)
    print(
        f"{len(results)} session(s): {sure} sure, "
        f"{len(results) - sure - unassigned} unsure, {unassigned} unassigned -> {out_path}"
    )
    return results


def evaluate_stage(matches: Sequence[MatchResult], truth: Sequence[TruthRecord],
                   out_path: Path | None) -> None:
    report = evaluate(matches, truth)
    d = report.to_dict()

    def pct(m):
        return f"{m['percent']}% ({m['ratio']})" if m else "n/a"

    print(
        f"total {d['total']}  accuracy {pct(d['accuracy'])}  "
        f"recall {pct(d['recall'])}  precision {pct(d['precision'])}"
    )
    if out_path is not None:
        io.write_eval(out_path, report)
        print(f"metrics -> {out_path}")


def pipeline(config: ScenarioConfig, params: EkfParams, out: Path, *, gap: float,
             active: frozenset[Activity], margin: float, window: float) -> None:
    """Every stage into ``out``, then ``errors.csv``; an error names its ``[stage]``."""

    def stage(name, fn, *stage_args):
        try:
            return fn(*stage_args)
        except (ValueError, OSError) as e:
            raise ValueError(f"[{name}] {e}") from e
        except Exception as e:
            raise RuntimeError(f"[{name}] {e}") from e

    grids, truth, n_ads = stage("simulate", simulate_stage, config, out)
    reports = stage("estimate", estimate_stage, grids, n_ads, out / "reports.jsonl", params, gap, active)
    del grids  # not held through match and evaluate
    matches = stage("match", match_stage, reports, out / "matches.jsonl", margin, window)
    stage("evaluate", evaluate_stage, matches, truth.sessions, out / "metrics.json")
    stage("errors", io.write_errors, out / "errors.csv", reports, truth)
    print(f"outputs -> {out}")


def pooled_matching(make_config: Callable[[int], ScenarioConfig], n_seeds: int) -> EvalReport:
    """The whole chain (``generate``, ``run_edge``, ``solve``, ``evaluate``)
    on the scenario ``make_config(seed)`` of each seed in ``range(n_seeds)``,
    its reports summed into one."""
    pooled = EvalReport(0, 0, 0, 0)
    for seed in range(n_seeds):
        grids, truth = generate(make_config(seed))
        pooled += evaluate(solve(MatchProblem.from_reports(run_edge(grids))), truth.sessions)
    return pooled


def ranging_band(band: int, lo: float, hi: float, n_sessions: int) -> list[tuple[DistanceReport, float]]:
    """Ranging band ``band``: ``n_sessions`` stationary one-worker sessions
    of 182 s (26 broadcasts), each with its single report and its true
    distance.

    Session ``j`` puts the tool at a true distance drawn uniformly from
    [lo, hi) by ``np.random.default_rng(RANGING_SEED + band)``, one draw
    per session in order, and runs on scenario seed ``1000 * band + j``,
    so each band's batch is the same whatever other bands run, and no two
    bands share a seed. More than 1000 sessions, or a session that does not
    give exactly one report, raises ``ValueError``.
    """
    if n_sessions > 1000:
        raise ValueError(f"at most 1000 sessions per band (seed 1000*band + j), got {n_sessions}")
    # Imported here, not at module level: only the seeded stream needs numpy.
    import numpy as np

    draw = np.random.default_rng(RANGING_SEED + band)
    samples = []
    for j in range(n_sessions):
        true_d = float(draw.uniform(lo, hi))
        grids, _ = generate(scenario_static(1, 1.0, 182.0, seed=1000 * band + j, operating_distance=true_d))
        (report,) = run_edge(grids)
        samples.append((report, true_d))
    return samples
