"""Traced replica of ``proxmatch pipeline``.

It makes the calls into each module's public functions that ``cmd_pipeline``
makes, in the same order and on the same files, and times each call from
here. ``RuntimeWarning``s are recorded per layer instead of being suppressed.
The scenario read and ``errors.csv`` stay untraced: the replica's total minus
its spans is ``cli.other_s``. Argument parsing is not replicated.
"""

from __future__ import annotations

import dataclasses
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from proxmatch import cli, io
from proxmatch.edge import ACTIVE_DEFAULT, SESSION_GAP_S, run_edge
from proxmatch.ekf import EkfParams
from proxmatch.matcher import EVENT_WINDOW_S, SURE_MARGIN_M, MatchProblem, evaluate, solve
from proxmatch.simulator import generate

from perfbench.check import Outputs, check, read_metrics

#: Spans that partition the traced pipeline; their sum plus cli.other_s is its total.
SPANS = (
    "simulator.generate_s",
    "io.write_ads_s",
    "io.read_ads_s",
    "io.records_s",
    "edge.run_edge_s",
    "matcher.build_s",
    "matcher.solve_s",
    "matcher.evaluate_s",
)


@dataclass
class Traced:
    """Seconds per span, RuntimeWarnings per layer, the call's total and its outputs."""

    spans: dict[str, float]
    warnings: dict[str, int]
    total_s: float
    outputs: Outputs = field(repr=False)


def traced_pipeline(scenario_path: Path, out: Path, seed: int) -> Traced:
    """``proxmatch pipeline SCENARIO --out-dir OUT --seed SEED``, one timed call at a time."""
    spans: dict[str, float] = defaultdict(float)
    warned: dict[str, int] = defaultdict(int)

    @contextmanager
    def span(name: str):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            yield
            spans[name] += perf_counter() - t0
        warned[name.split(".")[0]] += sum(issubclass(w.category, RuntimeWarning) for w in caught)

    t0 = perf_counter()
    config = dataclasses.replace(io.read_scenario(scenario_path), seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    params = EkfParams()

    with span("simulator.generate_s"):
        ads, truth = generate(config)
    with span("io.write_ads_s"):
        io.write_advertisements(out / "advertisements.jsonl", ads)
    with span("io.records_s"):
        io.write_truth(out / "truth.jsonl", truth.sessions)
    del ads  # cmd_pipeline drops the generated stream before reading it back

    with span("io.read_ads_s"):
        ads, skipped = io.read_advertisements(out / "advertisements.jsonl")
    with span("edge.run_edge_s"):
        reports = run_edge(ads, params, gap=SESSION_GAP_S, active=ACTIVE_DEFAULT)
    with span("io.records_s"):
        io.write_reports(out / "reports.jsonl", reports)
        reports = io.read_reports(out / "reports.jsonl")

    with span("matcher.build_s"):
        problem = MatchProblem.from_reports(reports)
    with span("matcher.solve_s"):
        results = solve(problem, threshold=SURE_MARGIN_M, window=EVENT_WINDOW_S)
    with span("io.records_s"):
        io.write_matches(out / "matches.jsonl", results)
        matches = io.read_matches(out / "matches.jsonl")
        truth_records = io.read_truth(out / "truth.jsonl")
    with span("matcher.evaluate_s"):
        report = evaluate(matches, truth_records)
    with span("io.records_s"):
        io.write_eval(out / "metrics.json", report)
        reports = io.read_reports(out / "reports.jsonl")
    cli._write_errors_csv(out / "errors.csv", reports, truth)
    total = perf_counter() - t0

    return Traced(
        spans={name: spans[name] for name in SPANS},
        warnings={layer: warned[layer] for layer in ("simulator", "matcher")},
        total_s=total,
        outputs=Outputs(
            ads=ads,
            skipped=len(skipped),
            ads_bytes=(out / "advertisements.jsonl").stat().st_size,
            truth=truth_records,
            reports=reports,
            matches=matches,
            metrics=read_metrics(out),
        ),
    )


def check_traced(t: Traced) -> tuple[dict, float]:
    """The output check on a traced call; its counts include the per-layer warnings."""
    counts, replay_s = check(t.outputs)
    counts.update({f"{layer}.warnings": n for layer, n in t.warnings.items()})
    return counts, replay_s
