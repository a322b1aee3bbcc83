"""Command-line interface: calibration, simulation, and the staged pipeline.

Each stage function takes its input records, writes its output file, prints
its stage line and returns its output records. A stage command reads the
file it starts from and runs one stage function; ``pipeline`` chains the
same functions and passes each stage's records on in memory, so it writes
byte-identical files and prints the same stage lines as the commands run one
by one without reading any file back. Exit codes: 0 on success, 2 for
invalid inputs or configuration, 1 for unexpected runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from collections.abc import Sequence
from pathlib import Path

from . import io, simulator
from .edge import ACTIVE_DEFAULT, SESSION_GAP_S, Activity, Advertisement, DistanceReport, Grid, run_edge
from .ekf import DT_LINEAR, DT_SQUARED, EkfParams
from .matcher import (EVENT_WINDOW_S, SURE_MARGIN_M, MatchProblem, MatchResult, Trust, TruthRecord,
                      evaluate, solve)
from .pathloss import fit, residual_variance
from .simulator import GroundTruth, ScenarioConfig, generate, scenario_static, scenario_swap

__all__ = ["main"]


def _parse_active(csv_names: str) -> frozenset[Activity]:
    classes = set()
    for name in csv_names.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            cls = Activity(name)
        except ValueError:
            raise ValueError(
                f"unknown activity class {name!r}; choose from "
                f"{', '.join(a.value for a in Activity)}"
            ) from None
        if cls is Activity.INACTIVE:
            raise ValueError("'inactive' cannot count as active")
        classes.add(cls)
    if not classes:
        raise ValueError("at least one active class is required")
    return frozenset(classes)


def _finite_float(text: str, positive: bool) -> float:
    """argparse type for a finite, positive or nonnegative number, so a bad
    flag stops the command before any stage runs or writes a file."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        rule = "positive" if positive else "nonnegative"
        raise argparse.ArgumentTypeError(f"must be finite and {rule}, got {text!r}")
    return value


def _load_scenario(args: argparse.Namespace) -> ScenarioConfig:
    """The scenario file, with --seed overriding its seed."""
    config = io.read_scenario(args.scenario)
    return config if args.seed is None else dataclasses.replace(config, seed=args.seed)


def _load_params(args: argparse.Namespace) -> EkfParams:
    """Filter config from --config, with flag overrides applied."""
    params = io.read_ekf_params(args.config) if args.config else EkfParams()
    if args.r is not None:
        params = dataclasses.replace(params, r=args.r)
    if args.dt_mode is not None:
        params = dataclasses.replace(params, dt_mode=args.dt_mode)
    return params


def _simulate_stage(config: ScenarioConfig, out_dir: Path) -> tuple[list[Grid], GroundTruth, int]:
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


def _estimate_stage(ads: Sequence[Advertisement] | Sequence[Grid], n_ads: int, out_path: Path,
                    params: EkfParams, gap: float, active: frozenset[Activity]) -> list[DistanceReport]:
    """Reports from records read from a file or from the simulated grids,
    of ``n_ads`` advertisements in all."""
    reports = run_edge(ads, params, gap=gap, active=active)
    io.write_reports(out_path, reports)
    print(f"{len(reports)} report(s) from {n_ads} advertisement(s) -> {out_path}")
    return reports


def _match_stage(reports: Sequence[DistanceReport], out_path: Path, margin: float,
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


def _evaluate_stage(matches: Sequence[MatchResult], truth: Sequence[TruthRecord],
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


def cmd_fit(args: argparse.Namespace) -> int:
    samples = io.read_samples(args.samples)
    model = fit(samples, x0=args.x0)
    var = residual_variance(model, samples)
    print(
        f"n={model.n!r} x0_m={model.x0!r} rssi0_db={model.rssi0!r} "
        f"residual_variance_db2={var!r} ({len(samples)} samples)"
    )
    if args.out:
        io.write_model(args.out, model)
        print(f"model -> {args.out}")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    if args.kind == "static":
        config = scenario_static(
            args.workers,
            args.spacing,
            args.duration,
            args.bystanders,
            seed=args.seed,
            noise_std=args.noise_std,
            drop_prob=args.drop_prob,
        )
    else:
        swaps = [float(t) for t in args.swap_times.split(",") if t.strip()] if args.swap_times else []
        config = scenario_swap(
            args.workers,
            args.spacing,
            swaps,
            duration=args.duration,
            seed=args.seed,
            noise_std=args.noise_std,
            drop_prob=args.drop_prob,
        )
    io.write_scenario(args.out, config)
    print(f"scenario ({len(config.workers)} wearables, {len(config.tools)} tags) -> {args.out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    _simulate_stage(_load_scenario(args), Path(args.out_dir))
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    params, active = _load_params(args), _parse_active(args.active_classes)
    ads_path = Path(args.advertisements)
    ads, skipped = io.read_advertisements(ads_path)
    for lineno, reason in skipped:
        print(f"{ads_path}:{lineno}: skipped: {reason}", file=sys.stderr)
    _estimate_stage(ads, len(ads), Path(args.out), params, args.gap_s, active)
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    _match_stage(io.read_reports(Path(args.reports)), Path(args.out), args.margin_m, args.adv_interval_s)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    matches, truth = io.read_matches(Path(args.matches)), io.read_truth(Path(args.truth))
    _evaluate_stage(matches, truth, Path(args.out) if args.out else None)
    return 0


#: The errors stage; perfbench's traced replica calls it by this name.
_write_errors_csv = io.write_errors


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = _load_scenario(args)
    params = _load_params(args)
    active = _parse_active(args.active_classes)
    out = Path(args.out_dir)

    def stage(name, fn, *stage_args):
        try:
            return fn(*stage_args)
        except (ValueError, OSError) as e:
            raise ValueError(f"[{name}] {e}") from e
        except Exception as e:
            raise RuntimeError(f"[{name}] {e}") from e

    grids, truth, n_ads = stage("simulate", _simulate_stage, config, out)
    reports = stage("estimate", _estimate_stage, grids, n_ads, out / "reports.jsonl",
                    params, args.gap_s, active)
    del grids  # not held through match and evaluate
    matches = stage("match", _match_stage, reports, out / "matches.jsonl",
                    args.margin_m, args.adv_interval_s)
    stage("evaluate", _evaluate_stage, matches, truth.sessions, out / "metrics.json")
    stage("errors", io.write_errors, out / "errors.csv", reports, truth)
    print(f"outputs -> {out}")
    return 0


def _add_estimate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="filter config JSON (a bare path-loss model JSON also works)")
    p.add_argument("--r", type=float, default=None, help="measurement noise variance override, dB^2")
    p.add_argument(
        "--dt-mode", choices=[DT_SQUARED, DT_LINEAR], default=None,
        help="how predicted variance grows with the observation gap",
    )
    p.add_argument(
        "--gap-s", type=functools.partial(_finite_float, positive=True), default=SESSION_GAP_S,
        help="pause that splits two sessions (default %(default)s)",
    )
    p.add_argument(
        "--active-classes", default=",".join(sorted(a.value for a in ACTIVE_DEFAULT)),
        help="comma-separated activity classes that count as active (default %(default)s)",
    )


def _add_match_flags(p: argparse.ArgumentParser) -> None:
    nonnegative = functools.partial(_finite_float, positive=False)
    p.add_argument(
        "--margin-m", type=nonnegative, default=SURE_MARGIN_M,
        help="distance lead required for a sure assignment (default %(default)s)",
    )
    p.add_argument(
        "--adv-interval-s", type=nonnegative, default=EVENT_WINDOW_S,
        help="window for treating session starts as simultaneous (default %(default)s)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    leaves it unchanged, and building it costs a few milliseconds."""
    parser = argparse.ArgumentParser(
        prog="proxmatch",
        description="BLE proximity pipeline: ranging calibration, distance estimation, "
        "asset-operator matching, and scenario simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a path-loss model to distance/RSSI samples")
    p.add_argument("samples", help="CSV with header distance_m,rssi_db")
    p.add_argument("--x0", type=float, default=1.0, help="reference distance, m (default %(default)s)")
    p.add_argument("-o", "--out", help="write the fitted model JSON here")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("scenario", help="build a synthetic scenario description")
    kind = p.add_subparsers(dest="kind", required=True)
    for name in ("static", "swap"):
        k = kind.add_parser(name)
        k.add_argument("-n", "--workers", type=int, required=True)
        k.add_argument("--spacing", type=float, required=True, help="worker spacing, m")
        k.add_argument("--duration", type=float, default=360.0)
        k.add_argument("--seed", type=int, default=0)
        k.add_argument("--noise-std", type=float, default=simulator.NOISE_STD_DB, help="noise std, dB")
        k.add_argument("--drop-prob", type=float, default=0.0)
        k.add_argument("-o", "--out", required=True, help="scenario JSON path")
        if name == "static":
            k.add_argument("--bystanders", type=int, default=0)
        else:
            k.add_argument("--swap-times", default="", help="comma-separated seconds")
        k.set_defaults(func=cmd_scenario)

    p = sub.add_parser("simulate", help="synthesize advertisements and ground truth")
    p.add_argument("scenario", help="scenario JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="advertisements -> per-session distance reports")
    p.add_argument("advertisements", help="advertisement JSONL (or CSV)")
    p.add_argument("-o", "--out", default="reports.jsonl")
    _add_estimate_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("match", help="distance reports -> operator assignments")
    p.add_argument("reports", help="distance report JSONL")
    p.add_argument("-o", "--out", default="matches.jsonl")
    _add_match_flags(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("evaluate", help="score assignments against ground truth")
    p.add_argument("matches", help="match JSONL")
    p.add_argument("truth", help="truth JSONL")
    p.add_argument("-o", "--out", help="write metrics JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="simulate, estimate, match, and evaluate in one run")
    p.add_argument("scenario", help="scenario JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    _add_estimate_flags(p)
    _add_match_flags(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
