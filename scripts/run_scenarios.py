"""Matching accuracy sweep over the bundled scenario families.

Runs the full simulate -> estimate -> match -> evaluate chain for the
static and swap layouts across a batch of seeds and prints one pooled
confusion-matrix row per family.

Usage:
    python scripts/run_scenarios.py --seeds 200
    python scripts/run_scenarios.py --seeds 500 --spacings 1.5,2,3
"""

import argparse
import time

from proxmatch.edge import run_edge
from proxmatch.matcher import EvalReport, MatchProblem, evaluate, solve
from proxmatch.simulator import generate, scenario_static, scenario_swap


def pooled(make_config, n_seeds):
    totals = dict(correct_sure=0, correct_unsure=0, wrong_sure=0, wrong_unsure=0)
    for seed in range(n_seeds):
        ads, truth = generate(make_config(seed))
        report = evaluate(solve(MatchProblem.from_reports(run_edge(ads))), truth.sessions)
        for key in totals:
            totals[key] += getattr(report, key)
    return EvalReport(**totals)


def fmt(metric):
    return f"{float(100 * metric):6.2f}%" if metric is not None else "   n/a"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=200, help="seeds per family (default 200)")
    ap.add_argument("--workers", type=int, default=3)
    ap.add_argument("--duration", type=float, default=360.0)
    ap.add_argument("--spacings", default="2,3", help="comma-separated static spacings, m")
    args = ap.parse_args()

    families = []
    for spacing in (float(s) for s in args.spacings.split(",") if s.strip()):
        families.append(
            (f"static {spacing:g} m",
             lambda s, sp=spacing: scenario_static(args.workers, sp, args.duration, seed=s))
        )
    swaps = [args.duration / 3, 2 * args.duration / 3]
    families.append(
        ("swap 2 m",
         lambda s: scenario_swap(args.workers, 2.0, swaps, duration=args.duration, seed=s))
    )

    print(f"{'family':<14} {'sessions':>8} {'accuracy':>9} {'recall':>9} "
          f"{'precision':>9} {'wrong_sure':>10} {'secs':>6}")
    for name, make in families:
        t0 = time.perf_counter()
        rep = pooled(make, args.seeds)
        dt = time.perf_counter() - t0
        print(f"{name:<14} {rep.total:>8} {fmt(rep.accuracy):>9} {fmt(rep.recall):>9} "
              f"{fmt(rep.precision):>9} {rep.wrong_sure:>10} {dt:>6.1f}")


if __name__ == "__main__":
    main()
