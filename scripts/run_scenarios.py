"""Monte Carlo verdict numbers: ranging error by true-distance band and
pooled matching by scenario family.

Runs the library's two chains, ``simulator.ranging_band`` and
``simulator.pooled_matching``, on the seeds and scenarios of the acceptance
gate (tests/test_acceptance.py). With no flags it prints the numbers of
criteria 3 and 4 (bands 0.3-1 m and 1-3 m), 5a (static and swap at 2 m) and
5b (static at 3 m, wrong_sure of sure).

Usage:
    python scripts/run_scenarios.py
    python scripts/run_scenarios.py --seeds 200 --spacings 1.5,2,3 --bands 0.3:1,1:3,3:6
"""

import argparse

import numpy as np

from proxmatch.simulator import pooled_matching, ranging_band, scenario_static, scenario_swap


def fmt(metric):
    return f"{float(100 * metric):6.2f}%" if metric is not None else "   n/a"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=500,
                    help="sessions per band and seeds per family (default 500)")
    ap.add_argument("--spacings", default="2,3", help="comma-separated static spacings, m")
    ap.add_argument("--bands", default="0.3:1,1:3", help="comma-separated lo:hi true-distance bands, m")
    args = ap.parse_args()
    if not 1 <= args.seeds <= 1000:
        ap.error(f"--seeds must be from 1 to 1000 (band k's session j runs on seed "
                 f"1000*k + j), got {args.seeds}")

    print(f"{'band':<12} {'n':>5} {'median':>8} {'mean':>8} {'p90':>8} {'max':>8} {'var':>8}")
    for k, part in enumerate(args.bands.split(",")):
        lo, hi = (float(v) for v in part.split(":"))
        errs = np.array([abs(r.distance - d) for r, d in ranging_band(k, lo, hi, args.seeds)])
        print(f"{f'{lo:g}-{hi:g} m':<12} {len(errs):>5} {np.median(errs):>8.3f} "
              f"{errs.mean():>8.3f} {np.percentile(errs, 90):>8.3f} "
              f"{errs.max():>8.3f} {errs.var():>8.3f}")

    families = [
        (f"static {spacing:g} m", lambda s, sp=spacing: scenario_static(3, sp, 360.0, seed=s))
        for spacing in (float(v) for v in args.spacings.split(",") if v.strip())
    ]
    families.append(("swap 2 m", lambda s: scenario_swap(3, 2.0, [120.0, 240.0], seed=s)))
    print()
    print(f"{'family':<14} {'sessions':>8} {'accuracy':>9} {'recall':>9} "
          f"{'precision':>9} {'wrong_sure':>10} {'sure':>6}")
    for name, make in families:
        rep = pooled_matching(make, args.seeds)
        print(f"{name:<14} {rep.total:>8} {fmt(rep.accuracy):>9} {fmt(rep.recall):>9} "
              f"{fmt(rep.precision):>9} {rep.wrong_sure:>10} {rep.sure_total:>6}")


if __name__ == "__main__":
    main()
