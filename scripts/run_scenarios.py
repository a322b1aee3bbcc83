"""Monte Carlo verdict numbers: ranging error by true-distance band and
pooled matching by scenario family.

Runs the library's two Monte Carlo chains, ``chain.ranging_band`` and
``chain.pooled_matching``, on the seeds and scenarios of the acceptance
gate (tests/test_acceptance.py). With no flags it prints the numbers of
criteria 3 and 4 (bands 0.3-1 m and 1-3 m), 5a (static and swap at 2 m) and
5b (static at 3 m, wrong_sure of sure).

Usage:
    python scripts/run_scenarios.py
    python scripts/run_scenarios.py --seeds 200 --spacings 1.5,2,3 --bands 0.3:1,1:3,3:6
"""

import argparse
import math

import numpy as np

from proxmatch.chain import pooled_matching, ranging_band
from proxmatch.simulator import scenario_static, scenario_swap


def fmt(metric):
    return f"{float(100 * metric):6.2f}%" if metric is not None else "   n/a"


def spacings(text):
    """Comma-separated spacings, each finite and positive."""
    try:
        out = [float(v) for v in text.split(",") if v.strip()]
        if all(math.isfinite(v) and v > 0 for v in out):
            return out
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"spacings must be finite and positive, got {text!r}")


def bands(text):
    """Comma-separated lo:hi bands, each finite with 0 <= lo < hi."""
    try:
        out = [tuple(map(float, part.split(":"))) for part in text.split(",")]
        if all(len(b) == 2 and math.isfinite(b[1]) and 0 <= b[0] < b[1] for b in out):
            return out
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bands must be lo:hi with 0 <= lo < hi, both finite, got {text!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=500,
                    help="sessions per band and seeds per family (default 500)")
    ap.add_argument("--spacings", type=spacings, default="2,3", help="comma-separated static spacings, m")
    ap.add_argument("--bands", type=bands, default="0.3:1,1:3",
                    help="comma-separated lo:hi true-distance bands, m")
    args = ap.parse_args()
    if not 1 <= args.seeds <= 1000:
        ap.error(f"--seeds must be from 1 to 1000 (band k's session j runs on seed "
                 f"1000*k + j), got {args.seeds}")

    print(f"{'band':<12} {'n':>5} {'median':>8} {'mean':>8} {'p90':>8} {'max':>8} {'var':>8}")
    for k, (lo, hi) in enumerate(args.bands):
        errs = np.array([abs(r.distance - d) for r, d in ranging_band(k, lo, hi, args.seeds)])
        print(f"{f'{lo:g}-{hi:g} m':<12} {len(errs):>5} {np.median(errs):>8.3f} "
              f"{errs.mean():>8.3f} {np.percentile(errs, 90):>8.3f} "
              f"{errs.max():>8.3f} {errs.var():>8.3f}")

    families = [
        (f"static {spacing:g} m", lambda s, sp=spacing: scenario_static(3, sp, 360.0, seed=s))
        for spacing in args.spacings
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
