"""Ranging error statistics as a function of true distance.

Simulates stationary one-worker sessions at true distances drawn from a
set of bands, runs the edge estimator on each, and prints error
percentiles per band. Reproduces the error-vs-distance degradation table.

Usage:
    python scripts/distance_error_stats.py --trials 300
    python scripts/distance_error_stats.py --bands 0.3:1,1:3,3:6 --noise-std 6.99
"""

import argparse

import numpy as np

from proxmatch.edge import run_edge
from proxmatch.simulator import NOISE_STD_DB, generate, scenario_static


def band_errors(lo, hi, trials, duration, noise_std, master, seed_base):
    errors = []
    for k in range(trials):
        true_d = float(master.uniform(lo, hi))
        config = scenario_static(
            1, 1.0, duration, seed=seed_base + k,
            noise_std=noise_std, operating_distance=true_d,
        )
        ads, _ = generate(config)
        (report,) = run_edge(ads)
        errors.append(abs(report.distance - true_d))
    return np.asarray(errors)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=300, help="sessions per band (default 300)")
    ap.add_argument("--duration", type=float, default=182.0, help="session length, s (26 obs)")
    ap.add_argument("--noise-std", type=float, default=NOISE_STD_DB, help="RSSI noise std, dB")
    ap.add_argument("--bands", default="0.3:1,1:3",
                    help="comma-separated lo:hi true-distance bands, m")
    ap.add_argument("--seed", type=int, default=20260819)
    args = ap.parse_args()

    bands = []
    for part in args.bands.split(","):
        lo, hi = (float(v) for v in part.split(":"))
        bands.append((lo, hi))

    master = np.random.default_rng(args.seed)
    print(f"{'band':<12} {'n':>5} {'median':>8} {'mean':>8} {'p90':>8} {'max':>8} {'var':>8}")
    for i, (lo, hi) in enumerate(bands):
        errs = band_errors(lo, hi, args.trials, args.duration, args.noise_std,
                           master, seed_base=1000 * i)
        print(f"{f'{lo:g}-{hi:g} m':<12} {len(errs):>5} {np.median(errs):>8.3f} "
              f"{errs.mean():>8.3f} {np.percentile(errs, 90):>8.3f} "
              f"{errs.max():>8.3f} {errs.var():>8.3f}")


if __name__ == "__main__":
    main()
