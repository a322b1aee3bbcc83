"""sha256 of every file that `simulate`, `pipeline` and `estimate` write on
the benchmark workloads.

Each workload of perfbench/workloads.json is built as a scenario twice,
lossless and with drop_prob 0.2, and each is run on seeds 1-3: `simulate`
and `pipeline` from the scenario, then `estimate` on the advertisements
that `simulate` wrote. The script prints one line per output file,

    workload drop seed command/file sha256

so two checkouts that print the same lines write the same bytes. The
commands run in-process on the proxmatch source of the checkout that holds
this script. To compare a change with its parent, run the script in each
checkout and diff the two outputs:

    python scripts/digests.py > change.txt
    python ../parent/scripts/digests.py > parent.txt
    diff parent.txt change.txt

Usage:
    python scripts/digests.py
    python scripts/digests.py --workloads crowd_events,swap_shift --seeds 1
"""

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [p for p in (str(SRC), str(ROOT)) if p not in sys.path]

from perfbench import workloads  # noqa: E402
from proxmatch import cli, io  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"digests: proxmatch was imported from {cli.__file__}, not from {SRC}")

DROPS = (0.0, 0.2)
COMMANDS = ("simulate", "pipeline", "estimate")


def run(*argv: str) -> None:
    """One in-process proxmatch command; its standard output, which names
    the temporary paths, is dropped."""
    with redirect_stdout(StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"digests: proxmatch {' '.join(argv)} exited {code}")


def digest_lines(names, seeds, work: Path):
    """The line of each output file, the files written under
    ``work/workload/drop/seed/command/``."""
    specs = workloads.load()["workloads"]
    for name in names:
        for drop in DROPS:
            config = dataclasses.replace(workloads.scenario(specs[name]["params"]), drop_prob=drop)
            base = work / name / str(drop)
            base.mkdir(parents=True)
            scenario = base / "scenario.json"
            io.write_scenario(scenario, config)
            for seed in seeds:
                out = base / str(seed)
                run("simulate", str(scenario), "--out-dir", str(out / "simulate"), "--seed", str(seed))
                run("pipeline", str(scenario), "--out-dir", str(out / "pipeline"), "--seed", str(seed))
                (out / "estimate").mkdir()
                run("estimate", str(out / "simulate" / "advertisements.jsonl"),
                    "-o", str(out / "estimate" / "reports.jsonl"))
                for command in COMMANDS:
                    for f in sorted((out / command).iterdir()):
                        digest = hashlib.sha256(f.read_bytes()).hexdigest()
                        yield f"{name} {drop} {seed} {command}/{f.name} {digest}"


def main():
    names = list(workloads.load()["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names),
                    help=f"comma-separated workloads (default {','.join(names)})")
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated seeds (default 1,2,3)")
    args = ap.parse_args()
    chosen = args.workloads.split(",")
    if not set(chosen) <= set(names) or len(set(chosen)) < len(chosen):
        ap.error(f"--workloads must be distinct workloads of {', '.join(names)}, "
                 f"got {args.workloads!r}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
        if any(s < 0 for s in seeds) or len(set(seeds)) < len(seeds):
            raise ValueError
    except ValueError:
        ap.error(f"--seeds must be distinct nonnegative integers, got {args.seeds!r}")
    with tempfile.TemporaryDirectory() as work:
        for line in digest_lines(chosen, seeds, Path(work)):
            print(line, flush=True)


if __name__ == "__main__":
    main()
