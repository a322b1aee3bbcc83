"""End-to-end benchmark of the proxmatch pipeline.

Run one workload from the repository root:

    python3 -m perfbench --workload swap_shift --seed 3 --seconds 30 --trace 0

With ``--trace 0`` the run makes one in-process ``proxmatch pipeline`` call
after another (a closed loop, one client, no extra threads, pinned to one
CPU), cycling through a batch of scenario seeds derived from ``--seed``, and
reports the end-to-end metrics. ``pipeline_ref`` is each call's wall time
divided by that of a fixed reference loop timed beside it (``reference.py``),
so that the host's changing speed cancels; the raw wall times are printed too. With ``--trace 1`` it alternates those calls with a traced
replica of the same chain and reports per-module timings and counts. Every
run checks the program's outputs; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Workload parameters, the recorded-seed digests and the map from
layer metrics to end-to-end metrics live in ``workloads.json``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import proxmatch from this checkout's ``src``, never from an installed copy."""
    if not (SRC / "proxmatch" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no proxmatch source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
