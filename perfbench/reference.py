"""Reference loop: fixed pure-Python work timed beside every pipeline call.

The host's speed moves by up to 2x within seconds and over minutes (other
tenants share its cores), and wall time moves with it. The loop runs four
kinds of work the pipeline does, each for about 10 ms on a 2-vCPU cloud host:
a recursive search over sets (matcher), JSON lines written and parsed (io),
float maths (pathloss, ekf) and many small tuples built and sorted (edge,
simulator). No single kind slows with the machine the way every workload
does, so the loop runs all four. It never imports proxmatch, so it changes
only when the interpreter or the machine does: a call's wall time divided by
the loop's keeps a change to the program and cancels most of the machine's
speed change. Over ten 30-second runs on a 2-vCPU host the ratio's quartiles
spread 2-4% of its median, and those of wall time 2-8%; in noisier hours,
5-8% against 7-16%.
"""

from __future__ import annotations

import json
import math
from time import perf_counter


def _search(free: list[str], depth: int) -> float:
    best = 0.0

    def rec(i: int, used: set[str], total: float) -> None:
        nonlocal best
        if i == depth:
            best = max(best, total)
            return
        for w in free:
            if w in used:
                continue
            used.add(w)
            rec(i + 1, used, total + len(w))
            used.remove(w)

    rec(0, set(), 0.0)
    return best


def _json_lines(n: int) -> float:
    lines = [json.dumps({"ts": i * 0.3, "tag": "T3", "rssi": -60.5 - i % 9}, separators=(",", ":")) for i in range(n)]
    return sum(json.loads(line)["rssi"] for line in lines)


def _float_maths(n: int) -> float:
    total = 0.0
    for i in range(n):
        total += math.log10(1.0 + i) * math.sqrt(i) - math.exp(-i * 1e-4)
    return total


def _sort_tuples(n: int) -> float:
    rows = [(i * 7919 % 100003, float(i), f"W{i % 50}") for i in range(n)]
    rows.sort()
    return rows[n // 2][1]


def reference_loop() -> float:
    """Seconds the fixed reference work takes now."""
    t0 = perf_counter()
    total = (
        _search([f"W{i}" for i in range(8)], 5)
        + _json_lines(750)
        + _float_maths(20000)
        + _sort_tuples(8000)
    )
    elapsed = perf_counter() - t0
    if not math.isfinite(total):
        raise AssertionError("reference loop went wrong")
    return elapsed
