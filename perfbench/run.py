"""Closed-loop runner: ``python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1``.

Each run first calls the pipeline once on the workload's recorded seed. That
call warms the process up and its outputs must match the recorded digest and
counts, whatever ``--seed`` is. Then it times one call after another, for as
long as the next call can be expected to end within ``--seconds``: untraced
runs cycle through BATCH seeds derived from ``--seed`` (at least one call on
each), traced runs use ``--seed`` itself. Untraced runs time the reference loop
(``perfbench/reference.py``) between calls and start the set-up processes
spread over the run, so that both sample the machine's speed as the calls do.
"""

from __future__ import annotations

import argparse
import contextlib
import io as stdio
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy
import scipy
from proxmatch import cli, io

from perfbench import ROOT, workloads
from perfbench.check import CheckFailed, check, check_recorded, files_hash, load
from perfbench.reference import reference_loop
from perfbench.traced import SPANS, Traced, check_traced, traced_pipeline

#: Set-up processes per run; setup_s is their median.
SETUP_RUNS = 11

#: Scenario seeds an untraced run cycles through. The matcher's search work
#: differs from seed to seed; a batch averages that out of pipeline_ref.
BATCH = 8

E2E_UNITS = {"pipeline_ref": "ref", "setup_s": "s", "peak_rss_mb": "MiB"}

LAYER_UNITS = {
    "simulator.generate_s": "s",
    "simulator.us_per_ad": "us",
    "simulator.ads": "count",
    "simulator.warnings": "count",
    "io.write_ads_s": "s",
    "io.read_ads_s": "s",
    "io.records_s": "s",
    "io.ads_bytes": "bytes",
    "io.skipped_lines": "count",
    "edge.run_edge_s": "s",
    "edge.self_s": "s",
    "edge.us_per_ad": "us",
    "edge.sessions": "count",
    "edge.reports": "count",
    "ekf.replay_s": "s",
    "ekf.steps": "count",
    "ekf.ns_per_step": "ns",
    "matcher.build_s": "s",
    "matcher.solve_s": "s",
    "matcher.ms_per_event": "ms",
    "matcher.events": "count",
    "matcher.max_event": "count",
    "matcher.evaluate_s": "s",
    "matcher.unassigned": "count",
    "matcher.warnings": "count",
    "cli.other_s": "s",
    "bench.pipeline_s": "s",
    "bench.trace_overhead_s": "s",
}


@dataclass
class Run:
    """What one benchmark run measured and how many of its calls failed."""

    metrics: dict[str, float] = field(default_factory=dict)
    pipeline_times: list[float] = field(default_factory=list)
    #: Each untraced call's wall time over the mean of the reference loops flanking it.
    ref_ratios: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        self.notes.append(f"FAILED {what}: {why}")


def call_pipeline(scenario_path: Path, out: Path, seed: int) -> tuple[int, float, str]:
    """One in-process ``proxmatch pipeline`` call: (exit code, seconds, captured output)."""
    argv = ["pipeline", str(scenario_path), "--out-dir", str(out), "--seed", str(seed)]
    captured = stdio.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # counted by the traced run
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse rejects its input this way
                code = e.code if isinstance(e.code, int) else 1
            elapsed = perf_counter() - t0
    return code, elapsed, captured.getvalue()


def setup_time(params: dict, work: Path, expected: bytes, i: int) -> float:
    """Wall time of one fresh process that imports proxmatch.cli and builds and
    writes the scenario JSON, which must equal ``expected``."""
    out = work / f"setup-{i}.json"
    t0 = perf_counter()
    # Capturing the output makes the wait end on the pipes' EOF; without
    # it, waiting with a timeout polls in steps of up to 50 ms.
    probe = subprocess.run(
        [sys.executable, "-m", "perfbench.setup_probe", json.dumps(params), str(out)],
        cwd=ROOT,
        capture_output=True,
        timeout=60,
    )
    elapsed = perf_counter() - t0
    if probe.returncode != 0:
        raise RuntimeError(f"set-up process failed: {probe.stderr.decode()[-500:]}")
    if out.read_bytes() != expected:
        raise RuntimeError(f"set-up process wrote a different scenario to {out}")
    return elapsed


def _room(t_start: float, last_s: float, seconds: float) -> bool:
    """Whether another step as long as the last one still ends within ``seconds``."""
    return perf_counter() - t_start + last_s <= seconds


def _passed(run: Run, what: str, verify) -> bool:
    """Count one pipeline call as attempted, and as failed when ``verify`` raises CheckFailed."""
    run.attempted += 1
    try:
        verify()
    except CheckFailed as e:
        run.fail(what, str(e))
        return False
    return True


def _exited(code: int, output: str) -> None:
    if code != 0:
        raise CheckFailed(f"exit code {code}: {output.strip()[-500:]}")


def batch_seeds(seed: int) -> list[int]:
    """The pipeline seeds of one untraced run: BATCH of them, disjoint between runs."""
    return [seed * BATCH + j for j in range(BATCH)]


def measure_plain(params: dict, seed: int, seconds: float, recorded: dict, work: Path) -> Run:
    """Untraced closed loop over the batch's seeds in turn: the end-to-end metrics."""
    run = Run()
    scenario_path = work / "scenario.json"
    io.write_scenario(scenario_path, workloads.scenario(params))
    expected = scenario_path.read_bytes()
    seeds = batch_seeds(seed)

    ref_code, _, ref_output = call_pipeline(scenario_path, work / "ref", recorded["seed"])
    calls = []  # (seed, exit code, output, files hash)
    loops = [reference_loop()]  # loops[k] and loops[k + 1] flank call k
    setup: list[float] = []
    t_start = perf_counter()
    while len(calls) < len(seeds) or _room(t_start, step_s, seconds):
        s = seeds[len(calls) % len(seeds)]
        # The first call on each seed keeps its outputs for the full check.
        out = work / (f"seed-{s}" if len(calls) < len(seeds) else "loop")
        t0 = perf_counter()
        code, elapsed, output = call_pipeline(scenario_path, out, s)
        loops.append(reference_loop())
        run.pipeline_times.append(elapsed)
        calls.append((s, code, output, files_hash(out) if code == 0 else None))
        if len(setup) < SETUP_RUNS and t0 - t_start >= len(setup) * seconds / SETUP_RUNS:
            setup.append(setup_time(params, work, expected, len(setup)))
        step_s = perf_counter() - t0
    # Sampled before the checks below, so it is the pipeline's peak, not theirs.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup) < SETUP_RUNS:  # a run too short to spread them all
        setup.append(setup_time(params, work, expected, len(setup)))
    run.ref_ratios = [t / ((a + b) / 2) for t, a, b in zip(run.pipeline_times, loops, loops[1:])]

    def verify(out: Path, code: int, output: str, s: int) -> None:
        _exited(code, output)
        outputs = load(out)
        counts, _ = check(outputs)
        if s == recorded["seed"]:
            check_recorded(outputs, counts, recorded)

    def same_as_first(s: int, code: int, output: str, h: str | None) -> None:
        _exited(code, output)
        if s not in first_hash or h != first_hash[s]:
            raise CheckFailed("outputs differ from the checked first call on this seed")

    _passed(run, f"recorded seed {recorded['seed']}",
            lambda: verify(work / "ref", ref_code, ref_output, recorded["seed"]))
    first_hash = {}
    for k, (s, code, output, h) in enumerate(calls, start=1):
        if k <= len(seeds):
            if _passed(run, f"seed {s} call {k}", lambda: verify(work / f"seed-{s}", code, output, s)):
                first_hash[s] = h
        else:
            _passed(run, f"seed {s} call {k}", lambda: same_as_first(s, code, output, h))

    run.metrics = {
        "pipeline_ref": statistics.median(run.ref_ratios),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    for s in first_hash:
        quality = json.loads((work / f"seed-{s}" / "metrics.json").read_text(encoding="utf-8"))
        run.notes.append(f"seed {s}: " + ", ".join(
            f"{name}_pct {m['percent']} % ({m['ratio']})" if (m := quality[name]) else f"{name}_pct n/a"
            for name in ("accuracy", "precision", "recall")
        ))
    run.notes.append(f"setup_s samples {[round(t, 4) for t in setup]}")
    run.notes.append(f"reference loop median {statistics.median(loops):.4f} s over {len(loops)} loops")
    return run


def _traced_call(run: Run, scenario_path: Path, out: Path, seed: int, recorded: dict):
    """One traced replica, checked; (trace, counts, replay seconds) or None when it failed."""
    run.attempted += 1
    try:
        t = traced_pipeline(scenario_path, out, seed)
    except Exception as e:  # the pipeline failed inside: a failed call, not a benchmark error
        run.fail(f"traced seed {seed}", f"{type(e).__name__}: {e}")
        return None
    try:
        counts, replay_s = check_traced(t)
        if seed == recorded["seed"]:
            check_recorded(t.outputs, counts, recorded)
    except CheckFailed as e:
        run.fail(f"traced seed {seed}", str(e))
        return None
    return t, counts, replay_s


def measure_traced(params: dict, seed: int, seconds: float, recorded: dict, work: Path) -> Run:
    """Untraced calls alternating with traced replicas: the per-layer metrics."""
    run = Run()
    scenario_path = work / "scenario.json"
    io.write_scenario(scenario_path, workloads.scenario(params))
    _traced_call(run, scenario_path, work / "ref", recorded["seed"], recorded)

    plain_out, traced_out = work / "plain", work / "traced"
    samples: list[tuple[Traced, float, float]] = []  # (trace, replay seconds, paired untraced call)
    counts = None
    t_start = perf_counter()
    while not samples or _room(t_start, pair_s, seconds):
        t0 = perf_counter()
        code, elapsed, output = call_pipeline(scenario_path, plain_out, seed)
        run.pipeline_times.append(elapsed)
        if not _passed(run, f"seed {seed} untraced", lambda: _exited(code, output)):
            break
        sample = _traced_call(run, scenario_path, traced_out, seed, recorded)
        if sample is None:
            break
        t, sample_counts, replay_s = sample
        if files_hash(plain_out) != files_hash(traced_out) or counts not in (None, sample_counts):
            run.fail(f"seed {seed} traced", "replica's outputs or counts differ from the untraced call's")
            break
        counts = sample_counts
        samples.append((t, replay_s, elapsed))
        pair_s = perf_counter() - t0

    if not samples:
        run.notes.append("no traced call passed its check; per-layer metrics not measured")
        return run
    med = {name: statistics.median(t.spans[name] for t, _, _ in samples) for name in SPANS}
    replay_s = statistics.median(r for _, r, _ in samples)
    pipeline_s = statistics.median(run.pipeline_times)
    traced_s = statistics.median(t.total_s for t, _, _ in samples)
    m = {**med, **counts}
    m.update({
        "simulator.us_per_ad": med["simulator.generate_s"] / counts["simulator.ads"] * 1e6,
        "edge.self_s": med["edge.run_edge_s"] - replay_s,
        "edge.us_per_ad": med["edge.run_edge_s"] / counts["simulator.ads"] * 1e6,
        "ekf.replay_s": replay_s,
        "ekf.ns_per_step": replay_s / counts["ekf.steps"] * 1e9,
        "matcher.ms_per_event": med["matcher.solve_s"] / counts["matcher.events"] * 1e3,
        # Measured inside each traced call: a difference between separate calls
        # would be dominated by the machine's call-to-call speed changes.
        "cli.other_s": statistics.median(t.total_s - sum(t.spans.values()) for t, _, _ in samples),
        "bench.pipeline_s": pipeline_s,
        # Paired with the untraced call just before, which ran at a similar machine speed.
        "bench.trace_overhead_s": statistics.median(t.total_s - plain for t, _, plain in samples),
    })
    run.metrics = {name: m[name] for name in LAYER_UNITS}
    run.notes.append(
        f"accounting (medians of {len(samples)} pair(s)): spans {sum(med.values()):.4f} s"
        f" + cli.other_s {m['cli.other_s']:.4f} s = {sum(med.values()) + m['cli.other_s']:.4f} s"
        f" against traced total {traced_s:.4f} s and untraced pipeline_s {pipeline_s:.4f} s"
    )
    return run


def iqr_share(values: list[float]) -> float | None:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def stamp(loadavg: tuple[float, float, float], run: Run) -> dict:
    """Where and how steadily this result was measured."""
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    times = run.pipeline_times
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": list(loadavg),
        "pipeline_s_calls": len(times),
        "pipeline_s_min": min(times, default=None),
        "pipeline_s_max": max(times, default=None),
        "pipeline_s_iqr_share": iqr_share(times),
        "pipeline_ref_iqr_share": iqr_share(run.ref_ratios),
    }


def tail(values: list[float], unit: str) -> str:
    """The highest percentile with at least ten samples beyond it, or the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 20:
        return f"p{100 * (n - 10) // n} {ordered[n - 11]:.4f} {unit}"
    return f"max {ordered[-1]:.4f} {unit} (a percentile with ten samples beyond it needs n >= 20)"


def measure(name: str, params: dict, seed: int, seconds: float, trace: bool, recorded: dict) -> None:
    """Run one workload and print its report, ending with the result object."""
    loadavg = os.getloadavg()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        run = (measure_traced if trace else measure_plain)(params, seed, seconds, recorded, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    units = LAYER_UNITS if trace else E2E_UNITS
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    print("stamp " + json.dumps(stamp(loadavg, run)))
    for metric, values, unit in (("pipeline_s", run.pipeline_times, "s"), ("pipeline_ref", run.ref_ratios, "ref")):
        if values:
            print(f"{metric} median {statistics.median(values):.4f} {unit}, {tail(values, unit)}, n={len(values)}")
    for metric, value in run.metrics.items():
        print(f"{metric} {value!r} {units[metric]}")
    print(f"failed_share {run.failed / run.attempted!r} ({run.failed} of {run.attempted} calls)")
    print(f"pipeline_s samples {[round(t, 4) for t in run.pipeline_times]}")
    for note in run.notes:
        print(note)
    complete = set(run.metrics) == set(units)
    result = {
        "correct": run.failed == 0 and complete,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in run.metrics.items()},
    }
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    spec = workloads.load()["workloads"]
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = spec[args.workload]
    measure(args.workload, w["params"], args.seed, args.seconds, bool(args.trace), w["recorded"])
    return 0
