"""Output check for one pipeline run.

On any seed the outputs must satisfy invariants: no skipped advertisement
lines, one match per truth session, ``metrics.json`` equal to ``evaluate`` on
the read-back files, and a replay of every report's observations through
``ekf.step`` that reproduces its distance bit for bit. On the recorded seed a
digest of the decision fields must also equal the recorded one. Everything
is read back through the ``io`` readers, so fields added to a record format
later do not trip the digest.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from proxmatch import ekf, io
from proxmatch.edge import ACTIVE_DEFAULT, Advertisement, DistanceReport
from proxmatch.ekf import EkfParams
from proxmatch.matcher import EVENT_WINDOW_S, MatchResult, TruthRecord, evaluate


class CheckFailed(Exception):
    """The pipeline's outputs are wrong."""


@dataclass
class Outputs:
    """One run's output files, read back through the ``io`` readers."""

    ads: list[Advertisement]
    skipped: int
    ads_bytes: int
    truth: list[TruthRecord]
    reports: list[DistanceReport]
    matches: list[MatchResult]
    metrics: dict


def load(out_dir: Path) -> Outputs:
    try:
        ads, skipped = io.read_advertisements(out_dir / "advertisements.jsonl")
        return Outputs(
            ads=ads,
            skipped=len(skipped),
            ads_bytes=(out_dir / "advertisements.jsonl").stat().st_size,
            truth=io.read_truth(out_dir / "truth.jsonl"),
            reports=io.read_reports(out_dir / "reports.jsonl"),
            matches=io.read_matches(out_dir / "matches.jsonl"),
            metrics=read_metrics(out_dir),
        )
    except (ValueError, OSError) as e:
        raise CheckFailed(f"outputs do not read back: {e}") from e


def read_metrics(out_dir: Path) -> dict:
    with open(out_dir / "metrics.json", encoding="utf-8") as f:
        return json.load(f)


def files_hash(out_dir: Path) -> str:
    """Hash of every output file's bytes; repeated calls must write identical files."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def digest(reports: list[DistanceReport], matches: list[MatchResult]) -> str:
    """SHA-256 over the decision fields of reports and matches."""
    h = hashlib.sha256()
    for r in reports:
        h.update(f"R|{r.wearable}|{r.tag}|{r.start!r}|{r.stop!r}|{r.distance!r}|{r.n_obs}\n".encode())
    for m in matches:
        h.update(f"M|{m.tag}|{m.start!r}|{m.stop!r}|{m.wearable}|{m.trust.value}|{m.margin!r}\n".encode())
    return h.hexdigest()


def replay(ads: list[Advertisement], reports: list[DistanceReport]) -> tuple[float, int]:
    """Re-run every report's filter through ``ekf.step``; (seconds in the steps, steps).

    The observations of a report are the active broadcasts its badge heard
    inside the session window, in stream order, as the pipeline defines them.
    """
    heard: dict[tuple[str, str], list[Advertisement]] = defaultdict(list)
    for a in sorted(ads, key=lambda a: a.ts):
        if a.activity in ACTIVE_DEFAULT:
            heard[(a.tag, a.wearable)].append(a)
    times = {key: [a.ts for a in seq] for key, seq in heard.items()}
    observations = []
    for r in reports:
        key = (r.tag, r.wearable)
        lo = bisect.bisect_left(times.get(key, []), r.start)
        hi = bisect.bisect_right(times.get(key, []), r.stop)
        observations.append([(a.rssi, a.ts) for a in heard[key][lo:hi]])

    params = EkfParams()
    finals = []
    t0 = perf_counter()
    for obs in observations:
        state = None
        for rssi, ts in obs:
            state = ekf.step(state, rssi, ts, params)
        finals.append(state)
    elapsed = perf_counter() - t0

    for r, obs, state in zip(reports, observations, finals):
        if len(obs) != r.n_obs or state is None or state.x != r.distance:
            got = None if state is None else state.x
            raise CheckFailed(
                f"replay of {r.wearable}/{r.tag}@[{r.start}, {r.stop}] gives "
                f"{got!r} from {len(obs)} observation(s); report says {r.distance!r} from {r.n_obs}"
            )
    return elapsed, sum(len(obs) for obs in observations)


def event_sizes(matches: list[MatchResult]) -> list[int]:
    """Sizes of the events the matcher solves: sessions starting within one window."""
    starts = sorted((m.start, m.stop, m.tag) for m in matches)
    sizes = []
    i = 0
    while i < len(starts):
        j = i + 1
        while j < len(starts) and starts[j][0] - starts[i][0] <= EVENT_WINDOW_S:
            j += 1
        sizes.append(j - i)
        i = j
    return sizes


def check(out: Outputs) -> tuple[dict, float]:
    """Verify the invariants that hold on any seed.

    Returns the deterministic counts and the seconds the ``ekf`` replay took.
    Raises CheckFailed on the first violation.
    """
    if out.skipped:
        raise CheckFailed(f"{out.skipped} advertisement line(s) skipped on read-back")
    sessions = Counter((t.tag, t.start, t.stop) for t in out.truth)
    matched = Counter((m.tag, m.start, m.stop) for m in out.matches)
    if sessions != matched:
        raise CheckFailed(
            f"{len(out.matches)} match(es) for {len(out.truth)} truth session(s); "
            f"{sum((sessions - matched).values())} session(s) without exactly one match"
        )
    expected_metrics = evaluate(out.matches, out.truth).to_dict()
    if out.metrics != expected_metrics:
        raise CheckFailed(f"metrics.json {out.metrics} != evaluate on read-back files {expected_metrics}")
    replay_s, steps = replay(out.ads, out.reports)
    sizes = event_sizes(out.matches)
    counts = {
        "simulator.ads": len(out.ads),
        "io.ads_bytes": out.ads_bytes,
        "io.skipped_lines": out.skipped,
        "edge.sessions": len({(r.tag, r.start, r.stop) for r in out.reports}),
        "edge.reports": len(out.reports),
        "ekf.steps": steps,
        "matcher.events": len(sizes),
        "matcher.max_event": max(sizes, default=0),
        "matcher.unassigned": sum(1 for m in out.matches if m.wearable is None),
    }
    return counts, replay_s


def check_recorded(out: Outputs, counts: dict, recorded: dict) -> None:
    """On the recorded seed: the decision digest and every count measured must repeat exactly."""
    got = digest(out.reports, out.matches)
    if got != recorded["digest"]:
        raise CheckFailed(f"decision digest {got} != recorded {recorded['digest']}")
    for name, value in counts.items():
        if recorded["counts"].get(name, value) != value:
            raise CheckFailed(f"{name} = {value}, recorded {recorded['counts'][name]}")
