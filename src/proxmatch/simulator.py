"""Synthetic advertisement streams with constructed ground truth.

Scenarios place workers and tagged tools on a 2-D floor, schedule active
periods for each tool, and synthesize the advertisements every badge would
hear: the path-loss mean at the true distance plus independent Gaussian noise
in dB, optionally thinned by random reception loss. The constructed truth
records who operated what and exposes true distances for error analysis.
Two Monte Carlo chains score the rest of the pipeline against that truth
over seed batches: ``pooled_matching`` and ``ranging_band``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain, groupby
from typing import Callable, Iterable, NamedTuple, Sequence

from .edge import (ADV_INTERVAL_S, RSSI_MAX_DB, RSSI_MIN_DB, SESSION_GAP_S, Activity, DistanceReport, Grid,
                   Instants, _id, _number, _window, run_edge)
from .matcher import EvalReport, MatchProblem, TruthRecord, evaluate, solve
from .pathloss import DEFAULT_MODEL, PathLossModel

__all__ = [
    "ADV_INTERVAL_S",
    "GroundTruth",
    "NOISE_STD_DB",
    "OPERATING_DISTANCE_M",
    "SWAP_PAUSE_S",
    "ScenarioConfig",
    "ScheduleSegment",
    "ToolSpec",
    "Trace",
    "V_MAX_M_S",
    "WorkerSpec",
    "generate",
    "pooled_matching",
    "ranging_band",
    "scenario_static",
    "scenario_swap",
]

#: Measurement noise matching the calibration residual spread (sqrt(48.92) dB).
NOISE_STD_DB = 6.99
#: How far a hand-held tool sits from its operator's badge.
OPERATING_DISTANCE_M = 0.3
#: True distances below this are floored; the log model diverges at zero and
#: two real devices are never co-located.
MIN_TRUE_DISTANCE_M = 0.05
#: Walking-speed bound used for trace sanity checks.
V_MAX_M_S = 0.7
#: Tool pause at each swap, longer than the session gap so that it splits sessions.
SWAP_PAUSE_S = SESSION_GAP_S + 1.0
#: Seed of ranging band 0's true-distance draws; band k draws from this plus k.
RANGING_SEED = 20260819


@dataclass(frozen=True)
class Trace:
    """Piecewise-linear 2-D path given as ((ts, x, y), ...) knots.

    Positions clamp to the first/last knot outside the knot range, so a
    single knot is a fixed position.

    Construction checks the knots in one pass, in order: each value is a
    number under ``edge._number``'s rule and finite, and the timestamps
    strictly increase. The knots are stored as a tuple of float triples,
    so any sequence of three-item sequences (JSON lists too) may be given.
    The same pass records ``times``, the knot times; ``moving``, the knot
    intervals (t0, t1) whose end positions differ, in order; and
    ``max_speed``, the largest segment speed in m/s (0 for a single knot).
    Equality and hash depend on ``knots`` alone.
    """

    knots: tuple[tuple[float, float, float], ...]
    times: tuple[float, ...] = field(init=False, repr=False, compare=False)
    moving: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    max_speed: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        knots, moving, best = [], [], 0.0
        t0 = x0 = y0 = -math.inf
        for t, x, y in self.knots:
            if type(t) is not float:
                t = _number(t, "trace knot")
            if type(x) is not float:
                x = _number(x, "trace knot")
            if type(y) is not float:
                y = _number(y, "trace knot")
            if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"trace knots must be finite, got {(t, x, y)}")
            if not t > t0:
                raise ValueError(f"trace knots must have strictly increasing timestamps ({t} after {t0})")
            # a still interval has speed 0, which never raises the maximum
            if knots and (x != x0 or y != y0):
                moving.append((t0, t))
                best = max(best, math.hypot(x - x0, y - y0) / (t - t0))
            knots.append((t, x, y))
            t0, x0, y0 = t, x, y
        if not knots:
            raise ValueError("a trace needs at least one knot")
        object.__setattr__(self, "knots", tuple(knots))
        object.__setattr__(self, "times", tuple(t for t, _, _ in knots))
        object.__setattr__(self, "moving", tuple(moving))
        object.__setattr__(self, "max_speed", best)

    @classmethod
    def stationary(cls, x: float, y: float) -> Trace:
        return cls(((0.0, x, y),))

    def position(self, ts: float) -> tuple[float, float]:
        """Interpolated position at ``ts``.

        Inside the knot range the segment is the first one whose end is at
        or after ``ts``, found by bisection over the knot times, so a knot
        instant interpolates on the segment that ends there.
        """
        knots = self.knots
        if ts <= knots[0][0]:
            return knots[0][1], knots[0][2]
        if ts >= knots[-1][0]:
            return knots[-1][1], knots[-1][2]
        if ts != ts:
            raise ValueError("trace position needs a timestamp, got NaN")
        j = bisect_left(self.times, ts)
        (t0, x0, y0), (t1, x1, y1) = knots[j - 1], knots[j]
        a = (ts - t0) / (t1 - t0)
        return x0 + a * (x1 - x0), y0 + a * (y1 - y0)


class _ScheduleSegmentFields(NamedTuple):
    start: float
    stop: float
    activity: Activity = Activity.USAGE
    operator: str | None = None


class ScheduleSegment(_ScheduleSegmentFields):
    """Active period [start, stop) of a tool, broadcast with ``activity``.

    ``operator`` names the worker actually using the tool during the segment,
    for ground truth; None infers the nearest worker over the segment.

    A named tuple whose constructor checks, positionally or by keyword, the
    window and the ids as ``edge.DistanceReport``'s does (``operator`` may
    be None) and that ``activity`` is an ``Activity`` other than INACTIVE;
    ``_make`` and ``_replace`` build instances without the checks.
    """

    __slots__ = ()

    def __new__(
        cls, start: float, stop: float, activity: Activity = Activity.USAGE, operator: str | None = None
    ) -> ScheduleSegment:
        start, stop = _window(start, stop)
        if type(activity) is not Activity:
            raise ValueError(f"activity must be an Activity, got {activity!r}")
        if activity is Activity.INACTIVE:
            raise ValueError("segments describe active periods; gaps are the inactivity")
        if operator is not None and type(operator) is not str:
            _id(operator, "operator")
        return tuple.__new__(cls, (start, stop, activity, operator))


@dataclass(frozen=True)
class WorkerSpec:
    id: str
    trace: Trace


@dataclass(frozen=True)
class ToolSpec:
    id: str
    trace: Trace
    schedule: tuple[ScheduleSegment, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.schedule, self.schedule[1:]):
            if b.start < a.stop:
                raise ValueError(
                    f"schedule segments must be sorted and non-overlapping, "
                    f"got [{a.start}, {a.stop}) then [{b.start}, {b.stop})"
                )


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one synthetic run. Its numbers follow
    ``edge._number``'s rule and are stored as floats."""

    seed: int
    duration: float
    workers: tuple[WorkerSpec, ...]
    tools: tuple[ToolSpec, ...]
    adv_interval: float = ADV_INTERVAL_S
    noise_std: float = NOISE_STD_DB
    drop_prob: float = 0.0
    model: PathLossModel = field(default_factory=lambda: DEFAULT_MODEL)

    def __post_init__(self) -> None:
        if not (type(self.seed) is int and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name in ("duration", "adv_interval", "noise_std", "drop_prob"):
            value = getattr(self, name)
            if type(value) is not float:
                object.__setattr__(self, name, _number(value, name))
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError(f"duration must be finite and nonnegative, got {self.duration}")
        if not (math.isfinite(self.adv_interval) and self.adv_interval > 0):
            raise ValueError(f"broadcast interval must be finite and positive, got {self.adv_interval}")
        # ``_segment_instants`` finds a segment's count of instants through
        # floats, which hold every integer only below 2**53
        if not self.duration / self.adv_interval < 2.0**53:
            raise ValueError(
                f"adv_interval must leave fewer than 2**53 broadcasts in the duration, "
                f"got {self.adv_interval} for duration {self.duration}"
            )
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise std must be finite and nonnegative, got {self.noise_std}")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError(f"drop probability must lie in [0, 1), got {self.drop_prob}")
        worker_ids = [w.id for w in self.workers]
        tool_ids = [t.id for t in self.tools]
        for i in worker_ids + tool_ids:
            if type(i) is not str:
                raise ValueError(f"worker and tool ids must be strings, got {i!r}")
        if len(set(worker_ids)) != len(worker_ids) or len(set(tool_ids)) != len(tool_ids):
            raise ValueError("worker and tool ids must be unique")
        if set(worker_ids) & set(tool_ids):
            raise ValueError("worker and tool ids must not collide")
        for t in self.tools:
            for seg in t.schedule:
                if seg.start < 0 or seg.stop > self.duration:
                    raise ValueError(
                        f"segment [{seg.start}, {seg.stop}) of tool {t.id!r} "
                        f"lies outside the scenario duration {self.duration}"
                    )
                if seg.operator is not None and seg.operator not in worker_ids:
                    raise ValueError(
                        f"segment operator {seg.operator!r} of tool {t.id!r} is not a worker id"
                    )


@dataclass(frozen=True)
class GroundTruth:
    """Constructed truth: session operators plus true-distance lookup, with
    the true distances ``generate`` floored and the ids of traces faster than
    ``V_MAX_M_S`` (workers by id, then tools by id).

    ``true_distances`` gives several (wearable, tag) pairs' distances at one
    instant, placing each trace there once for pairs ordered by tag;
    ``true_distance`` is its one-pair case."""

    sessions: tuple[TruthRecord, ...]
    worker_traces: dict[str, Trace]
    tool_traces: dict[str, Trace]
    floored: int = 0
    too_fast: tuple[str, ...] = ()

    def true_distance(self, wearable: str, tag: str, ts: float) -> float:
        """Floored Euclidean distance between a badge and a tag at ``ts``."""
        return self.true_distances(((wearable, tag),), ts)[0]

    def true_distances(self, pairs: Iterable[tuple[str, str]], ts: float) -> list[float]:
        """``true_distance`` of each (wearable, tag) pair at ``ts``, in order.
        Each badge's position is computed once, each tag's once per run of
        consecutive pairs that hold the same tag object, as pairs ordered
        by tag give them."""
        worker_traces, tool_traces = self.worker_traces, self.tool_traces
        badges: dict[str, tuple[float, float]] = {}
        out, last_tag = [], None
        for wearable, tag in pairs:
            if tag is not last_tag:
                last_tag = tag
                tx, ty = tool_traces[tag].position(ts)
            badge = badges.get(wearable)
            if badge is None:
                badge = badges[wearable] = worker_traces[wearable].position(ts)
            wx, wy = badge
            out.append(_floored_distance(tx, ty, wx, wy)[0])
        return out


def _segment_instants(seg: ScheduleSegment, interval: float) -> list[float]:
    """Broadcast instants of one segment: multiples of the interval from its
    start, half-open so a zero-length segment broadcasts nothing.

    ``start + k * interval`` never decreases in ``k``, so the instants
    before ``stop`` are the first ``n`` of them: the ceiling of the span
    over the interval, moved by the rounding of the sums. ``ScenarioConfig``
    keeps that ceiling below 2**53, where every integer is a float of its
    own, so no step of ``n`` is lost when it converts."""
    start, stop = seg.start, seg.stop
    n = math.ceil((stop - start) / interval)
    while n and start + (n - 1) * interval >= stop:
        n -= 1
    while start + n * interval < stop:
        n += 1
    return [start + k * interval for k in range(n)]


def _floored_distance(tx: float, ty: float, wx: float, wy: float) -> tuple[float, bool]:
    """True distance, raised to ``MIN_TRUE_DISTANCE_M``, and whether it was."""
    d = math.hypot(tx - wx, ty - wy)
    if d < MIN_TRUE_DISTANCE_M:
        return MIN_TRUE_DISTANCE_M, True
    return d, False


def _still_stretches(instants: list[float],
                     events: Sequence[tuple[Sequence[float], Sequence[tuple[float, float]]]],
                     starts: list[int]) -> list[int]:
    """Bounds that cut the strictly increasing ``instants`` into stretches
    at which every trace's ``position`` returns the same value, given
    (knot times, moving intervals) of the traces, each sorted, as a
    ``Trace`` records them: cuts at ``starts`` (which hold 0), on both
    sides of each knot time in the window, so a knot instant stands alone,
    and around each instant inside a knot interval whose end positions
    differ. A knot or interval outside the window cuts at 0 or at the end,
    which are cuts already, so only those that reach into it are used."""
    first, last = instants[0], instants[-1]
    cuts = {*starts, len(instants)}
    for times, moving in events:
        for t0, t1 in moving[:bisect_right(moving, (last, math.inf))]:
            cuts.update(range(bisect_right(instants, t0), bisect_left(instants, t1)))
        for t in times[bisect_left(times, first):bisect_right(times, last)]:
            cuts.add(bisect_left(instants, t))
            cuts.add(bisect_right(instants, t))
    return sorted(cuts)


def generate(config: ScenarioConfig) -> tuple[list[Grid], GroundTruth]:
    """Synthesize the advertisement stream a seeded scenario run describes.

    Every active segment broadcasts at multiples of the interval from its
    start; every worker hears every broadcast through its own independent
    noise draw, optionally dropped with the configured probability. Draws
    happen in a fixed order (tools by id, instants ascending, workers by id;
    noise before drop), so a seed pins the byte-exact stream. RSSI values
    are clamped to the plausible radio range [-127, 20] dB. Floored
    distances and too-fast traces are reported in the returned
    ``GroundTruth``.

    The stream comes as ``Grid``s, tool after tool and each tool's in time
    order, one or more per run of consecutive segments with one activity:
    without drop, one heard by every worker; with drop, one per worker that
    heard any of the run, holding the instants it heard, workers by id. The
    records the grids hold, stably sorted by ``ts``, are the file
    ``io.write_advertisements`` writes, which is thus ordered by (ts, tag,
    wearable).

    A tool's instants, segment after segment, strictly increase; they are
    cut once into still stretches, at which no trace moves and which never
    span two segments. The instants, each segment's span of them, the cut
    and the workers' positions at each stretch start are computed once per
    distinct schedule in a call: tools with the same segment windows and the
    same knot times and moving intervals (the tools of a swap row) share
    them, and a grid of all of a tool's instants holds the shared
    ``Instants`` object itself. Distances and model means stay Python
    floats, computed once per distinct layout (the tool's position and
    every worker's) in a call. Without drop, a tool's noise is one array
    draw in draw order, added to its stretch means repeated per instant and
    clamped as arrays, which gives the scalar draws, sums and clamps value
    for value. With drop, each reading keeps its own normal then uniform
    draw.
    """
    # Imported here, not at module level: only the seeded stream needs numpy.
    import numpy as np

    rng = np.random.default_rng(config.seed)
    workers = sorted(config.workers, key=lambda w: w.id)
    tools = sorted(config.tools, key=lambda t: t.id)
    worker_ids = [w.id for w in workers]
    n = len(workers)
    forward = config.model.forward
    std, drop_prob = config.noise_std, config.drop_prob

    grids: list[Grid] = []
    truth_sessions: list[TruthRecord] = []
    floored = 0
    # (tool x, tool y, worker x, worker y, ...) -> (distances, means, floored distances)
    layouts: dict[tuple[float, ...], tuple[list[float], list[float], int]] = {}
    worker_events = (sorted({t for w in workers for t in w.trace.times}),
                     sorted({ab for w in workers for ab in w.trace.moving}))
    # (each segment's (start, stop), the tool's knot times, its moving
    # intervals) -> (instants, spans, bounds, worker positions): the tool's
    # instants, (index, first, end) per segment that has instants[first:end],
    # the still-stretch cut, and [worker x, worker y, ...] at each stretch
    # start; () for a schedule without instants. Windows and knots only
    # enter sums and comparisons, in which 0.0 and -0.0 agree, as they do
    # in the key, whose floats compare and hash by value. The positions are
    # lists, not tuples, which freed together at the end of the call would
    # stay in the interpreter's tuple free list and raise the peak RSS of
    # later calls.
    schedules: dict[tuple, tuple] = {}

    for tool in tools:
        trace, schedule = tool.trace, tool.schedule
        schedule_key = (tuple(seg[:2] for seg in schedule), trace.times, trace.moving)
        entry = schedules.get(schedule_key)
        if entry is None:
            instants, spans = [], []
            for i, seg in enumerate(schedule):
                first = len(instants)
                instants += _segment_instants(seg, config.adv_interval)
                if len(instants) > first:
                    spans.append((i, first, len(instants)))
            entry = ()
            if instants:
                bounds = _still_stretches(instants, ((trace.times, trace.moving), worker_events),
                                          [first for _, first, _ in spans])
                entry = (Instants(instants), spans, bounds, [
                    list(chain.from_iterable(w.trace.position(instants[lo]) for w in workers))
                    for lo in bounds[:-1]])
            schedules[schedule_key] = entry
        if not entry:
            continue
        instants, spans, bounds, worker_positions = entry
        segments = [(schedule[i], first, end) for i, first, end in spans]
        # a stretch is (lo, hi, distances, means): instants[lo:hi] and each
        # worker's floored distance and model mean there
        stretches = []
        for lo, hi, workers_at in zip(bounds, bounds[1:], worker_positions):
            key = (*trace.position(instants[lo]), *workers_at)
            layout = layouts.get(key)
            if layout is None:
                tx, ty = key[0], key[1]
                dists, floors = [], 0
                for wx, wy in zip(key[2::2], key[3::2]):
                    d, floor = _floored_distance(tx, ty, wx, wy)
                    floors += floor
                    dists.append(d)
                layout = layouts[key] = dists, [forward(d) for d in dists], floors
            floored += (hi - lo) * layout[2]
            stretches.append((lo, hi, layout[0], layout[1]))
        if drop_prob == 0 and n:
            means = np.repeat([m for *_, m in stretches], [hi - lo for lo, hi, *_ in stretches], axis=0)
            means += rng.normal(0.0, std, size=means.shape)
            rssi = np.clip(means, RSSI_MIN_DB, RSSI_MAX_DB, out=means).ravel().tolist()
        for activity, run in groupby(segments, key=lambda s: s[0].activity):
            run = list(run)
            lo, hi = run[0][1], run[-1][2]
            if drop_prob == 0:
                if n:
                    # a grid of all the instants holds the shared ``Instants``,
                    # so the writer sees the tools that share it share them
                    own = instants if hi - lo == len(instants) else instants[lo:hi]
                    grids.append(Grid(own, worker_ids, tool.id, rssi[lo * n:hi * n], activity))
                continue
            # each worker's (instants, values) heard in the run; every segment
            # start and end is a bound, so the run's stretches are a slice
            heard = [([], []) for _ in workers]
            for s_lo, s_hi, _, means in stretches[bisect_left(bounds, lo):bisect_left(bounds, hi)]:
                for ts in instants[s_lo:s_hi]:
                    for (own_ts, values), mean in zip(heard, means):
                        r = mean + rng.normal(0.0, std)
                        if rng.uniform() < drop_prob:
                            continue
                        if r < RSSI_MIN_DB:
                            r = RSSI_MIN_DB
                        elif r > RSSI_MAX_DB:
                            r = RSSI_MAX_DB
                        own_ts.append(ts)
                        values.append(r)
            grids += [Grid(own_ts, (wid,), tool.id, values, activity)
                      for wid, (own_ts, values) in zip(worker_ids, heard) if own_ts]
        for seg, first, end in segments:
            if seg.activity is Activity.USAGE:
                operator = seg.operator
                if operator is None:
                    if not workers:
                        raise ValueError("cannot infer an operator without workers")
                    mean_dist = {wid: 0.0 for wid in worker_ids}
                    # every segment start is a bound, so its stretches are a slice
                    own = stretches[bisect_left(bounds, first):bisect_left(bounds, end)]
                    for lo, hi, dists, _ in own:
                        for _ in range(lo, hi):
                            for wid, d in zip(worker_ids, dists):
                                mean_dist[wid] += d
                    operator = min(mean_dist, key=lambda wid: (mean_dist[wid], wid))
                truth_sessions.append(
                    TruthRecord(tag=tool.id, start=instants[first], stop=instants[end - 1],
                                wearable=operator)
                )

    truth_sessions.sort(key=lambda t: (t.start, t.stop, t.tag))
    return grids, GroundTruth(
        sessions=tuple(truth_sessions),
        worker_traces={w.id: w.trace for w in workers},
        tool_traces={t.id: t.trace for t in tools},
        floored=floored,
        too_fast=tuple(
            s.id for s in (*workers, *tools) if s.trace.max_speed > V_MAX_M_S + 1e-9
        ),
    )


def scenario_static(
    n_workers: int,
    spacing: float,
    duration: float,
    bystanders: int = 0,
    *,
    seed: int = 0,
    noise_std: float = NOISE_STD_DB,
    drop_prob: float = 0.0,
    operating_distance: float = OPERATING_DISTANCE_M,
) -> ScenarioConfig:
    """A row of stationary workers, each operating their own tool throughout:
    the layout of ``_row`` with no swaps, the tools ``operating_distance``
    off the row and ``bystanders`` badges beyond the last worker.
    """
    if n_workers < 1:
        raise ValueError(f"need at least one worker, got {n_workers}")
    if bystanders < 0:
        raise ValueError(f"bystander count must be nonnegative, got {bystanders}")
    return _row(n_workers, spacing, [], duration, bystanders, operating_distance,
                seed, noise_std, drop_prob)


def scenario_swap(
    n_workers: int,
    spacing: float,
    swap_times: Sequence[float],
    *,
    duration: float = 360.0,
    seed: int = 0,
    noise_std: float = NOISE_STD_DB,
    drop_prob: float = 0.0,
) -> ScenarioConfig:
    """Workers trade tools cyclically at each swap time, with no bystanders
    and the tools ``OPERATING_DISTANCE_M`` off the row; see ``_row``."""
    if n_workers < 2:
        raise ValueError(f"swapping needs at least two workers, got {n_workers}")
    duration = _number(duration, "duration")
    swaps = [_number(t, "swap time") for t in swap_times]
    for t in swaps:
        if not math.isfinite(t):
            raise ValueError(f"swap times must be finite, got {t} in {swaps}")
    if any(b <= a for a, b in zip(swaps, swaps[1:])):
        raise ValueError(f"swap times must be strictly increasing, got {swaps}")
    if swaps and (swaps[0] <= SWAP_PAUSE_S or swaps[-1] >= duration):
        raise ValueError(
            f"swap times must leave a nonempty period before and after, "
            f"got {swaps} with pause {SWAP_PAUSE_S} in duration {duration}"
        )
    for a, b in zip(swaps, swaps[1:]):
        if b - SWAP_PAUSE_S <= a:
            raise ValueError(f"swaps at {a} and {b} are closer than the {SWAP_PAUSE_S} s pause")
    return _row(n_workers, spacing, swaps, duration, 0, OPERATING_DISTANCE_M,
                seed, noise_std, drop_prob)


def _row(n_workers: int, spacing: float, swaps: list[float], duration: float, bystanders: int,
         operating_distance: float, seed: int, noise_std: float, drop_prob: float) -> ScenarioConfig:
    """Workers W1..Wn start at (i * spacing, 0), bystanders B1.. stand
    further along the row and tool Tj+1 is fixed at (j * spacing,
    ``operating_distance``).

    The swap times cut the duration into periods. Before every swap the
    tools pause for ``SWAP_PAUSE_S`` seconds while the workers walk one
    station to the right (wrapping around), so each tool's activity splits
    into one session per period and reactivates under the next operator: in
    period k, tool Tj+1 is operated by worker W((j - k) mod n + 1).
    Bystanders hear every broadcast but operate nothing.
    """
    spacing, duration = _number(spacing, "spacing"), _number(duration, "duration")
    operating_distance = _number(operating_distance, "operating_distance")
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be finite and positive, got {spacing}")
    workers = []
    for w in range(n_workers):
        knots: list[tuple[float, float, float]] = [(0.0, w * spacing, 0.0)]
        for k, t in enumerate(swaps, start=1):
            knots.append((t - SWAP_PAUSE_S, (w + k - 1) % n_workers * spacing, 0.0))
            knots.append((t, (w + k) % n_workers * spacing, 0.0))
        workers.append(WorkerSpec(id=f"W{w + 1}", trace=Trace(tuple(knots))))
    workers += [
        WorkerSpec(id=f"B{b + 1}", trace=Trace.stationary((n_workers + b) * spacing, 0.0))
        for b in range(bystanders)
    ]
    periods = list(enumerate(zip([0.0, *swaps], [t - SWAP_PAUSE_S for t in swaps] + [duration])))
    tools = [
        ToolSpec(
            id=f"T{j + 1}",
            trace=Trace.stationary(j * spacing, operating_distance),
            schedule=tuple(
                ScheduleSegment(start, stop, operator=f"W{(j - k) % n_workers + 1}")
                for k, (start, stop) in periods
            ),
        )
        for j in range(n_workers)
    ]
    return ScenarioConfig(
        seed=seed,
        duration=duration,
        workers=tuple(workers),
        tools=tuple(tools),
        noise_std=noise_std,
        drop_prob=drop_prob,
    )


def pooled_matching(make_config: Callable[[int], ScenarioConfig], n_seeds: int) -> EvalReport:
    """The whole chain (``generate``, ``run_edge``, ``solve``, ``evaluate``)
    on the scenario ``make_config(seed)`` of each seed in ``range(n_seeds)``,
    its reports summed into one."""
    pooled = EvalReport(0, 0, 0, 0)
    for seed in range(n_seeds):
        grids, truth = generate(make_config(seed))
        pooled += evaluate(solve(MatchProblem.from_reports(run_edge(grids))), truth.sessions)
    return pooled


def ranging_band(band: int, lo: float, hi: float, n_sessions: int) -> list[tuple[DistanceReport, float]]:
    """Ranging band ``band``: ``n_sessions`` stationary one-worker sessions
    of 182 s (26 broadcasts), each with its single report and its true
    distance.

    Session ``j`` puts the tool at a true distance drawn uniformly from
    [lo, hi) by ``np.random.default_rng(RANGING_SEED + band)``, one draw
    per session in order, and runs on scenario seed ``1000 * band + j``,
    so each band's batch is the same whatever other bands run, and no two
    bands share a seed. More than 1000 sessions, or a session that does not
    give exactly one report, raises ``ValueError``.
    """
    if n_sessions > 1000:
        raise ValueError(f"at most 1000 sessions per band (seed 1000*band + j), got {n_sessions}")
    # Imported here, not at module level: only the seeded stream needs numpy.
    import numpy as np

    draw = np.random.default_rng(RANGING_SEED + band)
    samples = []
    for j in range(n_sessions):
        true_d = float(draw.uniform(lo, hi))
        grids, _ = generate(scenario_static(1, 1.0, 182.0, seed=1000 * band + j, operating_distance=true_d))
        (report,) = run_edge(grids)
        samples.append((report, true_d))
    return samples
