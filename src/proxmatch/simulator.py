"""Synthetic advertisement streams with constructed ground truth.

Scenarios place workers and tagged tools on a 2-D floor, schedule active
periods for each tool, and synthesize the advertisements every badge would
hear: the path-loss mean at the true distance plus independent Gaussian noise
in dB, optionally thinned by random reception loss. The constructed truth
records who operated what and exposes true distances for error analysis.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from .edge import SESSION_GAP_S, Activity, Advertisement
from .matcher import TruthRecord
from .pathloss import DEFAULT_MODEL, PathLossModel

__all__ = [
    "ADV_INTERVAL_S",
    "GroundTruth",
    "NOISE_STD_DB",
    "OPERATING_DISTANCE_M",
    "ScenarioConfig",
    "ScheduleSegment",
    "ToolSpec",
    "Trace",
    "V_MAX_M_S",
    "WorkerSpec",
    "generate",
    "scenario_static",
    "scenario_swap",
]

#: Tag broadcast period.
ADV_INTERVAL_S = 7.0
#: Measurement noise matching the calibration residual spread (sqrt(48.92) dB).
NOISE_STD_DB = 6.99
#: How far a hand-held tool sits from its operator's badge.
OPERATING_DISTANCE_M = 0.3
#: True distances below this are floored; the log model diverges at zero and
#: two real devices are never co-located.
MIN_TRUE_DISTANCE_M = 0.05
#: Walking-speed bound used for trace sanity checks.
V_MAX_M_S = 0.7

_RSSI_MIN, _RSSI_MAX = -127.0, 20.0


@dataclass(frozen=True)
class Trace:
    """Piecewise-linear 2-D path given as ((ts, x, y), ...) knots.

    Positions clamp to the first/last knot outside the knot range, so a
    single knot is a fixed position.
    """

    knots: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.knots:
            raise ValueError("a trace needs at least one knot")
        for (t0, *_), (t1, *_) in zip(self.knots, self.knots[1:]):
            if not t1 > t0:
                raise ValueError(f"trace knots must have strictly increasing timestamps ({t1} after {t0})")
        for t, x, y in self.knots:
            if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"trace knots must be finite, got {(t, x, y)}")

    @classmethod
    def stationary(cls, x: float, y: float) -> Trace:
        return cls(((0.0, x, y),))

    @cached_property
    def _knot_times(self) -> tuple[float, ...]:
        return tuple(t for t, _, _ in self.knots)

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
        j = bisect_left(self._knot_times, ts)
        (t0, x0, y0), (t1, x1, y1) = knots[j - 1], knots[j]
        a = (ts - t0) / (t1 - t0)
        return x0 + a * (x1 - x0), y0 + a * (y1 - y0)

    def max_speed(self) -> float:
        """Largest segment speed in m/s; 0 for a single-knot trace."""
        best = 0.0
        for (t0, x0, y0), (t1, x1, y1) in zip(self.knots, self.knots[1:]):
            best = max(best, math.hypot(x1 - x0, y1 - y0) / (t1 - t0))
        return best


@dataclass(frozen=True)
class ScheduleSegment:
    """Active period [start, stop) of a tool, broadcast with ``activity``.

    ``operator`` names the worker actually using the tool during the segment,
    for ground truth; None infers the nearest worker over the segment.
    """

    start: float
    stop: float
    activity: Activity = Activity.USAGE
    operator: str | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and self.start <= self.stop):
            raise ValueError(f"segment needs start <= stop, got [{self.start}, {self.stop})")
        if self.activity is Activity.INACTIVE:
            raise ValueError("segments describe active periods; gaps are the inactivity")


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
    """Complete description of one synthetic run."""

    seed: int
    duration: float
    workers: tuple[WorkerSpec, ...]
    tools: tuple[ToolSpec, ...]
    adv_interval: float = ADV_INTERVAL_S
    noise_std: float = NOISE_STD_DB
    drop_prob: float = 0.0
    model: PathLossModel = field(default_factory=lambda: DEFAULT_MODEL)

    def __post_init__(self) -> None:
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError(f"duration must be finite and nonnegative, got {self.duration}")
        if not (math.isfinite(self.adv_interval) and self.adv_interval > 0):
            raise ValueError(f"broadcast interval must be finite and positive, got {self.adv_interval}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise std must be finite and nonnegative, got {self.noise_std}")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError(f"drop probability must lie in [0, 1), got {self.drop_prob}")
        worker_ids = [w.id for w in self.workers]
        tool_ids = [t.id for t in self.tools]
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

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "duration_s": self.duration,
            "adv_interval_s": self.adv_interval,
            "noise_std_db": self.noise_std,
            "drop_prob": self.drop_prob,
            "model": self.model.to_dict(),
            "workers": [
                {"id": w.id, "trace": [list(k) for k in w.trace.knots]} for w in self.workers
            ],
            "tools": [
                {
                    "id": t.id,
                    "trace": [list(k) for k in t.trace.knots],
                    "schedule": [
                        {
                            "start_s": s.start,
                            "stop_s": s.stop,
                            "activity": s.activity.value,
                            "operator": s.operator,
                        }
                        for s in t.schedule
                    ],
                }
                for t in self.tools
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> ScenarioConfig:
        def trace(knots: list) -> Trace:
            return Trace(tuple((float(t), float(x), float(y)) for t, x, y in knots))

        return cls(
            seed=int(d["seed"]),
            duration=float(d["duration_s"]),
            adv_interval=float(d["adv_interval_s"]),
            noise_std=float(d["noise_std_db"]),
            drop_prob=float(d["drop_prob"]),
            model=PathLossModel.from_dict(d["model"]),
            workers=tuple(
                WorkerSpec(id=str(w["id"]), trace=trace(w["trace"])) for w in d["workers"]
            ),
            tools=tuple(
                ToolSpec(
                    id=str(t["id"]),
                    trace=trace(t["trace"]),
                    schedule=tuple(
                        ScheduleSegment(
                            start=float(s["start_s"]),
                            stop=float(s["stop_s"]),
                            activity=Activity(s["activity"]),
                            operator=None if s.get("operator") is None else str(s["operator"]),
                        )
                        for s in t["schedule"]
                    ),
                )
                for t in d["tools"]
            ),
        )


@dataclass(frozen=True)
class GroundTruth:
    """Constructed truth: session operators plus true-distance lookup, with
    the true distances ``generate`` floored and the ids of traces faster than
    ``V_MAX_M_S`` (workers by id, then tools by id)."""

    sessions: tuple[TruthRecord, ...]
    worker_traces: dict[str, Trace]
    tool_traces: dict[str, Trace]
    floored: int = 0
    too_fast: tuple[str, ...] = ()

    def true_distance(self, wearable: str, tag: str, ts: float) -> float:
        """Floored Euclidean distance between a badge and a tag at ``ts``."""
        wx, wy = self.worker_traces[wearable].position(ts)
        tx, ty = self.tool_traces[tag].position(ts)
        return _floored_distance(tx, ty, wx, wy)[0]


def _segment_instants(seg: ScheduleSegment, interval: float) -> list[float]:
    """Broadcast instants of one segment: multiples of the interval from its
    start, half-open so a zero-length segment broadcasts nothing."""
    out = []
    k = 0
    while True:
        t = seg.start + k * interval
        if t >= seg.stop:
            return out
        out.append(t)
        k += 1


def _floored_distance(tx: float, ty: float, wx: float, wy: float) -> tuple[float, bool]:
    """True distance, raised to ``MIN_TRUE_DISTANCE_M``, and whether it was."""
    d = math.hypot(tx - wx, ty - wy)
    if d < MIN_TRUE_DISTANCE_M:
        return MIN_TRUE_DISTANCE_M, True
    return d, False


def generate(config: ScenarioConfig) -> tuple[list[Advertisement], GroundTruth]:
    """Synthesize the advertisement stream a seeded scenario run describes.

    Every active segment broadcasts at multiples of the interval from its
    start; every worker hears every broadcast through its own independent
    noise draw, optionally dropped with the configured probability. Draws
    happen in a fixed order (tools by id, instants ascending, workers by id;
    noise before drop), so a seed pins the byte-exact stream. RSSI values
    are clamped to the plausible radio range [-127, 20] dB. Floored
    distances and too-fast traces are reported in the returned
    ``GroundTruth``.

    Each segment is handled as one (instants x workers) batch. Distances
    and model means stay Python floats: hoisted once per tool for a
    stationary pair, otherwise from a worker position computed once per
    instant and shared by every tool. Without drop, the segment's noise is
    one array draw in that order, added to the means and clamped as
    arrays, which gives the scalar draws, sums and clamps value for value.
    With drop, each reading keeps its own normal then uniform draw.
    """
    # Imported here, not at module level: only the seeded stream needs numpy.
    import numpy as np

    rng = np.random.default_rng(config.seed)
    workers = sorted(config.workers, key=lambda w: w.id)
    tools = sorted(config.tools, key=lambda t: t.id)
    worker_ids = [w.id for w in workers]
    forward = config.model.forward
    std, drop_prob = config.noise_std, config.drop_prob
    # Each worker's position by instant, shared by every tool.
    positions: list[dict[float, tuple[float, float]]] = [{} for _ in workers]

    ads: list[Advertisement] = []
    truth_sessions: list[TruthRecord] = []
    floored = 0

    for tool in tools:
        # (distance, floored, model mean) of each worker whose distance to
        # the tool cannot change because both traces are a single knot.
        fixed: list[tuple[float, bool, float] | None] = []
        for w in workers:
            if len(tool.trace.knots) == len(w.trace.knots) == 1:
                d, floor = _floored_distance(*tool.trace.knots[0][1:], *w.trace.knots[0][1:])
                fixed.append((d, floor, forward(d)))
            else:
                fixed.append(None)
        moving = None in fixed
        for seg in tool.schedule:
            instants = _segment_instants(seg, config.adv_interval)
            if not instants:
                continue
            # (distance, floored, model mean) per instant and worker
            if moving:
                rows = []
                for ts in instants:
                    tx, ty = tool.trace.position(ts)
                    row = []
                    for w, memo, pair in zip(workers, positions, fixed):
                        if pair is None:
                            pos = memo.get(ts)
                            if pos is None:
                                pos = memo[ts] = w.trace.position(ts)
                            d, floor = _floored_distance(tx, ty, *pos)
                            pair = (d, floor, forward(d))
                        floored += pair[1]
                        row.append(pair)
                    rows.append(row)
                means = [[mean for _, _, mean in row] for row in rows]
            else:
                rows = [fixed] * len(instants)
                floored += len(instants) * sum(floor for _, floor, _ in fixed)
                means = [mean for _, _, mean in fixed]  # broadcast over the instants
            activity = seg.activity
            if drop_prob == 0:
                rssi = np.clip(
                    np.array(means) + rng.normal(0.0, std, size=(len(instants), len(workers))),
                    _RSSI_MIN,
                    _RSSI_MAX,
                ).tolist()
                ads += [
                    Advertisement(ts, wid, tool.id, r, activity)
                    for ts, values in zip(instants, rssi)
                    for wid, r in zip(worker_ids, values)
                ]
            else:
                for ts, row in zip(instants, rows):
                    for wid, (_, _, mean) in zip(worker_ids, row):
                        r = mean + rng.normal(0.0, std)
                        if rng.uniform() < drop_prob:
                            continue
                        if r < _RSSI_MIN:
                            r = _RSSI_MIN
                        elif r > _RSSI_MAX:
                            r = _RSSI_MAX
                        ads.append(Advertisement(ts, wid, tool.id, r, activity))
            if activity is Activity.USAGE:
                operator = seg.operator
                if operator is None:
                    if not workers:
                        raise ValueError("cannot infer an operator without workers")
                    mean_dist = {wid: 0.0 for wid in worker_ids}
                    for row in rows:
                        for wid, (d, _, _) in zip(worker_ids, row):
                            mean_dist[wid] += d
                    operator = min(mean_dist, key=lambda wid: (mean_dist[wid], wid))
                truth_sessions.append(
                    TruthRecord(tag=tool.id, start=instants[0], stop=instants[-1], wearable=operator)
                )

    # Tools come in id order, workers in id order and each tool's instants
    # strictly increase, so a stable sort on ts alone orders by (ts, tag,
    # wearable).
    ads.sort(key=itemgetter(0))
    truth_sessions.sort(key=lambda t: (t.start, t.stop, t.tag))
    return ads, GroundTruth(
        sessions=tuple(truth_sessions),
        worker_traces={w.id: w.trace for w in workers},
        tool_traces={t.id: t.trace for t in tools},
        floored=floored,
        too_fast=tuple(
            s.id for s in (*workers, *tools) if s.trace.max_speed() > V_MAX_M_S + 1e-9
        ),
    )


def scenario_static(
    n_workers: int,
    spacing: float,
    duration: float,
    bystanders: int = 0,
    *,
    seed: int = 0,
    adv_interval: float = ADV_INTERVAL_S,
    noise_std: float = NOISE_STD_DB,
    drop_prob: float = 0.0,
    model: PathLossModel = DEFAULT_MODEL,
    operating_distance: float = OPERATING_DISTANCE_M,
) -> ScenarioConfig:
    """A row of stationary workers, each operating their own tool throughout.

    Worker i stands at (i * spacing, 0) with tool Ti+1 a hand's reach away at
    (i * spacing, operating_distance), active for the whole duration.
    Bystanders extend the row beyond the last worker: they wear badges and
    hear every broadcast but operate nothing.
    """
    if n_workers < 1:
        raise ValueError(f"need at least one worker, got {n_workers}")
    if bystanders < 0:
        raise ValueError(f"bystander count must be nonnegative, got {bystanders}")
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be finite and positive, got {spacing}")
    workers = [
        WorkerSpec(id=f"W{i + 1}", trace=Trace.stationary(i * spacing, 0.0))
        for i in range(n_workers)
    ]
    workers += [
        WorkerSpec(id=f"B{b + 1}", trace=Trace.stationary((n_workers + b) * spacing, 0.0))
        for b in range(bystanders)
    ]
    tools = [
        ToolSpec(
            id=f"T{i + 1}",
            trace=Trace.stationary(i * spacing, operating_distance),
            schedule=(ScheduleSegment(start=0.0, stop=duration, operator=f"W{i + 1}"),),
        )
        for i in range(n_workers)
    ]
    return ScenarioConfig(
        seed=seed,
        duration=duration,
        workers=tuple(workers),
        tools=tuple(tools),
        adv_interval=adv_interval,
        noise_std=noise_std,
        drop_prob=drop_prob,
        model=model,
    )


def scenario_swap(
    n_workers: int,
    spacing: float,
    swap_times: Sequence[float],
    *,
    duration: float = 360.0,
    gap: float = 22.0,
    seed: int = 0,
    adv_interval: float = ADV_INTERVAL_S,
    noise_std: float = NOISE_STD_DB,
    drop_prob: float = 0.0,
    model: PathLossModel = DEFAULT_MODEL,
    operating_distance: float = OPERATING_DISTANCE_M,
) -> ScenarioConfig:
    """Workers trade tools cyclically at each swap time.

    Tools sit at fixed stations spacing apart. Before every swap the tools
    pause for ``gap`` seconds while the workers walk one station to the
    right (wrapping around), so each tool's activity splits into one session
    per period and reactivates under the next operator: in period k, tool
    Tj+1 is operated by worker W((j - k) mod n + 1).

    The pause must exceed the session gap or the swap would not split
    sessions; with no swap times this reduces to the static scenario.
    """
    if n_workers < 2:
        raise ValueError(f"swapping needs at least two workers, got {n_workers}")
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be finite and positive, got {spacing}")
    if not (math.isfinite(gap) and gap > SESSION_GAP_S):
        raise ValueError(f"swap pause must exceed the {SESSION_GAP_S:g} s session gap, got {gap}")
    swaps = [float(t) for t in swap_times]
    if any(b <= a for a, b in zip(swaps, swaps[1:])):
        raise ValueError(f"swap times must be strictly increasing, got {swaps}")
    if swaps and (swaps[0] <= gap or swaps[-1] >= duration):
        raise ValueError(
            f"swap times must leave a nonempty period before and after, "
            f"got {swaps} with pause {gap} in duration {duration}"
        )
    for a, b in zip(swaps, swaps[1:]):
        if b - gap <= a:
            raise ValueError(f"swaps at {a} and {b} are closer than the {gap} s pause")

    boundaries = [0.0, *swaps, float(duration)]
    n_periods = len(boundaries) - 1

    def station(x_index: int) -> tuple[float, float]:
        return x_index * spacing, 0.0

    workers = []
    for w in range(n_workers):
        knots: list[tuple[float, float, float]] = [(0.0, *station(w))]
        for k in range(1, n_periods):
            prev = station((w + k - 1) % n_workers)
            cur = station((w + k) % n_workers)
            knots.append((boundaries[k] - gap, *prev))
            knots.append((boundaries[k], *cur))
        workers.append(WorkerSpec(id=f"W{w + 1}", trace=Trace(tuple(knots))))

    tools = []
    for j in range(n_workers):
        segments = []
        for k in range(n_periods):
            start = boundaries[k]
            stop = boundaries[k + 1] - gap if k < n_periods - 1 else boundaries[k + 1]
            segments.append(
                ScheduleSegment(
                    start=start,
                    stop=stop,
                    operator=f"W{(j - k) % n_workers + 1}",
                )
            )
        tools.append(
            ToolSpec(
                id=f"T{j + 1}",
                trace=Trace.stationary(j * spacing, operating_distance),
                schedule=tuple(segments),
            )
        )
    return ScenarioConfig(
        seed=seed,
        duration=float(duration),
        workers=tuple(workers),
        tools=tuple(tools),
        adv_interval=adv_interval,
        noise_std=noise_std,
        drop_prob=drop_prob,
        model=model,
    )
