import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxmatch import io, simulator
from proxmatch.edge import ADV_INTERVAL_S, SESSION_GAP_S, Activity, Advertisement, Grid, run_edge
from proxmatch.matcher import TruthRecord
from proxmatch.pathloss import DEFAULT_MODEL, PathLossModel
from proxmatch.simulator import (
    MIN_TRUE_DISTANCE_M,
    SWAP_PAUSE_S,
    V_MAX_M_S,
    GroundTruth,
    ScenarioConfig,
    ScheduleSegment,
    ToolSpec,
    Trace,
    WorkerSpec,
    generate,
    scenario_static,
    scenario_swap,
)


def file_order(grids):
    """The records the grids hold, in the order ``io.write_advertisements``
    writes them: a stable sort on ``ts``."""
    return sorted((a for g in grids for a in g), key=lambda a: a.ts)


class TestTrace:
    def test_interpolation_and_clamping(self):
        tr = Trace(((0.0, 0.0, 0.0), (10.0, 4.0, 2.0)))
        assert tr.position(-5.0) == (0.0, 0.0)
        assert tr.position(0.0) == (0.0, 0.0)
        assert tr.position(5.0) == (2.0, 1.0)
        assert tr.position(10.0) == (4.0, 2.0)
        assert tr.position(99.0) == (4.0, 2.0)

    def test_single_knot_is_stationary(self):
        tr = Trace.stationary(3.0, -1.0)
        assert tr.position(0.0) == tr.position(1e6) == (3.0, -1.0)
        assert tr.max_speed == 0.0

    def test_max_speed(self):
        tr = Trace(((0.0, 0.0, 0.0), (10.0, 3.0, 4.0)))  # 5 m in 10 s
        assert tr.max_speed == pytest.approx(0.5)

    def test_bisection_matches_a_linear_scan(self):
        def scan(knots, ts):
            """Reference: the first segment whose end is at or after ts."""
            if ts <= knots[0][0]:
                return knots[0][1], knots[0][2]
            if ts >= knots[-1][0]:
                return knots[-1][1], knots[-1][2]
            for (t0, x0, y0), (t1, x1, y1) in zip(knots, knots[1:]):
                if t0 <= ts <= t1:
                    a = (ts - t0) / (t1 - t0)
                    return x0 + a * (x1 - x0), y0 + a * (y1 - y0)
            raise AssertionError(ts)

        cfg = scenario_swap(3, 2.0, [100.0 * k for k in range(1, 20)], duration=2000.0)
        for w in cfg.workers:
            knots = w.trace.knots
            assert len(knots) == 39
            for t, _, _ in knots:
                for ts in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf), t + 0.5):
                    assert w.trace.position(ts) == scan(knots, ts), (w.id, ts)

    def test_nan_time_is_an_error(self):
        tr = Trace(((0.0, 0.0, 0.0), (10.0, 4.0, 2.0)))
        with pytest.raises(ValueError):
            tr.position(math.nan)

    def test_validation(self):
        with pytest.raises(ValueError):
            Trace(())
        with pytest.raises(ValueError):
            Trace(((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
        with pytest.raises(ValueError):
            Trace(((0.0, math.nan, 0.0),))

    @pytest.mark.parametrize("knots, error", [
        (((0, True, 1),), "trace knot must be a number, got True"),
        ((("0", 1.0, 1.0),), "trace knot must be a number, got '0'"),
        (((0.0, 1.0, None),), "trace knot must be a number, got None"),
        (((0.0, 1.0, 1.0), (5.0, 1.0, math.inf)), r"trace knots must be finite, got \(5.0, 1.0, inf\)"),
        (((0.0, 1.0, 1.0), (5.0, 1.0, 1.0), (5.0, 2.0, 1.0)),
         r"strictly increasing timestamps \(5.0 after 5.0\)"),
        (((0.0, 1.0, 1.0), (-1.0, 1.0, 1.0)), r"strictly increasing timestamps \(-1.0 after 0.0\)"),
        (((0.0, 1.0),), "not enough values to unpack"),
    ])
    def test_each_knot_follows_the_number_rule(self, knots, error):
        with pytest.raises(ValueError, match=error):
            Trace(knots)

    def test_knots_are_stored_as_float_tuples(self):
        """JSON lists and ``int`` values give the trace a float caller's
        values give it, and write the same scenario bytes."""
        trace = Trace([[0, 1, 2], [10, 3, 4.5]])
        assert trace == Trace(((0.0, 1.0, 2.0), (10.0, 3.0, 4.5)))
        assert type(trace.knots) is tuple
        assert all(type(k) is tuple and all(type(v) is float for v in k) for k in trace.knots)
        assert trace.position(5) == (2.0, 3.25)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_recorded_knot_facts_match_the_per_pair_loops(self, data):
        """``times``, ``moving`` and ``max_speed`` equal, bit for bit, the
        loops over knot pairs that computed them before ``Trace`` recorded
        them; equality, hash and repr still see the knots alone."""
        def knot_events(knots):
            """Reference: the knot times and moving intervals of one trace,
            as sorted sets."""
            times: set[float] = set()
            moving: set[tuple[float, float]] = set()
            knot_times = tuple(t for t, _, _ in knots)
            times.update(knot_times)
            for j in range(1, len(knots)):
                if knots[j - 1][1:] != knots[j][1:]:
                    moving.add((knot_times[j - 1], knot_times[j]))
            return sorted(times), sorted(moving)

        def max_speed(knots):
            """Reference: the largest segment speed, 0 for a single knot."""
            best = 0.0
            for (t0, x0, y0), (t1, x1, y1) in zip(knots, knots[1:]):
                best = max(best, math.hypot(x1 - x0, y1 - y0) / (t1 - t0))
            return best

        finite = st.floats(allow_nan=False, allow_infinity=False)
        coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), finite)
        times = sorted(data.draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 7.0]), finite),
                                          min_size=1, max_size=6, unique=True)))
        knots = []
        for t in times:
            if knots and data.draw(st.booleans()):
                # the previous position, its zeros maybe of the other sign
                x, y = (-v if v == 0 and data.draw(st.booleans()) else v for v in knots[-1][1:])
            else:
                x, y = data.draw(coord), data.draw(coord)
            knots.append((t, x, y))
        trace = Trace(knots)
        want_times, want_moving = knot_events(trace.knots)
        assert repr(trace.times) == repr(tuple(want_times))
        assert repr(trace.moving) == repr(tuple(want_moving))
        assert repr(trace.max_speed) == repr(max_speed(trace.knots))

        other = Trace(knots)
        object.__setattr__(other, "max_speed", trace.max_speed + 1.0)
        object.__setattr__(other, "moving", ())
        assert other == trace and hash(other) == hash(trace) == hash((trace.knots,))
        assert repr(other) == f"Trace(knots={trace.knots!r})"


class TestSpecs:
    def test_segment_validation(self):
        with pytest.raises(ValueError):
            ScheduleSegment(start=10.0, stop=5.0)
        with pytest.raises(ValueError):
            ScheduleSegment(start=0.0, stop=5.0, activity=Activity.INACTIVE)
        # the id and number rules of the records, which io.read_scenario relies on
        for bad, error in [
            ({"start": True}, "start must be a number, got True"),
            ({"stop": False}, "stop must be a number, got False"),
            ({"start": "0"}, "start must be a number, got '0'"),
            ({"stop": None}, "stop must be a number, got None"),
            ({"operator": 7}, "operator must be a string, got 7"),
            ({"operator": ["W1"]}, r"operator must be a string, got \['W1'\]"),
            ({"activity": "usage"}, "activity must be an Activity, got 'usage'"),
            ({"activity": None}, "activity must be an Activity, got None"),
        ]:
            fields = {"start": 0.0, "stop": 5.0, "activity": Activity.USAGE, "operator": None, **bad}
            with pytest.raises(ValueError, match=error):
                ScheduleSegment(**fields)
            with pytest.raises(ValueError, match=error):
                ScheduleSegment(*fields.values())
        segment = ScheduleSegment(0, 5, operator="W1")
        assert segment == (0.0, 5.0, Activity.USAGE, "W1")
        assert type(segment.start) is float and type(segment.stop) is float

    def test_schedule_must_be_sorted_and_disjoint(self):
        with pytest.raises(ValueError):
            ToolSpec(
                id="T1",
                trace=Trace.stationary(0.0, 0.0),
                schedule=(
                    ScheduleSegment(start=0.0, stop=50.0),
                    ScheduleSegment(start=40.0, stop=90.0),
                ),
            )

    def test_config_validation(self):
        w = WorkerSpec(id="W1", trace=Trace.stationary(0.0, 0.0))
        t = ToolSpec(
            id="T1",
            trace=Trace.stationary(0.0, 0.3),
            schedule=(ScheduleSegment(start=0.0, stop=100.0),),
        )
        ok = dict(seed=0, duration=100.0, workers=(w,), tools=(t,))
        ScenarioConfig(**ok)
        with pytest.raises(ValueError):
            ScenarioConfig(**{**ok, "duration": 50.0})  # segment sticks out
        with pytest.raises(ValueError):
            ScenarioConfig(**{**ok, "workers": (w, w)})  # duplicate id
        with pytest.raises(ValueError):
            ScenarioConfig(**{**ok, "drop_prob": 1.0})
        with pytest.raises(ValueError):
            ScenarioConfig(**{**ok, "noise_std": -1.0})
        with pytest.raises(ValueError):
            ScenarioConfig(**{**ok, "seed": -1})
        with pytest.raises(ValueError):
            ScenarioConfig(**{**ok, "adv_interval": 0.0})
        bad_op = ToolSpec(
            id="T1", trace=t.trace,
            schedule=(ScheduleSegment(start=0.0, stop=100.0, operator="W9"),),
        )
        with pytest.raises(ValueError):
            ScenarioConfig(**{**ok, "tools": (bad_op,)})
        # read_scenario takes only an int seed and string ids, so that is all
        # a config may hold: whatever write_scenario writes reads back
        for bad in (
            {"seed": True},
            {"seed": 1.0},
            {"workers": (WorkerSpec(id=7, trace=w.trace),)},
            {"workers": (WorkerSpec(id=None, trace=w.trace),)},
            {"tools": (ToolSpec(id=7, trace=t.trace),)},
        ):
            with pytest.raises(ValueError, match="seed must be|ids must be strings"):
                ScenarioConfig(**{**ok, **bad})

    @pytest.mark.parametrize("duration, interval", [(10.0, 1e-300), (1e300, ADV_INTERVAL_S), (2.0**53, 1.0)])
    def test_a_broadcast_count_of_2_53_or_more_is_rejected(self, duration, interval):
        """Below 2**53 each count of instants is a float of its own; from
        there on ``_segment_instants`` could not count a segment's instants.
        No such config is generated here: it would not end."""
        with pytest.raises(ValueError, match=r"^adv_interval must leave fewer than 2\*\*53 broadcasts"):
            ScenarioConfig(seed=0, duration=duration, workers=(), tools=(), adv_interval=interval)
        ScenarioConfig(seed=0, duration=2.0**53 - 1, workers=(), tools=(), adv_interval=1.0)

    @pytest.mark.parametrize("field", ["duration", "adv_interval", "noise_std", "drop_prob"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_config_numbers_follow_the_number_rule(self, field, value):
        w = WorkerSpec(id="W1", trace=Trace.stationary(0.0, 0.0))
        ok = dict(seed=0, duration=100.0, workers=(w,), tools=())
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {value!r}$"):
            ScenarioConfig(**{**ok, field: value})

    def test_int_config_numbers_write_the_same_bytes_as_floats(self, tmp_path):
        base = scenario_static(2, 2.0, 60.0)
        ints = dataclasses.replace(base, duration=60, adv_interval=7, noise_std=7, drop_prob=0)
        floats = dataclasses.replace(base, duration=60.0, adv_interval=7.0, noise_std=7.0, drop_prob=0.0)
        assert ints == floats
        assert all(type(getattr(ints, f)) is float for f in ("duration", "adv_interval", "noise_std", "drop_prob"))
        io.write_scenario(tmp_path / "int.json", ints)
        io.write_scenario(tmp_path / "float.json", floats)
        assert (tmp_path / "int.json").read_bytes() == (tmp_path / "float.json").read_bytes()
        assert io.read_scenario(tmp_path / "int.json") == floats

    def test_a_bool_number_is_rejected_before_it_is_written(self):
        """A config that ``write_scenario`` would write as ``true`` cannot be
        built, so every scenario written reads back."""
        with pytest.raises(ValueError, match="noise_std must be a number, got True"):
            dataclasses.replace(scenario_static(2, 2.0, 60.0), noise_std=True)

    def test_config_json_round_trip(self, tmp_path):
        cfg = scenario_swap(3, 2.0, [120.0, 240.0], seed=5, drop_prob=0.1)
        path = tmp_path / "scenario.json"
        io.write_scenario(path, cfg)
        assert io.read_scenario(path) == cfg


class TestGenerate:
    def test_same_seed_same_stream(self):
        cfg = scenario_static(2, 1.5, 120.0, seed=42, drop_prob=0.2)
        a1, t1 = generate(cfg)
        a2, t2 = generate(cfg)
        assert a1 == a2
        assert t1.sessions == t2.sessions

    def test_different_seed_different_noise(self):
        base = scenario_static(1, 1.0, 60.0, seed=1)
        other = dataclasses.replace(base, seed=2)
        rssi = [[a.rssi for a in file_order(generate(cfg)[0])] for cfg in (base, other)]
        assert rssi[0] != rssi[1]

    def test_noiseless_stream_is_the_model_mean(self):
        cfg = scenario_static(1, 1.0, 63.0, noise_std=0.0, operating_distance=1.0)
        ads = file_order(generate(cfg)[0])
        assert len(ads) == 9  # instants 0, 7, ..., 56
        assert {a.rssi for a in ads} == {-45.6}
        assert all(a.activity is Activity.USAGE for a in ads)

    def test_broadcast_instants_follow_the_schedule(self):
        w = WorkerSpec(id="W1", trace=Trace.stationary(0.0, 0.0))
        t = ToolSpec(
            id="T1",
            trace=Trace.stationary(0.0, 1.0),
            schedule=(
                ScheduleSegment(start=3.0, stop=24.0),
                ScheduleSegment(start=100.0, stop=100.0),  # empty: no broadcasts
                ScheduleSegment(start=200.0, stop=214.1, activity=Activity.TRANSPORT),
            ),
        )
        cfg = ScenarioConfig(seed=0, duration=300.0, workers=(w,), tools=(t,))
        grids, truth = generate(cfg)
        ads = file_order(grids)
        assert [a.ts for a in ads] == [3.0, 10.0, 17.0, 200.0, 207.0, 214.0]
        assert [a.activity for a in ads] == [Activity.USAGE] * 3 + [Activity.TRANSPORT] * 3
        # transport segments produce broadcasts but no operating-truth session
        assert truth.sessions == (TruthRecord(tag="T1", start=3.0, stop=17.0, wearable="W1"),)

    def test_every_worker_hears_every_broadcast(self):
        cfg = scenario_static(3, 2.0, 70.0, bystanders=1, seed=3)
        ads = file_order(generate(cfg)[0])
        # 3 tools x 10 instants x 4 badges
        assert len(ads) == 120
        assert {a.wearable for a in ads} == {"W1", "W2", "W3", "B1"}

    def test_drop_probability_thins_the_stream(self):
        cfg = scenario_static(1, 1.0, 7.0 * 10000, seed=9, drop_prob=0.3)
        grids, truth = generate(cfg)
        kept = sum(map(len, grids)) / 10000
        assert 0.67 < kept < 0.73
        # the one badge's readings in the tool's one activity run are one grid
        assert [g.wearable for g in grids] == ["W1"]
        # truth boundaries come from the schedule, not from what survived
        assert truth.sessions == generate(dataclasses.replace(cfg, drop_prob=0.0))[1].sessions

    def test_noise_calibration(self):
        # 10k draws at a fixed distance: sample std within 3% of the setting.
        d = 2.0
        cfg = scenario_static(1, 1.0, 7.0 * 10000, seed=11, operating_distance=d)
        ads = file_order(generate(cfg)[0])
        res = np.array([a.rssi for a in ads]) - DEFAULT_MODEL.forward(d)
        assert abs(res.mean()) < 0.25
        assert abs(res.std() / 6.99 - 1.0) < 0.03

    def test_residual_variance_matches_the_noise_power(self):
        # Mixed distances, 55k+ samples: mean squared residual near 6.99^2 = 48.86.
        workers = (WorkerSpec(id="W1", trace=Trace.stationary(0.0, 0.0)),)
        tools = tuple(
            ToolSpec(
                id=f"T{i+1:02d}",
                trace=Trace.stationary(0.3 + 0.5 * i, 0.0),
                schedule=(ScheduleSegment(start=0.0, stop=7.0 * 5010),),
            )
            for i in range(11)
        )
        cfg = ScenarioConfig(seed=13, duration=7.0 * 5010, workers=workers, tools=tools)
        grids, truth = generate(cfg)
        ads = file_order(grids)
        assert len(ads) >= 55097
        sq = [
            (a.rssi - DEFAULT_MODEL.forward(truth.true_distances(((a.wearable, a.tag),), a.ts)[0])) ** 2
            for a in ads
        ]
        assert float(np.mean(sq)) == pytest.approx(48.92, abs=2.0)

    def test_colocated_devices_are_floored_and_counted(self):
        cfg = scenario_static(1, 1.0, 21.0, operating_distance=0.0, noise_std=0.0)
        grids, truth = generate(cfg)
        ads = file_order(grids)
        assert truth.floored == 3
        assert truth.too_fast == ()
        assert truth.true_distances((("W1", "T1"),), 0.0)[0] == 0.05
        assert {a.rssi for a in ads} == {DEFAULT_MODEL.forward(0.05)}

    def test_operator_inference_picks_the_nearest_badge(self):
        w1 = WorkerSpec(id="W1", trace=Trace.stationary(0.0, 0.0))
        w2 = WorkerSpec(id="W2", trace=Trace.stationary(5.0, 0.0))
        t = ToolSpec(
            id="T1",
            trace=Trace.stationary(4.5, 0.0),
            schedule=(ScheduleSegment(start=0.0, stop=70.0),),  # no operator given
        )
        cfg = ScenarioConfig(seed=0, duration=70.0, workers=(w1, w2), tools=(t,))
        _, truth = generate(cfg)
        assert truth.sessions[0].wearable == "W2"

    def test_fast_trace_is_reported(self):
        sprinter = WorkerSpec(id="W1", trace=Trace(((0.0, 0.0, 0.0), (1.0, 5.0, 0.0))))
        walker = WorkerSpec(id="W2", trace=Trace(((0.0, 0.0, 1.0), (10.0, 7.0, 1.0))))
        t = ToolSpec(
            id="T1", trace=Trace.stationary(0.0, 0.3),
            schedule=(ScheduleSegment(start=0.0, stop=10.0),),
        )
        cfg = ScenarioConfig(seed=0, duration=10.0, workers=(walker, sprinter), tools=(t,))
        _, truth = generate(cfg)
        assert truth.too_fast == ("W1",)
        assert truth.floored == 0


def while_loop_instants(start, stop, interval):
    """The reference for ``_segment_instants``: step ``k`` from 0 and stop at
    the first ``start + k * interval`` at or after ``stop``."""
    out = []
    k = 0
    while True:
        t = start + k * interval
        if t >= stop:
            return out
        out.append(t)
        k += 1


@st.composite
def instant_spans(draw):
    """(start, stop, interval) of at most about 300 instants: a stop at an
    exact instant ``start + k * interval``, one ulp either side of it, or
    at any span; starts include both zeros and values whose ulp exceeds
    the interval."""
    start = draw(st.one_of(st.sampled_from([0.0, -0.0, 2.0**53, 1e17]),
                           st.floats(-1e6, 1e6), st.floats(1e9, 1e17)))
    interval = draw(st.floats(1e-3, 1e3))
    exact = start + draw(st.integers(0, 300)) * interval
    stop = draw(st.sampled_from([
        exact, math.nextafter(exact, -math.inf), math.nextafter(exact, math.inf),
        start + draw(st.floats(0.0, 300.0)) * interval,
    ]))
    assume(stop >= start)
    return start, stop, interval


class TestSegmentInstants:
    @settings(max_examples=1000, deadline=None)
    @given(instant_spans())
    def test_same_floats_as_the_while_loop(self, span):
        start, stop, interval = span
        got = simulator._segment_instants(ScheduleSegment(start, stop), interval)
        want = while_loop_instants(start, stop, interval)
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_the_rounded_quotient_is_corrected_both_ways(self):
        """0.3 * 6 falls short of 1.8, 0.1 + 0.2 * 3 overshoots 0.7, and at
        1e17 (ulp 16) pairs of 7 s steps round to one instant."""
        for start, stop, interval, n in [(0.0, 21.0, 7.0, 3), (-0.0, 0.0, 7.0, 0), (0.0, 5e-324, 7.0, 1),
                                         (0.0, 1.8, 0.3, 7), (0.1, 0.7, 0.2, 3), (1e17, 1e17 + 64, 7.0, 8)]:
            got = simulator._segment_instants(ScheduleSegment(start, stop), interval)
            assert got == while_loop_instants(start, stop, interval) and len(got) == n


def scalar_generate(config):
    """The reference stream: one scalar ``rng.normal`` per reading (then one
    ``rng.uniform`` when drop is on) and every distance computed afresh at
    every instant. ``generate`` batches the noise and computes distances once
    per still stretch and must reproduce this exactly.

    Returns (ads, truth sessions, floored, too_fast).
    """
    rng = np.random.default_rng(config.seed)
    workers = sorted(config.workers, key=lambda w: w.id)
    tools = sorted(config.tools, key=lambda t: t.id)
    ads, sessions, floored = [], [], 0
    for tool in tools:
        for seg in tool.schedule:
            instants = []
            while seg.start + len(instants) * config.adv_interval < seg.stop:
                instants.append(seg.start + len(instants) * config.adv_interval)
            if not instants:
                continue
            mean_dist = {w.id: 0.0 for w in workers}
            for ts in instants:
                tx, ty = tool.trace.position(ts)
                for w in workers:
                    wx, wy = w.trace.position(ts)
                    d = math.hypot(tx - wx, ty - wy)
                    if d < MIN_TRUE_DISTANCE_M:
                        d = MIN_TRUE_DISTANCE_M
                        floored += 1
                    mean_dist[w.id] += d
                    rssi = config.model.forward(d) + rng.normal(0.0, config.noise_std)
                    dropped = config.drop_prob > 0 and rng.uniform() < config.drop_prob
                    if not dropped:
                        ads.append(
                            Advertisement(
                                ts=ts,
                                wearable=w.id,
                                tag=tool.id,
                                rssi=min(max(rssi, -127.0), 20.0),
                                activity=seg.activity,
                            )
                        )
            if seg.activity is Activity.USAGE:
                operator = seg.operator
                if operator is None:
                    operator = min(mean_dist, key=lambda wid: (mean_dist[wid], wid))
                sessions.append(
                    TruthRecord(tag=tool.id, start=instants[0], stop=instants[-1], wearable=operator)
                )
    ads.sort(key=lambda a: (a.ts, a.tag, a.wearable))
    sessions.sort(key=lambda t: (t.start, t.stop, t.tag))
    too_fast = tuple(
        s.id for s in (*workers, *tools) if s.trace.max_speed > V_MAX_M_S + 1e-9
    )
    return ads, tuple(sessions), floored, too_fast


def without_operators(cfg):
    return dataclasses.replace(
        cfg,
        tools=tuple(
            dataclasses.replace(
                t, schedule=tuple(s._replace(operator=None) for s in t.schedule)
            )
            for t in cfg.tools
        ),
    )


def assert_same_stream(cfg):
    grids, truth = generate(cfg)
    assert all(type(g) is Grid for g in grids)
    ads = file_order(grids)
    ref_ads, ref_sessions, ref_floored, ref_too_fast = scalar_generate(cfg)
    # repr tells -0.0 from 0.0 and a numpy scalar from a float
    assert list(map(repr, ads)) == list(map(repr, ref_ads))
    assert all(type(a) is Advertisement for a in ads)
    assert (truth.sessions, truth.floored, truth.too_fast) == (
        ref_sessions, ref_floored, ref_too_fast
    )


def unordered_ids():
    """Tools and workers listed out of id order, with ids whose string order
    differs from their numeric order (``T10`` sorts before ``T2``, ``B1``
    before ``W1``). T10 moves and B1 walks, so every tool hears a moving
    badge at every instant; T2 and T1 share T10's broadcast instants."""
    walk = Trace(((0.0, 4.0, 0.0), (100.0, 2.0, 1.0), (200.0, 0.0, 0.5)))
    workers = (
        WorkerSpec(id="W2", trace=Trace.stationary(2.0, 0.0)),
        WorkerSpec(id="W1", trace=Trace.stationary(0.0, 0.0)),
        WorkerSpec(id="B1", trace=walk),
    )
    tools = (
        ToolSpec(id="T2", trace=Trace.stationary(2.0, 0.3), schedule=(
            ScheduleSegment(0.0, 98.0, operator="W2"),
            ScheduleSegment(140.0, 200.0, activity=Activity.TRANSPORT),
        )),
        ToolSpec(id="T10", trace=Trace(((0.0, 0.0, 0.3), (120.0, 3.0, 0.3))), schedule=(
            ScheduleSegment(0.0, 140.0),
            ScheduleSegment(154.0, 200.0, operator="W1"),
        )),
        ToolSpec(id="T1", trace=Trace.stationary(0.0, 0.3), schedule=(
            ScheduleSegment(14.0, 200.0),
        )),
    )
    return ScenarioConfig(seed=9, duration=200.0, workers=workers, tools=tools)


def stretch_edges():
    """Motion that starts and stops around the broadcasts. W1 stands until
    29 s, after T1's last broadcast at 28 s but before its segment stops at
    30 s, then walks to a knot on the broadcast instant 49 s. T2 moves while
    both workers stand (7 s to 21 s) and rests from 21 s to 35 s, where the
    position at the knot instant (0.4 + (1.7 - 0.4)) is not the one after
    it (1.7); from 42 s it rests on an interval whose knots differ only in
    the sign of zero. All T2's knots are broadcast instants."""
    workers = (
        WorkerSpec(id="W1", trace=Trace(((0.0, -0.0, 0.0), (29.0, -0.0, 0.0), (49.0, 3.0, -0.0)))),
        WorkerSpec(id="W2", trace=Trace.stationary(2.0, -0.0)),
    )
    tools = (
        ToolSpec(id="T1", trace=Trace.stationary(-0.0, 0.3), schedule=(
            ScheduleSegment(0.0, 30.0),
            ScheduleSegment(35.0, 70.0),
        )),
        ToolSpec(id="T2", trace=Trace(
            ((7.0, 0.4, 0.3), (21.0, 1.7, 0.3), (35.0, 1.7, 0.3), (42.0, 0.0, 0.3), (56.0, -0.0, 0.3))
        ), schedule=(
            ScheduleSegment(0.0, 70.0, operator="W2"),
        )),
    )
    return ScenarioConfig(seed=10, duration=70.0, workers=workers, tools=tools)


def segment_runs():
    """Several segments per tool, which ``generate`` handles per tool. T1
    runs usage, usage, transport, a zero-length usage, then usage, each of
    the first three stopping where the next starts. T2 runs two touching
    transports, then a usage and a transport that touch at 56 s, while
    nothing moves. T1 stops moving at 36 s and W1 at 38.5 s, knots in the
    gaps between segments. T1's last segment and T2's usage infer their
    operator."""
    workers = (
        WorkerSpec(id="W1", trace=Trace(((0.0, 0.0, 0.0), (20.0, 0.0, 0.0), (38.5, 1.0, 0.0)))),
        WorkerSpec(id="W2", trace=Trace.stationary(2.0, 0.0)),
    )
    u, t = Activity.USAGE, Activity.TRANSPORT
    tools = (
        ToolSpec(id="T1", trace=Trace(((0.0, 0.0, 0.3), (36.0, 1.0, 0.3), (60.0, 1.0, 0.3))), schedule=(
            ScheduleSegment(0.0, 14.0, u, "W1"),
            ScheduleSegment(14.0, 21.0, u, "W2"),
            ScheduleSegment(21.0, 35.0, t),
            ScheduleSegment(38.0, 38.0, u, "W1"),
            ScheduleSegment(42.0, 63.0, u),
        )),
        ToolSpec(id="T2", trace=Trace.stationary(2.0, 0.3), schedule=(
            ScheduleSegment(3.5, 10.5, t),
            ScheduleSegment(10.5, 24.5, t),
            ScheduleSegment(42.0, 56.0, u),
            ScheduleSegment(56.0, 63.0, t),
        )),
    )
    return ScenarioConfig(seed=11, duration=70.0, workers=workers, tools=tools)


def shared_schedules():
    """T1 and T3 share their segment windows, a zero-length one among
    them, and stand still, T3 with other operators and one it infers. T2's
    first segment stops earlier, and T4's schedule is T1's first segment
    alone. W1 walks through the first segment."""
    workers = (
        WorkerSpec(id="W1", trace=Trace(((0.0, 0.0, 0.0), (10.0, 0.0, 0.0), (24.5, 2.0, 0.0)))),
        WorkerSpec(id="W2", trace=Trace.stationary(2.0, 0.0)),
    )
    u = Activity.USAGE
    tools = (
        ToolSpec(id="T1", trace=Trace.stationary(0.0, 0.3), schedule=(
            ScheduleSegment(0.0, 35.0, u, "W1"),
            ScheduleSegment(38.0, 38.0, u, "W1"),
            ScheduleSegment(42.0, 70.0, u, "W2"),
        )),
        ToolSpec(id="T2", trace=Trace.stationary(1.0, 0.3), schedule=(
            ScheduleSegment(0.0, 28.0, u, "W2"),
            ScheduleSegment(38.0, 38.0, u, "W1"),
            ScheduleSegment(42.0, 70.0, u, "W1"),
        )),
        ToolSpec(id="T3", trace=Trace.stationary(2.0, 0.3), schedule=(
            ScheduleSegment(0.0, 35.0, u, "W2"),
            ScheduleSegment(38.0, 38.0, u, "W2"),
            ScheduleSegment(42.0, 70.0, u),
        )),
        ToolSpec(id="T4", trace=Trace.stationary(3.0, 0.3), schedule=(ScheduleSegment(0.0, 35.0, u, "W2"),)),
    )
    return ScenarioConfig(seed=12, duration=70.0, workers=workers, tools=tools)


def signed_zero_start():
    """T1's schedule starts at -0.0 and T2's, otherwise the same, at 0.0:
    both broadcast first at 0.0, the sum -0.0 + 0 * interval."""
    workers = (WorkerSpec(id="W1", trace=Trace.stationary(0.0, 0.0)),
               WorkerSpec(id="W2", trace=Trace.stationary(2.0, 0.0)))
    tools = (
        ToolSpec(id="T1", trace=Trace.stationary(0.0, 0.3), schedule=(ScheduleSegment(-0.0, 35.0),)),
        ToolSpec(id="T2", trace=Trace.stationary(2.0, 0.3), schedule=(ScheduleSegment(0.0, 35.0),)),
    )
    return ScenarioConfig(seed=13, duration=35.0, workers=workers, tools=tools)


def moving_tool():
    """T1 stands, T2 and T3 move over the same knot interval along
    different paths, and all three share their segment windows: T2 and T3
    share one cut, T1 has its own."""
    workers = (WorkerSpec(id="W1", trace=Trace.stationary(0.0, 0.0)),
               WorkerSpec(id="W2", trace=Trace.stationary(2.0, 0.0)))
    schedule = (ScheduleSegment(0.0, 70.0),)
    tools = (
        ToolSpec(id="T1", trace=Trace.stationary(0.0, 0.3), schedule=schedule),
        ToolSpec(id="T2", trace=Trace(((14.0, 0.0, 0.3), (42.0, 2.0, 0.3))), schedule=schedule),
        ToolSpec(id="T3", trace=Trace(((14.0, 2.0, 0.3), (42.0, 0.5, 0.3))), schedule=schedule),
    )
    return ScenarioConfig(seed=14, duration=70.0, workers=workers, tools=tools)


def zero_length_schedules():
    """T1 and T3 share a schedule of zero-length segments, which broadcasts
    nothing, and T2, between them in id order, broadcasts while W2 walks."""
    workers = (WorkerSpec(id="W1", trace=Trace.stationary(0.0, 0.0)),
               WorkerSpec(id="W2", trace=Trace(((0.0, 2.0, 0.0), (28.0, 3.0, 0.0)))))
    nothing = (ScheduleSegment(7.0, 7.0, operator="W1"), ScheduleSegment(21.0, 21.0, Activity.TRANSPORT))
    tools = (
        ToolSpec(id="T1", trace=Trace.stationary(0.0, 0.3), schedule=nothing),
        ToolSpec(id="T2", trace=Trace.stationary(2.0, 0.3), schedule=(ScheduleSegment(0.0, 35.0),)),
        ToolSpec(id="T3", trace=Trace.stationary(4.0, 0.3), schedule=nothing),
    )
    return ScenarioConfig(seed=15, duration=35.0, workers=workers, tools=tools)


ORACLE_SCENARIOS = {
    "unordered-ids": unordered_ids(),
    "stretch-edges": stretch_edges(),
    "stretch-edges-drop": dataclasses.replace(stretch_edges(), drop_prob=0.3),
    "segment-runs": segment_runs(),
    "segment-runs-drop": dataclasses.replace(segment_runs(), drop_prob=0.3),
    "static": scenario_static(3, 3.0, 600.0, seed=1),
    "swap": scenario_swap(3, 2.0, [120.0, 240.0], seed=2),
    "static-drop": scenario_static(3, 2.0, 400.0, bystanders=1, seed=3, drop_prob=0.3),
    "swap-drop": scenario_swap(4, 1.5, [100.0, 200.0], seed=4, drop_prob=0.1),
    "floored": scenario_static(3, 0.01, 100.0, seed=5, operating_distance=0.01),
    "bystanders": scenario_static(2, 3.0, 300.0, bystanders=2, seed=6),
    "inferred": without_operators(scenario_swap(3, 2.0, [120.0, 240.0], seed=7)),
    "inferred-static": without_operators(scenario_static(3, 2.0, 300.0, bystanders=1, seed=8)),
    "shared-schedules": shared_schedules(),
    "shared-schedules-drop": dataclasses.replace(shared_schedules(), drop_prob=0.3),
    "signed-zero-start": signed_zero_start(),
    "moving-tool": moving_tool(),
    "zero-length-schedules": zero_length_schedules(),
    "zero-length-schedules-drop": dataclasses.replace(zero_length_schedules(), drop_prob=0.3),
}


def instant_kinds(cfg):
    """For each segment, the kind of each broadcast instant: "knot" when it
    is a knot time of the tool's or a worker's trace, else "moving" when it
    lies inside a knot interval whose end positions differ, else "still"."""
    out = []
    for tool in cfg.tools:
        traces = [tool.trace, *(w.trace for w in cfg.workers)]
        for seg in tool.schedule:
            kinds = []
            ts = seg.start
            while ts < seg.stop:
                if any(ts == t for tr in traces for t, _, _ in tr.knots):
                    kinds.append("knot")
                elif any(t0 < ts < t1 and (x0, y0) != (x1, y1)
                         for tr in traces
                         for (t0, x0, y0), (t1, x1, y1) in zip(tr.knots, tr.knots[1:])):
                    kinds.append("moving")
                else:
                    kinds.append("still")
                ts = seg.start + len(kinds) * cfg.adv_interval
            out.append(kinds)
    return out


@st.composite
def small_configs(draw):
    """One to three workers and tools with traces of one to four knots
    (close enough to floor some distances), up to four segments each, any
    noise and drop. A knot may repeat the previous position, which makes a
    still interval, and knot times and segment bounds are often multiples
    of the broadcast interval, so that knots fall on broadcast instants.
    Segments are spans between sorted bounds, so two spans in a row touch
    (a stop equal to the next start), a skipped span leaves a gap that
    knots may fall in, and a repeated bound makes a zero-length segment."""
    coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(lambda v: round(v, 2))
    duration = 60.0
    interval = draw(st.sampled_from([7.0, 2.5, 0.7]))
    on_grid = st.integers(min_value=0, max_value=int(duration / interval)).map(lambda k: k * interval)

    def trace():
        knots = [(0.0, draw(coord), draw(coord))]
        later = st.one_of(st.floats(min_value=1.0, max_value=duration), on_grid.filter(bool))
        for t in sorted(set(draw(st.lists(later, max_size=3)))):
            position = knots[-1][1:] if draw(st.booleans()) else (draw(coord), draw(coord))
            knots.append((t, *position))
        return Trace(tuple(knots))

    n_workers = draw(st.integers(min_value=1, max_value=3))
    workers = tuple(WorkerSpec(id=f"W{i + 1}", trace=trace()) for i in range(n_workers))
    tools = []
    for j in range(draw(st.integers(min_value=1, max_value=3))):
        bound = st.one_of(st.floats(min_value=0.0, max_value=duration), on_grid)
        bounds = draw(st.lists(bound, max_size=6))
        if bounds and draw(st.booleans()):
            bounds.append(draw(st.sampled_from(bounds)))
        bounds.sort()
        spans = [(a, b) for a, b in zip(bounds, bounds[1:]) if draw(st.booleans())][:4]
        segments = tuple(
            ScheduleSegment(
                start=a,
                stop=b,
                activity=draw(st.sampled_from([Activity.USAGE, Activity.TRANSPORT])),
                operator=draw(st.sampled_from([None, *(w.id for w in workers)])),
            )
            for a, b in spans
        )
        tools.append(ToolSpec(id=f"T{j + 1}", trace=trace(), schedule=segments))
    return ScenarioConfig(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        duration=duration,
        workers=workers,
        tools=tuple(tools),
        adv_interval=interval,
        noise_std=draw(st.sampled_from([0.0, 6.99, 40.0])),
        drop_prob=draw(st.sampled_from([0.0, 0.0, 0.5])),
    )


class TestStreamOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_SCENARIOS))
    def test_scenario_matches_the_scalar_loop(self, name):
        assert_same_stream(ORACLE_SCENARIOS[name])

    def test_the_scenarios_reach_every_branch(self):
        _, floored = generate(ORACLE_SCENARIOS["floored"])
        assert floored.floored > 0
        assert {a.wearable for a in file_order(generate(ORACLE_SCENARIOS["bystanders"])[0])} >= {"B1", "B2"}
        ads = file_order(generate(ORACLE_SCENARIOS["unordered-ids"])[0])
        assert [a.tag for a in ads[:9]] == ["T10"] * 3 + ["T2"] * 3 + ["T10"] * 3
        assert [a.wearable for a in ads[:3]] == ["B1", "W1", "W2"]
        assert any(a.ts == b.ts and a.tag == "T1" and b.tag == "T10" for a, b in zip(ads, ads[3:]))
        # a run of instants at which nothing moves, instants at which
        # something does, and knots on broadcast instants
        kinds = instant_kinds(ORACLE_SCENARIOS["stretch-edges"])
        assert any(seg[i:i + 2] == ["still", "still"] for seg in kinds for i in range(len(seg)))
        assert any("moving" in seg for seg in kinds)
        assert any("knot" in seg for seg in kinds)
        # touching and zero-length segments, and knots in the gaps between them
        cfg = ORACLE_SCENARIOS["segment-runs"]
        pairs = [(a, b) for t in cfg.tools for a, b in zip(t.schedule, t.schedule[1:])]
        assert any(a.stop == b.start for a, b in pairs)
        assert any(s.start == s.stop for t in cfg.tools for s in t.schedule)
        knots = [k for tr in (*cfg.workers, *cfg.tools) for k, _, _ in tr.trace.knots]
        assert any(a.stop < k < b.start for a, b in pairs for k in knots)
        # tools whose schedule broadcasts nothing, around one that does
        for name in ("zero-length-schedules", "zero-length-schedules-drop"):
            grids, truth = generate(ORACLE_SCENARIOS[name])
            assert {g.tag for g in grids} == {t.tag for t in truth.sessions} == {"T2"}

    def test_tools_of_one_schedule_share_their_instants(self):
        """The badge grids of all of a tool's instants hold one tuple, the
        one that every tool with the same segment windows and knot events
        holds."""
        def instants(name):
            by_tag = {}
            for g in generate(ORACLE_SCENARIOS[name])[0]:
                assert by_tag.setdefault(g.tag, g.instants) is g.instants
            return by_tag

        shared = instants("shared-schedules")
        assert shared["T1"] is shared["T3"]
        assert len({id(shared["T1"]), id(shared["T2"]), id(shared["T4"])}) == 3
        zero = instants("signed-zero-start")
        assert zero["T1"] is zero["T2"] and repr(zero["T1"][0]) == "0.0"
        moving = instants("moving-tool")
        assert moving["T2"] is moving["T3"] and moving["T1"] is not moving["T2"]
        assert moving["T1"] == moving["T2"]

    def test_geometry_does_not_grow_with_the_instants(self, monkeypatch):
        """Positions are computed once per still stretch: the same swaps at
        twice the broadcast rate cost no more ``Trace.position`` calls."""
        calls = 0
        position = Trace.position

        def counted(self, ts):
            nonlocal calls
            calls += 1
            return position(self, ts)

        monkeypatch.setattr(Trace, "position", counted)
        cfg = scenario_swap(3, 2.0, [120.0, 240.0], seed=2)
        counts = []
        for interval in (7.0, 3.5):
            calls = 0
            grids, _ = generate(dataclasses.replace(cfg, adv_interval=interval))
            counts.append((calls, sum(map(len, grids))))
        assert counts[1][1] > 1.9 * counts[0][1]
        assert counts[0][0] == counts[1][0]

    def test_one_grid_per_badge_and_one_stretch_cut_per_tool(self, monkeypatch):
        """Segments are batched per tool: with five swaps each tool has six
        segments, built as one ``Grid`` per badge, with reception loss or
        without. The three tools share one schedule and stand still, so one
        cut serves them all."""
        calls = {"grid": 0, "cut": 0}
        grid, cut = simulator.Grid, simulator._still_stretches

        def counted_grid(*args):
            calls["grid"] += 1
            return grid(*args)

        def counted_cut(*args):
            calls["cut"] += 1
            return cut(*args)

        monkeypatch.setattr(simulator, "Grid", counted_grid)
        monkeypatch.setattr(simulator, "_still_stretches", counted_cut)
        cfg = scenario_swap(3, 2.0, [60.0, 120.0, 180.0, 240.0, 300.0], seed=2)
        assert all(len(t.schedule) == 6 for t in cfg.tools)
        # with loss, one grid per badge that heard anything in the run
        for drop_prob in (0.0, 0.1):
            calls.update(grid=0, cut=0)
            grids, truth = generate(dataclasses.replace(cfg, drop_prob=drop_prob))
            assert len(truth.sessions) == 18
            assert calls == {"grid": 9, "cut": 1}
            assert [(g.tag, g.wearable) for g in grids] == [
                (f"T{t}", f"W{w}") for t in (1, 2, 3) for w in (1, 2, 3)]

    @settings(max_examples=150, deadline=None)
    @given(small_configs())
    def test_small_configs_match_the_scalar_loop(self, cfg):
        assert_same_stream(cfg)


class TestStaticScenario:
    def test_geometry(self):
        cfg = scenario_static(3, 2.0, 360.0, bystanders=1)
        pos = {w.id: w.trace.position(0.0) for w in cfg.workers}
        assert pos == {"W1": (0.0, 0.0), "W2": (2.0, 0.0), "W3": (4.0, 0.0), "B1": (6.0, 0.0)}
        tpos = {t.id: t.trace.position(0.0) for t in cfg.tools}
        assert tpos == {"T1": (0.0, 0.3), "T2": (2.0, 0.3), "T3": (4.0, 0.3)}
        assert all(t.schedule == (ScheduleSegment(0.0, 360.0, operator=f"W{i+1}"),)
                   for i, t in enumerate(cfg.tools))

    def test_single_worker_with_bystander(self):
        cfg = scenario_static(1, 0.5, 180.0, bystanders=1, seed=21)
        grids, truth = generate(cfg)
        ads = file_order(grids)
        assert truth.sessions == (TruthRecord(tag="T1", start=0.0, stop=175.0, wearable="W1"),)
        # both badges hear all 26 broadcasts
        assert sum(1 for a in ads if a.wearable == "B1") == 26
        reports = run_edge(ads)
        assert {(r.wearable, r.n_obs) for r in reports} == {("W1", 26), ("B1", 26)}
        assert run_edge(grids) == reports

    def test_a_row_of_30000_builds_within_3_s(self):
        """A segment's operator is looked up in a set of the worker ids, so
        validation is linear in the row, not segments × workers (a list
        lookup took about 10 s on a 2-CPU VM)."""
        start = time.perf_counter()
        cfg = scenario_static(30_000, 1.0, 7.0)
        assert time.perf_counter() - start < 3.0
        assert cfg.tools[-1].schedule[0].operator == cfg.workers[-1].id == "W30000"

    def test_zero_duration_produces_nothing(self):
        ads, truth = generate(scenario_static(1, 1.0, 0.0))
        assert ads == [] and truth.sessions == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            scenario_static(0, 1.0, 60.0)
        with pytest.raises(ValueError):
            scenario_static(2, 0.0, 60.0)
        with pytest.raises(ValueError):
            scenario_static(2, 1.0, 60.0, bystanders=-1)

    def test_int_and_float_arguments_write_the_same_scenario(self, tmp_path):
        """The row's numbers are stored as floats, so the knots and the
        duration are written alike whichever type a caller passes."""
        pairs = [
            (scenario_static(2, 2, 60), scenario_static(2, 2.0, 60.0)),
            (scenario_static(3, 1, 90, 1, operating_distance=1),
             scenario_static(3, 1.0, 90.0, 1, operating_distance=1.0)),
            (scenario_swap(3, 2, [120, 240], duration=360), scenario_swap(3, 2.0, [120.0, 240.0], duration=360.0)),
        ]
        for a, b in pairs:
            io.write_scenario(tmp_path / "a.json", a)
            io.write_scenario(tmp_path / "b.json", b)
            assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: scenario_static(2, True, 60.0), id="static-bool-spacing"),
        pytest.param(lambda: scenario_static(2, "2.0", 60.0), id="static-str-spacing"),
        pytest.param(lambda: scenario_static(2, 2.0, "60"), id="static-str-duration"),
        pytest.param(lambda: scenario_static(2, 2.0, 60.0, operating_distance=True), id="static-bool-distance"),
        pytest.param(lambda: scenario_swap(3, 2.0, ["120"]), id="swap-str-time"),
        pytest.param(lambda: scenario_swap(3, 2.0, [120.0, True]), id="swap-bool-time"),
        pytest.param(lambda: scenario_swap(3, 2.0, [120.0], duration="360"), id="swap-str-duration"),
        pytest.param(lambda: scenario_swap(3, False, [120.0]), id="swap-bool-spacing"),
    ])
    def test_bool_and_str_arguments_are_rejected(self, build):
        with pytest.raises(ValueError, match="must be a number, got"):
            build()


class TestSwapScenario:
    def test_rotation_truth(self):
        _, truth = generate(scenario_swap(3, 2.0, [120.0, 240.0]))
        table = {(t.tag, t.start): t.wearable for t in truth.sessions}
        assert table == {
            ("T1", 0.0): "W1", ("T2", 0.0): "W2", ("T3", 0.0): "W3",
            ("T1", 120.0): "W3", ("T2", 120.0): "W1", ("T3", 120.0): "W2",
            ("T1", 240.0): "W2", ("T2", 240.0): "W3", ("T3", 240.0): "W1",
        }

    def test_sessions_per_tool_is_swaps_plus_one(self):
        cfg = scenario_swap(3, 2.0, [120.0, 240.0])
        _, truth = generate(cfg)
        per_tool = {}
        for t in truth.sessions:
            per_tool[t.tag] = per_tool.get(t.tag, 0) + 1
        assert per_tool == {"T1": 3, "T2": 3, "T3": 3}
        # the pause between sessions exceeds the 21 s session gap
        reports = run_edge(generate(cfg)[0])
        starts = sorted({r.start for r in reports})
        assert starts == [0.0, 120.0, 240.0]

    def test_workers_are_at_their_new_station_when_the_tools_resume(self):
        cfg = scenario_swap(3, 2.0, [120.0], duration=240.0)
        w1 = {w.id: w for w in cfg.workers}["W1"]
        assert w1.trace.position(0.0) == (0.0, 0.0)
        assert w1.trace.position(98.0) == (0.0, 0.0)  # pause starts at 120 - 22
        assert w1.trace.position(120.0) == (2.0, 0.0)  # arrived at station 1
        assert w1.trace.position(109.0) == (1.0, 0.0)  # mid-walk
        # the walk stays within a plausible pace
        assert w1.trace.max_speed <= 0.7

    def test_truth_operator_is_the_nearest_badge(self):
        # cross-check the rotation against geometric inference
        cfg = scenario_swap(3, 2.0, [120.0, 240.0])
        stripped = dataclasses.replace(
            cfg,
            tools=tuple(
                dataclasses.replace(
                    t,
                    schedule=tuple(
                        s._replace(operator=None) for s in t.schedule
                    ),
                )
                for t in cfg.tools
            ),
        )
        _, explicit = generate(cfg)
        _, inferred = generate(stripped)
        assert explicit.sessions == inferred.sessions

    def test_no_swaps_reduces_to_static_layout(self, tmp_path):
        for n in (2, 3, 8):
            settings = dict(seed=n, noise_std=3.5, drop_prob=0.25)
            static = scenario_static(n, 1.5, 300, **settings)
            swap = scenario_swap(n, 1.5, [], duration=300, **settings)
            # equal configs, and documents equal to the byte: both store 300.0
            io.write_scenario(tmp_path / "static.json", static)
            io.write_scenario(tmp_path / "swap.json", swap)
            assert static == swap
            assert (tmp_path / "static.json").read_bytes() == (tmp_path / "swap.json").read_bytes()
        cfg = scenario_swap(2, 2.0, [])
        ads, truth = generate(cfg)
        static_ads, static_truth = generate(scenario_static(2, 2.0, 360.0))
        assert ads == static_ads
        assert truth.sessions == static_truth.sessions

    def test_validation(self):
        with pytest.raises(ValueError):
            scenario_swap(1, 2.0, [])
        with pytest.raises(ValueError):
            scenario_swap(3, 2.0, [120.0, 100.0])  # not increasing
        with pytest.raises(ValueError):
            scenario_swap(3, 2.0, [400.0], duration=360.0)  # outside duration
        with pytest.raises(ValueError):
            scenario_swap(3, 2.0, [120.0, 130.0])  # closer than the pause
        with pytest.raises(ValueError):
            scenario_swap(3, 2.0, [10.0])  # no room for the first period
        # every comparison with NaN is false, so only a finiteness check catches it
        for swaps in ([math.nan], [120.0, math.nan], [math.nan, 240.0]):
            with pytest.raises(ValueError, match=r"swap times must be finite, got nan in \["):
                scenario_swap(3, 2.0, swaps)
        for spacing in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="spacing must be finite and positive"):
                scenario_swap(3, spacing, [120.0])

    def test_pause_exceeds_the_session_gap(self):
        """A shorter pause would not split a tool's activity into sessions."""
        assert SWAP_PAUSE_S > SESSION_GAP_S

