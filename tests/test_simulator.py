import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxmatch.edge import Activity, Advertisement, run_edge
from proxmatch.matcher import TruthRecord
from proxmatch.pathloss import DEFAULT_MODEL, PathLossModel
from proxmatch.simulator import (
    MIN_TRUE_DISTANCE_M,
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
        assert tr.max_speed() == 0.0

    def test_max_speed(self):
        tr = Trace(((0.0, 0.0, 0.0), (10.0, 3.0, 4.0)))  # 5 m in 10 s
        assert tr.max_speed() == pytest.approx(0.5)

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


class TestSpecs:
    def test_segment_validation(self):
        with pytest.raises(ValueError):
            ScheduleSegment(start=10.0, stop=5.0)
        with pytest.raises(ValueError):
            ScheduleSegment(start=0.0, stop=5.0, activity=Activity.INACTIVE)

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

    def test_config_json_round_trip(self):
        cfg = scenario_swap(3, 2.0, [120.0, 240.0], seed=5, drop_prob=0.1)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg


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
        assert [a.rssi for a in generate(base)[0]] != [a.rssi for a in generate(other)[0]]

    def test_noiseless_stream_is_the_model_mean(self):
        cfg = scenario_static(1, 1.0, 63.0, noise_std=0.0, operating_distance=1.0)
        ads, _ = generate(cfg)
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
        ads, truth = generate(cfg)
        assert [a.ts for a in ads] == [3.0, 10.0, 17.0, 200.0, 207.0, 214.0]
        assert [a.activity for a in ads] == [Activity.USAGE] * 3 + [Activity.TRANSPORT] * 3
        # transport segments produce broadcasts but no operating-truth session
        assert truth.sessions == (TruthRecord(tag="T1", start=3.0, stop=17.0, wearable="W1"),)

    def test_every_worker_hears_every_broadcast(self):
        cfg = scenario_static(3, 2.0, 70.0, bystanders=1, seed=3)
        ads, _ = generate(cfg)
        # 3 tools x 10 instants x 4 badges
        assert len(ads) == 120
        assert {a.wearable for a in ads} == {"W1", "W2", "W3", "B1"}

    def test_drop_probability_thins_the_stream(self):
        cfg = scenario_static(1, 1.0, 7.0 * 10000, seed=9, drop_prob=0.3)
        ads, truth = generate(cfg)
        kept = len(ads) / 10000
        assert 0.67 < kept < 0.73
        # truth boundaries come from the schedule, not from what survived
        assert truth.sessions == generate(dataclasses.replace(cfg, drop_prob=0.0))[1].sessions

    def test_noise_calibration(self):
        # 10k draws at a fixed distance: sample std within 3% of the setting.
        d = 2.0
        cfg = scenario_static(1, 1.0, 7.0 * 10000, seed=11, operating_distance=d)
        ads, _ = generate(cfg)
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
        ads, truth = generate(cfg)
        assert len(ads) >= 55097
        sq = [
            (a.rssi - DEFAULT_MODEL.forward(truth.true_distance(a.wearable, a.tag, a.ts))) ** 2
            for a in ads
        ]
        assert float(np.mean(sq)) == pytest.approx(48.92, abs=2.0)

    def test_colocated_devices_are_floored_and_counted(self):
        cfg = scenario_static(1, 1.0, 21.0, operating_distance=0.0, noise_std=0.0)
        ads, truth = generate(cfg)
        assert truth.floored == 3
        assert truth.too_fast == ()
        assert truth.true_distance("W1", "T1", 0.0) == 0.05
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


def scalar_generate(config):
    """The reference stream: one scalar ``rng.normal`` per reading (then one
    ``rng.uniform`` when drop is on) and every distance computed afresh at
    every instant. ``generate`` batches the noise and hoists stationary
    distances and must reproduce this exactly.

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
        s.id for s in (*workers, *tools) if s.trace.max_speed() > V_MAX_M_S + 1e-9
    )
    return ads, tuple(sessions), floored, too_fast


def without_operators(cfg):
    return dataclasses.replace(
        cfg,
        tools=tuple(
            dataclasses.replace(
                t, schedule=tuple(dataclasses.replace(s, operator=None) for s in t.schedule)
            )
            for t in cfg.tools
        ),
    )


def assert_same_stream(cfg):
    ads, truth = generate(cfg)
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
    before ``W1``). T10 moves and B1 walks, so positions are shared across
    tools at common instants; T2 and T1 share T10's broadcast instants."""
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


ORACLE_SCENARIOS = {
    "unordered-ids": unordered_ids(),
    "static": scenario_static(3, 3.0, 600.0, seed=1),
    "swap": scenario_swap(3, 2.0, [120.0, 240.0], seed=2),
    "static-drop": scenario_static(3, 2.0, 400.0, bystanders=1, seed=3, drop_prob=0.3),
    "swap-drop": scenario_swap(4, 1.5, [100.0, 200.0], seed=4, drop_prob=0.1),
    "floored": scenario_static(3, 0.01, 100.0, seed=5, operating_distance=0.01),
    "bystanders": scenario_static(2, 3.0, 300.0, bystanders=2, seed=6),
    "inferred": without_operators(scenario_swap(3, 2.0, [120.0, 240.0], seed=7)),
    "inferred-static": without_operators(scenario_static(3, 2.0, 300.0, bystanders=1, seed=8)),
}


@st.composite
def small_configs(draw):
    """One to three workers and tools with one- or two-knot traces (close
    enough to floor some distances), a few segments each, any noise and drop."""
    coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(lambda v: round(v, 2))

    def trace():
        first = (0.0, draw(coord), draw(coord))
        if draw(st.booleans()):
            return Trace((first,))
        second = (draw(st.floats(min_value=1.0, max_value=60.0)), draw(coord), draw(coord))
        return Trace((first, second))

    duration = 60.0
    n_workers = draw(st.integers(min_value=1, max_value=3))
    workers = tuple(WorkerSpec(id=f"W{i + 1}", trace=trace()) for i in range(n_workers))
    tools = []
    for j in range(draw(st.integers(min_value=1, max_value=3))):
        cuts = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=duration), max_size=4)))
        segments = tuple(
            ScheduleSegment(
                start=a,
                stop=b,
                activity=draw(st.sampled_from([Activity.USAGE, Activity.TRANSPORT])),
                operator=draw(st.sampled_from([None, *(w.id for w in workers)])),
            )
            for a, b in zip(cuts[::2], cuts[1::2])
        )
        tools.append(ToolSpec(id=f"T{j + 1}", trace=trace(), schedule=segments))
    return ScenarioConfig(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        duration=duration,
        workers=workers,
        tools=tuple(tools),
        adv_interval=draw(st.sampled_from([7.0, 2.5, 0.7])),
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
        assert {a.wearable for a in generate(ORACLE_SCENARIOS["bystanders"])[0]} >= {"B1", "B2"}
        ads, _ = generate(ORACLE_SCENARIOS["unordered-ids"])
        assert [a.tag for a in ads[:9]] == ["T10"] * 3 + ["T2"] * 3 + ["T10"] * 3
        assert [a.wearable for a in ads[:3]] == ["B1", "W1", "W2"]
        assert any(a.ts == b.ts and a.tag == "T1" and b.tag == "T10" for a, b in zip(ads, ads[3:]))

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
        ads, truth = generate(cfg)
        assert truth.sessions == (TruthRecord(tag="T1", start=0.0, stop=175.0, wearable="W1"),)
        # both badges hear all 26 broadcasts
        assert sum(1 for a in ads if a.wearable == "B1") == 26
        reports = run_edge(ads)
        assert {(r.wearable, r.n_obs) for r in reports} == {("W1", 26), ("B1", 26)}

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
        assert w1.trace.max_speed() <= 0.7

    def test_truth_operator_is_the_nearest_badge(self):
        # cross-check the rotation against geometric inference
        cfg = scenario_swap(3, 2.0, [120.0, 240.0])
        stripped = dataclasses.replace(
            cfg,
            tools=tuple(
                dataclasses.replace(
                    t,
                    schedule=tuple(
                        dataclasses.replace(s, operator=None) for s in t.schedule
                    ),
                )
                for t in cfg.tools
            ),
        )
        _, explicit = generate(cfg)
        _, inferred = generate(stripped)
        assert explicit.sessions == inferred.sessions

    def test_no_swaps_reduces_to_static_layout(self):
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
        with pytest.raises(ValueError):
            scenario_swap(3, 2.0, [120.0], gap=21.0)  # pause must exceed the session gap
