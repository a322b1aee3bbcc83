import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxmatch import ekf
from proxmatch.edge import (
    ACTIVE_DEFAULT,
    Activity,
    Advertisement,
    DistanceReport,
    SESSION_GAP_S,
    run_edge,
)
from proxmatch.ekf import EkfParams
from proxmatch.pathloss import DEFAULT_MODEL

PARAMS = EkfParams()


#: (field, bad value, error message) of an advertisement.
BAD_FIELDS = [
    ("ts", math.inf, "timestamp must be finite"),
    ("ts", math.nan, "timestamp must be finite"),
    ("rssi", math.nan, "rssi outside plausible range"),
    ("rssi", 20.5, "rssi outside plausible range"),
    ("rssi", -127.5, "rssi outside plausible range"),
    ("activity", "usage", "activity must be an Activity"),
    ("wearable", 1, "wearable must be a string, got 1"),
    ("tag", None, "tag must be a string, got None"),
    ("ts", True, "ts must be a number, got True"),
    ("ts", "0.5", "ts must be a number, got '0.5'"),
    ("rssi", True, "rssi must be a number, got True"),
]


def ad(ts, rssi=-45.6, wearable="W1", tag="T1", activity=Activity.USAGE):
    return Advertisement(ts=ts, wearable=wearable, tag=tag, rssi=rssi, activity=activity)


class TestAdvertisement:
    def test_validation(self):
        with pytest.raises(ValueError):
            ad(0.0, rssi=-128.0)
        with pytest.raises(ValueError):
            ad(0.0, rssi=21.0)
        with pytest.raises(ValueError):
            ad(math.nan)
        with pytest.raises(ValueError):
            Advertisement(ts=0.0, wearable="W1", tag="T1", rssi=-45.6, activity="usage")

    def test_bounds_are_inclusive(self):
        assert ad(0.0, rssi=-127.0).rssi == -127.0
        assert ad(0.0, rssi=20.0).rssi == 20.0

    @pytest.mark.parametrize("field, value, message", BAD_FIELDS)
    def test_positional_and_keyword_construction_both_validate(self, field, value, message):
        fields = {"ts": 0.0, "wearable": "W1", "tag": "T1", "rssi": -45.6,
                  "activity": Activity.USAGE, field: value}
        with pytest.raises(ValueError, match=message):
            Advertisement(**fields)
        with pytest.raises(ValueError, match=message):
            Advertisement(*fields.values())

    def test_a_validated_immutable_tuple(self):
        """Equal by fields (also to a plain tuple of them), hashable, immutable."""
        a = Advertisement(7.0, "W1", "T1", -45.6, Activity.USAGE)
        b = ad(7.0)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a == (7.0, "W1", "T1", -45.6, Activity.USAGE)
        assert a != ad(7.0, wearable="W2") and a != ad(7.0, activity=Activity.TRANSPORT)
        assert (a.ts, a.wearable, a.tag, a.rssi, a.activity) == tuple(a)
        with pytest.raises(AttributeError):
            a.rssi = -50.0
        with pytest.raises(AttributeError):
            a.extra = 1
        assert {Activity.USAGE: 1}[Activity("usage")] == 1


def per_record(instants, wearables, tag, rssi, activity):
    """What ``Advertisement.grid`` must equal: one ``Advertisement`` per
    (instant, badge), instant-major."""
    values = iter(rssi)
    return [Advertisement(t, w, tag, next(values), activity) for t in instants for w in wearables]


@st.composite
def grids(draw):
    """(instants, wearables, tag, rssi, activity) of a valid grid."""
    instants = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
    wearables = draw(st.lists(st.sampled_from(["W1", "W2", "W3", "B1"]), min_size=1, max_size=4))
    rssi = draw(st.lists(st.floats(-127.0, 20.0), min_size=len(instants) * len(wearables),
                         max_size=len(instants) * len(wearables)))
    tag, activity = draw(st.sampled_from(["T1", "T2"])), draw(st.sampled_from(list(Activity)))
    return instants, wearables, tag, rssi, activity


class TestGrid:
    @settings(max_examples=60)
    @given(grids())
    def test_equals_per_record_construction(self, grid):
        built = Advertisement.grid(*grid)
        assert built == per_record(*grid)
        assert all(type(a) is Advertisement and type(a.ts) is float and type(a.rssi) is float
                   for a in built)

    @settings(max_examples=60)
    @given(
        grid=grids(),
        case=st.sampled_from(BAD_FIELDS),
        where=st.tuples(st.integers(0, 5), st.integers(0, 3)),
    )
    def test_a_bad_value_anywhere_raises_the_per_record_error(self, grid, case, where):
        """Each bad value of ``test_positional_and_keyword_construction_both_validate``,
        at any (instant, badge) of a grid: the error of building that record."""
        instants, wearables, tag, rssi, activity = grid
        instants, wearables, rssi = list(instants), list(wearables), list(rssi)
        field, value, message = case
        i, j = where[0] % len(instants), where[1] % len(wearables)
        if field == "ts":
            instants[i] = value
        elif field == "wearable":
            wearables[j] = value
        elif field == "rssi":
            rssi[i * len(wearables) + j] = value
        elif field == "tag":
            tag = value
        else:
            activity = value
        with pytest.raises(ValueError, match=message) as raised:
            Advertisement.grid(instants, wearables, tag, rssi, activity)
        with pytest.raises(ValueError) as expected:
            per_record(instants, wearables, tag, rssi, activity)
        assert str(raised.value) == str(expected.value)

    def test_nan_behind_the_first_rssi_is_caught(self):
        # min and max keep whichever of a NaN and a number comes first
        for rssi in ([-50.0, math.nan, -60.0], [-50.0, -60.0, math.nan]):
            with pytest.raises(ValueError, match="rssi outside plausible range"):
                Advertisement.grid([0.0, 7.0, 14.0], ["W1"], "T1", rssi, Activity.USAGE)

    def test_ints_come_out_as_floats(self):
        grid = [0, 7.0], ["W1", "W2"], "T1", [-50, -51.0, -52.0, -53], Activity.USAGE
        built = Advertisement.grid(*grid)
        assert built == per_record(*grid)
        assert [(type(a.ts), type(a.rssi)) for a in built] == [(float, float)] * 4
        assert repr(built) == repr(per_record([0.0, 7.0], ["W1", "W2"], "T1",
                                              [-50.0, -51.0, -52.0, -53.0], Activity.USAGE))

    def test_shape_and_empty_grids(self):
        with pytest.raises(ValueError, match="expected 2 x 2 rssi values, got 3"):
            Advertisement.grid([0.0, 7.0], ["W1", "W2"], "T1", [-50.0] * 3, Activity.USAGE)
        assert Advertisement.grid([], ["W1"], "T1", [], Activity.USAGE) == []
        assert Advertisement.grid([0.0], [], "T1", [], Activity.USAGE) == []


def windows(ads, **kwargs):
    """Distinct (start, stop) session windows of the reports run_edge ships."""
    return sorted({(r.start, r.stop) for r in run_edge(ads, PARAMS, **kwargs)})


class TestSegmentation:
    def test_steady_stream_is_one_session(self):
        ads = [ad(7.0 * k) for k in range(26)]
        assert windows(ads) == [(0.0, 175.0)]

    def test_gap_of_exactly_21s_does_not_split(self):
        ads = [ad(0.0), ad(21.0), ad(42.0)]
        assert windows(ads) == [(0.0, 42.0)]

    def test_anything_longer_splits(self):
        late = 7.0 + 21.0001
        assert windows([ad(0.0), ad(7.0), ad(late)]) == [(0.0, 7.0), (late, late)]

    def test_inactive_broadcasts_never_extend_or_bridge(self):
        # A lone inactive broadcast inside a run is invisible...
        ads = [ad(0.0), ad(7.0), ad(10.0, activity=Activity.INACTIVE), ad(14.0)]
        assert windows(ads) == [(0.0, 14.0)]
        # ...and inactive chatter does not bridge a long pause.
        ads = [ad(0.0), ad(7.0)] + [
            ad(t, activity=Activity.INACTIVE) for t in (14.0, 21.0, 28.0)
        ] + [ad(35.0)]
        assert windows(ads) == [(0.0, 7.0), (35.0, 35.0)]
        # Trailing inactive broadcasts do not extend a session either.
        ads = [ad(0.0), ad(7.0), ad(14.0, activity=Activity.INACTIVE)]
        assert windows(ads) == [(0.0, 7.0)]

    def test_transport_counts_only_when_asked(self):
        # 14 s spacing: continuous if the transport instant counts, a 28 s
        # hole (split) if it does not.
        ads = [ad(0.0), ad(14.0, activity=Activity.TRANSPORT), ad(28.0)]
        assert windows(ads) == [(0.0, 0.0), (28.0, 28.0)]
        merged = windows(ads, active=frozenset({Activity.USAGE, Activity.TRANSPORT}))
        assert merged == [(0.0, 28.0)]

    def test_duplicate_receptions_collapse_to_one_instant(self):
        ads = [ad(0.0, wearable="W1"), ad(0.0, wearable="W2"), ad(7.0, wearable="W2")]
        reports = run_edge(ads, PARAMS)
        assert [(r.wearable, r.start, r.stop, r.n_obs) for r in reports] == [
            ("W1", 0.0, 7.0, 1),
            ("W2", 0.0, 7.0, 2),
        ]
        # One badge logging one broadcast twice: the first reception wins.
        dup = run_edge([ad(0.0), ad(0.0, rssi=-60.0), ad(7.0)], PARAMS)
        assert [(r.distance, r.n_obs) for r in dup] == [(1.0, 2)]
        assert dup == run_edge([ad(0.0), ad(7.0)], PARAMS)
        first_low = [ad(0.0, rssi=-60.0), ad(0.0), ad(7.0)]
        assert run_edge(first_low, PARAMS) == run_edge([ad(0.0, rssi=-60.0), ad(7.0)], PARAMS)

    def test_all_inactive_gives_no_sessions(self):
        ads = [ad(7.0 * k, activity=Activity.INACTIVE) for k in range(5)]
        assert run_edge(ads, PARAMS) == []
        assert run_edge([], PARAMS) == []

    def test_errors(self):
        # The gap is checked up front, even when no broadcast would use it.
        inactive = [ad(7.0 * k, activity=Activity.INACTIVE) for k in range(3)]
        for gap in (0.0, -5.0, math.nan, math.inf):
            for ads in ([ad(0.0), ad(7.0)], inactive, []):
                with pytest.raises(ValueError, match="session gap"):
                    run_edge(ads, PARAMS, gap=gap)

    @settings(max_examples=80)
    @given(
        offsets=st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=40),
        gap=st.floats(min_value=1.0, max_value=60.0),
    )
    def test_sessions_partition_the_active_instants(self, offsets, gap):
        instants = sorted(set(offsets))
        reports = run_edge([ad(t) for t in instants], PARAMS, gap=gap)
        # one badge: one report per session, covering all its instants
        assert sum(r.n_obs for r in reports) == len(instants)
        # every active instant lies in exactly one session
        for t in instants:
            assert sum(1 for r in reports if r.start <= t <= r.stop) == 1
        # boundaries are observed instants, and consecutive sessions are > gap apart
        for r in reports:
            assert r.start in instants and r.stop in instants and r.start <= r.stop
        for a, b in zip(reports, reports[1:]):
            assert b.start - a.stop > gap


class TestRunEdge:
    def test_constant_reference_signal_reports_one_meter(self):
        # 3 minutes at 7 s spacing: 26 broadcasts in [0, 180).
        ads = [ad(7.0 * k) for k in range(26)]
        reports = run_edge(ads, PARAMS)
        assert len(reports) == 1
        r = reports[0]
        assert r == DistanceReport(
            wearable="W1", tag="T1", start=0.0, stop=175.0, distance=r.distance, n_obs=26
        )
        assert r.distance == pytest.approx(1.0, abs=1e-12)
        assert abs(r.distance - 1.0) < 0.01

    def test_dropout_halves_n_obs_and_matches_manual_replay(self):
        rng = np.random.default_rng(5)
        rssi = [DEFAULT_MODEL.forward(1.0) + float(e) for e in rng.normal(0.0, 3.0, size=26)]
        full = [ad(7.0 * k, rssi=rssi[k]) for k in range(26)]
        half = full[::2]  # every second broadcast lost; gaps double to 14 s

        rep_full = run_edge(full, PARAMS)[0]
        rep_half = run_edge(half, PARAMS)[0]
        assert rep_full.n_obs == 26 and rep_half.n_obs == 13
        assert rep_half.start == 0.0 and rep_half.stop == 168.0

        state = None
        for a in half:
            state = ekf.step(state, a.rssi, a.ts, PARAMS)
        assert rep_half.distance == state.x  # exact: same arithmetic path
        assert abs(rep_full.distance - 1.0) < 1.0
        assert abs(rep_half.distance - 1.0) < 1.0

    def test_interleaved_tags_are_isolated(self):
        a = [ad(7.0 * k, tag="TA", rssi=-45.6) for k in range(10)]
        b = [ad(3.0 + 7.0 * k, tag="TB", rssi=-52.0) for k in range(10)]
        mixed = sorted(a + b, key=lambda x: x.ts)
        assert run_edge(mixed, PARAMS) == sorted(
            run_edge(a, PARAMS) + run_edge(b, PARAMS),
            key=lambda r: (r.start, r.stop, r.tag, r.wearable),
        )

    def test_session_windows_come_from_the_union_of_receptions(self):
        # W2 missed the boundary broadcasts but still reports the full window.
        w1 = [ad(7.0 * k, wearable="W1") for k in range(10)]
        w2 = [ad(7.0 * k, wearable="W2", rssi=-50.0) for k in range(3, 7)]
        reports = run_edge(sorted(w1 + w2, key=lambda x: x.ts), PARAMS)
        assert [(r.wearable, r.start, r.stop, r.n_obs) for r in reports] == [
            ("W1", 0.0, 63.0, 10),
            ("W2", 0.0, 63.0, 4),
        ]

    def test_one_report_per_wearable_session_pair(self):
        ads = [ad(7.0 * k, wearable=w) for k in range(5) for w in ("W1", "W2", "W3")]
        ads += [ad(200.0 + 7.0 * k, wearable=w) for k in range(5) for w in ("W1", "W2")]
        reports = run_edge(sorted(ads, key=lambda x: x.ts), PARAMS)
        assert len(reports) == 5
        assert len({(r.wearable, r.tag, r.start) for r in reports}) == 5

    def test_inactive_receptions_contribute_nothing(self):
        ads = [ad(7.0 * k) for k in range(5)]
        noisy = ads + [ad(7.0 * k + 1.0, activity=Activity.INACTIVE, rssi=-30.0) for k in range(5)]
        assert run_edge(sorted(noisy, key=lambda x: x.ts), PARAMS) == run_edge(ads, PARAMS)

    def test_deterministic_and_input_order_insensitive(self):
        rng = np.random.default_rng(99)
        ads = [
            ad(7.0 * k, wearable=w, tag=t, rssi=float(np.clip(-50 + rng.normal(0, 6), -127, 20)))
            for k in range(12)
            for w in ("W1", "W2")
            for t in ("T1", "T2")
        ]
        shuffled = list(ads)
        rng.shuffle(shuffled)
        assert run_edge(ads, PARAMS) == run_edge(shuffled, PARAMS)


def reference_edge(ads, gap, active):
    """The edge stage restated: a stable sort by ts, grouping by tag, cuts at
    pauses over ``gap``, and each badge's first reception of each broadcast
    folded with ``ekf.step``."""
    by_tag = {}
    for a in sorted((a for a in ads if a.activity in active), key=lambda a: a.ts):
        by_tag.setdefault(a.tag, []).append(a)
    reports = []
    for tag, tag_ads in by_tag.items():
        sessions = [[tag_ads[0]]]
        for prev, a in zip(tag_ads, tag_ads[1:]):
            if a.ts - prev.ts > gap:
                sessions.append([])
            sessions[-1].append(a)
        for session in sessions:
            filters = {}  # wearable -> (state, n_obs)
            for a in session:
                state, n = filters.get(a.wearable, (None, 0))
                if state is not None and state.ts == a.ts:
                    continue
                filters[a.wearable] = (ekf.step(state, a.rssi, a.ts, PARAMS), n + 1)
            reports += [
                DistanceReport(w, tag, session[0].ts, session[-1].ts, state.x, n)
                for w, (state, n) in filters.items()
            ]
    return sorted(reports, key=lambda r: (r.start, r.stop, r.tag, r.wearable))


@st.composite
def mixed_streams(draw):
    """2-4 tags and 1-4 badges drawing from one set of instants, so tags share
    timestamps, with inactive and transport broadcasts, repeated receptions of
    one broadcast, and the whole stream shuffled."""
    tags = [f"T{i}" for i in range(1, draw(st.integers(2, 4)) + 1)]
    badges = [f"W{i}" for i in range(1, draw(st.integers(1, 4)) + 1)]
    instants = draw(st.lists(st.integers(0, 30).map(lambda k: 3.5 * k), min_size=1, max_size=20))
    activity = st.sampled_from([Activity.USAGE, Activity.USAGE, Activity.TRANSPORT, Activity.INACTIVE])
    rssi = st.floats(-90.0, -30.0)
    ads = draw(st.lists(
        st.builds(Advertisement, st.sampled_from(instants), st.sampled_from(badges),
                  st.sampled_from(tags), rssi, activity),
        min_size=1, max_size=60,
    ))
    repeats = draw(st.lists(st.tuples(st.integers(0, len(ads) - 1), rssi), max_size=10))
    ads += [ads[i]._replace(rssi=r) for i, r in repeats]
    draw(st.randoms(use_true_random=False)).shuffle(ads)
    return ads


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        ads=mixed_streams(),
        gap=st.sampled_from([3.5, 7.0, 10.5, SESSION_GAP_S]),
        active=st.sampled_from([ACTIVE_DEFAULT, frozenset({Activity.USAGE, Activity.TRANSPORT})]),
    )
    def test_reports_equal_the_reference(self, ads, gap, active):
        assert run_edge(ads, PARAMS, gap=gap, active=active) == reference_edge(ads, gap, active)
