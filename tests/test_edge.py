import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxmatch import edge, ekf
from proxmatch.edge import (
    ACTIVE_DEFAULT,
    Activity,
    Advertisement,
    DistanceReport,
    Grid,
    Instants,
    SESSION_GAP_S,
    run_edge,
)
from proxmatch.ekf import EkfParams
from proxmatch.pathloss import DEFAULT_MODEL
from proxmatch.simulator import generate, scenario_swap

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
    """What a ``Grid`` must hold: one ``Advertisement`` per (instant,
    badge), instant-major."""
    values = iter(rssi)
    return [Advertisement(t, w, tag, next(values), activity) for t in instants for w in wearables]


@st.composite
def grids(draw):
    """(instants, wearables, tag, rssi, activity) of a valid grid."""
    instants = sorted(draw(st.sets(st.floats(-1e6, 1e6), min_size=1, max_size=6)))
    wearables = draw(st.lists(st.sampled_from(["W1", "W2", "W3", "B1"]), min_size=1, max_size=4,
                              unique=True))
    rssi = draw(st.lists(st.floats(-127.0, 20.0), min_size=len(instants) * len(wearables),
                         max_size=len(instants) * len(wearables)))
    tag, activity = draw(st.sampled_from(["T1", "T2"])), draw(st.sampled_from(list(Activity)))
    return instants, wearables, tag, rssi, activity


class TestGrid:
    @settings(max_examples=60)
    @given(grids())
    def test_equals_per_record_construction(self, grid):
        built = Grid(*grid)
        assert list(built) == per_record(*grid) and len(built) == len(grid[3])
        assert all(type(a) is Advertisement and type(a.ts) is float and type(a.rssi) is float
                   for a in built)
        instants, wearables, tag, rssi, activity = grid
        assert built == Grid(tuple(instants), tuple(wearables), tag, tuple(rssi), activity)
        assert (built.instants, built.wearables, built.rssi) == (tuple(instants), tuple(wearables),
                                                                 tuple(rssi))
        with pytest.raises(AttributeError):
            built.tag = "T3"

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
            Grid(instants, wearables, tag, rssi, activity)
        with pytest.raises(ValueError) as expected:
            per_record(instants, wearables, tag, rssi, activity)
        assert str(raised.value) == str(expected.value)

    def test_nan_behind_the_first_rssi_is_caught(self):
        # min and max keep whichever of a NaN and a number comes first
        for rssi in ([-50.0, math.nan, -60.0], [-50.0, -60.0, math.nan]):
            with pytest.raises(ValueError, match="rssi outside plausible range"):
                Grid([0.0, 7.0, 14.0], ["W1"], "T1", rssi, Activity.USAGE)

    def test_ints_come_out_as_floats(self):
        grid = [0, 7.0], ["W1", "W2"], "T1", [-50, -51.0, -52.0, -53], Activity.USAGE
        built = Grid(*grid)
        assert list(built) == per_record(*grid)
        assert built == Grid([0.0, 7.0], ["W1", "W2"], "T1", [-50.0, -51.0, -52.0, -53.0],
                             Activity.USAGE)
        assert [(type(a.ts), type(a.rssi)) for a in built] == [(float, float)] * 4
        assert repr(list(built)) == repr(per_record([0.0, 7.0], ["W1", "W2"], "T1",
                                                    [-50.0, -51.0, -52.0, -53.0], Activity.USAGE))

    def test_shape_and_empty_grids(self):
        with pytest.raises(ValueError, match="expected 2 x 2 rssi values, got 3"):
            Grid([0.0, 7.0], ["W1", "W2"], "T1", [-50.0] * 3, Activity.USAGE)
        for empty in (([], ["W1"]), ([0.0], []), ([], [])):
            with pytest.raises(ValueError, match="at least one instant and one badge"):
                Grid(*empty, "T1", [], Activity.USAGE)

    def test_each_badge_hears_each_instant_once(self):
        """Badges are distinct and instants strictly increase; ``-0.0`` and
        ``0.0`` are one instant."""
        with pytest.raises(ValueError, match="badges must be distinct"):
            Grid([0.0], ["W1", "W2", "W1"], "T1", [-50.0] * 3, Activity.USAGE)
        for instants in ([7.0, 7.0], [7.0, 0.0], [-0.0, 0.0], [0, 0.0]):
            with pytest.raises(ValueError, match="instants must strictly increase"):
                Grid(instants, ["W1"], "T1", [-50.0] * 2, Activity.USAGE)

    def test_instants_hold_each_time_as_a_float(self):
        """``Instants`` stores each value under ``Advertisement``'s ``ts``
        rule; a slice of it is a plain tuple."""
        built = Instants([0, 7.0, np.float64(14.0)])
        assert type(built) is Instants and built == (0.0, 7.0, 14.0)
        assert [type(t) for t in built] == [float] * 3
        assert type(built[1:]) is tuple

    def test_a_checked_tuple_skips_only_the_instant_checks(self):
        """A grid given an ``Instants`` holds that object and still checks
        its other values."""
        instants = Instants((0.0, 7.0))
        assert Grid(instants, ["W1"], "T1", [-50.0, -51.0], Activity.USAGE).instants is instants
        for rssi in ([-50.0, 20.5], [-127.5, -50.0], [-50.0, math.nan], [math.nan, -50.0]):
            with pytest.raises(ValueError, match="rssi outside plausible range"):
                Grid(instants, ["W2"], "T2", rssi, Activity.USAGE)
        for wearables, message in ((["W1", "W1"], "badges must be distinct"),
                                   (["W1", 1], "wearable must be a string")):
            with pytest.raises(ValueError, match=message):
                Grid(instants, wearables, "T2", [-50.0] * 4, Activity.USAGE)
        with pytest.raises(ValueError, match="activity must be an Activity"):
            Grid(instants, ["W1"], "T2", [-50.0] * 2, "usage")
        with pytest.raises(ValueError, match="tag must be a string"):
            Grid(instants, ["W1"], None, [-50.0] * 2, Activity.USAGE)
        assert Grid(instants, ["W2"], "T2", [-52.0, -53.0], Activity.TRANSPORT).instants is instants

    # Each id names the broken rule, without the values.
    @pytest.mark.parametrize("instants, message", [
        ((7.0, 0.0), "grid instants must strictly increase (0.0 after 7.0)"),
        ((0.0, 0.0), "grid instants must strictly increase (0.0 after 0.0)"),
        ((0.0, math.inf), "timestamp must be finite, got inf"),
        ((math.nan, 7.0), "timestamp must be finite, got nan"),
        ((0.0, "7.0"), "ts must be a number, got '7.0'"),
        ((-0.0, 0.0), "grid instants must strictly increase (0.0 after -0.0)"),
        ((0.0, True), "ts must be a number, got True"),
    ], ids=lambda v: v.split(" (")[0].split(",")[0].removeprefix("grid ") if type(v) is str else None)
    def test_a_tuple_that_fails_is_never_remembered(self, instants, message):
        """Bad instants raise their exact message on every construction, as
        ``Instants`` and in a grid."""
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                Instants(instants)
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                Grid(instants, ["W1"], "T1", [-50.0, -51.0], Activity.USAGE)

    def test_an_instants_list_is_checked_on_every_construction(self):
        """The same list object, mutated between two grids, is checked again;
        a plain tuple becomes a new ``Instants`` in each grid."""
        instants = [0.0, 7.0]
        Grid(instants, ["W1"], "T1", [-50.0, -51.0], Activity.USAGE)
        for value, message in ((-7.0, "instants must strictly increase"),
                               (math.nan, "timestamp must be finite"), (0.0, "strictly increase")):
            instants[1] = value
            with pytest.raises(ValueError, match=message):
                Grid(instants, ["W1"], "T1", [-50.0, -51.0], Activity.USAGE)
        instants[1] = 14.0
        built = Grid(instants, ["W1"], "T1", [-50.0, -51.0], Activity.USAGE).instants
        assert type(built) is Instants and built == (0.0, 14.0)
        plain = (0.0, 7.0)
        a, b = (Grid(plain, ["W1"], "T1", [-50.0, -51.0], Activity.USAGE).instants for _ in "ab")
        assert type(a) is Instants and a == plain and a is not b and a is not plain


def test_building_grids_leaves_the_module_as_it_was():
    """No constructor writes module state: after grids are built, by
    ``generate`` on tools that share a schedule and directly, each name in
    ``edge`` is bound to the object it was bound to before."""
    before = dict(vars(edge))
    grids = generate(scenario_swap(3, 2.0, [60.0], duration=120.0, seed=5))[0]
    assert len({id(g.instants) for g in grids}) < len(grids)
    Grid((0.0, 7.0), ["W1", "W2"], "T1", [-50.0] * 4, Activity.USAGE)
    Grid([14.0, 21.0], ["W1"], "T2", [-50.0] * 2, Activity.TRANSPORT)
    after = vars(edge)
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


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

    def test_a_window_keeps_the_sign_of_its_first_and_last_reception(self):
        """``-0.0`` and ``0.0`` are one instant: a session starts at the first
        record of its first instant and stops at the last of its last."""
        for stream in ([ad(-0.0), ad(0.0, wearable="W2"), ad(7.0)],
                       [ad(-7.0), ad(0.0), ad(-0.0, wearable="W2")],
                       [ad(-7.0, wearable="W2"), ad(-0.0), ad(0.0, wearable="W2"), ad(-0.0, wearable="W3")],
                       # one badge repeats a broadcast: the window stops at the repeat
                       [ad(-7.0), ad(-0.0), ad(0.0, rssi=-60.0)]):
            reports = run_edge(stream, PARAMS)
            assert reports == reference_edge(stream, SESSION_GAP_S, ACTIVE_DEFAULT)
            assert {(repr(r.start), repr(r.stop)) for r in reports} == {
                (repr(stream[0].ts), repr(stream[-1].ts))}

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
    one broadcast, and the whole stream shuffled; an instant at zero may be
    ``-0.0``."""
    tags = [f"T{i}" for i in range(1, draw(st.integers(2, 4)) + 1)]
    badges = [f"W{i}" for i in range(1, draw(st.integers(1, 4)) + 1)]
    zero = st.sampled_from([0.0, -0.0])
    instants = draw(st.lists(st.integers(0, 30).map(lambda k: 3.5 * k) | zero, min_size=1, max_size=20))
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


def records(grids):
    """The records of ``grids`` in the order given, instant-major in each."""
    return [a for g in grids for a in g]


@st.composite
def grid_streams(draw):
    """Grids of 1-3 tags on instants 3.5 s apart, with every activity; an
    instant at zero may be ``-0.0``. Each tag's badges are split into lanes
    that overlap in time. A lane's grids are drawn in time order, each after
    the last and heard by some of the lane's badges. Tag T4 may copy T1's
    grids on the same instants tuples with other values. Then all are
    shuffled."""
    badges = ["B1", "W1", "W2", "W3"]
    out = []
    for tag in ("T1", "T2", "T3")[:draw(st.integers(1, 3))]:
        lanes = draw(st.sampled_from([[badges], [badges[:2], badges[2:]], [[b] for b in badges]]))
        for lane in lanes:
            t = draw(st.integers(-4, 4))
            for _ in range(draw(st.integers(1, 5 if len(lanes) == 1 else 3))):
                t = draw(st.integers(t, t + 12))
                k = draw(st.integers(1, 6))
                instants = [3.5 * (t + i) or draw(st.sampled_from([0.0, -0.0])) for i in range(k)]
                t += k
                heard = draw(st.lists(st.sampled_from(lane), min_size=1, max_size=len(lane), unique=True))
                rssi = draw(st.lists(st.floats(-90.0, -30.0), min_size=k * len(heard),
                                     max_size=k * len(heard)))
                activity = draw(st.sampled_from([Activity.USAGE, Activity.TRANSPORT, Activity.INACTIVE]))
                out.append(Grid(instants, heard, tag, rssi, activity))
    if draw(st.booleans()):
        out += [Grid(g.instants, g.wearables, "T4", g.rssi[::-1], g.activity)
                for g in out if g.tag == "T1"]
    draw(st.randoms(use_true_random=False)).shuffle(out)
    return out


class TestGridStream:
    @settings(max_examples=150, deadline=None)
    @given(
        stream=grid_streams(),
        gap=st.sampled_from([3.5, 7.0, 10.5, SESSION_GAP_S]),
        active=st.sampled_from([ACTIVE_DEFAULT, frozenset({Activity.USAGE, Activity.TRANSPORT})]),
    )
    def test_grids_fold_as_their_records(self, stream, gap, active):
        """The grid and the record lane builders give the same reports, and
        both the reference's."""
        expanded = records(stream)
        expected = reference_edge(expanded, gap, active)
        assert run_edge(stream, PARAMS, gap=gap, active=active) == expected
        assert run_edge(expanded, PARAMS, gap=gap, active=active) == expected

    @pytest.mark.parametrize("gap", [10.0, SESSION_GAP_S])
    @pytest.mark.parametrize("active", [ACTIVE_DEFAULT, frozenset({Activity.USAGE, Activity.TRANSPORT})])
    def test_tags_on_one_tuple_share_its_sessions(self, gap, active):
        """Tags whose one active grid holds one ``Instants`` object fold as
        their records, and their reports hold its floats as windows, so
        equal windows are one pair of objects for ``io.write_reports``."""
        shared = Instants((-0.0, 7.0, 14.0, 50.0, 57.0, 64.0))
        badges = ["W1", "W2"]
        values = [-50.0 - i / 4 for i in range(12)]
        stream = [
            Grid(shared, badges, "T1", values, Activity.USAGE),
            Grid(shared, badges, "T2", values[::-1], Activity.USAGE),
            Grid(shared, ["W3"], "T3", values[:6], Activity.USAGE),
            # two activity runs of one tag, then a tag whose grid is inactive
            Grid((0.0, 7.0), badges, "T4", values[:4], Activity.USAGE),
            Grid((14.0, 21.0, 28.0), badges, "T4", values[4:10], Activity.TRANSPORT),
            Grid(shared, badges, "T5", values, Activity.INACTIVE),
            Grid(shared, ["W1"], "T6", values[6:], Activity.USAGE),
            # equal to the shared tuple, but another object, with 0.0 for -0.0
            Grid((0.0, *shared[1:]), ["W1"], "T7", values[:6], Activity.USAGE),
        ]
        assert all(g.instants is shared for g in stream if g.tag not in ("T4", "T7"))
        expected = reference_edge(records(stream), gap, active)
        reports = run_edge(stream, PARAMS, gap=gap, active=active)
        assert reports == expected == run_edge(records(stream), PARAMS, gap=gap, active=active)
        on_shared = [r for r in reports if r.tag in ("T1", "T2", "T3", "T6")]
        assert {r.tag for r in reports} == {"T1", "T2", "T3", "T4", "T6", "T7"} and len(on_shared) == 12
        ids = set(map(id, shared))
        assert all(id(r.start) in ids and id(r.stop) in ids for r in on_shared)
        assert {repr(r.start) for r in reports if r.start == 0} == {"-0.0", "0.0"}
        assert {repr(r.start) for r in reports if r.tag == "T7"} == {"0.0", "50.0"}

    def test_a_badge_folds_the_slices_it_heard(self):
        """A strided slice per badge, across a tag's grids in time order,
        and sessions cut on the union of the instants."""
        late = Grid([70.0, 77.0], ["W2"], "T1", [-50.0, -51.0], Activity.USAGE)
        early = Grid([0.0, 7.0, 14.0], ["W1", "W2"], "T1", [-45.0, -60.0, -46.0, -61.0, -47.0, -62.0],
                     Activity.USAGE)
        reports = run_edge([late, early], PARAMS)
        assert [(r.wearable, r.start, r.stop, r.n_obs) for r in reports] == [
            ("W1", 0.0, 14.0, 3), ("W2", 0.0, 14.0, 3), ("W2", 70.0, 77.0, 2),
        ]
        state = None
        for rssi, ts in ((-60.0, 0.0), (-61.0, 7.0), (-62.0, 14.0)):
            state = ekf.step(state, rssi, ts, PARAMS)
        assert reports[1].distance == state.x
        assert reports == run_edge(records([early, late]), PARAMS)

    def test_a_stream_of_grids_holds_only_grids(self):
        grid = Grid([0.0, 7.0], ["W1"], "T1", [-50.0, -51.0], Activity.USAGE)
        for stream in ([grid, ad(14.0)], [ad(14.0), grid], [ad(14.0), grid, ad(21.0)],
                       [grid, ad(14.0), grid]):
            with pytest.raises(ValueError, match="a stream of grids holds a record"):
                run_edge(stream, PARAMS)
        # anything else that is not a record still fails as it did
        with pytest.raises(TypeError, match="not subscriptable"):
            run_edge([ad(14.0), 5], PARAMS)

    def test_reports_are_checked_records(self):
        """Reports are built without the constructor's per-value checks, so
        they must be what it would build: floats, an int count, the type."""
        grid = Grid([0.0, 7.0, 35.0], ["W1", "W2"], "T1", [-50.0, -51.0, -52.0, -53.0, -54.0, -55.0],
                    Activity.USAGE)
        for stream in ([grid], records([grid])):
            reports = run_edge(stream, PARAMS)
            assert len(reports) == 4
            for r in reports:
                assert type(r) is DistanceReport
                assert DistanceReport(*r) == r
                assert [type(v) for v in r] == [str, str, float, float, float, int]

    def test_a_non_finite_estimate_raises_the_report_error(self):
        """An estimate the filter drives to NaN (a variance grown to
        infinity over a huge gap) breaks a report's rule, as it did when
        every report went through the constructor."""
        grid = Grid([0.0, 1e200], ["W1"], "T1", [-50.0, -50.0], Activity.USAGE)
        for stream in ([grid], records([grid])):
            with pytest.raises(ValueError, match="distance must be finite and nonnegative, got nan"):
                run_edge(stream, PARAMS, gap=1e300)

    @pytest.mark.parametrize("instants", [[3.5], [-7.0, 0.0], [0.0, 7.0], [-0.0], [1.0, 2.0]])
    def test_a_badges_grids_of_one_tag_must_not_overlap(self, instants):
        """Whatever their activity; other badges' and other tags' grids may
        share instants, and fold as their records."""
        grid = Grid([-0.0, 3.5], ["W1", "W2"], "T1", [-50.0, -51.0, -50.5, -51.5], Activity.USAGE)
        values = [-52.0] * len(instants)
        other = Grid(instants, ["W2"], "T1", values, Activity.INACTIVE)
        with pytest.raises(ValueError, match="grids of tag 'T1' heard by 'W2' overlap in time"):
            run_edge([grid, other], PARAMS)
        for apart in (Grid(instants, ["W3"], "T1", values, Activity.USAGE),
                      Grid(instants, ["W2"], "T2", values, Activity.USAGE)):
            assert run_edge([grid, apart], PARAMS) == run_edge(records([grid, apart]), PARAMS)

    def test_a_window_keeps_the_sign_of_its_first_and_last_reception(self):
        """``-0.0`` and ``0.0`` in two badges' grids are one instant, first
        and last in the order given, as for their records."""
        early = Grid([-7.0, -0.0], ["W1"], "T1", [-50.0, -51.0], Activity.USAGE)
        late = Grid([0.0], ["W2"], "T1", [-52.0], Activity.USAGE)
        for stream, stop in (([early, late], "0.0"), ([late, early], "-0.0")):
            reports = run_edge(stream, PARAMS)
            assert reports == reference_edge(records(stream), SESSION_GAP_S, ACTIVE_DEFAULT)
            assert {(r.start, repr(r.stop)) for r in reports} == {(-7.0, stop)}
