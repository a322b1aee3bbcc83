import csv
import dataclasses
import json
import math
import os
import re
import stat
import tempfile
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxmatch import io
from proxmatch.cli import main
from proxmatch.edge import Activity, Advertisement, DistanceReport, Grid, Instants
from proxmatch.ekf import DT_LINEAR, EkfParams
from proxmatch.matcher import EvalReport, MatchResult, Trust, TruthRecord
from proxmatch.pathloss import DEFAULT_MODEL, PathLossModel, RangeSample
from proxmatch.simulator import MIN_TRUE_DISTANCE_M, GroundTruth, Trace, generate, scenario_swap

ADS = [
    Advertisement(ts=0.0, wearable="W1", tag="T1", rssi=-45.6, activity=Activity.USAGE),
    Advertisement(ts=7.0, wearable="W2", tag="T1", rssi=-52.25, activity=Activity.TRANSPORT),
    Advertisement(ts=14.0, wearable="W1", tag="T2", rssi=-40.0, activity=Activity.INACTIVE),
]


#: A filter config holding every key, each filter key away from its default.
FULL_CONFIG = {"n": 1.2, "x0_m": 1.0, "rssi0_db": -50.0, "q": 0.5, "r": 48.92, "d_min_m": 0.4,
               "d_max_m": 15.0, "p0": 2.0, "dt_mode": "dt_linear", "x_floor_m": 0.2}
FULL_PARAMS = EkfParams(model=PathLossModel(n=1.2, x0=1.0, rssi0=-50.0), q=0.5, r=48.92,
                        d_min=0.4, d_max=15.0, p0=2.0, dt_mode=DT_LINEAR, x_floor=0.2)
#: Each optional filter-config key and the ``EkfParams`` field it sets.
FILTER_FIELDS = {"q": "q", "r": "r", "d_min_m": "d_min", "d_max_m": "d_max", "p0": "p0",
                 "dt_mode": "dt_mode", "x_floor_m": "x_floor"}


class TestAdvertisements:
    def test_jsonl_round_trip(self, tmp_path):
        p = tmp_path / "ads.jsonl"
        io.write_advertisements(p, one_reading(ADS))
        got, skipped = io.read_advertisements(p)
        assert got == ADS and skipped == []
        # equality alone would also accept plain tuples
        assert all(type(a) is Advertisement for a in got)

    def test_csv_round_trip(self, tmp_path):
        p = tmp_path / "ads.csv"
        with open(p, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["ts", "wearable", "tag", "rssi_db", "activity"])
            w.writerows([a.ts, a.wearable, a.tag, a.rssi, a.activity.value] for a in ADS)
        got, skipped = io.read_advertisements(p)
        assert got == ADS and skipped == []
        assert all(type(a) is Advertisement for a in got)

    def test_malformed_lines_are_collected_not_fatal(self, tmp_path):
        p = tmp_path / "ads.jsonl"
        good = json.dumps(
            {"ts": 0.0, "wearable": "W1", "tag": "T1", "rssi_db": -45.6, "activity": "usage"}
        )
        lines = [
            good,
            "{not json",
            json.dumps({"ts": 1.0, "wearable": "W1", "tag": "T1", "rssi_db": -300.0, "activity": "usage"}),
            json.dumps({"ts": 2.0, "wearable": "W1", "tag": "T1", "activity": "usage"}),
            json.dumps({"ts": 3.0, "wearable": "W1", "tag": "T1", "rssi_db": -50.0, "activity": "flying"}),
        ]
        p.write_text("\n".join(lines) + "\n")
        got, skipped = io.read_advertisements(p)
        assert len(got) == 1 and got[0].ts == 0.0
        assert [line for line, _ in skipped] == [2, 3, 4, 5]

    @pytest.mark.parametrize("ch", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_only_newline_ends_a_line(self, tmp_path, ch):
        """A raw Unicode line break inside a record stays in its line. JSON
        strings may hold U+2028, U+2029 and U+0085; a raw control character
        makes the record bad, but it is still one line."""
        p = tmp_path / "ads.jsonl"
        good = '{"ts":0.0,"wearable":"W1","tag":"T1","rssi_db":-45.6,"activity":"usage"}'
        odd = '{"ts":7.0,"wearable":"W' + ch + '1","tag":"T1","rssi_db":-45.6,"activity":"usage"}'
        p.write_text("\n".join([good, odd, good[:30]]) + "\n", encoding="utf-8")
        got, skipped = io.read_advertisements(p)
        if ch < " ":
            assert [a.ts for a in got] == [0.0] and [i for i, _ in skipped] == [2, 3]
        else:
            assert [a.wearable for a in got] == ["W1", "W" + ch + "1"]
            assert [i for i, _ in skipped] == [3]

    def test_record_readers_keep_unicode_line_breaks(self, tmp_path):
        p = tmp_path / "truth.jsonl"
        p.write_text('{"tag":"T\u20281","start_s":0,"stop_s":7,"wearable":"W1"}\n', encoding="utf-8")
        assert io.read_truth(p) == [TruthRecord(tag="T\u20281", start=0.0, stop=7.0, wearable="W1")]

    def test_csv_header_is_checked(self, tmp_path):
        p = tmp_path / "ads.csv"
        p.write_text("time,badge\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            io.read_advertisements(p)


def ad_row(a):
    return {"ts": a.ts, "wearable": a.wearable, "tag": a.tag, "rssi_db": a.rssi,
            "activity": a.activity.value}


def reference_ads_bytes(ads) -> bytes:
    """``json.dumps`` of each record, in stable ``ts`` order: the file of
    the grids that hold them."""
    return "".join(json.dumps(ad_row(a), separators=(",", ":")) + "\n"
                   for a in sorted(ads, key=lambda a: a.ts)).encode()


def one_reading(ads):
    """Each record as a grid of one reading."""
    return [Grid([a.ts], a.wearable, a.tag, [a.rssi], a.activity) for a in ads]


def reference_read_ads(path):
    """Per-line ``json.loads`` and the ``Activity(...)`` enum call, written
    out: what ``read_advertisements`` must reproduce, reasons included. The
    raw JSON values go to ``Advertisement``, which checks their types (a
    JSON number, not ``bool`` or a string; a JSON string for an id) and
    values itself."""
    ads, skipped = [], []
    for i, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
            fields = d["ts"], d["wearable"], d["tag"], d["rssi_db"], Activity(d["activity"])
            ads.append(Advertisement(*fields))
        except (ValueError, KeyError, TypeError) as e:
            skipped.append((i, str(e)))
    return ads, skipped


ODD_IDS = ['W"1', "W\\1", "Wé", "W\u2028", "\u00ff\u4e2d", "", "W\x00"]
#: Ids that a ``%`` template would read as conversions; the writer copies
#: each id's JSON text verbatim.
PERCENT_IDS = ["W%s", "%%", "%r", "%(x)s", "T%d", "%"]
#: Ids that a ``str.format`` or f-string template would read as fields.
FORMAT_IDS = ["{", "}", "{0}", "{x!r}", "%(x)s{}"]
ACTIVITIES = list(Activity)


@st.composite
def advertisements(draw):
    ts = draw(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(min_value=-(2**70), max_value=2**70),
            st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
        )
    )
    rssi = draw(
        st.one_of(
            st.floats(min_value=-127.0, max_value=20.0),
            st.floats(min_value=-127.0, max_value=20.0).map(np.float64),
            st.integers(min_value=-127, max_value=20),
        )
    )
    ids = st.one_of(st.sampled_from(ODD_IDS), st.text(max_size=6))
    activity = draw(st.sampled_from(ACTIVITIES))
    return Advertisement(ts=ts, wearable=draw(ids), tag=draw(ids), rssi=rssi, activity=activity)


class TestAdvertisementCodec:
    def test_writer_bytes_match_json_dumps(self, tmp_path):
        ads = [
            Advertisement(ts=0.0, wearable='W"1', tag="T\\1", rssi=-45.6, activity=Activity.USAGE),
            Advertisement(ts=np.float64(7.1), wearable="Wé", tag="T\u2028", rssi=np.float64(-52.25),
                          activity=Activity.TRANSPORT),
            Advertisement(ts=14, wearable="W1", tag="T1", rssi=-40, activity=Activity.INACTIVE),
            Advertisement(ts=1e22, wearable="W1", tag="T1", rssi=-1e-7, activity=Activity.USAGE),
            Advertisement(ts=3.0, wearable="%(x)s", tag="%", rssi=-47.5, activity=Activity.INACTIVE),
        ]
        x = Instants([3.0, 4.5])
        grids = [
            *one_reading(ads),
            *(Grid(x, w, "T%d", rssi, Activity.USAGE) for w, rssi in (
                ("W%s", [-40.0, 0.0]), ("%%", [-41.25, -127.0]), ("%r", [-1e-7, -45.6]),
                ("%(x)s", [-50.0, -52.25]))),
        ]
        records = [a for g in grids for a in g]
        p = tmp_path / "ads.jsonl"
        io.write_advertisements(p, grids)
        assert p.read_bytes() == reference_ads_bytes(records)
        assert io.read_advertisements(p) == reference_read_ads(p)

    @pytest.mark.parametrize(
        "n", [0, 1, io._CHUNK_LINES, io._CHUNK_LINES + 1, 3 * io._CHUNK_LINES + 7]
    )
    def test_writer_chunks(self, tmp_path, n):
        ads = [
            Advertisement(ts=float(i // 3), wearable=f"W{i % 3}", tag="T1",
                          rssi=-45.6 - (i % 70) / 7, activity=ACTIVITIES[i % len(ACTIVITIES)])
            for i in range(n)
        ]
        p = tmp_path / "ads.jsonl"
        io.write_advertisements(p, iter(one_reading(ads)))
        assert p.read_bytes() == reference_ads_bytes(ads)
        assert len(p.read_bytes().splitlines()) == n

    def test_writer_shares_instant_texts_only_within_one_tuple(self, tmp_path):
        """Consecutive grids that hold one ``Instants`` object share its texts;
        a tuple of equal instants, one of them ``0.0`` for ``-0.0``, gets its own."""
        u, shared = Activity.USAGE, Instants((-0.0, 7.0, 1e22))
        grids = [
            Grid(shared, "W1", "T1", [-45.6, -47.0, -1e-7], u),
            Grid(shared, "W2", "T1", [-46.0, -48.0, 0.0], u),
            Grid(shared, "W1", "T2", [-50.0, -51.5, -52.0], u),
            Grid((0.0, 7.0, 1e22), "W1", "T3", [-40.0, -41.0, -42.0], u),
            Grid(shared, "W2", "T4", [-60.0, -61.0, -62.0], Activity.TRANSPORT),
        ]
        assert grids[0].instants is grids[1].instants is grids[2].instants is grids[4].instants
        records = [a for g in grids for a in g]
        p = tmp_path / "ads.jsonl"
        io.write_advertisements(p, grids)
        assert p.read_bytes() == reference_ads_bytes(records)
        assert [line[:11] for line in p.read_text().splitlines()[:5]] == [
            '{"ts":-0.0,', '{"ts":-0.0,', '{"ts":-0.0,', '{"ts":0.0,"', '{"ts":-0.0,']

    @staticmethod
    def grids_on_tuples(case):
        """The grids of a writer case named ``case``."""
        u, t = Activity.USAGE, Activity.TRANSPORT
        x, y = Instants((0.0, 7.0, 14.0)), Instants((7.0, 10.5, 14.0))
        if case == "two grids on one tuple":
            return [Grid(x, "W1", "T1", [-45.6, -47.0, -1e-7], u),
                    Grid(x, "W3", "T2", [-50.0, -51.5, -52.0], t)]
        if case == "a run broken by another tuple":
            return [Grid(x, "W1", "A", [-40.0, -41.0, -42.0], u),
                    Grid(y, "W1", "B", [-50.0, -52.0, -54.0], u),
                    Grid(y, "W2", "B", [-51.0, -53.0, -55.0], u),
                    Grid(x, "W2", "C", [-60.0, -61.0, -62.0], t)]
        if case == "equal tuples, distinct objects":
            return [Grid((-0.0, 7.0), "W1", "T1", [-40.0, -41.0], u),
                    Grid((0.0, 7.0), "W1", "T2", [-50.0, -51.0], u),
                    Grid((0.0, 7.0), "W2", "T3", [-60.0, -61.0], u)]
        if case == "lossy one-badge grids":
            config = dataclasses.replace(scenario_swap(3, 2.0, [60.0], duration=120.0, seed=5),
                                         drop_prob=0.3)
            grids = generate(config)[0]
            assert len(grids) > 3
            return grids
        if case == "a long lossy stream":
            # each lossy grid on its own tuple is a run of one line per
            # row, so the rows of 36 runs interleave across several writes
            config = dataclasses.replace(
                scenario_swap(6, 2.0, [100.0 * k for k in range(1, 6)], duration=600.0, seed=7),
                drop_prob=0.3)
            grids = generate(config)[0]
            assert len({id(g.instants) for g in grids}) == len(grids) == 36
            assert sum(map(len, grids)) > 3 * io._CHUNK_LINES
            return grids
        assert case == "ids that hold %"
        return [*(Grid(x, w, "T%d", [-40.0 - j, -43.0 - j, -46.0 - j], u)
                  for j, w in enumerate(PERCENT_IDS[:3])),
                *(Grid(x, w, "%(x)s", [-50.0 - j, -53.0 - j, -56.0 - j], t)
                  for j, w in enumerate(PERCENT_IDS[3:]))]

    @pytest.mark.parametrize("case", [
        "two grids on one tuple", "a run broken by another tuple", "equal tuples, distinct objects",
        "lossy one-badge grids", "a long lossy stream", "ids that hold %",
    ])
    def test_runs_of_grids_on_one_tuple(self, tmp_path, case):
        """Consecutive grids on one ``Instants`` object are written as one run;
        the file is still each record's ``json.dumps`` in stable ``ts`` order."""
        grids = self.grids_on_tuples(case)
        p = tmp_path / "ads.jsonl"
        io.write_advertisements(p, grids)
        assert p.read_bytes() == reference_ads_bytes([a for g in grids for a in g])

    def test_a_run_ends_where_another_tuple_starts(self, tmp_path):
        """Grid C holds A's tuple after B's, so it does not join A's run: at
        an instant of both tuples, A's lines come first, then B's, then C's."""
        a, *b, c = grids = self.grids_on_tuples("a run broken by another tuple")
        assert a.instants is c.instants and a.instants is not b[0].instants is b[1].instants
        p = tmp_path / "ads.jsonl"
        io.write_advertisements(p, grids)
        tags = [json.loads(line)["tag"] for line in p.read_text().splitlines()]
        assert tags == ["A", "C", "A", "B", "B", "C", "B", "B", "A", "B", "B", "C"]

    def test_writer_cached_text_keeps_equal_values_apart(self, tmp_path):
        """Equal keys with different text: ``0.0`` and ``-0.0``. ``1``,
        ``1.0`` and ``np.float64(1.0)`` are all stored, and written, as the
        float ``1.0``; an id that is not a ``str`` is rejected."""
        u = Activity.USAGE
        for wearable, tag in ((1, "T1"), (True, "T1"), (1.0, "T1"), ("W1", None)):
            with pytest.raises(ValueError, match="must be a string"):
                Advertisement(ts=2.0, wearable=wearable, tag=tag, rssi=-50.0, activity=u)
        ads = [
            Advertisement(ts=0.0, wearable="W1", tag="T1", rssi=-45.6, activity=u),
            Advertisement(ts=-0.0, wearable="W1", tag="T1", rssi=-0.0, activity=u),
            Advertisement(ts=0.0, wearable="W1", tag="T1", rssi=0.0, activity=u),
            Advertisement(ts=1, wearable="W1", tag="T1", rssi=1, activity=u),
            Advertisement(ts=1.0, wearable="W1", tag="T1", rssi=1.0, activity=u),
            Advertisement(ts=np.float64(1.0), wearable="W1", tag="T1", rssi=np.float64(1.0),
                          activity=u),
            Advertisement(ts=1, wearable="W1", tag="T1", rssi=1, activity=Activity.TRANSPORT),
            Advertisement(ts=2.0, wearable="1", tag="T1", rssi=-50.0, activity=u),
            Advertisement(ts=2.0, wearable="W1", tag="T1", rssi=-50.0, activity=u),
            Advertisement(ts=2.0, wearable="W1", tag="T2", rssi=-50.0, activity=u),
            Advertisement(ts=2.0, wearable="W1", tag="T1", rssi=-50.0, activity=u),
        ]
        # rows of equal instants, 0.0 and -0.0 among them, keep the order given
        signed = Instants([-0.0, 7.0])
        grids = [
            *one_reading(ads),
            Grid(signed, "W1", "T1", [-45.6, -47.0], u),
            Grid(signed, "W2", "T1", [-46.0, -48.0], u),
            Grid([0.0, 2.0], "W3", "T1", [-45.0, -0.0], Activity.TRANSPORT),
        ]
        records = [a for g in grids for a in g]
        p = tmp_path / "ads.jsonl"
        io.write_advertisements(p, grids)
        assert p.read_bytes() == reference_ads_bytes(records)
        assert p.read_text().splitlines()[:6] == [
            '{"ts":0.0,"wearable":"W1","tag":"T1","rssi_db":-45.6,"activity":"usage"}',
            '{"ts":-0.0,"wearable":"W1","tag":"T1","rssi_db":-0.0,"activity":"usage"}',
            '{"ts":0.0,"wearable":"W1","tag":"T1","rssi_db":0.0,"activity":"usage"}',
            '{"ts":-0.0,"wearable":"W1","tag":"T1","rssi_db":-45.6,"activity":"usage"}',
            '{"ts":-0.0,"wearable":"W2","tag":"T1","rssi_db":-46.0,"activity":"usage"}',
            '{"ts":0.0,"wearable":"W3","tag":"T1","rssi_db":-45.0,"activity":"transport"}',
        ]

    @settings(max_examples=150, deadline=None)
    @given(ads=st.lists(advertisements(), max_size=12))
    def test_writer_property(self, tmp_path_factory, ads):
        p = tmp_path_factory.mktemp("codec") / "ads.jsonl"
        io.write_advertisements(p, one_reading(ads))
        assert p.read_bytes() == reference_ads_bytes(ads)
        got, skipped = io.read_advertisements(p)
        assert skipped == [] and got == reference_read_ads(p)[0]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_grids_interleave_in_stable_instant_order(self, tmp_path_factory, data):
        """Grids of odd ids on shared instants, signed zeros among them: each
        row of equal instants keeps the order of the grids given. The grids
        draw from a few instants tuples, some equal in value, so that runs
        of grids on one tuple form and break anywhere."""
        instant = st.sampled_from([-0.0, 0.0, 7.0, 1e-07, -3.5, 1e16, 5e-324])
        ids = st.one_of(st.sampled_from(ODD_IDS + PERCENT_IDS + FORMAT_IDS), st.text(max_size=6),
                        st.text(st.sampled_from('%sdr(x)W"{}!0'), max_size=6))
        tuples = [Instants(sorted(data.draw(st.lists(instant, min_size=1, max_size=4, unique=True))))
                  for _ in range(data.draw(st.integers(1, 4)))]
        grids = []
        for _ in range(data.draw(st.integers(0, 5))):
            instants = data.draw(st.sampled_from(tuples))
            wearables = data.draw(st.lists(ids, min_size=1, max_size=3, unique=True))
            tag, activity = data.draw(ids), data.draw(st.sampled_from(ACTIVITIES))
            rssi = st.lists(st.floats(-127.0, 20.0), min_size=len(instants), max_size=len(instants))
            grids += [Grid(instants, w, tag, data.draw(rssi), activity) for w in wearables]
        p = tmp_path_factory.mktemp("codec") / "ads.jsonl"
        io.write_advertisements(p, grids)
        assert p.read_bytes() == reference_ads_bytes([a for g in grids for a in g])

    def test_reader_matches_per_line_json_loads(self, tmp_path):
        good = '{"ts":0.0,"wearable":"W1","tag":"T1","rssi_db":-45.6,"activity":"usage"}'
        lines = [
            good,
            good[:40],  # truncated
            good + " x",  # trailing garbage
            good + "{}",  # a second value
            "  " + good + "\t ",  # leading and trailing whitespace
            good.replace("0.0", "NaN"),  # NaN literal
            good.replace("-45.6", "Infinity"),
            "[1, 2]",  # not an object
            '"usage"',
            "3",
            "null",
            good.replace(',"tag":"T1"', ""),  # missing key
            good.replace("usage", "flying"),  # unknown activity
            good.replace('"usage"', "[1]"),  # unhashable activity
            good.replace('"usage"', "1"),
            good.replace('"W1"', "null"),  # an id must be a string
            "\ufeff" + good,  # byte order mark
            "{",
            "",
            "   ",
            good,
        ]
        p = tmp_path / "ads.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = io.read_advertisements(p)
        assert got == reference_read_ads(p)
        assert len(got[0]) == 3
        assert [i for i, _ in got[1]] == [2, 3, 4, *range(6, 19)]

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(
                st.sampled_from(
                    ['{"ts":1.5,"wearable":"W1","tag":"T1","rssi_db":-45.6,"activity":"transport"}']
                ).flatmap(lambda s: st.integers(0, len(s)).map(lambda k: s[:k])),
                st.text(alphabet=' \t{}[]":,0123456789.-eENaIfinytrulsWTagd_\\u\u2028',
                        max_size=30),
            ),
            max_size=8,
        )
    )
    def test_reader_property(self, tmp_path_factory, lines):
        p = tmp_path_factory.mktemp("codec") / "ads.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert io.read_advertisements(p) == reference_read_ads(p)


class TestRecordStreams:
    def test_reports_round_trip(self, tmp_path):
        p = tmp_path / "reports.jsonl"
        reports = [
            DistanceReport(wearable="W1", tag="T1", start=0.0, stop=175.0, distance=1.25, n_obs=26),
            DistanceReport(wearable="W2", tag="T1", start=0.0, stop=175.0, distance=3.5, n_obs=13),
        ]
        io.write_reports(p, reports)
        back = io.read_reports(p)
        assert back == reports and {type(r) for r in back} == {DistanceReport}
        # a report is a named tuple, equal to the plain tuple of its values
        assert back == [("W1", "T1", 0.0, 175.0, 1.25, 26), ("W2", "T1", 0.0, 175.0, 3.5, 13)]

    def test_truth_round_trip(self, tmp_path):
        p = tmp_path / "truth.jsonl"
        truth = [TruthRecord(tag="T1", start=0.0, stop=175.0, wearable="W1")]
        io.write_truth(p, truth)
        assert io.read_truth(p) == truth

    def test_matches_round_trip_with_null_wearable_and_margin(self, tmp_path):
        p = tmp_path / "matches.jsonl"
        matches = [
            MatchResult(tag="T1", start=0.0, stop=90.0, wearable="W1",
                        trust=Trust.SURE, margin=1.5),
            MatchResult(tag="T2", start=0.0, stop=90.0, wearable=None,
                        trust=Trust.UNSURE, margin=0.0),
            MatchResult(tag="T3", start=100.0, stop=190.0, wearable="W2",
                        trust=Trust.SURE, margin=math.inf),
        ]
        io.write_matches(p, matches)
        assert io.read_matches(p) == matches
        rows = [json.loads(line) for line in p.read_text().splitlines()]
        assert rows[1]["wearable"] is None
        assert rows[2]["margin_m"] is None

    def test_bad_line_reports_its_number(self, tmp_path):
        p = tmp_path / "reports.jsonl"
        p.write_text('{"wearable":"W1","tag":"T1","start_s":0,"stop_s":1,"distance_m":1,"n_obs":1}\n{"oops":1}\n')
        with pytest.raises(ValueError, match=r":2:"):
            io.read_reports(p)


def report_row(r):
    return {"wearable": r.wearable, "tag": r.tag, "start_s": r.start, "stop_s": r.stop,
            "distance_m": r.distance, "n_obs": r.n_obs}


def truth_row(t):
    return {"tag": t.tag, "start_s": t.start, "stop_s": t.stop, "wearable": t.wearable}


def match_row(m):
    return {"tag": m.tag, "start_s": m.start, "stop_s": m.stop, "wearable": m.wearable,
            "trust": m.trust.value, "margin_m": m.margin if math.isfinite(m.margin) else None}


#: Each record writer and the dict ``json.dumps`` must turn each record into.
RECORD_WRITERS = {
    "reports": (io.write_reports, report_row),
    "truth": (io.write_truth, truth_row),
    "matches": (io.write_matches, match_row),
}

#: Floats whose text is easy to get wrong: a signed zero, the smallest
#: subnormal, and the two ends of ``repr``'s plain notation.
ODD_FLOATS = [-0.0, 0.0, 5e-324, 1e-07, 1e16]


def reference_lines(records, row) -> bytes:
    return "".join(json.dumps(row(r), separators=(",", ":")) + "\n" for r in records).encode()


def window_runs() -> list[DistanceReport]:
    """Runs of consecutive reports whose windows are one pair of float
    objects, broken by windows of equal values held by other objects and by
    windows that differ from the last only in the sign of a zero."""
    start, stop, zero, negative_zero = 7.0, 21.5, 0.0, -0.0
    start_copy, stop_copy = float(repr(start)), float(repr(stop))
    assert start_copy is not start and stop_copy is not stop
    windows = [(start, stop), (start, stop), (start_copy, stop_copy), (start_copy, stop), (start, stop),
               (zero, zero), (negative_zero, zero), (negative_zero, zero), (negative_zero, negative_zero),
               (zero, 1.0), (negative_zero, 1.0), (zero, 1.0)]
    reports = [DistanceReport(f"W{i % 3 + 1}", f"T{i % 2 + 1}", a, b, 0.25 * i, i + 1)
               for i, (a, b) in enumerate(windows)]
    assert all(r.start is a and r.stop is b for r, (a, b) in zip(reports, windows))
    return reports


@st.composite
def windows(draw):
    number = st.one_of(
        st.sampled_from(ODD_FLOATS),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
        st.integers(min_value=-(2**60), max_value=2**60),
    )
    return sorted([draw(number), draw(number)])


RECORD_IDS = st.one_of(st.sampled_from(ODD_IDS), st.text(max_size=6))


@st.composite
def reports(draw):
    distance = draw(st.one_of(st.sampled_from(ODD_FLOATS),
                              st.floats(min_value=0.0, allow_infinity=False),
                              st.floats(min_value=0.0, allow_infinity=False).map(np.float64),
                              st.integers(min_value=0, max_value=2**60)))
    return DistanceReport(draw(RECORD_IDS), draw(RECORD_IDS), *draw(windows()), distance,
                          draw(st.integers(min_value=1, max_value=2**80)))


@st.composite
def truth_records(draw):
    return TruthRecord(draw(RECORD_IDS), *draw(windows()), draw(RECORD_IDS))


@st.composite
def match_results(draw):
    wearable = draw(st.one_of(st.none(), RECORD_IDS))
    margin = draw(st.one_of(st.sampled_from([*ODD_FLOATS, math.inf]), st.floats(min_value=0.0),
                            st.floats(min_value=0.0).map(np.float64),
                            st.integers(min_value=0, max_value=2**60)))
    sure = wearable is not None and margin > 0 and draw(st.booleans())
    return MatchResult(draw(RECORD_IDS), *draw(windows()), wearable,
                       Trust.SURE if sure else Trust.UNSURE, margin)


RECORD_STRATEGIES = {"reports": reports(), "truth": truth_records(), "matches": match_results()}
RECORD_READERS = {"reports": io.read_reports, "truth": io.read_truth, "matches": io.read_matches}


class TestRecordWriters:
    """The report, truth and match writers format each line directly and
    must write byte for byte what ``json.dumps`` makes of the record's row."""

    def test_odd_values(self, tmp_path):
        ids = [*ODD_IDS, "\x1f", "é "]
        records = {
            "reports": [DistanceReport(w, t, a, b, d, n) for w, t, (a, b), d, n in zip(
                ids, reversed(ids), [(-0.0, 0.0), (5e-324, 1e-07), (1e-07, 1e16), (0, 1),
                                     (np.float64(0.5), 2.5), (-1e16, -5e-324), (7.0, 7.0),
                                     (1.5, 3.0), (0.0, 0.0)],
                ODD_FLOATS * 2, [1, 2**70, 3, 12, 1, 10**30, 5, 6, 7])],
            "truth": [TruthRecord(t, -0.0, 1e16, w) for t, w in zip(ids, reversed(ids))],
            "matches": [
                MatchResult(ids[0], 0.0, 1e-07, None, Trust.UNSURE, math.inf),
                MatchResult(ids[1], 5e-324, 7.0, ids[2], Trust.SURE, 1e16),
                MatchResult(ids[3], -0.0, 0.0, ids[4], Trust.UNSURE, -0.0),
                MatchResult(ids[5], 1.0, 2.0, ids[6], Trust.SURE, 5e-324),
                MatchResult(ids[7], 1.0, 2.0, ids[8], Trust.UNSURE, 1),
                MatchResult(ids[8], 1.0, 2.0, None, Trust.UNSURE, 1e-07),
            ],
        }
        for kind, (write, row) in RECORD_WRITERS.items():
            p = tmp_path / f"{kind}.jsonl"
            write(p, records[kind])
            assert p.read_bytes() == reference_lines(records[kind], row), kind
        text = (tmp_path / "matches.jsonl").read_text().splitlines()
        assert '"wearable":null' in text[0] and text[0].endswith(',"margin_m":null}')

    def test_a_window_text_is_shared_only_by_one_pair_of_objects(self, tmp_path):
        """Consecutive reports of one window share its text; a window of
        equal values held by other objects, or of the other zero, gets its own."""
        records = window_runs()
        p = tmp_path / "reports.jsonl"
        io.write_reports(p, records)
        assert p.read_bytes() == reference_lines(records, report_row)
        assert '"start_s":-0.0,"stop_s":0.0,' in p.read_text()
        assert '"start_s":0.0,"stop_s":-0.0,' not in p.read_text()

    @pytest.mark.parametrize("n", [0, 1, io._CHUNK_LINES, io._CHUNK_LINES + 1, 2 * io._CHUNK_LINES + 3])
    def test_chunks(self, tmp_path, n):
        records = [DistanceReport(f"W{i % 3}", "T1", float(i), i + 0.5, i / 7, i + 1) for i in range(n)]
        p = tmp_path / "reports.jsonl"
        io.write_reports(p, iter(records))
        assert p.read_bytes() == reference_lines(records, report_row)

    @pytest.mark.parametrize("kind", sorted(RECORD_WRITERS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_writer_property(self, tmp_path_factory, kind, data):
        write, row = RECORD_WRITERS[kind]
        records = data.draw(st.lists(RECORD_STRATEGIES[kind], max_size=8))
        p = tmp_path_factory.mktemp("records") / f"{kind}.jsonl"
        write(p, iter(records))
        assert p.read_bytes() == reference_lines(records, row)

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(reports(), max_size=8))
    def test_reports_equal_their_read_back(self, tmp_path_factory, records):
        """A report applies its reader's id and number rules, and stores each
        number as a float, so every report written reads back equal, an
        integer window included, with the same field types."""
        p = tmp_path_factory.mktemp("records") / "reports.jsonl"
        io.write_reports(p, records)
        back = io.read_reports(p)
        assert back == records
        assert [tuple(map(type, r)) for r in back] == [tuple(map(type, r)) for r in records]

    @pytest.mark.parametrize("kind", sorted(RECORD_WRITERS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_read_back_writes_the_same_bytes(self, tmp_path_factory, kind, data):
        """Records built from ``int``, ``float`` and ``np.float64`` numbers
        hold floats: each reads back equal to the record written, and the
        records read back write the file again byte for byte."""
        write, _ = RECORD_WRITERS[kind]
        records = data.draw(st.lists(RECORD_STRATEGIES[kind], max_size=8))
        d = tmp_path_factory.mktemp("records")
        write(d / "first.jsonl", records)
        back = RECORD_READERS[kind](d / "first.jsonl")
        assert back == records
        write(d / "second.jsonl", back)
        assert (d / "second.jsonl").read_bytes() == (d / "first.jsonl").read_bytes()



def reference_errors_bytes(reports, truth) -> bytes:
    """``errors.csv`` as ``csv.writer`` writes it: the header, then each
    report's ids and the ``repr`` of its numbers. Each row comes from a
    writer that ends it with ``\r\n`` and so quotes a field holding either
    character; the row then ends with ``\n`` instead."""

    def row(fields) -> str:
        buf = StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(fields)
        return buf.getvalue()[:-2] + "\n"

    lines = [row(["wearable", "tag", "start_s", "stop_s", "estimate_m", "true_m", "error_m"])]
    for r in reports:
        true = truth.true_distances(((r.wearable, r.tag),), 0.5 * (r.start + r.stop))[0]
        lines.append(row([r.wearable, r.tag, repr(r.start), repr(r.stop), repr(r.distance),
                          repr(true), repr(r.distance - true)]))
    return "".join(lines).encode()


def truth_for(reports) -> GroundTruth:
    """Stationary traces for every id the reports name."""
    wearables, tags = sorted({r.wearable for r in reports}), sorted({r.tag for r in reports})
    return GroundTruth(
        sessions=(),
        worker_traces={w: Trace(((0.0, 0.5 * i, 0.0), (10.0, 0.5 * i, 3.0)))
                       for i, w in enumerate(wearables)},
        tool_traces={t: Trace.stationary(-1.5 * i, 0.3) for i, t in enumerate(tags)},
    )


#: Ids the csv module must quote: a comma, a quote, line breaks, and the empty id.
CSV_IDS = ["W,1", 'W"1', "W\n1", "W\r1", "\r\n", "", " W1 ", ",", '"', "T1"]


class TestErrorsWriter:
    def test_odd_ids_are_quoted_as_the_csv_module_quotes_them(self, tmp_path):
        reports = [DistanceReport(w, t, a, b, d, 3) for w, t, (a, b), d in zip(
            CSV_IDS, reversed(CSV_IDS), [(-0.0, 0.0), (5e-324, 1e-07), (0, 7), (2.5, 9.5), (1e16, 1e16)] * 2,
            [0.0, 1e-07, 2.5, 1e16, 5e-324] * 2)]
        reports.append(reports[0])
        truth = truth_for(reports)
        p = tmp_path / "errors.csv"
        io.write_errors(p, reports, truth)
        assert p.read_bytes() == reference_errors_bytes(reports, truth)
        text = p.read_bytes().decode("utf-8")
        assert text.startswith("wearable,tag,start_s,stop_s,estimate_m,true_m,error_m\n")
        assert '\n"W,1",T1,' in text and '\n"W""1",' in text and '\n"W\n1",' in text

    def test_a_window_is_shared_only_by_one_pair_of_objects(self, tmp_path):
        """The window text, midpoint and trace positions of one run of
        reports serve only that run: equal values held by other objects, or
        the other zero, are computed again."""
        reports = window_runs()
        truth = truth_for(reports)
        p = tmp_path / "errors.csv"
        io.write_errors(p, reports, truth)
        assert p.read_bytes() == reference_errors_bytes(reports, truth)
        lines = p.read_text().splitlines()
        assert [line.split(",")[2:4] for line in lines[6:10]] == [
            ["0.0", "0.0"], ["-0.0", "0.0"], ["-0.0", "0.0"], ["-0.0", "-0.0"]]

    def test_true_distances_place_each_pair_at_one_instant(self):
        """Each pair's floored distance between its traces' positions, the
        pairs repeating ids in any order."""
        reports = window_runs()
        truth = truth_for(reports)
        pairs = [(r.wearable, r.tag) for r in reports]
        # W1 passes T1 at 1 s, where the distance is floored
        for ts in (0.0, 1.0, 4.0, 20.0):
            want = []
            for w, t in pairs:
                (wx, wy), (tx, ty) = truth.worker_traces[w].position(ts), truth.tool_traces[t].position(ts)
                want.append(max(MIN_TRUE_DISTANCE_M, math.hypot(tx - wx, ty - wy)))
            assert truth.true_distances(pairs, ts) == want
            assert [truth.true_distances(((w, t),), ts)[0] for w, t in pairs] == want
        assert truth.true_distances([], 1.0) == []
        with pytest.raises(KeyError):
            truth.true_distances([("W1", "T1"), ("W9", "T1")], 1.0)

    def test_a_lone_carriage_return_reads_back(self, tmp_path):
        """An id holding ``\\r`` without ``\\n`` is quoted, so ``csv.reader``
        reads the file back to the same ids and numbers."""
        reports = [DistanceReport("W\r1", "T1", 0.0, 7.0, 1.5, 2),
                   DistanceReport("W2", "T\r", 7.0, 21.0, 2.25, 3)]
        truth = truth_for(reports)
        p = tmp_path / "errors.csv"
        io.write_errors(p, reports, truth)
        with open(p, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        want = []
        for r in reports:
            true = truth.true_distances(((r.wearable, r.tag),), 0.5 * (r.start + r.stop))[0]
            want.append([r.wearable, r.tag, repr(r.start), repr(r.stop), repr(r.distance),
                         repr(true), repr(r.distance - true)])
        assert rows == [["wearable", "tag", "start_s", "stop_s", "estimate_m", "true_m", "error_m"], *want]

    def test_numpy_numbers_are_written_as_float_text(self, tmp_path):
        """A report built from ``np.float64`` values holds floats, so each
        number is written as the float text ``csv.reader`` reads back."""
        reports = [DistanceReport("W1", "T1", np.float64(0.0), np.float64(7.0), np.float64(0.25), 2),
                   DistanceReport("W1", "T2", np.float64(7.5), 21, np.float64(1e16), 3)]
        truth = truth_for(reports)
        p = tmp_path / "errors.csv"
        io.write_errors(p, reports, truth)
        with open(p, encoding="utf-8", newline="") as f:
            numbers = [row[2:] for row in list(csv.reader(f))[1:]]
        assert numbers[0][:3] == ["0.0", "7.0", "0.25"] and numbers[1][:3] == ["7.5", "21.0", "1e+16"]
        assert all(repr(float(x)) == x for row in numbers for x in row)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_writer_property(self, tmp_path_factory, data):
        """Reports of odd ids and of numbers of every type a report holds,
        small enough that the error stays finite."""
        ids = st.one_of(st.sampled_from(CSV_IDS), RECORD_IDS)
        number = st.one_of(st.sampled_from(ODD_FLOATS), st.floats(-1e9, 1e9),
                           st.floats(-1e9, 1e9).map(np.float64), st.integers(-2**40, 2**40))
        records = []
        for _ in range(data.draw(st.integers(0, 8))):
            start, stop = sorted([data.draw(number), data.draw(number)])
            distance = data.draw(st.one_of(st.sampled_from(ODD_FLOATS), st.floats(0.0, 1e9)))
            records.append(DistanceReport(data.draw(ids), data.draw(ids), start, stop, distance,
                                          data.draw(st.integers(1, 2**80))))
        truth = truth_for(records)
        p = tmp_path_factory.mktemp("errors") / "errors.csv"
        io.write_errors(p, iter(records), truth)
        assert p.read_bytes() == reference_errors_bytes(records, truth)


#: The JSON key of each record field whose name differs from it.
JSON_KEYS = {"start": "start_s", "stop": "stop_s", "distance": "distance_m", "margin": "margin_m"}
#: Windows that no record accepts, each with the error its type raises.
BAD_WINDOWS = [
    ({"start": 7.5}, "session window"),  # stops before it starts
    ({"start": math.nan}, "session window"),
    ({"stop": math.nan}, "session window"),
    ({"start": -math.inf}, "session window"),
    ({"stop": math.inf}, "session window"),
]


def rejects(bad):
    return pytest.mark.parametrize("bad, error", bad, ids=[str(b) for b, _ in bad])


class TestRecordsCheckTheirOwnValues:
    """A record built in memory rejects every value its reader rejects, ids
    and numbers included, so a library caller gets the guarantee that a
    file gets, and every record built writes a line that reads back."""

    @staticmethod
    def rejected(tmp_path, record, reader, kind, fields, error):
        with pytest.raises(ValueError, match=error):
            record(**fields)
        with pytest.raises(ValueError, match=error):
            record(*fields.values())  # the same values by position, in field order
        line = {JSON_KEYS.get(k, k): v.value if isinstance(v, Trust) else v for k, v in fields.items()}
        p = tmp_path / "records.jsonl"
        p.write_text(json.dumps(line) + "\n")
        with pytest.raises(ValueError, match=f":1: bad {kind}: "):
            reader(p)

    def test_numbers_are_stored_as_floats(self):
        """``int`` and ``np.float64`` numbers become floats; a count stays an ``int``."""
        r = DistanceReport("W1", "T1", 0, np.float64(7.0), 1, 2)
        t = TruthRecord("T1", 0, np.float64(7.0), "W1")
        m = MatchResult("T1", 0, np.float64(7.0), "W1", Trust.SURE, 2)
        numbers = (r.start, r.stop, r.distance, t.start, t.stop, m.start, m.stop, m.margin)
        assert [type(v) for v in numbers] == [float] * 8 and type(r.n_obs) is int

    @rejects(BAD_WINDOWS + [
        ({"distance": -2.0}, "distance must be finite and nonnegative"),
        ({"distance": math.nan}, "distance must be finite and nonnegative"),
        ({"distance": math.inf}, "distance must be finite and nonnegative"),
        ({"n_obs": 0}, "n_obs must be an integer >= 1"),
        ({"n_obs": True}, "n_obs must be an integer >= 1"),
        ({"n_obs": 2.9}, "n_obs must be an integer >= 1"),
        ({"wearable": 5}, "wearable must be a string, got 5"),
        ({"wearable": None}, "wearable must be a string, got None"),
        ({"tag": 1.0}, "tag must be a string, got 1.0"),
        ({"tag": ["T1"]}, r"tag must be a string, got \['T1'\]"),
        ({"start": True}, "start must be a number, got True"),
        ({"stop": False}, "stop must be a number, got False"),
        ({"start": "0"}, "start must be a number, got '0'"),
        ({"distance": True}, "distance must be a number, got True"),
        ({"distance": None}, "distance must be a number, got None"),
    ])
    def test_distance_report(self, tmp_path, bad, error):
        good = {"wearable": "W1", "tag": "T1", "start": 0.0, "stop": 7.0, "distance": 1.0, "n_obs": 2}
        self.rejected(tmp_path, DistanceReport, io.read_reports, "distance report", {**good, **bad}, error)

    @rejects(BAD_WINDOWS + [
        ({"tag": 7}, "tag must be a string, got 7"),
        ({"wearable": None}, "wearable must be a string, got None"),
        ({"wearable": True}, "wearable must be a string, got True"),
        ({"start": True}, "start must be a number, got True"),
        ({"stop": True}, "stop must be a number, got True"),
        ({"stop": "7"}, "stop must be a number, got '7'"),
    ])
    def test_truth_record(self, tmp_path, bad, error):
        good = {"tag": "T1", "start": 0.0, "stop": 7.0, "wearable": "W1"}
        self.rejected(tmp_path, TruthRecord, io.read_truth, "truth record", {**good, **bad}, error)

    @rejects(BAD_WINDOWS + [
        ({"margin": -3.0}, "margin must be nonnegative"),
        ({"margin": math.nan}, "margin must be nonnegative"),
        ({"trust": Trust.UNSURE, "margin": -3.0}, "margin must be nonnegative"),
        ({"wearable": None}, "a sure match needs a wearable"),
        ({"wearable": None, "margin": math.inf}, "a sure match needs a wearable"),
        ({"margin": 0.0}, "a sure match needs a wearable and a positive margin"),
        ({"tag": 1}, "tag must be a string, got 1"),
        ({"tag": None}, "tag must be a string, got None"),
        ({"wearable": 5}, "wearable must be a string, got 5"),
        ({"trust": Trust.UNSURE, "wearable": False}, "wearable must be a string, got False"),
        ({"start": True}, "start must be a number, got True"),
        ({"stop": "7"}, "stop must be a number, got '7'"),
        ({"margin": True}, "margin must be a number, got True"),
        ({"trust": Trust.UNSURE, "margin": False}, "margin must be a number, got False"),
    ])
    def test_match_result(self, tmp_path, bad, error):
        good = {"tag": "T1", "start": 0.0, "stop": 7.0, "wearable": "W1", "trust": Trust.SURE,
                "margin": 1.0}
        self.rejected(tmp_path, MatchResult, io.read_matches, "match result", {**good, **bad}, error)


class TestDocuments:
    def test_samples_round_trip(self, tmp_path):
        p = tmp_path / "samples.csv"
        p.write_text("distance_m,rssi_db\n0.5,-41.2\n2.0,-49.75\n")
        assert io.read_samples(p) == [RangeSample(0.5, -41.2), RangeSample(2.0, -49.75)]

    def test_model_round_trip(self, tmp_path):
        p = tmp_path / "model.json"
        io.write_model(p, DEFAULT_MODEL)
        assert io.read_ekf_params(p).model == DEFAULT_MODEL

    def test_params_round_trip(self, tmp_path):
        p = tmp_path / "ekf.json"
        p.write_text(json.dumps(FULL_CONFIG))
        assert io.read_ekf_params(p) == FULL_PARAMS

    def test_params_without_a_floor_key_get_the_default_floor(self, tmp_path):
        p = tmp_path / "ekf.json"
        doc = {**FULL_CONFIG}
        del doc["x_floor_m"]
        p.write_text(json.dumps(doc))
        assert io.read_ekf_params(p) == dataclasses.replace(FULL_PARAMS, x_floor=EkfParams.x_floor)

    @pytest.mark.parametrize("key", sorted(FILTER_FIELDS.keys() - {"x_floor_m"}))  # floor: above
    def test_each_filter_key_left_out_takes_its_default(self, tmp_path, key):
        p = tmp_path / "ekf.json"
        doc = {**FULL_CONFIG}
        del doc[key]
        p.write_text(json.dumps(doc))
        field = FILTER_FIELDS[key]
        expected = dataclasses.replace(FULL_PARAMS, **{field: getattr(EkfParams(), field)})
        assert io.read_ekf_params(p) == expected

    def test_filter_keys_without_q_and_r_are_kept(self, tmp_path):
        """A config with only some filter keys is not read as a bare model
        whose other keys are dropped."""
        p = tmp_path / "ekf.json"
        p.write_text('{"n":1.011,"x0_m":1.0,"rssi0_db":-45.6,"q":5.0,"d_min_m":0.1}')
        assert io.read_ekf_params(p) == EkfParams(q=5.0, d_min=0.1)

    def test_scenario_round_trip(self, tmp_path):
        p = tmp_path / "scenario.json"
        cfg = scenario_swap(3, 2.0, [120.0, 240.0], seed=7)
        io.write_scenario(p, cfg)
        assert io.read_scenario(p) == cfg

    def test_eval_report_document(self, tmp_path):
        p = tmp_path / "metrics.json"
        io.write_eval(p, EvalReport(347, 143, 5, 51))
        doc = json.loads(p.read_text())
        assert doc["counts"]["correct_sure"] == 347
        assert doc["accuracy"]["ratio"] == "490/546"

    def test_bad_json_is_a_value_error(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text("{")
        with pytest.raises(ValueError):
            io.read_ekf_params(p)


def one_report(k) -> list[DistanceReport]:
    return [DistanceReport("W1", "T1", 0.0, 1.0 + k, 2.0, 3)]


#: Each writer, called to write one of two files ``k`` = 0 or 1 that differ.
WRITE_CALLS = {
    "advertisements": lambda p, k: io.write_advertisements(
        p, [Grid([float(k)], "W1", "T1", [-45.0 - k], Activity.USAGE)]),
    "reports": lambda p, k: io.write_reports(p, one_report(k)),
    "truth": lambda p, k: io.write_truth(p, [TruthRecord("T1", 0.0, 1.0 + k, "W1")]),
    "matches": lambda p, k: io.write_matches(p, [MatchResult("T1", 0.0, 1.0 + k, "W1", Trust.SURE, 0.5)]),
    "errors": lambda p, k: io.write_errors(p, one_report(k), truth_for(one_report(k))),
    "metrics": lambda p, k: io.write_eval(p, EvalReport(347 + k, 143, 5, 51)),
    "scenario": lambda p, k: io.write_scenario(p, scenario_swap(2, 2.0, [120.0], seed=k)),
    "model": lambda p, k: io.write_model(p, PathLossModel(n=1.0 + k, x0=1.0, rssi0=-50.0)),
}


@pytest.mark.parametrize("kind", sorted(WRITE_CALLS))
class TestWriteRule:
    """A writer replaces an existing regular file with a new one, and
    writes through a symlink or to a device as it stands."""

    def written(self, tmp_path, kind, k) -> bytes:
        p = tmp_path / f"fresh-{k}"
        WRITE_CALLS[kind](p, k)
        return p.read_bytes()

    def test_a_hard_link_keeps_the_old_file(self, tmp_path, kind):
        old, new = self.written(tmp_path, kind, 0), self.written(tmp_path, kind, 1)
        assert old != new
        p, link = tmp_path / "out", tmp_path / "link"
        WRITE_CALLS[kind](p, 0)
        os.link(p, link)
        WRITE_CALLS[kind](p, 1)
        assert link.read_bytes() == old
        assert p.read_bytes() == new

    def test_a_file_that_cannot_be_removed_is_written_in_place(self, tmp_path, monkeypatch, kind):
        """A writable file in a directory the user may not write to cannot
        be removed; it is truncated and written as before."""
        p, link = tmp_path / "out", tmp_path / "link"
        WRITE_CALLS[kind](p, 0)
        os.link(p, link)

        def refuse(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(os, "remove", refuse)
        WRITE_CALLS[kind](p, 1)
        assert p.read_bytes() == link.read_bytes() == self.written(tmp_path, kind, 1)

    def test_a_symlink_is_kept_and_its_target_written(self, tmp_path, kind):
        target, p = tmp_path / "target", tmp_path / "out"
        WRITE_CALLS[kind](target, 0)
        p.symlink_to(target)
        WRITE_CALLS[kind](p, 1)
        assert p.is_symlink() and p.readlink() == target
        assert target.read_bytes() == self.written(tmp_path, kind, 1)

    def test_a_device_is_written_and_kept(self, kind):
        WRITE_CALLS[kind](os.devnull, 1)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


GOOD_AD = {"ts": 0.0, "wearable": "W1", "tag": "T1", "rssi_db": -45.6, "activity": "usage"}
#: An integer too large for a float.
HUGE = 10**400
#: A CSV field longer than the csv module's limit of 131,072 characters.
LONG_FIELD = "T" * 200_000
GOOD_AD_LINE = json.dumps(GOOD_AD)
#: ``GOOD_AD_LINE`` with a wearable id in Latin-1, which is not UTF-8.
LATIN1_AD_LINE = GOOD_AD_LINE.replace("W1", "W\u00e9").encode("latin-1")
AD_CSV_HEADER = "ts,wearable,tag,rssi_db,activity"


def written(write, value) -> dict:
    """The JSON document that the ``io`` writer ``write`` writes for ``value``."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "doc.json"
        write(path, value)
        return json.loads(path.read_text(encoding="utf-8"))


SCENARIO = written(io.write_scenario, scenario_swap(2, 2.0, [60.0], seed=1))
MODEL = written(io.write_model, DEFAULT_MODEL)


def scenario_with(worker=None, tool=None, segment=None, **fields):
    """``SCENARIO`` as JSON text, with ``fields`` replaced and ``worker``,
    ``tool`` and ``segment`` merged into the first worker, the first tool and
    that tool's first segment."""
    doc = json.loads(json.dumps(SCENARIO))
    doc.update(fields)
    doc["workers"][0].update(worker or {})
    doc["tools"][0].update(tool or {})
    doc["tools"][0]["schedule"][0].update(segment or {})
    return json.dumps(doc)


#: Documents whose fields hold a wrong type: (reader, file name, text, error).
BAD_DOCUMENTS = [
    (io.read_scenario, "scenario.json", scenario_with(seed=1.9),
     "bad scenario: seed must be a nonnegative integer, got 1.9"),
    (io.read_scenario, "scenario.json", scenario_with(seed=True),
     "bad scenario: seed must be a nonnegative integer, got True"),
    (io.read_scenario, "scenario.json", scenario_with(duration_s="60"),
     "bad scenario: duration must be a number, got '60'"),
    (io.read_scenario, "scenario.json", scenario_with(worker={"id": None}),
     "bad scenario: worker and tool ids must be strings, got None"),
    (io.read_scenario, "scenario.json", scenario_with(segment={"operator": 7}),
     "bad scenario: operator must be a string, got 7"),
    (io.read_scenario, "scenario.json", scenario_with(worker={"trace": [[0.0, "1.5", 0.0]]}),
     "bad scenario: trace knot must be a number, got '1.5'"),
    (io.read_scenario, "scenario.json", scenario_with(model={**SCENARIO["model"], "n": True}),
     "bad scenario: n must be a number, got True"),
    (io.read_ekf_params, "model.json", json.dumps({**MODEL, "n": True}),
     "bad filter config: n must be a number, got True"),
    (io.read_ekf_params, "ekf.json", json.dumps({**FULL_CONFIG, "dt_mode": 1}),
     "bad filter config: dt_mode must be 'dt_squared' or 'dt_linear', got 1"),
]

#: More bad documents: a key that no field reads is a typo, not a setting to
#: ignore, and a document must be UTF-8. Listed apart so that the parameter
#: ids of the cases above stay as they are.
MORE_BAD_DOCUMENTS = [
    (io.read_ekf_params, "ekf.json", json.dumps({**FULL_CONFIG, "x_floor": 0.3}),
     "bad filter config: unknown key 'x_floor'"),
    (io.read_ekf_params, "model.json", json.dumps({**MODEL, "x0": 2.0}),
     "bad filter config: unknown key 'x0'"),
    (io.read_scenario, "scenario.json", scenario_with(noise_std=6.99),
     "bad scenario: unknown key 'noise_std'"),
    (io.read_scenario, "scenario.json", scenario_with(model={**SCENARIO["model"], "q": 0.5}),
     "bad scenario: unknown key 'q'"),
    (io.read_scenario, "scenario.json", scenario_with(worker={"name": "Ann"}),
     "bad scenario: unknown key 'name'"),
    (io.read_scenario, "scenario.json", scenario_with(tool={"kind": "drill"}),
     "bad scenario: unknown key 'kind'"),
    (io.read_scenario, "scenario.json", scenario_with(segment={"stop": 50.0}),
     "bad scenario: unknown key 'stop'"),
    (io.read_scenario, "scenario.json", scenario_with().replace('"W1"', '"W\u00e9"', 1).encode("latin-1"),
     "bad scenario: 'utf-8' codec can't decode byte 0xe9"),
    (io.read_ekf_params, "ekf.json", json.dumps({**FULL_CONFIG, "dt_mode": "dt_lin\u00e9ar"},
                                                ensure_ascii=False).encode("latin-1"),
     "bad filter config: 'utf-8' codec can't decode byte 0xe9"),
]

#: Bad knots and activity names, which ``Trace`` and the segment reader
#: check. Listed apart, after the cases above, so that their ids stay.
KNOT_AND_ACTIVITY_BAD_DOCUMENTS = [
    (io.read_scenario, "scenario.json", scenario_with(worker={"trace": [[0.0, True, 0.0]]}),
     "bad scenario: trace knot must be a number, got True"),
    (io.read_scenario, "scenario.json", scenario_with(tool={"trace": [["0", 0.0, 0.3]]}),
     "bad scenario: trace knot must be a number, got '0'"),
    (io.read_scenario, "scenario.json",
     scenario_with(worker={"trace": [[0.0, 0.0, 0.0], [10.0, 1.0, 0.0], [5.0, 2.0, 0.0]]}),
     "bad scenario: trace knots must have strictly increasing timestamps (5.0 after 10.0)"),
    # json decodes 1e999 to infinity
    (io.read_scenario, "scenario.json",
     scenario_with(worker={"trace": [[0.0, "INF", 0.0]]}).replace('"INF"', "1e999"),
     "bad scenario: trace knots must be finite, got (0.0, inf, 0.0)"),
    (io.read_scenario, "scenario.json", scenario_with(segment={"activity": "walking"}),
     "bad scenario: 'walking' is not a valid Activity"),
    (io.read_scenario, "scenario.json", scenario_with(segment={"activity": ["usage"]}),
     "bad scenario: ['usage'] is not a valid Activity"),
    # a segment without an activity has no default in the file
    (io.read_scenario, "scenario.json",
     scenario_with(segment={"activity": "DROP"}).replace(' "activity": "DROP",', ""),
     "bad scenario: 'activity'"),
]

#: Filter-config numbers that are not JSON numbers, which ``EkfParams``
#: checks and names by its field. Listed apart, after the cases above, so
#: that their ids stay.
FILTER_NUMBER_BAD_DOCUMENTS = [
    (io.read_ekf_params, "ekf.json", json.dumps({**FULL_CONFIG, "p0": True}),
     "bad filter config: p0 must be a number, got True"),
    (io.read_ekf_params, "ekf.json", json.dumps({**FULL_CONFIG, "r": "43"}),
     "bad filter config: r must be a number, got '43'"),
]

BAD_INPUTS = [
    # (reader, file name, text, outcome); the outcome is an error pattern, or
    # (records read, the line skipped) for an advertisement file
    (io.read_advertisements, "ads.jsonl",
     f"{GOOD_AD_LINE}\n{json.dumps({**GOOD_AD, 'ts': HUGE})}\n", (1, 2)),
    (io.read_advertisements, "ads.jsonl", f"{GOOD_AD_LINE}\n{'[' * 100_000}\n", (1, 2)),
    (io.read_reports, "reports.jsonl",
     json.dumps({"wearable": "W1", "tag": "T1", "start_s": 0, "stop_s": 1,
                 "distance_m": HUGE, "n_obs": 1}), ":1: bad distance report"),
    (io.read_truth, "truth.jsonl",
     json.dumps({"tag": "T1", "start_s": HUGE, "stop_s": 7, "wearable": "W1"}),
     ":1: bad truth record"),
    (io.read_matches, "matches.jsonl",
     json.dumps({"tag": "T1", "start_s": 0, "stop_s": HUGE, "wearable": "W1",
                 "trust": "sure", "margin_m": 1.0}), ":1: bad match result"),
    (io.read_scenario, "scenario.json",
     json.dumps({**SCENARIO, "duration_s": HUGE}),
     "bad scenario"),
    (io.read_ekf_params, "model.json", json.dumps({**MODEL, "n": HUGE}),
     "bad filter config"),
    (io.read_ekf_params, "model.json", "3", "expected a JSON object"),
    (io.read_ekf_params, "ekf.json", "[1, 2]", "expected a JSON object"),
    (io.read_samples, "samples.csv", "distance_m,rssi_db\n1.0,-45.6\n2.0,-48.7,9\n",
     ":3: bad range sample: expected 2 columns"),
    (io.read_advertisements, "ads.csv",
     f"{AD_CSV_HEADER}\n0.0,W1,T1,-45.6,usage\n0.0,W1,{LONG_FIELD},-45.6,usage\n"
     "7.0,W1,T1,-45.6,usage\n", (2, 3)),
    (io.read_samples, "samples.csv",
     f"distance_m,rssi_db\n1.0,-45.6\n2.0,{LONG_FIELD}\n4.0,-51.7\n",
     ":3: bad range sample: field larger than field limit"),
    # a quoted field holding a newline spans lines 2-3: the bad row is line 4
    (io.read_advertisements, "ads.csv",
     f'{AD_CSV_HEADER}\n0.0,"W\n1",T1,-45.6,usage\nbad,W1,T1,-45.6,usage\n', (1, 4)),
    (io.read_samples, "samples.csv", 'distance_m,rssi_db\n"1.0\n",-45.6\n2.0,bad\n',
     ":4: bad range sample: could not convert"),
    # Python's json decodes NaN and Infinity; a time or margin must be finite
    (io.read_reports, "reports.jsonl",
     json.dumps({"wearable": "W1", "tag": "T1", "start_s": math.nan, "stop_s": 7,
                 "distance_m": 1.0, "n_obs": 2}),
     r":1: bad distance report: session window must be finite .*, got \[nan, 7.0\]"),
    (io.read_reports, "reports.jsonl",
     json.dumps({"wearable": "W1", "tag": "T1", "start_s": 0, "stop_s": math.inf,
                 "distance_m": 1.0, "n_obs": 2}),
     r":1: bad distance report: session window must be finite .*, got \[0.0, inf\]"),
    (io.read_truth, "truth.jsonl",
     json.dumps({"tag": "T1", "start_s": 0, "stop_s": math.inf, "wearable": "W1"}),
     r":1: bad truth record: session window must be finite .*, got \[0.0, inf\]"),
    (io.read_truth, "truth.jsonl",
     json.dumps({"tag": "T1", "start_s": math.nan, "stop_s": 7, "wearable": "W1"}),
     r":1: bad truth record: session window must be finite .*, got \[nan, 7.0\]"),
    (io.read_matches, "matches.jsonl",
     json.dumps({"tag": "T1", "start_s": -math.inf, "stop_s": 7, "wearable": "W1",
                 "trust": "sure", "margin_m": 1.0}),
     r":1: bad match result: session window must be finite .*, got \[-inf, 7.0\]"),
    (io.read_matches, "matches.jsonl",
     json.dumps({"tag": "T1", "start_s": 0, "stop_s": math.nan, "wearable": "W1",
                 "trust": "sure", "margin_m": 1.0}),
     r":1: bad match result: session window must be finite .*, got \[0.0, nan\]"),
    # an infinite margin is written as null; a literal one is bad, like NaN
    (io.read_matches, "matches.jsonl",
     json.dumps({"tag": "T1", "start_s": 0, "stop_s": 7, "wearable": "W1",
                 "trust": "sure", "margin_m": math.inf}),
     ":1: bad match result: margin_m must be finite"),
    (io.read_matches, "matches.jsonl",
     json.dumps({"tag": "T1", "start_s": 0, "stop_s": 7, "wearable": "W1",
                 "trust": "sure", "margin_m": math.nan}),
     ":1: bad match result: margin_m must be finite"),
    # a number must be a JSON number, not a string or a bool; a count an int >= 1
    (io.read_reports, "reports.jsonl",
     json.dumps({"wearable": "W1", "tag": "T1", "start_s": 0, "stop_s": 7,
                 "distance_m": 1.0, "n_obs": 2.9}),
     ":1: bad distance report: n_obs must be an integer >= 1, got 2.9"),
    (io.read_reports, "reports.jsonl",
     json.dumps({"wearable": "W1", "tag": "T1", "start_s": 0, "stop_s": 7,
                 "distance_m": 1.0, "n_obs": -4}),
     ":1: bad distance report: n_obs must be an integer >= 1, got -4"),
    (io.read_reports, "reports.jsonl",
     json.dumps({"wearable": "W1", "tag": "T1", "start_s": 0, "stop_s": 7,
                 "distance_m": 1.0, "n_obs": True}),
     ":1: bad distance report: n_obs must be an integer >= 1, got True"),
    (io.read_reports, "reports.jsonl",
     json.dumps({"wearable": "W1", "tag": "T1", "start_s": "0", "stop_s": 7,
                 "distance_m": 1.0, "n_obs": 2}),
     ":1: bad distance report: start must be a number, got '0'"),
    (io.read_reports, "reports.jsonl",
     json.dumps({"wearable": "W1", "tag": "T1", "start_s": 0, "stop_s": 7,
                 "distance_m": "1.5", "n_obs": 2}),
     ":1: bad distance report: distance must be a number, got '1.5'"),
    (io.read_truth, "truth.jsonl",
     json.dumps({"tag": "T1", "start_s": 0, "stop_s": True, "wearable": "W1"}),
     ":1: bad truth record: stop must be a number, got True"),
    (io.read_matches, "matches.jsonl",
     json.dumps({"tag": "T1", "start_s": 0, "stop_s": 7, "wearable": "W1",
                 "trust": "sure", "margin_m": "1.0"}),
     ":1: bad match result: margin_m must be a number, got '1.0'"),
    # an advertisement's ts and rssi_db must be JSON numbers, not bools or strings
    *(
        (io.read_advertisements, "ads.jsonl",
         f"{GOOD_AD_LINE}\n{json.dumps({**GOOD_AD, **bad})}\n", (1, 2))
        for bad in ({"ts": True}, {"rssi_db": False}, {"ts": "0.5"}, {"rssi_db": "-45.6"},
                    {"ts": None}, {"rssi_db": [-45.6]})
    ),
    *BAD_DOCUMENTS,
    # an id must be a JSON string
    (io.read_advertisements, "ads.jsonl", f"{GOOD_AD_LINE}\n{json.dumps({**GOOD_AD, 'tag': 7})}\n",
     (1, 2)),
    (io.read_truth, "truth.jsonl",
     json.dumps({"tag": "T1", "start_s": 0, "stop_s": 7, "wearable": None}),
     ":1: bad truth record: wearable must be a string, got None"),
    (io.read_matches, "matches.jsonl",
     json.dumps({"tag": 1, "start_s": 0, "stop_s": 7, "wearable": None,
                 "trust": "unsure", "margin_m": 0.0}),
     ":1: bad match result: tag must be a string, got 1"),
    # a JSON Lines line that is not UTF-8 is one bad line; a CSV file that
    # is not stops the reader, naming the file
    (io.read_advertisements, "ads.jsonl",
     f"{GOOD_AD_LINE}\n".encode() + LATIN1_AD_LINE + f"\n{GOOD_AD_LINE}\n".encode(), (2, 2)),
    (io.read_reports, "reports.jsonl",
     b'{"wearable":"W1","tag":"T1","start_s":0,"stop_s":7,"distance_m":1.0,"n_obs":2}\n'
     b'{"wearable":"W\xe9","tag":"T1","start_s":0,"stop_s":7,"distance_m":1.0,"n_obs":2}\n',
     ":2: bad distance report: 'utf-8' codec can't decode byte 0xe9"),
    (io.read_truth, "truth.jsonl", b'{"tag":"T\xe9","start_s":0,"stop_s":7,"wearable":"W1"}\n',
     ":1: bad truth record: 'utf-8' codec can't decode byte 0xe9"),
    (io.read_matches, "matches.jsonl",
     b'{"tag":"T1","start_s":0,"stop_s":7,"wearable":"W\xe9","trust":"sure","margin_m":1.0}\n',
     ":1: bad match result: 'utf-8' codec can't decode byte 0xe9"),
    (io.read_advertisements, "ads.csv",
     f"{AD_CSV_HEADER}\n0.0,W1,T1,-45.6,usage\n7.0,W\u00e9,T1,-45.6,usage\n".encode("latin-1"),
     "ads.csv: bad advertisement: 'utf-8' codec can't decode byte 0xe9"),
    (io.read_samples, "samples.csv", b"distance_m,rssi_db\n1.0,-45.6\n2.0\xe9,-48.7\n",
     "samples.csv: bad range sample: 'utf-8' codec can't decode byte 0xe9"),
    *MORE_BAD_DOCUMENTS,
    # a session window must not stop before it starts; a distance is at least 0
    (io.read_reports, "reports.jsonl",
     json.dumps({"wearable": "W1", "tag": "T1", "start_s": 50.0, "stop_s": 10.0,
                 "distance_m": 1.0, "n_obs": 2}),
     r":1: bad distance report: session window must be finite .*, got \[50.0, 10.0\]"),
    (io.read_truth, "truth.jsonl",
     json.dumps({"tag": "T1", "start_s": 50.0, "stop_s": 10.0, "wearable": "W1"}),
     r":1: bad truth record: session window must be finite .*, got \[50.0, 10.0\]"),
    (io.read_matches, "matches.jsonl",
     json.dumps({"tag": "T1", "start_s": 50.0, "stop_s": 10.0, "wearable": "W1",
                 "trust": "sure", "margin_m": 1.0}),
     r":1: bad match result: session window must be finite .*, got \[50.0, 10.0\]"),
    (io.read_reports, "reports.jsonl",
     json.dumps({"wearable": "W1", "tag": "T1", "start_s": 0.0, "stop_s": 7.0,
                 "distance_m": -2.0, "n_obs": 2}),
     ":1: bad distance report: distance must be finite and nonnegative, got -2.0"),
    *((reader, name, text, re.escape(error)) for reader, name, text, error in KNOT_AND_ACTIVITY_BAD_DOCUMENTS),
    *((reader, name, text, re.escape(error)) for reader, name, text, error in FILTER_NUMBER_BAD_DOCUMENTS),
    # 2**53 broadcasts or more in the duration, which generate could not count
    (io.read_scenario, "scenario.json", scenario_with(adv_interval_s=1e-300),
     re.escape("bad scenario: adv_interval must leave fewer than 2**53 broadcasts in the duration, "
               "got 1e-300 for duration 360.0")),
    (io.read_scenario, "scenario.json", scenario_with(duration_s=1e300),
     re.escape("bad scenario: adv_interval must leave fewer than 2**53 broadcasts in the duration, "
               "got 7.0 for duration 1e+300")),
]


@pytest.mark.parametrize(
    "reader, name, text, outcome", BAD_INPUTS,
    ids=[f"{r.__name__}-{i}" for i, (r, *_) in enumerate(BAD_INPUTS)],
)
def test_every_reader_skips_or_rejects_bad_input(tmp_path, reader, name, text, outcome):
    """One rule for every file: an advertisement file skips the bad line,
    every other reader raises ValueError naming the file and the line."""
    p = tmp_path / name
    p.write_bytes(text) if isinstance(text, bytes) else p.write_text(text)
    if isinstance(outcome, tuple):
        ads, skipped = reader(p)
        assert (len(ads), [i for i, _ in skipped]) == (outcome[0], [outcome[1]])
    else:
        with pytest.raises(ValueError, match=outcome):
            reader(p)


ALL_BAD_DOCUMENTS = (BAD_DOCUMENTS + MORE_BAD_DOCUMENTS + KNOT_AND_ACTIVITY_BAD_DOCUMENTS
                     + FILTER_NUMBER_BAD_DOCUMENTS)


@pytest.mark.parametrize(
    "reader, name, text, error", ALL_BAD_DOCUMENTS,
    ids=[f"{r.__name__}-{i}" for i, (r, *_) in enumerate(ALL_BAD_DOCUMENTS)],
)
def test_bad_documents_exit_2_naming_the_file(tmp_path, capsys, reader, name, text, error):
    p = tmp_path / name
    p.write_bytes(text) if isinstance(text, bytes) else p.write_text(text)
    if reader is io.read_scenario:
        argv = ["simulate", p, "--out-dir", tmp_path / "out"]
    else:
        ads = tmp_path / "ads.jsonl"
        ads.write_text(GOOD_AD_LINE + "\n")
        argv = ["estimate", ads, "-o", tmp_path / "reports.jsonl", "--config", p]
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert f"{p}: {error}" in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "reports.jsonl").exists()


@pytest.mark.parametrize("reader, name, text, field", [
    (io.read_scenario, "scenario.json", scenario_with(duration_s=True), "duration"),
    (io.read_scenario, "scenario.json", scenario_with(adv_interval_s="7"), "adv_interval"),
    (io.read_scenario, "scenario.json", scenario_with(noise_std_db=None), "noise_std"),
    (io.read_scenario, "scenario.json", scenario_with(drop_prob=False), "drop_prob"),
    (io.read_scenario, "scenario.json", scenario_with(model={**SCENARIO["model"], "x0_m": True}), "x0"),
    (io.read_scenario, "scenario.json", scenario_with(model={**SCENARIO["model"], "rssi0_db": "-45"}), "rssi0"),
    (io.read_scenario, "scenario.json", scenario_with(segment={"start_s": True}), "start"),
    (io.read_scenario, "scenario.json", scenario_with(segment={"stop_s": "60"}), "stop"),
    (io.read_scenario, "scenario.json", scenario_with(tool={"trace": [[0.0, 0.0, True]]}), "trace knot"),
    (io.read_ekf_params, "model.json", json.dumps({**MODEL, "rssi0_db": True}), "rssi0"),
    (io.read_ekf_params, "ekf.json", json.dumps({**FULL_CONFIG, "d_min_m": "0.4"}), "d_min"),
])
def test_reader_errors_name_the_field(tmp_path, reader, name, text, field):
    """A number checked by the type it builds is named by that type's field."""
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: bad .*: {field} must be a number, got "):
        reader(p)
