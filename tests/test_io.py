import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxmatch import io
from proxmatch.edge import Activity, Advertisement, DistanceReport
from proxmatch.ekf import DT_LINEAR, EkfParams
from proxmatch.matcher import EvalReport, MatchResult, Trust, TruthRecord
from proxmatch.pathloss import DEFAULT_MODEL, RangeSample
from proxmatch.simulator import scenario_swap

ADS = [
    Advertisement(ts=0.0, wearable="W1", tag="T1", rssi=-45.6, activity=Activity.USAGE),
    Advertisement(ts=7.0, wearable="W2", tag="T1", rssi=-52.25, activity=Activity.TRANSPORT),
    Advertisement(ts=14.0, wearable="W1", tag="T2", rssi=-40.0, activity=Activity.INACTIVE),
]


class TestAdvertisements:
    def test_jsonl_round_trip(self, tmp_path):
        p = tmp_path / "ads.jsonl"
        io.write_advertisements(p, ADS)
        got, skipped = io.read_advertisements(p)
        assert got == ADS and skipped == []
        # equality alone would also accept plain tuples
        assert all(type(a) is Advertisement for a in got)

    def test_csv_round_trip(self, tmp_path):
        p = tmp_path / "ads.csv"
        io.write_advertisements(p, ADS)
        assert p.read_text().splitlines()[0] == "ts,wearable,tag,rssi_db,activity"
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


def reference_ads_bytes(ads) -> bytes:
    return "".join(json.dumps(io._ad_to_dict(a), separators=(",", ":")) + "\n" for a in ads).encode()


def reference_read_ads(path):
    """Per-line ``json.loads`` and the ``Activity(...)`` enum call: what the
    fast path in ``read_advertisements`` must reproduce, reasons included.
    ``ts`` and ``rssi_db`` must be JSON numbers: ``int`` or ``float``, not
    ``bool`` or a string."""

    def number(d, key):
        if type(d[key]) not in (int, float):
            raise TypeError(f"{key} must be a number, got {d[key]!r}")
        return float(d[key])

    ads, skipped = [], []
    for i, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
            ads.append(
                Advertisement(
                    ts=number(d, "ts"),
                    wearable=str(d["wearable"]),
                    tag=str(d["tag"]),
                    rssi=number(d, "rssi_db"),
                    activity=Activity(d["activity"]),
                )
            )
        except (ValueError, KeyError, TypeError) as e:
            skipped.append((i, str(e)))
    return ads, skipped


ODD_IDS = ['W"1', "W\\1", "Wé", "W\u2028", "\u00ff\u4e2d", "", "W\x00"]
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
        ]
        p = tmp_path / "ads.jsonl"
        io.write_advertisements(p, ads)
        assert p.read_bytes() == reference_ads_bytes(ads)
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
        io.write_advertisements(p, iter(ads))
        assert p.read_bytes() == reference_ads_bytes(ads)
        assert len(p.read_bytes().splitlines()) == n

    def test_writer_cached_text_keeps_equal_values_apart(self, tmp_path):
        """Equal keys with different text: ``0.0`` and ``-0.0``; ``1``,
        ``1.0`` and ``np.float64(1.0)``; and the same ids as ``str`` and as
        other types."""
        u = Activity.USAGE
        ads = [
            Advertisement(ts=0.0, wearable="W1", tag="T1", rssi=-45.6, activity=u),
            Advertisement(ts=-0.0, wearable="W1", tag="T1", rssi=-0.0, activity=u),
            Advertisement(ts=0.0, wearable="W1", tag="T1", rssi=0.0, activity=u),
            Advertisement(ts=1, wearable="W1", tag="T1", rssi=1, activity=u),
            Advertisement(ts=1.0, wearable="W1", tag="T1", rssi=1.0, activity=u),
            Advertisement(ts=np.float64(1.0), wearable="W1", tag="T1", rssi=np.float64(1.0),
                          activity=u),
            Advertisement(ts=1, wearable="W1", tag="T1", rssi=1, activity=Activity.TRANSPORT),
            Advertisement(ts=2.0, wearable=1, tag="T1", rssi=-50.0, activity=u),
            Advertisement(ts=2.0, wearable="1", tag="T1", rssi=-50.0, activity=u),
            Advertisement(ts=2.0, wearable=True, tag="T1", rssi=-50.0, activity=u),
            Advertisement(ts=2.0, wearable=1.0, tag="T1", rssi=-50.0, activity=u),
            Advertisement(ts=2.0, wearable="W1", tag=None, rssi=-50.0, activity=u),
            Advertisement(ts=2.0, wearable="W1", tag="T1", rssi=-50.0, activity=u),
            Advertisement(ts=2.0, wearable="W1", tag="T2", rssi=-50.0, activity=u),
            Advertisement(ts=2.0, wearable="W1", tag="T1", rssi=-50.0, activity=u),
        ]
        p = tmp_path / "ads.jsonl"
        io.write_advertisements(p, ads)
        assert p.read_bytes() == reference_ads_bytes(ads)
        assert p.read_text().splitlines()[:3] == [
            '{"ts":0.0,"wearable":"W1","tag":"T1","rssi_db":-45.6,"activity":"usage"}',
            '{"ts":-0.0,"wearable":"W1","tag":"T1","rssi_db":-0.0,"activity":"usage"}',
            '{"ts":0.0,"wearable":"W1","tag":"T1","rssi_db":0.0,"activity":"usage"}',
        ]

    @settings(max_examples=150, deadline=None)
    @given(ads=st.lists(advertisements(), max_size=12))
    def test_writer_property(self, tmp_path_factory, ads):
        p = tmp_path_factory.mktemp("codec") / "ads.jsonl"
        io.write_advertisements(p, ads)
        assert p.read_bytes() == reference_ads_bytes(ads)
        got, skipped = io.read_advertisements(p)
        assert skipped == [] and got == reference_read_ads(p)[0]

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
            good.replace('"W1"', "null"),  # read as the id "None"
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
        assert len(got[0]) == 4
        assert [i for i, _ in got[1]] == [2, 3, 4, *range(6, 16), 17, 18]

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
        assert io.read_reports(p) == reports

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


class TestDocuments:
    def test_samples_round_trip(self, tmp_path):
        p = tmp_path / "samples.csv"
        samples = [RangeSample(0.5, -41.2), RangeSample(2.0, -49.75)]
        io.write_samples(p, samples)
        assert io.read_samples(p) == samples

    def test_model_round_trip(self, tmp_path):
        p = tmp_path / "model.json"
        io.write_model(p, DEFAULT_MODEL)
        assert io.read_ekf_params(p).model == DEFAULT_MODEL

    def test_params_round_trip(self, tmp_path):
        p = tmp_path / "ekf.json"
        for params in (EkfParams(r=48.92, dt_mode=DT_LINEAR), EkfParams(x_floor=0.2)):
            p.write_text(json.dumps(params.to_dict()))
            assert io.read_ekf_params(p) == params

    def test_params_without_a_floor_key_get_the_default_floor(self, tmp_path):
        p = tmp_path / "ekf.json"
        doc = EkfParams(r=48.92).to_dict()
        del doc["x_floor_m"]
        p.write_text(json.dumps(doc))
        assert io.read_ekf_params(p) == EkfParams(r=48.92)

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


GOOD_AD = {"ts": 0.0, "wearable": "W1", "tag": "T1", "rssi_db": -45.6, "activity": "usage"}
#: An integer too large for a float.
HUGE = 10**400
#: A CSV field longer than the csv module's limit of 131,072 characters.
LONG_FIELD = "T" * 200_000
GOOD_AD_LINE = json.dumps(GOOD_AD)
AD_CSV_HEADER = "ts,wearable,tag,rssi_db,activity"

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
     json.dumps({**scenario_swap(2, 2.0, [60.0], seed=1).to_dict(), "duration_s": HUGE}),
     "bad scenario"),
    (io.read_ekf_params, "model.json", json.dumps({**DEFAULT_MODEL.to_dict(), "n": HUGE}),
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
     ":1: bad distance report: start_s must be finite"),
    (io.read_reports, "reports.jsonl",
     json.dumps({"wearable": "W1", "tag": "T1", "start_s": 0, "stop_s": math.inf,
                 "distance_m": 1.0, "n_obs": 2}),
     ":1: bad distance report: stop_s must be finite"),
    (io.read_truth, "truth.jsonl",
     json.dumps({"tag": "T1", "start_s": 0, "stop_s": math.inf, "wearable": "W1"}),
     ":1: bad truth record: stop_s must be finite"),
    (io.read_truth, "truth.jsonl",
     json.dumps({"tag": "T1", "start_s": math.nan, "stop_s": 7, "wearable": "W1"}),
     ":1: bad truth record: start_s must be finite"),
    (io.read_matches, "matches.jsonl",
     json.dumps({"tag": "T1", "start_s": -math.inf, "stop_s": 7, "wearable": "W1",
                 "trust": "sure", "margin_m": 1.0}),
     ":1: bad match result: start_s must be finite"),
    (io.read_matches, "matches.jsonl",
     json.dumps({"tag": "T1", "start_s": 0, "stop_s": math.nan, "wearable": "W1",
                 "trust": "sure", "margin_m": 1.0}),
     ":1: bad match result: stop_s must be finite"),
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
     ":1: bad distance report: start_s must be a number, got '0'"),
    (io.read_reports, "reports.jsonl",
     json.dumps({"wearable": "W1", "tag": "T1", "start_s": 0, "stop_s": 7,
                 "distance_m": "1.5", "n_obs": 2}),
     ":1: bad distance report: distance_m must be a number, got '1.5'"),
    (io.read_truth, "truth.jsonl",
     json.dumps({"tag": "T1", "start_s": 0, "stop_s": True, "wearable": "W1"}),
     ":1: bad truth record: stop_s must be a number, got True"),
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
]


@pytest.mark.parametrize(
    "reader, name, text, outcome", BAD_INPUTS,
    ids=[f"{r.__name__}-{i}" for i, (r, *_) in enumerate(BAD_INPUTS)],
)
def test_every_reader_skips_or_rejects_bad_input(tmp_path, reader, name, text, outcome):
    """One rule for every file: an advertisement file skips the bad line,
    every other reader raises ValueError naming the file and the line."""
    p = tmp_path / name
    p.write_text(text)
    if isinstance(outcome, tuple):
        ads, skipped = reader(p)
        assert (len(ads), [i for i, _ in skipped]) == (outcome[0], [outcome[1]])
    else:
        with pytest.raises(ValueError, match=outcome):
            reader(p)
