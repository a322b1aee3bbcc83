import json
import math

import pytest

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

    def test_csv_round_trip(self, tmp_path):
        p = tmp_path / "ads.csv"
        io.write_advertisements(p, ADS)
        assert p.read_text().splitlines()[0] == "ts,wearable,tag,rssi_db,activity"
        got, skipped = io.read_advertisements(p)
        assert got == ADS and skipped == []

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

    def test_csv_header_is_checked(self, tmp_path):
        p = tmp_path / "ads.csv"
        p.write_text("time,badge\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            io.read_advertisements(p)


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
        assert io.read_model(p) == DEFAULT_MODEL

    def test_params_round_trip(self, tmp_path):
        p = tmp_path / "ekf.json"
        for params in (EkfParams(r=48.92, dt_mode=DT_LINEAR), EkfParams(x_floor=0.2)):
            io.write_ekf_params(p, params)
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
            io.read_model(p)
