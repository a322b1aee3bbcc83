import csv
import dataclasses
import hashlib
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proxmatch import cli, io, simulator
from proxmatch.cli import main
from proxmatch.edge import ACTIVE_DEFAULT, Activity, Advertisement, DistanceReport, Grid, Instants
from proxmatch.matcher import MatchResult, Trust, TruthRecord
from proxmatch.pathloss import DEFAULT_MODEL, PathLossModel, fit
from proxmatch.simulator import (
    ScenarioConfig,
    ScheduleSegment,
    ToolSpec,
    Trace,
    WorkerSpec,
    generate,
    scenario_static,
)


def run(*argv):
    return main([str(a) for a in argv])


def write_samples_csv(path, pairs):
    """A calibration CSV of (distance, rssi) pairs, as ``fit`` reads it."""
    rows = "".join(f"{float(d)!r},{float(z)!r}\n" for d, z in pairs)
    path.write_text("distance_m,rssi_db\n" + rows)


def exit_code(*argv):
    """Exit status of a command, whether argparse or the command rejects it."""
    try:
        return run(*argv)
    except SystemExit as e:
        return e.code


class TestFit:
    def test_noiseless_samples_recover_the_model(self, tmp_path, capsys):
        samples_path = tmp_path / "samples.csv"
        write_samples_csv(samples_path, [(d, DEFAULT_MODEL.forward(d)) for d in (0.5, 1.0, 2.0, 4.0, 8.0)])
        out = tmp_path / "model.json"
        assert run("fit", samples_path, "-o", out) == 0
        m = io.read_ekf_params(out).model
        assert m.n == pytest.approx(1.011, rel=1e-9)
        assert m.rssi0 == pytest.approx(-45.6, rel=1e-9)
        assert "n=" in capsys.readouterr().out

    def test_noisy_samples_land_close(self, tmp_path):
        rng = np.random.default_rng(123)
        d = rng.uniform(0.1, 6.0, size=20000)
        z = [DEFAULT_MODEL.forward(x) + e for x, e in zip(d, rng.normal(0.0, 6.99, size=20000))]
        samples_path = tmp_path / "samples.csv"
        write_samples_csv(samples_path, zip(d, z))
        out = tmp_path / "model.json"
        assert run("fit", samples_path, "-o", out) == 0
        m = io.read_ekf_params(out).model
        assert abs(m.n - 1.011) < 0.05
        assert abs(m.rssi0 + 45.6) < 0.3

    def test_x0_flag_sets_the_reference_distance(self, tmp_path, capsys):
        model = PathLossModel(n=1.7, x0=2.0, rssi0=-52.0)
        samples_path = tmp_path / "samples.csv"
        write_samples_csv(samples_path, [(d, model.forward(d)) for d in (0.5, 1.0, 2.0, 4.0, 8.0)])
        out = tmp_path / "model.json"
        assert run("fit", samples_path, "--x0", 2, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["x0_m"] == 2.0
        assert doc["n"] == pytest.approx(1.7, rel=1e-9) and doc["rssi0_db"] == pytest.approx(-52.0, rel=1e-9)
        assert run("fit", samples_path, "--x0", 0, "-o", tmp_path / "zero.json") == 2
        assert "error: reference distance must be finite and positive, got 0.0" in capsys.readouterr().err
        assert not (tmp_path / "zero.json").exists()

    def test_empty_samples_exit_2(self, tmp_path, capsys):
        p = tmp_path / "samples.csv"
        p.write_text("distance_m,rssi_db\n")
        assert run("fit", p) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_sample_row_exits_2_naming_the_line(self, tmp_path, capsys):
        p = tmp_path / "samples.csv"
        p.write_text("distance_m,rssi_db\n1.0,-45.6\n-1.0,-45.6\n2.0,-48.6\n")
        assert run("fit", p) == 2
        assert (f"error: {p}:3: bad range sample: sample distance must be finite and positive, "
                "got -1.0") in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run("fit", tmp_path / "nope.csv") == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as e:
            run("fit", "--frobnicate")
        assert e.value.code == 2


class TestScenarioFlags:
    @pytest.mark.parametrize("kind", [("static",), ("swap", "--swap-times", 60)], ids=["static", "swap"])
    def test_noise_std_flag_is_written_and_checked(self, tmp_path, capsys, kind):
        scen = tmp_path / "scen.json"
        assert run("scenario", *kind, "-n", 2, "--spacing", 2.0, "--noise-std", 3, "-o", scen) == 0
        assert json.loads(scen.read_text())["noise_std_db"] == 3.0
        bad = tmp_path / "bad.json"
        assert run("scenario", *kind, "-n", 2, "--spacing", 2.0, "--noise-std", -1, "-o", bad) == 2
        assert "error: noise std must be finite and nonnegative, got -1.0" in capsys.readouterr().err
        assert not bad.exists()


class TestStagedChain:
    def test_full_chain(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        out = tmp_path / "run"
        assert run("scenario", "static", "-n", 3, "--spacing", 2.0,
                   "--duration", 120, "-o", scen) == 0
        assert run("simulate", scen, "--out-dir", out, "--seed", 7) == 0
        assert run("estimate", out / "advertisements.jsonl", "-o", out / "reports.jsonl") == 0
        assert run("match", out / "reports.jsonl", "-o", out / "matches.jsonl") == 0
        assert run("evaluate", out / "matches.jsonl", out / "truth.jsonl",
                   "-o", out / "metrics.json") == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["total"] == 3
        assert "accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "scenario",
        [
            ("static", "-n", 3, "--spacing", 2.0, "--duration", 120),
            # dropped broadcasts take the simulator's scalar-draw noise path
            ("swap", "-n", 3, "--spacing", 2.0, "--swap-times", 60, "--duration", 120,
             "--drop-prob", 0.2),
            # a lone badge has no competitor: its infinite margin is written as null
            ("static", "-n", 1, "--spacing", 2.0, "--duration", 120),
        ],
        ids=["static", "swap-drop", "lone-badge"],
    )
    def test_pipeline_is_byte_identical_to_the_staged_run(self, tmp_path, capsys, scenario):
        scen = tmp_path / "scen.json"
        run("scenario", *scenario, "-o", scen)
        a, b = tmp_path / "staged", tmp_path / "piped"
        capsys.readouterr()
        assert run("simulate", scen, "--out-dir", a, "--seed", 5) == 0
        assert run("estimate", a / "advertisements.jsonl", "-o", a / "reports.jsonl") == 0
        assert run("match", a / "reports.jsonl", "-o", a / "matches.jsonl") == 0
        assert run("evaluate", a / "matches.jsonl", a / "truth.jsonl",
                   "-o", a / "metrics.json") == 0
        staged = capsys.readouterr()
        assert run("pipeline", scen, "--out-dir", b, "--seed", 5) == 0
        piped = capsys.readouterr()
        for name in ("advertisements.jsonl", "truth.jsonl", "reports.jsonl",
                     "matches.jsonl", "metrics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        # pipeline runs the same stage functions, so it prints each stage's line
        staged_lines = staged.out.replace(str(a), "DIR").splitlines()
        assert len(staged_lines) == 5
        assert piped.out.replace(str(b), "DIR").splitlines() == staged_lines + ["outputs -> DIR"]
        assert piped.err == staged.err
        if scenario[2] == 1:
            assert all(m.margin == math.inf for m in io.read_matches(b / "matches.jsonl"))
            assert '"margin_m":null' in (b / "matches.jsonl").read_text()

    def test_pipeline_errors_csv_equals_the_read_back_reports(self, tmp_path):
        """``errors.csv`` comes from the reports in memory; it must equal the
        file built from ``reports.jsonl`` read back."""
        scen = tmp_path / "scen.json"
        run("scenario", "swap", "-n", 3, "--spacing", 2.0, "--swap-times", 60,
            "--duration", 120, "-o", scen)
        out = tmp_path / "run"
        assert run("pipeline", scen, "--out-dir", out, "--seed", 5) == 0
        config = dataclasses.replace(io.read_scenario(scen), seed=5)
        _, truth = generate(config)
        expected = tmp_path / "expected.csv"
        io.write_errors(expected, io.read_reports(out / "reports.jsonl"), truth)
        assert (out / "errors.csv").read_bytes() == expected.read_bytes()
        assert len(expected.read_text().splitlines()) > 1

    def test_same_seed_same_bytes_different_seed_different_bytes(self, tmp_path):
        scen = tmp_path / "scen.json"
        run("scenario", "static", "-n", 2, "--spacing", 2.0, "--duration", 60, "-o", scen)
        for d, seed in (("r1", 3), ("r2", 3), ("r3", 4)):
            assert run("pipeline", scen, "--out-dir", tmp_path / d, "--seed", seed) == 0
        ads = [(tmp_path / d / "advertisements.jsonl").read_bytes() for d in ("r1", "r2", "r3")]
        assert ads[0] == ads[1]
        assert ads[0] != ads[2]

    def test_swap_scenario_command(self, tmp_path):
        scen = tmp_path / "swap.json"
        assert run("scenario", "swap", "-n", 3, "--spacing", 2.0,
                   "--swap-times", "120,240", "--duration", 360, "-o", scen) == 0
        out = tmp_path / "run"
        assert run("pipeline", scen, "--out-dir", out, "--seed", 1) == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["total"] == 9

    def test_a_nan_swap_time_exits_2_naming_it(self, tmp_path, capsys):
        scen = tmp_path / "swap.json"
        assert run("scenario", "swap", "-n", 3, "--spacing", 2.0,
                   "--swap-times", "120,nan", "--duration", 360, "-o", scen) == 2
        assert capsys.readouterr().err == "error: swap times must be finite, got nan in [120.0, nan]\n"
        assert not scen.exists()

    def test_floored_distances_and_fast_traces_are_warned_on_stderr(self, tmp_path, capsys):
        colocated = tmp_path / "colocated.json"
        io.write_scenario(colocated, scenario_static(1, 1.0, 21.0, operating_distance=0.0))
        assert run("pipeline", colocated, "--out-dir", tmp_path / "a") == 0
        cap = capsys.readouterr()
        assert cap.err.splitlines() == ["warning: 3 true distance(s) below 0.05 m floored"]
        assert "warning" not in cap.out
        sprinter = WorkerSpec(id="W1", trace=Trace(((0.0, 0.0, 0.0), (1.0, 5.0, 0.0))))
        fast = tmp_path / "fast.json"
        io.write_scenario(fast, dataclasses.replace(scenario_static(1, 1.0, 10.0),
                                                    workers=(sprinter,)))
        assert run("simulate", fast, "--out-dir", tmp_path / "b") == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: trace of 'W1' reaches 5.00 m/s, above the walking bound 0.7 m/s"
        ]

    def test_zero_duration_pipeline_is_empty_but_ok(self, tmp_path):
        scen = tmp_path / "scen.json"
        run("scenario", "static", "-n", 1, "--spacing", 1.0, "--duration", 0, "-o", scen)
        out = tmp_path / "run"
        assert run("pipeline", scen, "--out-dir", out) == 0
        assert (out / "advertisements.jsonl").read_text() == ""
        assert (out / "matches.jsonl").read_text() == ""
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["total"] == 0 and doc["accuracy"] is None
        assert (out / "errors.csv").read_text().startswith("wearable,tag,")


#: SHA-256 of the ``scenario`` document, and of ``advertisements.jsonl`` and
#: ``truth.jsonl`` written by ``simulate``, recorded once. Criterion 8
#: compares reruns with each other and perfbench digests decision fields
#: only; these pin the scenario and simulated bytes themselves, so a change
#: to a scenario builder's defaults, the seeded draw order, the batching or
#: the writer shows here.
SIMULATE_GOLDEN = {
    "static-1h": (
        ("static", "-n", 3, "--spacing", 2.0, "--duration", 3600, "--seed", 1),
        "913f1a5d6e0c89d9b85316b3883323b476be69ecf472d8e580d38471d697b0ba",
        "5c2502c7198657265b79681e4596711031edb9b177835bc9e0a0c24baf87d909",
        "607ce530e8e19ab72db7359fcd5fe777b0bb945c35c24e6a0f9fb97ff7f6e0c7",
    ),
    "swap": (
        ("swap", "-n", 3, "--spacing", 2.0, "--swap-times", "120,240,360,480",
         "--duration", 600, "--seed", 2),
        "350fd97c070d0f73743f4f687c267a1258876b43a29e287a89c78206790c13c0",
        "cea408d83f6d570c5060a48be09eb2d772c81f5a09acc86ed87e35df62ec3ee0",
        "3a9800fcf373fd6636ff4f2c98406144c3a6427802ac21b5b1d9bee0b25b7bec",
    ),
    "static-drop-bystander": (
        ("static", "-n", 2, "--spacing", 2.0, "--duration", 600, "--drop-prob", 0.3,
         "--bystanders", 1, "--seed", 3),
        "903c3926a60de2b078aa1253c14fdf14976448ba00f8a607c62cc627215f7f07",
        "2f3562c1229c3c677481580e08be6ddc42e581dd9385e0e69c67f6c4f8a726ae",
        "7e6bfe927a77f872b995c3d679786564a0da34a72f0f0408bbeda3f0cad2c33f",
    ),
    "crowd-swap": (
        ("swap", "-n", 8, "--spacing", 2.0, "--swap-times", "100,200,300",
         "--duration", 400, "--seed", 4),
        "30de6793d6524fb83a7f55d7a82623b54d7f8a282c91c2b06badfd9583dc0edd",
        "c399bbefa177b5566d224ef5c922b0be822a3624426f6d83ff3d4746118f1b18",
        "d3a6416328f083f6f118689df14026ea82d85f3cfb092a231536caf1c90dc24e",
    ),
    "swap-drop": (
        ("swap", "-n", 4, "--spacing", 1.5, "--swap-times", "100,200,300",
         "--duration", 400, "--drop-prob", 0.2, "--seed", 5),
        "7525b29db1c0bc317815d45482b570235a641223aa0afb94a84011e090eed53c",
        "aa3936f613521271dad577b113bf6d5c567276b219fa104cc487a84e9e78a8db",
        "5acedf2c10328a6c2d7aee9fc114b0d13f51bd464a4de7495a2d2c67acc67bc8",
    ),
}


@pytest.mark.parametrize("name", sorted(SIMULATE_GOLDEN))
def test_simulate_bytes_match_the_recorded_digests(tmp_path, name):
    scenario, *golden = SIMULATE_GOLDEN[name]
    scen, out = tmp_path / "scen.json", tmp_path / "run"
    assert run("scenario", *scenario, "-o", scen) == 0
    assert run("simulate", scen, "--out-dir", out) == 0
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (scen, out / "advertisements.jsonl", out / "truth.jsonl")]
    assert digests == golden


#: sha256 of the files ``pipeline`` writes after the two above, on each
#: ``SIMULATE_GOLDEN`` scenario: reports, matches, metrics and errors.
PIPELINE_GOLDEN = {
    "crowd-swap": (
        "26350b35f974196ce9180b1c3c48499e790eec2c7e1fe94ddf141a44c9a7cce4",
        "716be6d6284350bc8a19710f3f0a38fb12cb6906aed430c8938c3b2973b1b8a5",
        "5c961f5eeb273393fcc54e138019c12d5dcbe8f9eda0f76660d68754ccf3bffe",
        "cae7b77ee5c4b1ce80d0d6aa4abd7f68c7264571fdecdce6bfb9b37016c41c9e",
    ),
    "static-1h": (
        "76ef9e168e4e10e6f87df038d8f9078707c7306bb27efbdeb4a6934e846f0cae",
        "9f8b6fae20fcd47922ff0d695c549794e876a0e099d7c9b5d420e99de1c0041e",
        "21345542530770af535c977cddee79607bcb09d7fe8c15146360e99ab26463c1",
        "0ac5d0599761ccbe9ef8b7e0298869a040de74a7153ff6661e5c0b5315a6876a",
    ),
    "static-drop-bystander": (
        "25d5629014e0b56a3dfec0bf6791c0d96d0d98b429eb110d73fbff09e613d809",
        "6203b015df8e45e9d6f2b3f094ba18068a0c9e819fbea40f7722df9ea3c49702",
        "cfa0dd0548519cb0356f41b277565aa2926837c83b8c1f3bfa4324626c9a0f9a",
        "9e2124cbac4eca7d7d958e959ace3c4d027ac1824e82396649fbb50c1e8b0a68",
    ),
    "swap": (
        "dcc543b5d94eccfcadf3e5d52305a4fd65663799ce918ca79f8c015444742886",
        "85b7d6cc9289f6715d251f2d0cbfcad8ff0ea756e6930dc78952c8aea181a4e5",
        "a99da9c5c06ac6fede3c7d5e7cdf93997f3022cb5dcc06722f9731aa62370b36",
        "f340f38a7210652bbc42a4bc30062175dc6c0b0ac30d5793e4bdbc3ad0d80118",
    ),
    "swap-drop": (
        "1264de054f799aa8da8f7527e5ba35f23a2b6f88accbfdab7b60732692a755d9",
        "ce02bc67962460571349739da1bbd994756e2911531c583133a1eeb9e2d78697",
        "3331caf424d213c87beb9be7c208f71ac11f16074ef7a0af3fd04ac84d459685",
        "aa70e8551a3129c7315904bc87b711dbd0bdf1d806138711d6b2b981e1d5f526",
    ),
}


@pytest.mark.parametrize("name", sorted(PIPELINE_GOLDEN))
def test_pipeline_bytes_match_the_recorded_digests(tmp_path, name):
    scen, out = tmp_path / "scen.json", tmp_path / "run"
    assert run("scenario", *SIMULATE_GOLDEN[name][0], "-o", scen) == 0
    assert run("pipeline", scen, "--out-dir", out) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("reports.jsonl", "matches.jsonl", "metrics.json", "errors.csv"))
    assert digests == PIPELINE_GOLDEN[name]


def activity_runs():
    """T1 runs two touching usage segments, then transport, then usage
    again: three activity runs. T2 runs one usage segment."""
    u, t = Activity.USAGE, Activity.TRANSPORT
    workers = (WorkerSpec("W1", Trace.stationary(0.0, 0.0)), WorkerSpec("W2", Trace.stationary(2.0, 0.0)))
    tools = (
        ToolSpec("T1", Trace.stationary(0.0, 0.3), (
            ScheduleSegment(0.0, 70.0, u, "W1"), ScheduleSegment(70.0, 140.0, u, "W2"),
            ScheduleSegment(140.0, 210.0, t), ScheduleSegment(280.0, 350.0, u, "W1"),
        )),
        ToolSpec("T2", Trace.stationary(2.0, 0.3), (ScheduleSegment(0.0, 350.0, u, "W2"),)),
    )
    return ScenarioConfig(seed=3, duration=360.0, workers=workers, tools=tools)


#: sha256 of the six files ``pipeline`` writes on ``activity_runs()``,
#: lossless and with drop_prob 0.2, in the order of ``RUN_FILES``. Without
#: loss, T1's runs each hold part of its instants, the one path of the
#: simulated stream on which a run's grids share a slice of them.
ACTIVITY_RUNS_GOLDEN = {
    0.0: (
        "7be33f040384d52dcc65962bc4a1a2dd0e0482fbb42c040703bc8a7822194d80",
        "6a65c717bbdae280666710a81a6799b731ae0e16180eef5fc7326af242d3643d",
        "3297dfa6ecadaa620e576606e2d8c40aec91d68a37f1b55db7bc3deaa60d4acf",
        "11ef61ead54b15047425d36b5a7ceb9e28acf67b0067921c7634aa53a1477951",
        "25835188a7a92c8cb88486873ee1e884ee48f766b46b70f20386edd28ea9c3f5",
        "5ed45600784881242eef2dc82cfbe8a52122037ac77a0912fffd8342966d0d08",
    ),
    0.2: (
        "0de3796f0dd82110cbfcb5092b126c6ccfaf7dfa66f78aa7a5258f7d5bf429e7",
        "6a65c717bbdae280666710a81a6799b731ae0e16180eef5fc7326af242d3643d",
        "4e58fd623905ae8aedfc7246a53676f12c8729ca4fee6e201bacc642491cd931",
        "989a979fe0a6813e179e9ced56ee01905bc615a4ace205a453fa07610b7e6cc8",
        "25835188a7a92c8cb88486873ee1e884ee48f766b46b70f20386edd28ea9c3f5",
        "6c44a4b90cfb51181bda2cfc6254aff4a551ad823c8a30385ce676cb172ed410",
    ),
}

RUN_FILES = ("advertisements.jsonl", "truth.jsonl", "reports.jsonl", "matches.jsonl",
             "metrics.json", "errors.csv")


@pytest.mark.parametrize("drop_prob", sorted(ACTIVITY_RUNS_GOLDEN))
def test_activity_runs_pipeline_bytes_match_the_recorded_digests(tmp_path, drop_prob):
    scen, out = tmp_path / "scen.json", tmp_path / "run"
    io.write_scenario(scen, dataclasses.replace(activity_runs(), drop_prob=drop_prob))
    assert run("pipeline", scen, "--out-dir", out) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in RUN_FILES)
    assert digests == ACTIVITY_RUNS_GOLDEN[drop_prob]


def test_simulate_and_pipeline_pass_grids_and_build_no_advertisement(tmp_path, monkeypatch):
    """Without reception loss, ``generate`` returns one ``Grid`` per (tool,
    activity run, badge), and ``simulate`` and ``pipeline`` build no
    ``Advertisement``: the writer and the edge stage read the grids."""
    returned = []

    def spy(config):
        grids, truth = generate(config)
        returned.append(grids)
        return grids, truth

    def refuse(*args, **kwargs):
        raise AssertionError("an Advertisement was built")

    scen = tmp_path / "scen.json"
    io.write_scenario(scen, activity_runs())
    with monkeypatch.context() as m:
        m.setattr(cli, "generate", spy)
        m.setattr(Advertisement, "__new__", refuse)
        m.setattr(Grid, "__iter__", refuse)
        assert run("simulate", scen, "--out-dir", tmp_path / "sim") == 0
        assert run("pipeline", scen, "--out-dir", tmp_path / "run") == 0
    for grids in returned:
        assert all(type(g) is Grid for g in grids)
        assert [(g.tag, g.activity, g.instants[0], g.wearable) for g in grids] == [
            (tag, activity, t, w)
            for tag, activity, t in (("T1", Activity.USAGE, 0.0), ("T1", Activity.TRANSPORT, 140.0),
                                     ("T1", Activity.USAGE, 280.0), ("T2", Activity.USAGE, 0.0))
            for w in ("W1", "W2")
        ]
    assert len(returned) == 2
    # the files equal those of the records the grids hold
    ads, skipped = io.read_advertisements(tmp_path / "run" / "advertisements.jsonl")
    assert skipped == [] and ads == sorted((a for g in returned[0] for a in g), key=lambda a: a.ts)
    assert run("estimate", tmp_path / "run" / "advertisements.jsonl", "-o", tmp_path / "reports.jsonl") == 0
    assert (tmp_path / "reports.jsonl").read_bytes() == (tmp_path / "run" / "reports.jsonl").read_bytes()


def test_the_badge_grids_of_an_activity_run_share_one_instants():
    """Without reception loss every grid holds an ``Instants``: the badge
    grids of one activity run hold one object, and each of T1's runs, part
    of its instants, holds its own."""
    grids, _ = generate(activity_runs())
    assert all(type(g.instants) is Instants for g in grids)
    runs = [grids[k:k + 2] for k in range(0, len(grids), 2)]
    assert [[g.wearable for g in run] for run in runs] == [["W1", "W2"]] * 4
    assert all(run[0].tag == run[1].tag and run[0].instants is run[1].instants for run in runs)
    assert len({id(run[0].instants) for run in runs}) == 4
    assert [(run[0].instants[0], run[0].instants[-1]) for run in runs] == [
        (0.0, 133.0), (140.0, 203.0), (280.0, 343.0), (0.0, 343.0)]


def test_lossy_badge_grids_are_handed_checked_instants(monkeypatch):
    """With reception loss each badge grid is handed the instants it heard
    as an ``Instants``, a subsequence of its schedule's checked ones, which
    the grid holds as it is."""
    handed = []

    def spy(instants, *rest):
        handed.append(instants)
        return Grid(instants, *rest)

    monkeypatch.setattr(simulator, "Grid", spy)
    grids, _ = generate(dataclasses.replace(activity_runs(), drop_prob=0.2))
    assert len(handed) == len(grids) == 8
    assert all(type(instants) is Instants for instants in handed)
    assert all(g.instants is instants for g, instants in zip(grids, handed))


class TestEvaluateCommand:
    def test_reproduces_the_reference_percentages(self, tmp_path):
        matches, truth = [], []
        spec = [(347, "W1", Trust.SURE), (143, "W1", Trust.UNSURE),
                (5, "W2", Trust.SURE), (51, "W2", Trust.UNSURE)]
        k = 0
        for n, wearable, trust in spec:
            for _ in range(n):
                tag = f"T{k}"
                k += 1
                truth.append(TruthRecord(tag=tag, start=0.0, stop=60.0, wearable="W1"))
                matches.append(MatchResult(tag=tag, start=0.0, stop=60.0,
                                           wearable=wearable, trust=trust, margin=1.0))
        io.write_matches(tmp_path / "matches.jsonl", matches)
        io.write_truth(tmp_path / "truth.jsonl", truth)
        out = tmp_path / "metrics.json"
        assert run("evaluate", tmp_path / "matches.jsonl", tmp_path / "truth.jsonl",
                   "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["accuracy"] == {"ratio": "490/546", "percent": 89.7}
        assert doc["recall"] == {"ratio": "347/490", "percent": 70.8}
        assert doc["precision"] == {"ratio": "347/352", "percent": 98.6}

    def test_orphan_match_exits_2(self, tmp_path, capsys):
        io.write_matches(
            tmp_path / "matches.jsonl",
            [MatchResult(tag="T1", start=0.0, stop=10.0, wearable="W1",
                         trust=Trust.SURE, margin=1.0)],
        )
        io.write_truth(
            tmp_path / "truth.jsonl",
            [TruthRecord(tag="T1", start=500.0, stop=600.0, wearable="W1")],
        )
        assert run("evaluate", tmp_path / "matches.jsonl", tmp_path / "truth.jsonl") == 2
        assert "no ground-truth" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        {"wearable": "W1", "trust": "sure", "margin_m": -3.0},
        {"wearable": None, "trust": "sure", "margin_m": 1.0},
    ])
    def test_contradictory_match_line_exits_2_naming_the_line(self, tmp_path, capsys, fields):
        """A sure match needs a wearable and a positive margin, and no
        margin is negative: ``trust_classify`` gives no other."""
        matches = tmp_path / "matches.jsonl"
        matches.write_text(json.dumps({"tag": "T1", "start_s": 0.0, "stop_s": 7.0, **fields}) + "\n")
        io.write_truth(tmp_path / "truth.jsonl", [TruthRecord(tag="T1", start=0.0, stop=7.0, wearable="W1")])
        out = tmp_path / "metrics.json"
        assert run("evaluate", matches, tmp_path / "truth.jsonl", "-o", out) == 2
        assert f"{matches}:1: bad match result" in capsys.readouterr().err
        assert not out.exists()


def write_two_session_stream(path):
    """One tag, two activity runs separated by a 15 s pause."""
    instants = [0.0, 7.0, 14.0, 29.0, 36.0]
    io.write_advertisements(path, [Grid(instants, "W1", "T1", [-45.6] * 5, Activity.USAGE)])


class TestEstimateFlags:
    def test_gap_flag_splits_sessions(self, tmp_path):
        ads = tmp_path / "ads.jsonl"
        write_two_session_stream(ads)
        out = tmp_path / "reports.jsonl"
        assert run("estimate", ads, "-o", out) == 0
        assert len(io.read_reports(out)) == 1  # 15 s < default 21 s
        assert run("estimate", ads, "-o", out, "--gap-s", "10") == 0
        assert len(io.read_reports(out)) == 2

    def test_active_classes_flag(self, tmp_path):
        ads_path = tmp_path / "ads.jsonl"
        io.write_advertisements(
            ads_path, [Grid([7.0 * k for k in range(5)], "W1", "T1", [-45.6] * 5, Activity.TRANSPORT)],
        )
        out = tmp_path / "reports.jsonl"
        assert run("estimate", ads_path, "-o", out) == 0
        assert io.read_reports(out) == []
        assert run("estimate", ads_path, "-o", out, "--active-classes", "usage,transport") == 0
        assert len(io.read_reports(out)) == 1

    @pytest.mark.parametrize("argv", [["estimate", "ads.jsonl"], ["pipeline", "s.json", "--out-dir", "o"]])
    def test_active_classes_default_is_the_library_default(self, argv):
        args = cli._build_parser().parse_args(argv)
        assert cli._parse_active(args.active_classes) == ACTIVE_DEFAULT

    def test_bad_active_class_exits_2(self, tmp_path, capsys):
        ads = tmp_path / "ads.jsonl"
        write_two_session_stream(ads)
        assert run("estimate", ads, "-o", tmp_path / "r.jsonl",
                   "--active-classes", "inactive") == 2
        assert "active" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [("--gap-s", "nan"), ("--gap-s", "inf"), ("--gap-s", "-5"), ("--gap-s", "0"),
         ("--r", "nan"), ("--active-classes", "bogus"),
         ("--config", '{"q":0.1,"r":40}'), ("--config", "[1,2]")],
    )
    def test_bad_estimate_flag_exits_2_before_writing(self, tmp_path, capsys, flags):
        # An empty stream never reaches the filters, so the flag must be
        # checked before any stage runs.
        if flags[0] == "--config":  # the value is the document; pass its path
            config = tmp_path / "config.json"
            config.write_text(flags[1])
            flags = ("--config", config)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert exit_code("estimate", empty, "-o", tmp_path / "r.jsonl", *flags) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()
        scen = tmp_path / "scen.json"
        run("scenario", "static", "-n", 1, "--spacing", 1.0, "--duration", 30, "-o", scen)
        assert exit_code("pipeline", scen, "--out-dir", tmp_path / "run", *flags) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_r_and_dt_mode_change_the_estimates(self, tmp_path):
        rng = np.random.default_rng(31)
        ads_path = tmp_path / "ads.jsonl"
        io.write_advertisements(
            ads_path,
            [Grid([7.0 * k for k in range(20)], "W1", "T1",
                  [float(np.clip(-50.0 + rng.normal(0, 6), -127, 20)) for _ in range(20)],
                  Activity.USAGE)],
        )
        outs = {}
        for name, flags in {
            "base": [],
            "r": ["--r", "48.92"],
            "dt": ["--dt-mode", "dt_linear"],
        }.items():
            out = tmp_path / f"{name}.jsonl"
            assert run("estimate", ads_path, "-o", out, *flags) == 0
            outs[name] = io.read_reports(out)[0].distance
        assert outs["base"] != outs["r"]
        assert outs["base"] != outs["dt"]

    def test_bare_model_json_is_a_valid_config(self, tmp_path):
        model_path = tmp_path / "model.json"
        io.write_model(model_path, DEFAULT_MODEL)
        ads = tmp_path / "ads.jsonl"
        write_two_session_stream(ads)
        assert run("estimate", ads, "-o", tmp_path / "r.jsonl", "--config", model_path) == 0

    def test_skipped_lines_are_reported_with_numbers(self, tmp_path, capsys):
        ads = tmp_path / "ads.jsonl"
        good = {"ts": 0.0, "wearable": "W1", "tag": "T1", "rssi_db": -45.6, "activity": "usage"}
        ads.write_text(json.dumps(good) + "\nnot json at all\n")
        assert run("estimate", ads, "-o", tmp_path / "r.jsonl") == 0
        assert ":2: skipped" in capsys.readouterr().err

    def test_a_line_that_is_not_utf8_is_skipped(self, tmp_path, capsys):
        ads = tmp_path / "ads.jsonl"
        good = '{"ts":0.0,"wearable":"W1","tag":"T1","rssi_db":-45.6,"activity":"usage"}'
        ads.write_bytes(f"{good}\n".encode() + good.replace("W1", "W\u00e9").encode("latin-1") + b"\n")
        assert run("estimate", ads, "-o", tmp_path / "r.jsonl") == 0
        err = capsys.readouterr().err
        assert err.startswith(f"{ads}:2: skipped: 'utf-8' codec can't decode byte 0xe9")
        assert [r.n_obs for r in io.read_reports(tmp_path / "r.jsonl")] == [1]

    def test_csv_advertisements_give_the_same_reports(self, tmp_path):
        """``estimate`` reads an advertisement CSV (header
        ``ts,wearable,tag,rssi_db,activity``) into the same reports as the
        JSON Lines file it was copied from."""
        scen, out = tmp_path / "scen.json", tmp_path / "run"
        run("scenario", "swap", "-n", 3, "--spacing", 2.0, "--swap-times", 60, "--duration", 120,
            "--drop-prob", 0.2, "-o", scen)
        assert run("simulate", scen, "--out-dir", out, "--seed", 5) == 0
        fields = ["ts", "wearable", "tag", "rssi_db", "activity"]
        ads_csv = tmp_path / "ads.csv"
        with open(ads_csv, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(fields)
            for line in (out / "advertisements.jsonl").read_text().splitlines():
                row = json.loads(line)
                w.writerow([row[k] for k in fields])
        assert run("estimate", out / "advertisements.jsonl", "-o", tmp_path / "from-jsonl.jsonl") == 0
        assert run("estimate", ads_csv, "-o", tmp_path / "from-csv.jsonl") == 0
        reports = (tmp_path / "from-csv.jsonl").read_bytes()
        assert reports == (tmp_path / "from-jsonl.jsonl").read_bytes()
        assert len(reports.splitlines()) > 3


class TestMatchFlags:
    def test_margin_flag(self, tmp_path):
        reports = tmp_path / "reports.jsonl"
        io.write_reports(
            reports,
            [
                DistanceReport(wearable="W1", tag="T1", start=0.0, stop=60.0,
                               distance=1.0, n_obs=5),
                DistanceReport(wearable="W2", tag="T1", start=0.0, stop=60.0,
                               distance=3.0, n_obs=5),
            ],
        )
        out = tmp_path / "matches.jsonl"
        assert run("match", reports, "-o", out) == 0
        assert io.read_matches(out)[0].trust is Trust.SURE
        assert run("match", reports, "-o", out, "--margin-m", "10") == 0
        assert io.read_matches(out)[0].trust is Trust.UNSURE

    @pytest.mark.parametrize(
        "flags", [("--margin-m", "nan"), ("--margin-m", "-1"), ("--adv-interval-s", "-1")]
    )
    def test_bad_margin_or_window_exits_2(self, tmp_path, capsys, flags):
        reports = tmp_path / "reports.jsonl"
        io.write_reports(
            reports,
            [DistanceReport(wearable="W1", tag="T1", start=0.0, stop=60.0, distance=1.0, n_obs=5)],
        )
        with pytest.raises(SystemExit) as e:
            run("match", reports, "-o", tmp_path / "matches.jsonl", *flags)
        assert e.value.code == 2
        assert flags[0] in capsys.readouterr().err
        scen = tmp_path / "scen.json"
        run("scenario", "static", "-n", 1, "--spacing", 1.0, "--duration", 30, "-o", scen)
        with pytest.raises(SystemExit) as e:
            run("pipeline", scen, "--out-dir", tmp_path / "run", *flags)
        assert e.value.code == 2
        assert flags[0] in capsys.readouterr().err
        # Rejected before any stage runs: nothing is written.
        assert not (tmp_path / "run").exists()


    def test_shuffled_reports_give_the_same_matches(self, tmp_path):
        """Twelve swaps 100 s apart: 13 sessions per tag, one event after
        another, read back in a seeded random line order."""
        scen, out = tmp_path / "scen.json", tmp_path / "run"
        assert run("scenario", "swap", "-n", 3, "--spacing", 2.0, "--swap-times",
                   ",".join(str(100 * k) for k in range(1, 13)), "--duration", 1300, "-o", scen) == 0
        assert run("pipeline", scen, "--out-dir", out, "--seed", 7) == 0
        lines = (out / "reports.jsonl").read_text().splitlines(keepends=True)
        assert len(lines) == 3 * 3 * 13
        random.Random(7).shuffle(lines)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("".join(lines))
        assert run("match", shuffled, "-o", tmp_path / "matches.jsonl") == 0
        assert (tmp_path / "matches.jsonl").read_bytes() == (out / "matches.jsonl").read_bytes()

    def test_non_finite_report_time_exits_2_naming_the_line(self, tmp_path, capsys):
        reports = tmp_path / "reports.jsonl"
        good = {"wearable": "W1", "tag": "T1", "start_s": 0.0, "stop_s": 7.0,
                "distance_m": 1.0, "n_obs": 2}
        reports.write_text(json.dumps(good) + "\n" + json.dumps({**good, "start_s": math.nan}) + "\n")
        assert run("match", reports, "-o", tmp_path / "matches.jsonl") == 2
        err = capsys.readouterr().err
        assert f"{reports}:2: bad distance report: session window must be finite" in err
        assert not (tmp_path / "matches.jsonl").exists()

    def test_reversed_report_window_exits_2_naming_the_line(self, tmp_path, capsys):
        reports = tmp_path / "reports.jsonl"
        reports.write_text(json.dumps({"wearable": "W1", "tag": "T1", "start_s": 50.0,
                                       "stop_s": 10.0, "distance_m": 1.0, "n_obs": 2}) + "\n")
        assert run("match", reports, "-o", tmp_path / "matches.jsonl") == 2
        assert (f"{reports}:1: bad distance report: session window must be finite "
                "with start <= stop, got [50.0, 10.0]") in capsys.readouterr().err
        assert not (tmp_path / "matches.jsonl").exists()


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "proxmatch", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "pipeline" in proc.stdout

    def test_importing_the_cli_loads_neither_statistics_nor_fractions(self):
        """Only ``fit``, the process-noise helper and the exact metrics need
        them, and each imports its own, so no command's start-up pays for
        loading them."""
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "before = set(sys.modules)\n"
            "import proxmatch.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        src = str(Path(io.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script, src], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "proxmatch.cli" in loaded
        assert not loaded & {"statistics", "fractions"}

    def test_every_stage_but_simulation_runs_without_numpy(self, tmp_path):
        """Only the simulator's seeded stream needs numpy. With numpy blocked,
        ``scenario``, ``fit``, ``estimate``, ``match`` and ``evaluate`` run and
        write the same bytes as ordinary ``pipeline`` runs at seed 7, and each
        bad document or record file stops its command with exit 2.

        ``pipeline`` folds the simulated grids and ``estimate`` the records
        read back, so each equal ``reports.jsonl`` checks that the edge
        stage's two lane builders feed its one session cut alike: on a stream
        without reception loss, on one with it, on a bench whose two
        bystanders operate nothing, on twelve swaps 100 s apart (13 sessions
        per tag, each badge's lane folded in many windows by one filter
        call), on a seeded shuffle of the first stream's lines, which the
        record lane builder must sort back, and on a CSV copy of it, which
        the CSV reader must read as the JSON Lines reader does."""
        runs = {
            "run": ("swap", "--swap-times", "120,240", "--duration", 360),
            "drop": ("swap", "--swap-times", "120,240", "--duration", 360, "--drop-prob", 0.2),
            "bystanders": ("static", "--bystanders", 2),
            "many": ("swap", "--swap-times", ",".join(str(100 * k) for k in range(1, 13)), "--duration", 1300),
        }
        for name, (kind, *flags) in runs.items():
            assert run("scenario", kind, "-n", 3, "--spacing", 2.0, *flags, "-o", tmp_path / f"{name}.json") == 0
            assert run("pipeline", tmp_path / f"{name}.json", "--out-dir", tmp_path / name, "--seed", 7) == 0
        ads = tmp_path / "run" / "advertisements.jsonl"
        lines = ads.read_text().splitlines(keepends=True)
        random.Random(7).shuffle(lines)
        (tmp_path / "shuffled.jsonl").write_text("".join(lines))
        fields = ["ts", "wearable", "tag", "rssi_db", "activity"]
        with open(tmp_path / "ads.csv", "w", encoding="utf-8", newline="") as f:
            csv.writer(f).writerows([fields, *([d[k] for k in fields] for d in map(json.loads, lines))])
        samples = tmp_path / "samples.csv"
        samples.write_text("distance_m,rssi_db\n0.5,-41.9\n1.0,-45.6\n2.0,-49.3\n4.0,-51.2\n")
        scenario = json.loads((tmp_path / "run.json").read_text())
        (tmp_path / "bad-seed.json").write_text(json.dumps({**scenario, "seed": 1.5}))
        (tmp_path / "tiny-interval.json").write_text(json.dumps({**scenario, "adv_interval_s": 1e-300}))
        (tmp_path / "typo.json").write_text(json.dumps({"n": 1.011, "x0_m": 1.0, "rssi0_db": -45.6,
                                                        "x_floor": 0.2}))
        (tmp_path / "reversed.jsonl").write_text(json.dumps(
            {"wearable": "W1", "tag": "T1", "start_s": 50.0, "stop_s": 10.0, "distance_m": 1.0, "n_obs": 2}) + "\n")
        (tmp_path / "negative.jsonl").write_text(json.dumps(
            {"tag": "T1", "start_s": 0.0, "stop_s": 7.0, "wearable": "W1", "trust": "sure", "margin_m": -3.0}) + "\n")
        (tmp_path / "negative-truth.jsonl").write_text(json.dumps(
            {"tag": "T1", "start_s": 0.0, "stop_s": 7.0, "wearable": "W1"}) + "\n")

        staged = tmp_path / "staged"
        staged.mkdir()
        swap = ["scenario", "swap", "-n", 3, "--spacing", 2.0]
        # (command, exit status, [(written file, file it must equal)])
        commands = [
            ([*swap, "--swap-times", "120,240", "--duration", 360, "-o", staged / "run.json"], 0,
             [(staged / "run.json", tmp_path / "run.json")]),
            (["scenario", "static", "-n", 3, "--spacing", 2.0, "-o", staged / "static.json"], 0, []),
            ([*swap, "-o", staged / "no-swaps.json"], 0, [(staged / "static.json", staged / "no-swaps.json")]),
            *((["estimate", tmp_path / name / "advertisements.jsonl", "-o", staged / f"{name}-reports.jsonl"], 0,
               [(staged / f"{name}-reports.jsonl", tmp_path / name / "reports.jsonl")]) for name in runs),
            *((["estimate", tmp_path / source, "-o", staged / f"{source}-reports.jsonl"], 0,
               [(staged / f"{source}-reports.jsonl", tmp_path / "run" / "reports.jsonl")])
              for source in ("shuffled.jsonl", "ads.csv")),
            *((["match", tmp_path / name / "reports.jsonl", "-o", staged / f"{name}-matches.jsonl"], 0,
               [(staged / f"{name}-matches.jsonl", tmp_path / name / "matches.jsonl")])
              for name in ("run", "many", "drop")),
            *((["evaluate", tmp_path / name / "matches.jsonl", tmp_path / name / "truth.jsonl",
                "-o", staged / f"{name}-metrics.json"], 0,
               [(staged / f"{name}-metrics.json", tmp_path / name / "metrics.json")])
              for name in ("run", "many", "drop")),
            (["fit", samples, "-o", staged / "model.json"], 0, []),
            (["estimate", ads, "-o", staged / "reports-fit.jsonl", "--config", staged / "model.json"], 0, []),
            (["simulate", tmp_path / "bad-seed.json", "--out-dir", staged / "bad-seed"], 2, []),
            (["simulate", tmp_path / "tiny-interval.json", "--out-dir", staged / "tiny"], 2, []),
            (["estimate", ads, "-o", staged / "typo.jsonl", "--config", tmp_path / "typo.json"], 2, []),
            (["match", tmp_path / "reversed.jsonl", "-o", staged / "reversed-matches.jsonl"], 2, []),
            (["evaluate", tmp_path / "negative.jsonl", tmp_path / "negative-truth.jsonl",
              "-o", staged / "negative.json"], 2, []),
        ]
        script = (
            "import json, sys\n"
            "sys.modules['numpy'] = None  # makes any import of numpy raise\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import proxmatch, proxmatch.cli\n"
            "print(json.dumps([proxmatch.cli.main(argv) for argv in json.loads(sys.argv[2])]))\n"
        )
        src = str(Path(io.__file__).parents[1])
        argv = json.dumps([[str(a) for a in c] for c, _, _ in commands])
        # the timeout also fails a command that hangs, as the 1e-300 s interval once did
        proc = subprocess.run([sys.executable, "-c", script, src, argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        statuses = json.loads(proc.stdout.splitlines()[-1])
        assert list(zip(statuses, (c for c, _, _ in commands))) == [(s, c) for c, s, _ in commands], proc.stderr
        for message in ("seed must be a nonnegative integer, got 1.5", "adv_interval must leave fewer than 2**53",
                        "unknown key 'x_floor'", "must be finite with start <= stop, got [50.0, 10.0]",
                        "margin must be nonnegative, got -3.0"):
            assert message in proc.stderr
        for _, _, pairs in commands:
            for written, expected in pairs:
                assert written.read_bytes() == expected.read_bytes(), written.name
        assert io.read_ekf_params(staged / "model.json").model == fit(io.read_samples(samples))
        assert run("estimate", ads, "-o", tmp_path / "reports-fit.jsonl", "--config", staged / "model.json") == 0
        assert (staged / "reports-fit.jsonl").read_bytes() == (tmp_path / "reports-fit.jsonl").read_bytes()
        assert not {"bad-seed", "tiny", "typo.jsonl", "reversed-matches.jsonl", "negative.json"} & {
            p.name for p in staged.iterdir()}

    def test_bad_scenario_json_exits_2(self, tmp_path, capsys):
        p = tmp_path / "scen.json"
        p.write_text('{"seed": 0}')
        assert run("pipeline", p, "--out-dir", tmp_path / "out") == 2
        assert "error:" in capsys.readouterr().err
