"""The experiment script prints what the library's Monte Carlo chains give;
the digest script prints the sha256 of every file the commands write."""

import hashlib
import runpy
from pathlib import Path

import numpy as np
import pytest

from proxmatch.chain import pooled_matching, ranging_band
from proxmatch.simulator import scenario_static, scenario_swap

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_scenarios.py"
DIGESTS = SCRIPT.with_name("digests.py")


def test_run_scenarios_prints_the_chains_numbers(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", [str(SCRIPT), "--seeds", "3"])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    bands, families = capsys.readouterr().out.split("\n\n")
    medians = [line.split()[-5] for line in bands.splitlines()[1:]]
    counts = [[line.split()[i] for i in (-6, -2, -1)] for line in families.splitlines()[1:]]

    want_medians = [
        f"{np.median([abs(r.distance - d) for r, d in ranging_band(k, lo, hi, 3)]):.3f}"
        for k, (lo, hi) in enumerate([(0.3, 1.0), (1.0, 3.0)])
    ]
    reports = [
        pooled_matching(lambda s: scenario_static(3, 2.0, 360.0, seed=s), 3),
        pooled_matching(lambda s: scenario_static(3, 3.0, 360.0, seed=s), 3),
        pooled_matching(lambda s: scenario_swap(3, 2.0, [120.0, 240.0], seed=s), 3),
    ]
    want_counts = [[str(r.total), str(r.wrong_sure), str(r.sure_total)] for r in reports]
    assert (medians, counts) == (want_medians, want_counts)


def test_more_seeds_than_a_band_has_exits_2(monkeypatch, capsys):
    """Band k's session j runs on scenario seed 1000*k + j, so bands of more
    than 1000 sessions would share seeds."""
    monkeypatch.setattr("sys.argv", [str(SCRIPT), "--seeds", "1001"])
    with pytest.raises(SystemExit) as e:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert e.value.code == 2
    assert "--seeds must be from 1 to 1000" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--bands", "x"),
    ("--bands", "1"),
    ("--bands", ""),
    ("--bands", "0.3:1,3:1"),
    ("--bands", "1:0.3"),
    ("--bands", "0.3:inf"),
    ("--bands", "-1:2"),
    ("--spacings", "abc"),
    ("--spacings", "0"),
    ("--spacings", "nan"),
    ("--spacings", "2,-3"),
])
def test_a_malformed_band_or_spacing_exits_2_before_any_chain_runs(monkeypatch, capsys, flag, value):
    """A band is lo:hi, both finite, with 0 <= lo < hi; a spacing is finite
    and positive. Either is rejected before the first table row prints."""
    monkeypatch.setattr("sys.argv", [str(SCRIPT), "--seeds", "1", f"{flag}={value}"])
    with pytest.raises(SystemExit) as e:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    out, err = capsys.readouterr()
    assert (e.value.code, out) == (2, "")
    assert f"argument {flag}:" in err


def test_digests_hash_every_output_file_the_same_way_twice(monkeypatch, capsys, tmp_path):
    """One line per file of ``simulate``, ``pipeline`` and ``estimate``,
    lossless and lossy; the stage commands write the bytes ``pipeline`` writes."""
    monkeypatch.setattr("sys.argv", [str(DIGESTS), "--workloads", "crowd_events", "--seeds", "1"])
    printed = []
    for _ in range(2):
        runpy.run_path(str(DIGESTS), run_name="__main__")
        printed.append(capsys.readouterr().out.splitlines())
    assert printed[0] == printed[1]

    lines = list(runpy.run_path(str(DIGESTS))["digest_lines"](["crowd_events"], [1], tmp_path))
    assert lines == printed[0]
    want, scenarios = set(), []
    for f in filter(Path.is_file, tmp_path.rglob("*")):
        p = f.relative_to(tmp_path).parts
        if len(p) == 5:  # workload/drop/seed/command/file
            digest = hashlib.sha256(f.read_bytes()).hexdigest()
            want.add(f"{' '.join(p[:3])} {p[3]}/{p[4]} {digest}")
        else:
            scenarios.append(p)
    assert sorted(lines) == sorted(want) and len(lines) == 2 * (2 + 6 + 1)
    assert sorted(scenarios) == [("crowd_events", d, "scenario.json") for d in ("0.0", "0.2")]

    by_file = {tuple(line.split()[1:4]): line.split()[4] for line in lines}
    for drop in ("0.0", "0.2"):
        assert by_file[drop, "1", "estimate/reports.jsonl"] == by_file[drop, "1", "pipeline/reports.jsonl"]
        for name in ("advertisements.jsonl", "truth.jsonl"):
            assert by_file[drop, "1", f"simulate/{name}"] == by_file[drop, "1", f"pipeline/{name}"]


@pytest.mark.parametrize("flag, value", [
    ("--workloads", "nope"),
    ("--workloads", "crowd_events,crowd_events"),
    ("--seeds", "x"),
    ("--seeds", "-1"),
    ("--seeds", "1,1"),
])
def test_digests_reject_a_bad_flag_before_any_command_runs(monkeypatch, capsys, flag, value):
    monkeypatch.setattr("sys.argv", [str(DIGESTS), f"{flag}={value}"])
    with pytest.raises(SystemExit) as e:
        runpy.run_path(str(DIGESTS), run_name="__main__")
    out, err = capsys.readouterr()
    assert (e.value.code, out) == (2, "")
    assert f"{flag} must be" in err
