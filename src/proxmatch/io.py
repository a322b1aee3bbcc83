"""File formats: JSON Lines record streams, JSON documents, CSV tables.

Writers emit keys in a fixed order and floats through ``repr`` (the json
default), so a given record sequence always produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from .edge import Activity, Advertisement, DistanceReport
from .ekf import EkfParams
from .matcher import EvalReport, MatchResult, Trust, TruthRecord
from .pathloss import PathLossModel, RangeSample
from .simulator import ScenarioConfig

__all__ = [
    "read_advertisements",
    "read_ekf_params",
    "read_matches",
    "read_model",
    "read_reports",
    "read_samples",
    "read_scenario",
    "read_truth",
    "write_advertisements",
    "write_ekf_params",
    "write_eval",
    "write_matches",
    "write_model",
    "write_reports",
    "write_samples",
    "write_scenario",
    "write_truth",
]

_R = TypeVar("_R")

#: ``json.loads``' own decoder; its ``raw_decode`` skips the whitespace and
#: trailing-data checks that ``json.loads`` adds.
_raw_decode = json.JSONDecoder().raw_decode


def _write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in rows:
            f.write(json.dumps(row, separators=(",", ":")) + "\n")


def _read_lines(path: str | Path) -> list[tuple[int, str]]:
    """Numbered nonblank lines. Only ``\\n`` ends a line (text mode already
    turns ``\\r\\n`` and ``\\r`` into it): JSON strings may hold raw U+2028 and
    other characters that ``str.splitlines`` would also split on."""
    with open(path, "r", encoding="utf-8") as f:
        return [(i, line) for i, line in enumerate(f.read().split("\n"), start=1) if line.strip()]


def _loads(line: str):
    """``json.loads(line)``, faster on a line that is exactly one JSON value.

    Anything else (surrounding whitespace, trailing data, a syntax error)
    goes through ``json.loads`` itself, so results and error messages match.
    """
    try:
        value, end = _raw_decode(line)
        if end == len(line):
            return value
    except ValueError:
        pass
    return json.loads(line)


def _read_records(path: str | Path, what: str, parse: Callable[[dict], _R]) -> list[_R]:
    """Parse every nonblank line of a JSON Lines file; the first bad line
    raises ``ValueError`` naming the file, the line and the record kind."""
    out = []
    for i, line in _read_lines(path):
        try:
            out.append(parse(json.loads(line)))
        except (json.JSONDecodeError, ValueError, KeyError, TypeError) as e:
            raise ValueError(f"{path}:{i}: bad {what}: {e}") from e
    return out


def _ad_to_dict(a: Advertisement) -> dict:
    return {
        "ts": a.ts,
        "wearable": a.wearable,
        "tag": a.tag,
        "rssi_db": a.rssi,
        "activity": a.activity.value,
    }


_ACTIVITIES = {a.value: a for a in Activity}


def _activity(value) -> Activity:
    """``Activity(value)``; a table lookup first, the enum (and its error) on a miss."""
    try:
        return _ACTIVITIES[value]
    except (KeyError, TypeError):
        return Activity(value)


def _ad_from_dict(d: dict) -> Advertisement:
    return Advertisement(
        ts=float(d["ts"]),
        wearable=str(d["wearable"]),
        tag=str(d["tag"]),
        rssi=float(d["rssi_db"]),
        activity=_activity(d["activity"]),
    )


_AD_FIELDS = ("ts", "wearable", "tag", "rssi_db", "activity")
_ACTIVITY_JSON = {a: json.dumps(a.value) for a in Activity}


def _write_ads_jsonl(path: Path, ads: Iterable[Advertisement]) -> None:
    """Byte for byte ``_write_jsonl(path, map(_ad_to_dict, ads))`` (the
    reference the tests compare against), formatted directly.

    Each distinct id string is JSON-encoded once per file. Floats (numpy
    scalars included) go through ``float.__repr__``, as in ``json``; any
    other value through ``json.dumps``. Non-finite floats cannot occur:
    ``Advertisement`` rejects them.
    """
    ids: dict[str, str] = {}

    def text(v) -> str:
        if type(v) is not str:
            return json.dumps(v)
        enc = ids.get(v)
        if enc is None:
            enc = ids[v] = json.dumps(v)
        return enc

    num = float.__repr__
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(
            f'{{"ts":{num(a.ts) if isinstance(a.ts, float) else json.dumps(a.ts)},'
            f'"wearable":{text(a.wearable)},"tag":{text(a.tag)},'
            f'"rssi_db":{num(a.rssi) if isinstance(a.rssi, float) else json.dumps(a.rssi)},'
            f'"activity":{_ACTIVITY_JSON[a.activity]}}}\n'
            for a in ads
        )


def write_advertisements(path: str | Path, ads: Iterable[Advertisement]) -> None:
    """JSON Lines by default; a ``.csv`` suffix selects CSV with a header row."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(_AD_FIELDS)
            for a in ads:
                # float() first: repr of a numpy scalar is not a number.
                w.writerow(
                    [repr(float(a.ts)), a.wearable, a.tag, repr(float(a.rssi)), a.activity.value]
                )
        return
    _write_ads_jsonl(path, ads)


def read_advertisements(
    path: str | Path,
) -> tuple[list[Advertisement], list[tuple[int, str]]]:
    """Parse an advertisement file, collecting malformed lines instead of failing.

    Returns (records, skipped) where skipped holds (line_number, reason) for
    every line that did not parse or validate; radio logs routinely contain
    truncated lines and the rest of the stream is still useful.
    """
    path = Path(path)
    ads: list[Advertisement] = []
    skipped: list[tuple[int, str]] = []
    if path.suffix.lower() == ".csv":
        with open(path, "r", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        if not rows or rows[0] != list(_AD_FIELDS):
            raise ValueError(f"{path}: expected CSV header {','.join(_AD_FIELDS)}")
        for i, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            try:
                if len(row) != len(_AD_FIELDS):
                    raise ValueError(f"expected {len(_AD_FIELDS)} columns, got {len(row)}")
                ads.append(_ad_from_dict(dict(zip(_AD_FIELDS, row))))
            except (ValueError, KeyError) as e:
                skipped.append((i, str(e)))
        return ads, skipped
    for i, line in _read_lines(path):
        try:
            ads.append(_ad_from_dict(_loads(line)))
        except (json.JSONDecodeError, ValueError, KeyError, TypeError) as e:
            skipped.append((i, str(e)))
    return ads, skipped


def write_reports(path: str | Path, reports: Iterable[DistanceReport]) -> None:
    _write_jsonl(
        path,
        (
            {
                "wearable": r.wearable,
                "tag": r.tag,
                "start_s": r.start,
                "stop_s": r.stop,
                "distance_m": r.distance,
                "n_obs": r.n_obs,
            }
            for r in reports
        ),
    )


def read_reports(path: str | Path) -> list[DistanceReport]:
    return _read_records(
        path,
        "distance report",
        lambda d: DistanceReport(
            wearable=str(d["wearable"]),
            tag=str(d["tag"]),
            start=float(d["start_s"]),
            stop=float(d["stop_s"]),
            distance=float(d["distance_m"]),
            n_obs=int(d["n_obs"]),
        ),
    )


def write_truth(path: str | Path, truth: Iterable[TruthRecord]) -> None:
    _write_jsonl(
        path,
        (
            {"tag": t.tag, "start_s": t.start, "stop_s": t.stop, "wearable": t.wearable}
            for t in truth
        ),
    )


def read_truth(path: str | Path) -> list[TruthRecord]:
    return _read_records(
        path,
        "truth record",
        lambda d: TruthRecord(
            tag=str(d["tag"]),
            start=float(d["start_s"]),
            stop=float(d["stop_s"]),
            wearable=str(d["wearable"]),
        ),
    )


def write_matches(path: str | Path, matches: Iterable[MatchResult]) -> None:
    """Margins are meters; an infinite margin (no competitor at all) is null."""
    _write_jsonl(
        path,
        (
            {
                "tag": m.tag,
                "start_s": m.start,
                "stop_s": m.stop,
                "wearable": m.wearable,
                "trust": m.trust.value,
                "margin_m": m.margin if math.isfinite(m.margin) else None,
            }
            for m in matches
        ),
    )


def read_matches(path: str | Path) -> list[MatchResult]:
    return _read_records(
        path,
        "match result",
        lambda d: MatchResult(
            tag=str(d["tag"]),
            start=float(d["start_s"]),
            stop=float(d["stop_s"]),
            wearable=None if d["wearable"] is None else str(d["wearable"]),
            trust=Trust(d["trust"]),
            margin=math.inf if d["margin_m"] is None else float(d["margin_m"]),
        ),
    )


def write_eval(path: str | Path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(report.to_dict(), indent=2) + "\n")


def write_samples(path: str | Path, samples: Iterable[RangeSample]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["distance_m", "rssi_db"])
        for s in samples:
            w.writerow([repr(float(s.distance)), repr(float(s.rssi))])


def read_samples(path: str | Path) -> list[RangeSample]:
    with open(path, "r", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != ["distance_m", "rssi_db"]:
        raise ValueError(f"{path}: expected CSV header distance_m,rssi_db")
    out = []
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            out.append(RangeSample(distance=float(row[0]), rssi=float(row[1])))
        except (ValueError, IndexError) as e:
            raise ValueError(f"{path}:{i}: bad range sample: {e}") from e
    return out


def _write_json(path: str | Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(doc, indent=2) + "\n")


def _read_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON: {e}") from e


def write_model(path: str | Path, model: PathLossModel) -> None:
    _write_json(path, model.to_dict())


def read_model(path: str | Path) -> PathLossModel:
    try:
        return PathLossModel.from_dict(_read_json(path))
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad path-loss model: {e}") from e


def write_ekf_params(path: str | Path, params: EkfParams) -> None:
    _write_json(path, params.to_dict())


def read_ekf_params(path: str | Path) -> EkfParams:
    try:
        return EkfParams.from_dict(_read_json(path))
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad filter config: {e}") from e


def write_scenario(path: str | Path, config: ScenarioConfig) -> None:
    _write_json(path, config.to_dict())


def read_scenario(path: str | Path) -> ScenarioConfig:
    try:
        return ScenarioConfig.from_dict(_read_json(path))
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad scenario: {e}") from e
