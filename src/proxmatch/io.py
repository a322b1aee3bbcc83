"""File formats: JSON Lines record streams, JSON documents, CSV tables.

Writers emit keys in a fixed order and floats through ``repr`` (the json
default), so a given record sequence always produces byte-identical files.

Every reader applies one rule to bad input. A line, row or document is bad
when it does not decode, lacks a field, or holds a value of the wrong type
(a string or ``true`` for a number, a fraction for a count), out of range (a
``NaN`` or infinite number, which Python's ``json`` decodes, or a count below
1) or too large for a float (any exception in ``_BAD_INPUT``).
``read_advertisements`` skips its bad lines and returns them with their
numbers. Every other reader raises ``ValueError`` naming the file, the line
and the record kind, which the CLI turns into exit status 2.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import islice
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
    "read_reports",
    "read_samples",
    "read_scenario",
    "read_truth",
    "write_advertisements",
    "write_eval",
    "write_matches",
    "write_model",
    "write_reports",
    "write_samples",
    "write_scenario",
    "write_truth",
]

_R = TypeVar("_R")

#: What a bad line, row or document raises while it is decoded and built:
#: ``OverflowError`` comes from ``float()`` of a huge JSON integer,
#: ``RecursionError`` from decoding deeply nested brackets and ``csv.Error``
#: from a CSV field over the csv module's size limit.
_BAD_INPUT = (ValueError, KeyError, TypeError, OverflowError, RecursionError, csv.Error)

#: ``json.loads``' own decoder; its ``raw_decode`` skips the whitespace and
#: trailing-data checks that ``json.loads`` adds.
_raw_decode = json.JSONDecoder().raw_decode

#: What ``json.dumps(row, separators=(",", ":"))`` calls, built once instead
#: of once per row.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in rows:
            f.write(_encode(row) + "\n")


def _write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: str | Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(doc, indent=2) + "\n")


def _records(
    path: str | Path, lines: Iterable[tuple], parse: Callable[..., _R], what: str, skipped=None
) -> list[_R]:
    """``parse`` every numbered line. A bad line goes into ``skipped`` as
    (line number, reason) when a list is given; otherwise the first one
    raises ``ValueError`` naming the file, the line and the record kind."""
    out = []
    for i, line in lines:
        try:
            out.append(parse(line))
        except _BAD_INPUT as e:
            if skipped is None:
                raise ValueError(f"{path}:{i}: bad {what}: {e}") from e
            skipped.append((i, str(e)))
    return out


def _read_jsonl(
    path: str | Path, what: str, from_dict: Callable[[dict], _R], skipped=None
) -> list[_R]:
    """One record per nonblank line of a JSON Lines file. Only ``\\n`` ends a
    line (text mode already turns ``\\r\\n`` and ``\\r`` into it): JSON strings
    may hold raw U+2028 and other characters that ``str.splitlines`` would
    also split on."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [(i, line) for i, line in enumerate(f.read().split("\n"), start=1) if line.strip()]
    return _records(path, lines, lambda line: from_dict(_loads(line)), what, skipped)


def _read_csv(
    path: str | Path, fields: tuple, what: str, from_dict: Callable[[dict], _R], skipped=None
) -> list[_R]:
    """One record per nonempty data row of a CSV file whose header row must
    be ``fields``; a row with another number of columns, or one the csv
    module cannot split, is bad. The reader goes on after such a row, which
    is kept as its ``csv.Error``. A row is numbered by the file line it
    starts on, which a quoted field holding a newline makes differ from its
    ordinal."""
    rows: list[tuple[int, list[str] | csv.Error]] = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        while True:
            line = reader.line_num + 1
            try:
                rows.append((line, next(reader)))
            except StopIteration:
                break
            except csv.Error as e:
                rows.append((line, e))
    if not rows or rows[0][1] != list(fields):
        raise ValueError(f"{path}: expected CSV header {','.join(fields)}")

    def parse(row: list[str] | csv.Error) -> _R:
        if isinstance(row, csv.Error):
            raise row
        if len(row) != len(fields):
            raise ValueError(f"expected {len(fields)} columns, got {len(row)}")
        return from_dict(dict(zip(fields, row)))

    lines = [(i, row) for i, row in rows[1:] if row]
    return _records(path, lines, parse, what, skipped)


def _read_doc(path: str | Path, what: str, from_dict: Callable[[dict], _R]) -> _R:
    """A JSON document that must be one object, built by ``from_dict``."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        return from_dict(doc)
    except _BAD_INPUT as e:
        raise ValueError(f"{path}: bad {what}: {e}") from e


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


def _finite(d: dict, key: str) -> float:
    """``d[key]``, a JSON number (``int`` or ``float``, not ``bool``), as a
    finite float: Python's ``json`` decodes ``NaN`` and ``Infinity``, which
    JSON does not allow. For JSON readers only; a CSV field is a string."""
    value = d[key]
    if type(value) not in (int, float):
        raise TypeError(f"{key} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def _count(d: dict, key: str) -> int:
    """``d[key]``, which must be an ``int`` (not ``bool``) of at least 1."""
    value = d[key]
    if type(value) is not int or value < 1:
        raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
    return value


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


def _json_number(d: dict, key: str) -> float:
    """``d[key]``, a JSON number (``int`` or ``float``, not ``bool``), as a
    float; ``Advertisement`` itself rejects a non-finite or out-of-range one."""
    value = d[key]
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise TypeError(f"{key} must be a number, got {value!r}")


def _csv_number(d: dict, key: str) -> float:
    return float(d[key])


def _ad_from_dict(d: dict, number: Callable[[dict, str], float] = _json_number) -> Advertisement:
    """An advertisement whose ``ts`` and ``rssi_db`` are read by ``number``:
    the type-checking ``_json_number`` for a JSON line, ``float`` of the
    string for a CSV row."""
    return Advertisement(
        number(d, "ts"),
        str(d["wearable"]),
        str(d["tag"]),
        number(d, "rssi_db"),
        _activity(d["activity"]),
    )


_AD_FIELDS = ("ts", "wearable", "tag", "rssi_db", "activity")
#: The end of a line after its RSSI, per activity.
_ACTIVITY_TAIL = {a: f',"activity":{json.dumps(a.value)}}}\n' for a in Activity}
#: Lines joined into one write; a whole file at once costs peak memory.
_CHUNK_LINES = 256


def _ids_text(wearable, tag) -> str:
    """The part of a line between ``ts`` and the RSSI value."""
    return f',"wearable":{json.dumps(wearable)},"tag":{json.dumps(tag)},"rssi_db":'


def _write_ads_jsonl(path: Path, ads: Iterable[Advertisement]) -> None:
    """Byte for byte ``_write_jsonl(path, map(_ad_to_dict, ads))`` (the
    reference the tests compare against), formatted directly and written
    ``_CHUNK_LINES`` lines at a time.

    Text that repeats is formatted once per file: the timestamp of each
    distinct nonzero ``float`` value (``0.0`` and ``-0.0`` are equal keys
    with different text), the ids-and-key fragment of each (wearable, tag)
    pair of ``str`` ids, and the tail of each activity. Floats (numpy
    scalars included) go through ``float.__repr__``, as in ``json``; any
    other value through ``json.dumps``. Non-finite floats cannot occur:
    ``Advertisement`` rejects them.
    """
    num = float.__repr__
    ts_text: dict[float, str] = {}
    pair_text: dict[tuple[str, str], str] = {}
    it = iter(ads)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        while True:
            lines = []
            for ts, wearable, tag, rssi, activity in islice(it, _CHUNK_LINES):
                if type(ts) is float and ts:
                    t = ts_text.get(ts)
                    if t is None:
                        t = ts_text[ts] = num(ts)
                else:
                    t = num(ts) if isinstance(ts, float) else json.dumps(ts)
                if type(wearable) is str and type(tag) is str:
                    ids = pair_text.get((wearable, tag))
                    if ids is None:
                        ids = pair_text[wearable, tag] = _ids_text(wearable, tag)
                else:
                    ids = _ids_text(wearable, tag)
                r = num(rssi) if isinstance(rssi, float) else json.dumps(rssi)
                lines.append(f'{{"ts":{t}{ids}{r}{_ACTIVITY_TAIL[activity]}')
            if not lines:
                return
            f.write("".join(lines))


def write_advertisements(path: str | Path, ads: Iterable[Advertisement]) -> None:
    """JSON Lines by default; a ``.csv`` suffix selects CSV with a header row."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        # float() first: repr of a numpy scalar is not a number.
        _write_csv(
            path,
            _AD_FIELDS,
            (
                [repr(float(a.ts)), a.wearable, a.tag, repr(float(a.rssi)), a.activity.value]
                for a in ads
            ),
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
    skipped: list[tuple[int, str]] = []
    if Path(path).suffix.lower() == ".csv":
        ads = _read_csv(
            path, _AD_FIELDS, "advertisement", lambda d: _ad_from_dict(d, _csv_number), skipped
        )
    else:
        ads = _read_jsonl(path, "advertisement", _ad_from_dict, skipped)
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
    return _read_jsonl(
        path,
        "distance report",
        lambda d: DistanceReport(
            wearable=str(d["wearable"]),
            tag=str(d["tag"]),
            start=_finite(d, "start_s"),
            stop=_finite(d, "stop_s"),
            distance=_finite(d, "distance_m"),
            n_obs=_count(d, "n_obs"),
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
    return _read_jsonl(
        path,
        "truth record",
        lambda d: TruthRecord(
            tag=str(d["tag"]),
            start=_finite(d, "start_s"),
            stop=_finite(d, "stop_s"),
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
    return _read_jsonl(
        path,
        "match result",
        lambda d: MatchResult(
            tag=str(d["tag"]),
            start=_finite(d, "start_s"),
            stop=_finite(d, "stop_s"),
            wearable=None if d["wearable"] is None else str(d["wearable"]),
            trust=Trust(d["trust"]),
            margin=math.inf if d["margin_m"] is None else _finite(d, "margin_m"),
        ),
    )


def write_eval(path: str | Path, report: EvalReport) -> None:
    _write_json(path, report.to_dict())


_SAMPLE_FIELDS = ("distance_m", "rssi_db")


def write_samples(path: str | Path, samples: Iterable[RangeSample]) -> None:
    _write_csv(
        path, _SAMPLE_FIELDS, ([repr(float(s.distance)), repr(float(s.rssi))] for s in samples)
    )


def read_samples(path: str | Path) -> list[RangeSample]:
    return _read_csv(
        path,
        _SAMPLE_FIELDS,
        "range sample",
        lambda d: RangeSample(distance=float(d["distance_m"]), rssi=float(d["rssi_db"])),
    )


def write_model(path: str | Path, model: PathLossModel) -> None:
    _write_json(path, model.to_dict())


def _ekf_params_from_dict(doc: dict) -> EkfParams:
    if {"q", "r"} <= doc.keys():
        return EkfParams.from_dict(doc)
    return EkfParams(model=PathLossModel.from_dict(doc))


def read_ekf_params(path: str | Path) -> EkfParams:
    """A filter config; a bare path-loss model (no ``q`` and ``r``) gets the
    default filter settings around it."""
    return _read_doc(path, "filter config", _ekf_params_from_dict)


def write_scenario(path: str | Path, config: ScenarioConfig) -> None:
    _write_json(path, config.to_dict())


def read_scenario(path: str | Path) -> ScenarioConfig:
    return _read_doc(path, "scenario", ScenarioConfig.from_dict)
