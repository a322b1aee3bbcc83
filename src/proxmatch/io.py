"""File formats: JSON Lines record streams, JSON documents, CSV tables.

Writers emit keys in a fixed order and floats through ``repr`` (the json
default), so a given record sequence always produces byte-identical files.

Every reader applies one rule to bad input. A line, row or document is bad
when it does not decode, lacks a field, or holds a value of the wrong type
or out of range (any exception in ``_BAD_INPUT``). ``io`` checks only what
a JSON value can get wrong and a Python caller's value cannot:

- a number is a JSON number (``int`` or ``float``, not ``true`` or a
  string) small enough for a float;
- an id (wearable, tag, worker, tool, operator) is a JSON string;
- an activity or a trust label is one of its names;
- a trace is a list of ``[t, x, y]`` knots of numbers;
- a margin is finite, since an infinite one is written ``null``;
- a document, and each object in it, holds no key that no field reads; a
  filter config needs the model keys, and a filter key left out keeps its default.

Each type checks its own values (finite, in range, a window's order, a
count, a seed, a ``dt_mode``) whenever it is built, so a ``NaN`` or
``Infinity`` that Python's ``json`` decodes is rejected there.
``Advertisement`` applies the number and id rules itself too.

Files are UTF-8, each JSON Lines line decoded on its own. A CSV field is a
string, read by ``float()`` where a number is due. ``read_advertisements``
skips its bad lines and returns them with their numbers. Every other reader
raises ``ValueError`` naming the file, the line and the record kind, which
the CLI turns into exit status 2.
"""

from __future__ import annotations

import csv
import json
import math
from io import StringIO
from itertools import chain, cycle, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from .edge import Activity, Advertisement, DistanceReport, Grid, _number
from .ekf import EkfParams
from .matcher import EvalReport, MatchResult, Trust, TruthRecord
from .pathloss import PathLossModel, RangeSample
from .simulator import GroundTruth, ScenarioConfig, ScheduleSegment, ToolSpec, Trace, WorkerSpec

__all__ = [
    "read_advertisements",
    "read_ekf_params",
    "read_matches",
    "read_reports",
    "read_samples",
    "read_scenario",
    "read_truth",
    "write_advertisements",
    "write_errors",
    "write_eval",
    "write_matches",
    "write_model",
    "write_reports",
    "write_scenario",
    "write_truth",
]

_R = TypeVar("_R")

#: What a bad line, row or document raises while it is decoded and built:
#: ``OverflowError`` comes from ``float()`` of a huge JSON integer,
#: ``RecursionError`` from decoding deeply nested brackets and ``csv.Error``
#: from a CSV field over the csv module's size limit.
_BAD_INPUT = (ValueError, KeyError, TypeError, OverflowError, RecursionError, csv.Error)


class _JsonText(dict):
    """``json.dumps`` of each id, label or None looked up, computed once per
    distinct value. Equal keys share one text, as ``1`` and ``True`` would,
    so it holds only strings and None."""

    def __missing__(self, value) -> str:
        text = self[value] = json.dumps(value)
        return text


def _num(value) -> str:
    """A number as ``json`` writes it: a float through ``float.__repr__``."""
    return float.__repr__(value) if type(value) is float else json.dumps(value)


#: Lines joined into one write; a whole file at once costs peak memory.
_CHUNK_LINES = 256


def _write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Lines formatted by the caller, written ``_CHUNK_LINES`` at a time."""
    it = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        while chunk := "".join(islice(it, _CHUNK_LINES)):
            f.write(chunk)


def _write_json(path: str | Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(doc, indent=2) + "\n")


def _records(
    path: str | Path, lines: Iterable[tuple], parse: Callable[..., _R | None], what: str, skipped=None
) -> list[_R]:
    """``parse`` every numbered line; a blank line parses to None and is
    passed over. A bad line goes into ``skipped`` as (line number, reason)
    when a list is given; otherwise the first one raises ``ValueError``
    naming the file, the line and the record kind."""
    out = []
    for i, line in lines:
        try:
            record = parse(line)
        except _BAD_INPUT as e:
            if skipped is None:
                raise ValueError(f"{path}:{i}: bad {what}: {e}") from e
            skipped.append((i, str(e)))
        else:
            if record is not None:
                out.append(record)
    return out


def _read_jsonl(
    path: str | Path, what: str, from_dict: Callable[[dict], _R], skipped=None
) -> list[_R]:
    """One record per nonblank line of a JSON Lines file. ``bytes.splitlines``
    ends a line at ``\\n``, ``\\r\\n`` or ``\\r`` only, as text mode does, not at
    the U+2028 and the like that JSON strings may hold. Each line is decoded
    on its own, to ``str``: ``json.loads`` of bytes would pass a byte order mark."""

    def parse(line: bytes) -> _R | None:
        text = line.decode("utf-8")
        return from_dict(json.loads(text)) if text.strip() else None

    with open(path, "rb") as f:
        lines = enumerate(f.read().splitlines(), start=1)
    return _records(path, lines, parse, what, skipped)


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
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}: bad {what}: {e}") from e
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


def _read_doc(path: str | Path, what: str, from_dict: Callable[[object], _R]) -> _R:
    """A JSON document, built by ``from_dict``."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return from_dict(json.loads(data.decode("utf-8")))
    except _BAD_INPUT as e:
        raise ValueError(f"{path}: bad {what}: {e}") from e


def _object(value, keys: Iterable[str]) -> dict:
    """``value``, which must be a JSON object holding no key outside ``keys``."""
    if type(value) is not dict:
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    if value.keys() - keys:
        raise ValueError(f"unknown key {min(value.keys() - keys)!r}")
    return value


def _finite(d: dict, key: str) -> float:
    """``d[key]``, a JSON number, as a finite float: the rule for a margin,
    whose infinite value is written ``null``."""
    value = _number(d[key], key)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def _text(d: dict, key: str) -> str:
    """``d[key]``, which must be a JSON string."""
    value = d[key]
    if type(value) is not str:
        raise TypeError(f"{key} must be a string, got {value!r}")
    return value


def _ad_from_dict(d: dict) -> Advertisement:
    """An advertisement from a JSON line, which ``Advertisement`` checks."""
    return Advertisement(d["ts"], d["wearable"], d["tag"], d["rssi_db"], Activity(d["activity"]))


_AD_FIELDS = ("ts", "wearable", "tag", "rssi_db", "activity")


def write_advertisements(path: str | Path, grids: Iterable[Grid]) -> None:
    """JSON Lines of the records the grids hold, stably sorted by ``ts``:
    byte for byte what ``json.dumps`` writes for each record as an object
    of the ``_AD_FIELDS`` keys, formatted directly and written
    ``_CHUNK_LINES`` lines at a time.

    Each grid's lines come from one lazy iterator: the text of an instant
    is formatted once per instant, the text around the RSSI once per badge
    and each RSSI through ``float.__repr__``, as in ``json`` (a grid holds
    finite floats and ``str`` ids). One stable sort of the (instant, grid)
    rows gives the file order, in which each row takes its grid's next
    lines, one per badge.
    """
    text = _JsonText()
    lines, widths, keys, owner = [], [], [], []
    for k, g in enumerate(grids):
        tag, n = text[g.tag], len(g.wearables)
        parts = [f',"wearable":{text[w]},"tag":{tag},"rssi_db":' for w in g.wearables]
        heads = map('{"ts":'.__add__, map(float.__repr__, g.instants))
        lines.append(map("".join, zip(
            chain.from_iterable(map(repeat, heads, repeat(n))), cycle(parts),
            map(float.__repr__, g.rssi), repeat(f',"activity":{text[g.activity.value]}}}\n'),
        )))
        widths.append(n)
        keys += g.instants
        owner += repeat(k, len(g.instants))
    # each row's grid in file order, sorted through indices and not as
    # (instant, grid) pairs, whose thousands of freed tuples would stay in
    # the interpreter's tuple free list until a full garbage collection
    owners = list(map(owner.__getitem__, sorted(range(len(keys)), key=keys.__getitem__)))
    del keys, owner
    _write_lines(path, chain.from_iterable(
        map(islice, map(lines.__getitem__, owners), map(widths.__getitem__, owners))
    ))


def read_advertisements(
    path: str | Path,
) -> tuple[list[Advertisement], list[tuple[int, str]]]:
    """Parse an advertisement file, collecting malformed lines instead of failing.

    A ``.csv`` name is read as CSV with header ``ts,wearable,tag,rssi_db,activity``.
    Returns (records, skipped) where skipped holds (line_number, reason) for
    every line that did not parse or validate; radio logs routinely contain
    truncated lines and the rest of the stream is still useful.
    """
    skipped: list[tuple[int, str]] = []
    if Path(path).suffix.lower() == ".csv":
        ads = _read_csv(path, _AD_FIELDS, "advertisement", lambda d: Advertisement(
            float(d["ts"]), d["wearable"], d["tag"], float(d["rssi_db"]), Activity(d["activity"])
        ), skipped)
    else:
        ads = _read_jsonl(path, "advertisement", _ad_from_dict, skipped)
    return ads, skipped


def write_reports(path: str | Path, reports: Iterable[DistanceReport]) -> None:
    text = _JsonText()
    _write_lines(path, (
        f'{{"wearable":{text[r.wearable]},"tag":{text[r.tag]},"start_s":{_num(r.start)},'
        f'"stop_s":{_num(r.stop)},"distance_m":{_num(r.distance)},"n_obs":{r.n_obs!r}}}\n'
        for r in reports
    ))


def read_reports(path: str | Path) -> list[DistanceReport]:
    return _read_jsonl(
        path,
        "distance report",
        lambda d: DistanceReport(
            _text(d, "wearable"), _text(d, "tag"), _number(d["start_s"], "start_s"),
            _number(d["stop_s"], "stop_s"), _number(d["distance_m"], "distance_m"), d["n_obs"],
        ),
    )


def write_truth(path: str | Path, truth: Iterable[TruthRecord]) -> None:
    text = _JsonText()
    _write_lines(path, (
        f'{{"tag":{text[t.tag]},"start_s":{_num(t.start)},"stop_s":{_num(t.stop)},'
        f'"wearable":{text[t.wearable]}}}\n'
        for t in truth
    ))


def read_truth(path: str | Path) -> list[TruthRecord]:
    return _read_jsonl(
        path,
        "truth record",
        lambda d: TruthRecord(_text(d, "tag"), _number(d["start_s"], "start_s"),
                              _number(d["stop_s"], "stop_s"), _text(d, "wearable")),
    )


def write_matches(path: str | Path, matches: Iterable[MatchResult]) -> None:
    """Margins are meters; an infinite margin (no competitor at all) is null."""
    text = _JsonText()
    _write_lines(path, (
        f'{{"tag":{text[m.tag]},"start_s":{_num(m.start)},"stop_s":{_num(m.stop)},'
        f'"wearable":{text[m.wearable]},"trust":{text[m.trust.value]},'
        f'"margin_m":{_num(m.margin) if math.isfinite(m.margin) else "null"}}}\n'
        for m in matches
    ))


def read_matches(path: str | Path) -> list[MatchResult]:
    return _read_jsonl(
        path,
        "match result",
        lambda d: MatchResult(
            _text(d, "tag"),
            _number(d["start_s"], "start_s"),
            _number(d["stop_s"], "stop_s"),
            wearable=None if d["wearable"] is None else _text(d, "wearable"),
            trust=Trust(d["trust"]),
            margin=math.inf if d["margin_m"] is None else _finite(d, "margin_m"),
        ),
    )


class _CsvText(dict):
    """The CSV text of each tuple of fields looked up, without the line
    end, from ``csv.writer`` itself, so a field holding a comma, a quote or
    a line break is quoted as the csv module quotes it; computed once per
    distinct tuple."""

    def __missing__(self, fields: tuple) -> str:
        buf = StringIO()
        csv.writer(buf, lineterminator="\n").writerow(fields)
        text = self[fields] = buf.getvalue()[:-1]
        return text


def write_errors(path: str | Path, reports: Iterable[DistanceReport], truth: GroundTruth) -> None:
    """CSV of each report's ranging error against the true distance at the
    session midpoint. Each (wearable, tag) pair's text comes from
    ``csv.writer`` once per file; the numbers are their ``repr``, which
    never needs quoting."""
    ids = _CsvText()

    def line(r: DistanceReport) -> str:
        true = truth.true_distance(r.wearable, r.tag, 0.5 * (r.start + r.stop))
        return (f"{ids[r.wearable, r.tag]},{r.start!r},{r.stop!r},{r.distance!r},"
                f"{true!r},{r.distance - true!r}\n")

    header = "wearable,tag,start_s,stop_s,estimate_m,true_m,error_m\n"
    _write_lines(path, chain((header,), map(line, reports)))


def write_eval(path: str | Path, report: EvalReport) -> None:
    _write_json(path, report.to_dict())


_SAMPLE_FIELDS = ("distance_m", "rssi_db")


def read_samples(path: str | Path) -> list[RangeSample]:
    return _read_csv(
        path,
        _SAMPLE_FIELDS,
        "range sample",
        lambda d: RangeSample(distance=float(d["distance_m"]), rssi=float(d["rssi_db"])),
    )


def write_model(path: str | Path, model: PathLossModel) -> None:
    _write_json(path, model.to_dict())


#: Each optional filter-config key and the ``EkfParams`` field it sets.
_FILTER_FIELDS = {"q": "q", "r": "r", "d_min_m": "d_min", "d_max_m": "d_max", "p0": "p0",
                  "dt_mode": "dt_mode", "x_floor_m": "x_floor"}


def _model_from_dict(d, other_keys: Iterable[str] = ()) -> PathLossModel:
    """A model object, which may hold ``other_keys`` too."""
    _object(d, {"n", "x0_m", "rssi0_db", *other_keys})
    return PathLossModel(*(_number(d[k], k) for k in ("n", "x0_m", "rssi0_db")))


def _ekf_params_from_dict(d) -> EkfParams:
    model = _model_from_dict(d, _FILTER_FIELDS)
    settings = {f: d[k] if k == "dt_mode" else _number(d[k], k) for k, f in _FILTER_FIELDS.items() if k in d}
    return EkfParams(model=model, **settings)


def read_ekf_params(path: str | Path) -> EkfParams:
    """A filter config: the path-loss model keys, which ``fit -o`` writes,
    and any of the filter keys; each one left out takes its ``EkfParams``
    default."""
    return _read_doc(path, "filter config", _ekf_params_from_dict)


def write_scenario(path: str | Path, config: ScenarioConfig) -> None:
    _write_json(path, config.to_dict())


def _trace(knots: list) -> Trace:
    """``[[t, x, y], ...]``; ``Trace`` itself rejects a non-finite knot."""
    k = "trace knot"
    return Trace(tuple((_number(t, k), _number(x, k), _number(y, k)) for t, x, y in knots))


def _segment(d) -> ScheduleSegment:
    _object(d, {"start_s", "stop_s", "activity", "operator"})
    return ScheduleSegment(
        start=_number(d["start_s"], "start_s"),
        stop=_number(d["stop_s"], "stop_s"),
        activity=Activity(d["activity"]),
        operator=None if d.get("operator") is None else _text(d, "operator"),
    )


def _worker(d) -> WorkerSpec:
    _object(d, {"id", "trace"})
    return WorkerSpec(id=_text(d, "id"), trace=_trace(d["trace"]))


def _tool(d) -> ToolSpec:
    _object(d, {"id", "trace", "schedule"})
    return ToolSpec(id=_text(d, "id"), trace=_trace(d["trace"]), schedule=tuple(map(_segment, d["schedule"])))


def _scenario_from_dict(d) -> ScenarioConfig:
    """``ScenarioConfig`` itself checks the seed (an ``int`` of at least 0)."""
    _object(d, {"seed", "duration_s", "adv_interval_s", "noise_std_db", "drop_prob", "model",
                "workers", "tools"})
    return ScenarioConfig(
        seed=d["seed"],
        duration=_number(d["duration_s"], "duration_s"),
        adv_interval=_number(d["adv_interval_s"], "adv_interval_s"),
        noise_std=_number(d["noise_std_db"], "noise_std_db"),
        drop_prob=_number(d["drop_prob"], "drop_prob"),
        model=_model_from_dict(d["model"]),
        workers=tuple(map(_worker, d["workers"])),
        tools=tuple(map(_tool, d["tools"])),
    )


def read_scenario(path: str | Path) -> ScenarioConfig:
    return _read_doc(path, "scenario", _scenario_from_dict)
