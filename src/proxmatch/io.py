"""File formats: JSON Lines record streams, JSON documents, CSV tables.

Writers emit keys in a fixed order and floats through ``repr`` (the json
default), so a given record sequence always produces byte-identical files.
``io`` writes the scenario and model documents it reads, so their keys are
spelled here only. A writer replaces an existing regular file with a new
one instead of truncating it: ext4 flushes a truncated file's new data when
it is closed, which costs a rerun into a used directory 5-10% of its time.
Symlinks are written through, and devices such as ``/dev/stdout`` opened.

Every reader applies one rule to bad input. A line, row or document is bad
when it does not decode, lacks a field, or holds a value of the wrong type
or out of range (any exception in ``_BAD_INPUT``). ``io`` checks only what
a JSON value can get wrong and a Python caller's value cannot:

- an activity or a trust label is one of its names;
- a margin is finite, since an infinite one is written ``null``;
- a document, and each object in it, holds no key that no field reads; a
  filter config needs the model keys, and a filter key left out keeps its default.

Each type checks its own values whenever it is built (finite, in range, a
window's order, a count, a seed, a ``dt_mode``), so a ``NaN`` or
``Infinity`` that Python's ``json`` decodes is rejected there. A record, a
path-loss model, the filter parameters, a scenario and a trace also check
their ids (``str``) and numbers (``int`` or ``float``, not ``bool``,
stored as ``float``), so their readers pass them the values as decoded,
and an error names the field of the type that holds the value (``d_min``,
not the filter-config key ``d_min_m``).

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
import os
import stat
from io import StringIO
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

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
_E = TypeVar("_E")

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


#: Lines joined into one write; a whole file at once costs peak memory.
_CHUNK_LINES = 256


def _create(path: str | Path) -> TextIO:
    """``path`` opened for writing, a regular file there removed first."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
    except OSError:  # open then meets the same fault, or truncates as before
        pass
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_lines(path: str | Path, lines: Iterable[str], per_write: int = _CHUNK_LINES) -> None:
    """Lines formatted by the caller, written ``per_write`` at a time; an
    item may hold several lines."""
    it = iter(lines)
    with _create(path) as f:
        while chunk := "".join(islice(it, per_write)):
            f.write(chunk)


def _write_json(path: str | Path, doc: dict) -> None:
    with _create(path) as f:
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


def _object(value, keys: frozenset[str]) -> dict:
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


def _member_lookup(enum: type[_E]) -> Callable[[object], _E]:
    """``enum(name)`` for a reader, by one dict lookup: the member whose
    value is ``name``, or the ``ValueError`` that ``enum(name)`` raises.
    ``EnumMeta.__call__`` runs in Python and costs about nine times as much."""
    members = {m.value: m for m in enum}

    def member(name) -> _E:
        try:
            return members[name]
        except (KeyError, TypeError):  # TypeError: an unhashable JSON value
            raise ValueError(f"{name!r} is not a valid {enum.__qualname__}") from None

    return member


_activity, _trust = _member_lookup(Activity), _member_lookup(Trust)


_AD_FIELDS = ("ts", "wearable", "tag", "rssi_db", "activity")


def write_advertisements(path: str | Path, grids: Iterable[Grid]) -> None:
    """JSON Lines of the records the grids hold, stably sorted by ``ts``:
    byte for byte what ``json.dumps`` writes for each record as an object
    of the ``_AD_FIELDS`` keys, formatted directly and written
    about ``_CHUNK_LINES`` lines at a time.

    The unit is a run: consecutive grids that hold one ``Instants``
    object, as the tools of one schedule do in ``generate``'s stream; a
    grid whose instants are another object, even an equal one, starts a
    new run. A run's row for one instant holds one line per grid in grid
    order, and is one ``"".join`` of four pieces per line: the instant's
    ``{"ts":…`` text, formatted once per run; the grid's constant
    ``,"wearable":…,"tag":…,"rssi_db":`` text; its RSSI through
    ``float.__repr__``, as in ``json`` (a grid holds finite
    floats and ``str`` ids); and the grid's constant ``,"activity":…}``
    tail. Each id, tag and activity is JSON-encoded once and copied
    verbatim. The rows are joined lazily, one per instant. One stable sort
    of the (instant, run) rows gives the file order, in which each row
    takes its run's next block: a run is a contiguous range of grids, so
    that is the records' (instant, grid) order. The blocks go out in writes
    of as many rows as hold ``_CHUNK_LINES`` lines on average.
    """
    runs: list[list[Grid]] = []
    for g in grids:
        if runs and g.instants is runs[-1][0].instants:
            runs[-1].append(g)
        else:
            runs.append([g])
    text = _JsonText()
    blocks, keys, owner, n_lines = [], [], [], 0
    for k, run in enumerate(runs):
        instants = run[0].instants
        heads = list(map('{"ts":'.__add__, map(float.__repr__, instants)))
        pieces = []
        for g in run:
            pieces += (heads, repeat(f',"wearable":{text[g.wearable]},"tag":{text[g.tag]},"rssi_db":'),
                       map(float.__repr__, g.rssi), repeat(f',"activity":{text[g.activity.value]}}}\n'))
        n_lines += len(instants) * len(run)
        blocks.append(map("".join, zip(*pieces)))
        keys += instants
        owner += repeat(k, len(instants))
    # each row's run in file order, sorted through indices and not as
    # (instant, run) pairs, whose thousands of freed tuples would stay in
    # the interpreter's tuple free list until a full garbage collection
    owners = list(map(owner.__getitem__, sorted(range(len(keys)), key=keys.__getitem__)))
    del keys, owner
    rows_per_write = max(1, _CHUNK_LINES * len(owners) // max(1, n_lines))
    _write_lines(path, map(next, map(blocks.__getitem__, owners)), rows_per_write)


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
            float(d["ts"]), d["wearable"], d["tag"], float(d["rssi_db"]), _activity(d["activity"])
        ), skipped)
    else:
        ads = _read_jsonl(path, "advertisement", lambda d: Advertisement(
            d["ts"], d["wearable"], d["tag"], d["rssi_db"], _activity(d["activity"])
        ), skipped)
    return ads, skipped


def write_reports(path: str | Path, reports: Iterable[DistanceReport]) -> None:
    """One line per report. The record writers unpack each record, since
    CPython does not specialise reads of a named tuple's fields by name.

    The window text is formatted once per run of consecutive reports whose
    ``start`` and ``stop`` are the same float objects, as ``run_edge``
    gives one session's reports, or those of co-starting sessions whose
    tools shared one ``Instants`` object; equal values held by distinct
    objects, such as ``0.0`` and ``-0.0``, each get their own text."""
    text = _JsonText()

    def lines() -> Iterator[str]:
        start0 = stop0 = window = None
        for wearable, tag, start, stop, distance, n_obs in reports:
            if start is not start0 or stop is not stop0:
                start0, stop0, window = start, stop, f'"start_s":{start!r},"stop_s":{stop!r}'
            yield (f'{{"wearable":{text[wearable]},"tag":{text[tag]},{window},'
                   f'"distance_m":{distance!r},"n_obs":{n_obs!r}}}\n')

    _write_lines(path, lines())


def read_reports(path: str | Path) -> list[DistanceReport]:
    return _read_jsonl(path, "distance report", lambda d: DistanceReport(
        d["wearable"], d["tag"], d["start_s"], d["stop_s"], d["distance_m"], d["n_obs"]))


def write_truth(path: str | Path, truth: Iterable[TruthRecord]) -> None:
    text = _JsonText()
    _write_lines(path, (
        f'{{"tag":{text[tag]},"start_s":{start!r},"stop_s":{stop!r},"wearable":{text[wearable]}}}\n'
        for tag, start, stop, wearable in truth
    ))


def read_truth(path: str | Path) -> list[TruthRecord]:
    return _read_jsonl(path, "truth record",
                       lambda d: TruthRecord(d["tag"], d["start_s"], d["stop_s"], d["wearable"]))


#: Each trust label's JSON text, looked up by member: ``Trust.value`` is an
#: ``Enum`` property, read in Python.
_TRUST_TEXT = {t: json.dumps(t.value) for t in Trust}


def write_matches(path: str | Path, matches: Iterable[MatchResult]) -> None:
    """Margins are meters; an infinite margin (no competitor at all) is null."""
    text = _JsonText()
    _write_lines(path, (
        f'{{"tag":{text[tag]},"start_s":{start!r},"stop_s":{stop!r},'
        f'"wearable":{text[wearable]},"trust":{_TRUST_TEXT[trust]},'
        f'"margin_m":{repr(margin) if math.isfinite(margin) else "null"}}}\n'
        for tag, start, stop, wearable, trust, margin in matches
    ))


def read_matches(path: str | Path) -> list[MatchResult]:
    return _read_jsonl(path, "match result", lambda d: MatchResult(
        d["tag"], d["start_s"], d["stop_s"], d["wearable"], _trust(d["trust"]),
        math.inf if d["margin_m"] is None else _finite(d, "margin_m"),
    ))


class _CsvText(dict):
    """The CSV text of each tuple of fields looked up, without the line
    end, from ``csv.writer`` itself, so a field holding a comma, a quote or
    a line break is quoted as the csv module quotes it; computed once per
    distinct tuple. The writer ends its line with ``\r\n``, since it quotes
    only the line-end characters of its own terminator, and a lone ``\r``
    left bare would end the row for ``csv.reader``."""

    def __missing__(self, fields: tuple) -> str:
        buf = StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(fields)
        text = self[fields] = buf.getvalue()[:-2]
        return text


#: A report's (wearable, tag).
_IDS = itemgetter(0, 1)


def write_errors(path: str | Path, reports: Iterable[DistanceReport], truth: GroundTruth) -> None:
    """CSV of each report's ranging error against the true distance at the
    session midpoint. Each (wearable, tag) pair's text comes from
    ``csv.writer`` once per file; the numbers are their ``repr``, which
    never needs quoting.

    Consecutive reports whose ``start`` and ``stop`` are the same float
    objects, as ``write_reports`` finds them, are written as one block: the
    window text and the midpoint are computed once, and
    ``GroundTruth.true_distances`` places the traces there."""
    ids = _CsvText()

    def block(run: list[DistanceReport]) -> str:
        start, stop = run[0][2], run[0][3]
        window = f"{start!r},{stop!r}"
        trues = truth.true_distances(map(_IDS, run), 0.5 * (start + stop))
        return "".join([f"{ids[wearable, tag]},{window},{distance!r},{true!r},{distance - true!r}\n"
                        for (wearable, tag, _, _, distance, _), true in zip(run, trues)])

    def blocks() -> Iterator[str]:
        yield "wearable,tag,start_s,stop_s,estimate_m,true_m,error_m\n"
        run: list[DistanceReport] = []
        start = stop = None
        for r in reports:
            if r[2] is not start or r[3] is not stop:
                if run:
                    yield block(run)
                run, start, stop = [r], r[2], r[3]
            else:
                run.append(r)
        if run:
            yield block(run)

    _write_lines(path, blocks())


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


#: Each optional filter-config key and the ``EkfParams`` field it sets.
_FILTER_FIELDS = {"q": "q", "r": "r", "d_min_m": "d_min", "d_max_m": "d_max", "p0": "p0",
                  "dt_mode": "dt_mode", "x_floor_m": "x_floor"}
_MODEL_KEYS = frozenset({"n", "x0_m", "rssi0_db"})
_FILTER_KEYS = _MODEL_KEYS | frozenset(_FILTER_FIELDS)


def _model_from_dict(d, keys: frozenset[str] = _MODEL_KEYS) -> PathLossModel:
    """A model object, which may hold the other ``keys`` too."""
    _object(d, keys)
    return PathLossModel(d["n"], d["x0_m"], d["rssi0_db"])


def _model_to_dict(model: PathLossModel) -> dict:
    return {"n": model.n, "x0_m": model.x0, "rssi0_db": model.rssi0}


def write_model(path: str | Path, model: PathLossModel) -> None:
    """The model keys of a filter config, which ``read_ekf_params`` reads."""
    _write_json(path, _model_to_dict(model))


def _ekf_params_from_dict(d) -> EkfParams:
    model = _model_from_dict(d, _FILTER_KEYS)
    settings = {f: d[k] for k, f in _FILTER_FIELDS.items() if k in d}
    return EkfParams(model=model, **settings)


def read_ekf_params(path: str | Path) -> EkfParams:
    """A filter config: the path-loss model keys, which ``fit -o`` writes,
    and any of the filter keys; each one left out takes its ``EkfParams``
    default."""
    return _read_doc(path, "filter config", _ekf_params_from_dict)


_SEGMENT_KEYS = frozenset({"start_s", "stop_s", "activity", "operator"})
_WORKER_KEYS = frozenset({"id", "trace"})
_TOOL_KEYS = frozenset({"id", "trace", "schedule"})
_SCENARIO_KEYS = frozenset({"seed", "duration_s", "adv_interval_s", "noise_std_db", "drop_prob", "model",
                            "workers", "tools"})


def _segment(d) -> ScheduleSegment:
    _object(d, _SEGMENT_KEYS)
    return ScheduleSegment(d["start_s"], d["stop_s"], _activity(d["activity"]), d.get("operator"))


def _worker(d) -> WorkerSpec:
    _object(d, _WORKER_KEYS)
    return WorkerSpec(id=d["id"], trace=Trace(d["trace"]))


def _tool(d) -> ToolSpec:
    _object(d, _TOOL_KEYS)
    return ToolSpec(id=d["id"], trace=Trace(d["trace"]), schedule=tuple(map(_segment, d["schedule"])))


def _scenario_from_dict(d) -> ScenarioConfig:
    """``ScenarioConfig``, ``Trace`` and the segments check the values."""
    _object(d, _SCENARIO_KEYS)
    return ScenarioConfig(
        seed=d["seed"],
        duration=d["duration_s"],
        adv_interval=d["adv_interval_s"],
        noise_std=d["noise_std_db"],
        drop_prob=d["drop_prob"],
        model=_model_from_dict(d["model"]),
        workers=tuple(map(_worker, d["workers"])),
        tools=tuple(map(_tool, d["tools"])),
    )


def write_scenario(path: str | Path, config: ScenarioConfig) -> None:
    """The document ``_scenario_from_dict`` reads."""
    _write_json(path, {
        "seed": config.seed,
        "duration_s": config.duration,
        "adv_interval_s": config.adv_interval,
        "noise_std_db": config.noise_std,
        "drop_prob": config.drop_prob,
        "model": _model_to_dict(config.model),
        "workers": [{"id": w.id, "trace": list(map(list, w.trace.knots))} for w in config.workers],
        "tools": [
            {
                "id": t.id,
                "trace": list(map(list, t.trace.knots)),
                "schedule": [
                    {"start_s": s.start, "stop_s": s.stop, "activity": s.activity.value,
                     "operator": s.operator}
                    for s in t.schedule
                ],
            }
            for t in config.tools
        ],
    })


def read_scenario(path: str | Path) -> ScenarioConfig:
    return _read_doc(path, "scenario", _scenario_from_dict)
