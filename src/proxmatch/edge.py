"""Wearable-side processing: one pass per tag that cuts sessions and filters RSSI.

Tags broadcast an activity class with each advertisement; badges that hear a
broadcast feed its RSSI to a per-session filter as it arrives and ship one
compact distance report per session, so the radio link and the server never
see raw RSSI.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count, cycle, repeat
from operator import itemgetter, lt
from typing import Iterable, Iterator, NamedTuple

from . import ekf
from .ekf import EkfParams

__all__ = [
    "ACTIVE_DEFAULT",
    "Activity",
    "Advertisement",
    "DistanceReport",
    "Grid",
    "SESSION_GAP_S",
    "run_edge",
]

#: A pause longer than this splits two activity runs into separate sessions.
#: Short tool-handling pauses (re-gripping, repositioning) stay inside one
#: session; walking away for half a minute does not.
SESSION_GAP_S = 21.0


class Activity(Enum):
    """Activity class a tag attaches to its advertisements."""

    USAGE = "usage"
    TRANSPORT = "transport"
    INACTIVE = "inactive"

    # Members are singletons and Enum compares by identity, so the identity
    # hash is consistent with equality; Enum's own hashes the member name in
    # Python, once per advertisement in set and dict lookups.
    __hash__ = object.__hash__


#: Classes that count as "the asset is being operated". Transport is excluded
#: by default: carrying a tool is not using it.
ACTIVE_DEFAULT = frozenset({Activity.USAGE})


#: The plausible radio range of a received signal strength, dB.
RSSI_MIN_DB, RSSI_MAX_DB = -127.0, 20.0


def _number(value, name: str) -> float:
    """``value``, an ``int`` or ``float`` (not ``bool``), as a float: the
    rule for a number in an advertisement and in every file ``io`` reads."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


class _AdvertisementFields(NamedTuple):
    ts: float
    wearable: str
    tag: str
    rssi: float
    activity: Activity


class Advertisement(_AdvertisementFields):
    """One received broadcast: reception time, both ids, RSSI, activity class.

    A named tuple whose constructor validates, positionally or by keyword,
    for every caller, ``io.read_advertisements`` too: ids are ``str``;
    ``ts`` and ``rssi`` are an ``int`` or ``float`` (not ``bool``), stored as
    ``float``, ``ts`` finite and ``rssi`` in [-127, 20] dB. Being a tuple,
    an instance is immutable and hashable, iterates over its fields and
    compares equal to a plain tuple of the same values (and to any other
    tuple of them). ``_make`` and ``_replace`` build instances without the
    checks.
    """

    __slots__ = ()

    def __new__(
        cls, ts: float, wearable: str, tag: str, rssi: float, activity: Activity
    ) -> Advertisement:
        if type(ts) is not float:
            ts = _number(ts, "ts")
        if not math.isfinite(ts):
            raise ValueError(f"timestamp must be finite, got {ts}")
        if type(wearable) is not str:
            raise ValueError(f"wearable must be a string, got {wearable!r}")
        if type(tag) is not str:
            raise ValueError(f"tag must be a string, got {tag!r}")
        if type(rssi) is not float:
            rssi = _number(rssi, "rssi")
        if not RSSI_MIN_DB <= rssi <= RSSI_MAX_DB:
            raise ValueError(
                f"rssi outside plausible range [{RSSI_MIN_DB:g}, {RSSI_MAX_DB:g}] dB: {rssi}"
            )
        if not isinstance(activity, Activity):
            raise ValueError(f"activity must be an Activity, got {activity!r}")
        return tuple.__new__(cls, (ts, wearable, tag, rssi, activity))


@dataclass(frozen=True, slots=True)
class Grid:
    """One tag's broadcasts at ``instants``, each heard by every badge in
    ``wearables``, with ``rssi`` holding one value per (instant, badge),
    instant-major: the readings a simulated tool sends while its activity
    stays the same (with reception loss, those one badge heard), as one
    compact value.

    A grid holds the ``Advertisement`` records it iterates over, and
    ``len`` counts them. Construction checks them under ``Advertisement``'s
    rules and stores ``instants`` and ``rssi`` as tuples of floats. On top,
    a grid holds at least one reading, its badges are distinct and its
    instants strictly increase, so each badge hears each broadcast once.

    Each value is checked in C-level passes, each instant, id and the
    activity once. When any check fails, the records are built one by one
    through ``Advertisement``, which raises its own error for the first bad
    record or normalises an ``int`` to a ``float`` as it does for one record.
    """

    instants: tuple[float, ...]
    wearables: tuple[str, ...]
    tag: str
    rssi: tuple[float, ...]
    activity: Activity

    def __post_init__(self) -> None:
        instants, wearables, tag, rssi, activity = (
            self.instants, tuple(self.wearables), self.tag, self.rssi, self.activity
        )
        n = len(wearables)
        if len(rssi) != len(instants) * n:
            raise ValueError(f"expected {len(instants)} x {n} rssi values, got {len(rssi)}")
        if not rssi:
            raise ValueError("a grid needs at least one instant and one badge")
        if (
            type(tag) is str
            and isinstance(activity, Activity)
            and set(map(type, wearables)) == {str}
            and set(map(type, instants)) == {float}
            and all(map(math.isfinite, instants))
            and set(map(type, rssi)) == {float}
            # min and max pass over a NaN that is not first; the sum does not
            and RSSI_MIN_DB <= min(rssi)
            and max(rssi) <= RSSI_MAX_DB
            and not math.isnan(sum(rssi))
        ):
            instants, rssi = tuple(instants), tuple(rssi)
        else:
            records = list(map(Advertisement, chain.from_iterable(map(repeat, instants, repeat(n))),
                               cycle(wearables), repeat(tag), rssi, repeat(activity)))
            instants, rssi = tuple(a[0] for a in records[::n]), tuple(a[3] for a in records)
        if len(set(wearables)) != n:
            raise ValueError(f"a grid's badges must be distinct, got {list(wearables)}")
        if not all(map(lt, instants, instants[1:])):
            t0, t1 = next((t0, t1) for t0, t1 in zip(instants, instants[1:]) if not t0 < t1)
            raise ValueError(f"grid instants must strictly increase ({t1} after {t0})")
        object.__setattr__(self, "instants", instants)
        object.__setattr__(self, "wearables", wearables)
        object.__setattr__(self, "rssi", rssi)

    def __len__(self) -> int:
        return len(self.rssi)

    def __iter__(self) -> Iterator[Advertisement]:
        """The records, instant-major, built without checking them again."""
        return map(tuple.__new__, repeat(Advertisement), zip(
            chain.from_iterable(map(repeat, self.instants, repeat(len(self.wearables)))),
            cycle(self.wearables), repeat(self.tag), self.rssi, repeat(self.activity),
        ))


def _check_window(start: float, stop: float) -> None:
    """The window rule of a report, truth or match record."""
    if not (math.isfinite(start) and math.isfinite(stop) and start <= stop):
        raise ValueError(f"session window must be finite with start <= stop, got [{start}, {stop}]")


@dataclass(frozen=True)
class DistanceReport:
    """What a badge ships per session: final distance estimate and observation
    count. Construction checks every value."""

    wearable: str
    tag: str
    start: float
    stop: float
    distance: float
    n_obs: int

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        if not (math.isfinite(self.distance) and self.distance >= 0):
            raise ValueError(f"distance must be finite and nonnegative, got {self.distance}")
        if type(self.n_obs) is not int or self.n_obs < 1:
            raise ValueError(f"n_obs must be an integer >= 1, got {self.n_obs!r}")


#: What a feeder yields per session: (tag, start, stop, heard), with
#: ``heard`` mapping each badge that heard the session to its (rssi, ts)
#: readings in time order, one per instant.
_Session = tuple[str, float, float, dict[str, tuple[list[float], list[float]]]]


def _record_sessions(
    ads: Iterable[Advertisement], active: frozenset[Activity], gap: float
) -> Iterator[_Session]:
    """The sessions of the active records, given in any order: each tag's
    records, in the order given, stably sorted on ``ts`` and swept once. A
    session starts at its first record's ``ts`` and stops at its last's, and
    each badge keeps its first reception of each broadcast."""
    by_tag: dict[str, list[Advertisement]] = defaultdict(list)
    for a in ads:
        if a[4] in active:
            by_tag[a[2]].append(a)
    for tag, tag_ads in by_tag.items():
        tag_ads.sort(key=itemgetter(0))
        start = stop = tag_ads[0][0]
        heard: dict[str, tuple[list[float], list[float]]] = {}
        for ts, w, _, rssi, _ in tag_ads:
            if ts - stop > gap:
                yield tag, start, stop, heard
                start, heard = ts, {}
            stop = ts
            obs = heard.get(w)
            if obs is None:
                heard[w] = ([rssi], [ts])
            elif obs[1][-1] != ts:  # a repeat of one broadcast: the first reception wins
                obs[0].append(rssi)
                obs[1].append(ts)
        yield tag, start, stop, heard


def _grid_sessions(grids: Iterable[Grid], active: frozenset[Activity], gap: float) -> Iterator[_Session]:
    """The sessions of the active grids, given in any order. A tag's
    sessions are cut on its grids' instants in the order given, stably
    sorted, as the records' sort would give them; each badge's readings are
    strided slices of its grids in time order, cut at the session stops.
    Grids of one tag that share a badge must not overlap in time."""
    by_tag: dict[str, list[Grid]] = defaultdict(list)
    for g in grids:
        by_tag[g.tag].append(g)
    for tag, tag_grids in by_tag.items():
        # each badge's (grid, column) in time order, whatever the activity
        by_badge: dict[str, list[tuple[Grid, int]]] = defaultdict(list)
        for g in sorted(tag_grids, key=lambda g: g.instants[0]):
            for j, w in enumerate(g.wearables):
                by_badge[w].append((g, j))
        for w, own in by_badge.items():
            for (a, _), (b, _) in zip(own, own[1:]):
                if a.instants[-1] >= b.instants[0]:
                    raise ValueError(
                        f"grids of tag {tag!r} heard by {w!r} overlap in time: "
                        f"[{a.instants[0]}, {a.instants[-1]}] and [{b.instants[0]}, {b.instants[-1]}]"
                    )
        instants = sorted(chain.from_iterable(g.instants for g in tag_grids if g.activity in active))
        if not instants:
            continue
        # a session ends before a pause longer than ``gap``
        ends = [k for k, t0, t1 in zip(count(1), instants, instants[1:]) if t1 - t0 > gap]
        ends.append(len(instants))
        stops = [instants[end - 1] for end in ends]
        heard: list[dict[str, tuple[list[float], list[float]]]] = [{} for _ in ends]
        for w, own in by_badge.items():
            rssi: list[float] = []
            ts: list[float] = []
            for g, j in own:
                if g.activity in active:
                    rssi += g.rssi[j::len(g.wearables)]
                    ts += g.instants
            cuts = [0, *map(bisect_right, repeat(ts), stops)]
            for session, lo, hi in zip(heard, cuts, cuts[1:]):
                if lo < hi:
                    # a badge that heard one session only folds its lists whole
                    session[w] = (rssi, ts) if hi - lo == len(ts) else (rssi[lo:hi], ts[lo:hi])
        for lo, stop, session in zip([0, *ends], stops, heard):
            yield tag, instants[lo], stop, session


def run_edge(
    ads: Iterable[Advertisement] | Iterable[Grid],
    params: EkfParams | None = None,
    *,
    gap: float = SESSION_GAP_S,
    active: frozenset[Activity] = ACTIVE_DEFAULT,
) -> list[DistanceReport]:
    """Replay a mixed advertisement stream into per-session distance reports.

    A session is a maximal run of one tag's active broadcast instants in
    which consecutive instants are at most ``gap`` seconds apart; inactive
    broadcasts never extend it. Sessions are cut per tag from the union of
    all badges' receptions, so every badge reports against the same session
    boundaries even when it missed the boundary broadcasts. Each (badge,
    session) pair runs a fresh filter over the active broadcasts that badge
    actually heard inside the window and yields exactly one report. A badge
    that logs one broadcast twice (same timestamp) keeps its first reception.

    The stream is either records, as read from a file, in any order, or
    ``Grid``s, as ``simulator.generate`` returns them; a stream whose first
    item is a grid must hold only grids, and one tag's grids that share a
    badge must not overlap in time. Records are sorted by ``ts`` and swept
    per tag, which cuts the sessions as it goes. Grids skip the sweep: a
    tag's sessions are cut on its grids' instants, and each badge's
    readings are strided slices of its grids, which gives the reports of
    the records the grids hold. Either way, each (badge, session) is folded
    by one ``ekf.run_filter`` call.
    """
    if not (math.isfinite(gap) and gap > 0):
        raise ValueError(f"session gap must be finite and positive, got {gap}")
    if params is None:
        params = EkfParams()
    ads = list(ads)
    if ads and type(ads[0]) is Grid:
        if not all(type(g) is Grid for g in ads):
            raise ValueError("a stream of grids holds a record; pass records or grids")
        sessions = _grid_sessions(ads, active, gap)
    else:
        sessions = _record_sessions(ads, active, gap)
    reports = []
    for tag, start, stop, heard in sessions:
        for w, (rssi, ts) in heard.items():
            x = ekf.run_filter(rssi, ts, params).x
            reports.append(DistanceReport(w, tag, start, stop, x, len(ts)))
    reports.sort(key=lambda r: (r.start, r.stop, r.tag, r.wearable))
    return reports
