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
from itertools import chain, compress, count, cycle, repeat, starmap
from operator import itemgetter, lt, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import ekf
from .ekf import EkfParams
from .pathloss import _number

__all__ = [
    "ACTIVE_DEFAULT",
    "ADV_INTERVAL_S",
    "Activity",
    "Advertisement",
    "DistanceReport",
    "Grid",
    "Instants",
    "SESSION_GAP_S",
    "run_edge",
]

#: Tag broadcast period.
ADV_INTERVAL_S = 7.0

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


def _id(value, name: str) -> str:
    """``value``, which must be a ``str``: the rule for an id in every record."""
    if type(value) is not str:
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _ts(value) -> float:
    """``value``, a number, as a finite float: the rule for a broadcast time."""
    if math.isfinite(ts := _number(value, "ts")):
        return ts
    raise ValueError(f"timestamp must be finite, got {ts}")


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
        if type(ts) is not float or not math.isfinite(ts):
            ts = _ts(ts)
        if type(wearable) is not str:
            _id(wearable, "wearable")
        if type(tag) is not str:
            _id(tag, "tag")
        if type(rssi) is not float:
            rssi = _number(rssi, "rssi")
        if not RSSI_MIN_DB <= rssi <= RSSI_MAX_DB:
            raise ValueError(
                f"rssi outside plausible range [{RSSI_MIN_DB:g}, {RSSI_MAX_DB:g}] dB: {rssi}"
            )
        if not isinstance(activity, Activity):
            raise ValueError(f"activity must be an Activity, got {activity!r}")
        return tuple.__new__(cls, (ts, wearable, tag, rssi, activity))


class Instants(tuple):
    """A tag's broadcast times, checked once: each as ``Advertisement``'s
    ``ts``, a finite float, strictly increasing. A slice is a plain tuple."""

    __slots__ = ()

    def __new__(cls, values: Iterable[float]) -> Instants:
        instants = tuple.__new__(cls, values)
        if not (set(map(type, instants)) <= {float} and all(map(math.isfinite, instants))):
            instants = tuple.__new__(cls, map(_ts, instants))
        if not all(map(lt, instants, instants[1:])):
            t0, t1 = next((t0, t1) for t0, t1 in zip(instants, instants[1:]) if not t0 < t1)
            raise ValueError(f"grid instants must strictly increase ({t1} after {t0})")
        return instants


@dataclass(frozen=True, slots=True)
class Grid:
    """One tag's broadcasts at ``instants``, each heard by every badge in
    ``wearables``, with ``rssi`` holding one value per (instant, badge),
    instant-major: the readings a simulated tool sends while its activity
    stays the same (with reception loss, those one badge heard), as one
    compact value.

    A grid holds the ``Advertisement`` records it iterates over, and
    ``len`` counts them. Construction checks them under ``Advertisement``'s
    rules. An ``Instants`` is held as it is, as the grids of one schedule
    from ``simulator.generate`` share one; another sequence is built into
    one. The other values are checked in C-level passes, each id and the
    activity once, and ``rssi`` is stored as a tuple of floats. Bad instants
    raise first; on a later failed check the records are built through
    ``Advertisement``, which raises its error for the first bad RSSI, id or
    activity, or turns ints into floats. A grid has readings, on distinct badges."""

    instants: Instants
    wearables: tuple[str, ...]
    tag: str
    rssi: tuple[float, ...]
    activity: Activity

    def __post_init__(self) -> None:
        instants = self.instants if type(self.instants) is Instants else Instants(self.instants)
        wearables, tag, rssi, activity = tuple(self.wearables), self.tag, self.rssi, self.activity
        n = len(wearables)
        if len(rssi) != len(instants) * n:
            raise ValueError(f"expected {len(instants)} x {n} rssi values, got {len(rssi)}")
        if not rssi:
            raise ValueError("a grid needs at least one instant and one badge")
        if not (
            type(tag) is str
            and isinstance(activity, Activity)
            and set(map(type, wearables)) == {str}
            and set(map(type, rssi)) == {float}
            # min and max pass over a NaN that is not first; the sum does not
            and RSSI_MIN_DB <= min(rssi)
            and max(rssi) <= RSSI_MAX_DB
            and not math.isnan(sum(rssi))
        ):
            rssi = [a[3] for a in map(Advertisement, chain.from_iterable(map(repeat, instants, repeat(n))),
                                      cycle(wearables), repeat(tag), rssi, repeat(activity))]
        if len(set(wearables)) != n:
            raise ValueError(f"a grid's badges must be distinct, got {list(wearables)}")
        object.__setattr__(self, "instants", instants)
        object.__setattr__(self, "wearables", wearables)
        object.__setattr__(self, "rssi", tuple(rssi))

    def __len__(self) -> int:
        return len(self.rssi)

    def __iter__(self) -> Iterator[Advertisement]:
        """The records, instant-major, built without checking them again."""
        return map(tuple.__new__, repeat(Advertisement), zip(
            chain.from_iterable(map(repeat, self.instants, repeat(len(self.wearables)))),
            cycle(self.wearables), repeat(self.tag), self.rssi, repeat(self.activity),
        ))


def _window(start: float, stop: float) -> tuple[float, float]:
    """``start`` and ``stop``, numbers, as floats: finite, with ``start <= stop``."""
    if type(start) is not float:
        start = _number(start, "start")
    if type(stop) is not float:
        stop = _number(stop, "stop")
    if not (math.isfinite(start) and math.isfinite(stop) and start <= stop):
        raise ValueError(f"session window must be finite with start <= stop, got [{start}, {stop}]")
    return start, stop


class _DistanceReportFields(NamedTuple):
    wearable: str
    tag: str
    start: float
    stop: float
    distance: float
    n_obs: int


class DistanceReport(_DistanceReportFields):
    """What a badge ships per session: final distance estimate and observation
    count.

    A named tuple whose constructor checks every value, positionally or by
    keyword, under ``Advertisement``'s id and number rules: the window is
    finite with ``start <= stop``, the distance finite and nonnegative, and
    ``n_obs`` an ``int`` (not ``bool``) of at least 1. As with
    ``Advertisement``, an instance compares equal to a plain tuple of the
    same values, and ``_make`` and ``_replace`` build instances without the
    checks.
    """

    __slots__ = ()

    def __new__(
        cls, wearable: str, tag: str, start: float, stop: float, distance: float, n_obs: int
    ) -> DistanceReport:
        if type(wearable) is not str:
            _id(wearable, "wearable")
        if type(tag) is not str:
            _id(tag, "tag")
        start, stop = _window(start, stop)
        if type(distance) is not float:
            distance = _number(distance, "distance")
        if not (math.isfinite(distance) and distance >= 0):
            raise ValueError(f"distance must be finite and nonnegative, got {distance}")
        if type(n_obs) is not int or n_obs < 1:
            raise ValueError(f"n_obs must be an integer >= 1, got {n_obs!r}")
        return tuple.__new__(cls, (wearable, tag, start, stop, distance, n_obs))


#: What a lane builder yields per tag: (tag, instants, lanes), with
#: ``instants`` the tag's active instants in time order and ``lanes``
#: mapping each badge to its (rssi, ts) readings in time order.
_Lanes = tuple[str, Sequence[float], dict[str, tuple[list[float], list[float]]]]


_MIXED_STREAM = "a stream of grids holds a record; pass records or grids"


def _record_lanes(ads: Iterable[Advertisement], active: frozenset[Activity]) -> Iterator[_Lanes]:
    """The lanes of the active records, given in any order: each tag's
    records, in the order given, stably sorted on ``ts``. The instants are
    the ``ts`` of every record, repeats included, so that a window keeps the
    sign of its first and last record's ``-0.0`` or ``0.0``; each badge keeps
    its first reception of each broadcast."""
    by_tag: dict[str, list[Advertisement]] = defaultdict(list)
    try:
        for a in ads:
            if a[4] in active:
                by_tag[a[2]].append(a)
    except TypeError:  # a grid cannot be indexed
        if Grid in set(map(type, ads)):
            raise ValueError(_MIXED_STREAM) from None
        raise
    for tag, tag_ads in by_tag.items():
        tag_ads.sort(key=itemgetter(0))
        lanes: dict[str, tuple[list[float], list[float]]] = {}
        for ts, w, _, rssi, _ in tag_ads:
            lane = lanes.get(w)
            if lane is None:
                lanes[w] = ([rssi], [ts])
            elif lane[1][-1] != ts:  # a repeat of one broadcast: the first reception wins
                lane[0].append(rssi)
                lane[1].append(ts)
        yield tag, list(map(itemgetter(0), tag_ads)), lanes


def _grid_lanes(grids: Iterable[Grid], active: frozenset[Activity]) -> Iterator[_Lanes]:
    """The lanes of the active grids, given in any order. A tag's instants
    are its grids' instants in the order given, stably sorted, as the
    records' sort would give them: the grid's ``Instants`` object itself
    when the tag has one active grid, so that tags on one object share it.
    Each badge's readings are strided slices of its grids in time order.
    Grids of one tag that share a badge must not overlap in time."""
    by_tag: dict[str, list[Grid]] = defaultdict(list)
    for g in grids:
        if type(g) is not Grid:
            raise ValueError(_MIXED_STREAM)
        by_tag[g.tag].append(g)
    for tag, tag_grids in by_tag.items():
        # each badge's (grid, column) in time order, whatever the activity
        by_badge: dict[str, list[tuple[Grid, int]]] = defaultdict(list)
        for g in sorted(tag_grids, key=lambda g: g.instants[0]):
            for j, w in enumerate(g.wearables):
                by_badge[w].append((g, j))
        lanes: dict[str, tuple[list[float], list[float]]] = {}
        for w, own in by_badge.items():
            for (a, _), (b, _) in zip(own, own[1:]):
                if a.instants[-1] >= b.instants[0]:
                    raise ValueError(
                        f"grids of tag {tag!r} heard by {w!r} overlap in time: "
                        f"[{a.instants[0]}, {a.instants[-1]}] and [{b.instants[0]}, {b.instants[-1]}]"
                    )
            rssi, ts = lanes[w] = [], []
            for g, j in own:
                if g.activity in active:
                    rssi += g.rssi[j::len(g.wearables)]
                    ts += g.instants
        own = [g.instants for g in tag_grids if g.activity in active]
        if len(own) == 1:
            yield tag, own[0], lanes
        elif own:
            yield tag, sorted(chain.from_iterable(own)), lanes


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
    ``Grid``s, as ``simulator.generate`` returns them, never both; one
    tag's grids that share a badge must not overlap in time. Either kind
    becomes per-tag lanes: the tag's active instants in time order, and
    each badge's (rssi, ts) readings in time order. Records are stably
    sorted by ``ts``; a grid's readings are strided slices, which gives
    the lanes of the records it holds. The first item decides which lane
    builder runs, and each builder rejects an item of the other kind in
    its own pass. One cut serves both: the gap splits a tag's instants
    into sessions, each badge's readings are cut at the session stops, and
    one ``ekf.run_windows`` call per badge folds each session that badge
    heard into a fresh filter. A tag whose one active grid holds the same
    ``Instants`` object as the tag before it, as the consecutive tools of
    one schedule do, takes that tag's session starts and stops instead of
    cutting them again; either way a window is a pair of the instants'
    float objects. A badge's reports are built from C-level iterators by
    ``tuple.__new__``: their ids and windows come checked from the records
    or grids, and a non-finite estimate, the one value that can break a
    report's rules, sends the badge's reports through the
    ``DistanceReport`` constructor, which raises its error.
    """
    if not (math.isfinite(gap) and gap > 0):
        raise ValueError(f"session gap must be finite and positive, got {gap}")
    if params is None:
        params = EkfParams()
    ads = list(ads)
    tags = _grid_lanes(ads, active) if ads and type(ads[0]) is Grid else _record_lanes(ads, active)
    new = tuple.__new__
    reports = []
    cut = None  # the instants last cut into ``starts`` and ``stops``
    for tag, instants, lanes in tags:
        if instants is not cut:
            # a session ends before a pause longer than ``gap``
            cut = instants
            ends = [k for k, t0, t1 in zip(count(1), instants, instants[1:]) if t1 - t0 > gap]
            starts = [instants[k] for k in (0, *ends)]
            ends.append(len(instants))
            stops = [instants[k - 1] for k in ends]
        for w, (rssi, ts) in lanes.items():
            # each session's end in the badge's readings; it heard the
            # sessions whose end passes the one before, each a window of the lane
            cuts = list(map(bisect_right, repeat(ts), stops))
            heard = list(map(lt, [0, *cuts], cuts))
            windows = list(compress(cuts, heard))
            xs = list(map(itemgetter(0), ekf.run_windows(rssi, ts, windows, params)))
            rows = zip(repeat(w), repeat(tag), compress(starts, heard), compress(stops, heard), xs,
                       map(sub, windows, [0, *windows]))
            reports += map(new, repeat(DistanceReport), rows) if all(map(math.isfinite, xs)) \
                else starmap(DistanceReport, rows)
    reports.sort(key=itemgetter(2, 3, 1, 0))  # (start, stop, tag, wearable)
    return reports
