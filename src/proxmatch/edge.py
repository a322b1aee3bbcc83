"""Wearable-side processing: one pass per tag that cuts sessions and filters RSSI.

Tags broadcast an activity class with each advertisement; badges that hear a
broadcast feed its RSSI to a per-session filter as it arrives and ship one
compact distance report per session, so the radio link and the server never
see raw RSSI.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from . import ekf
from .ekf import EkfParams

__all__ = [
    "ACTIVE_DEFAULT",
    "Activity",
    "Advertisement",
    "DistanceReport",
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

    @classmethod
    def grid(
        cls,
        instants: Sequence[float],
        wearables: Sequence[str],
        tag: str,
        rssi: Sequence[float],
        activity: Activity,
    ) -> list[Advertisement]:
        """One tag's broadcasts at ``instants``, each heard by every badge in
        ``wearables``: instant-major, ``rssi`` holding one value per (instant,
        badge) in that order. The same records as calling ``cls`` on each.

        A value shared by the records of the grid is the same object in each
        of them, so each instant, id and the activity is checked once, and
        each RSSI value once, under ``__new__``'s rules, in C-level passes.
        When any check fails, the grid is built record by record through
        ``__new__``, which raises its own error for the first bad record or
        normalises an ``int`` to a ``float`` as it does for one record.
        """
        n = len(wearables)
        if len(rssi) != len(instants) * n:
            raise ValueError(f"expected {len(instants)} x {n} rssi values, got {len(rssi)}")
        every_ts = [t for t in instants for _ in range(n)]
        every_wearable = list(wearables) * len(instants)
        if (
            rssi
            and type(tag) is str
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
            return list(map(tuple.__new__, repeat(cls), zip(
                every_ts, every_wearable, repeat(tag), rssi, repeat(activity)
            )))
        return list(map(cls, every_ts, every_wearable, repeat(tag), rssi, repeat(activity)))


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


def run_edge(
    ads: Iterable[Advertisement],
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
    """
    if not (math.isfinite(gap) and gap > 0):
        raise ValueError(f"session gap must be finite and positive, got {gap}")
    if params is None:
        params = EkfParams()
    by_tag: dict[str, list[Advertisement]] = defaultdict(list)
    for a in sorted([a for a in ads if a[4] in active], key=itemgetter(0)):
        by_tag[a[2]].append(a)
    reports = []

    def close(tag: str, start: float, stop: float, heard: dict) -> None:
        for w, (rssi, ts) in heard.items():
            x = ekf.run_filter(rssi, ts, params).x
            reports.append(DistanceReport(w, tag, start, stop, x, len(ts)))

    for tag, tag_ads in by_tag.items():
        # One sweep over the tag's time-sorted broadcasts: each badge's
        # readings are collected and folded by one run_filter call, and the
        # reports emitted, when a pause longer than ``gap`` closes the session.
        start = stop = tag_ads[0][0]
        heard: dict[str, tuple[list[float], list[float]]] = {}
        for ts, w, _, rssi, _ in tag_ads:
            if ts - stop > gap:
                close(tag, start, stop, heard)
                start, heard = ts, {}
            stop = ts
            obs = heard.get(w)
            if obs is None:
                heard[w] = ([rssi], [ts])
            elif obs[1][-1] != ts:  # a repeat of one broadcast: the first reception wins
                obs[0].append(rssi)
                obs[1].append(ts)
        close(tag, start, stop, heard)
    reports.sort(key=lambda r: (r.start, r.stop, r.tag, r.wearable))
    return reports
