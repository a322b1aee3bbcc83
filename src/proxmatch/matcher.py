"""Server-side matching of asset sessions to operators, and evaluation metrics.

The server sees one distance report per (badge, session) pair and must decide
who operated each asset. Assignment is event-driven: sessions are handled in
activation order, a badge stays bound to its running session, and sessions
starting together are solved jointly by one exact-integer assignment solve,
polynomial in the event size. Each decision also carries a trust label so
downstream consumers can separate confident assignments from coin flips
between nearby workers.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .edge import ADV_INTERVAL_S, DistanceReport, _id, _number, _window

if TYPE_CHECKING:
    # imported where used: fractions costs every command's start-up
    from fractions import Fraction

__all__ = [
    "EVENT_WINDOW_S",
    "EvalReport",
    "MatchProblem",
    "MatchResult",
    "SURE_MARGIN_M",
    "TagSession",
    "Trust",
    "TruthRecord",
    "evaluate",
    "solve",
    "trust_classify",
]

#: Session starts within this window of an event's first start are treated as
#: simultaneous; one broadcast interval absorbs reception jitter.
EVENT_WINDOW_S = ADV_INTERVAL_S

#: A distance lead below this is within the estimator's own error, so the
#: assignment is flagged rather than trusted.
SURE_MARGIN_M = 0.75


class Trust(Enum):
    SURE = "sure"
    UNSURE = "unsure"

    # The identity hash, for ``edge.Activity``'s reason; once per result in ``evaluate``.
    __hash__ = object.__hash__


class TagSession(NamedTuple):
    """One active period of a tag with every badge's reported distance."""

    tag: str
    start: float
    stop: float
    distances: dict[str, float]


class MatchResult(namedtuple("MatchResult", "tag start stop wearable trust margin")):
    """Assignment decision for one session; ``wearable`` is None when no badge
    was free. Construction checks every value; as from ``trust_classify``, a
    SURE result has a wearable and a positive margin.

    A named tuple whose constructor checks, positionally or by keyword, as
    ``DistanceReport``'s does (``wearable`` may be None); ``_make`` and
    ``_replace`` build instances without the checks.
    """

    __slots__ = ()

    def __new__(
        cls, tag: str, start: float, stop: float, wearable: str | None, trust: Trust, margin: float
    ) -> MatchResult:
        if type(tag) is not str:
            _id(tag, "tag")
        start, stop = _window(start, stop)
        if wearable is not None and type(wearable) is not str:
            _id(wearable, "wearable")
        if type(margin) is not float:
            margin = _number(margin, "margin")
        if not margin >= 0:
            raise ValueError(f"margin must be nonnegative, got {margin}")
        if type(trust) is not Trust:
            raise ValueError(f"trust must be a Trust, got {trust!r}")
        if trust is Trust.SURE and (wearable is None or margin <= 0):
            raise ValueError(f"a sure match needs a wearable and a positive margin, got "
                             f"wearable {wearable!r}, margin {margin}")
        return tuple.__new__(cls, (tag, start, stop, wearable, trust, margin))


class TruthRecord(namedtuple("TruthRecord", "tag start stop wearable")):
    """Ground truth: who actually operated ``tag`` during [start, stop].

    A named tuple whose constructor checks, positionally or by keyword, as
    ``DistanceReport``'s does; ``_make`` and ``_replace`` build instances
    without the checks.
    """

    __slots__ = ()

    def __new__(cls, tag: str, start: float, stop: float, wearable: str) -> TruthRecord:
        if type(tag) is not str:
            _id(tag, "tag")
        start, stop = _window(start, stop)
        if type(wearable) is not str:
            _id(wearable, "wearable")
        return tuple.__new__(cls, (tag, start, stop, wearable))


@dataclass(frozen=True)
class MatchProblem:
    """A run's sessions in (start, stop, tag) order and the sorted union of
    their badges; each distance is a finite number (not ``bool``) >= 0."""

    sessions: tuple[TagSession, ...]
    wearables: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        sessions = tuple(sorted(self.sessions, key=itemgetter(1, 2, 0)))
        for tag, start, stop, dists in sessions:
            for w, d in dists.items():
                if type(d) is bool or not (isinstance(d, (int, float)) and 0 <= d < math.inf):
                    raise ValueError(f"distance of wearable {w!r} in session {tag!r}@[{start}, {stop}] "
                                     f"must be a finite number of at least 0, got {d!r}")
        object.__setattr__(self, "sessions", sessions)
        object.__setattr__(self, "wearables", tuple(sorted(set().union(*map(itemgetter(3), sessions)))))

    @classmethod
    def from_reports(cls, reports: Iterable[DistanceReport]) -> MatchProblem:
        """Group distance reports by session; a badge absent from a session
        simply has no distance there and is never a candidate for it."""
        by_session: dict[tuple[str, float, float], dict[str, float]] = {}
        for wearable, tag, start, stop, distance, _ in reports:
            dists = by_session.get((tag, start, stop))
            if dists is None:
                dists = by_session[tag, start, stop] = {}
            elif wearable in dists:
                raise ValueError(
                    f"duplicate report for wearable {wearable!r} in session {tag!r}@[{start}, {stop}]"
                )
            dists[wearable] = distance
        return cls(tuple(TagSession(*key, dists) for key, dists in by_session.items()))


def trust_classify(
    assigned_distance: float,
    other_distances: Iterable[float],
    threshold: float = SURE_MARGIN_M,
) -> tuple[Trust, float]:
    """Margin to the nearest competing estimate and the trust class it earns.

    The margin is the smallest absolute gap between the assigned badge's
    distance and any other badge's distance for the same session, infinite
    when no other badge reported. Sure requires the margin to exceed the
    threshold strictly: a session decided by exactly the threshold, or by a
    dead tie, stays unsure. Distances must be finite, as a ``MatchProblem``'s are.
    """
    margin = min((abs(assigned_distance - d) for d in other_distances), default=math.inf)
    trust = Trust.SURE if margin > threshold else Trust.UNSURE
    return trust, margin


def _min_cost_assignment(
    costs: Sequence[dict[int, int]], n_cols: int
) -> tuple[list[int], list[int], list[int]]:
    """Minimum-cost assignment of every row to its own column.

    ``costs[i]`` maps each column row ``i`` may take to an integer cost; an
    absent column is forbidden. Each row must reach at least one column that
    no other row can take, so a full assignment always exists. This is the
    shortest augmenting path method of Crouse (2016), "On implementing 2D
    rectangular assignment algorithms": rows are added one at a time, each by
    a Dijkstra search over reduced costs from the current dual potentials.
    Integer costs keep every comparison exact.

    Returns ``(col_of, u, v)``: row ``i`` takes column ``col_of[i]``, and
    ``u`` and ``v`` are the final row and column potentials. They certify
    the assignment optimal by LP duality: ``u[i] + v[j] <= costs[i][j]`` on
    every allowed pair, with equality on each chosen pair, and ``v[j] <= 0``
    on every column, with ``v[j] == 0`` on every column left unchosen.
    """
    u = [0] * len(costs)
    v = [0] * n_cols
    col_of = [-1] * len(costs)
    row_of = [-1] * n_cols
    for cur in range(len(costs)):
        reached: dict[int, int] = {}  # column -> tentative path cost
        pred: dict[int, int] = {}
        scanned: dict[int, int] = {}  # column -> final path cost
        lowest = 0
        i = cur
        while True:
            offset = lowest - u[i]
            for j, c in costs[i].items():
                if j not in scanned:
                    r = offset + c - v[j]
                    if r < reached.get(j, math.inf):
                        reached[j] = r
                        pred[j] = i
            sink = min(reached, key=reached.__getitem__)
            lowest = scanned[sink] = reached.pop(sink)
            if row_of[sink] < 0:
                break
            i = row_of[sink]
        u[cur] += lowest
        for j, d in scanned.items():
            v[j] -= lowest - d
            if j != sink:
                u[row_of[j]] += lowest - d
        j = sink
        while True:
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == cur:
                break
    return col_of, u, v


def _assign_event(group: Sequence[TagSession], free: Sequence[str]) -> list[str | None]:
    """Best injective badge assignment for one event, by one assignment solve.

    Maximizes the number of assigned sessions, then minimizes the summed
    distance; among exact ties the first assignment in candidate order wins
    (session by session, badges in ``free`` order, unassigned last), which
    makes ties resolve to the lexicographically smallest badge ids.

    The three keys become one exact integer cost. Distances are scaled to
    integers by the event's largest power-of-two denominator. With ``m`` free
    badges, ``K = m + 1`` and ``T = K**n``, session ``i`` on the badge of rank
    ``r`` costs ``dist * T + r * K**(n-1-i)``, and its own "unassigned" column
    costs ``D + m * K**(n-1-i)`` with ``D`` above any total of assigned
    distances. The rank terms of a whole assignment are the digits of a base-K
    number below ``T``, so the sum orders assignments by coverage, then by
    distance, then by candidate order, and no two assignments cost the same.
    """
    n, m = len(group), len(free)
    ratios = []
    scale = 1
    for s in group:
        row = []
        for r, w in enumerate(free):
            d = s.distances.get(w)
            if d is not None:
                p, q = d.as_integer_ratio()
                row.append((r, p, q))
                if q > scale:
                    scale = q
        ratios.append(row)
    dists = [[(r, p * (scale // q)) for r, p, q in row] for row in ratios]
    k = m + 1
    t = k**n
    unassigned = (sum(d for row in dists for _, d in row) + 1) * t
    costs = []
    for i, row in enumerate(dists):
        weight = k ** (n - 1 - i)
        c = {r: d * t + r * weight for r, d in row}
        c[m + i] = unassigned + m * weight
        costs.append(c)
    col_of, _, _ = _min_cost_assignment(costs, m + n)
    return [free[j] if j < m else None for j in col_of]


def solve(
    problem: MatchProblem,
    *,
    threshold: float = SURE_MARGIN_M,
    window: float = EVENT_WINDOW_S,
) -> list[MatchResult]:
    """Assign an operator to every session, event by event.

    Sessions are processed in activation order. Starts within ``window``
    seconds of an event's first start are solved jointly: one assignment
    solve picks the injective badge assignment that covers the most sessions
    and, among those, has the smallest summed distance. A badge stays bound
    to its session until the session's stop and is free again from that
    instant on. A session left without a free badge that reported on it is
    an outcome, not an error: its result has ``wearable=None``, trust
    UNSURE and margin 0. Raises ValueError unless ``threshold`` and
    ``window`` are finite and nonnegative.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"sure margin must be finite and nonnegative, got {threshold}")
    if not (math.isfinite(window) and window >= 0):
        raise ValueError(f"event window must be finite and nonnegative, got {window}")
    sessions = problem.sessions
    starts = list(map(itemgetter(1), sessions))
    wearables = problem.wearables
    bound = dict.fromkeys(wearables, -math.inf)  # each badge's stop: it is free from then on
    results: list[MatchResult] = []
    i, n = 0, len(sessions)
    while i < n:
        t0 = starts[i]
        j = i + 1
        while j < n and starts[j] - t0 <= window:
            j += 1
        group = sessions[i:j]
        free = [w for w in wearables if not bound[w] > t0]
        for (tag, start, stop, dists), w in zip(group, _assign_event(group, free)):
            if w is None:
                results.append(MatchResult(tag, start, stop, None, Trust.UNSURE, 0.0))
                continue
            trust, margin = trust_classify(dists[w], [d for k, d in dists.items() if k != w], threshold)
            results.append(MatchResult(tag, start, stop, w, trust, margin))
            bound[w] = stop
        i = j
    return results


@dataclass(frozen=True)
class EvalReport:
    """Confusion counts of assignments split by trust, with exact metrics.

    Accuracy is the share of sessions assigned to the true operator; recall
    the share of correct assignments that were also sure; precision the share
    of sure assignments that were correct. Ratios are exact fractions, the
    derived metrics are None when their denominator is zero. Reports add
    count by count, so ``sum(reports, EvalReport(0, 0, 0, 0))`` pools a batch.
    """

    correct_sure: int
    correct_unsure: int
    wrong_sure: int
    wrong_unsure: int

    def __add__(self, other: EvalReport) -> EvalReport:
        if not isinstance(other, EvalReport):
            return NotImplemented
        return EvalReport(
            self.correct_sure + other.correct_sure,
            self.correct_unsure + other.correct_unsure,
            self.wrong_sure + other.wrong_sure,
            self.wrong_unsure + other.wrong_unsure,
        )

    @property
    def total(self) -> int:
        return self.correct_sure + self.correct_unsure + self.wrong_sure + self.wrong_unsure

    @property
    def correct(self) -> int:
        return self.correct_sure + self.correct_unsure

    @property
    def sure_total(self) -> int:
        return self.correct_sure + self.wrong_sure

    @property
    def accuracy(self) -> Fraction | None:
        from fractions import Fraction

        return Fraction(self.correct, self.total) if self.total else None

    @property
    def recall(self) -> Fraction | None:
        from fractions import Fraction

        return Fraction(self.correct_sure, self.correct) if self.correct else None

    @property
    def precision(self) -> Fraction | None:
        from fractions import Fraction

        return Fraction(self.correct_sure, self.sure_total) if self.sure_total else None

    def to_dict(self) -> dict:
        def metric(num: int, den: int) -> dict | None:
            if den == 0:
                return None
            return {"ratio": f"{num}/{den}", "percent": round(100.0 * num / den, 1)}

        return {
            "counts": {
                "correct_sure": self.correct_sure,
                "correct_unsure": self.correct_unsure,
                "wrong_sure": self.wrong_sure,
                "wrong_unsure": self.wrong_unsure,
            },
            "total": self.total,
            "accuracy": metric(self.correct, self.total),
            "recall": metric(self.correct_sure, self.correct),
            "precision": metric(self.correct_sure, self.sure_total),
        }


def evaluate(results: Iterable[MatchResult], truth: Iterable[TruthRecord]) -> EvalReport:
    """Score match results against ground truth sessions.

    Each result joins to the same-tag truth record with the largest window
    overlap (touching intervals count), ties going to the earliest start and
    then to the first record in input order; a result whose tag has no
    overlapping truth record is an error, since scoring it would silently
    misalign the two session sets. An unassigned result counts as wrong.

    Each tag's truth is sorted stably by start once, so a result scans only
    the records that start by its stop and come at or after the first one
    whose stop, or an earlier record's, reaches its start.
    """
    # each tag's (start, stop, wearable), plain tuples that unpack faster
    # than the records' named fields
    truth_by_tag: dict[str, list[tuple[float, float, str]]] = {}
    for tag, start, stop, wearable in truth:
        truth_by_tag.setdefault(tag, []).append((start, stop, wearable))
    index: dict[str, tuple[list[tuple[float, float, str]], list[float], list[float]]] = {}
    for tag, records in truth_by_tag.items():
        records.sort(key=itemgetter(0))
        reach = list(itertools.accumulate((stop for _, stop, _ in records), max))
        index[tag] = (records, [start for start, _, _ in records], reach)

    counts = {(True, Trust.SURE): 0, (True, Trust.UNSURE): 0,
              (False, Trust.SURE): 0, (False, Trust.UNSURE): 0}
    for tag, start, stop, wearable, trust, _ in results:
        records, starts, reach = index.get(tag, ((), (), ()))
        # a record qualifies from overlap 0 (touching), and any start is before inf
        best, best_overlap, best_start = None, 0.0, math.inf
        for t_start, t_stop, t_wearable in records[bisect_left(reach, start):bisect_right(starts, stop)]:
            # min(stop, t_stop) - max(start, t_start), inline
            overlap = (t_stop if t_stop < stop else stop) - (t_start if t_start > start else start)
            if overlap > best_overlap or (overlap == best_overlap and t_start < best_start):
                best, best_overlap, best_start = t_wearable, overlap, t_start
        if best_start == math.inf:
            raise ValueError(
                f"no ground-truth session overlaps result {tag!r}@[{start}, {stop}]"
            )
        counts[wearable == best, trust] += 1
    return EvalReport(
        correct_sure=counts[(True, Trust.SURE)],
        correct_unsure=counts[(True, Trust.UNSURE)],
        wrong_sure=counts[(False, Trust.SURE)],
        wrong_unsure=counts[(False, Trust.UNSURE)],
    )
