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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .edge import DistanceReport

__all__ = [
    "EVENT_WINDOW_S",
    "EvalReport",
    "MatchProblem",
    "MatchResult",
    "SURE_MARGIN_M",
    "TagSession",
    "Trust",
    "TruthRecord",
    "brute_force_solve",
    "evaluate",
    "solve",
    "trust_classify",
]

#: Session starts within this window of an event's first start are treated as
#: simultaneous; one broadcast interval absorbs reception jitter.
EVENT_WINDOW_S = 7.0

#: A distance lead below this is within the estimator's own error, so the
#: assignment is flagged rather than trusted.
SURE_MARGIN_M = 0.75

_BRUTE_FORCE_LIMIT = 6


class Trust(Enum):
    SURE = "sure"
    UNSURE = "unsure"


@dataclass(frozen=True)
class TagSession:
    """One active period of a tag with every badge's reported distance."""

    tag: str
    start: float
    stop: float
    distances: dict[str, float]


@dataclass(frozen=True)
class MatchResult:
    """Assignment decision for one session; ``wearable`` is None when no badge was free."""

    tag: str
    start: float
    stop: float
    wearable: str | None
    trust: Trust
    margin: float


@dataclass(frozen=True)
class TruthRecord:
    """Ground truth: who actually operated ``tag`` during [start, stop]."""

    tag: str
    start: float
    stop: float
    wearable: str


@dataclass(frozen=True)
class MatchProblem:
    """All reported sessions for one matching run."""

    wearables: tuple[str, ...]
    sessions: tuple[TagSession, ...]

    @classmethod
    def from_reports(cls, reports: Iterable[DistanceReport]) -> MatchProblem:
        """Group distance reports by session; a badge absent from a session
        simply has no distance there and is never a candidate for it."""
        by_session: dict[tuple[str, float, float], dict[str, float]] = {}
        for r in reports:
            key = (r.tag, r.start, r.stop)
            dists = by_session.setdefault(key, {})
            if r.wearable in dists:
                raise ValueError(
                    f"duplicate report for wearable {r.wearable!r} in session "
                    f"{r.tag!r}@[{r.start}, {r.stop}]"
                )
            if not (math.isfinite(r.distance) and r.distance >= 0):
                raise ValueError(f"report distance must be finite and nonnegative, got {r.distance}")
            dists[r.wearable] = r.distance
        sessions = tuple(
            TagSession(tag=tag, start=start, stop=stop, distances=dists)
            for (tag, start, stop), dists in sorted(by_session.items(), key=lambda kv: (kv[0][1], kv[0][2], kv[0][0]))
        )
        wearables = tuple(sorted({w for s in sessions for w in s.distances}))
        return cls(wearables=wearables, sessions=sessions)


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
    dead tie, stays unsure.
    """
    margin = math.inf
    for d in other_distances:
        if math.isfinite(d):
            margin = min(margin, abs(assigned_distance - d))
    trust = Trust.SURE if margin > threshold else Trust.UNSURE
    return trust, margin


def _min_cost_assignment(costs: Sequence[dict[int, int]], n_cols: int) -> list[int]:
    """Minimum-cost assignment of every row to its own column.

    ``costs[i]`` maps each column row ``i`` may take to an integer cost; an
    absent column is forbidden. Each row must reach at least one column that
    no other row can take, so a full assignment always exists. This is the
    shortest augmenting path method of Crouse (2016), "On implementing 2D
    rectangular assignment algorithms": rows are added one at a time, each by
    a Dijkstra search over reduced costs from the current dual potentials.
    Integer costs keep every comparison exact.
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
    return col_of


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
    return [free[j] if j < m else None for j in _min_cost_assignment(costs, m + n)]


def _enumerate_assignment(
    group: Sequence[TagSession], free: Sequence[str]
) -> list[str | None]:
    """Reference assigner: literally try every injective assignment.

    Exponential and deliberately unclever; guarded to small events. Distance
    sums are exact fractions, so equal sums tie and the first assignment in
    candidate order wins. Kept as an independent cross-check of
    ``_assign_event``.
    """
    if len(group) > _BRUTE_FORCE_LIMIT or len(free) > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force capped at {_BRUTE_FORCE_LIMIT} sessions/badges per event, "
            f"got {len(group)} sessions x {len(free)} badges"
        )
    pool: list[str | None] = list(free) + [None] * len(group)
    best_count = -1
    best_total: Fraction | float = math.inf
    best: list[str | None] = [None] * len(group)
    for combo in itertools.permutations(pool, len(group)):
        count = 0
        total = Fraction(0)
        valid = True
        for s, w in zip(group, combo):
            if w is None:
                continue
            d = s.distances.get(w)
            if d is None:
                valid = False
                break
            count += 1
            total += Fraction(d)
        if not valid:
            continue
        if count > best_count or (count == best_count and total < best_total):
            best_count, best_total, best = count, total, list(combo)
    return best


def _solve_events(
    problem: MatchProblem,
    threshold: float,
    window: float,
    assigner: Callable[[Sequence[TagSession], Sequence[str]], list[str | None]],
) -> list[MatchResult]:
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"sure margin must be finite and nonnegative, got {threshold}")
    if not (math.isfinite(window) and window >= 0):
        raise ValueError(f"event window must be finite and nonnegative, got {window}")
    sessions = sorted(problem.sessions, key=lambda s: (s.start, s.stop, s.tag))
    results: list[MatchResult] = []
    busy: list[tuple[str, float]] = []  # (wearable, bound until stop, exclusive)

    i = 0
    while i < len(sessions):
        j = i + 1
        while j < len(sessions) and sessions[j].start - sessions[i].start <= window:
            j += 1
        group = sessions[i:j]
        t0 = group[0].start
        busy = [(w, stop) for w, stop in busy if stop > t0]
        occupied = {w for w, _ in busy}
        free = [w for w in problem.wearables if w not in occupied]
        assignment = assigner(group, free)
        for s, w in zip(group, assignment):
            if w is None:
                results.append(
                    MatchResult(tag=s.tag, start=s.start, stop=s.stop, wearable=None,
                                trust=Trust.UNSURE, margin=0.0)
                )
                continue
            others = [d for k, d in s.distances.items() if k != w]
            trust, margin = trust_classify(s.distances[w], others, threshold)
            results.append(
                MatchResult(tag=s.tag, start=s.start, stop=s.stop, wearable=w,
                            trust=trust, margin=margin)
            )
            busy.append((w, s.stop))
        i = j
    return results


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
    return _solve_events(problem, threshold, window, _assign_event)


def brute_force_solve(
    problem: MatchProblem,
    *,
    threshold: float = SURE_MARGIN_M,
    window: float = EVENT_WINDOW_S,
) -> list[MatchResult]:
    """Reference solver for cross-checking ``solve`` on small problems."""
    return _solve_events(problem, threshold, window, _enumerate_assignment)


@dataclass(frozen=True)
class EvalReport:
    """Confusion counts of assignments split by trust, with exact metrics.

    Accuracy is the share of sessions assigned to the true operator; recall
    the share of correct assignments that were also sure; precision the share
    of sure assignments that were correct. Ratios are exact fractions, the
    derived metrics are None when their denominator is zero.
    """

    correct_sure: int
    correct_unsure: int
    wrong_sure: int
    wrong_unsure: int

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
        return Fraction(self.correct, self.total) if self.total else None

    @property
    def recall(self) -> Fraction | None:
        return Fraction(self.correct_sure, self.correct) if self.correct else None

    @property
    def precision(self) -> Fraction | None:
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


def _overlap(a_start: float, a_stop: float, b_start: float, b_stop: float) -> float:
    return min(a_stop, b_stop) - max(a_start, b_start)


def evaluate(results: Iterable[MatchResult], truth: Iterable[TruthRecord]) -> EvalReport:
    """Score match results against ground truth sessions.

    Each result joins to the same-tag truth record with the largest window
    overlap (touching intervals count); a result whose tag has no overlapping
    truth record is an error, since scoring it would silently misalign the
    two session sets. An unassigned result counts as wrong.
    """
    truth_by_tag: dict[str, list[TruthRecord]] = {}
    for t in truth:
        truth_by_tag.setdefault(t.tag, []).append(t)

    counts = {(True, Trust.SURE): 0, (True, Trust.UNSURE): 0,
              (False, Trust.SURE): 0, (False, Trust.UNSURE): 0}
    for r in results:
        candidates = [
            t for t in truth_by_tag.get(r.tag, ())
            if _overlap(r.start, r.stop, t.start, t.stop) >= 0
        ]
        if not candidates:
            raise ValueError(
                f"no ground-truth session overlaps result {r.tag!r}@[{r.start}, {r.stop}]"
            )
        best = max(
            candidates,
            key=lambda t: (_overlap(r.start, r.stop, t.start, t.stop), -t.start),
        )
        correct = r.wearable == best.wearable
        counts[(correct, r.trust)] += 1
    return EvalReport(
        correct_sure=counts[(True, Trust.SURE)],
        correct_unsure=counts[(True, Trust.UNSURE)],
        wrong_sure=counts[(False, Trust.SURE)],
        wrong_unsure=counts[(False, Trust.UNSURE)],
    )
