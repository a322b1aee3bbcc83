"""Reference implementations that the tests compare the program against.

Each one restates a stage as plainly as it can and shares no code path with
the implementation it checks, so that a fault in either shows up as a
disagreement. The certificate checker is different: it proves an answer of
the production solver optimal without solving anything itself.
"""

import itertools
import math
from contextlib import contextmanager
from fractions import Fraction

from proxmatch import matcher
from proxmatch.matcher import EVENT_WINDOW_S, SURE_MARGIN_M, EvalReport, MatchResult, Trust

#: The exhaustive assigner tries every injective assignment of an event, so
#: it refuses events with more sessions or more free badges than this.
BRUTE_FORCE_LIMIT = 6


def enumerate_assignment(group, free):
    """Literally try every injective assignment of ``free`` badges (or none)
    to the sessions of ``group``.

    The most sessions covered wins, then the smallest summed distance. Sums
    are exact fractions, so equal sums tie, and the first assignment in
    candidate order wins: session by session, badges in ``free`` order,
    unassigned last.
    """
    if len(group) > BRUTE_FORCE_LIMIT or len(free) > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force capped at {BRUTE_FORCE_LIMIT} sessions/badges per event, "
            f"got {len(group)} sessions x {len(free)} badges"
        )
    pool = list(free) + [None] * len(group)
    best_count = -1
    best_total = math.inf
    best = [None] * len(group)
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


def brute_force_solve(problem):
    """``solve`` at its default margin and window, restated with its own
    plain event loop and the exhaustive assigner, for small problems.

    The rules, read from the problem's activation order:
    - an event is every session that starts within ``EVENT_WINDOW_S`` of the
      first start not yet handled;
    - a badge is free for an event when every session it was given stops
      at or before the event's first start;
    - the margin is the smallest absolute gap between the given badge's
      distance and any other badge's (infinite when none reported), and the
      match is sure only when it exceeds ``SURE_MARGIN_M``; a session without a
      badge is unsure with margin 0.
    """
    results = []
    pending = list(problem.sessions)
    while pending:
        t0 = pending[0].start
        group = [s for s in pending if s.start - t0 <= EVENT_WINDOW_S]
        pending = pending[len(group):]
        free = [w for w in problem.wearables
                if all(r.stop <= t0 for r in results if r.wearable == w)]
        for s, w in zip(group, enumerate_assignment(group, free)):
            if w is None:
                results.append(MatchResult(s.tag, s.start, s.stop, None, Trust.UNSURE, 0.0))
                continue
            mine = s.distances[w]
            margin = min((abs(mine - d) for k, d in s.distances.items() if k != w), default=math.inf)
            trust = Trust.SURE if margin > SURE_MARGIN_M else Trust.UNSURE
            results.append(MatchResult(s.tag, s.start, s.stop, w, trust, margin))
    return results


def certified(costs, n_cols, solution):
    """Whether the potentials of ``solution = (col_of, u, v)`` prove that
    ``col_of`` is a minimum-cost assignment of every row of ``costs`` to its
    own column (``costs[i]`` maps each column row ``i`` may take to an integer
    cost; an absent column is forbidden).

    By LP duality it is when ``u[i] + v[j] <= costs[i][j]`` on every allowed
    pair, with equality on each chosen pair, and ``v[j] <= 0`` on every
    column, with ``v[j] == 0`` on every column left unchosen: any assignment
    then costs at least ``sum(u) + sum(v)``, which the chosen one attains.
    """
    col_of, u, v = solution
    if not len(col_of) == len(set(col_of)) == len(u) == len(costs) or len(v) != n_cols:
        return False
    for i, row in enumerate(costs):
        if col_of[i] not in row or u[i] + v[col_of[i]] != row[col_of[i]]:
            return False
        if any(u[i] + v[j] > c for j, c in row.items()):
            return False
    chosen = set(col_of)
    return all(v[j] <= 0 and (v[j] == 0 or j in chosen) for j in range(n_cols))


@contextmanager
def recorded_solves():
    """Record every assignment solve that ``matcher`` runs inside the block,
    as ``(costs, n_cols, (col_of, u, v))``, for ``certified``."""
    calls = []
    original = matcher._min_cost_assignment

    def recording(costs, n_cols):
        solution = original(costs, n_cols)
        calls.append((costs, n_cols, solution))
        return solution

    matcher._min_cost_assignment = recording
    try:
        yield calls
    finally:
        matcher._min_cost_assignment = original


def scan_evaluate(results, truth):
    """The reference join: every same-tag truth record is scanned for each
    result and the largest overlap wins, then the earliest start, then the
    first in input order. ``evaluate`` sweeps sorted truth instead and must
    agree exactly, errors included."""
    truth_by_tag = {}
    for t in truth:
        truth_by_tag.setdefault(t.tag, []).append(t)

    def overlap(r, t):
        return min(r.stop, t.stop) - max(r.start, t.start)

    counts = {(c, trust): 0 for c in (True, False) for trust in Trust}
    for r in results:
        candidates = [t for t in truth_by_tag.get(r.tag, ()) if overlap(r, t) >= 0]
        if not candidates:
            raise ValueError(
                f"no ground-truth session overlaps result {r.tag!r}@[{r.start}, {r.stop}]"
            )
        best = max(candidates, key=lambda t: (overlap(r, t), -t.start))
        counts[(r.wearable == best.wearable, r.trust)] += 1
    return EvalReport(
        correct_sure=counts[(True, Trust.SURE)],
        correct_unsure=counts[(True, Trust.UNSURE)],
        wrong_sure=counts[(False, Trust.SURE)],
        wrong_unsure=counts[(False, Trust.UNSURE)],
    )
