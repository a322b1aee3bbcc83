import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxmatch.edge import Activity, DistanceReport
from proxmatch.matcher import (
    EVENT_WINDOW_S,
    EvalReport,
    MatchProblem,
    MatchResult,
    TagSession,
    Trust,
    TruthRecord,
    _assign_event,
    evaluate,
    solve,
    trust_classify,
)
from reference_chain import brute_force_solve, certified, recorded_solves, scan_evaluate


def report(wearable, tag, start, stop, distance, n_obs=10):
    return DistanceReport(
        wearable=wearable, tag=tag, start=start, stop=stop, distance=distance, n_obs=n_obs
    )


def problem(*rows):
    """rows: (wearable, tag, start, stop, distance)"""
    return MatchProblem.from_reports([report(*row) for row in rows])


class TestTrust:
    def test_clear_lead_is_sure(self):
        assert trust_classify(1.0, [2.0, 5.0]) == (Trust.SURE, 1.0)

    def test_exactly_the_threshold_is_not_sure(self):
        trust, margin = trust_classify(1.0, [1.75])
        assert margin == 0.75
        assert trust is Trust.UNSURE

    def test_dead_tie_is_unsure_with_zero_margin(self):
        assert trust_classify(2.0, [2.0, 9.0]) == (Trust.UNSURE, 0.0)

    def test_no_competitor_is_sure_with_infinite_margin(self):
        trust, margin = trust_classify(1.0, [])
        assert trust is Trust.SURE and margin == math.inf

    def test_custom_threshold(self):
        assert trust_classify(1.0, [2.0], threshold=1.5)[0] is Trust.UNSURE

    def test_trust_and_activity_hash_by_identity(self):
        """Both enums trade Enum's hash, computed in Python, for the
        identity hash, which agrees with their identity equality."""
        for member in (*Trust, *Activity):
            assert hash(member) == object.__hash__(member)

    @pytest.mark.parametrize("label", ["sure", "unsure", None, True])
    def test_a_match_takes_only_a_trust_label(self, label):
        """A string label would skip the SURE rule and reach ``evaluate``
        as a key it cannot score."""
        with pytest.raises(ValueError, match="trust must be a Trust"):
            MatchResult("T1", 0.0, 7.0, None, label, 0.0)


class TestFromReports:
    def test_grouping(self):
        p = problem(
            ("W2", "T1", 0.0, 90.0, 2.0),
            ("W1", "T1", 0.0, 90.0, 1.0),
            ("W1", "T2", 100.0, 190.0, 0.4),
        )
        assert p.wearables == ("W1", "W2")
        assert [s.tag for s in p.sessions] == ["T1", "T2"]
        assert p.sessions[0].distances == {"W1": 1.0, "W2": 2.0}

    def test_sessions_come_in_activation_order(self):
        """By start, then stop, then tag, whatever the report order; a
        session that starts later but stops earlier still comes later."""
        p = problem(
            ("W1", "T3", 10.0, 50.0, 1.0),
            ("W1", "T2", 0.0, 100.0, 1.0),
            ("W2", "T1", 10.0, 50.0, 1.0),
            ("W2", "T4", 10.0, 40.0, 1.0),
        )
        assert [(s.tag, s.start, s.stop) for s in p.sessions] == [
            ("T2", 0.0, 100.0), ("T4", 10.0, 40.0), ("T1", 10.0, 50.0), ("T3", 10.0, 50.0)]
        assert all(type(s) is TagSession for s in p.sessions)

    def test_duplicate_report_is_an_error(self):
        with pytest.raises(ValueError):
            problem(("W1", "T1", 0.0, 90.0, 1.0), ("W1", "T1", 0.0, 90.0, 2.0))

    def test_nonfinite_distance_is_an_error(self):
        with pytest.raises(ValueError):
            problem(("W1", "T1", 0.0, 90.0, math.inf))


class TestMatchProblem:
    def test_badges_are_the_union_of_the_sessions_badges(self):
        """No badge list to leave one out of: W2, the nearer, wins and is
        W1's competitor, not the other way round."""
        p = MatchProblem((TagSession("T1", 0.0, 7.0, {"W1": 5.0, "W2": 0.1}),))
        assert p.wearables == ("W1", "W2")
        assert solve(p) == [MatchResult("T1", 0.0, 7.0, "W2", Trust.SURE, 4.9)]

    def test_a_tie_goes_to_the_smallest_badge_id(self):
        p = MatchProblem((TagSession("T1", 0.0, 7.0, {"W2": 1.0, "W1": 1.0}),))
        assert p.wearables == ("W1", "W2")
        assert solve(p) == [MatchResult("T1", 0.0, 7.0, "W1", Trust.UNSURE, 0.0)]

    def test_sessions_are_kept_in_activation_order(self):
        given = (
            TagSession("T3", 10.0, 50.0, {"W1": 1.0}),
            TagSession("T2", 0.0, 100.0, {"W1": 1.0}),
            TagSession("T1", 10.0, 50.0, {"W2": 1.0}),
            TagSession("T4", 10.0, 40.0, {"W2": 1.0}),
        )
        p = MatchProblem(given)
        assert [s.tag for s in p.sessions] == ["T2", "T4", "T1", "T3"]
        assert p == MatchProblem(given[::-1]) == MatchProblem(list(given))
        assert type(p.sessions) is tuple

    def test_an_int_distance_is_a_number(self):
        p = MatchProblem((TagSession("T1", 0.0, 7.0, {"W1": 1, "W2": 3}),))
        assert solve(p) == [MatchResult("T1", 0.0, 7.0, "W1", Trust.SURE, 2.0)]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0, True, "1", None])
    def test_a_bad_distance_is_rejected_naming_badge_and_session(self, bad):
        """Before, an infinite or NaN distance crashed the solve when its badge
        was free and was skipped by the margin when it was busy, and -1.0 won."""
        sessions = (TagSession("T0", 0.0, 100.0, {"W1": 1.0}),
                    TagSession("T1", 0.0, 7.0, {"W1": 1.0, "W2": bad}))
        with pytest.raises(ValueError, match=r"^distance of wearable 'W2' in session 'T1'@\[0\.0, 7\.0\] "
                                             r"must be a finite number of at least 0, got "):
            MatchProblem(sessions)


class TestSolve:
    def test_nearest_free_badge_wins(self):
        res = solve(problem(("W1", "T1", 0.0, 90.0, 1.2), ("W2", "T1", 0.0, 90.0, 3.0)))
        assert res == [
            MatchResult(tag="T1", start=0.0, stop=90.0, wearable="W1",
                        trust=Trust.SURE, margin=1.8)
        ]

    def test_simultaneous_sessions_are_solved_jointly(self):
        """A per-session greedy would hand T1 to W1 (1.0 < 1.2) and leave T2
        with W2 at 9.0; the joint optimum swaps them (total 2.3 vs 10.0)."""
        res = solve(problem(
            ("W1", "T1", 0.0, 90.0, 1.0),
            ("W2", "T1", 0.0, 90.0, 1.2),
            ("W1", "T2", 0.0, 90.0, 1.1),
            ("W2", "T2", 0.0, 90.0, 9.0),
        ))
        by_tag = {r.tag: r for r in res}
        assert by_tag["T1"].wearable == "W2"
        assert by_tag["T2"].wearable == "W1"
        assert by_tag["T1"].margin == pytest.approx(0.2)
        assert by_tag["T2"].margin == pytest.approx(7.9)

    def test_starts_beyond_the_window_are_separate_events(self):
        # Same distances as above, but T2 starts 8 s later: T1 is decided
        # alone (W1), so T2 can only take W2.
        res = solve(problem(
            ("W1", "T1", 0.0, 90.0, 1.0),
            ("W2", "T1", 0.0, 90.0, 1.2),
            ("W1", "T2", 8.0, 90.0, 1.1),
            ("W2", "T2", 8.0, 90.0, 9.0),
        ))
        by_tag = {r.tag: r for r in res}
        assert by_tag["T1"].wearable == "W1"
        assert by_tag["T2"].wearable == "W2"

    def test_window_is_anchored_to_the_first_start(self):
        # Starts at 0, 6, 12: 6 is within 7 s of 0, but 12 is not, so the
        # first two form one event even though 12 - 6 < 7.
        res = solve(problem(
            ("W1", "TA", 0.0, 90.0, 1.0),
            ("W2", "TA", 0.0, 90.0, 5.0),
            ("W1", "TB", 6.0, 90.0, 2.0),
            ("W2", "TB", 6.0, 90.0, 5.0),
            ("W3", "TC", 12.0, 90.0, 1.0),
        ))
        assert [r.wearable for r in res] == ["W1", "W2", "W3"]

    def test_running_session_keeps_its_badge(self):
        # W1 is bound to T1 until 100; T2 starting at 50 must take W2 even
        # though W1 looks closer.
        res = solve(problem(
            ("W1", "T1", 0.0, 100.0, 1.0),
            ("W1", "T2", 50.0, 90.0, 0.5),
            ("W2", "T2", 50.0, 90.0, 2.0),
        ))
        by_tag = {r.tag: r for r in res}
        assert by_tag["T1"].wearable == "W1"
        assert by_tag["T2"].wearable == "W2"

    def test_badge_is_free_again_at_the_stop_instant(self):
        res = solve(problem(
            ("W1", "T1", 0.0, 100.0, 1.0),
            ("W1", "T2", 100.0, 200.0, 0.5),
            ("W2", "T2", 100.0, 200.0, 2.0),
        ))
        assert {r.tag: r.wearable for r in res} == {"T1": "W1", "T2": "W1"}

    def test_margin_counts_busy_badges_too(self):
        # W2 wins T2 only because W1 is busy, but W1's 1.0 m estimate still
        # caps the margin: the decision is not confidently W2's.
        res = solve(problem(
            ("W1", "T1", 0.0, 100.0, 1.0),
            ("W1", "T2", 50.0, 90.0, 1.0),
            ("W2", "T2", 50.0, 90.0, 1.1),
        ))
        t2 = [r for r in res if r.tag == "T2"][0]
        assert t2.wearable == "W2"
        assert t2.margin == pytest.approx(0.1)
        assert t2.trust is Trust.UNSURE

    def test_exact_tie_goes_to_the_smaller_id_and_is_unsure(self):
        res = solve(problem(("W2", "T1", 0.0, 90.0, 2.0), ("W1", "T1", 0.0, 90.0, 2.0)))
        assert res[0].wearable == "W1"
        assert res[0].margin == 0.0
        assert res[0].trust is Trust.UNSURE

    def test_exactly_equal_sums_that_round_apart_tie(self):
        # W1,W2,W3 and W3,W2,W1 both sum to exactly 0.1 + 0.2 + 0.3, but as
        # floats in session order the first gives 0.6000000000000001 and the
        # second 0.6. Exact sums tie, so the first in candidate order wins.
        rows = [(w, t, 0.0, 90.0, 5.0) for w in ("W1", "W2", "W3") for t in ("T1", "T2", "T3")]
        near = {("W1", "T1"): 0.1, ("W2", "T2"): 0.2, ("W3", "T3"): 0.3,
                ("W3", "T1"): 0.3, ("W1", "T3"): 0.1}
        prob = problem(*[(w, t, a, b, near.get((w, t), d)) for w, t, a, b, d in rows])
        expected = ["W1", "W2", "W3"]
        assert [r.wearable for r in solve(prob)] == expected
        assert [r.wearable for r in brute_force_solve(prob)] == expected

    def test_more_sessions_than_badges_leaves_one_unassigned(self):
        res = solve(problem(
            ("W1", "T1", 0.0, 90.0, 1.0),
            ("W1", "T2", 0.0, 90.0, 2.0),
        ))
        by_tag = {r.tag: r for r in res}
        assert by_tag["T1"].wearable == "W1"  # smaller total distance
        assert by_tag["T2"].wearable is None
        assert by_tag["T2"].trust is Trust.UNSURE
        assert by_tag["T2"].margin == 0.0

    def test_a_badge_without_a_report_is_never_assigned(self):
        # W2 exists in the problem but never reported on T2.
        res = solve(problem(
            ("W1", "T1", 0.0, 100.0, 1.0),
            ("W2", "T1", 0.0, 100.0, 3.0),
            ("W1", "T2", 50.0, 90.0, 0.5),
        ))
        t2 = [r for r in res if r.tag == "T2"][0]
        assert t2.wearable is None
        assert t2.trust is Trust.UNSURE and t2.margin == 0.0

    def test_assignment_maximizes_coverage_before_distance(self):
        # Assigning W1 to T1 (cheapest single pair) would strand T2; covering
        # both sessions costs more in summed distance but wins.
        res = solve(problem(
            ("W1", "T1", 0.0, 90.0, 0.1),
            ("W2", "T1", 0.0, 90.0, 0.2),
            ("W1", "T2", 0.0, 90.0, 5.0),
        ))
        assert {r.tag: r.wearable for r in res} == {"T1": "W2", "T2": "W1"}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_margin_and_window_must_be_finite_and_nonnegative(self, bad):
        prob = problem(("W1", "T1", 0.0, 90.0, 1.0), ("W2", "T1", 0.0, 90.0, 5.0))
        with pytest.raises(ValueError, match="margin"):
            solve(prob, threshold=bad)
        with pytest.raises(ValueError, match="window"):
            solve(prob, window=bad)

    def test_thirty_session_event_is_full_and_no_swap_improves_it(self):
        """Past the enumeration oracle's reach: a 30 x 30 co-starting event
        gets an injective full assignment whose solve is certified optimal,
        so no exchange of two sessions' badges, nor any other, improves it."""
        rng = np.random.default_rng(30)
        rows = []
        for t in range(30):
            start = float(rng.uniform(0.0, EVENT_WINDOW_S))
            for w in range(30):
                rows.append((f"W{w:02d}", f"T{t:02d}", start, 600.0, float(rng.uniform(0.1, 10.0))))
        prob = problem(*rows)
        with recorded_solves() as solves:
            res = solve(prob)
        chosen = {r.tag: r.wearable for r in res}
        assert len(res) == 30 and None not in chosen.values()
        assert len(set(chosen.values())) == 30
        assert len(solves) == 1 and certified(*solves[0])

    def test_a_twelve_session_tie_goes_in_candidate_order(self):
        """Past the enumeration oracle's reach: when every distance of a 12 x
        12 co-starting event is equal, the certified solve hands each session
        the badge of its own rank, and every match is a dead tie."""
        ids = [f"{k:02d}" for k in range(1, 13)]
        prob = problem(*[(f"W{w}", f"T{t}", 0.0, 600.0, 2.5) for t in ids for w in ids])
        with recorded_solves() as solves:
            res = solve(prob)
        assert res == [MatchResult(f"T{k}", 0.0, 600.0, f"W{k}", Trust.UNSURE, 0.0) for k in ids]
        assert len(solves) == 1 and certified(*solves[0])


#: Session starts spread this far past their batch's start.
_START_SPREAD_S = 10.0
#: Smallest gap between batch starts. Two gaps span more than one event
#: window plus the start spread, so no event holds sessions of three batches:
#: an event has at most 2 x 3 sessions, within the brute-force cap.
_MIN_BATCH_GAP_S = (EVENT_WINDOW_S + _START_SPREAD_S) / 2 + 0.5


def _draw_distance(rng, mode):
    if mode == "ties":
        return float(rng.integers(1, 4))
    if mode == "floor":
        return 0.01 if rng.random() < 0.3 else 0.1 * int(rng.integers(1, 10))
    return float(rng.uniform(0.1, 10.0))


def random_problem(rng, mode="uniform"):
    """Small random instance: a few badges, overlapping session batches.

    Adjacent batches may fall into one event; three never do. Distances are
    uniform in [0.1, 10) m by default. With ``mode="ties"`` every distance is
    1, 2 or 3 m, so exactly tied assignments are common. With ``mode="floor"``
    they mix the 0.01 m filter floor with multiples of 0.1 m, whose exactly
    equal sums can round apart as floats.
    """
    n_wear = int(rng.integers(1, 5))
    wearables = [f"W{i+1}" for i in range(n_wear)]
    reports = []
    t = 0.0
    for _ in range(int(rng.integers(1, 5))):  # event batches
        n_tags = int(rng.integers(1, 4))
        batch_start = t
        for j in range(n_tags):
            tag = f"T{len(reports)}_{j}"
            start = batch_start + float(rng.uniform(0.0, _START_SPREAD_S))
            stop = start + float(rng.uniform(5.0, 120.0))
            for w in wearables:
                if rng.random() < 0.8:
                    reports.append(report(w, tag, start, stop, _draw_distance(rng, mode)))
        t = batch_start + float(rng.uniform(_MIN_BATCH_GAP_S, 150.0))
    return MatchProblem.from_reports(reports)


class TestInvariants:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_exclusivity_and_continuity(self, seed):
        prob = random_problem(np.random.default_rng(seed))
        res = solve(prob)
        assert len(res) == len(prob.sessions)
        by_wearable = {}
        for r in res:
            if r.wearable is None:
                continue
            by_wearable.setdefault(r.wearable, []).append(r)
        for rs in by_wearable.values():
            rs.sort(key=lambda r: r.start)
            for a, b in zip(rs, rs[1:]):
                assert b.start >= a.stop, "badge reassigned before its session stopped"

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        mode=st.sampled_from(["uniform", "ties", "floor"]),
    )
    def test_search_agrees_with_exhaustive_enumeration(self, seed, mode):
        prob = random_problem(np.random.default_rng(seed), mode)
        assert solve(prob) == brute_force_solve(prob)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        mode=st.sampled_from(["uniform", "ties", "floor"]),
    )
    def test_the_order_sessions_are_given_in_changes_nothing(self, seed, mode):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, mode)
        shuffled = MatchProblem(tuple(prob.sessions[i] for i in rng.permutation(len(prob.sessions))))
        assert shuffled == prob
        assert solve(shuffled) == solve(prob) == brute_force_solve(shuffled)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.floats(min_value=0.05, max_value=50.0),
    )
    def test_scaling_all_distances_changes_nothing_but_margins(self, seed, scale):
        prob = random_problem(np.random.default_rng(seed))
        scaled = MatchProblem(
            sessions=tuple(
                TagSession(
                    tag=s.tag, start=s.start, stop=s.stop,
                    distances={w: d * scale for w, d in s.distances.items()},
                )
                for s in prob.sessions
            ),
        )
        base = solve(prob, threshold=0.75)
        got = solve(scaled, threshold=0.75 * scale)
        assert [r.wearable for r in got] == [r.wearable for r in base]
        for a, b in zip(base, got):
            if math.isfinite(a.margin):
                assert b.margin == pytest.approx(a.margin * scale, rel=1e-9)
            assert a.trust is b.trust

    def test_brute_force_is_capped(self):
        rows = [(f"W{i}", f"T{j}", 0.0, 50.0, float(1 + i + j)) for i in range(7) for j in range(7)]
        with pytest.raises(ValueError, match="capped"):
            brute_force_solve(problem(*rows))


class TestCertificate:
    """Each assignment solve returns dual potentials that prove its answer
    optimal; ``reference_chain.certified`` checks them exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=64),
        m=st.integers(min_value=0, max_value=64),
        decimals=st.sampled_from([0, 1, 3, 17]),
        forbidden=st.sampled_from([0.0, 0.3, 0.9]),
    )
    def test_every_event_solve_is_certified(self, seed, n, m, decimals, forbidden):
        """Events of up to 64 sessions x 64 badges, where a badge misses a
        session with probability ``forbidden`` and distances are rounded to
        ``decimals`` places, so that few decimals tie; about half the zeros
        are -0.0. Swapping two sessions' columns loses the certificate,
        since no two assignments cost the same."""
        rng = np.random.default_rng(seed)
        free = [f"W{r:02d}" for r in range(m)]
        group = []
        for i in range(n):
            dists = {}
            for w in free:
                if rng.random() >= forbidden:
                    d = round(float(rng.uniform(0.0, 4.0)), decimals)
                    dists[w] = -0.0 if d == 0 and rng.random() < 0.5 else d
            group.append(TagSession(f"T{i:02d}", 0.0, 60.0, dists))
        with recorded_solves() as solves:
            got = _assign_event(group, free)
        [(costs, n_cols, (col_of, u, v))] = solves
        assert certified(costs, n_cols, (col_of, u, v))
        assert got == [free[j] if j < m else None for j in col_of]
        if n > 1:
            assert not certified(costs, n_cols, ([col_of[1], col_of[0], *col_of[2:]], u, v))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        mode=st.sampled_from(["uniform", "ties", "floor"]),
    )
    def test_every_event_solve_of_a_problem_is_certified(self, seed, mode):
        prob = random_problem(np.random.default_rng(seed), mode)
        with recorded_solves() as solves:
            solve(prob)
        assert bool(solves) == bool(prob.sessions)
        assert all(certified(*call) for call in solves)


#: Few distinct times, so that equal starts, touching and nested intervals
#: are common, plus some arbitrary floats.
EVAL_TIMES = st.one_of(
    st.integers(min_value=0, max_value=4).map(float),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.just(-0.0),
)

#: (wearable, trust, margin) of a result that ``MatchResult`` accepts: a
#: sure result has a wearable and a positive margin.
EVAL_OUTCOMES = st.one_of(
    st.tuples(st.sampled_from([None, "W0"]), st.just(Trust.UNSURE), st.sampled_from([0.0, 1.0])),
    st.tuples(st.just("W0"), st.just(Trust.SURE), st.sampled_from([1.0, math.inf])),
)


#: A finite window that does not stop before it starts.
EVAL_WINDOWS = st.tuples(EVAL_TIMES, EVAL_TIMES).map(sorted)


@st.composite
def evaluation_inputs(draw):
    """Truth records with distinct wearables in no particular order, so a
    count can tell which record a result joined to, and results on two of
    the three tags."""
    ids = draw(st.integers(min_value=0, max_value=8).flatmap(lambda n: st.permutations(range(n))))
    truth = [
        TruthRecord(draw(st.sampled_from(["T1", "T2"])), *draw(EVAL_WINDOWS), wearable=f"W{i}")
        for i in ids
    ]
    results = [
        MatchResult(draw(st.sampled_from(["T1", "T2", "T3"])), *draw(EVAL_WINDOWS),
                    *draw(EVAL_OUTCOMES))
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    return results, truth


class TestEvaluate:
    @settings(max_examples=400, deadline=None)
    @given(evaluation_inputs())
    def test_sweep_matches_the_scan(self, inputs):
        """Whole result lists agree, and so does each result alone under
        every truth wearable, which pins the record it joins to."""
        results, truth = inputs
        probes = [results] + [
            [r._replace(wearable=t.wearable)] for r in results for t in truth
        ]
        for probe in probes:
            try:
                expected = scan_evaluate(probe, truth)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    evaluate(probe, truth)
                assert str(got.value) == str(e)
            else:
                assert evaluate(probe, truth) == expected

    def test_ties_go_to_the_earliest_start_then_input_order(self):
        res = [MatchResult(tag="T1", start=0.0, stop=10.0, wearable="W2",
                           trust=Trust.SURE, margin=2.0)]
        later = TruthRecord(tag="T1", start=5.0, stop=20.0, wearable="W1")
        earlier = TruthRecord(tag="T1", start=-5.0, stop=5.0, wearable="W2")
        assert evaluate(res, [later, earlier]).correct_sure == 1
        first = TruthRecord(tag="T1", start=0.0, stop=10.0, wearable="W2")
        second = TruthRecord(tag="T1", start=0.0, stop=10.0, wearable="W1")
        assert evaluate(res, [first, second]).correct_sure == 1
        assert evaluate(res, [second, first]).wrong_sure == 1

    def test_nan_truth_time_is_an_error(self):
        """A truth record checks its own window when it is built, so
        ``evaluate`` never sees a NaN time."""
        for start, stop in ((math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="session window must be finite"):
                TruthRecord(tag="T2", start=start, stop=stop, wearable="W1")

    @staticmethod
    def synthetic(counts):
        """Build results/truth realizing exact (correct_sure, correct_unsure,
        wrong_sure, wrong_unsure) counts."""
        results, truth = [], []
        k = 0
        for (correct, trust), n in counts.items():
            for _ in range(n):
                tag = f"T{k}"
                k += 1
                truth.append(TruthRecord(tag=tag, start=0.0, stop=60.0, wearable="W1"))
                results.append(
                    MatchResult(
                        tag=tag, start=0.0, stop=60.0,
                        wearable="W1" if correct else "W2",
                        trust=trust, margin=1.0,
                    )
                )
        return results, truth

    def test_confusion_counts_and_exact_metrics(self):
        results, truth = self.synthetic({
            (True, Trust.SURE): 347,
            (True, Trust.UNSURE): 143,
            (False, Trust.SURE): 5,
            (False, Trust.UNSURE): 51,
        })
        rep = evaluate(results, truth)
        assert (rep.correct_sure, rep.correct_unsure, rep.wrong_sure, rep.wrong_unsure) == (
            347, 143, 5, 51,
        )
        assert rep.total == 546
        assert rep.accuracy == Fraction(490, 546)
        assert rep.recall == Fraction(347, 490)
        assert rep.precision == Fraction(347, 352)
        d = rep.to_dict()
        assert d["accuracy"] == {"ratio": "490/546", "percent": 89.7}
        assert d["recall"] == {"ratio": "347/490", "percent": 70.8}
        assert d["precision"] == {"ratio": "347/352", "percent": 98.6}

    def test_second_reference_tableau(self):
        rep = EvalReport(correct_sure=410, correct_unsure=18, wrong_sure=0, wrong_unsure=6)
        d = rep.to_dict()
        assert d["accuracy"]["percent"] == 98.6
        assert d["recall"]["percent"] == 95.8
        assert d["precision"]["percent"] == 100.0

    def test_unassigned_counts_as_wrong(self):
        truth = [TruthRecord(tag="T1", start=0.0, stop=60.0, wearable="W1")]
        res = [MatchResult(tag="T1", start=0.0, stop=60.0, wearable=None,
                           trust=Trust.UNSURE, margin=0.0)]
        rep = evaluate(res, truth)
        assert rep.wrong_unsure == 1 and rep.total == 1

    def test_joins_by_largest_overlap(self):
        truth = [
            TruthRecord(tag="T1", start=0.0, stop=100.0, wearable="W1"),
            TruthRecord(tag="T1", start=150.0, stop=250.0, wearable="W2"),
        ]
        # Estimated boundaries drift a little; still lands on the second truth row.
        res = [MatchResult(tag="T1", start=140.0, stop=240.0, wearable="W2",
                           trust=Trust.SURE, margin=2.0)]
        assert evaluate(res, truth).correct_sure == 1

    def test_touching_intervals_still_join(self):
        truth = [TruthRecord(tag="T1", start=0.0, stop=10.0, wearable="W1")]
        res = [MatchResult(tag="T1", start=10.0, stop=20.0, wearable="W1",
                           trust=Trust.SURE, margin=2.0)]
        assert evaluate(res, truth).correct_sure == 1

    def test_orphan_result_is_an_error(self):
        truth = [TruthRecord(tag="T1", start=0.0, stop=10.0, wearable="W1")]
        res = [MatchResult(tag="T1", start=50.0, stop=60.0, wearable="W1",
                           trust=Trust.SURE, margin=2.0)]
        with pytest.raises(ValueError, match="no ground-truth"):
            evaluate(res, truth)
        with pytest.raises(ValueError, match="no ground-truth"):
            evaluate(
                [MatchResult(tag="T9", start=0.0, stop=10.0, wearable="W1",
                             trust=Trust.SURE, margin=2.0)],
                truth,
            )

    def test_zero_denominators_give_none(self):
        assert EvalReport(0, 0, 0, 0).accuracy is None
        assert EvalReport(0, 0, 0, 0).to_dict()["accuracy"] is None
        no_sure = EvalReport(0, 5, 0, 1)
        assert no_sure.precision is None and no_sure.recall == Fraction(0, 5)
        no_correct = EvalReport(0, 0, 2, 1)
        assert no_correct.recall is None

    @given(
        cs=st.integers(min_value=0, max_value=500),
        cu=st.integers(min_value=0, max_value=500),
        ws=st.integers(min_value=0, max_value=500),
        wu=st.integers(min_value=0, max_value=500),
    )
    def test_metric_identities_are_exact(self, cs, cu, ws, wu):
        rep = EvalReport(cs, cu, ws, wu)
        if rep.total:
            assert rep.accuracy * rep.total == rep.correct
        if rep.correct:
            assert rep.recall * rep.correct == rep.correct_sure
        if rep.sure_total:
            assert rep.precision * rep.sure_total == rep.correct_sure
        if rep.total and rep.correct and rep.sure_total:
            # accuracy * recall * total == precision * sure_total  (= correct_sure)
            assert rep.accuracy * rep.recall * rep.total == rep.precision * rep.sure_total


class TestEvalReportAddition:
    def test_adds_count_by_count(self):
        assert EvalReport(1, 2, 3, 4) + EvalReport(10, 20, 30, 40) == EvalReport(11, 22, 33, 44)

    @given(counts=st.tuples(*[st.integers(min_value=0, max_value=500)] * 4))
    def test_zero_report_is_the_identity(self, counts):
        rep = EvalReport(*counts)
        assert rep + EvalReport(0, 0, 0, 0) == rep == EvalReport(0, 0, 0, 0) + rep
        assert sum([rep], EvalReport(0, 0, 0, 0)) == rep

    def test_split_outdoor_counts_sum_back_to_the_paper_ratios(self):
        """The paper's outdoor experiment (347, 143, 5, 51), split in two
        batches and pooled by ``sum``."""
        pooled = sum([EvalReport(200, 100, 3, 20), EvalReport(147, 43, 2, 31)], EvalReport(0, 0, 0, 0))
        doc = pooled.to_dict()
        assert [doc[k]["ratio"] for k in ("accuracy", "recall", "precision")] == ["490/546", "347/490", "347/352"]

    @pytest.mark.parametrize("other", [1, 0, (1, 2, 3, 4), None])
    def test_any_other_operand_is_a_type_error(self, other):
        with pytest.raises(TypeError):
            EvalReport(1, 2, 3, 4) + other
        with pytest.raises(TypeError):
            other + EvalReport(1, 2, 3, 4)
