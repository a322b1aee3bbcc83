import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxmatch import ekf, io
from proxmatch.ekf import (
    DT_LINEAR,
    DT_SQUARED,
    EkfParams,
    EkfState,
    process_noise_from_speed,
)
from proxmatch.pathloss import DEFAULT_MODEL, PathLossModel

PARAMS = EkfParams()


class TestProcessNoise:
    def test_walking_bound_gives_the_default_q(self):
        # 0.7^2 / chi2_ppf(0.95, df=1); the quantile is 3.8414588...
        q = process_noise_from_speed(0.7, 0.05)
        assert q == pytest.approx(0.12755570809723285, abs=1e-12)
        assert q == pytest.approx(0.1275, abs=5e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            process_noise_from_speed(0.0, 0.05)
        with pytest.raises(ValueError):
            process_noise_from_speed(0.7, 0.0)
        with pytest.raises(ValueError):
            process_noise_from_speed(0.7, 1.0)


class TestParams:
    def test_defaults(self):
        p = EkfParams()
        assert p.model == DEFAULT_MODEL
        assert p.q == 0.1275
        assert p.r == 43.53
        assert p.d_min == 0.5
        assert p.d_max == 20.0
        assert p.p0 == 4.0
        assert p.dt_mode == DT_SQUARED
        assert p.x_floor == 0.01

    def test_calibration_variance_is_a_valid_r(self):
        p = dataclasses.replace(PARAMS, r=48.92)
        assert p.r == 48.92

    def test_validation(self):
        for bad in (
            dict(q=0.0),
            dict(r=-1.0),
            dict(d_min=0.0),
            dict(d_max=0.4),  # below d_min
            dict(p0=0.0),
            dict(dt_mode="quadratic"),
            dict(x_floor=0.0),
            dict(x_floor=0.6),  # above d_min
        ):
            with pytest.raises(ValueError):
                dataclasses.replace(PARAMS, **bad)

    @pytest.mark.parametrize("field", ["q", "r", "d_min", "d_max", "p0", "x_floor"])
    @pytest.mark.parametrize("bad", [True, False, "1", None])
    def test_each_number_applies_the_number_rule(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {bad!r}$"):
            EkfParams(**{field: bad})

    def test_ints_are_stored_as_floats(self):
        p = EkfParams(q=1, r=43, d_min=1, d_max=20, p0=4, x_floor=1)
        assert p == EkfParams(q=1.0, r=43.0, d_min=1.0, d_max=20.0, p0=4.0, x_floor=1.0)
        assert all(type(getattr(p, f)) is float for f in ("q", "r", "d_min", "d_max", "p0", "x_floor"))
        assert type(ekf.step(None, -50.0, 0.0, EkfParams(p0=4)).p) is float

    def test_dict_round_trip(self, tmp_path):
        d = {"n": 1.011, "x0_m": 1.0, "rssi0_db": -45.6, "q": 0.1275, "r": 48.92, "d_min_m": 0.5,
             "d_max_m": 20.0, "p0": 4.0, "dt_mode": "dt_linear", "x_floor_m": 0.01}
        path = tmp_path / "ekf.json"
        path.write_text(json.dumps(d))
        assert io.read_ekf_params(path) == EkfParams(r=48.92, dt_mode=DT_LINEAR)


class TestInit:
    def test_reference_rssi_maps_to_the_reference_distance(self):
        s = ekf.step(None, -45.6, 3.0, PARAMS)
        assert s.x == pytest.approx(1.0, abs=1e-12)
        assert s.p == 4.0
        assert s.ts == 3.0

    def test_weak_signal_clamps_to_far_bound(self):
        # Anything below the expected RSSI at 20 m (-58.753 dB) inverts past
        # the far bound and clamps.
        assert ekf.step(None, -70.0, 0.0, PARAMS).x == 20.0
        assert ekf.step(None, -58.76, 0.0, PARAMS).x == 20.0
        assert ekf.step(None, -58.74, 0.0, PARAMS).x < 20.0

    def test_strong_signal_clamps_to_near_bound(self):
        assert ekf.step(None, -30.0, 0.0, PARAMS).x == 0.5
        assert ekf.step(None, -42.55, 0.0, PARAMS).x == 0.5
        assert ekf.step(None, -42.57, 0.0, PARAMS).x > 0.5

    @given(st.floats(min_value=-127.0, max_value=20.0))
    def test_total_over_the_plausible_rssi_range(self, rssi):
        s = ekf.step(None, rssi, 0.0, PARAMS)
        assert PARAMS.d_min <= s.x <= PARAMS.d_max
        assert s.p == PARAMS.p0


def steady_step(x, p, t0, t1, params=PARAMS):
    """A step from (x, p) at t0 to t1 with zero innovation: only p moves."""
    return ekf.step(EkfState(x=x, p=p, ts=t0), params.model.forward(x), t1, params)


def updated_variance(p_pred, x, params=PARAMS):
    """p after a zero-innovation update at x: p_pred * r / (h^2 * p_pred + r)."""
    h = ekf.jacobian(params.model, x)
    return p_pred * params.r / (h * h * p_pred + params.r)


class TestPredict:
    def test_variance_grows_with_the_squared_gap(self):
        s = steady_step(1.0, 1.0, 0.0, 7.0)
        assert s.p == pytest.approx(updated_variance(7.2475, 1.0), abs=1e-12)  # 1 + 0.1275 * 49
        assert (s.x, s.ts) == (1.0, 7.0)
        s = steady_step(1.0, 2.0, 0.0, 14.0)
        assert s.p == pytest.approx(updated_variance(26.99, 1.0), abs=1e-9)

    def test_zero_gap_changes_nothing(self):
        # The prediction adds nothing; only the update's shrink shows.
        s = steady_step(1.3, 0.8, 5.0, 5.0)
        assert (s.x, s.ts) == (1.3, 5.0)
        assert s.p == pytest.approx(updated_variance(0.8, 1.3), abs=1e-12)

    def test_linear_mode(self):
        p = dataclasses.replace(PARAMS, dt_mode=DT_LINEAR)
        s = steady_step(1.0, 1.0, 0.0, 7.0, p)
        assert s.p == pytest.approx(updated_variance(1.8925, 1.0, p), abs=1e-12)  # 1 + 0.1275 * 7

    def test_time_must_not_run_backwards(self):
        with pytest.raises(ValueError):
            steady_step(1.0, 1.0, 10.0, 9.0)


class TestJacobian:
    def test_reference_values(self):
        # -10 * 1.011 / (ln 10 * x)
        assert ekf.jacobian(DEFAULT_MODEL, 1.0) == pytest.approx(-4.390717212041875, abs=1e-9)
        assert ekf.jacobian(DEFAULT_MODEL, 2.0) == pytest.approx(
            ekf.jacobian(DEFAULT_MODEL, 1.0) / 2.0, abs=1e-12
        )

    def test_always_negative(self):
        for x in np.geomspace(0.01, 50.0, 25):
            assert ekf.jacobian(DEFAULT_MODEL, float(x)) < 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            ekf.jacobian(DEFAULT_MODEL, 0.0)

    @given(st.floats(min_value=0.05, max_value=50.0))
    def test_matches_central_difference(self, x):
        h = ekf.jacobian(DEFAULT_MODEL, x)
        eps = 1e-5 * x
        fd = (DEFAULT_MODEL.forward(x + eps) - DEFAULT_MODEL.forward(x - eps)) / (2 * eps)
        assert h == pytest.approx(fd, rel=1e-4)

    @given(st.floats(min_value=0.1, max_value=20.0), st.floats(min_value=1e-4, max_value=1e-2))
    def test_linearization_error_bound(self, x, eps):
        """|f(x+eps) - f(x) - J*eps| is second order with the curvature bound
        10n / (ln10 * x^2), which is decreasing in x."""
        lin = DEFAULT_MODEL.forward(x) + ekf.jacobian(DEFAULT_MODEL, x) * eps
        bound = 0.5 * (10.0 * DEFAULT_MODEL.n / (math.log(10.0) * x * x)) * eps * eps
        # The 1e-12 term absorbs rounding in the ~60 dB forward() values,
        # which dwarfs the true remainder once x is large and eps tiny.
        assert abs(DEFAULT_MODEL.forward(x + eps) - lin) <= bound * (1 + 1e-9) + 1e-12


class TestUpdate:
    """A measurement update is a step with no time gap."""

    def test_hand_worked_observation(self):
        """x=1, p=1, observation 3 dB above the expected value:
        H = -4.3907, S = H^2 + 43.53 = 62.808, K = H / S = -0.069907,
        x' = 1 + K * 3 = 0.79028, p' = (1 - K*H) * 1 = 0.69306."""
        before = EkfState(x=1.0, p=1.0, ts=0.0)
        after = ekf.step(before, DEFAULT_MODEL.forward(1.0) + 3.0, 0.0, PARAMS)
        assert after.x == pytest.approx(0.7902804062533448, abs=1e-9)
        assert after.p == pytest.approx(0.6930601900113771, abs=1e-9)
        assert after.ts == 0.0
        # same numbers at the coarse tolerance a hand calculation reaches
        assert after.x == pytest.approx(0.7903, abs=1e-3)

    def test_zero_innovation_leaves_the_estimate(self):
        before = EkfState(x=2.0, p=1.5, ts=0.0)
        after = ekf.step(before, DEFAULT_MODEL.forward(2.0), 0.0, PARAMS)
        assert after.x == 2.0
        assert 0.0 < after.p < before.p

    def test_stronger_signal_pulls_closer(self):
        before = EkfState(x=2.0, p=1.5, ts=0.0)
        closer = ekf.step(before, DEFAULT_MODEL.forward(2.0) + 5.0, 0.0, PARAMS)
        farther = ekf.step(before, DEFAULT_MODEL.forward(2.0) - 5.0, 0.0, PARAMS)
        assert closer.x < 2.0 < farther.x

    def test_floor_keeps_the_estimate_off_zero(self):
        before = EkfState(x=0.02, p=100.0, ts=0.0)
        after = ekf.step(before, -20.0, 0.0, PARAMS)
        assert after.x == PARAMS.x_floor

    @settings(max_examples=60, deadline=None)
    @given(
        x0=st.floats(min_value=0.5, max_value=20.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_obs=st.integers(min_value=1, max_value=60),
    )
    def test_covariance_stays_positive(self, x0, seed, n_obs):
        rng = np.random.default_rng(seed)
        state = EkfState(x=x0, p=PARAMS.p0, ts=0.0)
        t = 0.0
        for _ in range(n_obs):
            t += float(rng.uniform(0.0, 30.0))
            rssi = float(np.clip(DEFAULT_MODEL.forward(x0) + rng.normal(0, 7.0), -127, 20))
            state = ekf.step(state, rssi, t, PARAMS)
            assert state.p > 0.0
            assert state.x >= PARAMS.x_floor


class TestStep:
    def test_first_observation_initializes(self):
        s = ekf.step(None, -45.6, 3.0, PARAMS)
        assert s == old_init(PARAMS, -45.6, 3.0)

    def test_later_observations_predict_then_update(self):
        s0 = ekf.step(None, -45.6, 0.0, PARAMS)
        s1 = ekf.step(s0, -45.6, 7.0, PARAMS)
        predicted = EkfState(x=s0.x, p=s0.p + PARAMS.q * 7.0 * 7.0, ts=7.0)
        assert s1 == ekf.step(predicted, -45.6, 7.0, PARAMS)

    def test_out_of_order_observation_is_an_error(self):
        s0 = ekf.step(None, -45.6, 10.0, PARAMS)
        with pytest.raises(ValueError):
            ekf.step(s0, -45.6, 9.0, PARAMS)


class TestConvergence:
    @pytest.mark.parametrize("d_star", [0.5, 0.7, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_noise_free_stream_converges_within_50_updates(self, d_star):
        """On a constant noise-free stream the first sample already inverts to
        the true distance; the error must then shrink below 1 cm and stay."""
        rssi = DEFAULT_MODEL.forward(d_star)
        state = None
        errs = []
        for k in range(51):
            state = ekf.step(state, rssi, 7.0 * k, PARAMS)
            errs.append(abs(state.x - d_star))
        assert errs[-1] < 0.01
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        rssi=st.floats(min_value=-90.0, max_value=-20.0),
        x0=st.floats(min_value=0.5, max_value=20.0),
    )
    def test_constant_stream_error_is_monotone_from_any_start(self, rssi, x0):
        """Even from a deliberately wrong start the error against the stream's
        own inversion never grows, whatever the clamp produced."""
        target = DEFAULT_MODEL.inverse(rssi)
        state = EkfState(x=x0, p=PARAMS.p0, ts=0.0)
        prev = abs(state.x - target)
        for k in range(1, 61):
            state = ekf.step(state, rssi, 7.0 * k, PARAMS)
            err = abs(state.x - target)
            assert err <= prev + 1e-9
            prev = err

    def test_worst_case_cross_start_needs_about_90_updates(self):
        """From the near bound against a far-bound stream (the worst corner of
        the clamp box) convergence to 1 cm takes 92 updates at 7 s spacing,
        not 50; the gentler monotone property above is what holds everywhere."""
        rssi = DEFAULT_MODEL.forward(20.0)
        state = EkfState(x=0.5, p=PARAMS.p0, ts=0.0)
        k = 0
        while abs(state.x - 20.0) >= 0.01:
            k += 1
            assert k <= 150, "did not converge at all"
            state = ekf.step(state, rssi, 7.0 * k, PARAMS)
        assert 50 < k <= 120

    def test_stationary_noisy_accuracy_at_2m(self):
        """500 filtered sessions at a true 2.0 m with 6.6 dB noise and 26
        observations: the median absolute error sits near 1.4 m. At ranges
        past a meter the log curve is so flat that this noise level floors
        the achievable accuracy; sub-meter medians only occur closer in."""
        rng = np.random.default_rng(20240819)
        errs = []
        for _ in range(500):
            noise = rng.normal(0.0, 6.6, size=26)
            state = None
            for k in range(26):
                state = ekf.step(state, DEFAULT_MODEL.forward(2.0) + noise[k], 7.0 * k, PARAMS)
            errs.append(abs(state.x - 2.0))
        med = float(np.median(errs))
        assert 1.0 <= med <= 1.8


def reference_filter(rssi, ts, params):
    """Test-local oracle: the per-observation ``init``, ``predict`` and
    ``update`` arithmetic, copied from before the filter became one fold."""
    model = params.model

    def init(rssi, ts):
        x = min(max(model.x0 * 10.0 ** ((model.rssi0 - rssi) / (10.0 * model.n)), params.d_min),
                params.d_max)
        return x, params.p0, ts

    def predict(state, ts):
        x, p, t = state
        dt = ts - t
        if dt < 0:
            raise ValueError(f"observations must be processed in time order ({ts} < {t})")
        if params.dt_mode == DT_SQUARED:
            growth = params.q * dt * dt
        else:
            growth = params.q * dt
        return x, p + growth, ts

    def update(state, rssi):
        x, p, t = state
        h = -10.0 * model.n / (math.log(10.0) * x)
        y = rssi - (model.rssi0 - 10.0 * model.n * math.log10(x / model.x0))
        s = h * p * h + params.r
        k = p * h / s
        x_new = x + k * y
        if x_new < params.x_floor:
            x_new = params.x_floor
        return x_new, (1.0 - k * h) * p, t

    state = init(rssi[0], ts[0])
    for z, t in zip(rssi[1:], ts[1:]):
        state = update(predict(state, t), z)
    return state


def _bits(x, p, t):
    return x.hex(), p.hex(), float(t).hex()


# A strong reading straight after a near-bound start drives x below the floor.
FLOOR_STREAM = ([-30.0, 20.0, 20.0, -50.0], [0.0, 7.0, 7.0, 21.0])


@st.composite
def streams(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    rssi = draw(st.lists(st.floats(min_value=-127.0, max_value=20.0), min_size=n, max_size=n))
    gaps = draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=60.0)),
                         min_size=n, max_size=n))
    ts = [draw(st.floats(min_value=-1e4, max_value=1e4))]
    for g in gaps[1:]:
        ts.append(ts[-1] + g)
    return rssi, ts


@st.composite
def windowed_streams(draw):
    """A stream cut at random bounds into consecutive windows: (rssi, ts,
    ends, state). With a ``state`` the first window continues it and may be
    empty; every other window holds at least one observation, and some draws
    cut every observation into a window of its own."""
    rssi, ts = draw(streams())
    n = len(rssi)
    inner = list(range(1, n))
    cuts = draw(st.one_of(st.just(inner), st.lists(st.sampled_from(inner), unique=True) if inner else st.just([])))
    state = draw(st.one_of(st.none(), st.builds(
        EkfState, x=st.floats(0.01, 50.0), p=st.floats(1e-6, 1e3),
        ts=st.just(ts[0]) | st.floats(ts[0] - 600.0, ts[0]),
    )))
    first = [0] if state is not None and draw(st.booleans()) else []
    return rssi, ts, [*first, *sorted(cuts), n], state


class TestRunFilter:
    @settings(max_examples=300, deadline=None)
    @given(stream=windowed_streams(), dt_mode=st.sampled_from([DT_SQUARED, DT_LINEAR]))
    def test_each_window_is_a_fresh_filter_on_its_slice(self, stream, dt_mode):
        """``run_windows`` equals its one-window call on each window's slice,
        and the test-local reference steps on each fresh window, bit for bit."""
        params = EkfParams(dt_mode=dt_mode)
        rssi, ts, ends, state = stream
        got = ekf.run_windows(rssi, ts, ends, params, state)
        assert len(got) == len(ends)
        for i, (lo, hi, window) in enumerate(zip([0, *ends], ends, got)):
            start = state if i == 0 else None
            want = ekf.run_windows(rssi[lo:hi], ts[lo:hi], [hi - lo], params, start)[0]
            assert _bits(*window) == _bits(*want)
            if start is None:
                assert _bits(*window) == _bits(*reference_filter(rssi[lo:hi], ts[lo:hi], params))

    def test_malformed_windows(self):
        rssi, ts = [-50.0, -51.0, -52.0], [0.0, 7.0, 14.0]
        with pytest.raises(ValueError, match="got 3 rssi values for 2 timestamps"):
            ekf.run_windows(rssi, ts[:2], [1, 2], PARAMS)
        for ends in ([0, 3], [1, 1, 3]):  # an empty window that would start a filter
            with pytest.raises(ValueError, match="at least one observation to start"):
                ekf.run_windows(rssi, ts, ends, PARAMS)
        for ends in ([], [1, 2], [1, 4]):
            with pytest.raises(ValueError, match="last of 3 observations"):
                ekf.run_windows(rssi, ts, ends, PARAMS)
        for ends in ([2, 1, 3], [5, 3]):
            with pytest.raises(ValueError, match="must not decrease"):
                ekf.run_windows(rssi, ts, ends, PARAMS)
        assert ekf.run_windows([], [], [], PARAMS) == []
        start = EkfState(x=1.0, p=1.0, ts=-1.0)
        assert ekf.run_windows(rssi, ts, [0, 3], PARAMS, start) == [start, *ekf.run_windows(rssi, ts, [3], PARAMS)]

    @settings(max_examples=300, deadline=None)
    @given(
        stream=streams(),
        dt_mode=st.sampled_from([DT_SQUARED, DT_LINEAR]),
        q=st.floats(min_value=1e-4, max_value=10.0),
        r=st.floats(min_value=0.1, max_value=200.0),
        x_floor=st.sampled_from([0.01, 0.2, 0.5]),
    )
    def test_bit_identical_to_the_reference_steps(self, stream, dt_mode, q, r, x_floor):
        params = EkfParams(q=q, r=r, dt_mode=dt_mode, x_floor=x_floor)
        rssi, ts = stream
        want = _bits(*reference_filter(rssi, ts, params))
        got = ekf.run_windows(rssi, ts, [len(rssi)], params)[0]
        assert _bits(got.x, got.p, got.ts) == want
        state = None
        for z, t in zip(rssi, ts):
            state = ekf.step(state, z, t, params)
        assert _bits(state.x, state.p, state.ts) == want
        k = len(rssi) // 2
        if k:
            head = ekf.run_windows(rssi[:k], ts[:k], [k], params)[0]
            tail = ekf.run_windows(rssi[k:], ts[k:], [len(rssi) - k], params, head)[0]
            assert _bits(tail.x, tail.p, tail.ts) == want

    @pytest.mark.parametrize("dt_mode", [DT_SQUARED, DT_LINEAR])
    def test_floor_and_zero_gap_stream(self, dt_mode):
        params = EkfParams(dt_mode=dt_mode)
        rssi, ts = FLOOR_STREAM
        assert ekf.run_windows(rssi[:2], ts[:2], [2], params)[0].x == params.x_floor
        got = ekf.run_windows(rssi, ts, [len(rssi)], params)[0]
        assert _bits(got.x, got.p, got.ts) == _bits(*reference_filter(rssi, ts, params))

    def test_time_must_not_run_backwards(self):
        with pytest.raises(ValueError, match="time order"):
            ekf.run_windows([-50.0, -50.0, -50.0], [0.0, 7.0, 6.0], [3], PARAMS)
        with pytest.raises(ValueError, match="time order"):
            ekf.run_windows([-50.0], [4.0], [1], PARAMS, EkfState(x=1.0, p=1.0, ts=5.0))

    @pytest.mark.parametrize("params", [
        PARAMS,
        EkfParams(model=PathLossModel(n=1.2, x0=2.0, rssi0=-50.0), d_min=0.4, d_max=15.0, p0=2.0),
    ])
    def test_one_observation_is_init(self, params):
        """A window of one observation starts a filter in place, by the
        clamped inversion of ``old_init``: across both clamps and one ulp
        either side of each bound."""
        edges = []
        for d in (params.d_min, params.d_max):
            z = params.model.forward(d)
            edges += [math.nextafter(z, -math.inf), z, math.nextafter(z, math.inf)]
        for z in [-127.0, -70.0, -58.76, -58.75, -50.0, -45.6, -42.56, -42.55, -30.0, 20.0, *edges]:
            for t in (-3.5, 0.0, 7.0):
                got, want = ekf.run_windows([z], [t], [1], params)[0], old_init(params, z, t)
                assert got == want and _bits(got.x, got.p, got.ts) == _bits(want.x, want.p, want.ts)
        assert ekf.run_windows([-70.0], [0.0], [1], params)[0].x == params.d_max
        assert ekf.run_windows([20.0], [0.0], [1], params)[0].x == params.d_min

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
    def test_a_continued_state_needs_a_positive_distance(self, x):
        """The update linearizes at the state's ``x``, which must be positive
        when a step or the first window continues a state."""
        start = EkfState(x, 1.0, 0.0)
        with pytest.raises(ValueError, match=f"^jacobian needs a positive distance, got {x}$"):
            ekf.step(start, -50.0, 7.0, PARAMS)
        with pytest.raises(ValueError, match=f"^jacobian needs a positive distance, got {x}$"):
            ekf.run_windows([-50.0, -51.0, -52.0], [7.0, 14.0, 21.0], [1, 3], PARAMS, start)

    def test_malformed_input(self):
        with pytest.raises(ValueError):
            ekf.run_windows([], [], [0], PARAMS)
        with pytest.raises(ValueError):
            ekf.run_windows([-50.0, -51.0], [0.0], [2], PARAMS)
        start = EkfState(x=1.0, p=1.0, ts=5.0)
        assert ekf.run_windows([], [], [0], PARAMS, start) == [start]


def old_init(params, rssi, ts):
    """A filter's start as its own formula, before it became a fold of one
    observation: the clamped inversion, variance ``p0``, at ``ts``."""
    return EkfState(x=min(max(params.model.inverse(rssi), params.d_min), params.d_max),
                    p=params.p0, ts=ts)


@st.composite
def filter_params(draw):
    model = PathLossModel(n=draw(st.floats(0.5, 4.0)), x0=draw(st.sampled_from([0.5, 1.0, 2.0])),
                          rssi0=draw(st.floats(-80.0, -20.0)))
    d_min = draw(st.floats(0.05, 2.0))
    return EkfParams(model=model, d_min=d_min, d_max=d_min + draw(st.floats(0.1, 50.0)),
                     p0=draw(st.floats(0.01, 100.0)), dt_mode=draw(st.sampled_from([DT_SQUARED, DT_LINEAR])),
                     x_floor=draw(st.floats(0.001, d_min)))


RSSI = st.floats(min_value=-127.0, max_value=20.0)
TIMES = st.floats(min_value=-1e6, max_value=1e6)


class TestOneObservationCalls:
    """``step`` is a ``run_windows`` call on one observation."""

    @settings(max_examples=300, deadline=None)
    @given(params=filter_params(), rssi=RSSI, ts=TIMES)
    def test_a_start_is_the_old_init_formula(self, params, rssi, ts):
        want = _bits(*tuple(old_init(params, rssi, ts)))
        assert _bits(*tuple(ekf.step(None, rssi, ts, params))) == want

    @settings(max_examples=300, deadline=None)
    @given(params=filter_params(), rssi=RSSI, t0=TIMES, gap=st.one_of(st.just(0.0), st.floats(0.0, 600.0)),
           x=st.floats(0.001, 100.0), p=st.floats(1e-6, 1e4))
    def test_a_step_from_a_state_is_one_window(self, params, rssi, t0, gap, x, p):
        state = EkfState(x=x, p=p, ts=t0)
        want = ekf.run_windows((rssi,), (t0 + gap,), (1,), params, state)[0]
        got = ekf.step(state, rssi, t0 + gap, params)
        assert _bits(*tuple(got)) == _bits(*tuple(want))
