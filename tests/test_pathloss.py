import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from proxmatch import io
from proxmatch.pathloss import (
    DEFAULT_MODEL,
    DegenerateFitError,
    PathLossModel,
    RangeSample,
    fit,
    residual_variance,
)


class TestModelEvaluation:
    def test_reference_distance_anchors_the_curve(self):
        assert DEFAULT_MODEL.forward(1.0) == -45.6

    def test_reference_values(self):
        # Hand-checked: rssi0 - 10 * n * log10(d) at the plausibility bounds.
        assert DEFAULT_MODEL.forward(20.0) == pytest.approx(-58.75341325616285, abs=1e-9)
        assert DEFAULT_MODEL.forward(0.5) == pytest.approx(-42.55658674383715, abs=1e-9)
        assert DEFAULT_MODEL.inverse(-35.49) == pytest.approx(0.1, rel=1e-9)

    def test_forward_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            DEFAULT_MODEL.forward(0.0)
        with pytest.raises(ValueError):
            DEFAULT_MODEL.forward(-1.0)

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_round_trip(self, d):
        assert DEFAULT_MODEL.inverse(DEFAULT_MODEL.forward(d)) == pytest.approx(d, rel=1e-9)

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_strictly_decreasing(self, d1, d2):
        if d1 == d2:
            return
        lo, hi = min(d1, d2), max(d1, d2)
        assert DEFAULT_MODEL.forward(lo) >= DEFAULT_MODEL.forward(hi)
        # A strict drop is representable only once the exact drop spans a few
        # ulps of the result: forward(0.01) == forward(nextafter(0.01, 1)).
        exact_drop = 10.0 * DEFAULT_MODEL.n * math.log1p((hi - lo) / lo) / math.log(10.0)
        if exact_drop > 4 * math.ulp(DEFAULT_MODEL.forward(lo)):
            assert DEFAULT_MODEL.forward(lo) > DEFAULT_MODEL.forward(hi)

    def test_validation(self):
        with pytest.raises(ValueError):
            PathLossModel(n=0.0, x0=1.0, rssi0=-45.6)
        with pytest.raises(ValueError):
            PathLossModel(n=-1.0, x0=1.0, rssi0=-45.6)
        with pytest.raises(ValueError):
            PathLossModel(n=1.0, x0=0.0, rssi0=-45.6)
        with pytest.raises(ValueError):
            PathLossModel(n=1.0, x0=1.0, rssi0=math.nan)

    @pytest.mark.parametrize("field, value", [
        ("n", True), ("x0", False), ("rssi0", True), ("n", "1.0"), ("x0", "1"), ("rssi0", None),
    ])
    def test_bool_and_str_numbers_are_rejected(self, field, value):
        fields = {"n": 1.0, "x0": 1.0, "rssi0": -45.6, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a number, got {value!r}$"):
            PathLossModel(**fields)

    def test_int_arguments_write_the_same_bytes_as_floats(self, tmp_path):
        model = PathLossModel(1, 2, -45)
        assert model == PathLossModel(1.0, 2.0, -45.0)
        assert all(type(v) is float for v in (model.n, model.x0, model.rssi0))
        io.write_model(tmp_path / "int.json", model)
        io.write_model(tmp_path / "float.json", PathLossModel(1.0, 2.0, -45.0))
        assert (tmp_path / "int.json").read_bytes() == (tmp_path / "float.json").read_bytes()

    def test_dict_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        io.write_model(path, DEFAULT_MODEL)
        assert json.loads(path.read_text()) == {"n": 1.011, "x0_m": 1.0, "rssi0_db": -45.6}
        assert io.read_ekf_params(path).model == DEFAULT_MODEL


class TestFit:
    def test_two_point_fit_is_exact(self):
        # Slope through u = 0 and u = -10: (-55.71 + 45.6) / -10 = 1.011.
        m = fit([RangeSample(1.0, -45.6), RangeSample(10.0, -55.71)])
        assert m.n == pytest.approx(1.011, abs=1e-12)
        assert m.rssi0 == pytest.approx(-45.6, abs=1e-12)
        assert m.x0 == 1.0

    def test_noiseless_samples_recover_the_generator(self):
        truth = PathLossModel(n=1.7, x0=1.0, rssi0=-50.0)
        samples = [RangeSample(d, truth.forward(d)) for d in np.geomspace(0.2, 15.0, 40)]
        m = fit(samples)
        assert m.n == pytest.approx(truth.n, rel=1e-9)
        assert m.rssi0 == pytest.approx(truth.rssi0, rel=1e-9)
        assert residual_variance(m, samples) == pytest.approx(0.0, abs=1e-18)

    @settings(max_examples=30)
    @given(
        n=st.floats(min_value=0.5, max_value=4.0),
        rssi0=st.floats(min_value=-80.0, max_value=-30.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_noiseless_recovery_property(self, n, rssi0, seed):
        truth = PathLossModel(n=n, x0=1.0, rssi0=rssi0)
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.1, 20.0, size=12)
        if len(set(d)) < 2:
            return
        m = fit([RangeSample(x, truth.forward(x)) for x in d])
        assert m.n == pytest.approx(n, rel=1e-7)
        assert m.rssi0 == pytest.approx(rssi0, rel=1e-7)

    def test_fit_is_idempotent_on_its_own_predictions(self):
        rng = np.random.default_rng(7)
        d = rng.uniform(0.2, 8.0, size=30)
        z = np.array([DEFAULT_MODEL.forward(x) for x in d]) + rng.normal(0, 5.0, size=30)
        m1 = fit([RangeSample(a, b) for a, b in zip(d, z)])
        m2 = fit([RangeSample(a, m1.forward(a)) for a in d])
        assert m2.n == pytest.approx(m1.n, rel=1e-9)
        assert m2.rssi0 == pytest.approx(m1.rssi0, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(seed=58766329)  # fits n = 0.0008, below the default step
    def test_least_squares_optimality(self, seed):
        """No small perturbation of the fitted parameters lowers the RSS."""
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.1, 10.0, size=15)
        z = np.array([DEFAULT_MODEL.forward(x) for x in d]) + rng.normal(0, 6.0, size=15)
        samples = [RangeSample(a, b) for a, b in zip(d, z)]
        try:
            m = fit(samples)
        except ValueError:
            # A rare draw where noise flips the decay sign; the optimum is
            # then outside the model's parameter domain.
            assume(False)
        best = residual_variance(m, samples)
        step = min(1e-3, m.n / 2)  # the decay must stay positive
        for dn in (-step, 0.0, step):
            for dr in (-1e-3, 0.0, 1e-3):
                if dn == dr == 0.0:
                    continue
                other = PathLossModel(n=m.n + dn, x0=m.x0, rssi0=m.rssi0 + dr)
                assert residual_variance(other, samples) >= best - 1e-12

    def test_noisy_fit_lands_near_the_generator(self):
        # 20k samples, sigma = 6.99 dB: parameter error is a few millis on n.
        rng = np.random.default_rng(123)
        d = rng.uniform(0.1, 6.0, size=20000)
        z = np.array([DEFAULT_MODEL.forward(x) for x in d]) + rng.normal(0.0, 6.99, size=20000)
        samples = [RangeSample(a, b) for a, b in zip(d, z)]
        m = fit(samples)
        assert abs(m.n - 1.011) < 0.05
        assert abs(m.rssi0 - (-45.6)) < 0.3
        assert residual_variance(m, samples) == pytest.approx(48.92, abs=2.0)

    @pytest.mark.parametrize("k", [2, 3, 15, 200])
    @pytest.mark.parametrize("x0", [1.0, 0.5])
    def test_matches_numpy_polyfit(self, k, x0):
        """An independent oracle: numpy's least-squares line through (u, rssi)."""
        rng = np.random.default_rng(1000 * k + int(10 * x0))
        d = rng.uniform(0.1, 10.0, size=k)
        z = np.array([DEFAULT_MODEL.forward(x) for x in d]) + rng.normal(0.0, 6.99, size=k)
        samples = [RangeSample(float(a), float(b)) for a, b in zip(d, z)]
        n, rssi0 = np.polyfit(-10.0 * np.log10(d / x0), z, 1)
        if n <= 0:
            # noise flipped the decay sign: outside the model's domain
            with pytest.raises(ValueError):
                fit(samples, x0=x0)
            return
        m = fit(samples, x0=x0)
        assert m.n == pytest.approx(n, rel=1e-9)
        assert m.rssi0 == pytest.approx(rssi0, rel=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFitError):
            fit([])
        with pytest.raises(DegenerateFitError):
            fit([RangeSample(1.0, -45.6)])
        with pytest.raises(DegenerateFitError):
            fit([RangeSample(2.0, -48.0), RangeSample(2.0, -46.0), RangeSample(2.0, -44.0)])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fit([RangeSample(0.0, -45.6), RangeSample(1.0, -45.6)])
        with pytest.raises(ValueError):
            fit([RangeSample(-1.0, -45.6), RangeSample(1.0, -45.6)])
        with pytest.raises(ValueError):
            fit([RangeSample(1.0, math.inf), RangeSample(2.0, -45.6)])
        with pytest.raises(ValueError):
            fit([RangeSample(1.0, -45.6), RangeSample(2.0, -48.0)], x0=0.0)


class TestRangeSample:
    @pytest.mark.parametrize("distance, rssi, message", [
        (True, -45.6, "distance must be a number, got True"),
        ("1", -45.6, "distance must be a number, got '1'"),
        (1.0, None, "rssi must be a number, got None"),
        (0.0, -45.6, "sample distance must be finite and positive, got 0.0"),
        (-1.0, -45.6, "sample distance must be finite and positive, got -1.0"),
        (math.inf, -45.6, "sample distance must be finite and positive, got inf"),
        (1.0, math.nan, "sample rssi must be finite, got nan"),
    ])
    def test_a_bad_value_is_rejected_when_built(self, distance, rssi, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RangeSample(distance, rssi)

    def test_int_values_are_stored_as_floats(self):
        sample = RangeSample(2, -49)
        assert sample == RangeSample(2.0, -49.0)
        assert type(sample.distance) is float and type(sample.rssi) is float


class TestResidualVariance:
    def test_hand_case(self):
        samples = [RangeSample(1.0, -44.6), RangeSample(1.0, -46.6)]
        assert residual_variance(DEFAULT_MODEL, samples) == pytest.approx(1.0, abs=1e-12)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            residual_variance(DEFAULT_MODEL, [])
