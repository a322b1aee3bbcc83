"""Log-distance path-loss model: evaluation, inversion, least-squares fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "DEFAULT_MODEL",
    "DegenerateFitError",
    "PathLossModel",
    "RangeSample",
    "fit",
    "residual_variance",
]


def _number(value, name: str) -> float:
    """``value``, an ``int`` or ``float`` (not ``bool``), as a float: the
    rule for a number in every record, model and scenario, and in every
    file ``io`` reads."""
    if type(value) is float:
        return value
    if type(value) is bool or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the largest float
        raise ValueError(f"{name} is too large for a float") from None


def _floats(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass ``obj`` as a float
    under ``_number``'s rule."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not float:
            object.__setattr__(obj, name, _number(value, name))


class DegenerateFitError(ValueError):
    """Sample set cannot pin down both fit parameters."""


@dataclass(frozen=True)
class RangeSample:
    """One calibration observation: a known distance (m), finite and positive,
    and the finite RSSI (dB) measured there, numbers under ``_number``'s rule."""

    distance: float
    rssi: float

    def __post_init__(self) -> None:
        _floats(self, "distance", "rssi")
        if not (math.isfinite(self.distance) and self.distance > 0):
            raise ValueError(f"sample distance must be finite and positive, got {self.distance}")
        if not math.isfinite(self.rssi):
            raise ValueError(f"sample rssi must be finite, got {self.rssi}")


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance signal decay: rssi(x) = rssi0 - 10 * n * log10(x / x0).

    ``n`` is the decay exponent, ``x0`` the reference distance in meters, and
    ``rssi0`` the expected signal strength at ``x0`` in dB. Free space has
    n = 2; values near 1 are typical of cluttered indoor spaces where
    reflections partially compensate the direct-path loss. Each value is a
    number under ``_number``'s rule, stored as a float.
    """

    n: float
    x0: float
    rssi0: float

    def __post_init__(self) -> None:
        _floats(self, "n", "x0", "rssi0")
        if not (math.isfinite(self.n) and self.n > 0):
            raise ValueError(f"decay exponent must be finite and positive, got {self.n}")
        if not (math.isfinite(self.x0) and self.x0 > 0):
            raise ValueError(f"reference distance must be finite and positive, got {self.x0}")
        if not math.isfinite(self.rssi0):
            raise ValueError(f"reference rssi must be finite, got {self.rssi0}")

    def forward(self, distance: float) -> float:
        """Expected RSSI in dB at a distance in meters. Requires distance > 0."""
        if not (distance > 0):
            raise ValueError(f"distance must be positive, got {distance}")
        return self.rssi0 - 10.0 * self.n * math.log10(distance / self.x0)

    def inverse(self, rssi: float) -> float:
        """Distance in meters whose expected RSSI equals ``rssi``."""
        return self.x0 * 10.0 ** ((self.rssi0 - rssi) / (10.0 * self.n))


#: Default calibration for badge-to-tag ranging in a cluttered indoor space.
DEFAULT_MODEL = PathLossModel(n=1.011, x0=1.0, rssi0=-45.6)


def fit(samples: Iterable[RangeSample], x0: float = 1.0) -> PathLossModel:
    """Least-squares fit of (n, rssi0) with the reference distance held fixed.

    The model is linear in the transformed regressor u = -10 * log10(x / x0),
    rssi = rssi0 + n * u, so ordinary least squares has a closed form:
    n is cov(u, rssi) / var(u) and rssi0 the intercept through the means,
    as ``statistics.linear_regression`` computes them (with ``math.fsum``).

    Raises DegenerateFitError when fewer than two distinct distances are
    present, and ValueError for a nonpositive or non-finite ``x0``.
    """
    if not (math.isfinite(x0) and x0 > 0):
        raise ValueError(f"reference distance must be finite and positive, got {x0}")
    samples = list(samples)
    if len({s.distance for s in samples}) < 2:
        raise DegenerateFitError(
            f"need at least 2 distinct distances to fit, got {len(samples)} sample(s)"
        )
    # imported here: statistics, with fractions, costs every command's start-up
    import statistics

    u = [-10.0 * math.log10(s.distance / x0) for s in samples]
    n, rssi0 = statistics.linear_regression(u, [s.rssi for s in samples])
    return PathLossModel(n=n, x0=x0, rssi0=rssi0)


def residual_variance(model: PathLossModel, samples: Iterable[RangeSample]) -> float:
    """Mean squared residual of ``samples`` against ``model``, in dB^2.

    This is the population variance of the measurement residuals when the
    model is unbiased, i.e. the natural plug-in estimate for a filter's
    measurement-noise variance.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("residual variance needs at least one sample")
    import statistics

    return statistics.fmean((s.rssi - model.forward(s.distance)) ** 2 for s in samples)
