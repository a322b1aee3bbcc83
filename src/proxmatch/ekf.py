"""Scalar extended Kalman filter tracking one wearable-to-tag distance.

The state is the distance itself. There is no usable motion model for a
person relative to a hand-held asset, so the filter predicts a constant
distance and lets relative movement enter through process noise sized from a
walking-speed bound. The measurement is a single RSSI value, nonlinear in the
state through the log-distance curve, linearized at the current estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Sequence

from .pathloss import DEFAULT_MODEL, PathLossModel, _floats

__all__ = [
    "DT_LINEAR",
    "DT_SQUARED",
    "EkfParams",
    "EkfState",
    "jacobian",
    "process_noise_from_speed",
    "run_windows",
    "step",
]

#: Grow the predicted variance by q * dt^2 (dt treated as a scale on a
#: per-step velocity draw; variance then scales with the square of the gap).
DT_SQUARED = "dt_squared"
#: Grow the predicted variance by q * dt (random-walk accumulation).
DT_LINEAR = "dt_linear"


def process_noise_from_speed(v_max: float = 0.7, tail: float = 0.05) -> float:
    """Velocity variance q such that P(|v| <= v_max) = 1 - tail for v ~ N(0, q).

    Folding a hard speed bound into a Gaussian: |v| <= v_max with probability
    1 - tail requires v_max^2 / q to be the (1 - tail) quantile of a
    chi-squared with one degree of freedom, so q = v_max^2 / chi2_ppf(1 - tail, 1).
    That quantile is the square of the standard normal's (1 - tail/2) quantile.
    The defaults (0.7 m/s, 5% tail) give q = 0.12756 m^2/s^2, which
    ``EkfParams`` cuts to 0.1275.
    """
    if not (math.isfinite(v_max) and v_max > 0):
        raise ValueError(f"speed bound must be finite and positive, got {v_max}")
    if not 0.0 < tail < 1.0:
        raise ValueError(f"tail probability must lie in (0, 1), got {tail}")
    # imported here: statistics, with fractions, costs every command's start-up
    from statistics import NormalDist

    return v_max**2 / NormalDist().inv_cdf(1.0 - tail / 2) ** 2


@dataclass(frozen=True)
class EkfParams:
    """Filter configuration.

    ``q`` is a velocity variance in m^2/s^2 and ``r`` the measurement-noise
    variance in dB^2. The default ``q`` is ``process_noise_from_speed()``,
    0.12756, cut to four decimals. ``d_min``/``d_max`` clamp only the
    initial estimate: a single noisy RSSI inverted through the log curve can
    land anywhere, and the plausible badge-to-asset range is known a priori. ``x_floor`` keeps
    later updates off the singularity of the measurement Jacobian at zero.
    Its numbers follow ``pathloss._number``'s rule and are stored as floats.
    """

    model: PathLossModel = DEFAULT_MODEL
    q: float = 0.1275
    r: float = 43.53
    d_min: float = 0.5
    d_max: float = 20.0
    p0: float = 4.0
    dt_mode: str = DT_SQUARED
    x_floor: float = 0.01

    def __post_init__(self) -> None:
        _floats(self, "q", "r", "d_min", "d_max", "p0", "x_floor")
        if not (math.isfinite(self.q) and self.q > 0):
            raise ValueError(f"process noise must be finite and positive, got {self.q}")
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"measurement noise must be finite and positive, got {self.r}")
        if not (math.isfinite(self.d_min) and self.d_min > 0):
            raise ValueError(f"d_min must be finite and positive, got {self.d_min}")
        if not (math.isfinite(self.d_max) and self.d_max > self.d_min):
            raise ValueError(f"d_max must exceed d_min, got {self.d_min}..{self.d_max}")
        if not (math.isfinite(self.p0) and self.p0 > 0):
            raise ValueError(f"initial variance must be finite and positive, got {self.p0}")
        if self.dt_mode not in (DT_SQUARED, DT_LINEAR):
            raise ValueError(f"dt_mode must be {DT_SQUARED!r} or {DT_LINEAR!r}, got {self.dt_mode!r}")
        if not (math.isfinite(self.x_floor) and 0 < self.x_floor <= self.d_min):
            raise ValueError(f"x_floor must lie in (0, d_min], got {self.x_floor}")


class EkfState(NamedTuple):
    """Posterior after the last processed observation.

    ``x`` is the distance estimate in meters, ``p`` its variance in m^2, and
    ``ts`` the timestamp of the observation that produced it. A named
    tuple: immutable, and equal to a plain tuple of the same values.
    """

    x: float
    p: float
    ts: float


def jacobian(model: PathLossModel, x: float) -> float:
    """Derivative of expected RSSI with respect to distance at ``x``, in dB/m."""
    if not (x > 0):
        raise ValueError(f"jacobian needs a positive distance, got {x}")
    return -10.0 * model.n / (math.log(10.0) * x)


def step(state: EkfState | None, rssi: float, ts: float, params: EkfParams) -> EkfState:
    """Process one observation: ``run_windows`` of it as one window from
    ``state``, so the first one (``state`` None) starts the filter from its
    clamped inversion and each later one predicts then updates.

    A step at ``state.ts`` is a pure measurement update: its prediction adds
    exactly 0.0 to ``p``.
    """
    return run_windows((rssi,), (ts,), (1,), params, state)[0]


def run_windows(
    rssi: Sequence[float],
    ts: Sequence[float],
    ends: Sequence[int],
    params: EkfParams,
    state: EkfState | None = None,
) -> list[EkfState]:
    """Fold consecutive windows of one time-ordered observation stream, each
    into its own filter; each window's final state.

    Window ``i`` holds the observations from ``ends[i - 1]`` (0 for the
    first) up to ``ends[i]``, and the last window ends at the last
    observation. The first window continues ``state`` when one is given and
    may then be empty; every other window starts a fresh filter from its
    first observation: its clamped inversion, variance ``p0``, at its
    timestamp. Each later observation predicts (the estimate kept, the
    variance grown by ``q * dt**2``, or ``q * dt`` under ``DT_LINEAR``, so
    a missed broadcast just widens the gap) and updates.

    This is the only code that starts or updates a filter, and a window's
    state is the one its slice gives folded alone, bit for bit: the
    parameters are read once per call, and one iterator over the
    observations is consumed window by window. The loop over plain floats
    performs the float operations of ``PathLossModel.inverse``,
    ``jacobian`` and ``PathLossModel.forward`` in the same order, so
    folding ``step`` over a stream gives the same bits. A window starts
    with no method call: the inversion is written out, clamped by two
    comparisons as ``min(max(x, d_min), d_max)`` clamps it, and each final
    state is built by ``tuple.__new__``, not by ``EkfState``'s Python-level
    constructor. The update forms ``h * p`` once for both the innovation
    variance and the gain; float multiplication commutes, so that is the
    gain ``p * h / s`` bit for bit.
    """
    if len(rssi) != len(ts):
        raise ValueError(f"got {len(rssi)} rssi values for {len(ts)} timestamps")
    if (ends[-1] if ends else 0) != len(rssi):
        raise ValueError(f"windows must end at the last of {len(rssi)} observations, got ends {list(ends)}")
    model = params.model
    d_min, d_max, p0 = params.d_min, params.d_max, params.p0
    h_num = -10.0 * model.n
    ln10 = math.log(10.0)
    slope, x0, rssi0 = 10.0 * model.n, model.x0, model.rssi0
    q, r, floor = params.q, params.r, params.x_floor
    squared = params.dt_mode == DT_SQUARED
    log10 = math.log10
    new = tuple.__new__
    obs = zip(rssi, ts)
    states = []
    lo = 0
    for hi in ends:
        if hi < lo:
            raise ValueError(f"window ends must not decrease, got {list(ends)}")
        if state is None:
            if hi == lo:
                raise ValueError("a filter needs at least one observation to start")
            z, t = next(obs)
            x, p = x0 * 10.0 ** ((rssi0 - z) / slope), p0
            if x < d_min:
                x = d_min
            elif x > d_max:
                x = d_max
            lo += 1
        else:
            x, p, t = state
            state = None
        for z, now in islice(obs, hi - lo):
            dt = now - t
            if dt < 0:
                raise ValueError(f"observations must be processed in time order ({now} < {t})")
            p = p + (q * dt * dt if squared else q * dt)
            if not (x > 0):
                raise ValueError(f"jacobian needs a positive distance, got {x}")
            h = h_num / (ln10 * x)
            y = z - (rssi0 - slope * log10(x / x0))
            hp = h * p
            s = hp * h + r
            k = hp / s
            x = x + k * y
            if x < floor:
                x = floor
            p = (1.0 - k * h) * p
            t = now
        states.append(new(EkfState, (x, p, t)))
        lo = hi
    return states
