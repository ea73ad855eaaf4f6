"""Linear catalytic dynamics on the technology network.

Activity grows along incoming links: with adjacency C (source, receiver), the
rate of field j is the summed activity of its catalysing sources, so the
generator applied to the activity vector is C transposed. A single link i -> j
gives y_j(t) = y_j(0) + y_i(0) t while every other field stays constant; any
cycle produces exponential growth at the network's leading eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts
from .fdr import TechnologyNetwork

OVERFLOW_LIMIT = 1e300


class BlowupError(RuntimeError):
    """Trajectory exceeded the overflow guard before t_end."""

    def __init__(self, blow_up_time: float):
        super().__init__(f"activity exceeded {OVERFLOW_LIMIT:g} at t={blow_up_time:g}")
        self.blow_up_time = blow_up_time


class TimeGridError(ValueError):
    """A time step, horizon or growth-rate window that gives no usable time grid."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    fields: tuple[str, ...]
    times: np.ndarray
    activities: np.ndarray  # shape (len(times), len(fields))

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True, eq=False)
class GrowthRates:
    fields: tuple[str, ...]
    rates: np.ndarray
    sub_exponential: np.ndarray  # bool per field


def simulate_linear(
    net: TechnologyNetwork, y0: np.ndarray, t_end: float, dt: float = 1e-2
) -> Trajectory:
    """Integrate the linear dynamics with fixed-step fourth-order Runge-Kutta.

    The system is linear and smooth, so a fixed step suffices; dt is both the
    integration step and the sampling grid. Raises BlowupError with the time
    of first overflow when activity passes the guard before t_end.
    """
    if dt <= 0:
        raise TimeGridError("dt must be positive")
    if t_end < 0:
        raise TimeGridError("t_end must be nonnegative")
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (len(net.fields),):
        raise ValueError("y0 length must match the field set")
    if np.any(y0 < 0):
        raise ValueError("y0 must be nonnegative")

    generator = net.adjacency.T.astype(np.float64)
    n_steps = int(np.ceil(t_end / dt - 1e-12)) if t_end > 0 else 0
    times = [0.0]
    states = [y0.copy()]
    y = y0.copy()
    t = 0.0
    for step in range(n_steps):
        h = min(dt, t_end - t)
        k1 = generator @ y
        k2 = generator @ (y + 0.5 * h * k1)
        k3 = generator @ (y + 0.5 * h * k2)
        k4 = generator @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        if not np.all(np.isfinite(y)) or np.abs(y).max() > OVERFLOW_LIMIT:
            raise BlowupError(t)
        times.append(t)
        states.append(y.copy())
    return Trajectory(fields=net.fields, times=np.array(times), activities=np.array(states))


def _slope(times: np.ndarray, values: np.ndarray) -> float:
    t_centered = times - times.mean()
    denom = float(t_centered @ t_centered)
    if denom == 0.0:
        raise TimeGridError("degenerate fit window")
    return float(t_centered @ (values - values.mean()) / denom)


def estimate_growth_rate(
    traj: Trajectory, window: float, floor: float = 1e-12
) -> GrowthRates:
    """Least-squares slope of log-activity over the trailing window.

    Fields whose activity stays below the floor get rate 0 and the
    sub-exponential marker. Fields with a clearly decaying local slope across
    the two window halves (polynomial growth) are also marked sub-exponential;
    a genuine exponential holds a constant slope.
    """
    if window <= 0:
        raise TimeGridError("window must be positive")
    t_last = traj.t_end
    mask = traj.times >= t_last - window - 1e-12
    if int(mask.sum()) < 4:
        raise TimeGridError("window must contain at least 4 trajectory samples")
    times = traj.times[mask]
    values = traj.activities[mask]

    n_fields = len(traj.fields)
    rates = np.zeros(n_fields)
    sub_exp = np.zeros(n_fields, dtype=bool)
    half = len(times) // 2
    for i in range(n_fields):
        y = values[:, i]
        if y.max() < floor:
            sub_exp[i] = True
            continue
        if y.min() <= 0.0:
            # touched zero inside the window: no exponential regime yet
            sub_exp[i] = True
            continue
        log_y = np.log(y)
        rates[i] = _slope(times, log_y)
        s1 = _slope(times[:half], log_y[:half])
        s2 = _slope(times[half:], log_y[half:])
        if (s1 - s2) > max(0.02 * abs(s1), 1e-6):
            sub_exp[i] = True
    return GrowthRates(fields=traj.fields, rates=rates, sub_exponential=sub_exp)


def trajectory_to_text(traj: Trajectory) -> str:
    """Export 't,field,y' rows on the sampling grid."""
    return artifacts.rows_to_text(
        (t, code, y)
        for t, ys in zip(traj.times.tolist(), traj.activities.tolist())
        for code, y in zip(traj.fields, ys)
    )
