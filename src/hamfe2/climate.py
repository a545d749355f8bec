"""Climate boundary series: file parsing, sampling and synthesis.

Exterior walls see time-varying temperature and relative humidity.
Series are kept in hours (the unit of every user-facing time axis) as
plain arrays; sampling interpolates linearly and extends beyond the
recorded span either periodically (annual records wrap around) or by
clamping to the end values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POLICIES = ("periodic", "clamp")


class ClimateError(ValueError):
    pass


@dataclass(frozen=True)
class ClimateSeries:
    """Sampled exterior conditions over a recorded time span."""

    times: np.ndarray        # (n,) hours, strictly increasing
    temperature: np.ndarray  # (n,) deg C
    humidity: np.ndarray     # (n,) relative humidity in [0, 1]
    policy: str = "periodic"

    def __post_init__(self):
        for name in ("times", "temperature", "humidity"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name),
                                                  dtype=float))
            if arr.ndim != 1:
                raise ClimateError(f"{name} must be one-dimensional")
            if not np.all(np.isfinite(arr)):
                raise ClimateError(f"{name} contains non-finite entries")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = self.times.size
        if n == 0:
            raise ClimateError("a climate series needs at least one sample")
        if self.temperature.size != n or self.humidity.size != n:
            raise ClimateError("times, temperature and humidity differ in length")
        if n > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ClimateError("sample times must increase strictly")
        if self.humidity.min() < 0.0 or self.humidity.max() > 1.0:
            raise ClimateError("humidity values must lie in [0, 1]")
        if self.policy not in POLICIES:
            raise ClimateError(f"unknown extension policy '{self.policy}'; "
                               f"choose one of {POLICIES}")

    def __len__(self):
        return self.times.size

    @property
    def span(self):
        """Recorded duration in hours."""
        return float(self.times[-1] - self.times[0])


def load_climate_series(path, policy="periodic") -> ClimateSeries:
    """Read a series from CSV with a one-line header.

    Rows are time_h, temp_C, humidity. Validation errors cite the
    one-based line number of the offending row.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 or not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ClimateError(
                f"{path}:{lineno}: expected 3 comma-separated values, "
                f"got {len(parts)}")
        try:
            row = tuple(float(p) for p in parts)
        except ValueError:
            raise ClimateError(f"{path}:{lineno}: malformed number in "
                               f"'{line.strip()}'") from None
        if not all(np.isfinite(row)):
            raise ClimateError(f"{path}:{lineno}: non-finite value")
        if not 0.0 <= row[2] <= 1.0:
            raise ClimateError(
                f"{path}:{lineno}: humidity {row[2]} outside [0, 1]")
        if rows and row[0] <= rows[-1][0]:
            raise ClimateError(
                f"{path}:{lineno}: time {row[0]} does not increase over "
                f"the previous sample at {rows[-1][0]}")
        rows.append(row)
    if not rows:
        raise ClimateError(f"{path}: no data rows")
    data = np.array(rows)
    return ClimateSeries(data[:, 0], data[:, 1], data[:, 2], policy)


def sample_climate(series: ClimateSeries, t):
    """Sampled (temperature, humidity) at time t [h].

    Inside the recorded span the value is the linear interpolant;
    outside, periodic series wrap modulo the span while clamped series
    hold the end samples. Accepts scalars or arrays.
    """
    t_arr = np.asarray(t, dtype=float)
    t0, t1 = series.times[0], series.times[-1]
    if len(series) == 1 or series.span == 0.0:
        tau = np.full_like(t_arr, t0)
    elif series.policy == "periodic":
        inside = (t_arr >= t0) & (t_arr <= t1)
        tau = np.where(inside, t_arr, t0 + np.mod(t_arr - t0, series.span))
    else:
        tau = np.clip(t_arr, t0, t1)
    theta = np.interp(tau, series.times, series.temperature)
    phi = np.interp(tau, series.times, series.humidity)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(theta), float(phi)
    return theta, phi


def synthetic_annual_climate(seed=0, dt_hours=3.0, days=365,
                             policy="periodic") -> ClimateSeries:
    """Deterministic stand-in for a measured annual record.

    Temperature: 11 + 10 sin(2 pi (d - 106) / 365) seasonal swing plus
    a 4 K daily cycle and Gaussian noise (sigma 1.2 K). Humidity moves
    against the temperature around 0.72 with sigma 0.04 noise, clipped
    to [0.05, 0.98]. All randomness comes from the given seed.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(0.0, days * 24.0 + 0.5 * dt_hours, dt_hours)
    day = t / 24.0
    seasonal = np.sin(2.0 * np.pi * (day - 106.0) / 365.0)
    daily = np.sin(2.0 * np.pi * (t - 9.0) / 24.0)
    temp = 11.0 + 10.0 * seasonal + 2.0 * daily + rng.normal(0.0, 1.2, t.size)
    hum = 0.72 - 0.12 * seasonal - 0.04 * daily + rng.normal(0.0, 0.04, t.size)
    return ClimateSeries(t, temp, np.clip(hum, 0.05, 0.98), policy)
