"""Climate series loading, sampling and the synthetic generator."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfe2.climate import (ClimateError, ClimateSeries, load_climate_series,
                            sample_climate, synthetic_annual_climate)


def write_csv(tmp_path, body, name="climate.csv"):
    path = tmp_path / name
    path.write_text("time_h,temp_C,humidity\n" + body)
    return str(path)


class TestLoading:

    def test_two_rows_give_length_two(self, tmp_path):
        path = write_csv(tmp_path, "0,10,0.5\n1,12,0.6\n")
        series = load_climate_series(path)
        assert len(series) == 2
        assert series.times.tolist() == [0.0, 1.0]
        assert series.temperature.tolist() == [10.0, 12.0]
        assert series.humidity.tolist() == [0.5, 0.6]

    def test_humidity_out_of_range_names_the_line(self, tmp_path):
        path = write_csv(tmp_path, "0,10,0.5\n1,12,1.2\n")
        with pytest.raises(ClimateError, match=r":3:"):
            load_climate_series(path)

    def test_non_increasing_times_name_the_line(self, tmp_path):
        path = write_csv(tmp_path, "0,10,0.5\n2,12,0.6\n1,11,0.55\n")
        with pytest.raises(ClimateError, match=r":4:.*increas"):
            load_climate_series(path)

    def test_malformed_number_names_the_line(self, tmp_path):
        path = write_csv(tmp_path, "0,10,0.5\n1,twelve,0.6\n")
        with pytest.raises(ClimateError, match=r":3:"):
            load_climate_series(path)

    def test_wrong_column_count_names_the_line(self, tmp_path):
        path = write_csv(tmp_path, "0,10\n")
        with pytest.raises(ClimateError, match=r":2:.*values"):
            load_climate_series(path)

    def test_empty_body_is_an_error(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(ClimateError, match="no data rows"):
            load_climate_series(path)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        series = ClimateSeries(np.sort(rng.uniform(0, 100, 9)),
                               rng.uniform(-20, 40, 9),
                               rng.uniform(0.0, 1.0, 9))
        # 17 significant digits print every double exactly
        path = write_csv(tmp_path, "".join(
            "%.17g,%.17g,%.17g\n" % row for row in
            zip(series.times, series.temperature, series.humidity)))
        back = load_climate_series(path)
        assert np.array_equal(back.times, series.times)
        assert np.array_equal(back.temperature, series.temperature)
        assert np.array_equal(back.humidity, series.humidity)


class TestSampling:

    def series(self):
        return ClimateSeries([0.0, 1.0], [10.0, 12.0], [0.5, 0.6])

    def test_midpoint_interpolates_linearly(self):
        temp, hum = sample_climate(self.series(), 0.5)
        assert temp == pytest.approx(11.0)
        assert hum == pytest.approx(0.55)

    def test_sample_at_grid_point_is_exact(self):
        temp, hum = sample_climate(self.series(), 1.0)
        assert temp == 12.0 and hum == 0.6

    def test_periodic_wrap_beyond_span(self):
        # span 8760 h; 8761 h must equal the sample at 1 h
        t = np.linspace(0.0, 8760.0, 100)
        rng = np.random.default_rng(0)
        series = ClimateSeries(t, rng.uniform(-5, 25, 100),
                               rng.uniform(0.2, 0.9, 100), policy="periodic")
        assert sample_climate(series, 8761.0) == sample_climate(series, 1.0)
        assert sample_climate(series, -1.0) == sample_climate(series, 8759.0)

    def test_clamp_holds_end_values(self):
        series = replace(self.series(), policy="clamp")
        assert sample_climate(series, -5.0) == (10.0, 0.5)
        assert sample_climate(series, 99.0) == (12.0, 0.6)

    def test_single_sample_series_is_constant(self):
        series = ClimateSeries([3.0], [21.0], [0.4])
        assert sample_climate(series, -10.0) == (21.0, 0.4)
        assert sample_climate(series, 50.0) == (21.0, 0.4)

    def test_vector_sampling_matches_scalar(self):
        series = synthetic_annual_climate(seed=1, dt_hours=6.0, days=30)
        ts = np.array([0.0, 5.5, 700.0, 1500.0])
        temp, hum = sample_climate(series, ts)
        for k, t in enumerate(ts):
            t_s, h_s = sample_climate(series, float(t))
            assert temp[k] == t_s and hum[k] == h_s

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.05, 50.0),
           st.floats(-3.0, 3.0))
    def test_sampling_is_continuous(self, seed, span, frac):
        """Small offsets move the sample a proportionally small amount.

        Holds everywhere except across the periodic wrap seam, so the
        probe points stay a step away from multiples of the span.
        """
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        times = np.sort(rng.uniform(0.0, span, n))
        times[0], times[-1] = 0.0, span
        series = ClimateSeries(times, rng.uniform(-20, 40, n),
                               rng.uniform(0, 1, n), policy="periodic")
        eps = 1e-7 * span
        t = frac * span
        if abs(t % span) < 2 * eps or abs(span - (t % span)) < 2 * eps:
            t += 0.1 * span
        a = np.array(sample_climate(series, t - eps))
        b = np.array(sample_climate(series, t + eps))
        # steepest admissible slope: full range over smallest interval
        gap = np.diff(times).min()
        limit = 2 * eps * np.array([60.0, 1.0]) / gap + 1e-12
        assert np.all(np.abs(b - a) <= limit)


class TestValidation:

    def test_rejects_unsorted_times(self):
        with pytest.raises(ClimateError, match="increas"):
            ClimateSeries([0.0, 2.0, 1.0], [1, 2, 3], [0.5, 0.5, 0.5])

    def test_rejects_humidity_outside_unit_interval(self):
        with pytest.raises(ClimateError, match="humidity"):
            ClimateSeries([0.0, 1.0], [1, 2], [0.5, 1.5])

    def test_rejects_unknown_policy(self):
        with pytest.raises(ClimateError, match="policy"):
            ClimateSeries([0.0], [1.0], [0.5], policy="mirror")

    def test_rejects_length_mismatch(self):
        with pytest.raises(ClimateError, match="length"):
            ClimateSeries([0.0, 1.0], [1.0], [0.5, 0.5])


class TestSynthetic:

    def test_same_seed_reproduces_bitwise(self):
        a = synthetic_annual_climate(seed=42)
        b = synthetic_annual_climate(seed=42)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.temperature, b.temperature)
        assert np.array_equal(a.humidity, b.humidity)

    def test_different_seeds_differ(self):
        a = synthetic_annual_climate(seed=0)
        b = synthetic_annual_climate(seed=1)
        assert not np.array_equal(a.temperature, b.temperature)

    def test_output_is_a_valid_year(self):
        series = synthetic_annual_climate(seed=5, dt_hours=3.0)
        assert series.span == pytest.approx(8760.0)
        assert np.all(np.diff(series.times) > 0)
        assert np.all(series.humidity >= 0.05)
        assert np.all(series.humidity <= 0.98)
        # winter (early January) should be colder than mid July on average
        jan = series.temperature[series.times < 14 * 24]
        jul = series.temperature[(series.times > 190 * 24)
                                 & (series.times < 204 * 24)]
        assert jan.mean() + 5.0 < jul.mean()
