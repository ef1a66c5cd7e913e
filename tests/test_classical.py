import math

import numpy as np
import pytest

from ringwalk import (
    ConfigurationError,
    DomainError,
    PureState,
    classical_mixing_time,
    classical_series,
    position_mixedness,
)
from ringwalk.classical import spectral_mixing_time
from oracles import classical_step, classical_transition_matrix, shannon_entropy


class TestClassicalStep:
    def test_single_hop(self):
        out = classical_step(np.array([1.0, 0.0, 0.0]))
        assert np.abs(out - np.array([0.0, 0.5, 0.5])).max() < 1e-15

    def test_uniform_fixed_point(self):
        p = np.full(7, 1.0 / 7.0)
        assert np.abs(classical_step(p) - p).max() < 1e-15

    def test_conservation_and_nonnegativity(self):
        rng = np.random.default_rng(0)
        p = rng.random(9)
        p /= p.sum()
        for _ in range(50):
            p = classical_step(p)
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) < 1e-12

    def test_rejects_invalid_input(self):
        with pytest.raises(DomainError):
            classical_step(np.array([0.5, 0.6, 0.1]))
        with pytest.raises(DomainError):
            classical_step(np.array([1.2, -0.2, 0.0]))
        with pytest.raises(ConfigurationError):
            classical_step(np.array([0.5, 0.5]))  # even ring

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            classical_step(np.array([]))

    @pytest.mark.parametrize("where", [0, 1])
    def test_rejects_nan(self, where):
        p = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
        p[where] = np.nan
        with pytest.raises(DomainError):
            classical_step(p)


class TestDistanceSeries:
    def test_initial_distance(self):
        for d_s in (3, 11, 51):
            series = classical_series(d_s, 5).d_omega
            assert series[0] == pytest.approx((d_s - 1) / d_s, abs=1e-14)

    def test_one_step_total_variation(self):
        series = classical_series(3, 1).d_omega
        assert series[1] == pytest.approx(1.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("d_s", [3, 5, 11, 25, 51])
    def test_monotone_non_increasing(self, d_s):
        series = classical_series(d_s, 10_000).d_omega
        assert (np.diff(series) <= 1e-15).all()

    def test_matches_transition_matrix_powers(self):
        for d_s in (3, 7, 11):
            m = classical_transition_matrix(d_s)
            p = np.zeros(d_s)
            p[0] = 1.0
            series = classical_series(d_s, 100).d_omega
            for t in range(101):
                expected = 0.5 * np.abs(p - 1.0 / d_s).sum()
                assert abs(series[t] - expected) < 1e-12
                p = m @ p

    def test_asymptotic_decay_rate(self):
        # Late-time ratio approaches the subdominant eigenvalue magnitude;
        # probe while the distance is still far above the rounding floor.
        for d_s, t in ((5, 40), (11, 320)):
            series = classical_series(d_s, t).d_omega
            ratio = series[t] / series[t - 1]
            assert ratio == pytest.approx(math.cos(math.pi / d_s), abs=1e-9)


class TestClassicalSeries:
    def test_entropy_column_is_shannon(self):
        series = classical_series(5, 10)
        p = np.zeros(5)
        p[0] = 1.0
        assert series.entropy[0] == shannon_entropy(p)
        assert series.entropy[-1] <= math.log(5) + 1e-12
        assert series.metadata["kind"] == "classical"

    def test_rejects_even_sites(self):
        with pytest.raises(ConfigurationError):
            classical_series(4, 10)

    @pytest.mark.parametrize("steps", [-1], ids=["steps-negative"])
    def test_rejects_bad_start_or_steps(self, steps):
        with pytest.raises(ConfigurationError):
            classical_series(5, steps)

    def test_rows_equal_quantum_observer_on_diagonal_state(self):
        # Amplitude sqrt(p_s) at (s, c=0, e=s) gives the position reduction
        # diag(p): the quantum observer must read the classical row for p.
        d_s, d_e, steps = 11, 13, 40
        series = classical_series(d_s, steps)
        p = np.zeros(d_s)
        p[0] = 1.0
        for t in range(steps + 1):
            tens = np.zeros((d_s, 2, d_e), dtype=np.complex128)
            tens[np.arange(d_s), 0, np.arange(d_s)] = np.sqrt(p)
            d, h = position_mixedness(PureState(d_s, d_e, tens.reshape(-1)))
            assert abs(d - series.d_omega[t]) <= 1e-14
            assert abs(h - series.entropy[t]) <= 1e-14
            p = classical_step(p)


class TestMixingTime:
    def test_spectral_closed_form(self):
        assert spectral_mixing_time(3) == pytest.approx(1.0 / math.log(2.0), abs=1e-12)

    def test_fit_close_to_spectral(self):
        for d_s in (3, 11):
            fit, spectral = classical_mixing_time(d_s)
            assert abs(fit.params["tau_mix"] - spectral) / spectral < 0.05

    def test_reports_both_fit_and_spectral(self):
        fit, spectral = classical_mixing_time(11)
        assert fit.params["tau_mix"] > 0
        assert fit.std_errors["tau_mix"] >= 0
        assert spectral == spectral_mixing_time(11)
