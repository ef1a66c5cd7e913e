import json
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from ringwalk import (
    ConfigurationError,
    DomainError,
    FitWindowError,
    LocalEnvironment,
    NonlocalEnvironment,
    NonlocalTemplate,
    ObservableSeries,
    QuenchSampleError,
    WalkModel,
    default_average_start,
    fit_exponential_mixing,
    fit_power_law,
    long_time_average,
    mixing_fit,
    quench_average,
    select_fit_window,
    walk_series,
)
from ringwalk import _blas, analysis, core
from ringwalk.cli import main


def test_package_leaves_module_helpers_in_their_modules():
    import ringwalk
    from ringwalk import classical, core, envgen

    for module, name in [
        (envgen, "sample_hermitian"),
        (envgen, "matrix_to_json"),
        (classical, "spectral_mixing_time"),
        (core, "step_local"),
        (core, "step_nonlocal"),
    ]:
        assert not hasattr(ringwalk, name)
        assert callable(getattr(module, name))


def synthetic_series(d_values, metadata=None):
    d = np.asarray(d_values, dtype=float)
    return ObservableSeries(np.arange(d.size), d, np.zeros_like(d), metadata or {})


class TestObservableSeries:
    def test_rejects_ragged_columns(self):
        with pytest.raises(DomainError):
            ObservableSeries(np.arange(3), np.zeros(3), np.zeros(4), {})

    def test_rejects_non_unit_time_steps(self):
        with pytest.raises(DomainError):
            ObservableSeries(np.array([0, 2, 4]), np.zeros(3), np.zeros(3), {})
        with pytest.raises(DomainError):
            ObservableSeries(np.array([1, 2, 3]), np.zeros(3), np.zeros(3), {})


class TestSelectFitWindow:
    def test_pure_exponential(self):
        t = np.arange(201)
        series = synthetic_series(np.exp(-t / 10.0))
        t1, t2 = select_fit_window(series)
        assert t1 <= 5
        # The tail mean is below 1e-6, so the window ends at the last step above
        # 1e-6: t < 10 ln 1e6 = 138.2.
        assert t2 == 138
        fit = fit_exponential_mixing(series, (t1, t2))
        assert fit.params["tau_mix"] == pytest.approx(10.0, abs=1e-9)

    def test_stops_before_plateau(self):
        t = np.arange(201)
        series = synthetic_series(np.maximum(np.exp(-t / 30.0), 0.3))
        t1, t2 = select_fit_window(series)
        assert (t1, t2) == (4, 23)
        assert series.d_omega[t1 : t2 + 1].min() > 0.45

    def test_constant_series_rejected(self):
        with pytest.raises(FitWindowError):
            select_fit_window(synthetic_series(np.full(100, 0.5)))

    def test_short_series_rejected(self):
        with pytest.raises(FitWindowError):
            select_fit_window(synthetic_series(np.exp(-np.arange(30) / 5.0)))

    def test_ballistic_transient_skipped(self):
        t = np.arange(400)
        series = synthetic_series(np.exp(-t / 40.0), metadata={"d_s": 51})
        t1, _ = select_fit_window(series)
        assert t1 >= 26  # ceil(51 / 2)

    def test_plateau_reached_by_the_window_start_names_the_crossing(self):
        # Below 1.5x the plateau from step 1, but the window starts at ceil(11 / 2).
        series = synthetic_series(np.r_[1.0, np.full(99, 0.05)], metadata={"d_s": 11})
        with pytest.raises(FitWindowError) as info:
            select_fit_window(series)
        assert str(info.value) == (
            "series first falls below 1.5x its plateau estimate 0.05 at step 1, "
            "at or before the window start t1 = 6; there is no decay to fit"
        )

    def test_vanishing_series_rejected(self):
        with pytest.raises(FitWindowError, match="^series vanishes everywhere$"):
            select_fit_window(synthetic_series(np.zeros(100)))

    def test_window_ending_after_its_start_is_too_short(self):
        series = synthetic_series(np.r_[1.0, 0.8, 0.5, np.full(97, 0.05)])
        with pytest.raises(FitWindowError, match=r"window \[1, 2\] is too short"):
            select_fit_window(series)


class TestMixingFit:
    def test_is_the_window_then_fit_pair(self):
        t = np.arange(301)
        series = synthetic_series(0.8 * np.exp(-t / 25.0) + 0.05, metadata={"d_s": 11})
        assert mixing_fit(series) == fit_exponential_mixing(series, select_fit_window(series))

    def test_raises_where_the_window_rule_does(self):
        with pytest.raises(FitWindowError):
            mixing_fit(synthetic_series(np.full(100, 0.5)))

    def test_rules_are_looked_up_in_the_module(self, monkeypatch):
        # The benchmark tracer wraps these module attributes.
        monkeypatch.setattr(analysis, "select_fit_window", lambda series: (2, 40))
        series = synthetic_series(np.exp(-np.arange(200) / 10.0))
        assert mixing_fit(series).window == (2, 40)


class TestFitExponential:
    def test_exact_exponential(self):
        t = np.arange(200)
        series = synthetic_series(np.exp(-t / 10.0))
        fit = fit_exponential_mixing(series, (1, 150))
        assert fit.params["tau_mix"] == pytest.approx(10.0, abs=1e-9)
        assert fit.std_errors["tau_mix"] == pytest.approx(0.0, abs=1e-9)
        assert fit.residual_rms < 1e-12

    def test_prefactor_irrelevant(self):
        t = np.arange(300)
        series = synthetic_series(0.5 * np.exp(-t / 25.0))
        fit = fit_exponential_mixing(series, (0, 250))
        assert fit.params["tau_mix"] == pytest.approx(25.0, abs=1e-9)

    def test_unbiased_under_lognormal_noise(self):
        rng = np.random.default_rng(42)
        t = np.arange(201)
        tau_true = 20.0
        estimates = []
        for _ in range(100):
            noisy = np.exp(-t / tau_true) * np.exp(rng.normal(0.0, 0.1, t.size))
            fit = fit_exponential_mixing(synthetic_series(noisy), (0, 150))
            estimates.append(fit.params["tau_mix"])
        assert abs(np.mean(estimates) - tau_true) / tau_true < 0.02

    def test_rejects_nonpositive_values(self):
        d = np.exp(-np.arange(100) / 5.0)
        d[40] = 0.0
        with pytest.raises(DomainError):
            fit_exponential_mixing(synthetic_series(d), (0, 80))

    def test_rejects_growth(self):
        with pytest.raises(DomainError):
            fit_exponential_mixing(synthetic_series(np.exp(np.arange(100) / 30.0)), (0, 90))

    def test_rejects_bad_window(self):
        series = synthetic_series(np.exp(-np.arange(100) / 5.0))
        with pytest.raises(DomainError):
            fit_exponential_mixing(series, (50, 40))
        with pytest.raises(DomainError):
            fit_exponential_mixing(series, (0, 120))

    @pytest.mark.parametrize("window", [(3, 4), (3, 3)], ids=["two-points", "one-point"])
    def test_rejects_short_window(self, window):
        series = synthetic_series(np.exp(-np.arange(20) / 5.0))
        with pytest.raises(DomainError):
            fit_exponential_mixing(series, window)


class TestLongTimeAverage:
    def test_constant_series(self):
        assert long_time_average(synthetic_series(np.full(60, 0.3)), 10, 50) == pytest.approx(
            0.3, abs=1e-15
        )

    def test_single_point(self):
        series = synthetic_series(np.linspace(1.0, 0.0, 60))
        assert long_time_average(series, 17, 17) == series.d_omega[17]

    def test_subwindow_additivity(self):
        rng = np.random.default_rng(7)
        series = synthetic_series(rng.random(101))
        t0, mid, t1 = 10, 40, 90
        whole = long_time_average(series, t0, t1)
        left = long_time_average(series, t0, mid)
        right = long_time_average(series, mid + 1, t1)
        n_left, n_right = mid - t0 + 1, t1 - mid
        stitched = (left * n_left + right * n_right) / (n_left + n_right)
        assert whole == pytest.approx(stitched, abs=1e-12)

    def test_empty_range_rejected(self):
        series = synthetic_series(np.ones(20))
        with pytest.raises(DomainError):
            long_time_average(series, 15, 10)
        with pytest.raises(DomainError):
            long_time_average(series, 0, 25)

    def test_default_start_is_capped(self):
        series = synthetic_series(np.ones(101))
        assert default_average_start(series, (0, 40), tau=5.0) == 50
        assert default_average_start(series, (0, 10), tau=2.0) == 20

    @pytest.mark.parametrize("tau", [0.0, -3.0])
    def test_default_start_rejects_nonpositive_tau(self, tau):
        with pytest.raises(DomainError):
            default_average_start(synthetic_series(np.ones(101)), (0, 40), tau)


class TestFitPowerLaw:
    def test_exact_power_law(self):
        r = np.array([1.5, 2.0, 4.0, 8.0, 16.0, 40.0])
        fit = fit_power_law([(ri, 0.44 * ri**-0.5) for ri in r])
        assert fit.params["C"] == pytest.approx(0.44, abs=1e-9)
        assert fit.params["x"] == pytest.approx(0.5, abs=1e-9)
        assert fit.residual_rms < 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        pts = [(r, 0.5 * r**-0.6 * math.exp(rng.normal(0, 0.02))) for r in (2, 3, 5, 9, 20)]
        fit1 = fit_power_law(pts)
        fit2 = fit_power_law(list(reversed(pts)))
        assert fit1.params["C"] == pytest.approx(fit2.params["C"], rel=1e-12)
        assert fit1.params["x"] == pytest.approx(fit2.params["x"], rel=1e-12)

    def test_requires_four_points(self):
        with pytest.raises(DomainError):
            fit_power_law([(2.0, 0.3), (3.0, 0.25), (4.0, 0.2)])

    def test_rejects_small_ratios_and_nonpositive_values(self):
        with pytest.raises(DomainError):
            fit_power_law([(0.9, 0.3), (2.0, 0.2), (3.0, 0.1), (4.0, 0.05)])
        with pytest.raises(DomainError):
            fit_power_law([(2.0, 0.3), (3.0, -0.2), (4.0, 0.1), (5.0, 0.05)])

    def test_requires_two_distinct_ratios(self):
        # One repeated ratio leaves the log-log slope undetermined.
        with pytest.raises(DomainError, match="need at least 2 distinct ratios, got only 2"):
            fit_power_law([(2, 0.3)] * 4)


class TestNonlocalTemplate:
    @pytest.mark.parametrize("kwargs", [
        {"d_s": 4, "d_e": 2},
        {"d_s": 5, "d_e": 0},
        {"d_s": 5, "d_e": 2, "spread": 0.0},
        {"d_s": 5, "d_e": 2, "spread": -1.0},
        {"d_s": 5, "d_e": 2, "spread": math.inf},
        {"d_s": 5, "d_e": 2, "spread": math.nan},
        {"d_s": 5, "d_e": 2, "coin": [[1.0, 1.0], [0.0, 1.0]]},
        {"d_s": 5, "d_e": 2, "initial_coin": [1.0, 1.0]},
    ], ids=["even-sites", "d_e-0", "spread-0", "spread-negative", "spread-inf", "spread-nan",
            "non-unitary-coin", "non-unit-initial-coin"])
    def test_rejects_bad_field(self, kwargs):
        with pytest.raises(ConfigurationError):
            NonlocalTemplate(**kwargs)

    def test_checks_by_the_model_rules(self):
        from ringwalk import NonlocalEnvironment, WalkModel

        coin = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ConfigurationError) as from_template:
            NonlocalTemplate(d_s=5, d_e=2, coin=coin)
        with pytest.raises(ConfigurationError) as from_model:
            WalkModel(5, NonlocalEnvironment(np.eye(2), np.eye(2)), coin=coin)
        assert str(from_template.value) == str(from_model.value)

    def test_realize_walks_in_the_eigenbasis_of_e0(self):
        from ringwalk import rng_stream, sample_environment_pair

        model = NonlocalTemplate(d_s=5, d_e=3).realize(31, 2)
        pair = sample_environment_pair(3, 1.0, rng_stream(31, 2))
        phases, basis = pair.e0_eigen
        _, e1 = pair
        assert np.array_equal(model.environment.e0, phases)
        assert np.abs(model.environment.e1 - basis.conj().T @ e1 @ basis).max() < 1e-14
        assert np.abs(model.initial_env - basis.conj().T @ np.eye(3)[0]).max() < 1e-15
        assert model.describe()["bath_basis"] == "e0 eigenbasis"

    def test_realize_rebuilds_the_sampled_pair(self):
        from ringwalk import rng_stream, sample_environment_pair

        model = NonlocalTemplate(d_s=5, d_e=6).realize(18)
        pair = sample_environment_pair(6, 1.0, rng_stream(18))
        e0, e1 = pair
        back = pair.e0_eigen[1]
        to_basis = back.conj().T
        assert np.abs(back @ np.diag(model.environment.e0) @ to_basis - e0).max() < 1e-13
        assert np.abs(back @ model.environment.e1 @ to_basis - e1).max() < 1e-13
        assert np.array_equal(model.initial_env, to_basis @ np.eye(6)[0])

    def test_realize_draws_through_the_module_global(self, monkeypatch):
        # The benchmark's tracer counts the draws by replacing this attribute.
        draw, calls = analysis.sample_environment_pair, []

        def counted(*args):
            calls.append(args[:2])
            return draw(*args)

        monkeypatch.setattr(analysis, "sample_environment_pair", counted)
        template = NonlocalTemplate(d_s=5, d_e=3, spread=0.5)
        template.realize(1, 0)
        assert calls == [(3, 0.5)]
        template.realize(1, 1)
        assert calls == [(3, 0.5)] * 2

    @pytest.mark.parametrize("d_e", [1, 2, 7, 64])
    def test_realize_matches_the_two_product_construction(self, d_e):
        from ringwalk import envgen, rng_stream, sample_environment_pair

        model = NonlocalTemplate(d_s=5, d_e=d_e).realize(37, d_e)
        pair = sample_environment_pair(d_e, 1.0, rng_stream(37, d_e))
        to_basis = pair.e0_eigen[1].conj().T
        phases1, basis1 = pair.e1_eigen
        e1 = envgen._from_eigensystem(phases1, to_basis @ basis1)
        assert np.array_equal(model.environment.e1, e1)
        assert np.array_equal(model.initial_env, to_basis[:, 0])

    def test_realize_holds_at_most_four_bath_matrices(self):
        import tracemalloc

        template = NonlocalTemplate(d_s=51, d_e=160)
        template.realize(0, 0)  # first calls out of the way
        tracemalloc.start()
        try:
            template.realize(1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # V0, V0^H V1, its phase-scaled copy and the rotated e1; V1 goes once
        # V0^H V1 exists.
        assert peak <= 4.2 * 16 * 160**2

    def test_arrays_stored_read_only(self):
        template = NonlocalTemplate(d_s=5, d_e=2, coin=np.eye(2), initial_coin=[1.0, 0.0])
        for a in (template.coin, template.initial_coin):
            assert a.dtype == np.complex128
            assert not a.flags.writeable


class TestQuenchAverage:
    def test_single_sample_equals_run(self):
        template = NonlocalTemplate(d_s=5, d_e=3)
        result = quench_average(template, 1, 11, 50)
        direct = walk_series(template.realize(11, 0), 50)
        assert np.array_equal(result.mean.d_omega, direct.d_omega)
        assert np.array_equal(result.mean.entropy, direct.entropy)
        assert np.all(result.d_omega_std == 0.0)

    def test_deterministic(self):
        template = NonlocalTemplate(d_s=5, d_e=3)
        r1 = quench_average(template, 4, 13, 40)
        r2 = quench_average(template, 4, 13, 40)
        assert np.array_equal(r1.mean.d_omega, r2.mean.d_omega)
        assert np.array_equal(r1.d_omega_std, r2.d_omega_std)

    def test_mean_between_pointwise_extremes(self):
        template = NonlocalTemplate(d_s=7, d_e=4)
        result = quench_average(template, 5, 17, 60)
        stack = np.stack([s.d_omega for s in result.samples])
        assert (result.mean.d_omega >= stack.min(axis=0) - 1e-15).all()
        assert (result.mean.d_omega <= stack.max(axis=0) + 1e-15).all()

    def test_sample_metadata_records_stream(self):
        template = NonlocalTemplate(d_s=5, d_e=2)
        result = quench_average(template, 3, (7, 2), 30)
        assert [s.metadata["seed_path"] for s in result.samples] == [
            [7, 2, 0],
            [7, 2, 1],
            [7, 2, 2],
        ]
        assert result.mean.metadata["n_samples"] == 3
        assert result.mean.metadata["base_seed"] == [7, 2]
        # The stream is recorded once, as seed_path or base_seed, and never as "seed".
        assert all("seed" not in s.metadata for s in [result.mean, *result.samples])

    # A non-default coin and initial coin, so the job must carry the whole template.
    TEMPLATE = NonlocalTemplate(
        d_s=7, d_e=3, coin=np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2),
        initial_coin=[0.6, 0.8j],
    )

    @staticmethod
    def _assert_same_series(a, b):
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.d_omega, b.d_omega)
        assert np.array_equal(a.entropy, b.entropy)
        assert a.metadata == b.metadata

    def test_samples_are_the_per_sample_jobs(self):
        result = quench_average(self.TEMPLATE, 3, (5, 1), 40)
        assert len(result.samples) == 3
        for k, sample in enumerate(result.samples):
            self._assert_same_series(sample, analysis._quench_sample(self.TEMPLATE, (5, 1), k, 40))

    def test_job_survives_pickle(self):
        job = (analysis._quench_sample, self.TEMPLATE, (5, 1), 2, 40)
        shipped = pickle.loads(pickle.dumps(job))
        assert shipped[0] is analysis._quench_sample
        self._assert_same_series(shipped[0](*shipped[1:]), job[0](*job[1:]))

    def test_failure_names_sample_index(self):
        # Valid as a template, but drawing the generator overflows inside sample 0.
        template = NonlocalTemplate(d_s=5, d_e=2, spread=1e308)
        with pytest.raises(QuenchSampleError) as err:
            quench_average(template, 2, 3, 10)
        assert err.value.sample_index == 0

    def test_rejects_zero_samples(self):
        with pytest.raises(ConfigurationError):
            quench_average(NonlocalTemplate(d_s=5, d_e=2), 0, 1, 10)

    @pytest.mark.parametrize("base_seed", [-1, (3, -2)], ids=["seed", "point"])
    def test_rejects_negative_seed_path_before_sampling(self, monkeypatch, base_seed):
        template = NonlocalTemplate(d_s=5, d_e=2)
        drawn = []
        monkeypatch.setattr(NonlocalTemplate, "realize", lambda self, *path: drawn.append(path))
        with pytest.raises(ConfigurationError, match="seed path"):
            quench_average(template, 2, base_seed, 10)
        assert drawn == []


@pytest.fixture
def two_blas_threads():
    """Run the test with the caller at two BLAS threads, restored afterwards."""
    if _blas._controls() is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread getter and setter")
    with _blas.limited(2):
        yield _blas._controls()[0]


def force_overlap(monkeypatch, overlap=True, model=None):
    """Set both size rules so that every nonlocal walk overlaps, or so that
    ``model``'s walk stays serial."""
    monkeypatch.setattr(analysis, "SERIAL_OBSERVER_MAX_D_S", -1 if overlap else model.d_s)
    monkeypatch.setattr(analysis, "SERIAL_OBSERVER_MAX_D_E", -1 if overlap else model.d_e)


def record_calls(monkeypatch, getter):
    """Record the BLAS thread count and the thread of every step and observer call."""
    seen = {"step": set(), "observer": set()}

    def recorded(role, fn):
        def wrapped(*args):
            seen[role].add((getter(), threading.get_ident()))
            return fn(*args)

        return wrapped

    monkeypatch.setattr(core, "step", recorded("step", core.step))
    monkeypatch.setattr(
        analysis, "position_mixedness", recorded("observer", analysis.position_mixedness)
    )
    return seen


class TestQuenchBlasThreads:
    SMALL = analysis.SERIAL_OBSERVER_MAX_D_E

    def _record_threads(self, monkeypatch, getter):
        seen = []

        def recording(model, steps):
            seen.append((getter(), analysis._overlaps(model)))
            return walk_series(model, steps)

        monkeypatch.setattr(analysis, "walk_series", recording)
        return seen

    def test_below_rule_runs_at_one_thread(self, monkeypatch, two_blas_threads):
        seen = self._record_threads(monkeypatch, two_blas_threads)
        result = quench_average(NonlocalTemplate(d_s=5, d_e=self.SMALL), 2, 1, 10)
        assert seen == [(1, False), (1, False)]
        assert result.blas_threads == 1
        assert two_blas_threads() == 2

    def test_above_rule_overlaps_at_one_thread(self, monkeypatch, two_blas_threads):
        seen = self._record_threads(monkeypatch, two_blas_threads)
        d_s = (analysis.SERIAL_OBSERVER_MAX_D_S + 1) | 1  # the smallest odd ring above
        result = quench_average(NonlocalTemplate(d_s=d_s, d_e=self.SMALL + 1), 1, 1, 5)
        assert seen == [(1, True)]
        assert result.blas_threads == 1
        assert two_blas_threads() == 2

    def test_step_and_observer_see_one_thread(self, monkeypatch, two_blas_threads):
        seen = record_calls(monkeypatch, two_blas_threads)
        force_overlap(monkeypatch)
        quench_average(NonlocalTemplate(d_s=5, d_e=3), 2, 1, 20)
        assert {threads for threads, _ in seen["step"] | seen["observer"]} == {1}
        assert {ident for _, ident in seen["step"]} == {threading.get_ident()}
        assert threading.get_ident() not in {ident for _, ident in seen["observer"]}
        assert two_blas_threads() == 2

    def test_count_restored_after_failed_sample(self, two_blas_threads):
        template = NonlocalTemplate(d_s=5, d_e=2, spread=1e308)
        with pytest.raises(QuenchSampleError):
            quench_average(template, 2, 3, 10)
        assert two_blas_threads() == 2

    def test_runs_without_thread_controls(self, monkeypatch):
        template = NonlocalTemplate(d_s=7, d_e=4)
        expected = quench_average(template, 2, 5, 40)
        monkeypatch.setattr(_blas, "_controls", lambda: None)
        result = quench_average(template, 2, 5, 40)
        assert result.blas_threads is None
        assert np.array_equal(result.mean.d_omega, expected.mean.d_omega)
        assert np.array_equal(result.mean.entropy, expected.mean.entropy)
        assert np.array_equal(result.d_omega_std, expected.d_omega_std)

    def test_below_rule_csv_same_when_overlap_forced(self, tmp_path, monkeypatch, two_blas_threads):
        argv = ["simulate", "--model", "nonlocal", "--sites", "51", "--env-dim", "32",
                "--samples", "2", "--steps", "100", "--seed", "4"]
        assert main([*argv, "--output", str(tmp_path / "serial.csv")]) == 0
        force_overlap(monkeypatch)
        assert main([*argv, "--output", str(tmp_path / "overlap.csv")]) == 0
        manifests = [json.loads((tmp_path / f"{n}.manifest.json").read_text())
                     for n in ("serial", "overlap")]
        assert [m["blas_threads"] for m in manifests] == [1, 1]
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "overlap.csv").read_bytes()


class TestOverlappedObserver:
    """Above ``SERIAL_OBSERVER_MAX_D_S`` and ``SERIAL_OBSERVER_MAX_D_E`` a sample
    observes state t on a helper thread while its walk takes step t + 1."""

    @staticmethod
    def _quench(monkeypatch, template, overlap, *args):
        force_overlap(monkeypatch, overlap, template)
        return quench_average(template, *args)

    @pytest.mark.parametrize(
        "d_s, d_e, samples, steps",
        [(7, 4, 3, 60), (31, analysis.SERIAL_OBSERVER_MAX_D_E + 16, 1, 30)],
        ids=["forced", "above-rule"],
    )
    def test_series_equal_serial_at_one_thread(self, monkeypatch, d_s, d_e, samples, steps):
        template = NonlocalTemplate(d_s=d_s, d_e=d_e)
        serial = self._quench(monkeypatch, template, False, samples, 9, steps)
        overlapped = self._quench(monkeypatch, template, True, samples, 9, steps)
        for a, b in zip(serial.samples, overlapped.samples, strict=True):
            assert np.array_equal(a.d_omega, b.d_omega)
            assert np.array_equal(a.entropy, b.entropy)
        assert np.array_equal(serial.d_omega_std, overlapped.d_omega_std)

    @pytest.mark.parametrize("failing", ["observer", "step"])
    def test_error_mid_run_names_sample_and_joins_helper(self, monkeypatch, failing):
        steps, calls = 20, [0]
        target, name = (analysis, "position_mixedness") if failing == "observer" else (core, "step")
        real = getattr(target, name)

        def fails_in_sample_1(*args):
            calls[0] += 1
            if calls[0] == steps + 8:  # mid-run in the second sample
                raise FloatingPointError("injected")
            return real(*args)

        monkeypatch.setattr(target, name, fails_in_sample_1)
        before = threading.enumerate()
        with pytest.raises(QuenchSampleError, match="injected") as err:
            self._quench(monkeypatch, NonlocalTemplate(d_s=5, d_e=3), True, 3, 2, steps)
        assert err.value.sample_index == 1
        assert threading.enumerate() == before

    def test_stress_at_a_short_switch_interval(self, monkeypatch):
        # Thread switches between nearly every bytecode: a lost or misplaced write
        # would leave a record unequal to the serial one, and a lost hand-off hangs.
        template, steps = NonlocalTemplate(d_s=5, d_e=3), 300
        serial = self._quench(monkeypatch, template, False, 4, 6, steps)
        order, real = [], analysis.position_mixedness

        def observed(state):
            order.append(threading.get_ident())
            return real(state)

        monkeypatch.setattr(analysis, "position_mixedness", observed)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: results.append(self._quench(monkeypatch, template, True, 4, 6, steps))
            )
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(order) == 4 * (steps + 1) and runner.ident not in order
        for a, b in zip(serial.samples, results[0].samples, strict=True):
            assert np.array_equal(a.d_omega, b.d_omega)
            assert np.array_equal(a.entropy, b.entropy)


class TestWalkThreadPolicy:
    """``walk_series`` decides a walk's thread policy from its model alone."""

    @pytest.mark.parametrize("overlap", [False, True], ids=["serial", "overlapped"])
    def test_direct_walk_at_one_thread(self, monkeypatch, two_blas_threads, overlap):
        model = NonlocalTemplate(d_s=5, d_e=3).realize(7, 0)
        force_overlap(monkeypatch, overlap, model)
        seen = record_calls(monkeypatch, two_blas_threads)
        walk_series(model, 20)
        assert {threads for threads, _ in seen["step"] | seen["observer"]} == {1}
        observers = {ident for _, ident in seen["observer"]}
        assert (threading.get_ident() not in observers) == overlap
        assert two_blas_threads() == 2

    @pytest.mark.parametrize(
        "d_s, d_e, overlaps",
        [(11, 224, False), (19, 256, False), (9, None, False), (31, 112, True), (51, 320, True)],
        ids=["11x224", "19x256", "local", "31x112", "51x320"],
    )
    def test_rule_sides(self, d_s, d_e, overlaps):
        if d_e is None:
            environment = LocalEnvironment(np.eye(2), np.eye(2))
        else:
            environment = NonlocalEnvironment(np.ones(d_e), np.ones(d_e))
        assert analysis._overlaps(WalkModel(d_s, environment)) == overlaps

    def test_local_walk_never_overlaps(self, monkeypatch):
        force_overlap(monkeypatch)
        model = WalkModel(9, LocalEnvironment(np.eye(2), np.eye(2)))
        assert not analysis._overlaps(model)


class TestWalkSeries:
    def test_shapes_and_metadata(self):
        template = NonlocalTemplate(d_s=7, d_e=2)
        series = walk_series(template.realize(23, 0), 80)
        assert series.steps == 80
        assert series.t.size == 81
        assert series.metadata["d_s"] == 7
        assert series.metadata["kind"] == "nonlocal"
        assert series.d_omega[0] == pytest.approx(6.0 / 7.0, abs=1e-12)

    def test_entropy_starts_at_zero(self):
        template = NonlocalTemplate(d_s=5, d_e=4)
        series = walk_series(template.realize(29, 0), 10)
        assert series.entropy[0] == pytest.approx(0.0, abs=1e-10)
