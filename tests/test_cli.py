import json
import math

import numpy as np
import pytest

from ringwalk.cli import main
from oracles import dense_nonlocal_step

from ringwalk import (
    HADAMARD,
    PLUS_I_COIN,
    NonlocalTemplate,
    PlateauSummary,
    __version__,
    _blas,
    cli,
    classical_mixing_time,
    plateau_summary,
    quench_average,
)

# Small quench points run at one BLAS thread; None where the count is unknown.
ONE_THREAD = None if _blas._controls() is None else 1


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestSimulate:
    def test_quench_csv_schema_and_manifest(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run(
            "simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2,
            "--steps", 120, "--samples", 3, "--seed", 1, "--output", out,
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["t", "d_omega", "entropy", "d_omega_std"]
        assert len(rows) == 121
        assert rows[0][0] == "0"
        assert float(rows[0][1]) == pytest.approx(4.0 / 5.0, abs=1e-12)
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["base_seed"] == 1
        assert manifest["sample_seed_paths"] == [[1, 0], [1, 1], [1, 2]]
        assert manifest["outputs"]["csv"] == str(out)
        assert manifest["blas_threads"] == ONE_THREAD
        assert manifest["bath_basis"] == "e0 eigenbasis"

    def test_single_sample_has_no_std_column(self, tmp_path):
        out = tmp_path / "single.csv"
        assert run(
            "simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2,
            "--steps", 40, "--output", out,
        ) == 0
        header, _ = read_rows(out)
        assert header == ["t", "d_omega", "entropy"]

    def test_values_have_full_precision(self, tmp_path):
        from ringwalk import NonlocalTemplate, walk_series

        out = tmp_path / "prec.csv"
        run(
            "simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 3,
            "--steps", 30, "--seed", 4, "--output", out,
        )
        _, rows = read_rows(out)
        series = walk_series(NonlocalTemplate(d_s=5, d_e=3).realize(4, 0), 30)
        for row, expected in zip(rows, series.d_omega):
            assert float(row[1]) == expected  # 17 significant digits round-trip

    def test_trivial_environment_matches_dense_bare_walk(self, tmp_path):
        # With a one-dimensional environment the branch phases cannot act
        # before the first winding interference at t = sites + 1, so the
        # early series must coincide with the bare coined walk.
        d_s = 5
        out = tmp_path / "bare.csv"
        run(
            "simulate", "--model", "nonlocal", "--sites", d_s, "--env-dim", 1,
            "--steps", d_s, "--seed", 2, "--output", out,
        )
        _, rows = read_rows(out)
        u = dense_nonlocal_step(d_s, np.asarray(HADAMARD), np.eye(1), np.eye(1))
        psi = np.zeros(d_s * 2, dtype=complex)
        psi[:2] = np.asarray(PLUS_I_COIN)
        for t in range(d_s + 1):
            rho = psi.reshape(d_s, 2) @ psi.reshape(d_s, 2).conj().T
            d_expected = 0.5 * np.abs(np.linalg.eigvalsh(rho) - 1.0 / d_s).sum()
            assert float(rows[t][1]) == pytest.approx(d_expected, abs=1e-12)
            psi = u @ psi

    def test_local_model(self, tmp_path):
        out = tmp_path / "local.csv"
        code = run(
            "simulate", "--model", "local", "--sites", 5,
            "--theta0", 0.26, "--phi0", 0.0, "--theta1", 0.26, "--phi1", 1.5707,
            "--steps", 60, "--output", out,
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["t", "d_omega", "entropy"]
        assert len(rows) == 61

    def test_local_run_records_no_seed(self, tmp_path, monkeypatch):
        # The local model draws nothing: --seed is echoed but names no file or stream.
        monkeypatch.setenv("RINGWALK_OUTDIR", str(tmp_path))
        argv = ("simulate", "--model", "local", "--sites", 5, "--theta0", 0.3, "--phi0", 0.0,
                "--theta1", 0.3, "--phi1", 1.0, "--steps", 20)
        outputs = []
        for seed in (1, 2):
            assert run(*argv, "--seed", seed) == 0
            outputs.append((tmp_path / "simulate_local_s5_t20.csv").read_bytes())
            manifest = json.loads((tmp_path / "simulate_local_s5_t20.manifest.json").read_text())
            assert "base_seed" not in manifest and "rng" not in manifest
            assert manifest["parameters"]["seed"] == seed
        assert outputs[0] == outputs[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "simulate_local_s5_t20.csv", "simulate_local_s5_t20.manifest.json"
        ]

    def test_local_rejects_quench_samples(self, tmp_path):
        code = run(
            "simulate", "--model", "local", "--sites", 5,
            "--theta0", 0.1, "--phi0", 0.0, "--theta1", 0.1, "--phi1", 1.0,
            "--steps", 10, "--samples", 2, "--output", tmp_path / "x.csv",
        )
        assert code == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        args = (
            "simulate", "--model", "nonlocal", "--sites", 7, "--env-dim", 4,
            "--steps", 80, "--samples", 2, "--seed", 9,
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*args, "--output", a) == 0
        assert run(*args, "--output", b) == 0
        assert a.read_bytes() == b.read_bytes()


class TestClassicalCommand:
    def test_small_ring_values(self, tmp_path):
        out = tmp_path / "cl.csv"
        assert run("classical", "--sites", 3, "--steps", 1, "--output", out) == 0
        header, rows = read_rows(out)
        assert header == ["t", "d_omega", "entropy"]
        assert float(rows[0][1]) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert float(rows[1][1]) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_series_monotone(self, tmp_path):
        out = tmp_path / "cl51.csv"
        run("classical", "--sites", 51, "--steps", 500, "--output", out)
        _, rows = read_rows(out)
        d = np.array([float(r[1]) for r in rows])
        assert (np.diff(d) <= 1e-15).all()

    def test_even_sites_rejected(self, tmp_path):
        assert run("classical", "--sites", 4, "--steps", 5, "--output", tmp_path / "x.csv") == 2


class TestMixingSweep:
    def test_rows_and_classical_reference(self, tmp_path):
        out = tmp_path / "mix.csv"
        code = run(
            "mixing-sweep", "--sites", 19, "--env-dims", "1,32", "--samples", 3,
            "--steps", 600, "--seed", 3, "--output", out,
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["d_b", "tau_mix", "tau_err"]
        assert [r[0] for r in rows] == ["2", "64", "inf"]
        # The d_b=2 point has no usable fit window and degrades to nan.
        assert np.isnan(float(rows[0][1]))
        assert float(rows[1][1]) > 0
        assert float(rows[2][1]) > 0
        manifest = json.loads((tmp_path / "mix.manifest.json").read_text())
        assert manifest["classical"]["tau_spectral"] == pytest.approx(72.82, abs=0.01)
        assert "error" in manifest["points"][0]
        assert [p["blas_threads"] for p in manifest["points"]] == [ONE_THREAD] * 2
        assert [p["bath_basis"] for p in manifest["points"]] == ["e0 eigenbasis"] * 2


class TestSaturationSweep:
    def test_grid_csv_and_fit(self, tmp_path):
        out = tmp_path / "sat.csv"
        code = run(
            "saturation-sweep", "--sites-list", "5,7", "--env-dims", "4,16",
            "--samples", 2, "--steps", 300, "--seed", 5, "--output", out,
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["d_s", "d_b", "ratio", "mean_d", "std_d"]
        assert len(rows) == 4
        fit = json.loads((tmp_path / "sat.fit.json").read_text())
        assert fit["params"]["C"] > 0
        assert np.isfinite(fit["params"]["x"])
        assert fit["provenance"]["parameters"]["sites_list"] == [5, 7]
        manifest = json.loads((tmp_path / "sat.manifest.json").read_text())
        assert [p["blas_threads"] for p in manifest["points"]] == [ONE_THREAD] * 4
        assert [p["bath_basis"] for p in manifest["points"]] == ["e0 eigenbasis"] * 4

    def test_fit_json_holds_the_power_law_and_its_provenance(self, tmp_path, monkeypatch):
        # Plateau levels 0.4 r^-0.5 at ratios 2, 4, 8 and 16, in place of the quench points.
        def sweep(p, grid):
            levels = [0.4 * (2 * d_e / d_s) ** -0.5 for d_s, d_e in grid]
            return [PlateauSummary(0, d, 0.0, 0.0) for d in levels], [{} for _ in grid]

        monkeypatch.setattr(cli, "_sweep", sweep)
        out = tmp_path / "sat.csv"
        assert run(
            "saturation-sweep", "--sites-list", 5, "--env-dims", "5,10,20,40",
            "--steps", 60, "--seed", 1, "--output", out,
        ) == 0
        doc = json.loads((tmp_path / "sat.fit.json").read_text())
        parameters = json.loads((tmp_path / "sat.manifest.json").read_text())["parameters"]
        assert set(doc) == {"params", "std_errors", "window", "residual_rms", "provenance"}
        assert doc["params"]["x"] == pytest.approx(0.5, abs=1e-9)
        assert doc["window"] == [2.0, 4.0, 8.0, 16.0]
        assert doc["provenance"] == {
            "command": "saturation-sweep", "parameters": parameters, "version": __version__,
        }

    def test_points_record_the_fit_window_or_its_error(self, tmp_path):
        out = tmp_path / "sat.csv"
        assert run(
            "saturation-sweep", "--sites-list", 11, "--ratios", "0.5,2,4",
            "--samples", 2, "--steps", 300, "--seed", 5, "--output", out,
        ) == 0
        points = json.loads((tmp_path / "sat.manifest.json").read_text())["points"]
        assert [("window" in p) + ("error" in p) for p in points] == [1, 1, 1]
        assert {"window" in p for p in points} == {True, False}
        # The average starts at half the run exactly where the fit failed.
        assert [p["t_start"] == 150 for p in points] == ["error" in p for p in points]

    def test_ratios_and_env_dims_together_rejected(self, tmp_path, capsys):
        code = run(
            "saturation-sweep", "--sites-list", "5", "--ratios", "2", "--env-dims", "4",
            "--samples", 2, "--steps", 50, "--output", tmp_path / "x.csv",
        )
        assert code == 2
        assert "--ratios or --env-dims" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("ratios", ["-2,0,2,4,8", "0,2,4,8", "nan,2,4,8", "inf,2,4,8"],
                             ids=["negative", "zero", "nan", "inf"])
    def test_ratios_must_be_finite_and_positive(self, tmp_path, capsys, ratios):
        code = run(
            "saturation-sweep", "--sites-list", "11", f"--ratios={ratios}",
            "--samples", 1, "--steps", 60, "--output", tmp_path / "x.csv",
        )
        assert code == 2
        assert "--ratios must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_ratio_below_smallest_bath_rejected(self, tmp_path, capsys):
        # 0.01 * 11 / 2 rounds to d_e = 0: no bath that small exists.
        code = run(
            "saturation-sweep", "--sites-list", "11", "--ratios=0.01,2,4,8",
            "--samples", 1, "--steps", 60, "--output", tmp_path / "x.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--ratios 0.01 at d_s=11" in err
        assert "smallest ratio d_s=11 allows is 2/11 = 0.1818" in err
        assert not (tmp_path / "x.csv").exists()

    def test_fit_skipped_with_too_few_points(self, tmp_path, capsys):
        out = tmp_path / "sat2.csv"
        code = run(
            "saturation-sweep", "--sites-list", "5", "--ratios", "0.5",
            "--samples", 2, "--steps", 200, "--seed", 5, "--output", out,
        )
        assert code == 0
        assert out.exists()
        assert not (tmp_path / "sat2.fit.json").exists()
        assert "fit skipped" in capsys.readouterr().err

    def test_fit_skipped_with_one_ratio(self, tmp_path, capsys):
        # Four points above d_b = d_s, but all at ratio 2: no slope to fit.
        out = tmp_path / "one_ratio.csv"
        code = run(
            "saturation-sweep", "--sites-list", "5,7,9,11", "--ratios", "2",
            "--samples", 2, "--steps", 60, "--output", out,
        )
        assert code == 0
        _, rows = read_rows(out)
        assert [row[2] for row in rows] == ["2"] * 4
        assert (tmp_path / "one_ratio.manifest.json").exists()
        assert not (tmp_path / "one_ratio.fit.json").exists()
        err = capsys.readouterr().err
        assert "warning: power-law fit skipped: need at least 2 distinct ratios, got only 2" in err


class TestSweepReduction:
    """Each sweep point is reduced once, by plateau_summary, into one entry shape."""

    GRID = ("--env-dims", "1,22,32", "--samples", 1, "--steps", 200, "--seed", 4)
    SWEEPS = {"mixing-sweep": ("--sites", 11), "saturation-sweep": ("--sites-list", 11)}

    @pytest.mark.parametrize("command", SWEEPS)
    def test_one_window_selection_per_point(self, tmp_path, monkeypatch, command):
        import ringwalk.analysis

        kinds = []
        select = ringwalk.analysis.select_fit_window

        def counted(series):
            kinds.append(series.metadata["kind"])
            return select(series)

        monkeypatch.setattr(ringwalk.analysis, "select_fit_window", counted)
        assert run(command, *self.SWEEPS[command], *self.GRID, "--output", tmp_path / "s.csv") == 0
        # mixing-sweep also fits its classical reference, once, after the points.
        assert kinds == ["nonlocal"] * 3 + ["classical"] * (command == "mixing-sweep")

    def test_both_sweeps_write_one_entry_shape(self, tmp_path):
        points = {}
        for command, flags in self.SWEEPS.items():
            assert run(command, *flags, *self.GRID, "--output", tmp_path / f"{command}.csv") == 0
            manifest = json.loads((tmp_path / f"{command}.manifest.json").read_text())
            points[command] = manifest["points"]
        shared = {"d_s", "d_e", "index", "t_start", "blas_threads", "bath_basis"}
        for entries in points.values():
            assert [set(p) - shared for p in entries] == [{"error"}, {"window"}, {"window"}]
        # The same grid, seed and steps draw the same samples, so the entries agree too.
        assert points["mixing-sweep"] == points["saturation-sweep"]


class TestSweepRowsAreLibraryNumbers:
    """Each sweep row carries the library's reduction of its point exactly: 17 significant
    digits read back to the same double, so the rows compare under ==, not a tolerance."""

    SITES, ENV_DIMS, SAMPLES, STEPS, SEED = (5, 9), (4, 32), 2, 200, 7

    def summary(self, d_s, d_e, j):
        template = NonlocalTemplate(d_s=d_s, d_e=d_e)
        return plateau_summary(quench_average(template, self.SAMPLES, (self.SEED, j), self.STEPS))

    def sweep(self, tmp_path, *flags):
        out = tmp_path / "sweep.csv"
        assert run(*flags, "--env-dims", ",".join(map(str, self.ENV_DIMS)),
                   "--samples", self.SAMPLES, "--steps", self.STEPS, "--seed", self.SEED,
                   "--output", out) == 0
        return [[float(cell) for cell in row] for row in read_rows(out)[1]]

    def test_saturation_rows(self, tmp_path):
        rows = self.sweep(tmp_path, "saturation-sweep", "--sites-list", "5,9")
        grid = [(d_s, d_e) for d_s in self.SITES for d_e in self.ENV_DIMS]
        expected = []
        for j, (d_s, d_e) in enumerate(grid):
            summary = self.summary(d_s, d_e, j)
            expected.append([d_s, 2 * d_e, 2 * d_e / d_s, summary.d_omega_mean,
                             summary.d_omega_std])
        assert rows == expected

    @pytest.mark.parametrize("d_s", SITES)
    def test_mixing_rows(self, tmp_path, d_s):
        rows = self.sweep(tmp_path, "mixing-sweep", "--sites", d_s)
        expected = []
        for j, d_e in enumerate(self.ENV_DIMS):
            fit = self.summary(d_s, d_e, j).fit
            if fit is None:
                expected.append([2 * d_e, math.nan, math.nan])
            else:
                expected.append([2 * d_e, fit.params["tau_mix"], fit.std_errors["tau_mix"]])
        fit_cl, _ = classical_mixing_time(d_s)
        expected.append([math.inf, fit_cl.params["tau_mix"], fit_cl.std_errors["tau_mix"]])
        # Exact equality, where a NaN cell matches a NaN cell.
        np.testing.assert_array_equal(rows, expected)
        # The grid reaches both outcomes: at d_s = 9 one point fits and one does not.
        if d_s == 9:
            assert [math.isnan(row[1]) for row in rows] == [True, False, False]


class TestConfigAndErrors:
    def test_config_file_supplies_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "nonlocal", "sites": 5, "env_dim": 2, "steps": 50, "seed": 3,
        }))
        out = tmp_path / "from_config.csv"
        assert run("simulate", "--config", cfg, "--output", out) == 0
        _, rows = read_rows(out)
        assert len(rows) == 51

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "nonlocal", "sites": 5, "env_dim": 2, "steps": 50,
        }))
        out = tmp_path / "override.csv"
        assert run("simulate", "--config", cfg, "--steps", 60, "--output", out) == 0
        _, rows = read_rows(out)
        assert len(rows) == 61

    @pytest.mark.parametrize("argv, lists", [
        pytest.param(("simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2,
                      "--steps", 50, "--samples", 2, "--seed", 6), {}, id="simulate"),
        pytest.param(("mixing-sweep", "--sites", 5, "--env-dims", "2,4", "--samples", 2,
                      "--steps", 120, "--seed", 3), {"env_dims": [2, 4]}, id="mixing-sweep"),
        pytest.param(("saturation-sweep", "--sites-list", "5,7", "--ratios", "2,4",
                      "--samples", 2, "--steps", 100, "--seed", 5),
                     {"sites_list": [5, 7], "ratios": [2.0, 4.0]}, id="saturation-sweep"),
        pytest.param(("simulate", "--model", "local", "--sites", 5, "--theta0", 0.3,
                      "--phi0", 0.0, "--theta1", 0.3, "--phi1", 1.0, "--steps", 30),
                     {}, id="simulate-local"),
        pytest.param(("classical", "--sites", 7, "--steps", 40), {}, id="classical"),
    ])
    def test_manifest_reexecution_round_trip(self, tmp_path, argv, lists):
        first = tmp_path / "first.csv"
        assert run(*argv, "--output", first) == 0
        manifest = json.loads((tmp_path / "first.manifest.json").read_text())
        for name, values in lists.items():
            assert manifest["parameters"][name] == values  # JSON lists, not strings
        second = tmp_path / "second.csv"
        code = run(argv[0], "--config", tmp_path / "first.manifest.json", "--output", second)
        assert code == 0
        assert second.read_bytes() == first.read_bytes()
        if argv[0] == "saturation-sweep":
            fit = (tmp_path / "first.fit.json").read_bytes()
            assert (tmp_path / "second.fit.json").read_bytes() == fit

    @pytest.mark.parametrize("argv, spawn_key", [
        pytest.param(("simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2,
                      "--steps", 20, "--samples", 2, "--seed", 3), "(sample,)",
                     id="simulate-nonlocal"),
        pytest.param(("simulate", "--model", "local", "--sites", 5, "--theta0", 0.3,
                      "--phi0", 0.0, "--theta1", 0.3, "--phi1", 1.0, "--steps", 20,
                      "--seed", 3), None, id="simulate-local"),
        pytest.param(("mixing-sweep", "--sites", 5, "--env-dims", "2", "--samples", 1,
                      "--steps", 60, "--seed", 3), "(point, sample)", id="mixing-sweep"),
        pytest.param(("saturation-sweep", "--sites-list", "5", "--ratios", "2",
                      "--samples", 1, "--steps", 60, "--seed", 3), "(point, sample)",
                     id="saturation-sweep"),
        pytest.param(("classical", "--sites", 5, "--steps", 20), None, id="classical"),
    ])
    def test_manifest_rng_names_the_stream(self, tmp_path, argv, spawn_key):
        assert run(*argv, "--output", tmp_path / "x.csv") == 0
        manifest = json.loads((tmp_path / "x.manifest.json").read_text())
        if spawn_key is None:  # nothing is drawn
            assert "rng" not in manifest
            assert "base_seed" not in manifest
        else:
            rng = f"philox4x64 keyed by numpy SeedSequence(seed, spawn_key={spawn_key})"
            assert manifest["rng"] == rng
            assert manifest["base_seed"] == argv[argv.index("--seed") + 1]

    @pytest.mark.parametrize("command, cfg, message", [
        pytest.param("simulate", {"model": "nonlocal", "sites": "abc", "env_dim": 2, "steps": 5},
                     "--sites must be an integer", id="int"),
        pytest.param("simulate", {"model": "nonlocal", "sites": 5, "env_dim": 2, "steps": 5,
                                  "spread": "wide"}, "--spread must be a number", id="float"),
        pytest.param("mixing-sweep", {"sites": 5, "env_dims": "4,x", "steps": 5},
                     "--env-dims must be a comma-separated list", id="list"),
        pytest.param("saturation-sweep", {"sites_list": [], "ratios": [2], "steps": 5},
                     "--sites-list must not be empty", id="empty-list"),
        pytest.param("simulate", {"model": "nonlocal", "sites": 5.7, "env_dim": 2, "steps": 5},
                     "--sites must be an integer", id="fractional-int"),
        pytest.param("mixing-sweep", {"sites": 5, "env_dims": [4, 4.5], "steps": 5},
                     "--env-dims must be a comma-separated list", id="fractional-list-element"),
        pytest.param("simulate", {"model": "nonlocal", "sites": 5, "env_dim": 2, "steps": True},
                     "--steps must be an integer", id="bool-int"),
        pytest.param("simulate", {"model": "nonlocal", "sites": 5, "env_dim": 2, "steps": 5,
                                  "spread": False}, "--spread must be a number", id="bool-float"),
    ])
    def test_wrongly_typed_config_value(self, tmp_path, capsys, command, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(command, "--config", path, "--output", tmp_path / "x.csv") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        pytest.param(("simulate", "--model", "nonlocal", "--sites", "abc", "--env-dim", 2,
                      "--steps", 5), "--sites must be an integer", id="int"),
        pytest.param(("simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2,
                      "--steps", 5, "--spread", "wide"), "--spread must be a number", id="float"),
        pytest.param(("simulate", "--model", "nonlocal", "--sites", 5.7, "--env-dim", 2,
                      "--steps", 5), "--sites must be an integer", id="fractional-int"),
        pytest.param(("mixing-sweep", "--sites", 5, "--env-dims", "4,x", "--steps", 5),
                     "--env-dims must be a comma-separated list", id="list"),
    ])
    def test_wrongly_typed_flag_value(self, tmp_path, capsys, argv, message):
        # A flag is cast by the same rule as a config value, with the same message.
        assert run(*argv, "--output", tmp_path / "x.csv") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("doc", [[5, 3], "simulate", 7], ids=["list", "string", "number"])
    def test_config_must_be_an_object(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run("simulate", "--config", cfg, "--output", tmp_path / "x.csv") == 2
        assert "must contain a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["foo", "Local"])
    def test_unknown_model_rejected(self, tmp_path, capsys, model):
        code = run("simulate", "--model", model, "--sites", 5, "--steps", 5,
                   "--output", tmp_path / "x.csv")
        assert code == 2
        assert "--model must be 'nonlocal' or 'local'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    LOCAL = ("--model", "local", "--sites", 5, "--theta0", 0.3, "--phi0", 0.0,
             "--theta1", 0.3, "--phi1", 1.5, "--steps", 5)
    NONLOCAL = ("--model", "nonlocal", "--sites", 5, "--env-dim", 2, "--steps", 5)

    @pytest.mark.parametrize("argv, cfg, message", [
        pytest.param((*LOCAL, "--env-dim", 7), None, "--model local takes no --env-dim",
                     id="local-env-dim-flag"),
        pytest.param(LOCAL, {"env_dim": 7}, "--model local takes no --env-dim",
                     id="local-env-dim-config"),
        pytest.param((*NONLOCAL, "--theta0", 0.2), None, "--model nonlocal takes no --theta0",
                     id="nonlocal-theta0-flag"),
        pytest.param((*NONLOCAL, "--phi0", 0.0, "--phi1", 1.5), None,
                     "--model nonlocal takes no --phi0, --phi1", id="nonlocal-phi-flags"),
        pytest.param(NONLOCAL, {"theta1": 0.2}, "--model nonlocal takes no --theta1",
                     id="nonlocal-theta1-config"),
        pytest.param((*LOCAL, "--spread", 2), None, "--model local takes no --spread",
                     id="local-spread-flag"),
        pytest.param(LOCAL, {"spread": 1.0}, "--model local takes no --spread",
                     id="local-spread-config"),
    ])
    def test_other_models_inputs_rejected(self, tmp_path, capsys, argv, cfg, message):
        written = []
        if cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            argv, written = (*argv, "--config", tmp_path / "cfg.json"), ["cfg.json"]
        assert run("simulate", *argv, "--output", tmp_path / "x.csv") == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == written

    def test_integral_float_accepted_for_int(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "nonlocal", "sites": 5.0, "env_dim": 2, "steps": 5}))
        assert run("simulate", "--config", cfg, "--output", tmp_path / "x.csv") == 0
        manifest = json.loads((tmp_path / "x.manifest.json").read_text())
        assert manifest["parameters"]["sites"] == 5

    @pytest.mark.parametrize("flag", ["--config", "--coin", "--initial-coin"])
    def test_truncated_json_file_is_usage_error(self, tmp_path, capsys, flag):
        path = tmp_path / "bad.json"
        path.write_text('{"shape": [2, 2], "entries": [[1, 0],')
        code = run(
            "simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2, "--steps", 5,
            flag, path, "--output", tmp_path / "x.csv",
        )
        assert code == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_coin_file_with_negative_shape_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps({"shape": [-1, -1], "entries": [[1, 0]]}))
        code = run(
            "simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2, "--steps", 5,
            "--coin", path, "--output", tmp_path / "x.csv",
        )
        assert code == 2
        assert "must not be negative" in capsys.readouterr().err

    def test_coin_file_with_float_shape_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "coin.json"
        identity = {"shape": [2.0, 2.0], "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}
        path.write_text(json.dumps(identity))
        code = run(
            "simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2, "--steps", 5,
            "--coin", path, "--output", tmp_path / "x.csv",
        )
        assert code == 2
        assert "must be a list of integers" in capsys.readouterr().err

    def test_coin_file_without_shape_is_usage_error(self, tmp_path):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps({"entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
        code = run(
            "simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2, "--steps", 5,
            "--coin", path, "--output", tmp_path / "x.csv",
        )
        assert code == 2

    @pytest.mark.parametrize("model", [
        ("--model", "nonlocal", "--env-dim", 2),
        ("--model", "local", "--theta0", 0.1, "--phi0", 0.0, "--theta1", 0.1, "--phi1", 1.0),
    ], ids=["nonlocal", "local"])
    def test_nan_initial_coin_is_usage_error(self, tmp_path, capsys, model):
        path = tmp_path / "coin.json"
        path.write_text('{"shape": [2], "entries": [[NaN, 0], [0, 0]]}')
        code = run(
            "simulate", *model, "--sites", 5, "--steps", 5,
            "--initial-coin", path, "--output", tmp_path / "x.csv",
        )
        assert code == 2
        assert "initial_coin must have norm 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2),
        ("mixing-sweep", "--sites", 5, "--env-dims", "2,4", "--samples", 2),
        ("saturation-sweep", "--sites-list", "5", "--ratios", "2", "--samples", 2),
        ("classical", "--sites", 5),
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_below_one_rejected(self, tmp_path, capsys, argv, steps):
        assert run(*argv, "--steps", steps, "--output", tmp_path / "x.csv") == 2
        assert f"--steps must be >= 1, got {steps}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ("simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2),
        ("simulate", "--model", "local", "--sites", 5,
         "--theta0", 0.1, "--phi0", 0.0, "--theta1", 0.1, "--phi1", 1.0),
        ("mixing-sweep", "--sites", 5, "--env-dims", "2,4"),
        ("saturation-sweep", "--sites-list", "5", "--ratios", "2"),
    ], ids=["nonlocal", "local", "mixing-sweep", "saturation-sweep"])
    def test_zero_samples_rejected(self, tmp_path, capsys, argv):
        assert run(*argv, "--samples", 0, "--steps", 10, "--output", tmp_path / "x.csv") == 2
        err = capsys.readouterr().err
        assert "samples must be" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2, "--steps", 3),
        ("simulate", "--model", "local", "--sites", 5, "--steps", 3,
         "--theta0", 0.1, "--phi0", 0.0, "--theta1", 0.1, "--phi1", 1.0),
        ("saturation-sweep", "--sites-list", "5", "--ratios", "2", "--samples", 2,
         "--steps", 3),
        ("mixing-sweep", "--sites", 5, "--env-dims", "2", "--samples", 2, "--steps", 60),
    ], ids=["nonlocal", "local", "saturation-sweep", "mixing-sweep"])
    def test_negative_seed_rejected(self, tmp_path, capsys, argv):
        assert run(*argv, "--seed", -1, "--output", tmp_path / "x.csv") == 2
        err = capsys.readouterr().err
        assert "--seed must be >= 0, got -1" in err
        assert "sample" not in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "nonlocal", "sights": 5}))
        assert run("simulate", "--config", cfg, "--output", tmp_path / "x.csv") == 2

    def test_missing_required_flags(self, tmp_path):
        assert run("simulate", "--model", "nonlocal", "--sites", 5,
                   "--output", tmp_path / "x.csv") == 2

    def test_even_sites_usage_error(self, tmp_path):
        assert run(
            "simulate", "--model", "nonlocal", "--sites", 4, "--env-dim", 2,
            "--steps", 10, "--output", tmp_path / "x.csv",
        ) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # A valid spread whose generator overflows while sample 0 is drawn.
        code = run(
            "simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2,
            "--steps", 10, "--spread", 1e308, "--output", tmp_path / "x.csv",
        )
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ("simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 0, "--steps", 5),
        ("simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2, "--steps", 5,
         "--spread", 0),
        ("simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2, "--steps", 5,
         "--spread", -1),
        ("simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2, "--steps", 5,
         "--spread", "inf"),
        ("mixing-sweep", "--sites", 5, "--env-dims", "4,0", "--samples", 1, "--steps", 60),
    ], ids=["env-dim-0", "spread-0", "spread-negative", "spread-inf", "sweep-env-dims-4,0"])
    def test_bad_template_parameter_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        import ringwalk.cli

        quenched = []
        monkeypatch.setattr(ringwalk.cli, "quench_average", lambda *a: quenched.append(a))
        code = run(*argv, "--output", tmp_path / "x.csv")
        assert code == 2
        assert quenched == []  # rejected before the first sample is drawn
        assert "sample" not in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_io_failure_exit_code(self, tmp_path):
        target = tmp_path / "iamadir.csv"
        target.mkdir()
        code = run(
            "simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2,
            "--steps", 10, "--output", target,
        )
        assert code == 4

    def test_failed_write_leaves_old_file_intact(self, tmp_path, monkeypatch):
        target = tmp_path / "run.csv"
        target.write_text("old contents\n")
        real_open = open

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return HalfWriter(fh) if "w" in mode else fh

        monkeypatch.setattr("ringwalk.core.open", failing_open, raising=False)
        code = run(
            "simulate", "--model", "nonlocal", "--sites", 5, "--env-dim", 2,
            "--steps", 10, "--output", target,
        )
        assert code == 4
        assert target.read_text() == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]

    def test_argparse_usage_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run("no-such-command")
        assert err.value.code == 2

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RINGWALK_OUTDIR", str(tmp_path))
        assert run("classical", "--sites", 3, "--steps", 5) == 0
        assert (tmp_path / "classical_s3_t5.csv").exists()
