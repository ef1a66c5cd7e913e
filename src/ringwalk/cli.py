"""Reproducible experiment driver.

Four subcommands cover the standard experiments: ``simulate`` (single
model or quench-averaged series), ``mixing-sweep`` (mixing time vs. bath
dimension, with the classical reference appended), ``saturation-sweep``
(plateau level vs. bath/lattice ratio plus the power-law fit) and
``classical`` (the reference walk alone).

Series go to CSV (header ``t,d_omega,entropy`` plus ``d_omega_std`` for
quench means, 17 significant digits, newline-terminated rows), fits and
run manifests to JSON.  All randomness flows from ``--seed``: sweep point
j, sample k draws from the Philox stream keyed by (seed, j, k), so any
row can be regenerated from the manifest alone.  Reruns with identical
parameters produce byte-identical CSVs.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical or
fit failure, 4 I/O failure.
"""

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    NonlocalTemplate,
    ObservableSeries,
    fit_exponential_mixing,
    fit_power_law,
    plateau_summary,
    quench_average,
    select_fit_window,
    walk_series,
)
from .classical import classical_mixing_time, classical_series
from .core import HADAMARD, PLUS_I_COIN, LocalEnvironment, WalkModel
from .envgen import GateAngles, make_local_gate, matrix_from_json
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    DomainError,
    FitWindowError,
    RingwalkError,
)

OUTDIR_ENV_VAR = "RINGWALK_OUTDIR"


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _out_dir() -> Path:
    return Path(os.environ.get(OUTDIR_ENV_VAR, "."))


def _resolve_output(args, default_name: str) -> Path:
    if args.output:
        return Path(args.output)
    return _out_dir() / default_name


def _sibling(path: Path, suffix: str) -> Path:
    return path.with_name(path.stem + suffix)


def _write_text(path: Path, text: str) -> None:
    """Replace ``path`` atomically: readers see the old file or the new one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # a no-op once the replace has succeeded


def _write_series_csv(path: Path, series: ObservableSeries, std=None) -> None:
    lines = ["t,d_omega,entropy" + (",d_omega_std" if std is not None else "")]
    for i in range(series.t.size):
        row = f"{int(series.t[i])},{_fmt(series.d_omega[i])},{_fmt(series.entropy[i])}"
        if std is not None:
            row += f",{_fmt(std[i])}"
        lines.append(row)
    _write_text(path, "\n".join(lines) + "\n")


def _write_manifest(path: Path, command: str, params: dict, outputs: dict, extra=None) -> None:
    doc = {
        "command": command,
        "parameters": params,
        "base_seed": params.get("seed"),
        "rng": "philox4x64 keyed by numpy SeedSequence(seed, spawn_key=(point, sample))",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": {k: str(v) for k, v in outputs.items()},
    }
    if extra:
        doc.update(extra)
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config {path} must contain a JSON object")
    # A run manifest is accepted directly: its parameters block mirrors the flags.
    if "parameters" in doc and isinstance(doc["parameters"], dict):
        doc = doc["parameters"]
    return doc


def _merge_config(args, defaults: dict) -> dict:
    """Resolve each parameter as flag > config file > hard default."""
    cfg = _load_config(args.config) if args.config else {}
    unknown = set(cfg) - set(defaults)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    params = {}
    for key, hard in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = cfg.get(key, hard)
        params[key] = value
    return params


def _require(params: dict, *names: str) -> None:
    missing = [n for n in names if params.get(n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ConfigurationError(f"missing required option(s): {flags}")


def _as_int(params: dict, name: str) -> int:
    try:
        value = int(params[name])
    except (TypeError, ValueError):
        raise ConfigurationError(f"--{name.replace('_', '-')} must be an integer") from None
    params[name] = value
    return value


def _as_float(params: dict, name: str) -> float:
    try:
        value = float(params[name])
    except (TypeError, ValueError):
        raise ConfigurationError(f"--{name.replace('_', '-')} must be a number") from None
    params[name] = value
    return value


def _as_number_list(params: dict, name: str, cast=int) -> list:
    raw = params[name]
    if isinstance(raw, str):
        raw = [part for part in raw.split(",") if part.strip()]
    try:
        values = [cast(v) for v in raw]
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"--{name.replace('_', '-')} must be a comma-separated list"
        ) from None
    if not values:
        raise ConfigurationError(f"--{name.replace('_', '-')} must not be empty")
    params[name] = values
    return values


def _load_coin(choice: str, default: str) -> np.ndarray:
    """The named default (``hadamard`` or ``plus-i``), or a JSON matrix file."""
    if choice == default:
        return {"hadamard": HADAMARD, "plus-i": PLUS_I_COIN}[default]
    with open(choice, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def _check_sites(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ConfigurationError(f"--sites must be odd and >= 3, got {n}")


def cmd_simulate(args) -> int:
    defaults = {
        "model": None,
        "sites": None,
        "env_dim": None,
        "theta0": None,
        "phi0": None,
        "theta1": None,
        "phi1": None,
        "steps": None,
        "seed": 0,
        "spread": 1.0,
        "coin": "hadamard",
        "initial_coin": "plus-i",
        "samples": 1,
    }
    params = _merge_config(args, defaults)
    _require(params, "model", "sites", "steps")
    sites = _as_int(params, "sites")
    steps = _as_int(params, "steps")
    seed = _as_int(params, "seed")
    samples = _as_int(params, "samples")
    _check_sites(sites)
    if steps < 1:
        raise ConfigurationError(f"--steps must be >= 1, got {steps}")
    if samples < 1:
        raise ConfigurationError(f"--samples must be >= 1, got {samples}")
    coin = _load_coin(params["coin"], "hadamard")
    initial_coin = _load_coin(params["initial_coin"], "plus-i")
    model_kind = params["model"]

    extra = {}
    if model_kind == "nonlocal":
        _require(params, "env_dim")
        env_dim = _as_int(params, "env_dim")
        spread = _as_float(params, "spread")
        template = NonlocalTemplate(
            d_s=sites, d_e=env_dim, spread=spread, coin=coin, initial_coin=initial_coin
        )
        result = quench_average(template, samples, seed, steps)
        series = result.mean
        std = result.d_omega_std if samples > 1 else None
        extra["sample_seed_paths"] = [[seed, k] for k in range(samples)]
        name = f"simulate_nonlocal_s{sites}_e{env_dim}_t{steps}_k{samples}_seed{seed}.csv"
    elif model_kind == "local":
        _require(params, "theta0", "phi0", "theta1", "phi1")
        if samples != 1:
            raise ConfigurationError(
                "the local model has no environment sampling; --samples must be 1"
            )
        angles0 = GateAngles(_as_float(params, "theta0"), _as_float(params, "phi0"))
        angles1 = GateAngles(_as_float(params, "theta1"), _as_float(params, "phi1"))
        env = LocalEnvironment(make_local_gate(angles0), make_local_gate(angles1))
        model = WalkModel(
            d_s=sites, environment=env, coin=coin, initial_coin=initial_coin, seed=seed
        )
        series = walk_series(model, steps)
        std = None
        name = f"simulate_local_s{sites}_t{steps}_seed{seed}.csv"
    else:
        raise ConfigurationError(f"--model must be 'nonlocal' or 'local', got {model_kind!r}")

    csv_path = _resolve_output(args, name)
    manifest_path = _sibling(csv_path, ".manifest.json")
    _write_series_csv(csv_path, series, std)
    _write_manifest(manifest_path, "simulate", params, {"csv": csv_path}, extra)
    print(csv_path)
    return 0


def cmd_classical(args) -> int:
    defaults = {"sites": None, "steps": None}
    params = _merge_config(args, defaults)
    _require(params, "sites", "steps")
    sites = _as_int(params, "sites")
    steps = _as_int(params, "steps")
    _check_sites(sites)
    if steps < 1:
        raise ConfigurationError(f"--steps must be >= 1, got {steps}")
    series = classical_series(sites, 0, steps)
    csv_path = _resolve_output(args, f"classical_s{sites}_t{steps}.csv")
    manifest_path = _sibling(csv_path, ".manifest.json")
    _write_series_csv(csv_path, series)
    _write_manifest(manifest_path, "classical", params, {"csv": csv_path})
    print(csv_path)
    return 0


def cmd_mixing_sweep(args) -> int:
    defaults = {
        "sites": None,
        "env_dims": None,
        "samples": 30,
        "steps": None,
        "seed": 0,
        "spread": 1.0,
    }
    params = _merge_config(args, defaults)
    _require(params, "sites", "env_dims", "steps")
    sites = _as_int(params, "sites")
    steps = _as_int(params, "steps")
    seed = _as_int(params, "seed")
    samples = _as_int(params, "samples")
    spread = _as_float(params, "spread")
    env_dims = _as_number_list(params, "env_dims", int)
    _check_sites(sites)

    rows = ["d_b,tau_mix,tau_err"]
    point_log = []
    for j, d_e in enumerate(env_dims):
        template = NonlocalTemplate(d_s=sites, d_e=d_e, spread=spread)
        result = quench_average(template, samples, (seed, j), steps)
        try:
            window = select_fit_window(result.mean)
            fit = fit_exponential_mixing(result.mean, window)
            tau, err = fit.params["tau_mix"], fit.std_errors["tau_mix"]
            point_log.append({"d_e": d_e, "index": j, "window": list(window)})
        except (FitWindowError, DomainError) as exc:
            # Degrade per point instead of aborting the sweep.
            tau, err = math.nan, math.nan
            point_log.append({"d_e": d_e, "index": j, "error": str(exc)})
        rows.append(f"{2 * d_e},{_fmt(tau)},{_fmt(err)}")

    fit_cl, spectral = classical_mixing_time(sites)
    rows.append(f"inf,{_fmt(fit_cl.params['tau_mix'])},{_fmt(fit_cl.std_errors['tau_mix'])}")

    csv_path = _resolve_output(args, f"mixing_s{sites}_seed{seed}.csv")
    manifest_path = _sibling(csv_path, ".manifest.json")
    _write_text(csv_path, "\n".join(rows) + "\n")
    extra = {
        "points": point_log,
        "classical": {
            "tau_mix": fit_cl.params["tau_mix"],
            "tau_err": fit_cl.std_errors["tau_mix"],
            "tau_spectral": spectral,
        },
    }
    _write_manifest(manifest_path, "mixing-sweep", params, {"csv": csv_path}, extra)
    print(csv_path)
    return 0


def cmd_saturation_sweep(args) -> int:
    defaults = {
        "sites_list": None,
        "ratios": None,
        "env_dims": None,
        "samples": 10,
        "steps": None,
        "seed": 0,
        "spread": 1.0,
    }
    params = _merge_config(args, defaults)
    _require(params, "sites_list", "steps")
    if params["ratios"] is None and params["env_dims"] is None:
        raise ConfigurationError("one of --ratios or --env-dims is required")
    sites_list = _as_number_list(params, "sites_list", int)
    steps = _as_int(params, "steps")
    seed = _as_int(params, "seed")
    samples = _as_int(params, "samples")
    spread = _as_float(params, "spread")
    for d_s in sites_list:
        _check_sites(d_s)
    if params["ratios"] is not None:
        ratios = _as_number_list(params, "ratios", float)
        grid = [(d_s, max(1, round(r * d_s / 2.0))) for d_s in sites_list for r in ratios]
    else:
        env_dims = _as_number_list(params, "env_dims", int)
        grid = [(d_s, d_e) for d_s in sites_list for d_e in env_dims]

    rows = ["d_s,d_b,ratio,mean_d,std_d"]
    fit_points = []
    point_log = []
    for j, (d_s, d_e) in enumerate(grid):
        template = NonlocalTemplate(d_s=d_s, d_e=d_e, spread=spread)
        result = quench_average(template, samples, (seed, j), steps)
        summary = plateau_summary(result)
        d_b = 2 * d_e
        ratio = d_b / d_s
        rows.append(
            f"{d_s},{d_b},{_fmt(ratio)},{_fmt(summary.d_omega_mean)},{_fmt(summary.d_omega_std)}"
        )
        point_log.append({"d_s": d_s, "d_e": d_e, "index": j, "t_start": summary.t_start})
        if d_b > d_s:
            fit_points.append((ratio, summary.d_omega_mean))

    csv_path = _resolve_output(args, f"saturation_seed{seed}.csv")
    manifest_path = _sibling(csv_path, ".manifest.json")
    fit_path = _sibling(csv_path, ".fit.json")
    _write_text(csv_path, "\n".join(rows) + "\n")

    outputs = {"csv": csv_path}
    extra = {"points": point_log}
    if len(fit_points) >= 4:
        fit = fit_power_law(fit_points)
        provenance = {
            "command": "saturation-sweep",
            "parameters": params,
            "version": __version__,
        }
        _write_text(fit_path, json.dumps(fit.to_json(provenance), indent=2, sort_keys=True) + "\n")
        outputs["fit"] = fit_path
    else:
        print(
            f"warning: only {len(fit_points)} points with d_b > d_s, power-law fit skipped",
            file=sys.stderr,
        )
    _write_manifest(manifest_path, "saturation-sweep", params, outputs, extra)
    print(csv_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringwalk",
        description="Coined walks on a ring coupled to a finite unitary bath.",
    )
    parser.add_argument("--version", action="version", version=f"ringwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file mirroring the flags (flags override it)")
        p.add_argument("--output", help="CSV output path (default: derived name in "
                                        f"${OUTDIR_ENV_VAR} or the working directory)")

    p = sub.add_parser("simulate", help="single-configuration series, optionally quench-averaged")
    p.add_argument("--model", choices=["nonlocal", "local"])
    p.add_argument("--sites", type=int)
    p.add_argument("--env-dim", type=int, dest="env_dim")
    p.add_argument("--theta0", type=float)
    p.add_argument("--phi0", type=float)
    p.add_argument("--theta1", type=float)
    p.add_argument("--phi1", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--spread", type=float)
    p.add_argument("--coin", help="'hadamard' or a JSON matrix file")
    p.add_argument("--initial-coin", dest="initial_coin", help="'plus-i' or a JSON vector file")
    p.add_argument("--samples", type=int)
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mixing-sweep", help="mixing time vs bath dimension")
    p.add_argument("--sites", type=int)
    p.add_argument("--env-dims", dest="env_dims", help="comma-separated environment dimensions")
    p.add_argument("--samples", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--spread", type=float)
    add_common(p)
    p.set_defaults(func=cmd_mixing_sweep)

    p = sub.add_parser("saturation-sweep", help="plateau level vs bath/lattice ratio")
    p.add_argument("--sites-list", dest="sites_list", help="comma-separated odd site counts")
    p.add_argument("--ratios", help="comma-separated bath/lattice ratios")
    p.add_argument("--env-dims", dest="env_dims", help="comma-separated environment dimensions")
    p.add_argument("--samples", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--spread", type=float)
    add_common(p)
    p.set_defaults(func=cmd_saturation_sweep)

    p = sub.add_parser("classical", help="classical reference walk")
    p.add_argument("--sites", type=int)
    p.add_argument("--steps", type=int)
    add_common(p)
    p.set_defaults(func=cmd_classical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RingwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
