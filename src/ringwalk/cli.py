"""Reproducible experiment driver.

Four subcommands cover the standard experiments: ``simulate`` (single
model or quench-averaged series), ``mixing-sweep`` (mixing time vs. bath
dimension, with the classical reference appended), ``saturation-sweep``
(plateau level vs. bath/lattice ratio plus the power-law fit) and
``classical`` (the reference walk alone).

``COMMANDS`` is the one place where each subcommand's parameters are
declared, with their types, defaults and help: the flags, the config-file
keys and the manifest ``parameters`` block all come from it.  Each value
is resolved as flag > config file > default and cast once, in
``_merge_config``, before the handler runs.

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
    fit_power_law,
    mixing_fit,
    plateau_summary,
    quench_average,
    walk_series,
)
from .classical import classical_mixing_time, classical_series
from .core import HADAMARD, PLUS_I_COIN, LocalEnvironment, WalkModel, _json_input, _write_file
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


def _series_csv(series: ObservableSeries, std=None) -> str:
    lines = ["t,d_omega,entropy" + (",d_omega_std" if std is not None else "")]
    for i in range(series.t.size):
        row = f"{int(series.t[i])},{_fmt(series.d_omega[i])},{_fmt(series.entropy[i])}"
        if std is not None:
            row += f",{_fmt(std[i])}"
        lines.append(row)
    return "\n".join(lines) + "\n"


#: The manifest's ``rng`` line, given the spawn key of the command's samples; a
#: command that draws nothing records none.
_RNG = "philox4x64 keyed by numpy SeedSequence(seed, spawn_key={})"


def _finish(args, params: dict, name: str, csv_text: str, extra=None, fit_text=None) -> int:
    """Write the CSV, its ``.fit.json`` if any, then its manifest; print the CSV path."""
    csv_path = _resolve_output(args, name)
    outputs = {"csv": csv_path}
    _write_file(csv_path, csv_text.encode())
    if fit_text is not None:
        outputs["fit"] = _sibling(csv_path, ".fit.json")
        _write_file(outputs["fit"], fit_text.encode())
    doc = {
        "command": args.command,
        "parameters": params,
        "base_seed": params.get("seed"),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": {k: str(v) for k, v in outputs.items()},
        **(extra or {}),
    }
    manifest = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _write_file(_sibling(csv_path, ".manifest.json"), manifest.encode())
    print(csv_path)
    return 0


def _load_config(path: str) -> dict:
    doc = _json_input(Path(path).read_bytes(), path)
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config {path} must contain a JSON object")
    # A run manifest is accepted directly: its parameters block mirrors the flags.
    if "parameters" in doc and isinstance(doc["parameters"], dict):
        doc = doc["parameters"]
    return doc


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


_KINDS = {int: "an integer", float: "a number"}


def _cast_one(cast, value):
    """``cast(value)``, except that a bool is no number and a fractional number
    no integer: a config value is never truncated."""
    if cast in _KINDS and isinstance(value, bool):
        raise TypeError(value)
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return cast(value)


def _cast(name: str, cast, value):
    """``cast(value)``; a one-element list cast like ``[int]`` reads a comma-separated
    string (or a JSON list from a config file) into a non-empty list."""
    flag = _flag(name)
    if isinstance(cast, list):
        if isinstance(value, str):
            value = [part for part in value.split(",") if part.strip()]
        try:
            value = [_cast_one(cast[0], v) for v in value]
        except (TypeError, ValueError):
            raise ConfigurationError(f"{flag} must be a comma-separated list") from None
        if not value:
            raise ConfigurationError(f"{flag} must not be empty")
        return value
    try:
        return _cast_one(cast, value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{flag} must be {_KINDS[cast]}") from None


def _merge_config(args, spec: dict) -> dict:
    """Resolve each parameter of ``spec`` as flag > config file > default and cast it.

    A parameter with no default that is given nowhere stays ``None``.
    """
    cfg = _load_config(args.config) if args.config else {}
    unknown = set(cfg) - set(spec)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    params = {}
    for name, (cast, default, _) in spec.items():
        value = getattr(args, name)
        if value is None:
            value = cfg.get(name, default)
        if value is not None or default is not None:
            value = _cast(name, cast, value)
        params[name] = value
    # Every command declares --steps; the sampling commands declare --seed.
    if params["steps"] is not None and params["steps"] < 1:
        raise ConfigurationError(f"--steps must be >= 1, got {params['steps']}")
    if params.get("seed", 0) < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {params['seed']}")
    return params


def _require(params: dict, *names: str) -> None:
    missing = [n for n in names if params.get(n) is None]
    if missing:
        flags = ", ".join(_flag(n) for n in missing)
        raise ConfigurationError(f"missing required option(s): {flags}")


def _load_coin(choice: str, default: str) -> np.ndarray:
    """The named default (``hadamard`` or ``plus-i``), or a JSON matrix file."""
    if choice == default:
        return {"hadamard": HADAMARD, "plus-i": PLUS_I_COIN}[default]
    return matrix_from_json(_json_input(Path(choice).read_bytes(), choice))


def cmd_simulate(args, p: dict) -> int:
    _require(p, "model", "sites", "steps")
    sites, steps, seed, samples = p["sites"], p["steps"], p["seed"], p["samples"]
    coin = _load_coin(p["coin"], "hadamard")
    initial_coin = _load_coin(p["initial_coin"], "plus-i")

    extra = {}
    if p["model"] == "nonlocal":
        _require(p, "env_dim")
        template = NonlocalTemplate(
            d_s=sites, d_e=p["env_dim"], spread=p["spread"], coin=coin, initial_coin=initial_coin
        )
        result = quench_average(template, samples, seed, steps)
        text = _series_csv(result.mean, result.d_omega_std if samples > 1 else None)
        extra["rng"] = _RNG.format("(sample,)")
        extra["sample_seed_paths"] = [s.metadata["seed_path"] for s in result.samples]
        extra.update(_run_facts(result))
        name = f"simulate_nonlocal_s{sites}_e{p['env_dim']}_t{steps}_k{samples}_seed{seed}.csv"
    elif p["model"] == "local":
        _require(p, "theta0", "phi0", "theta1", "phi1")
        if samples != 1:
            raise ConfigurationError(
                "the local model has no environment sampling; --samples must be 1"
            )
        gates = [make_local_gate(GateAngles(p[f"theta{b}"], p[f"phi{b}"])) for b in (0, 1)]
        model = WalkModel(
            d_s=sites, environment=LocalEnvironment(*gates), coin=coin,
            initial_coin=initial_coin, seed=seed,
        )
        text = _series_csv(walk_series(model, steps))
        name = f"simulate_local_s{sites}_t{steps}_seed{seed}.csv"
    else:
        raise ConfigurationError(f"--model must be 'nonlocal' or 'local', got {p['model']!r}")
    return _finish(args, p, name, text, extra)


def cmd_classical(args, p: dict) -> int:
    _require(p, "sites", "steps")
    sites, steps = p["sites"], p["steps"]
    text = _series_csv(classical_series(sites, 0, steps))
    return _finish(args, p, f"classical_s{sites}_t{steps}.csv", text)


def _run_facts(result) -> dict:
    """What a quench point ran with, for its manifest: BLAS threads and bath basis."""
    return {"blas_threads": result.blas_threads, "bath_basis": result.mean.metadata["bath_basis"]}


def _sweep(p: dict, grid: list):
    """Quench-average each (d_s, d_e) point j of ``grid``, in order, from streams (seed, j, k)."""
    # Every point is checked before the first sample is drawn.
    templates = [NonlocalTemplate(d_s=d_s, d_e=d_e, spread=p["spread"]) for d_s, d_e in grid]
    for j, ((d_s, d_e), template) in enumerate(zip(grid, templates)):
        result = quench_average(template, p["samples"], (p["seed"], j), p["steps"])
        yield d_s, d_e, result, {"d_e": d_e, "index": j, **_run_facts(result)}


def cmd_mixing_sweep(args, p: dict) -> int:
    _require(p, "sites", "env_dims", "steps")
    sites, seed = p["sites"], p["seed"]
    rows = ["d_b,tau_mix,tau_err"]
    point_log = []
    for _, d_e, result, entry in _sweep(p, [(sites, d_e) for d_e in p["env_dims"]]):
        try:
            fit = mixing_fit(result.mean)
            tau, err = fit.params["tau_mix"], fit.std_errors["tau_mix"]
            entry["window"] = list(fit.window)
        except (FitWindowError, DomainError) as exc:
            # Degrade per point instead of aborting the sweep.
            tau, err = math.nan, math.nan
            entry["error"] = str(exc)
        point_log.append(entry)
        rows.append(f"{2 * d_e},{_fmt(tau)},{_fmt(err)}")

    fit_cl, spectral = classical_mixing_time(sites)
    rows.append(f"inf,{_fmt(fit_cl.params['tau_mix'])},{_fmt(fit_cl.std_errors['tau_mix'])}")
    extra = {
        "rng": _RNG.format("(point, sample)"),
        "points": point_log,
        "classical": {
            "tau_mix": fit_cl.params["tau_mix"],
            "tau_err": fit_cl.std_errors["tau_mix"],
            "tau_spectral": spectral,
        },
    }
    return _finish(args, p, f"mixing_s{sites}_seed{seed}.csv", "\n".join(rows) + "\n", extra)


def cmd_saturation_sweep(args, p: dict) -> int:
    _require(p, "sites_list", "steps")
    if (p["ratios"] is None) == (p["env_dims"] is None):
        raise ConfigurationError("exactly one of --ratios or --env-dims is required")
    sites_list = p["sites_list"]
    if p["ratios"] is not None:
        if not all(math.isfinite(r) and r > 0 for r in p["ratios"]):
            raise ConfigurationError(f"--ratios must be finite and > 0, got {p['ratios']}")
        grid = []
        for d_s in sites_list:
            for r in p["ratios"]:
                d_e = round(r * d_s / 2.0)
                if d_e < 1:
                    raise ConfigurationError(
                        f"--ratios {r:g} at d_s={d_s} asks for d_b < 2; "
                        f"the smallest ratio d_s={d_s} allows is 2/{d_s} = {2 / d_s:.4g}"
                    )
                grid.append((d_s, d_e))
    else:
        grid = [(d_s, d_e) for d_s in sites_list for d_e in p["env_dims"]]

    rows = ["d_s,d_b,ratio,mean_d,std_d"]
    fit_points = []
    point_log = []
    for d_s, d_e, result, entry in _sweep(p, grid):
        summary = plateau_summary(result)
        d_b = 2 * d_e
        ratio = d_b / d_s
        rows.append(
            f"{d_s},{d_b},{_fmt(ratio)},{_fmt(summary.d_omega_mean)},{_fmt(summary.d_omega_std)}"
        )
        point_log.append({"d_s": d_s, "t_start": summary.t_start, **entry})
        if d_b > d_s:
            fit_points.append((ratio, summary.d_omega_mean))

    provenance = {"command": "saturation-sweep", "parameters": p, "version": __version__}
    try:
        fit = fit_power_law(fit_points).to_json(provenance)
        fit_text = json.dumps(fit, indent=2, sort_keys=True) + "\n"
    except DomainError as exc:
        fit_text = None
        print(f"warning: power-law fit skipped: {exc}", file=sys.stderr)
    name = f"saturation_seed{p['seed']}.csv"
    extra = {"rng": _RNG.format("(point, sample)"), "points": point_log}
    return _finish(args, p, name, "\n".join(rows) + "\n", extra, fit_text)


# Per subcommand: (handler, help, {parameter: (cast, default, help)}).  A cast is
# int, float, str, or [int] / [float] for a comma-separated list.
_RUN = {"steps": (int, None, None), "seed": (int, 0, None), "spread": (float, 1.0, None)}
COMMANDS = {
    "simulate": (cmd_simulate, "single-configuration series, optionally quench-averaged", {
        "model": (str, None, None),
        "sites": (int, None, None),
        "env_dim": (int, None, None),
        "theta0": (float, None, None),
        "phi0": (float, None, None),
        "theta1": (float, None, None),
        "phi1": (float, None, None),
        **_RUN,
        "coin": (str, "hadamard", "'hadamard' or a JSON matrix file"),
        "initial_coin": (str, "plus-i", "'plus-i' or a JSON vector file"),
        "samples": (int, 1, None),
    }),
    "mixing-sweep": (cmd_mixing_sweep, "mixing time vs bath dimension", {
        "sites": (int, None, None),
        "env_dims": ([int], None, "comma-separated environment dimensions"),
        "samples": (int, 30, None),
        **_RUN,
    }),
    "saturation-sweep": (cmd_saturation_sweep, "plateau level vs bath/lattice ratio", {
        "sites_list": ([int], None, "comma-separated odd site counts"),
        "ratios": ([float], None, "comma-separated bath/lattice ratios"),
        "env_dims": ([int], None, "comma-separated environment dimensions"),
        "samples": (int, 10, None),
        **_RUN,
    }),
    "classical": (cmd_classical, "classical reference walk", {
        "sites": (int, None, None),
        "steps": (int, None, None),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringwalk",
        description="Coined walks on a ring coupled to a finite unitary bath.",
    )
    parser.add_argument("--version", action="version", version=f"ringwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, spec) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, (_, _, flag_help) in spec.items():
            # Values stay strings here; _merge_config casts them like config values.
            p.add_argument(_flag(name), dest=name, help=flag_help)
        p.add_argument("--config", help="JSON file mirroring the flags (flags override it)")
        p.add_argument("--output", help="CSV output path (default: derived name in "
                                        f"${OUTDIR_ENV_VAR} or the working directory)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, _, spec = COMMANDS[args.command]
    try:
        return handler(args, _merge_config(args, spec))
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
