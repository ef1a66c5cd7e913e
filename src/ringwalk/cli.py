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
quench means), fits and run manifests to JSON.  ``_csv`` is the one place
where the CSV format is decided (17 significant digits, newline-terminated
rows), ``_write_json`` the one JSON writer.  All randomness flows from
``--seed``: sweep point j, sample k draws from the Philox stream keyed by
(seed, j, k), so any row can be regenerated from the manifest alone.
Reruns with identical parameters produce byte-identical CSVs.

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
    RingwalkError,
)

OUTDIR_ENV_VAR = "RINGWALK_OUTDIR"


def _sibling(path: Path, suffix: str) -> Path:
    return path.with_name(path.stem + suffix)


def _csv(header, rows) -> str:
    """A float cell (numpy's too) at 17 significant digits, any other through ``str``."""
    return "".join(
        ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in (header, *rows)
    )


def _series_csv(series: ObservableSeries, std=None) -> str:
    columns = {"t": series.t, "d_omega": series.d_omega, "entropy": series.entropy}
    if std is not None:
        columns["d_omega_std"] = std
    return _csv(list(columns), zip(*columns.values()))


def _draws(seed: int, spawn_key: str) -> dict:
    """The manifest's ``base_seed`` and ``rng`` lines of a command that draws its samples
    from the streams (seed, *spawn_key); a command that draws nothing records neither."""
    rng = f"philox4x64 keyed by numpy SeedSequence(seed, spawn_key={spawn_key})"
    return {"base_seed": seed, "rng": rng}


def _write_json(path: Path, doc: dict) -> None:
    _write_file(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


def _finish(args, params: dict, name: str, csv_text: str, extra=None, fit=None) -> int:
    """Write the CSV, its ``fit`` (if any) as ``.fit.json``, then its manifest; print its path."""
    out_dir = Path(os.environ.get(OUTDIR_ENV_VAR, "."))
    csv_path = Path(args.output) if args.output else out_dir / name
    outputs = {"csv": csv_path}
    _write_file(csv_path, csv_text.encode())
    if fit is not None:
        outputs["fit"] = _sibling(csv_path, ".fit.json")
        _write_json(outputs["fit"], fit)
    manifest = {
        "command": args.command,
        "parameters": params,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": {k: str(v) for k, v in outputs.items()},
        **(extra or {}),
    }
    _write_json(_sibling(csv_path, ".manifest.json"), manifest)
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
    other = {"nonlocal": ("theta0", "phi0", "theta1", "phi1"), "local": ("env_dim", "spread")}
    stray = [_flag(n) for n in other.get(p["model"], ()) if p[n] is not None]
    if stray:
        raise ConfigurationError(f"--model {p['model']} takes no {', '.join(stray)}")
    sites, steps, seed, samples = p["sites"], p["steps"], p["seed"], p["samples"]
    coin = _load_coin(p["coin"], "hadamard")
    initial_coin = _load_coin(p["initial_coin"], "plus-i")

    extra = {}
    if p["model"] == "nonlocal":
        _require(p, "env_dim")
        if p["spread"] is None:  # recorded as run, so the manifest re-executes
            p["spread"] = _RUN["spread"][1]
        template = NonlocalTemplate(
            d_s=sites, d_e=p["env_dim"], spread=p["spread"], coin=coin, initial_coin=initial_coin
        )
        result = quench_average(template, samples, seed, steps)
        text = _series_csv(result.mean, result.d_omega_std if samples > 1 else None)
        extra.update(_draws(seed, "(sample,)"))
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
        model = WalkModel(sites, LocalEnvironment(*gates), coin=coin, initial_coin=initial_coin)
        text = _series_csv(walk_series(model, steps))
        name = f"simulate_local_s{sites}_t{steps}.csv"
    else:
        raise ConfigurationError(f"--model must be 'nonlocal' or 'local', got {p['model']!r}")
    return _finish(args, p, name, text, extra)


def cmd_classical(args, p: dict) -> int:
    _require(p, "sites", "steps")
    sites, steps = p["sites"], p["steps"]
    text = _series_csv(classical_series(sites, steps))
    return _finish(args, p, f"classical_s{sites}_t{steps}.csv", text)


def _run_facts(result) -> dict:
    """What a quench point ran with, for its manifest: BLAS threads and bath basis."""
    return {"blas_threads": result.blas_threads, "bath_basis": result.mean.metadata["bath_basis"]}


def _sweep(p: dict, grid: list) -> tuple[list, list]:
    """Quench-average each (d_s, d_e) point j of ``grid``, in order, from streams (seed, j, k),
    and reduce it once, by ``plateau_summary``: the points' summaries and manifest entries."""
    # Every point is checked before the first sample is drawn.
    templates = [NonlocalTemplate(d_s=d_s, d_e=d_e, spread=p["spread"]) for d_s, d_e in grid]
    summaries, entries = [], []
    for j, ((d_s, d_e), template) in enumerate(zip(grid, templates)):
        result = quench_average(template, p["samples"], (p["seed"], j), p["steps"])
        summary = plateau_summary(result)
        entry = {"d_s": d_s, "d_e": d_e, "index": j, "t_start": summary.t_start}
        if summary.fit is None:
            entry["error"] = summary.fit_error
        else:
            entry["window"] = list(summary.fit.window)
        entry.update(_run_facts(result))
        summaries.append(summary)
        entries.append(entry)
    return summaries, entries


def _tau(fit) -> tuple[float, float]:
    """A relaxation fit's tau and its error; NaN for a point whose fit failed (``None``)."""
    if fit is None:
        return math.nan, math.nan
    return fit.params["tau_mix"], fit.std_errors["tau_mix"]


def cmd_mixing_sweep(args, p: dict) -> int:
    _require(p, "sites", "env_dims", "steps")
    sites, seed = p["sites"], p["seed"]
    summaries, points = _sweep(p, [(sites, d_e) for d_e in p["env_dims"]])
    # A point whose fit failed degrades to a NaN row instead of aborting the sweep.
    rows = [(2 * d_e, *_tau(summary.fit)) for d_e, summary in zip(p["env_dims"], summaries)]
    fit_cl, spectral = classical_mixing_time(sites)
    tau_cl, err_cl = _tau(fit_cl)
    rows.append(("inf", tau_cl, err_cl))
    extra = {
        **_draws(seed, "(point, sample)"),
        "points": points,
        "classical": {"tau_mix": tau_cl, "tau_err": err_cl, "tau_spectral": spectral},
    }
    text = _csv(("d_b", "tau_mix", "tau_err"), rows)
    return _finish(args, p, f"mixing_s{sites}_seed{seed}.csv", text, extra)


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

    summaries, points = _sweep(p, grid)
    rows = [
        (d_s, 2 * d_e, 2 * d_e / d_s, summary.d_omega_mean, summary.d_omega_std)
        for (d_s, d_e), summary in zip(grid, summaries)
    ]
    # The power law is fitted to the points above d_b = d_s.
    fit_points = [(ratio, mean_d) for d_s, d_b, ratio, mean_d, _ in rows if d_b > d_s]

    provenance = {"command": "saturation-sweep", "parameters": p, "version": __version__}
    try:
        fit = fit_power_law(fit_points).to_json(provenance)
    except DomainError as exc:
        fit = None
        print(f"warning: power-law fit skipped: {exc}", file=sys.stderr)
    text = _csv(("d_s", "d_b", "ratio", "mean_d", "std_d"), rows)
    extra = {**_draws(p["seed"], "(point, sample)"), "points": points}
    return _finish(args, p, f"saturation_seed{p['seed']}.csv", text, extra, fit)


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
        "spread": (float, None, None),  # no default: --model local takes no --spread
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
    except (RingwalkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ConfigurationError, DimensionMismatchError)):
            return 2
        return 3 if isinstance(exc, RingwalkError) else 4


if __name__ == "__main__":
    sys.exit(main())
