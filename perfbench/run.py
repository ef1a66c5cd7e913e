"""ringwalk benchmark: one CLI command per operation, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each operation calls ``ringwalk.cli.main`` in this process and checks its
outputs against ``reference.json``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
operations and reports the per-layer metrics.  ``--workload all`` runs every workload untraced, then traced.
The last line of standard output is the result as one JSON object; the
full record, with the machine record and every sample, goes to
``perfbench/results/``.  See NOTES.md for why each workload exists.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import tracing
from machine import machine_record
from workloads import REFERENCE_SEEDS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Relative to the repository root (the working directory of a run), so
# manifests, which record the output path, have the same size wherever the
# checkout lives.
WORK_DIR = Path("perfbench") / "_work"
RESULTS_DIR = BENCH_DIR / "results"

#: Fresh processes timed per run for setup_s; the median is reported.
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "1",
}


def import_ringwalk():
    """Import ringwalk from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import ringwalk.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ringwalk from {src}: {exc}")
    if src.resolve() not in Path(ringwalk.__file__).resolve().parents:
        raise SystemExit(f"error: imported ringwalk from {ringwalk.__file__}, not {src}")
    return ringwalk.cli


class Operation:
    """Runs the workload's command once and checks what it wrote."""

    def __init__(self, cli, workload, cli_seed, reference):
        self.cli, self.workload, self.cli_seed, self.reference = cli, workload, cli_seed, reference
        self.csv = WORK_DIR / workload.name / "out.csv"
        self.argv = workload.argv(cli_seed, str(self.csv))

    def run(self, tracer=None) -> dict:
        shutil.rmtree(self.csv.parent, ignore_errors=True)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    status = self.cli.main(self.argv)
                else:
                    status = tracer.call(tracing.ROOT, self.cli.main, (self.argv,))
        except SystemExit as exc:
            status = exc.code
        except Exception:  # an operation that raises is counted, not fatal
            status = traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        problems = [] if status == 0 else [f"exit status {status!r}"]
        if not problems:
            try:
                got = check.summarize_outputs(self.csv, self.workload.siblings())
                problems = check.compare_outputs(self.reference, got)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"output unreadable or missing: {exc!r}"]
        written = sum(p.stat().st_size for p in self.csv.parent.glob("*") if p.is_file())
        return {"wall": wall, "cpu": cpu, "problems": problems, "bytes": written}


def warm_up() -> None:
    """Finish lazy start-up before anything is timed.

    OpenBLAS starts its worker threads on the first call large enough to
    be threaded; until they run, such calls can take milliseconds instead
    of microseconds (about one second of them on a 2-vCPU VM).  Users pay
    that once per process, and ``setup_s`` counts it where a workload's
    models make such calls.
    """
    import numpy as np

    a = np.ones((96, 96), dtype=np.complex128)
    deadline = time.perf_counter() + 10.0
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        a @ a
        if time.perf_counter() - start < 1e-3:
            break


def measure_setup(workload, cli_seed) -> list:
    probe = BENCH_DIR / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(probe), workload.name, str(cli_seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def untraced_run(op, seconds) -> tuple:
    warm_up()
    # One untimed operation first: it is checked like the others, but the
    # caches and allocator it warms are not what the median should see.
    first = op.run()
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(op.run())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # After the loop, so that the fresh processes start on CPUs as busy as
    # the timed operations ran on: started from idle, the first ones take
    # up to twice as long on a small VM.
    setup = measure_setup(op.workload, op.cli_seed)
    timed, ops = ops, [first, *ops]
    failed = sum(bool(o["problems"]) for o in ops)
    metrics = {
        "wall_s": statistics.median(o["wall"] for o in timed),
        "cpu_s": statistics.median(o["cpu"] for o in timed),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
        "success_rate": 1.0 - failed / len(ops),
    }
    samples = {"wall_s": [o["wall"] for o in timed], "cpu_s": [o["cpu"] for o in timed],
               "setup_s": setup}
    note = (f"wall_s, cpu_s: medians of {len(timed)} timed operations; "
            f"setup_s: median of {len(setup)} fresh processes")
    return ops, metrics, END_TO_END_UNITS, samples, note


def traced_run(op, seconds, blas_threads) -> tuple:
    tracer = tracing.Tracer()
    expected = op.workload.expected_counts()
    warm_up()
    untraced, traced, summaries = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(op.run())
        tracer.install()
        try:
            result = op.run(tracer)
        finally:
            tracer.uninstall()
        summary = tracing.summarize_op(tracer.take(), result["wall"], tracer.absent)
        result["problems"] += tracing.count_problems(summary, expected)
        drift = max(summary["roles"].get("evolve", {}).get("extras", []), default=0.0)
        if drift > check.NORM_TOL:
            result["problems"].append(f"norm drift {drift:.3e} > {check.NORM_TOL:g}")
        traced.append(result)
        summaries.append(summary)
    ops = untraced + traced
    failed = sum(bool(o["problems"]) for o in ops)
    metrics = tracing.layer_metrics(
        summaries, expected, traced[0]["bytes"], [o["wall"] for o in untraced],
        blas_threads, failed / len(ops),
    )
    samples = {"untraced_wall_s": [o["wall"] for o in untraced],
               "traced_wall_s": [o["wall"] for o in traced],
               "absent": sorted(tracer.absent)}
    layers = ("envgen.sample_s", "core.self_s", "observables.mixedness_s", "analysis.self_s",
              "cli.self_s", "trace.unattributed_s")
    note = (f"means of {len(traced)} traced operations (percentiles over every call); "
            f"layer self times + unattributed = {sum(metrics[k] or 0.0 for k in layers):.6g} s, "
            f"trace.wall_s = {metrics['trace.wall_s']:.6g} s; "
            f"absent targets: {', '.join(sorted(tracer.absent)) or 'none'}")
    return ops, metrics, tracing.PER_LAYER_UNITS, samples, note


def _format(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def run_one(args) -> int:
    os.chdir(ROOT)  # WORK_DIR is relative to it
    cli = import_ringwalk()
    workload = WORKLOADS[args.workload]
    cli_seed = args.seed % REFERENCE_SEEDS
    try:
        reference = check.load_reference()[workload.name][str(cli_seed)]
    except (OSError, KeyError, ValueError) as exc:
        raise SystemExit(f"error: no reference output for {workload.name} seed {cli_seed}: {exc!r}")
    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True), flush=True)
    op = Operation(cli, workload, cli_seed, reference)
    if args.trace:
        ops, metrics, units, samples, note = traced_run(op, args.seconds, machine["blas_threads"])
    else:
        ops, metrics, units, samples, note = untraced_run(op, args.seconds)
    shutil.rmtree(WORK_DIR / workload.name, ignore_errors=True)

    failed = [o for o in ops if o["problems"]]
    for o in failed[:5]:
        print("failed: " + "; ".join(o["problems"])[-1000:], file=sys.stderr)
    print(f"{workload.name} trace={args.trace} seed={args.seed} (cli seed {cli_seed}): "
          f"{len(ops)} operations, {len(failed)} failed")
    for name, value in metrics.items():
        print(f"  {name:34s} {_format(value):>14s} {units[name]}")
    print(f"  ({note})")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "cli_seed": cli_seed,
              "trace": args.trace, "seconds": args.seconds, "machine": machine,
              "samples": samples, "problems": [o["problems"] for o in failed], "result": result}
    out = RESULTS_DIR / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then every workload traced, each in a fresh process."""
    results, status = {}, 0
    for trace in (0, 1):
        for name in WORKLOADS:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                status = done.returncode
                continue
            results[f"{name}/trace{trace}"] = json.loads(done.stdout.splitlines()[-1])
    correct = all(r["correct"] for r in results.values()) and status == 0
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "runs": results}, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
