"""Regenerate reference.json: output fingerprints for every workload and CLI seed.

    python3 perfbench/make_reference.py

The stored file is the correctness gate of the benchmark, so regenerate it
only together with a change that is meant to move the outputs, and state
the drift that change causes.
"""

import contextlib
import io
import json
import os
import shutil

import check
from run import ROOT, WORK_DIR, import_ringwalk
from workloads import REFERENCE_SEEDS, WORKLOADS


def main() -> None:
    os.chdir(ROOT)  # WORK_DIR is relative to it
    cli = import_ringwalk()
    csv = WORK_DIR / "reference" / "out.csv"
    reference = {}
    for name, workload in WORKLOADS.items():
        reference[name] = {}
        for seed in range(REFERENCE_SEEDS):
            shutil.rmtree(csv.parent, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(workload.argv(seed, str(csv)))
            if status != 0:
                raise SystemExit(f"error: {name} seed {seed} exited with {status}")
            reference[name][str(seed)] = check.summarize_outputs(csv, workload.siblings())
            print(f"{name} seed {seed}", flush=True)
    shutil.rmtree(csv.parent, ignore_errors=True)
    check.REFERENCE_PATH.write_text(json.dumps(reference, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
