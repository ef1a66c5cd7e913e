"""Time one fresh process's set-up for a workload and print it as JSON.

    python3 perfbench/setup_probe.py WORKLOAD CLI_SEED

Set-up is ``import ringwalk`` (numpy included, as a user pays it) plus
building every model the workload's command evolves, which includes the
first linear-algebra call.
"""

import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, build_models


def main(name: str, cli_seed: int) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import ringwalk  # noqa: F401  (timed)

    t1 = time.perf_counter()
    models = build_models(WORKLOADS[name], cli_seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "models_s": t2 - t1, "setup_s": t2 - t0,
                      "models": len(models)}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
