"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by run.py or directories of them
(``perfbench/results/`` by default holds one file per run).  For every
workload and trace mode the two sides' medians and quartile spreads are
printed with their ratio.  A comparison whose sides ran with different
BLAS thread counts is flagged, because the thread count alone moves
``wall_s`` and ``cpu_s``.
"""

import json
import statistics
import sys
from pathlib import Path


def load(path: Path) -> dict:
    """{(workload, trace): [record, ...]} from a file or a directory."""
    files = sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path]
    groups = {}
    for f in files:
        record = json.loads(f.read_text(encoding="utf-8"))
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def _stats(values):
    values = [v for v in values if v is not None]
    if not values:
        return None, None
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def _num(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def compare(base: dict, new: dict) -> list:
    lines = []
    for key in sorted(set(base) & set(new)):
        threads = [{r["machine"]["blas_threads"] for r in side[key]} for side in (base, new)]
        lines.append(f"{key[0]} trace={key[1]}: {len(base[key])} base runs, "
                     f"{len(new[key])} new runs")
        if threads[0] != threads[1] or len(threads[0]) > 1:
            lines.append(f"  FLAG: BLAS threads differ: base {sorted(threads[0], key=str)} "
                         f"new {sorted(threads[1], key=str)}")
        for name in base[key][0]["result"]["metrics"]:
            b, bq = _stats([r["result"]["metrics"][name]["value"] for r in base[key]])
            n, nq = _stats([r["result"]["metrics"].get(name, {}).get("value") for r in new[key]])
            unit = base[key][0]["result"]["metrics"][name]["unit"]
            ratio = f"{n / b:.4f}" if b and n is not None else "-"
            lines.append(f"  {name:34s} base {_num(b):>11} (iqr {_num(bq)}) "
                         f"new {_num(n):>11} (iqr {_num(nq)}) new/base {ratio} {unit}")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(compare(load(Path(argv[0])), load(Path(argv[1])))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
