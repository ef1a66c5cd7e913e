"""Correctness gate: compare a command's outputs with stored reference outputs.

The reference of a series CSV is a fingerprint, not the whole file: the
header, the row count, every ``stride``-th row in full, and per column the
sum and the first moment (sum of row index times value).  A change in any
single value moves a sum; a swap of two values moves a moment.  Values are
compared with a tolerance that admits rounding drift (RTOL per value); the
sums therefore catch a change of one value between picked rows once it
exceeds RTOL times its column's absolute sum.
"""

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Rounding drift admitted per value (relative, absolute).
RTOL, ATOL = 1e-8, 1e-10

#: |1 - ||psi||| admitted for the final state, the PureState norm tolerance.
NORM_TOL = 1e-10

_PICKED_ROWS = 8


def parse_csv(text: str) -> tuple:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def fingerprint(text: str) -> dict:
    header, rows = parse_csv(text)
    stride = max(1, len(rows) // _PICKED_ROWS)
    cols = list(zip(*rows)) if rows else [() for _ in header]
    return {
        "header": header,
        "rows": len(rows),
        "picked": {str(i): rows[i] for i in range(0, len(rows), stride)},
        "sum": [math.fsum(c) for c in cols],
        "moment": [math.fsum(i * v for i, v in enumerate(c)) for c in cols],
        "abs_sum": [math.fsum(abs(v) for v in c) for c in cols],
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


def compare_fingerprints(ref: dict, got: dict) -> list:
    """Return a list of mismatch descriptions (empty when within tolerance)."""
    if ref["header"] != got["header"]:
        return [f"header {got['header']} != {ref['header']}"]
    if ref["rows"] != got["rows"]:
        return [f"row count {got['rows']} != {ref['rows']}"]
    problems = []
    for i, ref_row in ref["picked"].items():
        got_row = got["picked"].get(i)
        if got_row is None or not all(map(_close, ref_row, got_row)):
            problems.append(f"row {i}: {got_row} != {ref_row}")
    n = ref["rows"]
    for key, max_weight in (("sum", 1), ("moment", n)):
        for col, (r, g) in enumerate(zip(ref[key], got[key])):
            # The per-value tolerance summed over the values aggregated,
            # each weighted at most max_weight.
            bound = max_weight * (ATOL * n + RTOL * ref["abs_sum"][col])
            if abs(r - g) > bound:
                problems.append(f"column {ref['header'][col]} {key}: {g!r} != {r!r}")
    return problems


def fit_summary(text: str) -> dict:
    params = json.loads(text)["params"]
    return {"C": params["C"], "x": params["x"]}


def compare_fit(ref: dict, got: dict) -> list:
    problems = [f"{k} is not finite ({got[k]!r})" for k in ("C", "x")
                if not math.isfinite(got[k])]
    problems += [f"{k}: {got[k]!r} != {ref[k]!r}" for k in ("C", "x")
                 if math.isfinite(got[k]) and not _close(ref[k], got[k])]
    return problems


def summarize_outputs(csv_path: Path, suffixes: tuple) -> dict:
    """Fingerprint what a command wrote; raises OSError if a file is missing."""
    out = {"csv": fingerprint(csv_path.read_text(encoding="utf-8"))}
    for suffix in suffixes:
        path = csv_path.with_name(csv_path.stem + suffix)
        text = path.read_text(encoding="utf-8")  # raises if missing
        if suffix == ".fit.json":
            out["fit"] = fit_summary(text)
    return out


def compare_outputs(ref: dict, got: dict) -> list:
    problems = compare_fingerprints(ref["csv"], got["csv"])
    if "fit" in ref:
        problems += compare_fit(ref["fit"], got["fit"]) if "fit" in got else ["fit.json missing"]
    return problems


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)
