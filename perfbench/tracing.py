"""Spans around ringwalk's public functions, installed from the benchmark's side.

Each target is the module attribute through which a caller looks a function
up, so replacing the attribute puts a span around every call.  Spans nest in
call order; a span's self time is its duration minus its direct children's
durations.  A target whose name no longer exists is recorded as absent and
its metrics read ``None``: a refactor that renames a function loses that
layer's detail but never fails the run.
"""

import importlib
import inspect
import math
import statistics
import time
from dataclasses import dataclass


def _nonlocal_step_cost(args, result):
    # Two (d_s x d_e)(d_e x d_e) complex products: 8 real flops per complex
    # multiply-add.  Bytes: state read and written, e0 and e1 read.
    d_s, d_e = args[0].d_s, args[0].d_e
    return 16 * d_s * d_e * d_e, 64 * d_s * d_e + 32 * d_e * d_e


def _local_step_cost(args, result):
    d_s, d_e = args[0].d_s, args[0].d_e
    return 0, 64 * d_s * d_e


def _gram_cost(args, result):
    # a a^H with a of shape (d_s, 2 d_e): a read, the d_s x d_s product written.
    d_s, d_e = args[0].d_s, args[0].d_e
    return 8 * d_s * d_s * 2 * d_e, 32 * d_s * d_e + 16 * d_s * d_s


def _norm_drift(args, result):
    return abs(result.norm() - 1.0)


@dataclass(frozen=True)
class Target:
    path: str  # dotted path of the attribute the caller looks up
    layer: str
    role: str
    probe: object = None  # (args, result) -> extra value stored on the span


ROOT = Target("ringwalk.cli.main", "cli", "main")

TARGETS = (
    Target("ringwalk.cli.quench_average", "analysis", "quench"),
    Target("ringwalk.cli.walk_series", "analysis", "series"),
    Target("ringwalk.cli.plateau_summary", "analysis", "plateau"),
    Target("ringwalk.cli.fit_power_law", "analysis", "fit"),
    Target("ringwalk.analysis.select_fit_window", "analysis", "window"),
    Target("ringwalk.analysis.fit_exponential_mixing", "analysis", "fit"),
    Target("ringwalk.analysis.NonlocalTemplate.realize", "core", "validate"),
    Target("ringwalk.analysis.sample_environment_pair", "envgen", "sample"),
    Target("ringwalk.analysis.evolve", "core", "evolve", _norm_drift),
    Target("ringwalk.core.step_nonlocal", "core", "step", _nonlocal_step_cost),
    Target("ringwalk.core.step_local", "core", "step", _local_step_cost),
    Target("ringwalk.analysis.position_mixedness", "observables", "mixedness", _gram_cost),
)

#: Per-layer metrics of a traced run, with units, in report order.
PER_LAYER_UNITS = {
    "envgen.sample_ms_p50": "ms",
    "envgen.sample_s": "s",
    "envgen.pairs": "count",
    "core.validate_s": "s",
    "core.step_us_p50": "us",
    "core.step_us_p99": "us",
    "core.step_s": "s",
    "core.steps": "count",
    "core.step_gflops_computed": "GFLOP/s",
    "core.step_mb_computed": "MB",
    "core.evolve_self_s": "s",
    "core.self_s": "s",
    "core.norm_drift_max": "1",
    "observables.mixedness_us_p50": "us",
    "observables.mixedness_us_p99": "us",
    "observables.mixedness_s": "s",
    "observables.calls": "count",
    "observables.gram_gflops_computed": "GFLOP/s",
    "analysis.quench_self_s": "s",
    "analysis.fit_s": "s",
    "analysis.fit_window_errors": "count",
    "analysis.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_frac": "1",
    "trace.unattributed_s": "s",
    "machine.blas_threads": "count",
    "error_rate": "1",
}

#: Roles whose call count per operation is asserted, keyed as in
#: ``Workload.expected_counts``.
COUNTED_ROLES = ("step", "mixedness", "sample")


def resolve(path: str):
    """(owner, attribute) for a dotted path, or None if any part is missing."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


class Span:
    __slots__ = ("target", "parent", "start", "end", "raised", "extra")

    def __init__(self, target, parent):
        self.target, self.parent = target, parent
        self.start = self.end = 0.0
        self.raised, self.extra = False, None


class Tracer:
    """Installs wrappers on the targets and records one operation's spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent = {t.path for t in targets if resolve(t.path) is None}
        self.spans, self._stack, self._installed = [], [], []

    def install(self) -> None:
        for target in self.targets:
            if target.path in self.absent:
                continue
            owner, attr = resolve(target.path)
            # On a class this is the plain function, not a bound method.
            original = inspect.getattr_static(owner, attr)
            setattr(owner, attr, self._wrap(target, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, target, fn):
        def wrapped(*args, **kwargs):
            return self.call(target, fn, args, kwargs)

        return wrapped

    def call(self, target, fn, args=(), kwargs=None):
        span = Span(target, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException:
            span.raised = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if target.probe is not None:
            try:
                span.extra = target.probe(args, result)
            except (AttributeError, TypeError, IndexError):
                pass  # a refactored signature loses the probe, not the span
        return result

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def self_times(parents, durations) -> list:
    """Duration of each span minus the durations of its direct children."""
    out = list(durations)
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            out[parent] -= duration
    return out


def percentile(values, q: float):
    """Nearest-rank percentile; None for no values."""
    if not values:
        return None
    return sorted(values)[max(1, math.ceil(q / 100.0 * len(values))) - 1]


def tail_percentile(values, q: float, beyond: int = 10):
    """The q-th percentile, or None when fewer than ``beyond`` values lie
    above its rank: the highest percentile worth quoting has ten behind it."""
    if len(values) - math.ceil(q / 100.0 * len(values)) < beyond:
        return None
    return percentile(values, q)


def _new_role() -> dict:
    return {"n": 0, "dur": [], "self": 0.0, "extras": [], "raised": 0}


def summarize_op(spans, wall: float, absent: set, targets=TARGETS) -> dict:
    """Per-role and per-layer totals of one traced operation."""
    durations = [s.end - s.start for s in spans]
    selfs = self_times([s.parent for s in spans], durations)
    roles = {}
    for span, dur, own in zip(spans, durations, selfs):
        r = roles.setdefault(span.target.role, _new_role())
        r["n"] += 1
        r["dur"].append(dur)
        r["self"] += own
        r["raised"] += span.raised
        if span.extra is not None:
            r["extras"].append(span.extra)
    installed = {t.role for t in targets if t.path not in absent} | {ROOT.role}
    layer_self = {}
    for span, own in zip(spans, selfs):
        layer_self[span.target.layer] = layer_self.get(span.target.layer, 0.0) + own
    return {
        "wall": wall,
        "roles": roles,
        "installed": installed,
        "layer_self": layer_self,
        "unattributed": wall - sum(selfs),
    }


def count_problems(summary: dict, expected: dict) -> list:
    """Mismatches between counted roles' call counts and the expected counts."""
    problems = []
    for role in COUNTED_ROLES:
        n = summary["roles"].get(role, {"n": 0})["n"]
        if role in summary["installed"] and n and n != expected[role]:
            problems.append(f"{role} calls {n} != expected {expected[role]}")
    return problems


def _present(summary, role, expected) -> bool:
    """A role is present when one of its targets was installed and, if the
    role is counted, it was called: a function that exists but is no longer
    on the call path reads as absent, like a missing name."""
    if role not in summary["installed"]:
        return False
    return role not in COUNTED_ROLES or expected[role] == 0 or role in summary["roles"]


def layer_metrics(summaries: list, expected: dict, bytes_written: int,
                  untraced_walls: list, blas_threads, error_rate: float) -> dict:
    """Combine per-operation summaries into the per-layer metrics.

    Times are means per operation, so layer self times plus the
    unattributed time add up to ``trace.wall_s``; percentiles pool every
    call of every traced operation; counts are per operation.
    """
    first = summaries[0]
    ops = len(summaries)

    def role(name):
        return [s["roles"].get(name) or _new_role() for s in summaries]

    def mean_self(*names):
        return sum(r["self"] for name in names for r in role(name)) / ops

    def pooled(name):
        return [d for r in role(name) for d in r["dur"]]

    def layer_self(layer):
        return sum(s["layer_self"].get(layer, 0.0) for s in summaries) / ops

    def scaled(value, factor):
        return None if value is None else value * factor

    def cost_rate(name, seconds):
        flops = sum(e[0] for r in role(name) for e in r["extras"]) / ops
        return flops / seconds / 1e9 if seconds > 0 else 0.0

    m = {}
    if _present(first, "sample", expected):
        m["envgen.sample_ms_p50"] = scaled(percentile(pooled("sample"), 50), 1e3) or 0.0
        m["envgen.sample_s"] = mean_self("sample")
        m["envgen.pairs"] = role("sample")[0]["n"]
    if _present(first, "validate", expected):
        m["core.validate_s"] = mean_self("validate")
    if _present(first, "step", expected):
        steps = pooled("step")
        m["core.step_us_p50"] = scaled(percentile(steps, 50), 1e6)
        m["core.step_us_p99"] = scaled(tail_percentile(steps, 99), 1e6)
        m["core.step_s"] = mean_self("step")
        m["core.steps"] = role("step")[0]["n"]
        m["core.step_gflops_computed"] = cost_rate("step", m["core.step_s"])
        m["core.step_mb_computed"] = sum(e[1] for e in role("step")[0]["extras"]) / 1e6
    if _present(first, "evolve", expected):
        m["core.evolve_self_s"] = mean_self("evolve")
        m["core.norm_drift_max"] = max((e for r in role("evolve") for e in r["extras"]), default=None)
    m["core.self_s"] = layer_self("core")
    if _present(first, "mixedness", expected):
        calls = pooled("mixedness")
        m["observables.mixedness_us_p50"] = scaled(percentile(calls, 50), 1e6)
        m["observables.mixedness_us_p99"] = scaled(tail_percentile(calls, 99), 1e6)
        m["observables.mixedness_s"] = mean_self("mixedness")
        m["observables.calls"] = role("mixedness")[0]["n"]
        m["observables.gram_gflops_computed"] = cost_rate("mixedness", m["observables.mixedness_s"])
    if _present(first, "quench", expected):
        m["analysis.quench_self_s"] = mean_self("quench")
    if _present(first, "fit", expected) or _present(first, "window", expected):
        m["analysis.fit_s"] = mean_self("fit", "window")
    if _present(first, "window", expected):
        m["analysis.fit_window_errors"] = role("window")[0]["raised"]
    m["analysis.self_s"] = layer_self("analysis")
    m["cli.self_s"] = mean_self("main")
    m["cli.bytes_written"] = bytes_written
    traced_wall = sum(s["wall"] for s in summaries) / ops
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_frac"] = (
        statistics.median(s["wall"] for s in summaries) / statistics.median(untraced_walls) - 1.0
    )
    m["trace.unattributed_s"] = sum(s["unattributed"] for s in summaries) / ops
    m["machine.blas_threads"] = blas_threads
    m["error_rate"] = error_rate
    return {name: m.get(name) for name in PER_LAYER_UNITS}
