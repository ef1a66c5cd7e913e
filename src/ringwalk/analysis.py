"""Series recording, fit machinery, and quench aggregation.

The headline quantities of a run are the mixing time (slope of the
exponential relaxation of the distance to the flat state), the long-time
plateau average of that distance, and the power-law dependence of the
plateau on the bath/lattice dimension ratio.  Fits are ordinary least
squares on logs; the fit window is selected by a deterministic rule that
skips the ballistic transient and stops before the plateau.
"""

import contextlib
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _blas
# perfbench/tracing.py times sample_environment_pair, evolve, position_mixedness,
# select_fit_window and fit_exponential_mixing by replacing these module globals,
# so calls go through them; one that bypasses them reads null in the benchmark.
from .core import HADAMARD, PLUS_I_COIN, NonlocalEnvironment, WalkModel, evolve
from .core import _check_steps, _check_walk_inputs
from .envgen import rng_stream, sample_environment_pair
from .errors import (
    ConfigurationError,
    DomainError,
    FitWindowError,
    NumericsError,
    QuenchSampleError,
)
from .observables import position_mixedness


@dataclass(frozen=True, eq=False)
class ObservableSeries:
    """Per-step distance-to-uniform and entropy records of one run."""

    t: np.ndarray
    d_omega: np.ndarray
    entropy: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.ascontiguousarray(self.t, dtype=np.int64)
        d_omega = np.ascontiguousarray(self.d_omega, dtype=np.float64)
        entropy = np.ascontiguousarray(self.entropy, dtype=np.float64)
        if not (t.shape == d_omega.shape == entropy.shape) or t.ndim != 1 or t.size == 0:
            raise DomainError("t, d_omega and entropy must be equal-length 1d arrays")
        if t[0] != 0 or (t.size > 1 and not np.all(np.diff(t) == 1)):
            raise DomainError("t must run 0..T in unit steps")
        for arr in (t, d_omega, entropy):
            arr.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "d_omega", d_omega)
        object.__setattr__(self, "entropy", entropy)

    @property
    def steps(self) -> int:
        return int(self.t[-1])


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with standard errors and the data window used."""

    params: dict
    std_errors: dict
    window: tuple | list
    residual_rms: float


def walk_series(model: WalkModel, steps: int) -> ObservableSeries:
    """Evolve and record distance-to-uniform and entropy at every step.

    The walk runs at one BLAS thread, and the caller's count is restored
    afterwards, so its bytes depend on no core count.  Where ``_overlaps(model)``
    state t is observed on a helper thread while this thread takes step t + 1
    (``_one_behind``); the same calls give the same records.
    """
    _check_steps(steps)
    n = steps + 1
    d_omega = np.empty(n, dtype=np.float64)
    entropy = np.empty(n, dtype=np.float64)

    def record(t, state):
        d_omega[t], entropy[t] = position_mixedness(state)

    observing = _one_behind(record) if _overlaps(model) else contextlib.nullcontext(record)
    with _blas.limited(1), observing as observer:
        evolve(model, steps, observer)
    return ObservableSeries(np.arange(n), d_omega, entropy, model.describe())


#: Nonlocal walks with ``d_e`` above this and ``d_s`` above the next constant
#: observe state t on a helper thread while the walk takes step t + 1
#: (``_one_behind``); the rest observe in the walk's own thread.  Every call
#: releases the GIL, but winning it back after each short call and the ~50 us
#: hand-off cost more than the overlap saves unless step and observer are both
#: long.  Overlapped per serial step time at one BLAS thread on a 2-vCPU VM
#: (medians of 9-13 alternating runs): 1.17-1.28 at 51x80, 0.89-0.91 at 51x96,
#: 0.79 at 51x128, 0.62 at 51x144, 0.93 at 31x112.
SERIAL_OBSERVER_MAX_D_E = 96
#: Overlapped per serial step time, same VM (medians of 10 alternating runs,
#: in two or three batches): the observer is too short at d_s <= 19 (19x128
#: 0.97-1.10, 19x256 1.07-1.58, 11x224 1.14-1.81) and long enough at d_s = 31
#: (31x112 0.73-0.84, 31x192 0.64-0.84).
SERIAL_OBSERVER_MAX_D_S = 19


def _overlaps(model: WalkModel) -> bool:
    """Whether ``walk_series`` observes ``model``'s states one behind its walk."""
    large = model.d_s > SERIAL_OBSERVER_MAX_D_S and model.d_e > SERIAL_OBSERVER_MAX_D_E
    return isinstance(model.environment, NonlocalEnvironment) and large


@contextlib.contextmanager
def _one_behind(observer):
    """Yield an observer that hands each ``(t, state)`` to ``observer`` on a helper
    thread and returns at once, so that the caller's next step overlaps the call.

    At most one call is in flight: each hand-off first waits for the previous
    call's result and re-raises its error in the caller's thread, and so does
    the end of the block.  The helper is joined when the block exits, also on
    an error.
    """
    import queue  # here, not at package load: numpy does not load it

    jobs, results = queue.SimpleQueue(), queue.SimpleQueue()
    results.put(None)  # the result of "no call yet"

    def helper():
        while (args := jobs.get()) is not None:  # None: the block has exited
            error = None
            try:
                observer(*args)
            except BaseException as exc:  # any error: the walk must still get a result
                error = exc
            results.put(error)

    def settle():
        if (error := results.get()) is not None:
            raise error

    def lagged(t, state):
        settle()
        jobs.put((t, state))

    thread = threading.Thread(target=helper, name="ringwalk-observer", daemon=True)
    thread.start()
    try:
        yield lagged
        settle()
    finally:
        jobs.put(None)
        thread.join()


def select_fit_window(series: ObservableSeries) -> tuple[int, int]:
    """Deterministic window for the exponential fit.

    The window starts at the first step where the distance has dropped to
    90% of its initial value, but not before ceil(d_s / 2) steps (the
    ballistic transient, when the lattice size is known from metadata).
    It ends just before the distance first crosses 1.5x the plateau
    estimate, taken as the mean of the final quarter of the series; a finite
    series with an estimate above 1e-6 always crosses it.  Where the tail is
    consistent with zero, or not finite, it ends at the last step above 1e-6.
    """
    d = series.d_omega
    n = d.size
    if n < 50:
        raise FitWindowError(f"series has {n} points, need at least 50")
    floor_t = 0
    d_s = series.metadata.get("d_s")
    if d_s:
        floor_t = math.ceil(d_s / 2)
    decayed = np.nonzero(d <= 0.9 * d[0])[0]
    decayed = decayed[decayed >= floor_t]
    if decayed.size == 0:
        raise FitWindowError("series never decays to 90% of its initial value")
    t1 = int(decayed[0])

    plateau = float(d[n - max(1, n // 4):].mean())
    below = np.nonzero(d < 1.5 * plateau)[0]
    if plateau > 1e-6 and below.size:
        t2 = int(below[0]) - 1
        if t2 < t1:
            raise FitWindowError(
                f"series first falls below 1.5x its plateau estimate {plateau:.4g} at step "
                f"{t2 + 1}, at or before the window start t1 = {t1}; there is no decay to fit"
            )
    else:
        above_zero = np.nonzero(d > 1e-6)[0]
        if above_zero.size == 0:
            raise FitWindowError("series vanishes everywhere")
        t2 = int(above_zero[-1])

    if t2 - t1 < 10:
        raise FitWindowError(
            f"selected window [{t1}, {t2}] is too short; supply an explicit window"
        )
    return t1, t2


def _ols(x: np.ndarray, y: np.ndarray):
    """Slope, intercept, their standard errors, and the rms residual of n >= 3 points."""
    n = x.size
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    sxx = float((dx * dx).sum())
    slope = float((dx * (y - ym)).sum() / sxx)
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    s2 = float((resid * resid).sum() / (n - 2))
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n + xm * xm / sxx))
    return slope, intercept, se_slope, se_intercept, float(np.sqrt((resid * resid).mean()))


def fit_exponential_mixing(series: ObservableSeries, window: tuple[int, int]) -> FitResult:
    """Least squares of ln d_omega against t; mixing time is -1/slope."""
    t1, t2 = int(window[0]), int(window[1])
    if not (0 <= t1 < t2 <= series.steps):
        raise DomainError(f"window [{t1}, {t2}] outside series 0..{series.steps}")
    if t2 - t1 < 2:
        raise DomainError("window must contain at least 3 points")
    y = series.d_omega[t1 : t2 + 1]
    if y.min() <= 0.0:
        raise DomainError("distance must be positive everywhere in the fit window")
    x = series.t[t1 : t2 + 1].astype(np.float64)
    slope, _, se_slope, _, rms = _ols(x, np.log(y))
    if slope >= 0.0:
        raise DomainError(f"no decay in window [{t1}, {t2}] (slope {slope:.3e})")
    tau = -1.0 / slope
    se_tau = se_slope / (slope * slope)
    if not (math.isfinite(tau) and math.isfinite(se_tau)):
        raise NumericsError("exponential fit produced non-finite parameters")
    return FitResult(
        params={"tau_mix": tau},
        std_errors={"tau_mix": se_tau},
        window=(t1, t2),
        residual_rms=rms,
    )


def mixing_fit(series: ObservableSeries) -> FitResult:
    """The relaxation fit: the exponential fit over the window ``select_fit_window`` picks."""
    return fit_exponential_mixing(series, select_fit_window(series))


def long_time_average(series: ObservableSeries, t0: int, t: int) -> float:
    """Mean of d_omega over [t0, t] inclusive (denominator t - t0 + 1)."""
    t0, t = int(t0), int(t)
    if not (0 <= t0 <= t <= series.steps):
        raise DomainError(f"range [{t0}, {t}] empty or outside series 0..{series.steps}")
    window = series.d_omega[t0 : t + 1]
    return float(window.sum() / window.size)


def default_average_start(series: ObservableSeries, window: tuple[int, int], tau: float) -> int:
    """Start of the long-time averaging range: end of the fit window plus
    five mixing times, capped at half the series."""
    if tau <= 0:
        raise DomainError(f"mixing time must be positive, got {tau}")
    t0 = int(window[1]) + math.ceil(5.0 * tau)
    return min(t0, series.steps // 2)


def fit_power_law(points) -> FitResult:
    """Fit y = C * r**(-x) by least squares on logs.

    ``points`` is a sequence of (ratio, value) pairs with ratio > 1; at
    least four points with at least two distinct ratios are required.
    Invariant under permutation of the input.
    """
    pts = [(float(r), float(y)) for r, y in points]
    if len(pts) < 4:
        raise DomainError(f"need at least 4 points, got {len(pts)}")
    r = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if r.min() == r.max():
        raise DomainError(f"need at least 2 distinct ratios, got only {r[0]:g}")
    if r.min() <= 1.0:
        raise DomainError(f"all ratios must exceed 1, min is {r.min()}")
    if y.min() <= 0.0:
        raise DomainError(f"all values must be positive, min is {y.min()}")
    slope, intercept, se_slope, se_intercept, rms = _ols(np.log(r), np.log(y))
    c = math.exp(intercept)
    if not all(map(math.isfinite, (c, slope, se_slope, se_intercept))):
        raise NumericsError("power-law fit produced non-finite parameters")
    return FitResult(
        params={"C": c, "x": -slope},
        std_errors={"C": c * se_intercept, "x": se_slope},
        window=[float(v) for v in r],
        residual_rms=rms,
    )


@dataclass(frozen=True, eq=False)
class NonlocalTemplate:
    """Everything a quench run fixes, minus the sampled branch matrices.

    The configuration is checked once, on construction, by the rules of
    ``WalkModel`` plus ``d_e >= 1`` and a finite ``spread > 0``; a bad value
    raises ``ConfigurationError`` and the arrays are stored read-only.  So a
    ``QuenchSampleError`` means that a sample failed while it was drawn or run.
    """

    d_s: int
    d_e: int
    spread: float = 1.0
    coin: np.ndarray = field(default_factory=lambda: HADAMARD)
    initial_coin: np.ndarray = field(default_factory=lambda: PLUS_I_COIN)

    def __post_init__(self):
        if self.d_e < 1:
            raise ConfigurationError(f"environment dimension must be >= 1, got {self.d_e}")
        if not (math.isfinite(self.spread) and self.spread > 0):
            raise ConfigurationError(f"spread must be finite and > 0, got {self.spread}")
        _check_walk_inputs(self)

    def realize(self, seed: int, *path: int) -> WalkModel:
        """Draw branch matrices from the stream (seed, *path) and build the model
        in the eigenbasis ``V0`` of the drawn ``E0``.

        The walk starts on site 0, its ``e0`` is the eigenphases of ``E0`` (a
        diagonal), its ``e1`` is ``V0^H E1 V0`` and its initial environment
        ``V0^H`` applied to basis state 0.  A change of bath basis leaves the
        walker's reduced state, and so every series, unchanged; it makes a step
        one dense product instead of two.

        ``V1`` goes as soon as ``W = V0^H V1`` exists; ``W`` is conjugated in place
        for the second product, which reads it as ``envgen._from_eigensystem(phases1,
        W)`` would, so e1 is the same to the bit.
        """
        pair = sample_environment_pair(self.d_e, self.spread, rng_stream(seed, *path))
        (phases0, basis0), (phases1, basis1) = pair.e0_eigen, pair.e1_eigen
        del pair
        w = basis0.conj().T @ basis1
        del basis1
        scaled = w * phases1
        np.conjugate(w, out=w)
        e1 = scaled @ w.T
        initial_env = basis0[0].conj()
        del basis0, w, scaled  # before e1 is validated, which copies it
        return WalkModel(
            d_s=self.d_s,
            environment=NonlocalEnvironment(phases0, e1),
            coin=self.coin,
            initial_coin=self.initial_coin,
            initial_env=initial_env,
        )


@dataclass(frozen=True, eq=False)
class QuenchResult:
    """Pointwise mean series over environment samples, the per-step sample
    standard deviation of the distance, every per-sample series, and the
    BLAS thread count the samples were drawn and walked with: 1, as for every
    ``walk_series``, or None where numpy's BLAS has no OpenBLAS thread controls."""

    mean: ObservableSeries
    d_omega_std: np.ndarray
    samples: list
    blas_threads: int | None = None


def _quench_sample(template: NonlocalTemplate, path, k: int, steps: int) -> ObservableSeries:
    """Sample k of a quench: the model drawn from the stream (*path, k), walked ``steps``
    steps, with its ``seed_path`` recorded; any failure raises ``QuenchSampleError(k)``."""
    try:
        series = walk_series(template.realize(*path, k), steps)
    except Exception as exc:
        raise QuenchSampleError(k, str(exc)) from exc
    series.metadata["seed_path"] = [*path, k]
    return series


def quench_average(
    template: NonlocalTemplate,
    n_samples: int,
    base_seed,
    steps: int,
) -> QuenchResult:
    """Average over independently drawn environments.

    Sample k draws its branch matrices from the stream (base_seed, k) and
    keeps them for the whole run; initial state and coin are fixed.
    ``base_seed`` may be an int or a (seed, *path) tuple so sweeps can give
    every parameter point its own stream family.  Samples are ``_quench_sample``
    jobs, run and combined in index order, so the aggregate is deterministic.
    Every sample is drawn at one BLAS thread, and walked at one by
    ``walk_series``, so its bytes depend on no core count; the caller's count
    is restored afterwards.  Where ``walk_series`` overlaps (a large enough
    ``d_s`` and ``d_e``), a sample's observer runs one state behind its walk
    on a second thread, joined before the sample returns.
    """
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
    path = (int(base_seed),) if np.isscalar(base_seed) else tuple(int(p) for p in base_seed)
    if any(p < 0 for p in path):
        raise ConfigurationError(f"seed path entries must be >= 0, got {list(path)}")
    with _blas.limited(1) as threads:
        samples = [_quench_sample(template, path, k, steps) for k in range(n_samples)]

    d_stack = np.stack([s.d_omega for s in samples])
    h_stack = np.stack([s.entropy for s in samples])
    mean_d = d_stack.mean(axis=0)
    mean_h = h_stack.mean(axis=0)
    std_d = (
        d_stack.std(axis=0, ddof=1) if n_samples > 1 else np.zeros_like(mean_d)
    )
    meta = samples[0].metadata.copy()
    meta.pop("seed_path", None)
    meta.update({"n_samples": n_samples, "base_seed": list(path), "spread": template.spread})
    mean_series = ObservableSeries(samples[0].t, mean_d, mean_h, meta)
    return QuenchResult(mean_series, std_d, samples, threads)


@dataclass(frozen=True)
class PlateauSummary:
    """Long-time averages of a quench result over a common window, with the relaxation
    fit or, where the fit failed and ``t_start`` is half the run, its error."""

    t_start: int
    d_omega_mean: float
    d_omega_std: float
    entropy_mean: float
    fit: FitResult | None = None
    fit_error: str | None = None


def plateau_summary(result: QuenchResult) -> PlateauSummary:
    """Plateau statistics of a quench result, and its relaxation fit.

    The averaging window starts at ``default_average_start`` when the
    exponential fit (``mixing_fit``) succeeds on the mean series and at half
    the run otherwise; the same window is applied to every sample, so the
    quoted std is the environment-to-environment scatter of the plateau mean.
    """
    series = result.mean
    last = series.steps
    try:
        fit = mixing_fit(series)
        t0 = default_average_start(series, fit.window, fit.params["tau_mix"])
        error = None
    except (FitWindowError, DomainError) as exc:
        t0, fit, error = last // 2, None, str(exc)
    d_mean = long_time_average(series, t0, last)
    per_sample = np.array([long_time_average(s, t0, last) for s in result.samples])
    d_std = float(per_sample.std(ddof=1)) if per_sample.size > 1 else 0.0
    h_mean = float(series.entropy[t0 : last + 1].mean())
    return PlateauSummary(t0, d_mean, d_std, h_mean, fit, error)
