"""Unbiased classical random walk on the odd ring.

Reference curve for the quantum runs: same distance-to-uniform series,
same fit pipeline, so mixing times are directly comparable.  On an odd
ring the non-lazy walk converges, and the distance decays asymptotically
like cos(pi / d_s) per step (the subdominant eigenvalue magnitude of the
circulant transition matrix).
"""

import math

import numpy as np

from .analysis import (
    FitResult,
    ObservableSeries,
    fit_exponential_mixing,
    select_fit_window,
)
from .core import _check_sites, _check_steps
from .errors import ConfigurationError, DomainError
from .observables import shannon_entropy


def _check_probability(p: np.ndarray) -> np.ndarray:
    p = np.ascontiguousarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise DomainError(f"probability vector must be 1d, got shape {p.shape}")
    if p.min() < 0.0:
        raise DomainError(f"probabilities must be nonnegative, min {p.min():.3e}")
    if abs(p.sum() - 1.0) > 1e-12:
        raise DomainError(f"probabilities must sum to 1 within 1e-12, got {p.sum()!r}")
    return p


def classical_step(p: np.ndarray) -> np.ndarray:
    """Equal-probability hop to either neighbour, periodic boundary."""
    p = _check_probability(p)
    _check_sites(p.size)
    return 0.5 * (np.roll(p, 1) + np.roll(p, -1))


def classical_series(d_s: int, s0: int, steps: int) -> ObservableSeries:
    """Distance and Shannon-entropy series in the quantum series format."""
    _check_sites(d_s)
    if not 0 <= s0 < d_s:
        raise ConfigurationError(f"start site {s0} outside ring of {d_s} sites")
    _check_steps(steps)
    p = np.zeros(d_s)
    p[s0] = 1.0
    uniform = 1.0 / d_s
    d_omega = np.empty(steps + 1)
    entropy = np.empty(steps + 1)
    d_omega[0] = 0.5 * np.abs(p - uniform).sum()
    entropy[0] = shannon_entropy(p)
    for t in range(1, steps + 1):
        p = 0.5 * (np.roll(p, 1) + np.roll(p, -1))
        d_omega[t] = 0.5 * np.abs(p - uniform).sum()
        entropy[t] = shannon_entropy(p)
    meta = {"kind": "classical", "d_s": d_s, "initial_site": s0}
    return ObservableSeries(np.arange(steps + 1), d_omega, entropy, meta)


def spectral_mixing_time(d_s: int) -> float:
    """Closed-form asymptotic decay time -1 / ln cos(pi / d_s)."""
    _check_sites(d_s)
    return -1.0 / math.log(math.cos(math.pi / d_s))


def classical_mixing_time(d_s: int, steps: int | None = None) -> tuple[FitResult, float]:
    """Exponential-fit mixing time with the quantum pipeline's fitter and
    window policy, plus the spectral prediction for cross-checking."""
    spectral = spectral_mixing_time(d_s)
    if steps is None:
        steps = max(200, math.ceil(9.0 * spectral))
    series = classical_series(d_s, 0, steps)
    window = select_fit_window(series)
    return fit_exponential_mixing(series, window), spectral
