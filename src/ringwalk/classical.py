"""Unbiased classical random walk on the odd ring.

Reference curve for the quantum runs: same distance-to-uniform series,
same fit pipeline, so mixing times are directly comparable.  On an odd
ring the non-lazy walk converges, and the distance decays asymptotically
like cos(pi / d_s) per step (the subdominant eigenvalue magnitude of the
circulant transition matrix).
"""

import math

import numpy as np

from .analysis import FitResult, ObservableSeries, mixing_fit
from .core import _check_sites, _check_steps
from .errors import ConfigurationError, DomainError
from .observables import _spectrum_mixedness


def _hop(p: np.ndarray) -> np.ndarray:
    """Equal-probability hop to either neighbour, periodic boundary."""
    return 0.5 * (np.roll(p, 1) + np.roll(p, -1))


def classical_step(p: np.ndarray) -> np.ndarray:
    """One hop of the probability vector ``p`` on an odd ring, checked first."""
    p = np.ascontiguousarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise DomainError(f"probability vector must be 1d, got shape {p.shape}")
    _check_sites(p.size)
    if not p.min() >= 0.0:  # written so that a NaN fails
        raise DomainError(f"probabilities must be nonnegative, min {p.min():.3e}")
    if not abs(p.sum() - 1.0) <= 1e-12:
        raise DomainError(f"probabilities must sum to 1 within 1e-12, got {p.sum()!r}")
    return _hop(p)


def classical_series(d_s: int, s0: int, steps: int) -> ObservableSeries:
    """Distance and Shannon-entropy series in the quantum series format: the
    observer's spectrum rule read on the site distribution.  The inputs are
    checked here, once; the walk then hops unchecked."""
    _check_sites(d_s)
    if not 0 <= s0 < d_s:
        raise ConfigurationError(f"start site {s0} outside ring of {d_s} sites")
    _check_steps(steps)
    p = np.zeros(d_s)
    p[s0] = 1.0
    rows = [_spectrum_mixedness(p)]
    for _ in range(steps):
        p = _hop(p)
        rows.append(_spectrum_mixedness(p))
    d_omega, entropy = np.array(rows).T
    meta = {"kind": "classical", "d_s": d_s, "initial_site": s0}
    return ObservableSeries(np.arange(steps + 1), d_omega, entropy, meta)


def spectral_mixing_time(d_s: int) -> float:
    """Closed-form asymptotic decay time -1 / ln cos(pi / d_s)."""
    _check_sites(d_s)
    return -1.0 / math.log(math.cos(math.pi / d_s))


def classical_mixing_time(d_s: int) -> tuple[FitResult, float]:
    """Mixing time by the quantum pipeline's ``mixing_fit`` over max(200, ceil(9 *
    spectral)) steps, plus the spectral prediction for cross-checking."""
    spectral = spectral_mixing_time(d_s)
    series = classical_series(d_s, 0, max(200, math.ceil(9.0 * spectral)))
    return mixing_fit(series), spectral
