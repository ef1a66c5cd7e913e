"""Reductions and scalar diagnostics of the walk state.

Everything here is pure: the per-step observer (distance of the position
state to the flat state, and its entropy), subsystem density matrices, the
time-aggregated channel in Kraus form, and the random-state subsystem
entropy, a reference value for the long-time entropy plateau.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import PureState, WalkModel, evolve
from .envgen import matrix_to_json
from .errors import DimensionMismatchError, DomainError, NumericsError

#: Dense Kraus extraction is for validation only; total dimension is capped.
KRAUS_DIM_LIMIT = 4096


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one matrix; positivity is enforced where consumed."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if entries.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"entries must be {self.dim}x{self.dim}, got shape {entries.shape}"
            )
        herm = np.abs(entries - entries.conj().T).max() if self.dim else 0.0
        if herm > 1e-10:
            raise NumericsError(f"matrix not Hermitian within 1e-10 (deviation {herm:.3e})")
        tr = entries.trace()
        if abs(tr - 1.0) > 1e-10:
            raise NumericsError(f"trace must be 1 within 1e-10, got {tr!r}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def to_json(self) -> dict:
        return matrix_to_json(self.entries)


def reduce_to_position_coin(state: PureState) -> DensityMatrix:
    """Trace out the environment only; rows are ordered as 2*s + c."""
    a = state.amplitudes.reshape(2 * state.d_s, state.d_e)
    return DensityMatrix(2 * state.d_s, a @ a.conj().T)


def position_distribution(state: PureState) -> np.ndarray:
    """Per-site occupation probabilities (diagonal of the position reduction)."""
    tens = state.tensor()
    return np.einsum("sce,sce->s", tens, tens.conj()).real


def position_mixedness(state: PureState) -> tuple[float, float]:
    """Distance to uniform and entropy of the position reduction.

    Shares one eigendecomposition between the two diagnostics (the flat
    state commutes with everything, so the difference spectrum is just the
    shifted spectrum).  This is the library's one observer: the series
    recorders call it at every step.
    """
    a = state.amplitudes.reshape(state.d_s, 2 * state.d_e)
    eigvals = np.linalg.eigvalsh(a @ a.conj().T)
    if eigvals[0] < -1e-8:  # further below zero than rounding reaches
        raise NumericsError(
            f"position reduction has eigenvalue {eigvals[0]:.3e} below -1e-8"
        )
    trace = eigvals.sum()  # the squared norm: the series' per-step norm check
    if not abs(trace - 1.0) <= 2e-10:  # written so that a NaN fails
        raise NumericsError(f"squared state norm must be 1 within 2e-10, got {float(trace)!r}")
    return _spectrum_mixedness(eigvals)


def _spectrum_mixedness(p: np.ndarray) -> tuple[float, float]:
    """Distance to the flat spectrum ``1/p.size`` and entropy in nats of a
    probability spectrum; the entropy sums -p ln p over the positive entries
    of ``clip(p, 0, 1)``.  The classical series reads a site distribution, the
    spectrum of a diagonal state, by this rule too."""
    dist = float(0.5 * np.abs(p - 1.0 / p.size).sum())
    pos = np.clip(p, 0.0, 1.0)
    pos = pos[pos > 0.0]
    return dist, float(-(pos * np.log(pos)).sum())


def kraus_generators(model: WalkModel, t: int) -> list[np.ndarray]:
    """Kraus form of the t-step channel on the position-coin factor.

    Column j (= 2*s + c) of each operator is obtained by evolving ``model``
    from site s and coin basis state c (the initial environment unchanged)
    for t steps and projecting on environment basis state e.  The list is
    ordered by e and satisfies sum_e X_e^dag X_e = identity up to
    numerical error.
    """
    if t < 0:
        raise DomainError(f"step count must be >= 0, got {t}")
    d_sc = 2 * model.d_s
    d_e = model.d_e
    if d_sc * d_e > KRAUS_DIM_LIMIT:
        raise DomainError(
            f"dense extraction limited to total dimension {KRAUS_DIM_LIMIT}, "
            f"got {d_sc * d_e}"
        )
    blocks = np.empty((d_sc, d_sc, d_e), dtype=np.complex128)
    for j in range(d_sc):
        s, c = divmod(j, 2)
        column = replace(model, initial_site=s, initial_coin=np.eye(2)[c])
        blocks[j] = evolve(column, t).amplitudes.reshape(d_sc, d_e)
    return [np.ascontiguousarray(blocks[:, :, e].T) for e in range(d_e)]


def kraus_completeness_defect(kraus: list[np.ndarray]) -> float:
    """Spectral norm of sum_e X_e^dag X_e - identity."""
    if not kraus:
        raise DomainError("empty Kraus set")
    dim = kraus[0].shape[0]
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for x in kraus:
        acc += x.conj().T @ x
    acc[np.diag_indices(dim)] -= 1.0
    return float(np.linalg.norm(acc, 2))


def apply_cp_map(kraus: list[np.ndarray], rho: DensityMatrix) -> DensityMatrix:
    """sum_e X_e rho X_e^dag."""
    dim = rho.dim
    out = np.zeros((dim, dim), dtype=np.complex128)
    for x in kraus:
        if x.shape != (dim, dim):
            raise DimensionMismatchError(
                f"Kraus operator shape {x.shape} does not match density dim {dim}"
            )
        out += x @ rho.entries @ x.conj().T
    return DensityMatrix(dim, out)


def page_entropy(d_s: int, d_b: int) -> float:
    """Average subsystem entropy of a random bipartite pure state:
    sum_{k=d_b+1}^{d_s*d_b} 1/k - (d_s - 1) / (2 d_b), for d_s <= d_b.

    Approaches ln(d_s) as d_b grows; evaluated by direct summation.
    """
    if d_s < 1 or d_b < 1:
        raise DomainError(f"dimensions must be >= 1, got ({d_s}, {d_b})")
    if d_s > d_b:
        raise DomainError(f"requires d_s <= d_b, got d_s={d_s}, d_b={d_b}")
    lo, hi = d_b + 1, d_s * d_b
    chunk = 1 << 22
    partials = []
    for start in range(lo, hi + 1, chunk):
        stop = min(start + chunk - 1, hi)
        partials.append(
            float(np.reciprocal(np.arange(start, stop + 1, dtype=np.float64)).sum())
        )
    return math.fsum(partials) - (d_s - 1) / (2.0 * d_b)
