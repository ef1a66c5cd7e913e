"""Environment generators: random unitaries, local qubit gates, streams.

Nonlocal environments use random Hermitian generators with entries drawn
uniformly from a square of half-width ``spread`` around 0+0i, exponentiated
to unitaries; a drawn pair keeps each unitary's eigensystem, so a quench can
walk in the eigenbasis of ``e0`` with no second ``eigh``.  Local
environments use the two-angle qubit rotation ``gate(theta, phi)``.  The
noncommutativity of the two branch matrices, measured by
``commutator_norm``, controls how strongly the walker couples to the
environment; commuting matrices leave the spatial distribution untouched.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import _json_input, _write_file
from .errors import ConfigurationError, DimensionMismatchError, DomainError, NumericsError


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the derivation path ``(seed, *path)``.

    Streams are independent across distinct paths and reproducible from
    the integers alone: quench sample k draws from ``rng_stream(seed, k)``,
    sweep point j / sample k from ``rng_stream(seed, j, k)``.  Philox is
    counter-based, so there is no hidden global state.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class GateAngles:
    """Finite rotation angles of a local branch gate, stored as given: the gate
    depends on them only through cos and sin, so angles 2*pi apart, and
    ``(2*pi - theta, phi + pi)`` in place of ``(theta, phi)``, give the same gate."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ConfigurationError(f"angles must be finite, got ({self.theta}, {self.phi})")


def sample_hermitian(d_e: int, spread: float, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with entries uniform on the given square.

    Off-diagonal real and imaginary parts are independent uniforms on
    [-spread, spread]; diagonal entries are real uniforms on the same
    interval.  The upper triangle is sampled and mirror-conjugated, so the
    result is exactly Hermitian.
    """
    if d_e < 1:
        raise DomainError(f"dimension must be >= 1, got {d_e}")
    if not spread > 0:
        raise DomainError(f"spread must be positive, got {spread}")
    h = np.zeros((d_e, d_e), dtype=np.complex128)
    # The mask enumerates the upper triangle row by row, the order of the draws;
    # the writes go in place, with no index arrays and no complex temporaries.
    upper = np.triu(np.ones((d_e, d_e), dtype=bool), k=1)
    n_off = d_e * (d_e - 1) // 2
    h.real[upper] = rng.uniform(-spread, spread, n_off)
    h.imag[upper] = rng.uniform(-spread, spread, n_off)
    h.T[upper] = np.conjugate(h[upper])
    h[np.diag_indices(d_e)] = rng.uniform(-spread, spread, d_e)
    return h


def _exp_eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(phases, basis)`` with exp(-i h) = basis @ diag(phases) @ basis^H, h Hermitian."""
    try:
        eigvals, eigvecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            f"eigendecomposition failed for {h.shape[0]}x{h.shape[0]} matrix "
            f"(max |entry| {np.abs(h).max():.3e}): {exc}"
        ) from exc
    return np.exp(-1j * eigvals), eigvecs


def _from_eigensystem(phases: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return (basis * phases) @ basis.conj().T


@dataclass(frozen=True, eq=False)
class EnvironmentPair:
    """The two branch unitaries of a nonlocal environment, each kept as the
    ``(phases, basis)`` of the ``eigh`` that built it:
    ``e_b = basis @ diag(phases) @ basis^H``.

    It unpacks to the dense ``(e0, e1)``, built on unpacking; a caller that
    walks in the eigenbasis of e0 takes ``in_e0_eigenbasis()`` instead and
    never builds them.
    """

    e0_eigen: tuple[np.ndarray, np.ndarray]
    e1_eigen: tuple[np.ndarray, np.ndarray]

    def __iter__(self):
        return (_from_eigensystem(*eigen) for eigen in (self.e0_eigen, self.e1_eigen))

    def in_e0_eigenbasis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(phases, e1, initial_env)`` in the eigenbasis ``V0`` of e0: e0 is the
        diagonal of its ``phases``, e1 is ``V0^H e1 V0`` and ``initial_env`` is
        ``V0^H`` applied to basis state 0, the start of a quench walk.

        Two ``d_e x d_e`` products, no ``eigh``; with the two eigenbases at most
        five ``d_e x d_e`` arrays are alive at once.  ``W = V0^H V1`` is conjugated
        in place for the second product, which reads it in the same layout as
        ``_from_eigensystem(phases1, W)`` would, so e1 is the same to the bit."""
        phases0, basis0 = self.e0_eigen
        phases1, basis1 = self.e1_eigen
        w = basis0.conj().T @ basis1
        scaled = w * phases1
        np.conjugate(w, out=w)
        return phases0, scaled @ w.T, basis0[0].conj()


def sample_environment_pair(d_e: int, spread: float, rng: np.random.Generator) -> EnvironmentPair:
    """Draw the two branch unitaries of a nonlocal environment.

    ``e0, e1 = sample_environment_pair(...)`` gives them dense;
    ``in_e0_eigenbasis()`` gives them in the eigenbasis of e0.
    """
    e0_eigen = _exp_eigensystem(sample_hermitian(d_e, spread, rng))
    return EnvironmentPair(e0_eigen, _exp_eigensystem(sample_hermitian(d_e, spread, rng)))


def make_local_gate(angles: GateAngles) -> np.ndarray:
    """Qubit rotation [[cos t, -e^{-i p} sin t], [e^{i p} sin t, cos t]]."""
    c, s = math.cos(angles.theta), math.sin(angles.theta)
    phase = complex(math.cos(angles.phi), math.sin(angles.phi))
    return np.array([[c, -s * phase.conjugate()], [s * phase, c]], dtype=np.complex128)


def angles_for_gamma(gamma: float) -> tuple[GateAngles, GateAngles]:
    """Angle pair whose gates have commutator norm exactly ``gamma``.

    With equal rotation angles and phases (0, pi/2) the spectral
    commutator norm is 2 sin(theta)^2, so theta = asin(sqrt(gamma / 2)).
    """
    if not 0.0 <= gamma <= 2.0:
        raise DomainError(f"gamma must lie in [0, 2], got {gamma}")
    theta = math.asin(math.sqrt(gamma / 2.0))
    return GateAngles(theta, 0.0), GateAngles(theta, math.pi / 2.0)


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral norm of [a, b], the coupling strength gamma of two branch gates.

    The spectral norm is basis independent and bounded by 2 for
    unitaries, which keeps values comparable across dimensions.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(
            f"operands must be square and equally sized, got {a.shape} and {b.shape}"
        )
    return float(np.linalg.norm(a @ b - b @ a, 2))


def matrix_to_json(m: np.ndarray) -> dict:
    """Row-major [re, im] pair encoding, round-trippable via matrix_from_json."""
    m = np.asarray(m, dtype=np.complex128)
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"shape": list(m.shape), "entries": entries}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        shape = obj["shape"]
        pairs = np.asarray(obj["entries"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"a matrix needs 'shape' and 'entries' lists ({exc!r})") from None
    if type(shape) is not list or any(type(n) is not int for n in shape):
        raise ConfigurationError(f"a matrix shape must be a list of integers, got {shape!r}")
    if any(n < 0 for n in shape):
        raise ConfigurationError(f"a matrix shape must not be negative, got {shape}")
    expected = int(np.prod(shape)) if shape else 0
    if pairs.shape != (expected, 2):
        raise DimensionMismatchError(
            f"expected {expected} [re, im] pairs for shape {shape}, got {pairs.shape}"
        )
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(shape)


def save_environment(path, e0: np.ndarray, e1: np.ndarray) -> None:
    """Export a branch-matrix pair so an exact environment can be re-run."""
    doc = {"e0": matrix_to_json(e0), "e1": matrix_to_json(e1)}
    _write_file(path, (json.dumps(doc) + "\n").encode())


def load_environment(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        doc = _json_input(fh.read(), path)
    try:
        e0, e1 = doc["e0"], doc["e1"]
    except (KeyError, TypeError):
        raise ConfigurationError(f"{path} must hold the matrices 'e0' and 'e1'") from None
    return matrix_from_json(e0), matrix_from_json(e1)
