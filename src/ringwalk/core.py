"""State representation and step operators for coined walks on a ring.

The total wavefunction lives on (site, coin, environment) with the flat
amplitude layout ``e + d_e * (c + 2 * s)``: the environment index is
innermost so that applying an environment unitary is a contiguous
matrix product, which dominates the per-step cost.

Two couplings are supported.  In the nonlocal model the walker drags a
single shared environment through one of two unitaries ``E0``/``E1``
depending on the coin branch.  Either may be given as a dense matrix or,
in a bath basis where it is diagonal, as its vector of phases.  A quench
sample walks in the eigenbasis of its ``E0`` (``NonlocalTemplate.realize``),
so its step is one dense product and one phase multiply.  In the local
model every site carries its own qubit and the branch gates ``G0``/``G1``
act only on the qubit of the currently occupied site, so the environment
dimension is ``2**d_s``.

Neither step operator ever materializes the full evolution matrix; one
step costs O(d_s * d_e**2) (nonlocal) or O(d_s * 2**d_s) (local), the latter
one vectorized gather with no Python loop over sites.  Step
outputs are not validated: a ``PureState`` is checked where it enters a
run, and ``evolve`` checks the norm of the state it returns.
"""

import functools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, NumericsError

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
HADAMARD.setflags(write=False)

#: Default initial coin (|0> + i|1>) / sqrt(2); the long-run mixing behaviour
#: is insensitive to this choice, any unit vector is accepted.
PLUS_I_COIN = np.array([1.0, 1.0j], dtype=np.complex128) / np.sqrt(2.0)
PLUS_I_COIN.setflags(write=False)

#: Maximum site count for the local model (2**d_s environment qubits).
LOCAL_SITE_LIMIT = 14

SNAPSHOT_LAYOUT = "e+d_E*(c+2s)"

_UNITARY_TOL = 1e-10


def _as_complex(a, name: str) -> np.ndarray:
    try:
        out = np.ascontiguousarray(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} is not a complex array: {exc}") from exc
    return out


def _unitary_input(name: str, a, shape: tuple | None = None) -> np.ndarray:
    """``a`` as a read-only complex matrix, square (of ``shape`` if given) and
    unitary within ``_UNITARY_TOL`` in spectral norm.

    Uses the Frobenius norm as a two-sided bound (spectral <= frobenius
    <= sqrt(n) * spectral) and only falls back to an exact spectral norm
    in the inconclusive band, so large matrices stay cheap to validate.
    """
    u = _as_complex(a, name)
    if shape is not None and u.shape != shape:
        raise ConfigurationError(f"{name} must be {shape[0]}x{shape[1]}, got shape {u.shape}")
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ConfigurationError(f"{name} must be a square matrix, got shape {u.shape}")
    gram = u.conj().T @ u
    gram[np.diag_indices_from(gram)] -= 1.0
    frob = np.linalg.norm(gram)
    tol = _UNITARY_TOL
    if not (frob <= tol or (frob / np.sqrt(u.shape[0]) <= tol and np.linalg.norm(gram, 2) <= tol)):
        raise ConfigurationError(f"{name} is not unitary within {tol:g} (deviation ~{frob:.3e})")
    u.setflags(write=False)
    return u


def _branch_input(name: str, a) -> np.ndarray:
    """A nonlocal branch unitary, read-only: a ``(d_e,)`` vector of unit-modulus
    phases (a diagonal unitary) or a unitary ``(d_e, d_e)`` matrix."""
    u = _as_complex(a, name)
    if u.ndim != 1:
        return _unitary_input(name, u)
    defect = np.max(np.abs(np.abs(u) - 1.0), initial=0.0)
    if not defect <= _UNITARY_TOL:  # written so that a NaN phase fails
        raise ConfigurationError(
            f"{name} as a diagonal needs entries of modulus 1 within {_UNITARY_TOL:g} "
            f"(deviation {defect:.3e})"
        )
    u.setflags(write=False)
    return u


def _check_unit_vector(name: str, v: np.ndarray, length: int, error=ConfigurationError) -> None:
    if v.shape != (length,):
        raise ConfigurationError(f"{name} must have length {length}, got shape {v.shape}")
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= _UNITARY_TOL:  # written so that a NaN norm fails
        raise error(f"{name} must have norm 1 within {_UNITARY_TOL:g}, got {float(nrm)!r}")


def _unit_vector_input(name: str, v, length: int) -> np.ndarray:
    """``v`` as a read-only complex vector of ``length`` with norm 1."""
    v = _as_complex(v, name)
    _check_unit_vector(name, v, length)
    v.setflags(write=False)
    return v


def _json_input(data: bytes, source) -> object:
    """The JSON document in the UTF-8 ``data`` read from ``source``; malformed
    JSON is a configuration error."""
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigurationError(f"{source} is not valid JSON: {exc}") from None


def _write_file(path, data: bytes) -> None:
    """Replace ``path`` atomically (making its directory): readers see the old or the new file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # a no-op once the replace has succeeded


def _check_sites(d_s: int) -> None:
    if d_s < 3 or d_s % 2 == 0:
        raise ConfigurationError(f"site count must be odd and >= 3, got {d_s}")


def _check_steps(steps: int) -> None:
    if steps < 0:
        raise ConfigurationError(f"steps must be >= 0, got {steps}")


def _check_walk_inputs(walk) -> None:
    """Check and freeze the inputs a ``WalkModel`` and a ``NonlocalTemplate`` share:
    the site count, the coin, the initial site, and the initial coin and
    environment vectors (the latter ``walk.d_e`` long)."""
    _check_sites(walk.d_s)
    object.__setattr__(walk, "coin", _unitary_input("coin", walk.coin, (2, 2)))
    if not 0 <= walk.initial_site < walk.d_s:
        raise ConfigurationError(
            f"initial site {walk.initial_site} outside ring of {walk.d_s} sites"
        )
    icoin = _unit_vector_input("initial_coin", walk.initial_coin, 2)
    object.__setattr__(walk, "initial_coin", icoin)
    if walk.initial_env is not None:
        ienv = _unit_vector_input("initial_env", walk.initial_env, walk.d_e)
        object.__setattr__(walk, "initial_env", ienv)


@dataclass(frozen=True, eq=False)
class PureState:
    """Total wavefunction over (site, coin, environment).

    ``amplitudes`` is a complex vector of length ``d_s * 2 * d_e`` in the
    canonical flat layout ``e + d_e * (c + 2 * s)``.
    """

    d_s: int
    d_e: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_sites(self.d_s)
        if self.d_e < 1:
            raise ConfigurationError(f"environment dimension must be >= 1, got {self.d_e}")
        amps = _as_complex(self.amplitudes, "amplitudes")
        expected = self.d_s * 2 * self.d_e
        if amps.shape != (expected,):
            raise DimensionMismatchError(
                f"amplitudes must have length {expected}, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", _unit_vector_input("state", amps, expected))

    @property
    def d_b(self) -> int:
        """Bath dimension: coin times environment."""
        return 2 * self.d_e

    def tensor(self) -> np.ndarray:
        """Read-only view of shape (d_s, 2, d_e)."""
        return self.amplitudes.reshape(self.d_s, 2, self.d_e)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class NonlocalEnvironment:
    """Shared environment transformed by e0 (left branch) or e1 (right branch).

    Each branch is a unitary ``(d_e, d_e)`` matrix or a ``(d_e,)`` vector of
    unit-modulus phases, which stands for the diagonal unitary.
    """

    e0: np.ndarray
    e1: np.ndarray

    def __post_init__(self):
        e0 = _branch_input("e0", self.e0)
        e1 = _branch_input("e1", self.e1)
        if e0.shape[0] != e1.shape[0]:
            raise ConfigurationError(
                f"e0 and e1 must act on one environment, got shapes {e0.shape} and {e1.shape}"
            )
        object.__setattr__(self, "e0", e0)
        object.__setattr__(self, "e1", e1)

    @property
    def d_e(self) -> int:
        return self.e0.shape[0]


@dataclass(frozen=True, eq=False)
class LocalEnvironment:
    """Per-site qubit environment with homogeneous branch gates g0 and g1."""

    g0: np.ndarray
    g1: np.ndarray

    def __post_init__(self):
        for name in ("g0", "g1"):
            object.__setattr__(self, name, _unitary_input(name, getattr(self, name), (2, 2)))


@dataclass(frozen=True, eq=False)
class WalkModel:
    """Complete configuration of one walk experiment.

    ``seed`` records the stream the environment matrices were drawn from;
    the evolution itself is deterministic once the model is built.
    """

    d_s: int
    environment: NonlocalEnvironment | LocalEnvironment
    coin: np.ndarray = field(default_factory=lambda: HADAMARD)
    initial_site: int = 0
    initial_coin: np.ndarray = field(default_factory=lambda: PLUS_I_COIN)
    initial_env: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.environment, LocalEnvironment):
            if self.d_s > LOCAL_SITE_LIMIT:
                raise ConfigurationError(
                    f"local model limited to d_s <= {LOCAL_SITE_LIMIT} "
                    f"(environment dimension 2**d_s), got {self.d_s}"
                )
        elif not isinstance(self.environment, NonlocalEnvironment):
            raise ConfigurationError(
                "environment must be a NonlocalEnvironment or LocalEnvironment"
            )
        _check_walk_inputs(self)

    @property
    def d_e(self) -> int:
        if isinstance(self.environment, LocalEnvironment):
            return 1 << self.d_s
        return self.environment.d_e

    @property
    def d_b(self) -> int:
        return 2 * self.d_e

    def environment_state(self) -> np.ndarray:
        """Initial environment vector (basis state 0 unless configured)."""
        if self.initial_env is not None:
            return self.initial_env
        env = np.zeros(self.d_e, dtype=np.complex128)
        env[0] = 1.0
        return env

    def describe(self) -> dict:
        """Plain-dict summary recorded in the metadata of a walk's series."""
        kind = "local" if isinstance(self.environment, LocalEnvironment) else "nonlocal"
        info = {
            "kind": kind,
            "d_s": self.d_s,
            "d_e": self.d_e,
            "d_b": self.d_b,
            "initial_site": self.initial_site,
            "seed": self.seed,
        }
        if kind == "nonlocal":
            diagonal = self.environment.e0.ndim == 1
            info["bath_basis"] = "e0 eigenbasis" if diagonal else "as given"
        return info


def init_state(model: WalkModel) -> PureState:
    """Product state |initial_site> x |initial_coin> x |initial_env>."""
    tens = np.zeros((model.d_s, 2, model.d_e), dtype=np.complex128)
    tens[model.initial_site] = np.outer(model.initial_coin, model.environment_state())
    return PureState(model.d_s, model.d_e, tens.reshape(-1))


def _unchecked_state(d_s: int, amplitudes: np.ndarray) -> PureState:
    """The flat ``amplitudes`` of a step, frozen, as a ``PureState`` that skips
    ``__post_init__`` (no per-step check)."""
    amplitudes.setflags(write=False)
    state = object.__new__(PureState)
    state.__dict__.update(d_s=d_s, d_e=amplitudes.size // (2 * d_s), amplitudes=amplitudes)
    return state


def _shift(d_s: int, left: np.ndarray, right: np.ndarray) -> PureState:
    """Shift the (site, env) amplitudes of branch 0 left and of branch 1 right."""
    out = np.empty((d_s, 2, left.shape[1]), dtype=np.complex128)
    out[:-1, 0, :] = left[1:]
    out[-1, 0, :] = left[0]
    out[1:, 1, :] = right[:-1]
    out[0, 1, :] = right[-1]
    return _unchecked_state(d_s, out.reshape(-1))


def _coin_flip(coin: np.ndarray, state: PureState) -> np.ndarray:
    """The coin applied per (site, env) block, as a (site, branch, env) array."""
    return coin @ state.tensor()


def _apply_branch(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``u`` applied to the env index of the (site, env) block ``v``: a phase
    multiply for a diagonal ``u``, one matrix product for a dense one."""
    return v * u if u.ndim == 1 else v @ u.T


def step_nonlocal(
    state: PureState, coin: np.ndarray, e0: np.ndarray, e1: np.ndarray
) -> PureState:
    """One step of the nonlocal model.

    Coin flip per (site, environment) block, then the branch unitary on
    the environment, then the conditional cyclic shift (left for coin 0,
    right for coin 1).  Each branch is a ``(d_e, d_e)`` matrix or a
    ``(d_e,)`` diagonal.
    """
    d_e = state.d_e
    if e0.shape not in ((d_e,), (d_e, d_e)) or e1.shape not in ((d_e,), (d_e, d_e)):
        raise DimensionMismatchError(
            f"environment branches must be {d_e}x{d_e} or diagonals of length {d_e}, "
            f"got {e0.shape} and {e1.shape}"
        )
    mixed = _coin_flip(coin, state)
    return _shift(state.d_s, _apply_branch(mixed[:, 0], e0), _apply_branch(mixed[:, 1], e1))


@functools.lru_cache(maxsize=2)
def _local_step_plan(d_s: int, gate_bytes: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only plan of a local step with the gate pair stored as the bytes of a
    complex (branch, row, col) array, in the (site, branch, env) layout of the
    step's output.  Output (s, b, e) comes from site r = s + 1 on branch 0 and
    r = s - 1 on branch 1 (the shift): ``sources[0]`` and ``sources[1]`` hold the
    flat indices of (r, b, e) and of its partner (r, b, e ^ 2**r) in the coin
    flip's (site, branch, env) output; ``keep`` = g_b[q, q] multiplies the first
    and ``flip`` = g_b[q, 1 - q] the second, with q bit r of e.  Kept for the last
    two gate pairs (a plan is ~0.45 MB at d_s = 9, ~22 MB at ``LOCAL_SITE_LIMIT``)."""
    env = np.arange(1 << d_s)
    origin = ((np.arange(d_s)[:, None] + [1, -1]) % d_s)[:, :, None]
    bit = ((env >> origin) & 1).astype(bool)
    row = (2 * origin + np.arange(2)[:, None]) << d_s
    sources = np.stack((row + env, row + (env ^ (1 << origin))))
    gates = np.frombuffer(gate_bytes, dtype=np.complex128).reshape(2, 2, 2, 1)
    keep = np.where(bit, gates[:, 1, 1], gates[:, 0, 0])
    flip = np.where(bit, gates[:, 1, 0], gates[:, 0, 1])
    for table in (keep, flip, sources):
        table.setflags(write=False)
    return keep, flip, sources


def step_local(
    state: PureState, coin: np.ndarray, g0: np.ndarray, g1: np.ndarray
) -> PureState:
    """One step of the local model.

    After the coin flip, the branch gate acts only on the qubit of the
    occupied site (bit s of the environment index is the qubit of site s),
    all sites at once: ``v'[s, e] = g[b, b] v[s, e] + g[b, 1-b] v[s, e ^ 2**s]``
    with b = bit s of e.  Then the walker shifts.  Each output amplitude and its
    partner are gathered from the site the walker shifts from, so the shift
    costs no copy of its own.
    """
    d_s, d_e = state.d_s, state.d_e
    if d_e != 1 << d_s:
        raise DimensionMismatchError(
            f"local model requires d_e == 2**d_s, got d_e={d_e} for d_s={d_s}"
        )
    if g0.shape != (2, 2) or g1.shape != (2, 2):
        raise DimensionMismatchError("local gates must be 2x2")
    gate_bytes = b"".join(np.asarray(g, dtype=np.complex128).tobytes() for g in (g0, g1))
    keep, flip, sources = _local_step_plan(d_s, gate_bytes)
    direct, flipped = np.take(_coin_flip(coin, state).reshape(-1), sources)
    # In place: the fused expression, with its two extra temporaries, measured ~2x
    # slower at d_s = 9.
    out = keep * direct
    flipped *= flip
    out += flipped
    return _unchecked_state(d_s, out.reshape(-1))


def step(state: PureState, model: WalkModel) -> PureState:
    """Apply the step operator configured in ``model``."""
    env = model.environment
    if isinstance(env, LocalEnvironment):
        return step_local(state, model.coin, env.g0, env.g1)
    return step_nonlocal(state, model.coin, env.e0, env.e1)


def evolve(model: WalkModel, steps: int, observer=None) -> PureState:
    """Run ``steps`` steps from the initial product state.

    ``observer(t, state)`` is invoked at every time step including t=0;
    an observer exception aborts the run and propagates.  No
    renormalization is applied between steps, so norm drift is a direct
    measure of numerical error.  The steps are unchecked; the final norm
    is checked, and drift beyond 1e-10 (or NaN) raises ``NumericsError``.
    """
    _check_steps(steps)
    state = init_state(model)
    if observer is not None:
        observer(0, state)
    for t in range(1, steps + 1):
        state = step(state, model)
        if observer is not None:
            observer(t, state)
    _check_unit_vector("final state", state.amplitudes, state.amplitudes.size, NumericsError)
    return state


def write_snapshot(state: PureState, path) -> None:
    """Checkpoint a state, replacing ``path`` atomically: one JSON header line, then
    raw little-endian float64 (re, im) pairs in flat-index order."""
    header = {"d_S": state.d_s, "d_E": state.d_e, "layout": SNAPSHOT_LAYOUT}
    payload = np.ascontiguousarray(state.amplitudes).view(np.float64).astype("<f8")
    _write_file(path, json.dumps(header, sort_keys=True).encode() + b"\n" + payload.tobytes())


def read_snapshot(path) -> PureState:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        raw = fh.read()
    header = _json_input(header_line, f"the header of snapshot {path}")
    layout = header.get("layout") if isinstance(header, dict) else None
    if layout != SNAPSHOT_LAYOUT:
        raise ConfigurationError(f"unsupported snapshot layout {layout!r}")
    d_s, d_e = header.get("d_S"), header.get("d_E")
    if type(d_s) is not int or type(d_e) is not int:
        raise ConfigurationError(f"snapshot header needs integer d_S and d_E: {header}")
    floats = np.frombuffer(raw, dtype="<f8")
    if floats.size != 2 * d_s * 2 * d_e:
        raise DimensionMismatchError(
            f"snapshot payload has {floats.size} floats, expected {2 * d_s * 2 * d_e}"
        )
    amps = floats.astype(np.float64).view(np.complex128)
    return PureState(d_s, d_e, amps)
