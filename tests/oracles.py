"""Independent reference implementations used as test oracles.

Everything here is built directly from textbook formulas (explicit kron
products, Taylor series, transition-matrix powers) and never calls the
structured code paths it is used to check.
"""

import numpy as np


def dense_nonlocal_step(d_s: int, coin: np.ndarray, e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """Full step matrix of the shared-environment model as an explicit sum
    of kron products, ordered (site, coin, environment)."""
    t_minus = np.zeros((d_s, d_s))
    t_plus = np.zeros((d_s, d_s))
    for s in range(d_s):
        t_minus[(s - 1) % d_s, s] = 1.0
        t_plus[(s + 1) % d_s, s] = 1.0
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    return np.kron(t_minus, np.kron(p0 @ coin, e0)) + np.kron(
        t_plus, np.kron(p1 @ coin, e1)
    )


def dense_local_step(d_s: int, coin: np.ndarray, g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """Full step matrix of the per-site-qubit model.

    Bit s of the environment index is the qubit of site s (bit 0 = site 0),
    so the gate on qubit s sits between identities of size 2**(d_s-1-s)
    (slow bits) and 2**s (fast bits).
    """
    d_e = 1 << d_s
    dim = d_s * 2 * d_e
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    u = np.zeros((dim, dim), dtype=np.complex128)
    for s in range(d_s):
        t_minus = np.zeros((d_s, d_s))
        t_minus[(s - 1) % d_s, s] = 1.0
        t_plus = np.zeros((d_s, d_s))
        t_plus[(s + 1) % d_s, s] = 1.0
        for proj, gate, t_op in ((p0, g0, t_minus), (p1, g1, t_plus)):
            env = np.kron(np.eye(1 << (d_s - 1 - s)), np.kron(gate, np.eye(1 << s)))
            u += np.kron(t_op, np.kron(proj @ coin, env))
    return u


def taylor_expm_neg_i(h: np.ndarray, terms: int = 50) -> np.ndarray:
    """Truncated Taylor series of exp(-i h)."""
    acc = np.eye(h.shape[0], dtype=np.complex128)
    term = np.eye(h.shape[0], dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ (-1j * h) / k
        acc = acc + term
    return acc


def classical_transition_matrix(d_s: int) -> np.ndarray:
    """Column-stochastic hop matrix of the unbiased ring walk."""
    m = np.zeros((d_s, d_s))
    for s in range(d_s):
        m[(s - 1) % d_s, s] = 0.5
        m[(s + 1) % d_s, s] = 0.5
    return m


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def spatial_distribution(vec: np.ndarray, d_s: int) -> np.ndarray:
    """Per-site probabilities of a flat (site, coin, env) vector."""
    return (np.abs(vec) ** 2).reshape(d_s, -1).sum(axis=1)


def per_site_local_step(
    d_s: int, coin: np.ndarray, g0: np.ndarray, g1: np.ndarray, vec: np.ndarray
) -> np.ndarray:
    """One local-model step applied to a flat (site, coin, env) vector, one
    site at a time.

    For site s the environment index splits as (slow bits, bit s, 2**s fast
    bits), so the branch gate is a contraction over the middle axis.  Unlike
    ``dense_local_step`` this needs only O(d_s * 2**d_s) memory, so it also
    serves where the dense matrix is too large.
    """
    d_e = 1 << d_s
    mixed = np.einsum("bc,sce->bse", coin, vec.reshape(d_s, 2, d_e))
    out = np.empty((d_s, 2, d_e), dtype=np.complex128)
    for branch, gate, move in ((0, g0, -1), (1, g1, 1)):
        for s in range(d_s):
            v = mixed[branch, s].reshape(-1, 2, 1 << s)
            out[(s + move) % d_s, branch] = np.einsum("ij,ajb->aib", gate, v).reshape(-1)
    return out.reshape(-1)
