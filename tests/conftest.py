import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_density(rng, dim):
    """Full-rank random density matrix (not a package code path)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure_density(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def haar_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases.conj()


def stack_of(*states):
    """One stack of the members of ``states`` (states or stacks of one dims),
    validated again as a whole."""
    from qdiscord.states import DensityMatrix

    return DensityMatrix(states[0].dims, np.concatenate([rho[:].matrix for rho in states]))
