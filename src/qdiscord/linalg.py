"""Dense complex linear algebra for small (up to 8x8) Hermitian problems.

Everything here is a pure function of its inputs; values are safe to share
across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

HERMITIAN_TOL = 1e-10
EIGENVALUE_CLAMP = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def checked_hermitian(m) -> np.ndarray:
    """``m`` as a complex square matrix or (N, n, n) stack; DimensionMismatch for
    other shapes, NotHermitian when max|m - m^H| exceeds 1e-10 entrywise."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack, got shape {a.shape}")
    deviation = float(np.max(np.abs(a - np.swapaxes(a, -1, -2).conj()), initial=0.0))
    if deviation > HERMITIAN_TOL:
        raise NotHermitian(f"matrix deviates from Hermiticity by {deviation:.3e}")
    return a


def tensor(a, b) -> np.ndarray:
    """Kronecker product, dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m, dims, keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``dims`` is (dA, dB); ``keep`` selects the surviving subsystem, "A" or "B".
    An (N, n, n) stack of operators gives an (N, d, d) stack.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack, got shape {a.shape}")
    d_a, d_b = int(dims[0]), int(dims[1])
    if a.shape[-1] != d_a * d_b:
        raise DimensionMismatch(
            f"matrix of size {a.shape[-1]} cannot split into dims ({d_a}, {d_b})"
        )
    r = a.reshape(*a.shape[:-2], d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("...abcb->...ac", r)
    if keep == "B":
        return np.einsum("...abad->...bd", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")

