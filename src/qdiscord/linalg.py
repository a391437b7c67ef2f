"""The Pauli matrices, the eigenvalue cut-off, the one reading of ``dims``,
the partial trace and the 2x2 Hermitian spectrum.

Everything here is a pure function of its inputs; values are safe to share
across threads.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionMismatch

EIGENVALUE_CLAMP = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
SIGMAS = np.stack([np.eye(2, dtype=complex), *PAULIS])  # sigma_0 = I, then the Paulis
SPIN_FLIP = np.kron(PAULI_Y, PAULI_Y)  # Wootters' spin flip of two qubits, Y x Y
_MINUS_PLUS = np.array([-1.0, 1.0])
_KEPT = {"A": "...abcb->...ac", "B": "...abad->...bd"}  # einsum of each partial trace


def qubit_eigvalsh(m) -> np.ndarray:
    """Ascending eigenvalues of a (..., 2, 2) Hermitian stack, in closed form:
    (a + d)/2 -+ hypot((a - d)/2, |b|). Like ``np.linalg.eigvalsh`` it reads
    the diagonal and the lower triangle."""
    a, d, b = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 1, 0]
    mean, radius = (a + d) / 2.0, np.hypot((a - d) / 2.0, np.abs(b))
    return mean[..., None] + radius[..., None] * _MINUS_PLUS


def _dims(dims) -> tuple:
    """The one reading of ``dims``: two positive integers (dA, dB), as plain
    ints; DimensionMismatch otherwise. A Python boolean, an int subclass, is
    refused by type; ``operator.index`` refuses a numpy one."""
    try:
        d_a, d_b = dims
        if isinstance(d_a, bool) or isinstance(d_b, bool):
            raise TypeError
        d_a, d_b = operator.index(d_a), operator.index(d_b)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"dims must be two integers, got {dims!r}") from None
    if min(d_a, d_b) < 1:
        raise DimensionMismatch(f"dims must be two positive integers, got {dims!r}")
    return d_a, d_b


def partial_trace(m, dims, keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``dims`` is two positive integers (dA, dB); ``keep`` selects the
    surviving subsystem, "A" or "B". An (N, n, n) stack of operators gives
    an (N, d, d) stack.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack, got shape {a.shape}")
    d_a, d_b = _dims(dims)
    if a.shape[-1] != d_a * d_b:
        raise DimensionMismatch(
            f"matrix of size {a.shape[-1]} cannot split into dims ({d_a}, {d_b})"
        )
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return np.einsum(_KEPT[keep], a.reshape(*a.shape[:-2], d_a, d_b, d_a, d_b))
