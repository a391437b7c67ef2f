"""The Pauli matrices, the eigenvalue cut-off, the partial trace and the
2x2 Hermitian spectrum.

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


def partial_trace(m, dims, keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``dims`` is two integers (dA, dB); ``keep`` selects the surviving subsystem, "A" or "B".
    An (N, n, n) stack of operators gives an (N, d, d) stack.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack, got shape {a.shape}")
    try:
        d_a, d_b = map(operator.index, dims)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"dims must be two integers, got {dims!r}") from None
    if min(d_a, d_b) < 1 or a.shape[-1] != d_a * d_b:
        raise DimensionMismatch(
            f"matrix of size {a.shape[-1]} cannot split into dims ({d_a}, {d_b})"
        )
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return _partial_trace(a, (d_a, d_b), keep)


def _partial_trace(m: np.ndarray, dims: tuple, keep: str) -> np.ndarray:
    """``partial_trace`` of a complex (N, n, n) stack, unchecked: for
    ``partial_trace``, which checks its arguments, and for
    ``channel._extract_images``, ``discord._report_fields`` and the oracles,
    whose stacks and dims a DensityMatrix validated."""
    d_a, d_b = dims
    return np.einsum(_KEPT[keep], m.reshape(*m.shape[:-2], d_a, d_b, d_a, d_b))

