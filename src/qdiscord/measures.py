"""Entropies and two-qubit entanglement measures.

All logarithms are base 2, so entropic quantities are in bits. The convention
0*log(0) = 0 applies everywhere; eigenvalues below 1e-12 are dropped before
entropy sums.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, OutOfDomain
from .linalg import (
    EIGENVALUE_CLAMP,
    PAULI_Y,
    hermitian_eig,
    partial_trace,
    tensor,
    trace_product,
)
from .states import DensityMatrix

_DOMAIN_SLACK = 1e-12
_SPIN_FLIP = tensor(PAULI_Y, PAULI_Y)


def _matrix_of(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -sum of lam*log2(lam) over eigenvalues above 1e-12."""
    values = hermitian_eig(_matrix_of(rho)).values
    values = values[values > EIGENVALUE_CLAMP]
    return float(-np.sum(values * np.log2(values))) + 0.0


def linear_entropy(rho) -> float:
    """S2(rho) = 2*(1 - Tr(rho^2)); an (N, d, d) stack gives N values."""
    m = _matrix_of(rho)
    if m.ndim == 3:
        return 2.0 * (1.0 - np.einsum("nij,nji->n", m, m).real)
    return float(2.0 * (1.0 - trace_product(m, m).real))


def binary_entropy(x: float) -> float:
    """h(x) = -x*log2(x) - (1-x)*log2(1-x) on [0, 1], with h(0) = h(1) = 0."""
    if x < -_DOMAIN_SLACK or x > 1.0 + _DOMAIN_SLACK:
        raise OutOfDomain(f"binary entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def f_map(x: float) -> float:
    """The monotone map f(x) = h((1 + sqrt(1-x))/2) from [0, 1] onto [0, 1]."""
    if x < -_DOMAIN_SLACK or x > 1.0 + _DOMAIN_SLACK:
        raise OutOfDomain(f"f argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return binary_entropy((1.0 + math.sqrt(1.0 - x)) / 2.0)


def mutual_information(rho: DensityMatrix) -> float:
    """I = S(rho_A) + S(rho_B) - S(rho_AB)."""
    s_a = von_neumann_entropy(partial_trace(rho.matrix, rho.dims, "A"))
    s_b = von_neumann_entropy(partial_trace(rho.matrix, rho.dims, "B"))
    return s_a + s_b - von_neumann_entropy(rho)


def _two_qubit_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        if rho.dims != (2, 2):
            raise DimensionMismatch(f"expected a 2x2 qubit pair, got dims {rho.dims}")
        return rho.matrix
    m = np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise DimensionMismatch(f"expected a 4x4 matrix, got shape {m.shape}")
    return m


def wootters_concurrence(rho) -> float:
    """Concurrence of a two-qubit state from the spin-flip spectrum.

    The spin-flip values (square roots of the eigenvalues of
    rho (YxY) rho* (YxY)) are computed as the singular values of the complex
    symmetric matrix sqrt(lam_i lam_j) <v_i| YxY |v_j*> on the support of rho.
    Restricting to the support keeps rank-deficient states exact instead of
    turning eigenvalue noise into sqrt-amplified error.
    """
    m = _two_qubit_matrix(rho)
    eig = hermitian_eig(m)
    keep = eig.values > EIGENVALUE_CLAMP
    lam = eig.values[keep]
    vecs = eig.vectors[:, keep]
    core = vecs.conj().T @ _SPIN_FLIP @ vecs.conj()
    root = np.sqrt(lam)
    mu = np.linalg.svd(root[:, None] * core * root[None, :], compute_uv=False)
    return float(max(0.0, mu[0] - np.sum(mu[1:])))


def tangle_two_qubit(rho) -> float:
    """Squared concurrence; equals the tangle for two-qubit states."""
    c = wootters_concurrence(rho)
    return c * c


def eof_two_qubit(rho) -> float:
    """Entanglement of formation f(C^2) for a two-qubit state."""
    return f_map(tangle_two_qubit(rho))
