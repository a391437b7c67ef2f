"""Entropies and two-qubit entanglement measures.

All logarithms are base 2, so entropic quantities are in bits. The convention
0*log(0) = 0 applies everywhere; eigenvalues below 1e-12 are dropped before
entropy sums.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, OutOfDomain
from .linalg import EIGENVALUE_CLAMP, PAULI_Y, checked_hermitian, partial_trace, tensor
from .states import DensityMatrix

_DOMAIN_SLACK = 1e-12
_SPIN_FLIP = tensor(PAULI_Y, PAULI_Y)


def _matrix_of(rho) -> np.ndarray:
    """The matrix of a DensityMatrix, which its constructor validated, or a raw
    square matrix or stack, checked here for shape and Hermiticity."""
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return checked_hermitian(rho)


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def spectral_entropy(values):
    """-sum of lam*log2(lam) over the last axis, for eigenvalues above 1e-12."""
    v = np.asarray(values, dtype=float)
    kept = np.where(v > EIGENVALUE_CLAMP, v, 1.0)
    return _scalar_or_array(-np.sum(kept * np.log2(kept), axis=-1) + 0.0)


def von_neumann_entropy(rho):
    """S(rho) over eigenvalues above 1e-12; an (N, d, d) stack gives N values."""
    return spectral_entropy(np.linalg.eigvalsh(_matrix_of(rho)))


def linear_entropy(rho):
    """S2(rho) = 2*(1 - Tr(rho^2)); an (N, d, d) stack gives N values."""
    m = _matrix_of(rho)
    return _scalar_or_array(2.0 * (1.0 - np.einsum("...ij,...ji->...", m, m).real))


def unit_interval(x, what: str, slack: float = _DOMAIN_SLACK, error=OutOfDomain):
    """``x`` clipped into [0, 1]; ``error`` where it is farther out than ``slack``."""
    v = np.asarray(x, dtype=float)
    outside = ~((v >= -slack) & (v <= 1.0 + slack))
    if np.any(outside):
        raise error(f"{what} {v[outside].flat[0]} outside [0, 1] by more than {slack}")
    return np.clip(v, 0.0, 1.0)


def binary_entropy(x):
    """h(x) = -x*log2(x) - (1-x)*log2(1-x) on [0, 1], h(0) = h(1) = 0; elementwise."""
    p = unit_interval(x, "binary entropy argument")
    terms = np.stack([p, 1.0 - p])
    safe = np.where(terms > 0.0, terms, 1.0)
    return _scalar_or_array(-np.sum(safe * np.log2(safe), axis=0))


def f_map(x):
    """The monotone map f(x) = h((1 + sqrt(1-x))/2) from [0, 1] onto [0, 1]."""
    v = unit_interval(x, "f argument")
    return binary_entropy((1.0 + np.sqrt(1.0 - v)) / 2.0)


def mutual_information(rho: DensityMatrix) -> float:
    """I = S(rho_A) + S(rho_B) - S(rho_AB)."""
    s_a = von_neumann_entropy(partial_trace(rho.matrix, rho.dims, "A"))
    s_b = von_neumann_entropy(partial_trace(rho.matrix, rho.dims, "B"))
    return s_a + s_b - von_neumann_entropy(rho)


def _two_qubit_matrix(rho) -> np.ndarray:
    m = _matrix_of(rho)
    if getattr(rho, "dims", (2, 2)) != (2, 2) or m.shape[-2:] != (4, 4) or m.ndim > 3:
        raise DimensionMismatch(f"expected two qubits or a stack of them, got {m.shape}")
    return m


def wootters_concurrence(rho):
    """Concurrence of a two-qubit state from the spin-flip spectrum.

    The spin-flip values (square roots of the eigenvalues of
    rho (YxY) rho* (YxY)) are computed as the singular values of the complex
    symmetric matrix sqrt(lam_i lam_j) <v_i| YxY |v_j*> on the support of rho.
    Restricting to the support keeps rank-deficient states exact instead of
    turning eigenvalue noise into sqrt-amplified error. Works on stacks too.
    """
    lam, vecs = np.linalg.eigh(_two_qubit_matrix(rho))
    root = np.sqrt(np.where(lam > EIGENVALUE_CLAMP, lam, 0.0))
    core = np.swapaxes(vecs.conj(), -1, -2) @ _SPIN_FLIP @ vecs.conj()
    mu = np.linalg.svd(root[..., :, None] * core * root[..., None, :], compute_uv=False)
    return _scalar_or_array(np.maximum(0.0, mu[..., 0] - np.sum(mu[..., 1:], axis=-1)))


def tangle_two_qubit(rho):
    """Squared concurrence; equals the tangle for two-qubit states."""
    c = wootters_concurrence(rho)
    return c * c


def eof_two_qubit(rho):
    """Entanglement of formation f(C^2) for a two-qubit state."""
    return f_map(tangle_two_qubit(rho))
