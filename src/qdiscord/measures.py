"""Entropies and two-qubit entanglement measures.

All logarithms are base 2, so entropic quantities are in bits. The convention
0*log(0) = 0 applies everywhere; eigenvalues at or below EIGENVALUE_CLAMP are
dropped before entropy sums.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, OutOfDomain
from .linalg import EIGENVALUE_CLAMP, SPIN_FLIP
from .states import DensityMatrix

_DOMAIN_SLACK = 1e-12


def _state_of(rho, dims=None) -> DensityMatrix:
    """``rho`` itself if it is a DensityMatrix; a raw (n, n) matrix or (N, n, n)
    stack goes through the one validator, DensityMatrix, with ``dims``, by
    default (n, 1)."""
    if isinstance(rho, DensityMatrix):
        return rho
    m = np.asarray(rho, dtype=complex)
    return DensityMatrix(dims or (m.shape[-1] if m.ndim else 1, 1), m)


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def spectral_entropies(*spectra) -> np.ndarray:
    """-sum of lam*log2(lam) over the last axis, for eigenvalues above
    EIGENVALUE_CLAMP, of each of ``spectra``, float arrays that differ only in
    their last axis, stacked on a new first axis: the logarithms are taken in
    one pass over their concatenation, and each sum over its own slice, so
    the bits match one call per spectrum."""
    v = np.concatenate(spectra, axis=-1)
    kept = np.where(v > EIGENVALUE_CLAMP, v, 1.0)
    terms = kept * np.log2(kept)
    sums = np.empty((len(spectra), *v.shape[:-1]))
    start = 0
    for i, spectrum in enumerate(spectra):
        stop = start + spectrum.shape[-1]
        np.add.reduce(terms[..., start:stop], axis=-1, out=sums[i, ...])
        start = stop
    return -sums + 0.0


def von_neumann_entropy(rho):
    """S(rho) over eigenvalues above EIGENVALUE_CLAMP, from the spectrum that
    validation computed; an (N, d, d) stack gives N values."""
    return _scalar_or_array(spectral_entropies(_state_of(rho).spectrum)[0])


def purity_loss(m: np.ndarray) -> np.ndarray:
    """2*(1 - Tr(m^2)) over the last two axes, unchecked: for matrices the
    program built itself."""
    return 2.0 * (1.0 - np.einsum("...ij,...ji->...", m, m).real)


def linear_entropy(rho):
    """S2(rho) = 2*(1 - Tr(rho^2)); an (N, d, d) stack gives N values."""
    return _scalar_or_array(purity_loss(_state_of(rho).matrix))


def unit_interval(x, what: str, slack: float = _DOMAIN_SLACK, error=OutOfDomain):
    """``x`` clipped into [0, 1]; ``error`` where it is farther out than ``slack``."""
    v = np.asarray(x, dtype=float)
    inside = (v >= -slack) & (v <= 1.0 + slack)
    if not inside.all():
        raise error(f"{what} {v[~inside].flat[0]} outside [0, 1] by more than {slack}")
    return np.minimum(np.maximum(v, 0.0), 1.0)


def _binary_entropy(p):
    """h(p) of values already in [0, 1], unchecked: the formula that
    ``binary_entropy`` and ``f_map`` share, after each checked its own
    argument; f's (1 + sqrt(1-x))/2 lies in [1/2, 1] by construction."""
    q = 1.0 - p
    p, q = np.where(p > 0.0, p, 1.0), np.where(q > 0.0, q, 1.0)
    return _scalar_or_array(-(p * np.log2(p) + q * np.log2(q)))


def binary_entropy(x):
    """h(x) = -x*log2(x) - (1-x)*log2(1-x) on [0, 1], h(0) = h(1) = 0; elementwise."""
    return _binary_entropy(unit_interval(x, "binary entropy argument"))


def f_map(x):
    """The monotone map f(x) = h((1 + sqrt(1-x))/2) from [0, 1] onto [0, 1]."""
    return _binary_entropy((1.0 + np.sqrt(1.0 - unit_interval(x, "f argument"))) / 2.0)


def wootters_concurrence(rho):
    """Concurrence of a two-qubit state, or a stack, from its factor
    G = V sqrt(lam), rho = G G^dagger: the spin-flip values (square roots of
    the eigenvalues of rho (YxY) rho* (YxY)) are the singular values of the
    complex symmetric matrix G^T (YxY) G. Eigenvalues at or below
    EIGENVALUE_CLAMP give zero columns, which keeps rank-deficient states
    exact instead of turning eigenvalue noise into sqrt-amplified error."""
    state = _state_of(rho, (2, 2))
    if state.dims != (2, 2):
        raise DimensionMismatch(f"expected two qubits or a stack of them, got dims {state.dims}")
    lam, vecs = np.linalg.eigh(state.matrix)
    factor = vecs * np.sqrt(np.where(lam > EIGENVALUE_CLAMP, lam, 0.0))[..., None, :]
    mu = np.linalg.svd(np.swapaxes(factor, -1, -2) @ SPIN_FLIP @ factor, compute_uv=False)
    return _scalar_or_array(np.maximum(0.0, mu[..., 0] - np.sum(mu[..., 1:], axis=-1)))


def tangle_two_qubit(rho):
    """Squared concurrence; equals the tangle for two-qubit states."""
    c = wootters_concurrence(rho)
    return c * c


def eof_two_qubit(rho):
    """Entanglement of formation f(C^2) for a two-qubit state."""
    return f_map(tangle_two_qubit(rho))
