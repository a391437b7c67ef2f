"""Generator bases for SU(d), Bloch coefficients, and the qubit-to-qudit
channel hiding inside any dx2 bipartite state.

A dx2 state rho_AB equals (Lambda x I) applied to the symmetric purification
of rho_B, for a unique channel Lambda from the purifying qubit B' into A.
On Bloch vectors Lambda acts affinely, r -> L r + l, and the linear-entropy
classical correlation of rho_AB is (4/d^2) * lam_max(L^T L) * S2(rho_B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateMarginal, DimensionMismatch, OutOfDomain
from .linalg import PAULIS, hermitian_eig, partial_trace, tensor, trace_product
from .measures import linear_entropy
from .states import DensityMatrix

_MARGINAL_RANK_TOL = 1e-10


@dataclass(frozen=True)
class GeneratorBasis:
    """Traceless Hermitian generators of SU(d) with Tr(g_a g_b) = 2 delta_ab."""

    dimension: int
    matrices: np.ndarray


@dataclass(frozen=True)
class ChannelBloch:
    """Affine Bloch action (linear_part, offset) of the extracted channel.

    ``marginal_eigenvalues`` and ``marginal_basis`` record the eigensystem of
    rho_B that fixed the B' frame. The raw linear_part depends on that frame;
    only its singular values are basis-independent.
    """

    output_dim: int
    linear_part: np.ndarray
    offset: np.ndarray
    marginal_eigenvalues: np.ndarray
    marginal_basis: np.ndarray


@lru_cache(maxsize=None)
def gell_mann_basis(d: int) -> GeneratorBasis:
    """Generalized Gell-Mann generators; d=2 yields (sigma_x, sigma_y, sigma_z)."""
    if d not in (2, 3, 4):
        raise OutOfDomain(f"generator basis implemented for d in {{2, 3, 4}}, got {d}")
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            mats.append(sym)
    for j in range(d):
        for k in range(j + 1, d):
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k] = -1.0j
            anti[k, j] = 1.0j
            mats.append(anti)
    for level in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        for m in range(level):
            diag[m, m] = 1.0
        diag[level, level] = -level
        mats.append(math.sqrt(2.0 / (level * (level + 1))) * diag)
    stack = np.stack(mats)
    stack.flags.writeable = False
    return GeneratorBasis(dimension=d, matrices=stack)


def bloch_of(matrix, basis: GeneratorBasis) -> np.ndarray:
    """Coefficients r with matrix = (Tr(matrix) I + r . gamma)/d, r_m = d/2 Tr(m g_m)."""
    m = np.asarray(matrix, dtype=complex)
    d = basis.dimension
    if m.shape != (d, d):
        raise DimensionMismatch(f"matrix shape {m.shape} does not match d={d}")
    return np.array(
        [0.5 * d * trace_product(m, g).real for g in basis.matrices], dtype=float
    )


def bloch_state(r, basis: GeneratorBasis) -> np.ndarray:
    """Reconstruct (I + r . gamma)/d from Bloch coefficients.

    An (N, d^2 - 1) stack of coefficient rows gives an (N, d, d) stack.
    """
    d = basis.dimension
    coeffs = np.asarray(r, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != d * d - 1:
        raise DimensionMismatch(f"coefficient vector shape {coeffs.shape} for d={d}")
    return (np.eye(d, dtype=complex) + np.tensordot(coeffs, basis.matrices, axes=1)) / d


def extract_channel(rho: DensityMatrix, marginal_basis=None) -> ChannelBloch:
    """Recover the channel of a dx2 state from its action on the B eigenbasis.

    The images Lambda(|phi_i><phi_j|) = Tr_B[rho (I x |phi_j><phi_i|)] /
    sqrt(lam_i lam_j) determine the channel on the B' operator basis; the
    affine (L, l) data is then read off in the Pauli frame that maps |phi_i>
    to |i>. A rank-1 rho_B leaves the channel undefined off the support and
    raises DegenerateMarginal; callers should use the zero shortcut instead.

    ``marginal_basis`` optionally overrides the eigensystem as a pair
    (eigenvalues, eigenvector_columns), which matters only when rho_B is
    degenerate and the eigenbasis is a genuine choice.
    """
    if rho.dim_b != 2:
        raise DimensionMismatch(f"channel extraction needs dB=2, got dims {rho.dims}")
    rho_b = partial_trace(rho.matrix, rho.dims, "B")
    if marginal_basis is None:
        eig = hermitian_eig(rho_b)
        lam, vecs = eig.values, eig.vectors
    else:
        lam = np.asarray(marginal_basis[0], dtype=float)
        vecs = np.asarray(marginal_basis[1], dtype=complex)
        recon = vecs @ np.diag(lam) @ vecs.conj().T
        if np.max(np.abs(recon - rho_b)) > 1e-10:
            raise DimensionMismatch("supplied basis does not diagonalize rho_B")
    if lam[1] <= _MARGINAL_RANK_TOL:
        raise DegenerateMarginal(
            f"rho_B eigenvalues {lam} are rank-1 within {_MARGINAL_RANK_TOL}"
        )
    d_a = rho.dim_a
    r = rho.matrix.reshape(d_a, 2, d_a, 2)
    images = {}
    for i in range(2):
        for j in range(2):
            m = np.outer(vecs[:, j], vecs[:, i].conj())
            images[i, j] = np.einsum("abcd,db->ac", r, m) / math.sqrt(lam[i] * lam[j])
    basis = gell_mann_basis(d_a)
    unit_image = (images[0, 0] + images[1, 1]) / 2.0
    offset = bloch_of(unit_image, basis)
    pauli_images = (
        images[0, 1] + images[1, 0],
        1.0j * (images[1, 0] - images[0, 1]),
        images[0, 0] - images[1, 1],
    )
    columns = [
        bloch_of(unit_image + img / 2.0, basis) - offset for img in pauli_images
    ]
    linear_part = np.column_stack(columns)
    linear_part.flags.writeable = False
    offset.flags.writeable = False
    return ChannelBloch(
        output_dim=d_a,
        linear_part=linear_part,
        offset=offset,
        marginal_eigenvalues=lam.copy(),
        marginal_basis=vecs.copy(),
    )


def apply_channel(ch: ChannelBloch, qubit_operator) -> np.ndarray:
    """Linear extension of the affine Bloch action to arbitrary 2x2 operators."""
    x = np.asarray(qubit_operator, dtype=complex)
    if x.shape != (2, 2):
        raise DimensionMismatch(f"channel input must be 2x2, got {x.shape}")
    d = ch.output_dim
    basis = gell_mann_basis(d)
    gamma = basis.matrices
    out = np.trace(x) * (
        np.eye(d, dtype=complex) + np.tensordot(ch.offset, gamma, axes=1)
    )
    for k, sigma in enumerate(PAULIS):
        out = out + np.trace(x @ sigma) * np.tensordot(
            ch.linear_part[:, k], gamma, axes=1
        )
    return out / d


def reassemble_state(ch: ChannelBloch) -> np.ndarray:
    """Rebuild rho_AB by pushing the purification of rho_B through the channel.

    This is the round-trip guard for the extraction rule: the result must
    reproduce the original state.
    """
    lam, vecs = ch.marginal_eigenvalues, ch.marginal_basis
    d_a = ch.output_dim
    out = np.zeros((2 * d_a, 2 * d_a), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            image = apply_channel(ch, unit)
            out += math.sqrt(lam[i] * lam[j]) * tensor(
                image, np.outer(vecs[:, i], vecs[:, j].conj())
            )
    return out


def singular_values(ch: ChannelBloch) -> np.ndarray:
    """Descending singular values of the linear part (the basis-free content)."""
    return np.linalg.svd(ch.linear_part, compute_uv=False)


def linear_cc_from_channel(ch: ChannelBloch, marginal_linear_entropy: float) -> float:
    """Closed-form linear-entropy classical correlation from the channel.

    Reads only the linear part: (4/d^2) * lam_max(L^T L) * S2(rho_B).
    """
    gram = ch.linear_part.T @ ch.linear_part
    lam_max = float(hermitian_eig(gram).values[0])
    d = ch.output_dim
    return (4.0 / (d * d)) * lam_max * marginal_linear_entropy


def linear_classical_correlation(rho: DensityMatrix) -> float:
    """Linear-entropy classical correlation of a dx2 state, any rank.

    A rank-1 marginal forces the value to 0 because S2(rho_B) = 0, so that
    case short-circuits without extracting a channel.
    """
    try:
        ch = extract_channel(rho)
    except DegenerateMarginal:
        return 0.0
    s2_b = linear_entropy(partial_trace(rho.matrix, rho.dims, "B"))
    return linear_cc_from_channel(ch, s2_b)
