"""Generator bases for SU(d), Bloch coefficients, and the qubit-to-qudit
channel hiding inside any dx2 bipartite state.

A dx2 state rho_AB equals (Lambda x I) applied to the symmetric purification
of rho_B, for a unique channel Lambda from the purifying qubit B' into A.
On Bloch vectors Lambda acts affinely, r -> L r + l, and the linear-entropy
classical correlation of rho_AB is (4/d^2) * lam_max(L^T L) * S2(rho_B).

Only the singular values of L enter, so ``linear_cc_batch`` uses the frame-free
L[m, k] = (d/4) Tr(g_m Tr_B[rho (I x K_k)]), K_k = rho_B^{-1/2} sigma_k rho_B^{-1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateMarginal, DimensionMismatch, OutOfDomain
from .linalg import PAULIS, partial_trace
from .measures import linear_entropy
from .states import stack_matrices

_MARGINAL_RANK_TOL = 1e-10
_BLOCK = 128


@dataclass(frozen=True)
class GeneratorBasis:
    """Traceless Hermitian generators of SU(d) with Tr(g_a g_b) = 2 delta_ab."""

    dimension: int
    matrices: np.ndarray


@dataclass(frozen=True)
class ChannelBloch:
    """Affine Bloch action (linear_part, offset) of the extracted channel.

    ``marginal_eigenvalues`` (descending) and ``marginal_basis`` record the
    eigensystem of rho_B that fixed the B' frame. The raw linear_part depends
    on that frame; only its singular values are basis-independent. Extracted
    from a sequence of states, every field has a leading axis, one row per
    state.
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
    """Coefficients r with matrix = (Tr(matrix) I + r . gamma)/d, r_m = d/2 Tr(m g_m).

    An (..., d, d) stack of matrices gives an (..., d^2 - 1) stack of rows.
    """
    m = np.asarray(matrix, dtype=complex)
    d = basis.dimension
    if m.shape[-2:] != (d, d):
        raise DimensionMismatch(f"matrix shape {m.shape} does not match d={d}")
    return 0.5 * d * np.einsum("...ij,mji->...m", m, basis.matrices).real


def bloch_state(r, basis: GeneratorBasis) -> np.ndarray:
    """Reconstruct (I + r . gamma)/d from Bloch coefficients.

    An (N, d^2 - 1) stack of coefficient rows gives an (N, d, d) stack.
    """
    d = basis.dimension
    coeffs = np.asarray(r, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != d * d - 1:
        raise DimensionMismatch(f"coefficient vector shape {coeffs.shape} for d={d}")
    return (np.eye(d, dtype=complex) + np.tensordot(coeffs, basis.matrices, axes=1)) / d


def extract_channel(rho) -> ChannelBloch:
    """Recover the channel of a dx2 state from its action on the B eigenbasis.

    The images Lambda(|phi_i><phi_j|) = Tr_B[rho (I x |phi_j><phi_i|)] /
    sqrt(lam_i lam_j) determine the channel on the B' operator basis; the
    affine (L, l) data is then read off in the Pauli frame that maps |phi_i>
    to |i>. A rank-1 rho_B (smaller eigenvalue at most 1e-10) leaves the
    channel undefined off the support: one state raises DegenerateMarginal
    (callers should use the zero shortcut instead), and in a sequence of
    states with equal dims such a member gets a NaN linear_part and offset.
    """
    matrices, (d_a, d_b), single = stack_states(rho)
    lam, vecs = np.linalg.eigh(partial_trace(matrices, (d_a, d_b), "B"))
    lam, vecs = lam[:, ::-1].copy(), vecs[:, :, ::-1].copy()
    pure = lam[:, 1] <= _MARGINAL_RANK_TOL
    if single and pure[0]:
        raise DegenerateMarginal(
            f"rho_B eigenvalues {lam[0]} are rank-1 within {_MARGINAL_RANK_TOL}"
        )
    r = matrices.reshape(-1, d_a, 2, d_a, 2)
    safe = np.where(pure[:, None], 1.0, lam)
    images = {}
    # One contraction per (i, j): a single einsum over all four sums in another
    # order and moves the last digits the decomposition oracle reports.
    for i in range(2):
        for j in range(2):
            unit = vecs[:, :, j, None] * vecs[:, None, :, i].conj()
            norm = np.sqrt(safe[:, i] * safe[:, j])[:, None, None]
            images[i, j] = np.einsum("nabcd,ndb->nac", r, unit) / norm
    basis = gell_mann_basis(d_a)
    unit_image = (images[0, 0] + images[1, 1]) / 2.0
    offset = bloch_of(unit_image, basis)
    pauli_images = np.stack([
        images[0, 1] + images[1, 0],
        1.0j * (images[1, 0] - images[0, 1]),
        images[0, 0] - images[1, 1],
    ], axis=1)
    columns = bloch_of(unit_image[:, None] + pauli_images / 2.0, basis) - offset[:, None]
    linear_part = np.swapaxes(columns, 1, 2).copy()
    linear_part[pure], offset[pure] = np.nan, np.nan
    fields = (linear_part, offset, lam, vecs)
    if single:
        fields = tuple(field[0] for field in fields)
    for field in fields[:2]:
        field.flags.writeable = False
    return ChannelBloch(d_a, *fields)


def apply_channel(ch: ChannelBloch, qubit_operator) -> np.ndarray:
    """Linear extension of the affine Bloch action to 2x2 operators.

    The leading axes of a (..., 2, 2) operator stack broadcast against the
    batch axis of a channel extracted from a sequence of states.
    """
    x = np.asarray(qubit_operator, dtype=complex)
    if x.shape[-2:] != (2, 2):
        raise DimensionMismatch(f"channel input must be 2x2, got {x.shape}")
    d = ch.output_dim
    trace = np.einsum("...ii->...", x)[..., None]
    pauli_weights = np.einsum("...ij,kji->...k", x, np.stack(PAULIS))
    bloch = trace * ch.offset + np.einsum("...mk,...k->...m", ch.linear_part, pauli_weights)
    gamma = gell_mann_basis(d).matrices
    return (trace[..., None] * np.eye(d) + np.tensordot(bloch, gamma, axes=1)) / d


def reassemble_state(ch: ChannelBloch) -> np.ndarray:
    """Rebuild rho_AB by pushing the purification of rho_B through the channel:
    sum_ij sqrt(lam_i lam_j) Lambda(|i><j|) x |phi_i><phi_j|, one matrix per row
    of ``ch``.

    This is the round-trip guard for the extraction rule: the result must
    reproduce the original state.
    """
    lam, vecs = ch.marginal_eigenvalues, ch.marginal_basis
    lead = lam.shape[:-1]
    d_a = ch.output_dim
    units = np.eye(4).reshape(2, 2, *(1,) * len(lead), 2, 2)
    images = apply_channel(ch, units)
    weights = np.sqrt(lam[..., :, None] * lam[..., None, :])
    out = np.einsum("...ij,ij...ac,...pi,...qj->...apcq", weights, images, vecs, vecs.conj())
    return out.reshape(*lead, 2 * d_a, 2 * d_a)


def singular_values(ch: ChannelBloch) -> np.ndarray:
    """Descending singular values of the linear part (the basis-free content)."""
    return np.linalg.svd(ch.linear_part, compute_uv=False)


def stack_states(rho):
    """(matrices, dims, single) for one DensityMatrix or a sequence with equal
    dims, of a shape the closed forms support: (dA, 2) with dA in {2, 3, 4}."""
    matrices, (d_a, d_b), single = stack_matrices(rho)
    if d_b != 2 or d_a not in (2, 3, 4):
        raise DimensionMismatch(
            f"supported shapes are (dA, 2) with dA in {{2, 3, 4}}, got dims {(d_a, d_b)}"
        )
    return matrices, (d_a, d_b), single


def in_blocks(stack_function, states, *args) -> np.ndarray:
    """``stack_function`` over blocks of at most 128 states (stack rows or list
    items), joined on the last axis; temporaries stay at tens of kB."""
    blocks = range(0, len(states), _BLOCK)
    return np.concatenate(
        [stack_function(states[i : i + _BLOCK], *args) for i in blocks], axis=-1
    )


def linear_cc_batch(matrices: np.ndarray, d_a: int) -> np.ndarray:
    """Frame-free I2_cc of an (N, 2dA, 2dA) stack of dA x 2 states.

    T[m, k] = Tr(g_m Tr_B[rho (I x K_k)]) = (4/d) L[m, k], so I2_cc reads
    lam_max(T^T T) S2(rho_B) / 4. A rank-1 rho_B (smaller eigenvalue at most
    1e-10) gives 0, since S2(rho_B) = 0 and the channel is undefined there.
    The jump there is small: d-level Bloch vectors have |r|^2 <= d(d-1)/2,
    so I2_cc <= (2(d-1)/d) S2(rho_B), and S2(rho_B) = 4 eps (1 - eps) for the
    smaller eigenvalue eps; at most 4e-10 for two qubits, 6e-10 at dA=4.
    """
    rho_b = partial_trace(matrices, (d_a, 2), "B")
    lam, vecs = np.linalg.eigh(rho_b)
    pure = lam[:, 0] <= _MARGINAL_RANK_TOL
    scale = 1.0 / np.sqrt(np.where(pure[:, None], 1.0, lam))
    inv_root = np.einsum("nij,nj,nkj->nik", vecs, scale, vecs.conj())
    k_ops = np.einsum("nhe,keb,nbf->nkhf", inv_root, np.stack(PAULIS), inv_root)
    r = matrices.reshape(-1, d_a, 2, d_a, 2)
    t = np.einsum("nafch,mca,nkhf->nmk", r, gell_mann_basis(d_a).matrices, k_ops).real
    lam_max = np.linalg.eigvalsh(np.einsum("nmk,nml->nkl", t, t))[:, -1]
    return np.where(pure, 0.0, 0.25 * lam_max * linear_entropy(rho_b))


def linear_classical_correlation(rho):
    """Linear-entropy classical correlation of a dx2 state of any rank; a float
    for one DensityMatrix, an array for a sequence of them with equal dims."""
    matrices, dims, single = stack_states(rho)
    values = in_blocks(linear_cc_batch, matrices, dims[0])
    return values[0].item() if single else values
