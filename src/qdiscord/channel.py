"""The qubit-to-qudit channel hiding inside any dx2 bipartite state.

A dx2 state rho_AB equals (Lambda x I) applied to the symmetric purification
of rho_B, for a unique channel Lambda from its ancilla qubit B' into A.
On Bloch vectors Lambda acts affinely, r -> L r + l, and the linear-entropy
classical correlation of rho_AB is (4/d^2) * lam_max(L^T L) * S2(rho_B).

The channel is read off the state as its images R_mu = Lambda(sigma_mu)
(sigma_0 = I) in the eigenframe of rho_B, by ``_extract_images``; no
generator basis is needed. ``linear_cc_batch`` extracts them once per call,
uses only their Gram G_kl = Re Tr(R_k R_l) = (8/d^2) (L^T L)_kl, and returns
them to its caller; nothing is kept on the state. The images are Hermitian,
so ``_gram`` forms G as V V^T over their real view V, one real product, and
G is exactly symmetric. ``_rebuilt_states`` pushes the
purification of rho_B back through those same images, which the
``roundtrip`` residual of ``discord.identity_residuals`` compares with the
state. Each closed form makes one pass over the whole stack, so its
temporaries grow with it.
"""

from __future__ import annotations

import numpy as np

from .linalg import SIGMAS, partial_trace
from .states import MARGINAL_RANK_TOL, DensityMatrix, _stack_of, _unstack


def _extract_images(matrices: np.ndarray, d_a: int):
    """rho_B's descending eigenvalues and eigenvectors, the rank-1 mask
    (smaller eigenvalue at most MARGINAL_RANK_TOL) and the (N, 4, dA, dA)
    images R_mu = Lambda(sigma_mu) = Tr_B[rho (I x W sigma_mu^T W^dagger)],
    W = V lam^{-1/2}, of an (N, 2dA, 2dA) stack. Rank-1 members get W = V.

    By cyclicity on B, R_mu[a, c] = sum_ji F[aj, ci] sigma_mu[j, i] with
    F = (I x W)^dagger rho (I x W): the right factor as one batched product,
    the left one as multiply-adds over B's two rows, written in (a, c, j, i)
    order, then one GEMM with the Paulis.
    """
    n = len(matrices)
    lam, vecs = np.linalg.eigh(partial_trace(matrices, (d_a, 2), "B"))
    lam, vecs = lam[:, ::-1], vecs[:, :, ::-1]
    pure = lam[:, 1] <= MARGINAL_RANK_TOL
    w = vecs / np.sqrt(np.where(pure[:, None], 1.0, lam) if pure.any() else lam)[:, None, :]
    right = (matrices.reshape(n, -1, 2) @ w).reshape(n, d_a, 2, d_a, 1, 2)
    left = w.conj()[:, None, :, None, :, None]  # conj(W[j', j]) at [n, ., j', ., j, .]
    framed = left[:, :, 0] * right[:, :, 0] + left[:, :, 1] * right[:, :, 1]
    images = (framed.reshape(-1, 4) @ SIGMAS.reshape(4, 4).T).reshape(n, d_a, d_a, 4)
    return lam, vecs, pure, images.transpose(0, 3, 1, 2)


def _gram(images: np.ndarray) -> np.ndarray:
    """The (N, 3, 3) G_kl = Re Tr(R_k R_l), k, l = 1..3, of (N, 4, dA, dA)
    images, as V V^T over the (N, 3, 2 dA^2) real view V of R_1..R_3: for
    Hermitian R_l, Re Tr(R_k R_l) is the dot product of the real views.
    An einsum, not ``@``: numpy hands ``v @ v^T`` to BLAS, whose buffers
    raised the peak RSS of a sweep and of ``compute --da 640`` by 0.25 MB."""
    v = np.ascontiguousarray(images[:, 1:]).view(float).reshape(len(images), 3, -1)
    return np.einsum("nkp,nlp->nkl", v, v)


def _rebuilt_states(extracted) -> np.ndarray:
    """Each state of a stack rebuilt from the images that I2_cc read, the
    ``_extract_images`` tuple that ``linear_cc_batch`` returns:
    Lambda(|i><j|) = sum_mu <j|sigma_mu|i>/2 R_mu, and
    rho = sum_ij sqrt(lam_i lam_j) Lambda(|i><j|) x |phi_i><phi_j|, an
    (N, 2dA, 2dA) stack. Summed over mu first, that is
    rho = sum_mu R_mu x C_mu with C_mu = F sigma_mu^T F^dagger / 2 and
    F = V lam^{1/2}, whose 2x2 C_mu are sums of the outer products of F's
    columns. Both steps run with the member axis last, so that each product
    runs over the stack rather than over 2 entries. NaN where rho_B is
    rank-1 and the channel is undefined."""
    lam, vecs, pure, images = extracted
    n, d_a = images.shape[0], images.shape[-1]
    frame = vecs * np.sqrt(np.where(pure[:, None], 1.0, lam) / 2.0)[:, None, :]
    f = frame.transpose(2, 1, 0).copy()  # f[i] = F's column i / sqrt 2, member axis last
    g = f.conj()
    p00, p11 = f[0, :, None] * g[0], f[1, :, None] * g[1]  # p_ij = f_i f_j^dagger
    p01, p10 = f[0, :, None] * g[1], f[1, :, None] * g[0]
    blocks = np.stack((p00 + p11, p01 + p10, 1j * (p01 - p10), p00 - p11))  # C_mu
    out = np.einsum("macn,mbdn->abcdn", images.transpose(1, 2, 3, 0).copy(), blocks)
    out = out.reshape(2 * d_a, 2 * d_a, n).transpose(2, 0, 1)
    out[pure] = np.nan
    return out


def linear_cc_batch(rho: DensityMatrix):
    """I2_cc of a stack of dA x 2 states, with no generator basis, and the
    ``_extract_images`` tuple it read (lam, vecs, pure, images), whose lam
    holds the descending eigenvalues of each rho_B: one eigensystem per state.

    With G_kl = Re Tr(R_k R_l) = (8/d^2) (L^T L)_kl, I2_cc reads
    lam_max(G) S2(rho_B) / 2, and S2(rho_B) = 4 lam_0 lam_1. G is V V^T
    over the real view V of the Hermitian R_1..R_3 (``_gram``), so it is
    exactly symmetric. A rank-1 rho_B
    (smaller eigenvalue at most MARGINAL_RANK_TOL) gives 0, since
    S2(rho_B) = 0 and the channel is undefined there.
    The jump there is small: d-level Bloch vectors have |r|^2 <= d(d-1)/2,
    so I2_cc <= (2(d-1)/d) S2(rho_B), and S2(rho_B) = 4 eps (1 - eps) for the
    smaller eigenvalue eps; under 8e-10 at any d = dA, 4e-10 for two qubits.
    The same bound gives exactly 0 at dA = 1, where A has no Bloch vector, so
    that case reads 0, not the rounding noise of its 1x1 images.
    """
    extracted = _extract_images(rho.matrix, rho.dim_a)
    lam, _, pure, images = extracted
    lam_max = np.linalg.eigvalsh(_gram(images))[:, -1]
    return np.where(pure | (rho.dim_a == 1), 0.0, 2.0 * lam_max * lam[:, 0] * lam[:, 1]), extracted


def linear_classical_correlation(rho: DensityMatrix):
    """Linear-entropy classical correlation of a dx2 state of any rank; a float
    for one state, an array for a stack."""
    return _unstack(rho, linear_cc_batch(_stack_of(rho))[0])
