import functools
import itertools
import math
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


def reference_h(x):
    """Binary entropy in bits, from raw math."""
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def reference_f(x):
    """The paper's f(x) = h((1 + sqrt(1 - x))/2), from raw math."""
    return reference_h((1 + math.sqrt(1 - x)) / 2)


def measurement_projectors(theta, phi):
    """Two-outcome projectors (I +- n.sigma)/2 along the (theta, phi) direction."""
    from qdiscord.linalg import PAULIS

    n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    plus = (np.eye(2, dtype=complex) + sum(n_k * p for n_k, p in zip(n, PAULIS))) / 2.0
    return plus, np.eye(2, dtype=complex) - plus


def stack_of(*states):
    """One stack of the members of ``states`` (states or stacks of one dims),
    validated again as a whole."""
    from qdiscord.states import DensityMatrix

    return DensityMatrix(states[0].dims, np.concatenate([rho[:].matrix for rho in states]))


# A Gell-Mann basis and Bloch-channel reference built from the paper's
# definition of the hidden channel, independent of the package's reading of it.


@functools.cache
def gell_mann(d):
    """Generalized Gell-Mann generators of SU(d), Tr(g_a g_b) = 2 delta_ab: the
    symmetric, then the antisymmetric off-diagonal ones, then the diagonal
    ones; (sigma_x, sigma_y, sigma_z) at d=2."""
    mats = []
    for j, k in itertools.combinations(range(d), 2):
        sym = np.zeros((d, d), dtype=complex)
        sym[j, k] = sym[k, j] = 1.0
        mats.append(sym)
    for j, k in itertools.combinations(range(d), 2):
        anti = np.zeros((d, d), dtype=complex)
        anti[j, k], anti[k, j] = -1.0j, 1.0j
        mats.append(anti)
    for level in range(1, d):
        diag = np.concatenate([np.ones(level), [-level], np.zeros(d - level - 1)])
        mats.append(np.sqrt(2.0 / (level * (level + 1))) * np.diag(diag).astype(complex))
    return np.stack(mats)


def bloch(matrix):
    """Coefficients r with matrix = (Tr(matrix) I + r . gamma)/d, r_m = d/2 Tr(matrix g_m),
    over the last two axes of a (..., d, d) array."""
    m = np.asarray(matrix, dtype=complex)
    d = m.shape[-1]
    return 0.5 * d * np.einsum("...ij,mji->...m", m, gell_mann(d)).real


def from_bloch(r, d):
    """(I + r . gamma)/d, the inverse of ``bloch`` on unit-trace matrices."""
    return (np.eye(d) + np.tensordot(r, gell_mann(d), axes=1)) / d


def bloch_channel(rho):
    """(L, l) of the channel of a dA x 2 state, from the paper's definition
    Lambda(X) = Tr_B[rho (I x rho_B^{-1/2} X^T rho_B^{-1/2})] in the
    computational frame of B: Lambda((I + r . sigma)/2) = (I + (L r + l) . gamma)/d.
    Frame-free readings (singular values of L, the offset l) match any other
    frame's. rho_B must have full rank."""
    from qdiscord.linalg import SIGMAS

    d_a = rho.dims[0]
    m = rho.matrix.reshape(d_a, 2, d_a, 2)
    lam, v = np.linalg.eigh(np.einsum("abad->bd", m))
    root = (v / np.sqrt(lam)) @ v.conj().T
    images = [np.einsum("abcd,db->ac", m, root @ s.T @ root) for s in SIGMAS]
    coefficients = np.stack([bloch(image) / 2.0 for image in images])
    return coefficients[1:].T, coefficients[0]


def bloch_i2_cc(rho):
    """The paper's I2_cc = (4/d^2) lam_max(L^T L) S2(rho_B), from ``bloch_channel``."""
    from qdiscord.measures import linear_entropy

    d = rho.dims[0]
    linear_part, _ = bloch_channel(rho)
    lam_max = np.linalg.eigvalsh(linear_part.T @ linear_part)[-1]
    rho_b = np.einsum("abad->bd", rho.matrix.reshape(d, 2, d, 2))
    return 4.0 / (d * d) * lam_max * linear_entropy(rho_b)


def marginal_eigenframe(rho):
    """rho_B's descending eigenvalues, and rho with B written in the basis of its
    eigenvectors, taken as the package takes them; its computational frame is
    the eigenframe the package and the oracles read the channel in."""
    from qdiscord.linalg import partial_trace
    from qdiscord.states import DensityMatrix

    lam, vecs = np.linalg.eigh(partial_trace(rho.matrix, rho.dims, "B"))
    lam, vecs = lam[::-1], vecs[:, ::-1]
    frame = np.kron(np.eye(rho.dims[0]), vecs)
    return lam, DensityMatrix(rho.dims, frame.conj().T @ rho.matrix @ frame)


def purified_tangle_reference(rho):
    """tau(rho_AC) of one rank-<=2 two-qubit state, from the textbook route: the
    purification psi[a, b, c] = sqrt(lam_c) v_c[a, b] on the top two eigenpairs
    (weight 0 at or below RANK_TOL), rho_AC = Tr_B |psi><psi|, and Wootters'
    C = max(0, s_1 - s_2 - s_3 - s_4) with s_i the square roots of the
    eigenvalues of rho_AC (YxY) rho_AC* (YxY), in descending order.

    rho_AC has rank 2, and in double precision the square roots of its two
    zero spin-flip eigenvalues read about 1e-8; so rho_AC and its spin-flip
    spectrum are computed in 40-digit arithmetic from the double psi."""
    import mpmath

    from qdiscord.discord import RANK_TOL

    lam, vecs = np.linalg.eigh(rho.matrix)
    lam, vecs = lam[:-3:-1], vecs[:, :-3:-1]
    lam = np.where(lam > RANK_TOL, lam, 0.0)
    psi = (vecs * np.sqrt(lam)).reshape(2, 2, 2)
    psi = psi / np.linalg.norm(psi)
    with mpmath.workdps(40):
        entries = [[sum(mpmath.mpc(psi[a, b, c]) * mpmath.conj(mpmath.mpc(psi[x, b, z]))
                        for b in range(2))
                    for x, z in itertools.product(range(2), repeat=2)]
                   for a, c in itertools.product(range(2), repeat=2)]
        rho_ac = mpmath.matrix(entries)
        spin_flip = mpmath.matrix(np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]).tolist())
        product = rho_ac * spin_flip * rho_ac.conjugate() * spin_flip
        eigenvalues = mpmath.eig(product, left=False, right=False)
        s = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in eigenvalues), reverse=True)
        return float(max(s[0] - s[1] - s[2] - s[3], 0) ** 2)


def luo_classical_correlation(c):
    """Luo's classical correlation of the Bell-diagonal state
    (I + sum_i c_i sigma_i x sigma_i)/4 (Phys. Rev. A 77, 042303, 2008):
    ((1-c)/2) log2(1-c) + ((1+c)/2) log2(1+c) with c = max |c_i|, reached by
    a projective measurement along the axis of the largest |c_i|."""
    c = max(abs(float(v)) for v in c)
    return sum(w * math.log2(2.0 * w) for w in ((1.0 - c) / 2.0, (1.0 + c) / 2.0) if w > 0.0)


def bell_diagonal_c(weights):
    """(c1, c2, c3) of the Bell-diagonal state with the Bell weights of
    ``make_bell_diagonal``, in its order."""
    w1, w2, w3, w4 = weights
    return w1 - w2 + w3 - w4, -w1 + w2 + w3 - w4, w1 + w2 - w3 - w4
