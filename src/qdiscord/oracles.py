"""Brute-force reference values, independent of the closed forms.

Two oracles live here. The projective oracle maximizes the entropy drop of A
over two-outcome projective measurements on the qubit B, a lower bound on the
POVM-defined classical correlation. The decomposition oracle maximizes the
linear-entropy objective over sampled pure-state decompositions of rho_B
pushed through the extracted channel, a lower bound that the aligned
two-point decomposition brings up to the closed-form value.

Both log their convergence at DEBUG through the ``qdiscord.oracles`` logger.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelBloch, bloch_state, extract_channel, gell_mann_basis
from .linalg import EIGENVALUE_CLAMP, PAULIS, partial_trace
from .measures import linear_entropy, mutual_information
from .states import DensityMatrix, one_state, trial_seed

_log = logging.getLogger(__name__)

# The 5x5 refinement window in units of its half-width, ordered by ring: the
# centre first, so that ties keep a start in place, and the border last.
_WINDOW = np.array(sorted(
    itertools.product(np.linspace(-1.0, 1.0, 5), repeat=2),
    key=lambda step: max(abs(step[0]), abs(step[1])),
))
_ON_BORDER = np.abs(_WINDOW).max(axis=1) == 1.0


@dataclass(frozen=True)
class GridSpec:
    """Search schedule for the projective oracle.

    The coarse grid must be at least 64 x 32 in (theta, phi); its best
    ``refine_starts`` cells are refined in lockstep until every search
    window is below ``angle_tol`` radians, or for at most ``max_rounds``
    rounds.
    """

    n_theta: int = 64
    n_phi: int = 32
    refine_starts: int = 5
    max_rounds: int = 60
    angle_tol: float = 1e-10

    def __post_init__(self):
        if self.n_theta < 64 or self.n_phi < 32:
            raise ValueError(f"grid {self.n_theta}x{self.n_phi} below the 64x32 floor")
        if self.refine_starts < 1:
            raise ValueError(f"refine_starts must be at least 1, got {self.refine_starts}")
        if not (math.isfinite(self.angle_tol) and self.angle_tol > 0.0):
            raise ValueError(f"angle_tol must be positive and finite, got {self.angle_tol}")


def measurement_projectors(theta: float, phi: float):
    """Two-outcome projectors (I +- n.sigma)/2 along the (theta, phi) direction."""
    n = np.array(
        [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
    )
    plus = (np.eye(2, dtype=complex) + sum(n[k] * PAULIS[k] for k in range(3))) / 2.0
    return plus, np.eye(2, dtype=complex) - plus


def _batched_entropy(matrices: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Entropies of unnormalized conditional states, zero where prob vanishes.

    2x2 conditionals take their eigenvalues from trace and determinant,
    tr/2 +- sqrt(tr^2/4 - det) written as mean +- sqrt(((a-d)/2)^2 + |b|^2);
    larger ones go through eigvalsh.
    """
    safe = np.where(probs > 1e-15, probs, 1.0)
    normalized = matrices / safe[:, None, None]
    if normalized.shape[-1] == 2:
        a, d = normalized[:, 0, 0].real, normalized[:, 1, 1].real
        mean = 0.5 * (a + d)
        radius = np.sqrt(0.25 * (a - d) ** 2 + np.abs(normalized[:, 1, 0]) ** 2)
        lam = np.column_stack([mean - radius, mean + radius])
    else:
        lam = np.linalg.eigvalsh(normalized)
    lam = np.where(lam > EIGENVALUE_CLAMP, lam, 1.0)
    ent = -np.sum(lam * np.log2(lam), axis=1)
    return np.where(probs > 1e-15, ent, 0.0)


def _measurement_response(rho: DensityMatrix):
    """Operators T_0, T_k whose sums (T_0 +- n.T)/2 have the conditional spectra.

    Without a frame, T_0 = Tr_B[rho] and T_k = Tr_B[rho (I x sigma_k)], so
    (T_0 +- n.T)/2 is the conditional state Tr_B[rho (I x (I +- n.sigma)/2)].
    When rho has k < dA eigenvalues above EIGENVALUE_CLAMP, rho is written as
    G G^dagger with G = V sqrt(Lambda) (2dA x k) and T_0 = G^dagger G,
    T_k = G^dagger (I x sigma_k) G: the k x k matrix G^dagger (I x Pi) G has
    the trace and the nonzero spectrum of the conditional state
    (I x <n|) G G^dagger (I x |n>), so every entropy is unchanged while a
    rank-2 state at any dA gets 2x2 conditionals. Eigenvalues at or below
    the cut are left out of G.
    """
    d_a = rho.dim_a
    lam, vectors = np.linalg.eigh(rho.matrix)
    kept = lam > EIGENVALUE_CLAMP
    if np.count_nonzero(kept) < d_a:
        g = (vectors[:, kept] * np.sqrt(lam[kept])).reshape(d_a, 2, -1)
        t_unit = np.einsum("abi,abj->ij", g.conj(), g)
        t_pauli = np.einsum("abi,kbc,acj->kij", g.conj(), np.stack(PAULIS), g)
        return t_unit, t_pauli
    r = rho.matrix.reshape(d_a, 2, d_a, 2)
    t_unit = np.einsum("abcb->ac", r)
    t_pauli = np.stack([np.einsum("abcd,db->ac", r, s) for s in PAULIS])
    return t_unit, t_pauli


def _entropy_drop_batch(t_unit, t_pauli, s_a, directions: np.ndarray) -> np.ndarray:
    """Objective S(rho_A) - sum_i p_i S(rho_A^i) for a batch of directions."""
    cond_plus = 0.5 * (
        t_unit[None, :, :] + np.einsum("nk,kij->nij", directions, t_pauli)
    )
    p_plus = np.einsum("naa->n", cond_plus).real
    cond_minus = t_unit[None, :, :] - cond_plus
    p_minus = 1.0 - p_plus
    return (
        s_a
        - p_plus * _batched_entropy(cond_plus, p_plus)
        - p_minus * _batched_entropy(cond_minus, p_minus)
    )


def _directions(angles: np.ndarray) -> np.ndarray:
    """Unit vectors for an (M, 2) array of (theta, phi) rows."""
    st = np.sin(angles[:, 0])
    return np.column_stack(
        [st * np.cos(angles[:, 1]), st * np.sin(angles[:, 1]), np.cos(angles[:, 0])]
    )


def projective_classical_correlation(rho: DensityMatrix, grid: GridSpec = None) -> float:
    """Best entropy drop of A over two-outcome projective measurements on B.

    A coarse grid scan picks the best cells. All of them are then refined in
    lockstep: each round evaluates a 5x5 (theta, phi) window around every
    start in one batch and re-centres each start on its best point. A start
    whose best point lies inside its window halves the window; one whose
    best point lies on the border moves on at the same width. Every
    evaluated value is the entropy drop of a real measurement, so the
    maximum over all of them, coarse grid included, is a lower bound on the
    POVM maximum up to the mass below EIGENVALUE_CLAMP: conditional
    eigenvalues at or below the cut count as zero, and a state with fewer
    than dA eigenvalues above it is searched in its rank-k frame (see
    ``_measurement_response``), which leaves out its eigenvalues below the
    cut. Each left-out eigenvalue lam moves the value by at most about
    -lam log2 lam, 4e-11 at lam = 1e-12.
    """
    if one_state(rho, "the projective oracle").dim_b != 2:
        raise ValueError(f"measurement side B must be a qubit, got dims {rho.dims}")
    grid = grid or GridSpec()
    t_unit, t_pauli = _measurement_response(rho)
    lam_a = np.linalg.eigvalsh(partial_trace(rho.matrix, rho.dims, "A"))
    lam_a = lam_a[lam_a > EIGENVALUE_CLAMP]
    s_a = float(-np.sum(lam_a * np.log2(lam_a))) + 0.0

    thetas = (np.arange(grid.n_theta) + 0.5) * math.pi / grid.n_theta
    phis = (np.arange(grid.n_phi) + 0.5) * 2.0 * math.pi / grid.n_phi
    points = np.stack(np.meshgrid(thetas, phis, indexing="ij"), axis=-1).reshape(-1, 2)
    values = _entropy_drop_batch(t_unit, t_pauli, s_a, _directions(points))
    best = float(np.max(values))

    centres = points[np.argsort(values)[::-1][: grid.refine_starts]]
    width = np.tile([math.pi / grid.n_theta, 2.0 * math.pi / grid.n_phi], (len(centres), 1))
    rounds = 0
    while rounds < grid.max_rounds and width.max() >= grid.angle_tol:
        local = centres[:, None, :] + _WINDOW * width[:, None, :]
        values = _entropy_drop_batch(t_unit, t_pauli, s_a, _directions(local.reshape(-1, 2)))
        pick = np.argmax(values.reshape(len(centres), len(_WINDOW)), axis=1)
        centres = local[np.arange(len(centres)), pick]
        best = max(best, float(np.max(values)))
        width = np.where(_ON_BORDER[pick, None], width, width / 2.0)
        rounds += 1
    if _log.isEnabledFor(logging.DEBUG):
        # The value at a start never falls, so the best one ends at a centre.
        at_centres = _entropy_drop_batch(t_unit, t_pauli, s_a, _directions(centres))
        theta, phi = centres[np.argmax(at_centres)]
        _log.debug(
            "projective: rounds=%d directions=%d frame=%d best=%.17g theta=%.17g phi=%.17g",
            rounds, len(points) + rounds * len(centres) * len(_WINDOW),
            t_unit.shape[0], best, theta, phi,
        )
    return best


def projective_discord(rho: DensityMatrix, grid: GridSpec = None) -> float:
    """Mutual information minus the projective oracle; upper-bounds the discord."""
    return mutual_information(rho) - projective_classical_correlation(rho, grid)


def _chords(r_b: np.ndarray, directions: np.ndarray):
    """Two-point decompositions along chords of the Bloch sphere through r_b.

    ``r_b`` is one point (3,) or one point per chord (N, 3); ``directions``
    is (N, 3), of any nonzero length. Returns the (N, 2) probabilities and
    the (N, 2, 3) unit Bloch vectors where each chord meets the sphere.
    """
    e = directions / np.linalg.norm(directions, axis=-1, keepdims=True)
    b = np.sum(r_b * e, axis=-1)
    disc = np.sqrt(np.maximum(b * b + 1.0 - np.sum(r_b * r_b, axis=-1), 0.0))
    t = np.stack([-b + disc, -b - disc], axis=-1)
    p_plus = -t[:, 1] / (t[:, 0] - t[:, 1])
    probabilities = np.stack([p_plus, 1.0 - p_plus], axis=-1)
    return probabilities, r_b[..., None, :] + t[..., None] * e[:, None, :]


def _sampled_decompositions(r_b: np.ndarray, trials: int, seed: int):
    """Random pure-state decompositions of the marginal, ``trials`` per size.

    Returns one (probabilities, bloch_vectors) pair per size 2, 3 and 4, of
    shapes (trials, size) and (trials, size, 3). Each size draws its chord
    directions from the normal stream ``trial_seed(seed, size, 0)`` and, for
    sizes 3 and 4, its weights from the uniform stream
    ``trial_seed(seed, size, 1)``, one row per trial, so the first n rows do
    not depend on ``trials``. Size 2 is a chord through r_b; size 3 puts
    weight p1 in [0, (1 - |r_b|)/2) on a random pure state and splits the
    rest along a chord; size 4 mixes two chords with a weight in [0.2, 0.8).
    """
    def normal(size, count):
        return np.random.default_rng(trial_seed(seed, size, 0)).standard_normal((trials, count, 3))

    def uniform(size):
        return np.random.default_rng(trial_seed(seed, size, 1)).uniform(size=trials)

    pair = _chords(r_b, normal(2, 1)[:, 0])

    n3 = normal(3, 2)
    u = n3[:, 0] / np.linalg.norm(n3[:, 0], axis=1, keepdims=True)
    p1 = uniform(3) * (1.0 - float(np.linalg.norm(r_b))) / 2.0
    rest_p, rest_v = _chords((r_b - p1[:, None] * u) / (1.0 - p1[:, None]), n3[:, 1])
    triple = (
        np.column_stack([p1, (1.0 - p1[:, None]) * rest_p]),
        np.concatenate([u[:, None, :], rest_v], axis=1),
    )

    probs, vectors = _chords(r_b, normal(4, 2).reshape(-1, 3))
    weight = 0.2 + 0.6 * uniform(4)
    quad = (
        probs.reshape(trials, 4) * np.repeat(np.column_stack([weight, 1.0 - weight]), 2, axis=1),
        vectors.reshape(trials, 4, 3),
    )
    return [pair, triple, quad]


def aligned_decomposition(ch: ChannelBloch):
    """Chord along the top eigenvector of L^T L, which attains the closed form.

    Returns (1, 2) probabilities and (1, 2, 3) Bloch vectors, a batch of one.
    """
    gram = ch.linear_part.T @ ch.linear_part
    _, vectors = np.linalg.eigh(gram)
    lam = ch.marginal_eigenvalues
    r_b = np.array([0.0, 0.0, float(lam[0] - lam[1])])
    return _chords(r_b, vectors[None, :, -1])


def _decomposition_objectives(ch: ChannelBloch, r_b: np.ndarray, probabilities, vectors):
    """S2 of the mixed output minus the average S2 of the pure-input outputs,
    one value per decomposition of an (N, size) / (N, size, 3) batch.

    Outputs of every decomposition element are reconstructed together as an
    (N * size, d, d) stack of density matrices and fed to the linear-entropy
    function, rather than using the Bloch-norm shortcut.
    """
    basis = gell_mann_basis(ch.output_dim)
    mixed = linear_entropy(bloch_state(ch.linear_part @ r_b + ch.offset, basis))
    outputs = vectors.reshape(-1, 3) @ ch.linear_part.T + ch.offset
    pure = linear_entropy(bloch_state(outputs, basis))
    return mixed - np.sum(probabilities * pure.reshape(probabilities.shape), axis=1)


def decomposition_linear_cc(rho: DensityMatrix, trials: int = 200, seed: int = 0) -> float:
    """Supremum of the linear-entropy objective over sampled decompositions.

    Includes the deterministic aligned chord, so the value matches the closed
    form to within rounding; ``trials`` random 2-, 3- and 4-element
    decompositions are drawn from per-size streams (see
    ``_sampled_decompositions``), so larger trial counts extend smaller ones.
    """
    ch = extract_channel(one_state(rho, "the decomposition oracle"))
    lam = ch.marginal_eigenvalues
    r_b = np.array([0.0, 0.0, float(lam[0] - lam[1])])
    aligned = float(_decomposition_objectives(ch, r_b, *aligned_decomposition(ch))[0])
    sampled = max(
        float(np.max(_decomposition_objectives(ch, r_b, *dec), initial=-math.inf))
        for dec in _sampled_decompositions(r_b, trials, seed)
    )
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "decomposition: candidates=%d aligned_won=%s best=%.17g",
            1 + 3 * trials, aligned >= sampled, max(aligned, sampled),
        )
    return max(aligned, sampled)
