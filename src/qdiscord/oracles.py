"""Brute-force reference values, independent of the closed forms.

Two oracles live here. The projective oracle maximizes the entropy drop of A
over two-outcome projective measurements on the qubit B, a lower bound on the
POVM-defined classical correlation. The decomposition oracle maximizes the
linear-entropy objective over sampled pure-state decompositions of rho_B
pushed through the extracted channel, a lower bound that the aligned
two-point decomposition brings up to the closed-form value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelBloch, bloch_state, extract_channel, gell_mann_basis
from .linalg import EIGENVALUE_CLAMP, PAULIS
from .measures import linear_entropy, mutual_information
from .states import DensityMatrix, trial_seed

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


@dataclass(frozen=True)
class Decomposition:
    """Pure-state decomposition of a qubit marginal, as Bloch vectors."""

    probabilities: np.ndarray
    bloch_vectors: np.ndarray


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
    """Precompute Tr_B[rho (I x sigma_k)] so conditionals are linear in n."""
    d_a = rho.dim_a
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
    maximum over all of them, coarse grid included, is a certified lower
    bound on the POVM maximum.
    """
    if rho.dim_b != 2:
        raise ValueError(f"measurement side B must be a qubit, got dims {rho.dims}")
    grid = grid or GridSpec()
    t_unit, t_pauli = _measurement_response(rho)
    lam_a = np.linalg.eigvalsh(t_unit).real
    lam_a = lam_a[lam_a > EIGENVALUE_CLAMP]
    s_a = float(-np.sum(lam_a * np.log2(lam_a))) + 0.0

    thetas = (np.arange(grid.n_theta) + 0.5) * math.pi / grid.n_theta
    phis = (np.arange(grid.n_phi) + 0.5) * 2.0 * math.pi / grid.n_phi
    points = np.stack(np.meshgrid(thetas, phis, indexing="ij"), axis=-1).reshape(-1, 2)
    values = _entropy_drop_batch(t_unit, t_pauli, s_a, _directions(points))
    best = float(np.max(values))

    centres = points[np.argsort(values)[::-1][: grid.refine_starts]]
    width = np.tile([math.pi / grid.n_theta, 2.0 * math.pi / grid.n_phi], (len(centres), 1))
    for _ in range(grid.max_rounds):
        if width.max() < grid.angle_tol:
            break
        local = centres[:, None, :] + _WINDOW * width[:, None, :]
        values = _entropy_drop_batch(t_unit, t_pauli, s_a, _directions(local.reshape(-1, 2)))
        pick = np.argmax(values.reshape(len(centres), len(_WINDOW)), axis=1)
        centres = local[np.arange(len(centres)), pick]
        best = max(best, float(np.max(values)))
        width = np.where(_ON_BORDER[pick, None], width, width / 2.0)
    return best


def projective_discord(rho: DensityMatrix, grid: GridSpec = None) -> float:
    """Mutual information minus the projective oracle; upper-bounds the discord."""
    return mutual_information(rho) - projective_classical_correlation(rho, grid)


def _chord(r_b: np.ndarray, direction: np.ndarray) -> Decomposition:
    """Two-point decomposition along a chord of the Bloch sphere through r_b."""
    e = direction / np.linalg.norm(direction)
    b = float(np.dot(r_b, e))
    disc = math.sqrt(max(b * b + 1.0 - float(np.dot(r_b, r_b)), 0.0))
    t_plus, t_minus = -b + disc, -b - disc
    p_plus = -t_minus / (t_plus - t_minus)
    return Decomposition(
        probabilities=np.array([p_plus, 1.0 - p_plus]),
        bloch_vectors=np.stack([r_b + t_plus * e, r_b + t_minus * e]),
    )


def _mix(first: Decomposition, second: Decomposition, weight: float) -> Decomposition:
    return Decomposition(
        probabilities=np.concatenate(
            [weight * first.probabilities, (1.0 - weight) * second.probabilities]
        ),
        bloch_vectors=np.vstack([first.bloch_vectors, second.bloch_vectors]),
    )


def _random_unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_decomposition(r_b: np.ndarray, size: int, rng) -> Decomposition:
    """Random pure-state decomposition of the marginal with 2, 3 or 4 elements."""
    if size == 2:
        return _chord(r_b, _random_unit(rng))
    if size == 3:
        u = _random_unit(rng)
        p1 = rng.uniform(0.0, 1.0) * (1.0 - float(np.linalg.norm(r_b))) / 2.0
        rest = _chord((r_b - p1 * u) / (1.0 - p1), _random_unit(rng))
        return Decomposition(
            probabilities=np.concatenate([[p1], (1.0 - p1) * rest.probabilities]),
            bloch_vectors=np.vstack([u, rest.bloch_vectors]),
        )
    if size == 4:
        first = _chord(r_b, _random_unit(rng))
        second = _chord(r_b, _random_unit(rng))
        return _mix(first, second, rng.uniform(0.2, 0.8))
    raise ValueError(f"decomposition size {size} not in {{2, 3, 4}}")


def aligned_decomposition(ch: ChannelBloch) -> Decomposition:
    """Chord along the top eigenvector of L^T L, which attains the closed form."""
    gram = ch.linear_part.T @ ch.linear_part
    _, vectors = np.linalg.eigh(gram)
    top = vectors[:, -1]
    lam = ch.marginal_eigenvalues
    r_b = np.array([0.0, 0.0, float(lam[0] - lam[1])])
    return _chord(r_b, top)


def _decomposition_objectives(ch: ChannelBloch, r_b: np.ndarray, decomps) -> np.ndarray:
    """S2 of the mixed output minus the average S2 of the pure-input outputs,
    one value per decomposition.

    Outputs of every decomposition element are reconstructed together as an
    (N, d, d) stack of density matrices and fed to the linear-entropy
    function, rather than using the Bloch-norm shortcut.
    """
    basis = gell_mann_basis(ch.output_dim)
    probs = np.concatenate([dec.probabilities for dec in decomps])
    vectors = np.concatenate([dec.bloch_vectors for dec in decomps])
    owner = np.repeat(np.arange(len(decomps)), [len(dec.probabilities) for dec in decomps])
    mixed = linear_entropy(bloch_state(ch.linear_part @ r_b + ch.offset, basis))
    pure = linear_entropy(bloch_state(vectors @ ch.linear_part.T + ch.offset, basis))
    return mixed - np.bincount(owner, weights=probs * pure, minlength=len(decomps))


def decomposition_linear_cc(rho: DensityMatrix, trials: int = 200, seed: int = 0) -> float:
    """Supremum of the linear-entropy objective over sampled decompositions.

    Includes the deterministic aligned chord, so the value matches the closed
    form to within rounding; random 2-, 3- and 4-element decompositions are
    drawn from per-(size, trial) substreams so larger trial counts extend
    smaller ones.
    """
    ch = extract_channel(rho)
    lam = ch.marginal_eigenvalues
    r_b = np.array([0.0, 0.0, float(lam[0] - lam[1])])
    decomps = [aligned_decomposition(ch)] + [
        random_decomposition(r_b, size, np.random.default_rng(trial_seed(seed, size, t)))
        for size in (2, 3, 4)
        for t in range(trials)
    ]
    return float(np.max(_decomposition_objectives(ch, r_b, decomps)))
