"""Brute-force reference values, independent of the closed forms.

Two oracles live here; neither imports the closed forms or the channel
extraction, and both read the conditional states of A as Tr_B[rho (I x O)].
Both enter through ``states._stack_of``, which requires B to be a qubit, and
one state is a batch of one, so a member of a stack gets the value of its batch
of one. The projective oracle maximizes the entropy drop of A over two-outcome
projective measurements on the qubit B, a lower bound on the POVM-defined
classical correlation, on a fixed schedule: a coarse grid over the half
sphere, since the measurement along -n is the one along n with its outcomes
swapped, a few window rounds from its best cell, a ridge scan and a few Newton
steps. The decomposition oracle maximizes the linear-entropy drop of A over
the rank-1 POVMs on B of sampled pure-state decompositions of rho_B, a lower
bound that the aligned two-point decomposition brings up to the closed-form
value; each member of a stack draws its samples from its own seed.

Each oracle call batches its work by stage, not by member. The projective
search scores each stage for every state of one frame size in one call, apart
from the coarse scan, which takes one call per state; the stages only record
what they score, and the best is read from all of it where it is needed. The
decomposition oracle writes each of its candidates, the aligned chord, the
sampled pairs and the sampled triples, as one three-element decomposition: it
turns every member's draw into normals in one ``box_muller`` call, builds
every candidate's chord in one ``_chords`` call, into arrays allocated once,
and scores every candidate in one ``_linear_entropy_drops`` call. It builds
its own images R_mu of the POVM on B and reads them only through their real
4x4 Gram G_mu,nu = Re Tr(R_mu R_nu): an outcome at Bloch vector r leaves A in
(R_0 + r.R)/2, whose linear entropy is 2 - [1, r] G [1, r]^T / 2, so scoring
builds no conditional state and costs the same at any dA. The scores are
elementwise multiply-adds, so a candidate scores the same bits whatever else
shares its call.

Both log their convergence at DEBUG through the ``qdiscord.oracles`` logger,
one line per member.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
from collections.abc import Sequence

import numpy as np

from .errors import DegenerateMarginal, DimensionMismatch, OutOfDomain
from .linalg import EIGENVALUE_CLAMP, SIGMAS, _partial_trace
from .measures import spectral_entropy
from .states import (MARGINAL_RANK_TOL, DensityMatrix, _stack_of, _unstack, box_muller, philox,
                     philox_key)

_log = logging.getLogger(__name__)

# The 5x5 refinement window in units of its half-width, ordered by ring: the
# centre first, so that ties keep the centre in place, and the border last.
_WINDOW = np.array(sorted(
    itertools.product(np.linspace(-1.0, 1.0, 5), repeat=2),
    key=lambda step: max(abs(step[0]), abs(step[1])),
))
# The factor on a window's width when the round's best point is this one: a
# point on the border moves the window on at the same width, any other
# halves it.
_WIDTH_FACTOR = np.where(np.abs(_WINDOW).max(axis=1) == 1.0, 1.0, 0.5)

# The projective search schedule, the same for every state: the best cell
# of the theta < pi/2 half of a _N_THETA x _N_PHI (theta, phi) coarse grid is
# refined for _ROUNDS window rounds; a ridge scan of _RIDGE_POINTS - 1
# directions follows the great circle through the refined centre along its
# flattest direction; then _NEWTON_STEPS Newton steps, each read from a
# stencil of spacing _STENCIL_STEP and at most _STEP_CLIP long, all in the
# tangent frame at the best direction so far, whose units stay within 0.2% of
# radians that close. Five rounds leave the centre mostly inside the first
# step's clip (the Newton steps then move it by 1.4e-3 rad in the median and
# 1.2e-2 rad at most, over 300 random rank-2 states), and from there the
# quadratic convergence of Newton's method needs two or three steps.
#
# Newton settles where the stencil's gradient reads 0, so the gradient's
# error, h^2 / 6 times the third derivative, moves the result: at h = 1e-4 it
# left 3 of 1800 random rank-2 states, on flat ridges, short of the closed
# form by over 3e-15 and up to 2.1e-14, and at h = 6e-5 one, by 3.3e-15. The
# Hessian's rounding, about 1e-16 / h^2, grows as h shrinks and hides more of
# a near tie's flat curvature: Bell-diagonal states whose two largest |c_i|
# differ by 1e-7 read up to 4.8e-9 below Luo's value at h = 6e-5, 2.3e-9 at
# 1e-4.
_N_THETA = 64
_N_PHI = 32
_ROUNDS = 5
_RIDGE_POINTS = 128
_NEWTON_STEPS = 4
_STENCIL_STEP = 6e-5
_STEP_CLIP = 1e-2

# The Newton stencil as rows [1, h s_u, h s_v], h = _STENCIL_STEP, on a
# ``_chart`` frame's rows n, e_theta, e_phi: the centre, the four axis points,
# then the four diagonal ones. At tangent offset w = [0, w_u, w_v] it scores
# the directions normalize((_STENCIL + w) @ frame).
_STENCIL = np.column_stack([np.ones(9), _STENCIL_STEP * np.array(
    [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)])])
# Central differences: the 9 stencil values minus the centre's, times these
# weights, give (g_u, g_v, h_uu, h_vv, h_uv) at the stencil's centre.
_DIFFERENCES = np.array([
    (0, 0, 0, 0, 0),
    (1, 0, 1, 0, 0), (-1, 0, 1, 0, 0), (0, 1, 0, 1, 0), (0, -1, 0, 1, 0),
    (0, 0, 0, 0, 1), (0, 0, 0, 0, -1), (0, 0, 0, 0, -1), (0, 0, 0, 0, 1),
]) / np.array([2.0 * _STENCIL_STEP, 2.0 * _STENCIL_STEP, _STENCIL_STEP**2, _STENCIL_STEP**2,
               4.0 * _STENCIL_STEP**2])
# The ridge scan's angles from the centre; pi would repeat the centre's
# measurement with its outcomes swapped.
_RIDGE = np.arange(1, _RIDGE_POINTS) * math.pi / _RIDGE_POINTS

# Conditional probabilities at or below this count as outcomes that never
# occur: their entropy is zero rather than that of a state normalized by a
# vanishing trace, whose spectrum is rounding noise.
_PROB_FLOOR = 1e-15


def _conditionals(rho: DensityMatrix, operators: np.ndarray) -> np.ndarray:
    """Tr_B[rho (I x O_k)] for a (K, 2, 2) stack of operators O_k on B; a stack
    of N states takes an (N, K, 2, 2) stack, K operators per member."""
    r = rho.matrix.reshape(*rho.matrix.shape[:-2], rho.dim_a, 2, rho.dim_a, 2)
    return np.einsum("...abcd,...kdb->...kac", r, operators)


def _measurement_response(stack: DensityMatrix):
    """The members of a stack grouped by frame size k, in increasing k, yielded
    as (members, T) pairs: T is the (M, 4, k, k) stack of each member's T_0..3,
    whose sums (T_0 +- n.T)/2 have the conditional spectra.

    A member's k is min(rank, dA), its rank the count of ``stack.spectrum``
    above EIGENVALUE_CLAMP. At k = dA, T_0 = Tr_B[rho] and
    T_k = Tr_B[rho (I x sigma_k)], so (T_0 +- n.T)/2 is the conditional state
    Tr_B[rho (I x (I +- n.sigma)/2)]. Below it, one eigh of the group's
    members writes each as G G^dagger with G = V sqrt(Lambda) (2dA x k) and
    T_0 = G^dagger G, T_k = G^dagger (I x sigma_k) G: the k x k matrix
    G^dagger (I x Pi) G has the trace and the nonzero spectrum of the
    conditional state (I x <n|) G G^dagger (I x |n>), so every entropy is
    unchanged while a rank-2 state at any dA gets 2x2 conditionals.
    Eigenvalues at or below the cut are left out of G.
    """
    d_a = stack.dim_a
    frames = np.minimum(np.count_nonzero(stack.spectrum > EIGENVALUE_CLAMP, axis=1), d_a)
    for k in sorted(set(frames.tolist())):
        members = np.flatnonzero(frames == k)
        if k == d_a:
            yield members, _conditionals(stack[members], SIGMAS)
            continue
        lam, vectors = np.linalg.eigh(stack.matrix[members])
        # eigh sorts ascending, so the eigenvalues above the cut are the last k.
        g = vectors[:, :, -k:] * np.sqrt(lam[:, -k:])[:, None, :]
        g = g.reshape(len(members), d_a, 2, k)
        yield members, np.einsum("nabi,kbc,nacj->nkij", g.conj(), SIGMAS, g)


def _coefficients(t: np.ndarray) -> np.ndarray:
    """Real coordinates of the (G, 4, k, k) stacks T_0..3 of G states, one
    (G, 4, m) block of rows: the plus conditional (T_0 + n.T)/2 has
    coordinates ([1, n] @ coefficients)/2 and the minus one row 0 minus
    those. Column 0 is the trace. In a 2x2 frame the other three are
    (a - d)/2, Re b and Im b of [[a, b*], [b, d]], which fix its spectrum;
    in a k x k frame they are the 2k^2 entries of the matrix's real view.
    """
    trace = np.einsum("...kaa->...k", t).real
    if t.shape[-1] == 2:
        return np.stack([trace, 0.5 * (t[..., 0, 0] - t[..., 1, 1]).real, t[..., 1, 0].real,
                         t[..., 1, 0].imag], axis=-1)
    return np.concatenate([trace[..., None], t.reshape(*t.shape[:-2], -1).view(float)], axis=-1)


def _outcome_entropies(coords: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Entropies of conditional states given as ``_coefficients`` coordinates,
    each normalized by its probability; zero where the probability is at or
    below _PROB_FLOOR. Four columns are a 2x2 frame, 1 + 2k^2 a k x k one.

    A 2x2 conditional of trace p has eigenvalues 1/2 +- r with radius
    r = sqrt(((a - d)/2)^2 + |b|^2) / p; larger and 1x1 ones go through
    eigvalsh.
    """
    occurs = probs > _PROB_FLOOR
    safe = np.where(occurs, probs, 1.0)
    if coords.shape[-1] == 4:
        radius = np.sqrt(np.einsum("...i,...i->...", coords[..., 1:], coords[..., 1:])) / safe
        # 1/2 + r is at least 1/2, so only 1/2 - r can fall to the cut.
        smaller = 0.5 - radius
        kept = [np.where(smaller > EIGENVALUE_CLAMP, smaller, 1.0), 0.5 + radius]
    else:
        frame = math.isqrt(coords.shape[-1] // 2)
        normalized = coords[..., 1:] / safe[..., None]
        lam = np.linalg.eigvalsh(normalized.view(complex).reshape(*probs.shape, frame, frame))
        kept = [np.where(v > EIGENVALUE_CLAMP, v, 1.0) for v in np.moveaxis(lam, -1, 0)]
    return np.where(occurs, -sum(v * np.log2(v) for v in kept), 0.0)


def _entropy_drops(coefficients: np.ndarray, s_a: np.ndarray, directions):
    """S(rho_A) - sum_i p_i S(rho_A^i) for the (G, 4, m) ``_coefficients`` of G
    states of one frame size and a (G, M, 3) batch of directions, M per state."""
    unit = coefficients[:, None, 0]
    plus = 0.5 * (unit + directions @ coefficients[:, 1:])
    probs = np.concatenate([plus[..., 0], 1.0 - plus[..., 0]])
    entropies = _outcome_entropies(np.concatenate([plus, unit - plus]), probs)
    n = len(coefficients)
    return s_a[:, None] - probs[:n] * entropies[:n] - probs[n:] * entropies[n:]


def _directions(angles: np.ndarray) -> np.ndarray:
    """Unit vectors for an (..., 2) array of (theta, phi) rows."""
    sines, cosines = np.sin(angles), np.cos(angles)
    directions = np.empty((*angles.shape[:-1], 3))
    np.multiply(sines[..., 0], cosines[..., 1], out=directions[..., 0])
    np.multiply(sines[..., 0], sines[..., 1], out=directions[..., 1])
    directions[..., 2] = cosines[..., 0]
    return directions


# The coarse grid's cell centres with theta < pi/2 and their directions,
# shared by every search. The other half's cells are their antipodes, the
# same measurements with the outcomes swapped.
_COARSE_POINTS = np.stack(np.meshgrid((np.arange(_N_THETA // 2) + 0.5) * math.pi / _N_THETA,
                                      (np.arange(_N_PHI) + 0.5) * 2.0 * math.pi / _N_PHI,
                                      indexing="ij"), axis=-1).reshape(-1, 2)
_COARSE_DIRECTIONS = _directions(_COARSE_POINTS)[None]
# Directions evaluated by every search, 1322: the half grid, each round's
# windows, the ridge scan, one stencil at the ridge and before each Newton
# step, and the last step's end point.
_SEARCH_DIRECTIONS = (len(_COARSE_POINTS) + _ROUNDS * len(_WINDOW) + len(_RIDGE)
                      + (_NEWTON_STEPS + 1) * len(_STENCIL) + 1)


def _chart(angles: np.ndarray) -> np.ndarray:
    """(N, 3, 3) rows n, e_theta, e_phi for (N, 2) (theta, phi) rows: each
    direction and an orthonormal basis of its tangent plane, poles included:
    n = (sin t cos p, sin t sin p, cos t), e_theta = (cos t cos p,
    cos t sin p, -sin t) and e_phi = (-sin p, cos p, 0)."""
    (st, sp), (ct, cp) = np.sin(angles).T, np.cos(angles).T
    chart = np.zeros((len(angles), 3, 3))
    chart[:, 0, 0], chart[:, 0, 1], chart[:, 0, 2] = st * cp, st * sp, ct
    chart[:, 1, 0], chart[:, 1, 1], chart[:, 1, 2] = ct * cp, ct * sp, -st
    chart[:, 2, 0], chart[:, 2, 1] = -sp, cp
    return chart


def _angles(directions: np.ndarray) -> np.ndarray:
    """(theta, phi) rows of (N, 3) unit directions, phi in [0, 2 pi)."""
    angles = np.empty((len(directions), 2))
    np.arccos(np.clip(directions[:, 2], -1.0, 1.0), out=angles[:, 0])
    np.arctan2(directions[:, 1], directions[:, 0], out=angles[:, 1])
    angles[:, 1] %= 2.0 * math.pi
    return angles


def _search(coefficients: np.ndarray, s_a: np.ndarray):
    """The projective search for the (G, 4, m) ``_coefficients`` of G states of
    one frame size: each state's coarse scan of the half grid, in one call
    per state, then _ROUNDS window rounds around each state's best cell, a
    ridge scan and _NEWTON_STEPS Newton steps, each stage one call for all G
    states. Every state runs the same schedule, which evaluates
    _SEARCH_DIRECTIONS directions. The stages only record what they score;
    a state's best is the first maximum over everything scored so far, in
    scoring order, so a tie keeps the earlier direction. It is read twice:
    after the ridge scan, where the Newton steps start, and at the end.
    Returns each state's best value and the (G, 3) unit directions that gave
    them."""
    n = len(coefficients)
    rows = np.arange(n)
    tops = np.empty(n, dtype=int)
    coarse = np.empty((n, 1))
    for i in range(n):
        # One state per call: in a 2x2 frame its 1024 directions fill a 64 KiB
        # array, below glibc's 128 KiB mmap threshold, so the scan's
        # temporaries come from the heap, not from freshly faulted pages.
        values = _entropy_drops(coefficients[i:i + 1], s_a[i:i + 1], _COARSE_DIRECTIONS)[0]
        tops[i] = values.argmax()
        coarse[i] = values[tops[i]]
    # The coarse scan records only its best cell, where its first maximum lies.
    scored, points = [coarse], [_COARSE_DIRECTIONS[0, tops, None]]

    def evaluate(directions):
        values = _entropy_drops(coefficients, s_a, directions)
        scored.append(values)
        points.append(directions)
        return values

    def best():
        values = np.concatenate(scored, axis=1)
        top = values.argmax(axis=1)
        return values[rows, top], np.concatenate(points, axis=1)[rows, top]

    angles = _COARSE_POINTS[tops]
    width = np.tile([math.pi / _N_THETA, 2.0 * math.pi / _N_PHI], (n, 1))
    for _ in range(_ROUNDS):
        pick = evaluate(_directions(angles[:, None] + _WINDOW * width[:, None])).argmax(axis=1)
        angles = angles + _WINDOW[pick] * width
        width *= _WIDTH_FACTOR[pick, None]

    def score(rows, frame):
        points = rows @ frame
        return evaluate(points / np.sqrt((points * points).sum(axis=2, keepdims=True)))

    def stencil(frame, offset):
        values = score(_STENCIL + offset, frame)
        return ((values - values[:, :1])[:, None] @ _DIFFERENCES)[:, 0]

    # The ridge scan: the great circle through the refined centre along its
    # flattest direction (the Hessian's eigenvector of the larger eigenvalue),
    # where a nearly flat ridge leads to a distant peak.
    frame, offset = _chart(angles), np.zeros((n, 1, 3))
    _, _, huu, hvv, huv = stencil(frame, offset).T
    psi = 0.5 * np.arctan2(2.0 * huv, huu - hvv)
    along = np.cos(psi)[:, None] * frame[:, 1] + np.sin(psi)[:, None] * frame[:, 2]
    evaluate(np.cos(_RIDGE)[:, None] * frame[:, None, 0] + np.sin(_RIDGE)[:, None] * along[:, None])
    # The Newton steps move the offset in the tangent frame at the best
    # direction so far.
    frame = _chart(_angles(best()[1]))
    for _ in range(_NEWTON_STEPS):
        gu, gv, huu, hvv, huv = stencil(frame, offset).T
        det = huu * hvv - huv * huv
        # Zero steps where the Hessian is not negative definite.
        inverse = np.divide(1.0, det, out=np.zeros_like(det), where=(huu < 0.0) & (det > 0.0))
        step = np.stack([huv * gv - hvv * gu, huv * gu - huu * gv], axis=1) * inverse[:, None]
        length = np.sqrt((step * step).sum(axis=1, keepdims=True))
        offset[:, 0, 1:] += step * (_STEP_CLIP / np.maximum(length, _STEP_CLIP))
    score(_STENCIL[:1] + offset, frame)
    return best()


def projective_classical_correlation(rho: DensityMatrix):
    """Best entropy drop of A over two-outcome projective measurements on B.

    The validated spectrum sorts the stack's members by frame (see
    ``_measurement_response``). Each state's coarse scan covers the
    theta < pi/2 half of a 64x32 (theta, phi) grid, 1024 cells: the other
    half's cells are their antipodes, and the measurement along -n is the
    one along n with its outcomes swapped, so the full grid scores every
    measurement twice and its best cell or that cell's antipode is the half
    grid's best. That one cell per state, for every state of one frame
    size, is then refined for _ROUNDS rounds: each round evaluates a 5x5
    (theta, phi) window around every state's centre in one batch and
    re-centres each on its best point. A centre whose best point lies
    inside its window halves the window; one whose best point lies on the
    border moves on at the same width. A ridge scan then evaluates the great
    circle through each state's centre along the direction in which its
    value curves least, which reaches a peak at the far end of a nearly flat
    ridge. Last, each state takes _NEWTON_STEPS Newton steps from its best
    direction so far, all in the tangent frame there, with the gradient and
    Hessian from central differences on a 9-point stencil around the
    state's offset in that frame; a state whose Hessian is not negative
    definite takes a zero step. Every
    state runs this same schedule. Every evaluated value is the entropy drop
    of a real measurement, so the maximum over all of them, coarse grid
    included, is a lower bound on the POVM maximum up to the mass below
    EIGENVALUE_CLAMP: conditional eigenvalues at or below the cut count as
    zero, and a state with fewer than dA eigenvalues above it is searched in
    its rank-k frame, which leaves out its eigenvalues below the cut. Each
    left-out eigenvalue lam moves the value by at most about -lam log2 lam,
    4e-11 at lam = 1e-12: mixing weight lam into a state outside its support
    moves its value by at most lam (log2(1/lam) + 1/ln 2 + log2 dA), on
    either side of the cut.
    """
    stack = _stack_of(rho)
    s_a = spectral_entropy(np.linalg.eigvalsh(_partial_trace(stack.matrix, stack.dims, "A")))
    n = len(stack)
    best, directions, frames = np.empty(n), np.empty((n, 3)), np.empty(n, int)
    for members, t in _measurement_response(stack):
        frames[members] = t.shape[-1]
        best[members], directions[members] = _search(_coefficients(t), s_a[members])
    if _log.isEnabledFor(logging.DEBUG):
        for frame, value, (theta, phi) in zip(frames, best, _angles(directions)):
            _log.debug(
                "projective: rounds=%d directions=%d frame=%d best=%.17g theta=%.17g phi=%.17g",
                _ROUNDS, _SEARCH_DIRECTIONS, frame, value, theta, phi,
            )
    return _unstack(rho, best)


def _chords(r_b: np.ndarray, directions: np.ndarray, probabilities, vectors):
    """Two-point decompositions along chords of the Bloch sphere through r_b.

    ``r_b`` (..., 3) broadcasts against the (..., 3) ``directions``, of any
    nonzero length. Writes the (..., 2) ``probabilities`` and the (..., 2, 3)
    unit Bloch ``vectors`` where each chord meets the sphere, and returns them.
    """
    e = directions / np.sqrt(np.einsum("...i,...i->...", directions, directions))[..., None]
    b = np.einsum("...i,...i->...", r_b, e)
    disc = np.sqrt(np.maximum(b * b + 1.0 - np.einsum("...i,...i->...", r_b, r_b), 0.0))
    # The chord meets the sphere at r_b + t e for t = disc - b and t = -s,
    # s = b + disc; the first has probability s / (disc - b + s).
    t, s = disc - b, b + disc
    np.divide(s, t + s, out=probabilities[..., 0])
    np.subtract(1.0, probabilities[..., 0], out=probabilities[..., 1])
    np.add(r_b, t[..., None] * e, out=vectors[..., 0, :])
    np.subtract(r_b, s[..., None] * e, out=vectors[..., 1, :])
    return probabilities, vectors


def _decompositions(r_b: np.ndarray, aligned: np.ndarray, trials: int, seeds):
    """Each marginal's candidate pure-state decompositions, all of one kind.

    ``r_b`` and ``aligned`` are (N, 3), one marginal and one unit direction per
    seed of ``seeds``. Every candidate puts weight p1 on a pure state u and
    splits the rest along a chord through (r_b - p1 u)/(1 - p1). Returns the
    (N, 1 + 2 trials, 3) probabilities and (N, 1 + 2 trials, 3, 3) unit Bloch
    vectors: the chord along ``aligned``, then ``trials`` pairs, then
    ``trials`` triples. The chord and the pairs have p1 = 0, so they score
    exactly as two-point decompositions; their u is ``aligned`` and the
    trial's drawn u. Member i makes one draw of ``trials`` rows of 11
    uniforms from a Philox stream keyed by ``seeds[i]``, and trial t reads
    row t: columns 0-3 give the pair's chord normals (3 of 4 used), 4-9 the
    triple's pure state's and chord's (all made by ``box_muller``), and 10
    the triple's p1 in [0, (1 - |r_b|)/2). So a member's first n samples
    depend neither on ``trials`` nor on the other members. No size 4: the
    objective is linear in the weights, so a mixture of two chords never
    beats the better one. The whole stack takes one ``box_muller`` call and
    one ``_chords`` call, which writes into the returned arrays. The vectors
    are a view of coordinate-major memory: each coordinate of every element
    is one contiguous (N, 1 + 2 trials, 3) block, which ``_linear_entropy_drops``
    reads as it is.
    """
    n, count = len(seeds), 1 + 2 * trials
    rows = np.empty((n, trials, 11))
    # One generator, re-keyed through its state for each member: the stream of
    # a fresh philox(seed), whose 128-bit key is two 64-bit words, low first.
    generator = np.random.Generator(philox(0))
    state = generator.bit_generator.state
    for i, seed in enumerate(seeds):
        state["state"]["key"] = (seed & (2**64 - 1), seed >> 64)
        generator.bit_generator.state = state
        rows[i] = generator.random((trials, 11))
    normals = box_muller(rows[..., :10])

    probabilities = np.empty((n, count, 3))
    vectors = np.empty((3, n, count, 3)).transpose(1, 2, 3, 0)
    directions = np.empty((n, count, 3))
    p1, u = probabilities[..., 0], vectors[:, :, 0]
    pairs, triples = slice(1, 1 + trials), slice(1 + trials, count)
    p1[:, :1 + trials] = 0.0
    np.multiply(rows[..., 10], (1.0 - np.sqrt(np.einsum("ni,ni->n", r_b, r_b)))[:, None] / 2.0,
                out=p1[:, triples])
    u[:, 0], directions[:, 0] = aligned, aligned
    np.divide(normals[..., 4:7],
              np.sqrt(np.einsum("...i,...i->...", normals[..., 4:7], normals[..., 4:7]))[..., None],
              out=u[:, pairs])
    u[:, triples] = u[:, pairs]
    directions[:, pairs], directions[:, triples] = normals[..., :3], normals[..., 7:]
    rest = 1.0 - p1
    _chords((r_b[:, None] - p1[..., None] * u) / rest[..., None], directions,
            probabilities[..., 1:], vectors[:, :, 1:])
    probabilities[..., 1:] *= rest[..., None]
    return probabilities, vectors


def _marginal_images(rho: DensityMatrix):
    """For each state of a stack: rho_B's descending eigenvalues, whether rho_B
    is rank-1 (smaller eigenvalue at most MARGINAL_RANK_TOL), its Bloch vector
    (0, 0, lam_0 - lam_1) in its eigenframe, and the images
    R_mu = Tr_B[rho (I x W sigma_mu^T W^dagger)], W = V lam^{-1/2}, for
    sigma_0 = I and the Paulis; rank-1 members get W = V. A decomposition
    {p_i, r_i} of rho_B is the rank-1 POVM M_i = p_i W ((I + r_i.sigma)/2)^T
    W^dagger on B; outcome i has probability p_i and leaves A in
    (R_0 + r_i.R)/2.
    """
    lam, vecs = np.linalg.eigh(_partial_trace(rho.matrix, rho.dims, "B"))
    lam, vecs = lam[:, ::-1], vecs[:, :, ::-1]
    rank_one = lam[:, 1] <= MARGINAL_RANK_TOL
    w = vecs / np.sqrt(np.where(rank_one[:, None], 1.0, lam))[:, None, :]
    r_b = np.zeros((len(lam), 3))
    r_b[:, 2] = lam[:, 0] - lam[:, 1]
    operators = w[:, None] @ np.swapaxes(SIGMAS, 1, 2) @ w.conj().swapaxes(1, 2)[:, None]
    return lam, rank_one, r_b, _conditionals(rho, operators)


def _gram(images: np.ndarray) -> np.ndarray:
    """The (N, 4, 4) real Gram G_mu,nu = Re Tr(R_mu R_nu) of (N, 4, dA, dA)
    ``_marginal_images``. The conditional state C = (R_0 + r.R)/2 has
    Tr C^2 = v G v^T / 4, v = [1, r], so every linear entropy the
    decomposition oracle reads is a quadratic form in r, whatever dA."""
    return np.einsum("nkij,nlji->nkl", images, images).real


def _aligned_direction(gram: np.ndarray) -> np.ndarray:
    """Per member, the (N, 3) top eigenvector of the Gram's block
    Re Tr(R_k R_l), k, l = 1..3."""
    return np.linalg.eigh(gram[:, 1:, 1:])[1][:, :, -1]


# S2((R_0 + r.R)/2) = 2 - v G v^T / 2 as sum over mu <= nu of
# c_mu,nu v_mu v_nu: c = -G/2 on the diagonal and -G above it, counting
# G_mu,nu and G_nu,mu once each.
_S2_WEIGHTS = -0.5 * (2.0 - np.eye(4))


def _linear_entropy_drops(gram: np.ndarray, r_b: np.ndarray, probabilities, vectors):
    """S2(rho_A) minus the average S2 of A over the outcomes of each
    decomposition's POVM, for (N, M, size) / (N, M, size, 3) decompositions,
    M per member, from each member's ``_gram``. Returns (N, M) values.

    Each S2 is 2 - v G v^T / 2 at v = [1, r], read as multiply-adds on whole
    coordinate arrays, with no matrix product: a candidate's score is bitwise
    the same whatever else shares the call, and costs the same at any dA.
    """
    # Each member's c_mu,nu, shaped (N, 1, 1) to meet (N, M, size) coordinates.
    (c00, c01, c02, c03), (_, c11, c12, c13), (_, _, c22, c23), (_, _, _, c33) = (
        (gram * _S2_WEIGHTS).transpose(1, 2, 0)[..., None, None])
    constant = 2.0 + c00

    def s2(points):
        x, y, z = points[..., 0], points[..., 1], points[..., 2]
        return (constant + x * (c01 + c11 * x + c12 * y + c13 * z)
                + y * (c02 + c22 * y + c23 * z) + z * (c03 + c33 * z))

    return s2(r_b[:, None, None])[..., 0] - np.einsum("nms,nms->nm", probabilities, s2(vectors))


def decomposition_linear_cc(rho: DensityMatrix, trials: int = 200,
                            seed: int | Sequence[int] = 0):
    """Supremum of the linear-entropy objective over sampled decompositions.

    One state takes one int ``seed``, a stack a sequence of one per member.
    Includes the deterministic chord along ``_aligned_direction``, so the
    value matches the closed form to within rounding; ``trials`` random 2-
    and 3-element decompositions are drawn per member, trial t from row t of
    one draw from a Philox stream keyed by its seed, so larger trial counts
    extend smaller ones. ``_decompositions`` writes every candidate as a
    three-element decomposition, and one ``_linear_entropy_drops`` call
    scores them all from each member's ``_gram``. A rank-1 rho_B (smaller
    eigenvalue at most MARGINAL_RANK_TOL) raises DegenerateMarginal for one
    state and gives NaN for a member of a stack. A ``trials`` that is not a
    non-negative integer, booleans included, or a seed that is not a Philox
    key (``philox_key``), for any member, raises OutOfDomain before any work.
    """
    if isinstance(trials, bool) or not (isinstance(trials, numbers.Integral) and trials >= 0):
        raise OutOfDomain(f"trials must be a non-negative integer, got {trials!r}")
    stack = _stack_of(rho)
    best = np.full(len(stack), np.nan)
    # The seed has the shape of the value: one for one state, one per member for a stack.
    if np.shape(seed) != np.shape(_unstack(rho, best)):
        raise DimensionMismatch(
            f"the decomposition oracle takes one seed for one state and one seed per member of "
            f"a stack of {len(stack)}, got seed of shape {np.shape(seed)}")
    seeds = [philox_key(s) for s in (seed if np.ndim(seed) else [seed])]
    lam, rank_one, r_b, images = _marginal_images(stack)
    kept = np.flatnonzero(~rank_one)
    r_b, gram = r_b[kept], _gram(images[kept])
    drops = _linear_entropy_drops(gram, r_b, *_decompositions(
        r_b, _aligned_direction(gram), trials, [seeds[i] for i in kept]))
    aligned, sampled = drops[:, 0], np.max(drops[:, 1:], axis=1, initial=-math.inf)
    best[kept] = np.maximum(aligned, sampled)
    if _log.isEnabledFor(logging.DEBUG):
        for a, s in zip(aligned, sampled):
            _log.debug(
                "decomposition: candidates=%d aligned_won=%s best=%.17g",
                1 + 2 * trials, a >= s, max(a, s),
            )
    return _unstack(rho, best, {
        i: DegenerateMarginal(f"rho_B eigenvalues {lam[i]} are rank-1 within {MARGINAL_RANK_TOL}")
        for i in np.flatnonzero(rank_one).tolist()})
