import ast
import itertools
import logging
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bell_diagonal_c, bloch_channel, from_bloch, haar_unitary,
                      luo_classical_correlation, marginal_eigenframe, measurement_projectors,
                      random_density, random_pure_density, stack_of)
from qdiscord import oracles
from qdiscord.cli import _CHECK_TOLERANCES
from qdiscord.channel import _rebuilt_states, linear_cc_batch, linear_classical_correlation
from qdiscord.discord import correlation_report, discord_rank2
from qdiscord.errors import DegenerateMarginal, DimensionMismatch, OutOfDomain
from qdiscord.linalg import EIGENVALUE_CLAMP, PAULIS, partial_trace
from qdiscord.measures import linear_entropy, spectral_entropy, von_neumann_entropy
from qdiscord.oracles import (
    _aligned_direction,
    _chords,
    _coefficients,
    _decompositions,
    _linear_entropy_drops,
    _marginal_images,
    _measurement_response,
    _outcome_entropies,
    decomposition_linear_cc,
    projective_classical_correlation,
)
from qdiscord.states import (
    MARGINAL_RANK_TOL,
    DensityMatrix,
    box_muller,
    make_bell_diagonal,
    make_example1,
    make_horodecki,
    make_random_rank2,
    philox,
    random_trials,
)

LOG2_3 = math.log2(3.0)


def projective_discord(rho):
    """Mutual information minus the projective oracle; upper-bounds the discord."""
    return correlation_report(rho).I_mutual - projective_classical_correlation(rho)


class TestMeasurementProjectors:
    def test_completeness_and_idempotence(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            plus, minus = measurement_projectors(theta, phi)
            assert np.max(np.abs(plus + minus - np.eye(2))) < 1e-12
            assert np.max(np.abs(plus @ plus - plus)) < 1e-12
            assert np.max(np.abs(minus @ minus - minus)) < 1e-12


class TestProjectiveOracle:
    def test_measured_side_must_be_a_qubit(self):
        rho = DensityMatrix((2, 3), np.eye(6) / 6)
        with pytest.raises(DimensionMismatch, match=r"side B a qubit, got dims \(2, 3\)"):
            projective_classical_correlation(rho)

    def test_product_state(self):
        rho = DensityMatrix((2, 2), np.diag([0.35, 0.35, 0.15, 0.15]).astype(complex))
        assert projective_classical_correlation(rho) == pytest.approx(0.0, abs=1e-9)

    def test_bell_state(self):
        got = projective_classical_correlation(make_bell_diagonal(1, -1, 1))
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_horodecki_matches_closed_form(self):
        rho = make_horodecki(0.5)
        theorem = discord_rank2(rho).I_cc
        assert projective_classical_correlation(rho) == pytest.approx(
            theorem, abs=1e-4
        )

    @pytest.mark.parametrize("dim_a", [2, 3])
    def test_never_below_own_coarse_grid(self, dim_a):
        # The coarse grid's entropy drops, recomputed from explicit projectors.
        thetas = (np.arange(oracles._N_THETA) + 0.5) * math.pi / oracles._N_THETA
        phis = (np.arange(oracles._N_PHI) + 0.5) * 2.0 * math.pi / oracles._N_PHI
        for seed in (3, 4):
            rho = make_random_rank2(seed, dim_a=dim_a)
            r = rho.matrix.reshape(dim_a, 2, dim_a, 2)
            s_a = von_neumann_entropy(partial_trace(rho.matrix, rho.dims, "A"))
            coarse = -math.inf
            for theta in thetas:
                for phi in phis:
                    drop = s_a
                    for proj in measurement_projectors(theta, phi):
                        cond = np.einsum("abcd,db->ac", r, proj)
                        p = np.trace(cond).real
                        drop -= p * von_neumann_entropy(cond / p)
                    coarse = max(coarse, drop)
            assert projective_classical_correlation(rho) >= coarse - 1e-12

    def test_repeated_calls_identical(self):
        for rho in (make_random_rank2(6), make_random_rank2(6, dim_a=3)):
            first = projective_classical_correlation(rho)
            assert all(projective_classical_correlation(rho) == first for _ in range(3))

    def test_qutrit_side_a(self):
        rho = make_random_rank2(2, dim_a=3)
        value = projective_classical_correlation(rho)
        assert value >= -1e-10


def _partial_trace_response(stack):
    """Every member in the dA x dA frame: Tr_B[rho] and Tr_B[rho (I x sigma_k)],
    for any rank."""
    d_a = stack.dim_a
    r = stack.matrix.reshape(-1, d_a, 2, d_a, 2)
    t = np.stack([np.einsum("nabcb->nac", r),
                  *(np.einsum("nabcd,db->nac", r, s) for s in PAULIS)], axis=1)
    return [(np.arange(len(r)), t)]


def _frame_response(rho):
    """The (4, k, k) response T_0..3 of one state, in its frame."""
    ((members, t),) = _measurement_response(rho[:])
    np.testing.assert_array_equal(members, [0])
    return t[0]


def _in_partial_trace_frame(monkeypatch, rho):
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_measurement_response", _partial_trace_response)
        return projective_classical_correlation(rho)


def _random_rank(rng, dim_a, rank):
    g = rng.standard_normal((2 * dim_a, rank)) + 1j * rng.standard_normal((2 * dim_a, rank))
    m = g @ g.conj().T
    return DensityMatrix((dim_a, 2), m / np.trace(m).real)


class TestRankFrame:
    @pytest.mark.parametrize("dim_a", [2, 3, 4])
    @pytest.mark.parametrize("rank", [1, 2, 3, "full"])
    def test_matches_partial_trace_frame(self, monkeypatch, dim_a, rank):
        rng = np.random.default_rng(100 * dim_a + (0 if rank == "full" else rank))
        for _ in range(3):
            rho = _random_rank(rng, dim_a, 2 * dim_a if rank == "full" else rank)
            frame = _frame_response(rho)[0].shape[0]
            assert frame == (rank if rank != "full" and rank < dim_a else dim_a)
            got = projective_classical_correlation(rho)
            assert got == pytest.approx(_in_partial_trace_frame(monkeypatch, rho), abs=1e-14)

    @pytest.mark.parametrize("dim_a", [2, 3, 4])
    def test_bell_state_on_two_levels_of_a(self, monkeypatch, dim_a):
        # |Phi+> on the first two levels of A: rank 1 in a 2dA-dimensional space.
        psi = np.zeros(2 * dim_a, dtype=complex)
        psi[[0, 3]] = 1.0 / math.sqrt(2.0)
        rho = DensityMatrix((dim_a, 2), np.outer(psi, psi.conj()))
        assert _frame_response(rho)[0].shape == (1, 1)
        got = projective_classical_correlation(rho)
        assert got == pytest.approx(1.0, abs=1e-14)
        assert got == pytest.approx(_in_partial_trace_frame(monkeypatch, rho), abs=1e-14)

    @pytest.mark.parametrize("dim_a", [3, 4])
    @pytest.mark.parametrize("eps,frame", [(5e-13, 2), (2e-12, 3)])
    def test_both_sides_of_the_eigenvalue_cut(self, monkeypatch, dim_a, eps, frame):
        # A third eigenvalue eps below the cut is left out of the frame, above
        # it is kept; either way the value moves by about eps log2(1/eps).
        assert (eps < EIGENVALUE_CLAMP) == (frame == 2)
        dropped_mass = eps * (1.0 - math.log2(eps))
        for seed in (1, 2, 3):
            rank2 = make_random_rank2(seed, dim_a=dim_a)
            w = np.linalg.eigh(rank2.matrix)[1][:, 0]
            rho = DensityMatrix(
                rank2.dims, (1.0 - eps) * rank2.matrix + eps * np.outer(w, w.conj())
            )
            assert _frame_response(rho)[0].shape[0] == frame
            got = projective_classical_correlation(rho)
            full = _in_partial_trace_frame(monkeypatch, rho)
            assert abs(got - full) <= (dropped_mass if frame == 2 else 1e-14)
            assert abs(got - projective_classical_correlation(rank2)) <= 2.0 * dropped_mass

    def test_eigh_runs_only_on_members_below_full_frame(self, monkeypatch):
        # The frames come from the validated spectrum; only members of rank
        # below dA need their eigenvectors, one eigh per frame size.
        stacks = (random_trials(0, range(25))[0], random_trials(0, range(25), 3)[0],
                  _stack_with_mixed_frames())
        shapes, eigh = [], np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for stack, expected in zip(stacks, ([], [(25, 6, 6)], [(1, 6, 6), (1, 6, 6)])):
            shapes.clear()
            projective_classical_correlation(stack)
            assert shapes == expected


def _full_grid_drops(rho, directions):
    """Entropy drops of one state along (M, 3) directions, from explicit
    projectors (I +- n.sigma)/2 and eigvalsh of each conditional state."""
    r = rho.matrix.reshape(rho.dim_a, 2, rho.dim_a, 2)
    drop = von_neumann_entropy(partial_trace(rho.matrix, rho.dims, "A"))
    n_sigma = np.einsum("mi,ibc->mbc", directions, np.array(PAULIS))
    for sign in (1.0, -1.0):
        cond = np.einsum("abcd,mdb->mac", r, (np.eye(2) + sign * n_sigma) / 2.0)
        p = np.einsum("maa->m", cond).real
        lam = np.linalg.eigvalsh(cond / p[:, None, None])
        kept = np.where(lam > EIGENVALUE_CLAMP, lam, 1.0)
        drop = drop + p * np.sum(kept * np.log2(kept), axis=1)
    return drop


class TestCoarseStarts:
    # The full 64x32 grid holds each cell's antipode, the same measurement
    # with its outcomes swapped, so its best cell is the best cell of the
    # theta < pi/2 half the oracle scans, or that cell's antipode.
    @staticmethod
    def _kinds():
        rng = np.random.default_rng(2011)
        for dim_a in (2, 3, 4):
            yield from random_trials(20 + dim_a, range(10), dim_a)[0]
        for dim_a, rank in ((3, 3), (2, 4), (3, 6)):
            yield from (_random_rank(rng, dim_a, rank) for _ in range(10))

    def test_start_is_the_full_grids_best_measurement(self):
        thetas = (np.arange(oracles._N_THETA) + 0.5) * math.pi / oracles._N_THETA
        phis = (np.arange(oracles._N_PHI) + 0.5) * 2.0 * math.pi / oracles._N_PHI
        full = np.stack(np.meshgrid(thetas, phis, indexing="ij"), axis=-1).reshape(-1, 2)
        full_directions = oracles._directions(full)
        half = full[full[:, 0] < math.pi / 2.0]
        np.testing.assert_array_equal(oracles._COARSE_POINTS, half)
        assert len(half) == len(full) // 2
        count = 0
        for rho in self._kinds():
            full_best = full_directions[np.argmax(_full_grid_drops(rho, full_directions))]
            # The oracle's own scores of the half grid pick that measurement.
            ((_, t),) = _measurement_response(rho[:])
            values = oracles._entropy_drops(_coefficients(t), np.zeros(1),
                                            oracles._COARSE_DIRECTIONS)[0]
            start = oracles._COARSE_DIRECTIONS[0, np.argmax(values)]
            assert abs(full_best @ start) == pytest.approx(1.0, abs=1e-12)
            count += 1
        assert count == 60


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([3, 4]),
       st.one_of(st.floats(min_value=0.5, max_value=0.95),
                 st.floats(min_value=1.05, max_value=2.0)))
def test_eigenvalue_clamp_seam(seed, dim_a, multiple):
    # A third eigenvalue at `multiple` * EIGENVALUE_CLAMP, outside a rank-2
    # support: below the cut it is left out of a 2x2 frame, above it the
    # frame is 3x3 and goes through eigvalsh. Either way the value stays
    # within lam (log2(1/lam) + 1/ln 2 + log2 dA) of the rank-2 state's,
    # the bound of the projective oracle's docstring.
    rank2 = make_random_rank2(seed, dim_a=dim_a)
    outside = np.linalg.eigh(rank2.matrix)[1][:, 0]
    lam = multiple * EIGENVALUE_CLAMP
    rho = DensityMatrix(rank2.dims,
                        (1.0 - lam) * rank2.matrix + lam * np.outer(outside, outside.conj()))
    assert _frame_response(rho)[0].shape[0] == (2 if multiple < 1.0 else 3)
    bound = lam * (math.log2(1.0 / lam) + 1.0 / math.log(2.0) + math.log2(dim_a))
    assert abs(projective_classical_correlation(rho)
               - projective_classical_correlation(rank2)) <= bound


class TestOracleLogging:
    def test_projective_search_logs_its_convergence(self, caplog, monkeypatch):
        caplog.set_level(logging.DEBUG, logger="qdiscord.oracles")
        scored = []
        entropy_drops = oracles._entropy_drops

        def counted(coefficients, s_a, directions):
            scored.append(directions.shape[-2])
            return entropy_drops(coefficients, s_a, directions)

        monkeypatch.setattr(oracles, "_entropy_drops", counted)
        rng = np.random.default_rng(5)
        pure = DensityMatrix((2, 2), random_pure_density(rng, 4))
        for rho, frame in ((pure, 1), (make_random_rank2(3), 2), (make_random_rank2(3, dim_a=3), 2),
                           (make_example1(0.5), 2), (_random_rank(rng, 3, 3), 3)):
            caplog.clear()
            scored.clear()
            value = projective_classical_correlation(rho)
            (record,) = caplog.records
            fields = dict(part.split("=") for part in record.getMessage().split()[1:])
            # Every state runs the fixed schedule, and the log counts every
            # direction the search scored.
            assert int(fields["rounds"]) == oracles._ROUNDS
            assert sum(scored) == int(fields["directions"]) == oracles._SEARCH_DIRECTIONS == 1322
            assert int(fields["frame"]) == frame
            assert float(fields["best"]) == value
            theta, phi = float(fields["theta"]), float(fields["phi"])
            drop = von_neumann_entropy(partial_trace(rho.matrix, rho.dims, "A"))
            r = rho.matrix.reshape(rho.dim_a, 2, rho.dim_a, 2)
            for proj in measurement_projectors(theta, phi):
                cond = np.einsum("abcd,db->ac", r, proj)
                p = np.trace(cond).real
                drop -= p * von_neumann_entropy(cond / p)
            assert drop == pytest.approx(value, abs=1e-12)

    def test_decomposition_search_logs_candidates_and_winner(self, caplog):
        caplog.set_level(logging.DEBUG, logger="qdiscord.oracles")
        value = decomposition_linear_cc(make_random_rank2(4), trials=8, seed=2)
        (record,) = caplog.records
        assert record.getMessage() == (
            f"decomposition: candidates=17 aligned_won=True best={value:.17g}"
        )

    def test_silent_by_default(self, caplog):
        caplog.set_level(logging.INFO, logger="qdiscord.oracles")
        projective_classical_correlation(make_random_rank2(3))
        decomposition_linear_cc(make_random_rank2(3), trials=4, seed=0)
        assert caplog.records == []


def _stack_with_mixed_frames():
    """Members of rank 1, 2, 3 and 6 at dims (3, 2): frames 1, 2, 3 and 3."""
    rng = np.random.default_rng(77)
    return stack_of(*(_random_rank(rng, 3, rank) for rank in (1, 2, 3, 6)))


def _stack_of_qubit_pairs():
    """A Bell state (frame 1), a full-rank product state and random rank-2 states."""
    product = DensityMatrix((2, 2), np.diag([0.35, 0.35, 0.15, 0.15]).astype(complex))
    return stack_of(make_bell_diagonal(1, -1, 1), product, random_trials(11, range(3))[0])


class TestProjectiveStack:
    @pytest.mark.parametrize("build,frames", [
        (_stack_with_mixed_frames, [1, 2, 3, 3]),
        (_stack_of_qubit_pairs, [1, 2, 2, 2, 2]),
    ])
    def test_stack_equals_its_batches_of_one(self, caplog, build, frames):
        stack = build()
        caplog.set_level(logging.DEBUG, logger="qdiscord.oracles")
        values = projective_classical_correlation(stack)
        stacked = [record.getMessage() for record in caplog.records]
        caplog.clear()
        singles = [projective_classical_correlation(rho) for rho in stack]
        assert all(isinstance(value, float) for value in singles)
        assert isinstance(values, np.ndarray) and values.shape == (len(stack),)
        np.testing.assert_array_equal(values, singles)
        assert stacked == [record.getMessage() for record in caplog.records]
        fields = [dict(part.split("=") for part in line.split()[1:]) for line in stacked]
        assert [int(f["frame"]) for f in fields] == frames
        assert [float(f["best"]) for f in fields] == singles
        # Every member runs the same schedule.
        assert {int(f["rounds"]) for f in fields} == {oracles._ROUNDS}

    def test_flat_members_take_zero_steps_without_warnings(self, caplog):
        # The maximally mixed state (c = 0) is flat everywhere and the tie
        # state flat along a great circle; their Hessians are not negative
        # definite, which must neither warn nor move the other members.
        flat, tie = make_bell_diagonal(0.0, 0.0, 0.0), make_bell_diagonal(0.4, -0.4, 0.1)
        stack = stack_of(random_trials(21, range(2))[0], flat, tie, random_trials(23, range(2))[0])
        caplog.set_level(logging.DEBUG, logger="qdiscord.oracles")
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            values = projective_classical_correlation(stack)
            stacked = [record.getMessage() for record in caplog.records]
            caplog.clear()
            singles = [projective_classical_correlation(rho) for rho in stack]
        np.testing.assert_array_equal(values, singles)
        assert stacked == [record.getMessage() for record in caplog.records]
        assert values[2] == 0.0
        assert values[3] == pytest.approx(luo_classical_correlation((0.4, -0.4, 0.1)), abs=1e-15)

    @pytest.mark.parametrize("build", [_stack_with_mixed_frames, _stack_of_qubit_pairs])
    def test_best_is_the_first_maximum_of_everything_scored(self, monkeypatch, build):
        # The search keeps each stage's scores and takes the best once, by one
        # argmax: for a stack and for each of its batches of one, the returned
        # value is the largest score and the returned direction the first
        # one scored with it. A group of G states scores its coarse grids in G
        # calls of one state each, then every later stage in one call.
        scored = []
        entropy_drops = oracles._entropy_drops

        def recorded(coefficients, s_a, directions):
            values = entropy_drops(coefficients, s_a, directions)
            scored.append((values, np.broadcast_to(directions, (*values.shape, 3))))
            return values

        monkeypatch.setattr(oracles, "_entropy_drops", recorded)
        stack = build()
        for batch in (stack, *(stack[i:i + 1] for i in range(len(stack)))):
            s_a = spectral_entropy(np.linalg.eigvalsh(partial_trace(batch.matrix, batch.dims, "A")))
            for members, t in _measurement_response(batch):
                scored.clear()
                best, directions = oracles._search(_coefficients(t), s_a[members])
                g = len(members)
                assert [v.shape[0] for v, _ in scored] == [1] * g + [g] * (len(scored) - g)
                for i in range(g):
                    values = np.concatenate([scored[i][0][0], *(v[i] for v, _ in scored[g:])])
                    points = np.concatenate([scored[i][1][0], *(d[i] for _, d in scored[g:])])
                    assert len(values) == oracles._SEARCH_DIRECTIONS
                    # Every scored point is a unit vector, a real measurement.
                    np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.0, rtol=0,
                                               atol=1e-15)
                    assert best[i] == values.max()
                    np.testing.assert_array_equal(directions[i], points[np.argmax(values)])
                # Scored again on its own, the direction reads the same value
                # up to the rounding of a one-direction matrix product.
                np.testing.assert_allclose(
                    entropy_drops(_coefficients(t), s_a[members], directions[:, None])[:, 0], best,
                    rtol=0, atol=1e-15)

    def test_difference_weights_return_a_quadratics_derivatives(self):
        # Central differences are exact on a quadratic, so the weights give its
        # gradient and Hessian up to the values' rounding, eps |f| over 2h for
        # the gradient and over h^2 for the Hessian.
        gu, gv, huu, hvv, huv = 0.3, -0.7, -1.9, -0.4, 0.25
        h = oracles._STENCIL_STEP
        u, v = oracles._STENCIL[:, 1:].T
        f = 0.8 + gu * u + gv * v + 0.5 * (huu * u * u + 2.0 * huv * u * v + hvv * v * v)
        assert oracles._DIFFERENCES.shape == (9, 5)
        error = np.abs((f - f[0]) @ oracles._DIFFERENCES - [gu, gv, huu, hvv, huv])
        rounding = 4.0 * np.finfo(float).eps * np.abs(f).max()
        assert np.all(error <= rounding / np.array([2 * h, 2 * h, h * h, h * h, h * h])), error

    def test_ties_keep_the_first_half_grid_cell(self, caplog, monkeypatch):
        # The maximally mixed state gains nothing from any measurement, so
        # every score is 0 and the best is the first direction scored: the
        # half grid's first cell, theta = pi/128 and phi = pi/32.
        scored = []
        entropy_drops = oracles._entropy_drops

        def recorded(coefficients, s_a, directions):
            scored.append(entropy_drops(coefficients, s_a, directions))
            return scored[-1]

        monkeypatch.setattr(oracles, "_entropy_drops", recorded)
        caplog.set_level(logging.DEBUG, logger="qdiscord.oracles")
        assert projective_classical_correlation(make_bell_diagonal(0.0, 0.0, 0.0)) == 0.0
        assert sum(values.shape[1] for values in scored) == oracles._SEARCH_DIRECTIONS
        assert all(np.all(values == 0.0) for values in scored)
        (record,) = caplog.records
        fields = dict(part.split("=") for part in record.getMessage().split()[1:])
        assert float(fields["theta"]) == pytest.approx(math.pi / 128, abs=1e-12)
        assert float(fields["phi"]) == pytest.approx(math.pi / 32, abs=1e-12)

    def test_projective_discord_of_a_stack(self):
        stack = _stack_of_qubit_pairs()
        got = projective_discord(stack)
        assert got.shape == (len(stack),)
        for rho, value in zip(stack, got):
            assert value == projective_discord(rho)


class TestProjectiveDiscord:
    def test_bell_state(self):
        assert projective_discord(make_bell_diagonal(1, -1, 1)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_classical_quantum_state(self):
        rng = np.random.default_rng(42)
        a0 = random_pure_density(rng, 2)
        a1 = random_pure_density(rng, 2)
        m = 0.4 * np.kron(a0, np.diag([1.0, 0.0])) + 0.6 * np.kron(
            a1, np.diag([0.0, 1.0])
        )
        assert projective_discord(DensityMatrix((2, 2), m)) <= 1e-6

    def test_example1_endpoint(self):
        got = projective_discord(make_example1(2.0))
        assert got == pytest.approx(5.0 / 3.0 - LOG2_3, abs=1e-4)


# The projective oracle's values sit within a few 1e-15 of the closed form
# on the states below, so a search that stops short shows here long before it
# reaches the 1e-6 of validate's projective checks.
_PINNED = 1e-14


def _bell_weights(c):
    c1, c2, c3 = c
    return np.array([1 + c1 - c2 + c3, 1 - c1 + c2 + c3, 1 + c1 + c2 - c3, 1 - c1 - c2 - c3]) / 4.0


def _tied_bell_diagonal_cs():
    """Full-rank (c1, c2, c3) whose two largest |c_i| tie, so the maximizing
    axis is not unique, in every order and sign; then c = 0."""
    ties = set()
    for a, b in ((0.4, 0.1), (0.3, -0.25), (0.45, 0.0), (0.2, 0.05)):
        for sign_a, sign_b in itertools.product((1.0, -1.0), repeat=2):
            for c in itertools.permutations((a, sign_a * a, sign_b * b)):
                if _bell_weights(c).min() > 0.0:
                    ties.add(c)
    return sorted(ties) + [(0.3, 0.3, 0.3), (-0.3, -0.3, -0.3), (0.0, 0.0, 0.0)]


class TestLuoReference:
    """Luo's closed form for Bell-diagonal states, an outside check of the
    projective oracle on full-rank states, at the tolerances of `validate`'s
    projective checks."""

    @staticmethod
    def _assert_within_check_tolerances(cs):
        values = projective_classical_correlation(stack_of(*(make_bell_diagonal(*c) for c in cs)))
        luo = np.array([luo_classical_correlation(c) for c in cs])
        assert np.max(values - luo) <= _CHECK_TOLERANCES["projective_bound"]
        assert np.max(luo - values) <= _CHECK_TOLERANCES["projective_attain"]
        return values, luo

    def test_random_full_rank_states(self):
        rng = np.random.default_rng(2008)
        cs = []
        while len(cs) < 200:
            c = rng.uniform(-1.0, 1.0, 3)
            if _bell_weights(c).min() > 0.0:
                cs.append(tuple(c))
        self._assert_within_check_tolerances(cs)

    def test_ties_and_the_maximally_mixed_state(self):
        values, luo = self._assert_within_check_tolerances(_tied_bell_diagonal_cs())
        assert luo[-1] == 0.0 and values[-1] == 0.0

    def test_near_ties_under_local_unitaries(self):
        # Two |c_i| a few 1e-3 apart: the peak lies at the far end of a nearly
        # flat ridge from the coarse grid's best cells, out of reach of the
        # window rounds, and local unitaries turn the ridge off the grid's
        # axes; the ridge scan finds it. Luo's value is invariant under them.
        rng = np.random.default_rng(17)
        matrices, luo = [], []
        for c in ((0.565, -0.22, 0.563), (0.3, 0.298, -0.1), (-0.45, 0.1, 0.449)):
            for turned in (False, True, True, True):
                u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)) if turned else np.eye(4)
                matrices.append(u @ make_bell_diagonal(*c).matrix @ u.conj().T)
                luo.append(luo_classical_correlation(c))
        values = projective_classical_correlation(DensityMatrix((2, 2), np.array(matrices)))
        assert np.max(np.abs(values - luo)) <= _PINNED

    def test_rank2_states_agree_three_ways(self):
        cs = []
        for j, k in itertools.combinations(range(4), 2):
            for p in (0.1, 0.35, 0.5, 0.8):
                weights = np.zeros(4)
                weights[[j, k]] = p, 1.0 - p
                cs.append(bell_diagonal_c(weights))
        values, luo = self._assert_within_check_tolerances(cs)
        theorem = discord_rank2(stack_of(*(make_bell_diagonal(*c) for c in cs))).I_cc
        assert np.max(np.abs(theorem - luo)) <= _CHECK_TOLERANCES["projective_attain"]
        assert np.max(values - theorem) <= _CHECK_TOLERANCES["projective_bound"]
        assert np.max(theorem - values) <= _CHECK_TOLERANCES["projective_attain"]


@pytest.mark.parametrize("build", [
    lambda: random_trials(707, range(200))[0],
    lambda: make_horodecki(np.linspace(0.0, 1.0, 101)),
    lambda: make_example1(2.0),
], ids=["criterion_7", "horodecki", "example1"])
def test_projective_oracle_pinned_to_the_closed_form(build):
    rho = build()
    gap = np.asarray(projective_classical_correlation(rho) - discord_rank2(rho).I_cc)
    assert np.max(gap) <= _PINNED
    assert np.max(-gap) <= _PINNED


def _projector(v):
    return np.outer(v, v.conj())


def _classical_quantum_states(seed, count, weight=lambda rng: rng.uniform(0.01, 0.99)):
    """p |a0><a0| x |b0><b0| + (1 - p) |a1><a1| x |b1><b1| for random pure a_i on
    A and a random basis b_i of B, p drawn by ``weight`` (in [0.01, 0.99] by
    default), and the S(rho_A) that measuring B in that basis reaches, since it
    leaves A pure."""
    rng = np.random.default_rng(seed)
    matrices, s_a = [], []
    for _ in range(count):
        p = weight(rng)
        b = haar_unitary(rng, 2)
        a0, a1 = random_pure_density(rng, 2), random_pure_density(rng, 2)
        matrices.append(p * np.kron(a0, _projector(b[:, 0]))
                        + (1 - p) * np.kron(a1, _projector(b[:, 1])))
        s_a.append(von_neumann_entropy(p * a0 + (1 - p) * a1))
    return DensityMatrix((2, 2), np.array(matrices)), np.array(s_a)


def _skewed_rank2_states(seed, count):
    """Rank-2 two-qubit states on two Haar-random orthonormal vectors whose
    second eigenvalue is 1e-4 to 1e-1 of the first (log-uniform), and their I_cc."""
    rng = np.random.default_rng(seed)
    matrices = []
    for _ in range(count):
        ratio = 10.0 ** rng.uniform(-4.0, -1.0)
        v = haar_unitary(rng, 4)[:, :2]
        matrices.append((v * (np.array([1.0, ratio]) / (1.0 + ratio))) @ v.conj().T)
    states = DensityMatrix((2, 2), np.array(matrices))
    return states, discord_rank2(states).I_cc


def _small_weight_classical_quantum_states(seed, count):
    """``_classical_quantum_states`` with p log-uniform in [1e-3, 0.5]."""
    return _classical_quantum_states(
        seed, count, lambda rng: 10.0 ** rng.uniform(-3.0, math.log10(0.5)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("corpus, bound", [
    (_classical_quantum_states, 1e-9),
    (_skewed_rank2_states, 1e-9),
    (_small_weight_classical_quantum_states, 1e-8),
], ids=["classical-quantum", "skewed rank-2", "small-weight classical-quantum"])
def test_projective_oracle_at_cusp_shaped_maxima(corpus, bound, seed):
    # Nearly pure conditional states put the maximum on a cusp, which the
    # coarse grid and the ridge scan alone miss: without the window rounds
    # the skewed states read up to 1.2e-3 below. The search reads at most
    # 2.9e-12 below on the first two corpora (1.2e-10 over 27 more
    # classical-quantum seeds). A small branch weight narrows the cusp, and
    # the window rounds carry the search there: the small-weight corpus reads
    # at most 1.4e-9 below, and at least 1.49e-5 below on each seed with one
    # round of 6 Newton steps clipped at 5e-2. Weights far below 1e-3 pass
    # the Newton steps' reach (5.5e-6 below at 3.2e-5), so that corpus stops
    # there.
    states, reference = corpus(seed, 300)
    gap = projective_classical_correlation(states) - reference
    assert np.max(np.abs(gap)) <= bound


class TestDecompositionOracle:
    @pytest.mark.parametrize("trials", [-1, 2.5, "8", None, True, False])
    def test_trials_outside_the_domain_raise_before_any_work(self, monkeypatch, trials):
        def unreachable(rho):
            raise AssertionError("the marginal images were built")

        monkeypatch.setattr(oracles, "_marginal_images", unreachable)
        with pytest.raises(OutOfDomain, match="trials must be a non-negative integer"):
            decomposition_linear_cc(make_horodecki(0.5), trials=trials, seed=1)

    def test_zero_trials_give_the_aligned_chord(self):
        # The two-point chord along the aligned direction, scored on its own:
        # the oracle's zero-weight third element leaves its value bit for bit.
        stack = random_trials(6, range(4))[0]
        _, _, r_b, images = _marginal_images(stack)
        chord = _chords(r_b[:, None], _aligned_direction(images)[:, None])
        aligned = _linear_entropy_drops(images, r_b, *chord)[:, 0]
        np.testing.assert_array_equal(
            decomposition_linear_cc(stack, trials=0, seed=[0, 1, 2, 3]), aligned)
        assert decomposition_linear_cc(stack[1], trials=np.int64(0), seed=1) == aligned[1]

    def test_example1_endpoint_attains_one(self):
        got = decomposition_linear_cc(make_example1(2.0), trials=64, seed=1)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_horodecki_midpoint(self):
        got = decomposition_linear_cc(make_horodecki(0.5), trials=64, seed=1)
        assert got == pytest.approx(0.25, abs=1e-6)

    def test_never_exceeds_closed_form(self):
        for seed in range(30):
            rho = make_random_rank2(seed)
            oracle = decomposition_linear_cc(rho, trials=32, seed=seed)
            assert oracle <= linear_classical_correlation(rho) + 1e-8

    def test_attains_closed_form_with_aligned_candidate(self):
        for seed in range(30):
            rho = make_random_rank2(seed)
            oracle = decomposition_linear_cc(rho, trials=8, seed=seed)
            assert oracle == pytest.approx(
                linear_classical_correlation(rho), abs=1e-6
            )

    def test_dx2_states_validate_prefactor(self):
        for seed in range(10):
            rho = make_random_rank2(seed, dim_a=3)
            closed_form = linear_classical_correlation(rho)
            oracle = decomposition_linear_cc(rho, trials=64, seed=seed)
            assert oracle <= closed_form + 1e-8
            assert oracle == pytest.approx(closed_form, abs=1e-4)

    def test_monotone_in_trials(self):
        for seed in (0, 3):
            rho = make_random_rank2(seed)
            lo = decomposition_linear_cc(rho, trials=16, seed=11)
            hi = decomposition_linear_cc(rho, trials=32, seed=11)
            assert hi >= lo - 1e-15

    def test_degenerate_marginal_raises(self):
        with pytest.raises(DegenerateMarginal):
            decomposition_linear_cc(make_horodecki(0.0), trials=4, seed=0)

    @pytest.mark.parametrize("small,rank_one", [(5e-11, True), (2e-10, False)])
    def test_marginal_cut_matches_the_rebuild(self, small, rank_one):
        # sqrt(1-e)|00> + sqrt(e)|11> has rho_B = diag(1-e, e): the oracle, the
        # closed form and the rebuild of the roundtrip check share
        # MARGINAL_RANK_TOL. Below it the oracle raises, the closed form reads
        # 0 and the rebuild is NaN; above it all three read the state.
        assert (small <= MARGINAL_RANK_TOL) == rank_one
        psi = np.array([math.sqrt(1 - small), 0, 0, math.sqrt(small)], dtype=complex)
        rho = DensityMatrix((2, 2), np.outer(psi, psi.conj()))
        rebuilt = _rebuilt_states(linear_cc_batch(rho[:])[1])[0]
        if rank_one:
            with pytest.raises(DegenerateMarginal):
                decomposition_linear_cc(rho, trials=4, seed=0)
            assert linear_classical_correlation(rho) == 0.0
            assert np.isnan(rebuilt).all()
        else:
            got = decomposition_linear_cc(rho, trials=4, seed=0)
            assert got == pytest.approx(4 * small * (1 - small), rel=1e-6)
            assert got == pytest.approx(linear_classical_correlation(rho), rel=1e-6)
            assert np.max(np.abs(rebuilt - rho.matrix)) <= 1e-9


def _stack_with_rank_one_marginal(dim_a):
    """Random rank-2 states with a product state, whose rho_B is rank-1, as member 2."""
    product = np.zeros((2 * dim_a, 2 * dim_a), dtype=complex)
    product[0, 0] = 1.0
    members = random_trials(31, range(5), dim_a)[0]
    return stack_of(members[:2], DensityMatrix((dim_a, 2), product), members[2:])


def _x_axis(images):
    """The x axis in place of the aligned direction, so that the sampled
    decompositions, and so each member's seeds, decide the value."""
    return np.tile([1.0, 0.0, 0.0], (len(images), 1))


class TestDecompositionStack:
    @pytest.mark.parametrize("dim_a", [2, 3])
    @pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "samples_decide"])
    def test_stack_equals_its_batches_of_one(self, caplog, monkeypatch, dim_a, aligned):
        if not aligned:
            monkeypatch.setattr(oracles, "_aligned_direction", _x_axis)
        stack = random_trials(dim_a, range(12), dim_a)[0]
        seeds = [dim_a ^ ((t + 1) << 64) for t in range(12)]
        caplog.set_level(logging.DEBUG, logger="qdiscord.oracles")
        values = decomposition_linear_cc(stack, trials=16, seed=seeds)
        stacked = [record.getMessage() for record in caplog.records]
        caplog.clear()
        singles = [decomposition_linear_cc(rho, trials=16, seed=s) for rho, s in zip(stack, seeds)]
        assert all(isinstance(value, float) for value in singles)
        assert isinstance(values, np.ndarray) and values.shape == (12,)
        np.testing.assert_array_equal(values, singles)
        assert stacked == [record.getMessage() for record in caplog.records]
        assert len(stacked) == 12
        won = [line.split()[2] for line in stacked]
        if aligned:
            assert set(won) == {"aligned_won=True"}
        else:
            assert won.count("aligned_won=False") >= 10

    @pytest.mark.parametrize("dim_a", [2, 3])
    def test_rank_one_marginal_member_is_nan_in_a_stack(self, caplog, monkeypatch, dim_a):
        # With the samples deciding, each later member must still get its own seed.
        monkeypatch.setattr(oracles, "_aligned_direction", _x_axis)
        stack = _stack_with_rank_one_marginal(dim_a)
        seeds = [dim_a ^ ((t + 1) << 64) for t in range(len(stack))]
        caplog.set_level(logging.DEBUG, logger="qdiscord.oracles")
        values = decomposition_linear_cc(stack, trials=8, seed=seeds)
        assert np.isnan(values).tolist() == [False, False, True, False, False, False]
        # The rank-1 member logs nothing, as its batch of one raises first.
        assert len(caplog.records) == 5
        with pytest.raises(DegenerateMarginal, match="rank-1"):
            decomposition_linear_cc(stack[2], trials=8, seed=seeds[2])
        for i in (0, 1, 3, 4, 5):
            assert values[i] == decomposition_linear_cc(stack[i], trials=8, seed=seeds[i])

    @pytest.mark.parametrize("dim_a", [2, 3])
    def test_merged_scoring_is_the_maximum_of_separate_calls(self, monkeypatch, dim_a):
        # Every candidate is scored in one call. With the samples deciding, the
        # value is bitwise the best of the aligned, pair and triple slices of
        # the candidates, each scored in a call of its own.
        monkeypatch.setattr(oracles, "_aligned_direction", _x_axis)
        stack = _stack_with_rank_one_marginal(dim_a)
        seeds = [dim_a ^ ((t + 1) << 64) for t in range(len(stack))]
        _, rank_one, r_b, images = _marginal_images(stack)
        kept = np.flatnonzero(~rank_one)
        r_b, images = r_b[kept], images[kept]
        probs, vectors = _decompositions(r_b, _x_axis(images), 16, [seeds[i] for i in kept])
        kinds = [np.max(_linear_entropy_drops(images, r_b, probs[:, part], vectors[:, part]),
                        axis=1)
                 for part in (slice(0, 1), slice(1, 17), slice(17, 33))]
        expected = np.full(len(stack), np.nan)
        expected[kept] = np.max(kinds, axis=0)
        np.testing.assert_array_equal(decomposition_linear_cc(stack, trials=16, seed=seeds),
                                      expected)
        # Pairs win for some member, and so do triples.
        assert {1, 2} <= set(np.argmax(kinds, axis=0).tolist())

    @pytest.mark.parametrize("trials", [0, 8])
    def test_one_call_builds_one_chord_batch_and_one_scoring_batch(self, monkeypatch, trials):
        spies = [mock.Mock(wraps=getattr(oracles, name))
                 for name in ("_chords", "_linear_entropy_drops")]
        monkeypatch.setattr(oracles, "_chords", spies[0])
        monkeypatch.setattr(oracles, "_linear_entropy_drops", spies[1])
        stack = _stack_with_rank_one_marginal(3)
        decomposition_linear_cc(stack, trials=trials, seed=list(range(len(stack))))
        assert [spy.call_count for spy in spies] == [1, 1]

    @pytest.mark.parametrize("seed", [True, np.False_, [0, True, 2, 3, 4, 5]], ids=repr)
    def test_boolean_seeds_are_refused(self, seed):
        rho = _stack_with_rank_one_marginal(2) if np.ndim(seed) else make_random_rank2(3)
        with pytest.raises(OutOfDomain, match="is a boolean, not an integer key"):
            decomposition_linear_cc(rho, trials=4, seed=seed)

    @pytest.mark.parametrize("bad, message", [
        (True, "is a boolean"), (-1, "outside"), (2**128, "outside")], ids=["True", "-1", "2**128"])
    @pytest.mark.parametrize("member", [1, 2], ids=["kept_member", "rank_one_member"])
    def test_every_members_seed_is_checked_before_any_work(self, monkeypatch, bad, message,
                                                           member):
        # Member 2's rho_B is rank-1, so no draw reads its seed; it is refused
        # all the same, as at member 1, before any marginal is computed.
        def no_work(stack):
            raise AssertionError("work began before the seeds were checked")

        stack = _stack_with_rank_one_marginal(2)
        monkeypatch.setattr(oracles, "_marginal_images", no_work)
        seed = [0, 1, 2, 3, 4, 5]
        seed[member] = bad
        with pytest.raises(OutOfDomain, match=message):
            decomposition_linear_cc(stack, trials=4, seed=seed)

    def test_all_members_rank_one(self):
        stack = _stack_with_rank_one_marginal(2)[[2, 2]]
        assert np.isnan(decomposition_linear_cc(stack, trials=4, seed=[0, 1])).all()

    @pytest.mark.parametrize("seed", [0, [1, 2], [1, 2, 3, 4], [[1, 2, 3]]])
    def test_a_stack_takes_one_seed_per_member(self, seed):
        stack = random_trials(1, range(3))[0]
        with pytest.raises(DimensionMismatch, match="one seed per member of a stack of 3"):
            decomposition_linear_cc(stack, trials=4, seed=seed)

    @pytest.mark.parametrize("seed", [[4], [[4]], (4, 5)], ids=str)
    def test_one_state_takes_one_seed(self, seed):
        # The seed has the shape of the value, so a sequence is a stack's seed.
        with pytest.raises(DimensionMismatch, match="takes one seed for one state"):
            decomposition_linear_cc(make_random_rank2(9), trials=4, seed=seed)

    def test_a_stack_of_one_gives_an_array(self):
        rho = make_random_rank2(9)
        value = decomposition_linear_cc(rho[:], trials=8, seed=[4])
        assert value.shape == (1,)
        assert value[0] == decomposition_linear_cc(rho, trials=8, seed=4)

    def test_more_trials_extend_each_member(self, monkeypatch):
        # Each member's first 16 samples are those of its 16-trial run, so with
        # the samples deciding, its 32-trial value is at least its 16-trial one.
        monkeypatch.setattr(oracles, "_aligned_direction", _x_axis)
        stack = random_trials(0, range(8), dim_a=3)[0]
        seeds = [5 ^ ((t + 1) << 64) for t in range(8)]
        _, _, r_b, images = _marginal_images(stack)
        drops16, drops32 = (_linear_entropy_drops(images, r_b, *_decompositions(
            r_b, _x_axis(images), trials, seeds)) for trials in (16, 32))
        # The chord and the first 16 pairs, then the first 16 triples.
        np.testing.assert_array_equal(drops16[:, :17], drops32[:, :17])
        np.testing.assert_array_equal(drops16[:, 17:], drops32[:, 33:49])
        lo = decomposition_linear_cc(stack, trials=16, seed=seeds)
        hi = decomposition_linear_cc(stack, trials=32, seed=seeds)
        assert np.all(hi >= lo) and np.any(hi > lo)


class TestBatchedPaths:
    @staticmethod
    def _entropies_against_eigvalsh(frame):
        # Both sides of the probability floor: 1e-16 and 1e-15 count as no
        # outcome, 2e-15 does not.
        rng = np.random.default_rng(44)
        probs = np.concatenate([[0.0, 1e-16, 1e-15, 2e-15, 1e-9], rng.uniform(0, 1, 40)])
        mats = np.stack([p * random_density(rng, frame) for p in probs])
        reference = []
        for m, p in zip(mats, probs):
            lam = np.linalg.eigvalsh(m / p) if p > 1e-15 else np.ones(frame)
            lam = lam[lam > 1e-12]
            reference.append(float(-np.sum(lam * np.log2(lam))) if p > 1e-15 else 0.0)
        coords = np.stack([_coefficients(np.stack([m] * 4))[0] for m in mats])
        np.testing.assert_allclose(coords[:, 0], probs, rtol=1e-13, atol=0)
        np.testing.assert_allclose(
            _outcome_entropies(coords, probs), reference, rtol=0, atol=1e-13
        )

    def test_qubit_entropy_formula_matches_eigvalsh(self):
        # The 2x2 invariants: trace, (a - d)/2, Re b and Im b.
        self._entropies_against_eigvalsh(2)

    def test_larger_frames_keep_eigvalsh_and_the_same_floor(self):
        self._entropies_against_eigvalsh(3)

    @pytest.mark.parametrize("dim_a", [2, 3, 4])
    def test_objectives_match_one_at_a_time(self, dim_a):
        # Reference: each decomposition pushed through the test reference's
        # channel of the state written in rho_B's eigenframe, one element at a
        # time, in Bloch coordinates.
        rho = make_random_rank2(7, dim_a=dim_a)
        lam, framed = marginal_eigenframe(rho)
        linear_part, offset = bloch_channel(framed)
        r_b = np.array([0.0, 0.0, lam[0] - lam[1]])

        def s2_out(r):
            return linear_entropy(from_bloch(linear_part @ r + offset, dim_a))

        _, _, oracle_r_b, images = _marginal_images(rho[:])
        np.testing.assert_array_equal(oracle_r_b[0], r_b)
        top = np.linalg.eigh(linear_part.T @ linear_part)[1][None, None, :, -1]
        chord = _chords(r_b[None, None], top)
        for probs, vectors in [chord, _decompositions(oracle_r_b, top[:, 0], 6, [45])]:
            reference = [
                s2_out(r_b) - sum(p * s2_out(r) for p, r in zip(row_p, row_v))
                for row_p, row_v in zip(probs[0], vectors[0])
            ]
            got = _linear_entropy_drops(images, oracle_r_b, probs, vectors)
            np.testing.assert_allclose(got[0], reference, rtol=0, atol=1e-14)

    def test_oracles_import_nothing_from_the_closed_forms(self):
        tree = ast.parse(Path(oracles.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[-1])
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
        assert imported, "no imports found"
        assert not imported & {"channel", "discord"}


class TestDecompositionSampling:
    @staticmethod
    def _marginals(seed, n, dim_a=2):
        """Each member's r_b and aligned direction, for ``n`` random states."""
        _, _, r_b, images = _marginal_images(random_trials(seed, range(n), dim_a)[0])
        return r_b, _aligned_direction(images)

    @pytest.mark.parametrize("dim_a", [2, 3])
    def test_constraints_hold(self, dim_a):
        # Every candidate, the aligned chord included: three weights >= 0
        # summing to 1 on unit Bloch vectors whose barycentre is r_b.
        r_b, aligned = self._marginals(0, 20, dim_a)
        probs, vectors = _decompositions(r_b, aligned, 16, list(range(20)))
        assert probs.shape == (20, 33, 3) and vectors.shape == (20, 33, 3, 3)
        assert np.all(probs >= -1e-12)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-10)
        recon = np.einsum("mts,mtsk->mtk", probs, vectors)
        np.testing.assert_allclose(recon, np.broadcast_to(r_b[:, None], recon.shape), atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(vectors, axis=-1), 1.0, atol=1e-10)
        # The chord and the pairs are two-point decompositions, the triples not.
        assert np.all(probs[:, :17, 0] == 0.0) and np.all(probs[:, 17:, 0] > 0.0)

    def test_smaller_sample_is_a_prefix_of_a_larger_one(self):
        r_b, aligned = self._marginals(5, 3)
        small = _decompositions(r_b, aligned, 16, [11, 12, 13])
        large = _decompositions(r_b, aligned, 32, [11, 12, 13])
        for a16, a32 in zip(small, large):
            # The chord and the first 16 pairs, then the first 16 triples.
            np.testing.assert_array_equal(a16[:, :17], a32[:, :17])
            np.testing.assert_array_equal(a16[:, 17:], a32[:, 33:49])

    def test_members_draw_their_own_streams(self):
        # Member i of a stack draws what a stack of one with its seed draws,
        # whatever the other members and their seeds are.
        r_b, aligned = self._marginals(5, 3)
        together = _decompositions(r_b, aligned, 8, [11, 12, 13])
        for i, seed in enumerate([11, 12, 13]):
            alone = _decompositions(r_b[i : i + 1], aligned[i : i + 1], 8, [seed])
            for a_all, a_one in zip(together, alone):
                np.testing.assert_array_equal(a_all[i], a_one[0])

    def test_each_trial_reads_one_row_of_one_draw(self):
        # Trial t of a member reads row t of one random((trials, 11)) draw of
        # philox(seed): the pair's chord normals from columns 0-3, the
        # triple's pure state's and chord's from 4-9, the triple's weight from
        # 10. A pair puts weight 0 on the triple's pure state.
        r_b, aligned = self._marginals(5, 3)
        probs, vectors = _decompositions(r_b, aligned, 8, [11, 12, 13])
        pair, triple = (probs[:, 1:9], vectors[:, 1:9]), (probs[:, 9:], vectors[:, 9:])
        for i, seed in enumerate([11, 12, 13]):
            rows = np.random.Generator(philox(seed)).random((8, 11))
            chord_p, chord_v = _chords(r_b[i], box_muller(rows[:, :4])[:, :3])
            normals = box_muller(rows[:, 4:10])
            u = normals[:, :3] / np.linalg.norm(normals[:, :3], axis=1, keepdims=True)
            p1 = rows[:, 10] * (1.0 - np.linalg.norm(r_b[i])) / 2.0
            rest_p, rest_v = _chords((r_b[i] - p1[:, None] * u) / (1.0 - p1[:, None]),
                                     normals[:, 3:])
            for (got_p, got_v), weight, rest in [(pair, np.zeros(8), (chord_p, chord_v)),
                                                 (triple, p1, (rest_p, rest_v))]:
                np.testing.assert_allclose(got_p[i, :, 0], weight, rtol=0, atol=1e-14)
                np.testing.assert_allclose(got_p[i, :, 1:], (1.0 - weight[:, None]) * rest[0],
                                           rtol=0, atol=1e-14)
                np.testing.assert_allclose(got_v[i, :, 0], u, rtol=0, atol=1e-14)
                np.testing.assert_allclose(got_v[i, :, 1:], rest[1], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dim_a", [2, 3, 4])
    def test_chord_mixture_is_the_mean_of_its_chords(self, dim_a):
        # The objective is linear in a decomposition's weights, so two chords
        # mixed with weight w score w a + (1 - w) b: a 4-element sample made
        # that way never beats its better chord, and the sampler draws none.
        _, _, r_b, images = _marginal_images(random_trials(dim_a, range(50), dim_a)[0])
        rng = np.random.default_rng(dim_a)
        first, second = (_chords(r_b[:, None], rng.standard_normal((50, 1, 3))) for _ in "ab")
        w = rng.uniform(0.0, 1.0, (50, 1, 1))
        mixture = (np.concatenate([w * first[0], (1.0 - w) * second[0]], axis=-1),
                   np.concatenate([first[1], second[1]], axis=2))
        a, b, mixed = (_linear_entropy_drops(images, r_b, *dec)[:, 0]
                       for dec in (first, second, mixture))
        w = w[:, 0, 0]
        np.testing.assert_allclose(mixed, w * a + (1.0 - w) * b, rtol=0, atol=1e-15)
        assert np.any(np.abs(a - b) > 1e-3)

    def test_aligned_candidate_constraints(self):
        # The oracle's chord decomposes rho_B, runs along the top eigenvector
        # of L^T L of the channel read in rho_B's eigenframe, and attains the
        # closed form.
        for dim_a in (2, 3, 4):
            stack = random_trials(0, range(10), dim_a)[0]
            _, _, r_b, images = _marginal_images(stack)
            direction = _aligned_direction(images)
            assert direction.shape == (10, 3)
            probs, vectors = _decompositions(r_b, direction, 0, list(range(10)))
            assert probs.shape == (10, 1, 3) and vectors.shape == (10, 1, 3, 3)
            assert np.all(probs >= 0.0) and np.all(probs[:, 0, 0] == 0.0)
            values = _linear_entropy_drops(images, r_b, probs, vectors)[:, 0]
            for rho, p, v, point, value in zip(stack, probs[:, 0], vectors[:, 0], r_b, values):
                linear_part, _ = bloch_channel(marginal_eigenframe(rho)[1])
                np.testing.assert_allclose(p @ v, point, atol=1e-10)
                np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-10)
                chord = v[1] - v[2]
                top = np.linalg.eigh(linear_part.T @ linear_part)[1][:, -1]
                assert abs(chord @ top) == pytest.approx(np.linalg.norm(chord), abs=1e-10)
                assert value == pytest.approx(linear_classical_correlation(rho), abs=1e-14)


class TestOracleSandwich:
    def test_projective_discord_upper_bounds_theorem(self):
        for seed in range(20):
            rho = make_random_rank2(seed)
            report = discord_rank2(rho)
            upper = projective_discord(rho)
            assert upper >= report.Q_discord - 1e-6

    def test_theorem_dominates_projective_classical(self):
        for seed in range(20):
            rho = make_random_rank2(seed)
            report = discord_rank2(rho)
            oracle = projective_classical_correlation(rho)
            assert report.I_cc >= oracle - 1e-6
