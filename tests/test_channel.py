import math

import numpy as np
import pytest

from conftest import (bloch, bloch_channel, bloch_i2_cc, from_bloch, gell_mann, haar_unitary,
                      random_density, stack_of)
from qdiscord.channel import (_extract_images, _rebuilt_states, linear_cc_batch,
                              linear_classical_correlation)
from qdiscord.cli import _CHECK_TOLERANCES
from qdiscord.discord import correlation_report
from qdiscord.errors import DimensionMismatch
from qdiscord.linalg import PAULIS, SIGMAS, partial_trace
from qdiscord.measures import linear_entropy
from qdiscord.oracles import decomposition_linear_cc
from qdiscord.states import (
    DensityMatrix,
    make_bell_diagonal,
    make_example1,
    make_horodecki,
    make_random_rank2,
    make_rho2,
    random_trials,
)


def rebuilt_stack(states):
    """Each state of a stack rebuilt from the channel images its I2_cc read."""
    return _rebuilt_states(linear_cc_batch(states)[1])


def rebuilt(rho):
    """The rebuild of one state, through a stack of one."""
    return rebuilt_stack(rho[:])[0]


class TestGellMannBasis:
    """The test reference basis that the paper's Bloch checks are read in."""

    def test_qubit_basis_is_pauli_ordered(self):
        basis = gell_mann(2)
        assert len(basis) == 3
        for got, expected in zip(basis, PAULIS):
            np.testing.assert_allclose(got, expected)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthogonality_and_tracelessness(self, d):
        mats = gell_mann(d)
        assert mats.shape == (d * d - 1, d, d)
        for a in range(len(mats)):
            assert abs(np.trace(mats[a])) < 1e-12
            assert np.max(np.abs(mats[a] - mats[a].conj().T)) < 1e-12
            for b in range(len(mats)):
                overlap = np.trace(mats[a] @ mats[b]).real
                expected = 2.0 if a == b else 0.0
                assert overlap == pytest.approx(expected, abs=1e-12)


class TestBlochCoefficients:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_mixed_is_origin(self, d):
        np.testing.assert_allclose(bloch(np.eye(d) / d), np.zeros(d * d - 1), atol=1e-14)

    def test_computational_zero_points_up(self):
        np.testing.assert_allclose(bloch(np.diag([1.0, 0.0])), [0.0, 0.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_roundtrip_random_states(self, d):
        rng = np.random.default_rng(d)
        rhos = [random_density(rng, d) for _ in range(25)]
        rs = [bloch(rho) for rho in rhos]
        for rho, r in zip(rhos, rs):
            np.testing.assert_allclose(from_bloch(r, d), rho, atol=1e-12)
        np.testing.assert_allclose(bloch(np.stack(rhos)), rs, atol=1e-12)

    def test_qubit_bloch_norm_within_ball(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            assert np.linalg.norm(bloch(random_density(rng, 2))) <= 1.0 + 1e-10

    def test_bloch_linear_entropy_identity(self):
        # S2((I + r.gamma)/d) = (2d^2 - 2d - 4|r|^2)/d^2 for qubits and qutrits
        rng = np.random.default_rng(22)
        for d in (2, 3):
            for _ in range(25):
                rho = random_density(rng, d)
                r = bloch(rho)
                expected = (2 * d * d - 2 * d - 4 * np.dot(r, r)) / (d * d)
                assert linear_entropy(rho) == pytest.approx(expected, abs=1e-10)


class TestExtractChannel:
    """The channel of the paper's definition, through the test reference, and
    the package's rebuild of the state from its images."""

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 1.0])
    def test_horodecki_singular_values(self, p):
        linear_part, _ = bloch_channel(make_horodecki(p))
        s = math.sqrt(p / (2 - p))
        expected = sorted([s, s, p / (2 - p)], reverse=True)
        singular_values = np.linalg.svd(linear_part, compute_uv=False)
        np.testing.assert_allclose(singular_values, expected, atol=1e-12)

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 1.0, 1.7, 2.0])
    def test_example1_singular_values(self, x):
        linear_part, _ = bloch_channel(make_example1(x))
        expected = sorted([1 / 3, 1 / 3, abs(1 - 2 * x) / 3], reverse=True)
        singular_values = np.linalg.svd(linear_part, compute_uv=False)
        np.testing.assert_allclose(singular_values, expected, atol=1e-12)

    def test_constant_channel_for_product_state(self):
        rho = DensityMatrix((2, 2), np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex))
        linear_part, _ = bloch_channel(rho)
        assert np.max(np.abs(linear_part)) < 1e-12
        assert np.max(np.abs(rebuilt(rho) - rho.matrix)) < 1e-15

    def test_needs_qubit_on_b(self):
        rng = np.random.default_rng(23)
        rho = DensityMatrix((2, 3), random_density(rng, 6))
        for read in (linear_classical_correlation, correlation_report):
            with pytest.raises(DimensionMismatch, match=r"\(dA, 2\)"):
                read(rho)

    def test_affine_consistency(self):
        # The reference's L r + l are the Bloch coefficients of the outputs of
        # Lambda(X) = Tr_B[rho (I x rho_B^{-1/2} X^T rho_B^{-1/2})] itself.
        for seed in range(10):
            rho = make_random_rank2(seed, dim_a=2 + seed % 3)
            d_a = rho.dims[0]
            linear_part, offset = bloch_channel(rho)
            m = rho.matrix.reshape(d_a, 2, d_a, 2)
            lam, v = np.linalg.eigh(np.einsum("abad->bd", m))
            root = (v / np.sqrt(lam)) @ v.conj().T
            rng = np.random.default_rng(seed)
            for _ in range(5):
                qubit_in = random_density(rng, 2)
                image = np.einsum("abcd,db->ac", m, root @ qubit_in.T @ root)
                assert np.trace(image).real == pytest.approx(1.0, abs=1e-12)
                np.testing.assert_allclose(
                    bloch(image), linear_part @ bloch(qubit_in) + offset, atol=1e-10
                )

    def test_reassembly_roundtrip_families_and_random(self):
        states = [
            make_horodecki(0.4),
            make_horodecki(1.0),
            make_example1(0.9),
            make_example1(2.0),
            make_bell_diagonal(0.5, -0.2, 0.1),
        ] + [make_random_rank2(seed) for seed in range(20)]
        for rho in states:
            assert np.max(np.abs(rebuilt(rho) - rho.matrix)) < 1e-9

    def test_reassembly_roundtrip_qutrit_output(self):
        for seed in range(10):
            rho = make_random_rank2(seed, dim_a=3)
            assert np.max(np.abs(rebuilt(rho) - rho.matrix)) < 1e-9


class TestLinearClassicalCorrelation:
    @pytest.mark.parametrize("x", np.linspace(0.0, 2.0, 21))
    def test_example1_closed_form(self, x):
        got = linear_classical_correlation(make_example1(float(x)))
        expected = max(1.0 / 9.0, (1.0 - 2.0 * x) ** 2 / 9.0)
        assert got == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 11))
    def test_horodecki_p_squared(self, p):
        got = linear_classical_correlation(make_horodecki(float(p)))
        assert got == pytest.approx(float(p) ** 2, abs=1e-10)

    def test_rank2_bell_diagonal_is_one(self):
        rho = make_bell_diagonal(1.0, 1 - 2 * 0.35, 2 * 0.35 - 1)
        assert linear_classical_correlation(rho) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "coeffs", [(0.3, -0.5, 0.1), (0.2, 0.2, 0.2), (-0.6, 0.1, 0.4)]
    )
    def test_general_bell_diagonal_max_coefficient_squared(self, coeffs):
        rho = make_bell_diagonal(*coeffs)
        expected = max(abs(c) for c in coeffs) ** 2
        assert linear_classical_correlation(rho) == pytest.approx(expected, abs=1e-10)

    def test_rank_one_marginal_short_circuits_to_zero(self):
        assert linear_classical_correlation(make_horodecki(0.0)) == 0.0

    def test_bounded_by_marginal_linear_entropy(self):
        for seed in range(50):
            rho = make_random_rank2(seed)
            s2_b = linear_entropy(partial_trace(rho.matrix, rho.dims, "B"))
            assert linear_classical_correlation(rho) <= s2_b + 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(25)
        for seed in range(20):
            rho = make_random_rank2(seed)
            u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            rotated = DensityMatrix((2, 2), u @ rho.matrix @ u.conj().T)
            assert linear_classical_correlation(rotated) == pytest.approx(
                linear_classical_correlation(rho), abs=1e-9
            )

    def test_value_ignores_offset(self):
        # Adding (delta . gamma / d) x rho_B shifts only the channel offset;
        # rho_B and the linear part, hence I2_cc, stay the same.
        rho = make_bell_diagonal(0.3, -0.5, 0.1)
        rho_b = partial_trace(rho.matrix, rho.dims, "B")
        shifted = DensityMatrix((2, 2), rho.matrix + 0.05 * np.kron(PAULIS[2], rho_b))
        (base_part, base_offset), (moved_part, moved_offset) = map(bloch_channel, (rho, shifted))
        assert np.max(np.abs(moved_offset - base_offset)) > 0.05
        np.testing.assert_allclose(
            np.linalg.svd(moved_part, compute_uv=False),
            np.linalg.svd(base_part, compute_uv=False),
            atol=1e-12,
        )
        assert linear_classical_correlation(shifted) == pytest.approx(
            linear_classical_correlation(rho), abs=1e-12
        )

    def test_qutrit_output_prefactor(self):
        # at d=3 the 4/d^2 prefactor is 4/9; check the formula wiring directly
        rho = make_random_rank2(3, dim_a=3)
        linear_part, _ = bloch_channel(rho)
        s2_b = linear_entropy(partial_trace(rho.matrix, rho.dims, "B"))
        lam_max = float(np.linalg.eigvalsh(linear_part.T @ linear_part)[-1])
        assert linear_classical_correlation(rho) == pytest.approx(
            4.0 / 9.0 * lam_max * s2_b, abs=1e-12
        )


class TestFrameFreeCore:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_eigenframe_reference(self, d):
        states = random_trials(0, range(500), dim_a=d)[0]
        got = linear_classical_correlation(states)
        expected = [bloch_i2_cc(rho) for rho in states]
        assert got.shape == (500,)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    def test_batch_equals_batches_of_one(self):
        for d in (2, 3, 4):
            same_dims = random_trials(0, range(20), dim_a=d)[0]
            batch = linear_classical_correlation(same_dims)
            singles = [linear_classical_correlation(same_dims[i : i + 1])[0]
                       for i in range(len(same_dims))]
            np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-14)
            assert isinstance(linear_classical_correlation(same_dims[0]), float)

    def test_degenerate_marginal_frame_free_matches_any_eigenframe(self):
        # rho_B = I/2 for Bell-diagonal states, so every basis diagonalizes it
        # and the eigenframe channel is a genuine choice. The frame-free value
        # must agree with the singular values read in any of those frames, the
        # reference's computational frame among them.
        rho = make_bell_diagonal(0.7, -0.4, 0.2)
        got = linear_classical_correlation(rho)
        assert got == pytest.approx(0.49, abs=1e-12)
        rng = np.random.default_rng(24)
        for _ in range(5):
            w = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            rotated = DensityMatrix((2, 2), w @ rho.matrix @ w.conj().T)
            assert linear_classical_correlation(rotated) == pytest.approx(got, abs=1e-12)
            assert bloch_i2_cc(rotated) == pytest.approx(got, abs=1e-12)

    @pytest.mark.parametrize("small,expected_zero", [
        (5e-11, True), (2e-10, False), (1.01e-10, False), (1e-9, False), (1e-8, False),
    ])
    def test_rank_one_marginal_cut(self, small, expected_zero):
        # Pure sqrt(1-e)|00> + sqrt(e)|11>: rho_B = diag(1-e, e) and, with no
        # tangle left for a purifying system, I2_cc = S2(rho_A) = 4e(1-e). This
        # attains the two-qubit bound I2_cc <= S2(rho_B).
        psi = np.array([math.sqrt(1 - small), 0, 0, math.sqrt(small)], dtype=complex)
        rho = DensityMatrix((2, 2), np.outer(psi, psi))
        got = linear_classical_correlation(rho)
        if expected_zero:
            assert got == 0.0
        else:
            assert got == pytest.approx(4 * small * (1 - small), rel=1e-6)

    def test_mixed_dims_and_empty_batches_rejected(self):
        # A stack has one dims: matrices of another size are rejected when it
        # is built, and an empty stack cannot be built at all.
        wide = random_trials(0, range(2), dim_a=3)[0]
        with pytest.raises(DimensionMismatch, match=r"shape \(2, 6, 6\) does not match dims \(2, 2\)"):
            DensityMatrix((2, 2), wide.matrix)
        with pytest.raises(DimensionMismatch, match="must not be empty"):
            DensityMatrix((2, 2), np.zeros((0, 4, 4)))
        with pytest.raises(TypeError, match="expected a DensityMatrix, got list"):
            linear_classical_correlation([make_random_rank2(0)])

    @pytest.mark.parametrize("dims", [(2, 1), (1, 2), (2, 3), (5, 2)])
    def test_unsupported_shapes_rejected_at_entry(self, dims):
        # The one dims rule: B is a qubit. Any dA passes, 1 and 5 included.
        n = dims[0] * dims[1]
        rho = DensityMatrix(dims, np.eye(n, dtype=complex) / n)
        if dims[1] == 2:
            assert linear_classical_correlation(rho) == 0.0
        else:
            with pytest.raises(DimensionMismatch, match=r"\(dA, 2\), side B a qubit, got dims"):
                linear_classical_correlation(rho)

    def test_rho2_family_matches_reference(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            x, theta, eta = rng.uniform(0, 1), *rng.uniform(0, 2 * math.pi, 2)
            rho = make_rho2(x, theta, eta)
            if min(np.linalg.eigvalsh(partial_trace(rho.matrix, rho.dims, "B"))) <= 1e-10:
                continue
            assert linear_classical_correlation(rho) == pytest.approx(
                bloch_i2_cc(rho), abs=1e-13
            )


class TestAnyDimensionA:
    """I2_cc for d x 2 states past the dA that the other tests sweep: the
    closed form against the paper-definition reference, and the sampled
    decompositions below it."""

    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    @pytest.mark.parametrize("rank", ["rank-2", "full-rank"])
    def test_matches_the_paper_definition(self, d, rank):
        if rank == "rank-2":
            states = random_trials(d, range(20), dim_a=d)[0]
        else:
            rng = np.random.default_rng(60 + d)
            states = DensityMatrix((d, 2), np.array([random_density(rng, 2 * d) for _ in range(20)]))
        expected = [bloch_i2_cc(rho) for rho in states]
        got = linear_classical_correlation(states)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)
        np.testing.assert_allclose(correlation_report(states).I2_cc, expected, rtol=0, atol=1e-13)
        sampled = decomposition_linear_cc(states, trials=16, seed=list(range(len(states))))
        assert np.max(sampled - got) <= _CHECK_TOLERANCES["decomposition_bound"]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_one_level_a_reads_exactly_zero(self, seed):
        # I2_cc <= (2(d-1)/d) S2(rho_B) is 0 at d = 1, where A has no Bloch vector.
        states = random_trials(seed, range(50), 1)[0]
        assert np.all(linear_classical_correlation(states) == 0.0)
        assert np.all(correlation_report(states).I2_cc == 0.0)


class TestBatchedChannel:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_batch_equals_batches_of_one(self, d):
        states = random_trials(0, range(40), dim_a=d)[0]
        batch = rebuilt_stack(states)
        assert batch.shape == (40, 2 * d, 2 * d)
        for n in range(len(states)):
            np.testing.assert_array_equal(batch[n], rebuilt_stack(states[n : n + 1])[0])
        assert np.max(np.abs(batch - states.matrix)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rank_one_marginal_member_is_nan_in_a_batch(self, d):
        rng = np.random.default_rng(30 + d)
        product = DensityMatrix(
            (d, 2), np.kron(random_density(rng, d), np.diag([1.0, 0.0]))
        )
        states = stack_of(make_random_rank2(0, dim_a=d), product, make_random_rank2(1, dim_a=d))
        batch = rebuilt_stack(states)
        assert np.isnan(batch[1]).all()
        assert not np.isnan(batch[[0, 2]]).any()
        for n in (0, 2):
            np.testing.assert_array_equal(batch[n], rebuilt(states[n]))
        assert np.isnan(rebuilt(product)).all()


def product_images(matrices, extracted):
    """The channel images of ``_extract_images``' eigensystem by batched
    products, as the extraction once made them: F = W^dagger (rho W) per
    member as two matrix products, a transposed copy, then the Pauli GEMM."""
    lam, vecs, pure, _ = extracted
    n, d_a = len(matrices), matrices.shape[-1] // 2
    w = vecs / np.sqrt(np.where(pure[:, None], 1.0, lam))[:, None, :]
    right = (matrices.reshape(n, -1, 2) @ w).reshape(n, d_a, 2, 2 * d_a)
    framed = (w.conj().swapaxes(1, 2)[:, None] @ right).reshape(n, d_a, 2, d_a, 2)
    pairs = framed.transpose(0, 1, 3, 2, 4).reshape(-1, 4)
    return (pairs @ SIGMAS.reshape(4, 4).T).reshape(n, d_a, d_a, 4).transpose(0, 3, 1, 2)


def product_rebuilt(extracted):
    """``_rebuilt_states`` by batched products: the units Lambda(|i><j|) by
    einsum, then the frame F = V lam^{1/2} on each side as a matrix product."""
    lam, vecs, pure, images = extracted
    n, d_a = images.shape[0], images.shape[-1]
    units = np.einsum("mji,nmac->nijac", SIGMAS, images) / 2.0
    frame = vecs * np.sqrt(np.where(pure[:, None], 1.0, lam))[:, None, :]
    left = (frame @ units.reshape(n, 2, -1)).reshape(n, 2, 2, d_a, d_a)
    out = left.transpose(0, 3, 1, 4, 2).reshape(n, -1, 2) @ frame.conj().swapaxes(1, 2)
    out[pure] = np.nan
    return out.reshape(n, 2 * d_a, 2 * d_a)


class TestProductReferences:
    """The qubit-side products run as multiply-adds over B's two-element
    index. They agree with the product forms to rounding: at most 4.5e-16 on
    these stacks, whose images reach 2.0 in modulus, against a 1e-15 bound."""

    @staticmethod
    def stack(d):
        # Random states and twins, and three members whose rho_B is pure.
        rng = np.random.default_rng(40 + d)
        products = [DensityMatrix((d, 2), np.kron(random_density(rng, d), np.diag([1.0, 0.0])))
                    for _ in range(3)]
        return stack_of(random_trials(34, range(200), d)[0], *products,
                        random_trials(35, range(50), d)[1])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_images_match_the_product_form(self, d):
        states = self.stack(d)
        extracted = _extract_images(states.matrix, d)
        assert np.count_nonzero(extracted[2]) == 3
        np.testing.assert_allclose(extracted[3], product_images(states.matrix, extracted),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rebuilt_states_match_the_product_form(self, d):
        extracted = _extract_images(self.stack(d).matrix, d)
        got, want = _rebuilt_states(extracted), product_rebuilt(extracted)
        assert got.shape == want.shape
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        assert np.isnan(got).all(axis=(1, 2)).sum() == 3
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


class TestRankOneMarginalContinuity:
    """I2_cc <= (2(d-1)/d) S2(rho_B), from |r|^2 <= d(d-1)/2 for d-level Bloch
    vectors; at d=2 that is I2_cc <= S2(rho_B) = 4 eps (1 - eps)."""

    @staticmethod
    def filtered(rho, eps):
        # A local filter on B that leaves rho_B with smaller eigenvalue eps.
        # It keeps the channel, so I2_cc / S2(rho_B) is unchanged.
        lam, v = np.linalg.eigh(partial_trace(rho.matrix, rho.dims, "B"))
        t = math.sqrt(eps * lam[1] / ((1 - eps) * lam[0]))
        k = np.kron(np.eye(rho.dim_a), v @ np.diag([t, 1.0]) @ v.conj().T)
        m = k @ rho.matrix @ k.conj().T
        return DensityMatrix(rho.dims, m / np.trace(m).real)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("eps", [1.01e-10, 1e-9, 1e-8])
    def test_bound_above_the_cut(self, d, eps):
        bound = 2 * (d - 1) / d
        for seed in range(20):
            rho = make_random_rank2(seed, dim_a=d)
            rho_b = partial_trace(rho.matrix, rho.dims, "B")
            ratio = linear_classical_correlation(rho) / linear_entropy(rho_b)
            near = self.filtered(rho, eps)
            s2_b = linear_entropy(partial_trace(near.matrix, near.dims, "B"))
            assert s2_b == pytest.approx(4 * eps * (1 - eps), rel=1e-3)
            got = linear_classical_correlation(near)
            assert got == pytest.approx(ratio * s2_b, rel=1e-5)
            assert got <= bound * s2_b * (1 + 1e-5)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_jump_below_the_cut_is_within_the_bound(self, d):
        # Below the cut I2_cc reads 0; the value it drops, ratio * S2(rho_B),
        # is at most (2(d-1)/d) 4 eps (1 - eps).
        eps, bound = 5e-11, 2 * (d - 1) / d
        for seed in range(20):
            rho = make_random_rank2(seed, dim_a=d)
            rho_b = partial_trace(rho.matrix, rho.dims, "B")
            ratio = linear_classical_correlation(rho) / linear_entropy(rho_b)
            below = self.filtered(rho, eps)
            s2_b = linear_entropy(partial_trace(below.matrix, below.dims, "B"))
            assert s2_b == pytest.approx(4 * eps * (1 - eps), rel=1e-3)
            assert linear_classical_correlation(below) == 0.0
            assert ratio <= bound
            assert ratio * s2_b <= bound * 4 * eps
