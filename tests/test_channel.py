import math

import numpy as np
import pytest

from conftest import haar_unitary, random_density, stack_of
from qdiscord.channel import (
    apply_channel,
    bloch_of,
    bloch_state,
    extract_channel,
    gell_mann_basis,
    linear_classical_correlation,
    reassemble_state,
    singular_values,
)
from qdiscord.errors import DegenerateMarginal, DimensionMismatch, OutOfDomain
from qdiscord.linalg import PAULIS, tensor
from qdiscord.measures import linear_entropy
from qdiscord.states import (
    DensityMatrix,
    make_bell_diagonal,
    make_example1,
    make_horodecki,
    make_random_rank2,
    make_rho2,
    reduced,
)


class TestGellMannBasis:
    def test_qubit_basis_is_pauli_ordered(self):
        basis = gell_mann_basis(2)
        assert basis.dimension == 2
        for got, expected in zip(basis.matrices, PAULIS):
            np.testing.assert_allclose(got, expected)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthogonality_and_tracelessness(self, d):
        basis = gell_mann_basis(d)
        mats = basis.matrices
        assert mats.shape == (d * d - 1, d, d)
        for a in range(len(mats)):
            assert abs(np.trace(mats[a])) < 1e-12
            assert np.max(np.abs(mats[a] - mats[a].conj().T)) < 1e-12
            for b in range(len(mats)):
                overlap = np.trace(mats[a] @ mats[b]).real
                expected = 2.0 if a == b else 0.0
                assert overlap == pytest.approx(expected, abs=1e-12)

    def test_unsupported_dimension(self):
        with pytest.raises(OutOfDomain):
            gell_mann_basis(5)


class TestBlochCoefficients:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_mixed_is_origin(self, d):
        basis = gell_mann_basis(d)
        np.testing.assert_allclose(
            bloch_of(np.eye(d) / d, basis), np.zeros(d * d - 1), atol=1e-14
        )

    def test_computational_zero_points_up(self):
        basis = gell_mann_basis(2)
        np.testing.assert_allclose(
            bloch_of(np.diag([1.0, 0.0]), basis), [0.0, 0.0, 1.0], atol=1e-14
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_roundtrip_random_states(self, d):
        rng = np.random.default_rng(d)
        basis = gell_mann_basis(d)
        rhos = [random_density(rng, d) for _ in range(25)]
        rs = [bloch_of(rho, basis) for rho in rhos]
        for rho, r in zip(rhos, rs):
            np.testing.assert_allclose(bloch_state(r, basis), rho, atol=1e-12)
        np.testing.assert_allclose(bloch_state(np.stack(rs), basis), rhos, atol=1e-12)

    def test_qubit_bloch_norm_within_ball(self):
        rng = np.random.default_rng(21)
        basis = gell_mann_basis(2)
        for _ in range(50):
            r = bloch_of(random_density(rng, 2), basis)
            assert np.linalg.norm(r) <= 1.0 + 1e-10

    def test_bloch_linear_entropy_identity(self):
        # S2((I + r.gamma)/d) = (2d^2 - 2d - 4|r|^2)/d^2 for qubits and qutrits
        rng = np.random.default_rng(22)
        for d in (2, 3):
            basis = gell_mann_basis(d)
            for _ in range(25):
                rho = random_density(rng, d)
                r = bloch_of(rho, basis)
                expected = (2 * d * d - 2 * d - 4 * np.dot(r, r)) / (d * d)
                assert linear_entropy(rho) == pytest.approx(expected, abs=1e-10)


class TestExtractChannel:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 1.0])
    def test_horodecki_singular_values(self, p):
        ch = extract_channel(make_horodecki(p))
        s = math.sqrt(p / (2 - p))
        expected = sorted([s, s, p / (2 - p)], reverse=True)
        np.testing.assert_allclose(singular_values(ch), expected, atol=1e-12)

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 1.0, 1.7, 2.0])
    def test_example1_singular_values(self, x):
        ch = extract_channel(make_example1(x))
        expected = sorted([1 / 3, 1 / 3, abs(1 - 2 * x) / 3], reverse=True)
        np.testing.assert_allclose(singular_values(ch), expected, atol=1e-12)

    def test_constant_channel_for_product_state(self):
        rho = DensityMatrix((2, 2), np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex))
        ch = extract_channel(rho)
        assert np.max(np.abs(ch.linear_part)) < 1e-12

    def test_rank_one_marginal_raises(self):
        with pytest.raises(DegenerateMarginal):
            extract_channel(make_horodecki(0.0))

    def test_needs_qubit_on_b(self):
        rng = np.random.default_rng(23)
        rho = DensityMatrix((2, 3), random_density(rng, 6))
        with pytest.raises(DimensionMismatch):
            extract_channel(rho)

    def test_affine_consistency(self):
        # L r + l must reproduce the coefficients of directly computed outputs
        basis2 = gell_mann_basis(2)
        for seed in range(10):
            rho = make_random_rank2(seed)
            ch = extract_channel(rho)
            basis_out = gell_mann_basis(ch.output_dim)
            rng = np.random.default_rng(seed)
            for _ in range(5):
                qubit_in = random_density(rng, 2)
                r_in = bloch_of(qubit_in, basis2)
                image = apply_channel(ch, qubit_in)
                predicted = ch.linear_part @ r_in + ch.offset
                np.testing.assert_allclose(
                    bloch_of(image, basis_out), predicted, atol=1e-10
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
            ch = extract_channel(rho)
            assert np.max(np.abs(reassemble_state(ch) - rho.matrix)) < 1e-9

    def test_reassembly_roundtrip_qutrit_output(self):
        for seed in range(10):
            rho = make_random_rank2(seed, dim_a=3)
            ch = extract_channel(rho)
            assert np.max(np.abs(reassemble_state(ch) - rho.matrix)) < 1e-9


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
            s2_b = linear_entropy(reduced(rho, "B"))
            assert linear_classical_correlation(rho) <= s2_b + 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(25)
        for seed in range(20):
            rho = make_random_rank2(seed)
            u = tensor(haar_unitary(rng, 2), haar_unitary(rng, 2))
            rotated = DensityMatrix((2, 2), u @ rho.matrix @ u.conj().T)
            assert linear_classical_correlation(rotated) == pytest.approx(
                linear_classical_correlation(rho), abs=1e-9
            )

    def test_value_ignores_offset(self):
        # Adding (delta . gamma / d) x rho_B shifts only the channel offset;
        # rho_B and the linear part, hence I2_cc, stay the same.
        rho = make_bell_diagonal(0.3, -0.5, 0.1)
        rho_b = reduced(rho, "B")
        shifted = DensityMatrix((2, 2), rho.matrix + 0.05 * tensor(PAULIS[2], rho_b))
        base, moved = extract_channel(rho), extract_channel(shifted)
        assert np.max(np.abs(moved.offset - base.offset)) > 0.05
        np.testing.assert_allclose(
            singular_values(moved), singular_values(base), atol=1e-12
        )
        assert linear_classical_correlation(shifted) == pytest.approx(
            linear_classical_correlation(rho), abs=1e-12
        )

    def test_qutrit_output_prefactor(self):
        # at d=3 the 4/d^2 prefactor is 4/9; check the formula wiring directly
        rho = make_random_rank2(3, dim_a=3)
        ch = extract_channel(rho)
        s2_b = linear_entropy(reduced(rho, "B"))
        gram = ch.linear_part.T @ ch.linear_part
        lam_max = float(np.linalg.eigvalsh(gram)[-1])
        assert linear_classical_correlation(rho) == pytest.approx(
            4.0 / 9.0 * lam_max * s2_b, abs=1e-12
        )


def eigenframe_i2_cc(rho):
    """Reference I2_cc from the eigenframe channel: (4/d^2) s_max(L)^2 S2(rho_B)."""
    d = rho.dim_a
    s_max = singular_values(extract_channel(rho))[0]
    return 4.0 / (d * d) * s_max * s_max * linear_entropy(reduced(rho, "B"))


class TestFrameFreeCore:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_eigenframe_reference(self, d):
        states = make_random_rank2(range(500), dim_a=d)
        got = linear_classical_correlation(states)
        expected = [eigenframe_i2_cc(rho) for rho in states]
        assert got.shape == (500,)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    def test_batch_equals_batches_of_one(self):
        for d in (2, 3, 4):
            same_dims = make_random_rank2([s for s in range(60) if 2 + s % 3 == d], dim_a=d)
            batch = linear_classical_correlation(same_dims)
            singles = [linear_classical_correlation(same_dims[i : i + 1])[0]
                       for i in range(len(same_dims))]
            np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-14)
            assert isinstance(linear_classical_correlation(same_dims[0]), float)

    def test_degenerate_marginal_frame_free_matches_any_eigenframe(self):
        # rho_B = I/2 for Bell-diagonal states, so every basis diagonalizes it
        # and the eigenframe channel is a genuine choice. The frame-free value
        # must agree with the singular values read in any of those frames.
        rho = make_bell_diagonal(0.7, -0.4, 0.2)
        got = linear_classical_correlation(rho)
        assert got == pytest.approx(0.49, abs=1e-12)
        rng = np.random.default_rng(24)
        for _ in range(5):
            w = tensor(haar_unitary(rng, 2), haar_unitary(rng, 2))
            rotated = DensityMatrix((2, 2), w @ rho.matrix @ w.conj().T)
            assert linear_classical_correlation(rotated) == pytest.approx(got, abs=1e-12)
            assert eigenframe_i2_cc(rotated) == pytest.approx(got, abs=1e-12)

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
        wide = make_random_rank2([0, 1], dim_a=3)
        with pytest.raises(DimensionMismatch, match=r"shape \(2, 6, 6\) does not match dims \(2, 2\)"):
            DensityMatrix((2, 2), wide.matrix)
        with pytest.raises(DimensionMismatch, match="must not be empty"):
            DensityMatrix((2, 2), np.zeros((0, 4, 4)))
        with pytest.raises(TypeError, match="expected a DensityMatrix, got list"):
            linear_classical_correlation([make_random_rank2(0)])

    @pytest.mark.parametrize("dims", [(2, 1), (1, 2), (2, 3), (5, 2)])
    def test_unsupported_shapes_rejected_at_entry(self, dims):
        n = dims[0] * dims[1]
        rho = DensityMatrix(dims, np.eye(n, dtype=complex) / n)
        with pytest.raises(DimensionMismatch, match=r"\(dA, 2\) with dA in \{2, 3, 4\}"):
            linear_classical_correlation(rho)

    def test_rho2_family_matches_reference(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            x, theta, eta = rng.uniform(0, 1), *rng.uniform(0, 2 * math.pi, 2)
            rho = make_rho2(x, theta, eta)
            if min(np.linalg.eigvalsh(reduced(rho, "B"))) <= 1e-10:
                continue
            assert linear_classical_correlation(rho) == pytest.approx(
                eigenframe_i2_cc(rho), abs=1e-13
            )


class TestBatchedChannel:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_batch_equals_batches_of_one(self, d):
        states = make_random_rank2(range(40), dim_a=d)
        batch = extract_channel(states)
        rebuilt = reassemble_state(batch)
        assert batch.linear_part.shape == (40, d * d - 1, 3)
        assert rebuilt.shape == (40, 2 * d, 2 * d)
        qubit_in = random_density(np.random.default_rng(d), 2)
        images = apply_channel(batch, qubit_in)
        for n, rho in enumerate(states):
            one = extract_channel(rho)
            for field in ("linear_part", "offset", "marginal_eigenvalues", "marginal_basis"):
                np.testing.assert_array_equal(getattr(batch, field)[n], getattr(one, field))
            np.testing.assert_allclose(rebuilt[n], reassemble_state(one), rtol=0, atol=1e-15)
            np.testing.assert_allclose(
                images[n], apply_channel(one, qubit_in), rtol=0, atol=1e-15
            )
        assert np.max(np.abs(rebuilt - states.matrix)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rank_one_marginal_member_is_nan_in_a_batch(self, d):
        rng = np.random.default_rng(30 + d)
        product = DensityMatrix(
            (d, 2), np.kron(random_density(rng, d), np.diag([1.0, 0.0]))
        )
        states = stack_of(make_random_rank2(0, dim_a=d), product, make_random_rank2(1, dim_a=d))
        batch = extract_channel(states)
        assert np.isnan(batch.linear_part[1]).all() and np.isnan(batch.offset[1]).all()
        assert not np.isnan(batch.linear_part[[0, 2]]).any()
        rebuilt = reassemble_state(batch)
        assert np.isnan(rebuilt[1]).all()
        for n in (0, 2):
            np.testing.assert_allclose(
                rebuilt[n], reassemble_state(extract_channel(states[n])), rtol=0, atol=1e-15
            )
        with pytest.raises(DegenerateMarginal):
            extract_channel(product)
        assert np.isnan(extract_channel(product[:]).linear_part).all()


class TestRankOneMarginalContinuity:
    """I2_cc <= (2(d-1)/d) S2(rho_B), from |r|^2 <= d(d-1)/2 for d-level Bloch
    vectors; at d=2 that is I2_cc <= S2(rho_B) = 4 eps (1 - eps)."""

    @staticmethod
    def filtered(rho, eps):
        # A local filter on B that leaves rho_B with smaller eigenvalue eps.
        # It keeps the channel, so I2_cc / S2(rho_B) is unchanged.
        lam, v = np.linalg.eigh(reduced(rho, "B"))
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
            ratio = linear_classical_correlation(rho) / linear_entropy(reduced(rho, "B"))
            near = self.filtered(rho, eps)
            s2_b = linear_entropy(reduced(near, "B"))
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
            ratio = linear_classical_correlation(rho) / linear_entropy(reduced(rho, "B"))
            below = self.filtered(rho, eps)
            s2_b = linear_entropy(reduced(below, "B"))
            assert s2_b == pytest.approx(4 * eps * (1 - eps), rel=1e-3)
            assert linear_classical_correlation(below) == 0.0
            assert ratio <= bound
            assert ratio * s2_b <= bound * 4 * eps
