import math

import numpy as np
import pytest

from conftest import haar_unitary, random_density
from qdiscord.channel import (
    apply_channel,
    bloch_of,
    bloch_state,
    extract_channel,
    gell_mann_basis,
    linear_cc_from_channel,
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

    def test_degenerate_marginal_basis_choice_changes_only_frame(self):
        # rho_B = I/2 for Bell-diagonal states, so any unitary basis works;
        # the singular values of L must not depend on the choice.
        rho = make_bell_diagonal(0.7, -0.4, 0.2)
        base = extract_channel(rho)
        rng = np.random.default_rng(24)
        lam = np.array([0.5, 0.5])
        for _ in range(5):
            w = haar_unitary(rng, 2)
            alt = extract_channel(rho, marginal_basis=(lam, w))
            np.testing.assert_allclose(
                singular_values(alt), singular_values(base), atol=1e-9
            )
            assert np.max(np.abs(reassemble_state(alt) - rho.matrix)) < 1e-9

    def test_marginal_basis_must_diagonalize(self):
        rho = make_horodecki(0.5)
        bad = (np.array([0.75, 0.25]), haar_unitary(np.random.default_rng(1), 2))
        with pytest.raises(DimensionMismatch):
            extract_channel(rho, marginal_basis=bad)


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
        import dataclasses

        rho = make_horodecki(0.5)
        ch = extract_channel(rho)
        s2_b = linear_entropy(reduced(rho, "B"))
        shifted = dataclasses.replace(ch, offset=ch.offset + 1.0)
        assert linear_cc_from_channel(shifted, s2_b) == linear_cc_from_channel(ch, s2_b)

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
