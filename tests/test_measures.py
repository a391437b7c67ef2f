import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, random_density, random_pure_density
from qdiscord.errors import DimensionMismatch, NotHermitian, OutOfDomain
from qdiscord.linalg import PAULI_Y, tensor
from qdiscord.measures import (
    binary_entropy,
    eof_two_qubit,
    f_map,
    linear_entropy,
    mutual_information,
    tangle_two_qubit,
    von_neumann_entropy,
    wootters_concurrence,
)
from qdiscord.states import (
    DensityMatrix,
    make_bell_diagonal,
    make_example1,
    make_horodecki,
    make_random_rank2,
    purify,
    reduced,
    traced_over_b,
)

LOG2_3 = math.log2(3.0)


def reference_h(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def reference_f(x):
    return reference_h((1 + math.sqrt(1 - x)) / 2)


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_example1_rank2_point(self):
        # spectrum (2/3, 1/3, 0, 0), entropy log2(3) - 2/3
        got = von_neumann_entropy(make_example1(2.0))
        assert got == pytest.approx(LOG2_3 - 2.0 / 3.0, abs=1e-12)

    def test_bounded_by_log_dim(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            s = von_neumann_entropy(random_density(rng, 4))
            assert -1e-12 <= s <= 2.0 + 1e-12


class TestRawArrayInput:
    """Raw arrays are checked where they enter, since no constructor has."""

    def test_non_hermitian_matrix_raises(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        for measure in (von_neumann_entropy, linear_entropy, wootters_concurrence,
                        tangle_two_qubit, eof_two_qubit):
            with pytest.raises(NotHermitian):
                measure(m)

    def test_non_hermitian_member_of_a_stack_raises(self):
        stack = np.stack([np.eye(4, dtype=complex) / 4] * 3)
        stack[2, 3, 0] = 1e-9
        with pytest.raises(NotHermitian):
            von_neumann_entropy(stack)
        with pytest.raises(NotHermitian):
            wootters_concurrence(stack)

    def test_non_square_raises_dimension_mismatch(self):
        for m in (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2, 2))):
            with pytest.raises(DimensionMismatch):
                von_neumann_entropy(m)
            with pytest.raises(DimensionMismatch):
                wootters_concurrence(m)

    def test_rounding_level_asymmetry_is_accepted(self):
        rng = np.random.default_rng(18)
        m = random_density(rng, 4)
        m[0, 1] += 1e-12
        assert von_neumann_entropy(m) == pytest.approx(
            von_neumann_entropy((m + m.conj().T) / 2), abs=1e-10
        )


class TestLinearEntropy:
    def test_maximally_mixed(self):
        assert linear_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_pure_state(self):
        rng = np.random.default_rng(1)
        assert linear_entropy(random_pure_density(rng, 4)) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_horodecki_marginal(self, p):
        got = linear_entropy(reduced(make_horodecki(p), "B"))
        assert got == pytest.approx(p * (2 - p), abs=1e-12)

    def test_qudit_range(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 4):
            for _ in range(10):
                s2 = linear_entropy(random_density(rng, d))
                assert -1e-12 <= s2 <= 2.0 * (d - 1) / d + 1e-12

    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            rhos = [random_density(rng, d) for _ in range(10)]
            np.testing.assert_allclose(
                linear_entropy(np.stack(rhos)),
                [linear_entropy(rho) for rho in rhos],
                rtol=0, atol=1e-15,
            )


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            binary_entropy(-0.1)
        with pytest.raises(OutOfDomain):
            binary_entropy(1.1)

    @settings(deadline=None, max_examples=100)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


class TestFMap:
    def test_endpoints(self):
        assert f_map(0.0) == 0.0
        assert f_map(1.0) == pytest.approx(1.0)

    def test_midpoint(self):
        assert f_map(0.5) == pytest.approx(0.6008760366928562, abs=1e-15)

    def test_equals_composition_on_grid(self):
        for x in np.linspace(0.0, 1.0, 1001):
            assert f_map(float(x)) == pytest.approx(
                binary_entropy((1 + math.sqrt(1 - x)) / 2), abs=1e-14
            )

    @settings(deadline=None, max_examples=80)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert f_map(lo) <= f_map(hi) + 1e-12

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            f_map(1.5)


class TestMutualInformation:
    def test_product_state(self):
        rho = DensityMatrix((2, 2), np.diag([0.35, 0.35, 0.15, 0.15]).astype(complex))
        assert mutual_information(rho) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        assert mutual_information(make_bell_diagonal(1, -1, 1)) == pytest.approx(2.0)

    def test_example1_rank2_point(self):
        got = mutual_information(make_example1(2.0))
        assert got == pytest.approx(8.0 / 3.0 - LOG2_3, abs=1e-12)

    def test_nonnegative(self):
        for seed in range(50):
            assert mutual_information(make_random_rank2(seed)) >= -1e-10


class TestWoottersConcurrence:
    def test_bell_state(self):
        assert wootters_concurrence(make_bell_diagonal(1, -1, 1)) == pytest.approx(1.0)

    def test_product_state(self):
        rho = DensityMatrix((2, 2), np.diag([1.0, 0, 0, 0]).astype(complex))
        assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_horodecki_equals_p(self):
        for p in np.linspace(0.0, 1.0, 11):
            got = wootters_concurrence(make_horodecki(float(p)))
            assert got == pytest.approx(float(p), abs=1e-10)

    def test_matches_literal_spinflip_eigenvalues(self):
        # reference: mu_i = eigenvalues of rho (YY) rho* (YY), descending
        spin_flip = tensor(PAULI_Y, PAULI_Y)
        rng = np.random.default_rng(12)
        for _ in range(60):
            m = random_density(rng, 4)
            mu = np.linalg.eigvals(m @ spin_flip @ m.conj() @ spin_flip)
            mu = np.sort(np.sqrt(np.abs(mu.real)))[::-1]
            ref = max(0.0, mu[0] - mu[1] - mu[2] - mu[3])
            assert wootters_concurrence(m) == pytest.approx(ref, abs=1e-8)

    def test_pure_state_definition_tie_in(self):
        # for pure two-qubit states C^2 equals S2 of a marginal
        rng = np.random.default_rng(13)
        for _ in range(40):
            m = random_pure_density(rng, 4)
            c = wootters_concurrence(m)
            s2_a = linear_entropy(np.einsum("abcb->ac", m.reshape(2, 2, 2, 2)))
            assert c * c == pytest.approx(s2_a, abs=1e-10)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(14)
        for seed in range(20):
            rho = make_random_rank2(seed)
            u = tensor(haar_unitary(rng, 2), haar_unitary(rng, 2))
            rotated = u @ rho.matrix @ u.conj().T
            assert wootters_concurrence(rotated) == pytest.approx(
                wootters_concurrence(rho), abs=1e-10
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            wootters_concurrence(np.eye(3) / 3)


class TestTangleAndEof:
    def test_bell_state(self):
        bell = make_bell_diagonal(1, -1, 1)
        assert tangle_two_qubit(bell) == pytest.approx(1.0)
        assert eof_two_qubit(bell) == pytest.approx(1.0)

    def test_separable_state(self):
        rho = DensityMatrix((2, 2), np.diag([0.5, 0, 0, 0.5]).astype(complex))
        assert tangle_two_qubit(rho) == pytest.approx(0.0, abs=1e-12)
        assert eof_two_qubit(rho) == pytest.approx(0.0, abs=1e-12)

    def test_tangle_of_purified_horodecki(self):
        # tau(rho_AC) + I2_cc = S2(rho_A): 0.75 - 0.25 leaves 0.5 at p = 1/2
        rho_ac = traced_over_b(purify(make_horodecki(0.5)))
        assert tangle_two_qubit(rho_ac) == pytest.approx(0.5, abs=1e-8)

    def test_eof_at_concurrence_0p6(self):
        rho = make_horodecki(0.6)  # concurrence p = 0.6
        assert eof_two_qubit(rho) == pytest.approx(0.4689955935892811, abs=1e-10)

    def test_eof_never_exceeds_f_of_tangle(self):
        for seed in range(40):
            rho = make_random_rank2(seed)
            assert eof_two_qubit(rho) <= f_map(tangle_two_qubit(rho)) + 1e-10


class TestPurificationSymmetry:
    def test_marginal_entropies_equal_for_pure_states(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            m = random_pure_density(rng, 4)
            r = m.reshape(2, 2, 2, 2)
            s_a = von_neumann_entropy(np.einsum("abcb->ac", r))
            s_b = von_neumann_entropy(np.einsum("abad->bd", r))
            assert s_a == pytest.approx(s_b, abs=1e-10)

    def test_pure_two_qubit_eof_equals_marginal_entropy(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            m = random_pure_density(rng, 4)
            s_a = von_neumann_entropy(np.einsum("abcb->ac", m.reshape(2, 2, 2, 2)))
            assert eof_two_qubit(m) == pytest.approx(s_a, abs=1e-10)

    def test_f_of_s2_equals_entropy_for_pure_marginals(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            m = random_pure_density(rng, 4)
            rho_a = np.einsum("abcb->ac", m.reshape(2, 2, 2, 2))
            assert f_map(linear_entropy(rho_a)) == pytest.approx(
                von_neumann_entropy(rho_a), abs=1e-10
            )
