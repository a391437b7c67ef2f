import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, random_density, random_pure_density
from qdiscord.discord import correlation_report
from qdiscord.errors import DimensionMismatch, NotFinite, NotHermitian, NotPositive, OutOfDomain
from qdiscord.linalg import PAULI_Y, partial_trace
from qdiscord.measures import (
    _DOMAIN_SLACK,
    binary_entropy,
    eof_two_qubit,
    f_map,
    linear_entropy,
    tangle_two_qubit,
    unit_interval,
    von_neumann_entropy,
    wootters_concurrence,
)
from qdiscord.states import (
    DensityMatrix,
    make_bell_diagonal,
    make_example1,
    make_horodecki,
    make_random_rank2,
    random_trials,
)

LOG2_3 = math.log2(3.0)


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
    """Raw arrays are validated where they enter, by DensityMatrix, since no
    constructor has seen them."""

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

    # The defects DensityMatrix names beyond shape and Hermiticity.
    DEFECTS = {
        "nan": (np.diag([0.25, 0.25, 0.25, np.nan]), NotFinite,
                "matrix has a NaN or infinite entry"),
        "trace": (np.eye(4) / 2, ValueError, r"matrix trace \(2\+0j\) is not 1"),
        "negative": (np.diag([0.6, 0.5, 0.1, -0.2]), NotPositive,
                     "smallest eigenvalue -2.000e-01 is negative"),
    }
    MEASURES = (von_neumann_entropy, linear_entropy, wootters_concurrence, tangle_two_qubit,
                eof_two_qubit)

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_defective_matrix_raises(self, defect):
        m, error, message = self.DEFECTS[defect]
        for measure in self.MEASURES:
            with pytest.raises(error, match=f"^{message}"):
                measure(m)

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_defective_member_of_a_stack_raises(self, defect):
        m, error, message = self.DEFECTS[defect]
        stack = np.stack([np.eye(4) / 4, m, np.eye(4) / 4])
        for measure in self.MEASURES:
            with pytest.raises(error, match=f"^state 1: {message}"):
                measure(stack)

    def test_empty_stack_raises_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="must not be empty"):
            von_neumann_entropy(np.zeros((0, 2, 2)))

    def test_shape_error_names_the_shape_the_dims_need(self):
        # A raw 2x2 matrix is read as two qubits by the concurrence, and a
        # 0-d array as a 1x1 state by the entropy: each error says what
        # shape those dims would take.
        with pytest.raises(DimensionMismatch, match=r"^matrix shape \(2, 2\) does not match "
                           r"dims \(2, 2\), which need \(4, 4\) or \(N, 4, 4\)$"):
            wootters_concurrence(np.eye(2) / 2)
        with pytest.raises(DimensionMismatch, match=r"^matrix shape \(\) does not match "
                           r"dims \(1, 1\), which need \(1, 1\) or \(N, 1, 1\)$"):
            von_neumann_entropy(np.array(1.0))

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
        got = linear_entropy(partial_trace(make_horodecki(p).matrix, (2, 2), "B"))
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


class TestUnitInterval:
    # measures._DOMAIN_SLACK (1e-12) on both sides, below 0 and above 1:
    # inside it a value snaps to the end, outside it raises.
    @pytest.mark.parametrize("slack", [0.9e-12, 1.1e-12])
    def test_domain_slack_seam(self, slack):
        assert _DOMAIN_SLACK == 1e-12
        for x, end in ((-slack, 0.0), (1.0 + slack, 1.0)):
            if slack > 1e-12:
                with pytest.raises(OutOfDomain, match=r"outside \[0, 1\] by more than 1e-12$"):
                    unit_interval(x, "x")
                with pytest.raises(OutOfDomain):
                    binary_entropy(x)
            else:
                assert unit_interval(x, "x") == end
                assert binary_entropy(x) == 0.0


@settings(deadline=None, max_examples=60)
@given(st.one_of(st.floats(min_value=0.5, max_value=0.95),
                 st.floats(min_value=1.05, max_value=2.0)),
       st.sampled_from([0.0, 1.0]),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=7))
def test_domain_slack_seam_drawn(multiple, end, inside, position):
    # Values in [0, 1], one of them pushed past an end of the interval by a
    # drawn multiple of _DOMAIN_SLACK: below the cut it snaps to that end and
    # the others stay as they are, above it unit_interval raises.
    values = np.array(inside)
    position %= len(values)
    values[position] = end + (1.0 if end else -1.0) * multiple * _DOMAIN_SLACK
    if multiple > 1.0:
        with pytest.raises(OutOfDomain, match=r"outside \[0, 1\] by more than 1e-12$"):
            unit_interval(values, "x")
        return
    expected = np.array(inside)
    expected[position] = end
    np.testing.assert_array_equal(unit_interval(values, "x"), expected)


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
    """``I_mutual`` of the report, the package's one mutual information."""

    def test_product_state(self):
        rho = DensityMatrix((2, 2), np.diag([0.35, 0.35, 0.15, 0.15]).astype(complex))
        assert correlation_report(rho).I_mutual == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        assert correlation_report(make_bell_diagonal(1, -1, 1)).I_mutual == pytest.approx(2.0)

    def test_example1_rank2_point(self):
        got = correlation_report(make_example1(2.0)).I_mutual
        assert got == pytest.approx(8.0 / 3.0 - LOG2_3, abs=1e-12)

    def test_nonnegative(self):
        assert np.all(correlation_report(random_trials(0, range(50))[0]).I_mutual >= -1e-10)


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
        spin_flip = np.kron(PAULI_Y, PAULI_Y)
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
            u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
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
