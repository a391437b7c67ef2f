import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from qdiscord.errors import DimensionMismatch
from qdiscord.linalg import PAULI_Z, partial_trace, tensor
from qdiscord.states import make_horodecki


class TestTensor:
    def test_identity(self):
        np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_pauli_zz(self):
        np.testing.assert_allclose(
            tensor(PAULI_Z, PAULI_Z), np.diag([1.0, -1.0, -1.0, 1.0])
        )

    def test_associative_on_random_triples(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c = (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(3)
            )
            left = tensor(tensor(a, b), c)
            right = tensor(a, tensor(b, c))
            assert np.max(np.abs(left - right)) < 1e-14

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(6)
        a, b, c, d = (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(4)
        )
        assert np.allclose(tensor(a, b) @ tensor(c, d), tensor(a @ c, b @ d))


class TestPartialTrace:
    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho_a = g @ g.conj().T
        rho_a /= np.trace(rho_a).real
        rho_b = np.diag([0.7, 0.3]).astype(complex)
        prod = tensor(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(prod, (2, 2), "A"), rho_a, atol=1e-14)
        np.testing.assert_allclose(partial_trace(prod, (2, 2), "B"), rho_b, atol=1e-14)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_horodecki_marginal(self, p):
        rho = make_horodecki(p)
        got = partial_trace(rho.matrix, (2, 2), "B")
        np.testing.assert_allclose(got, np.diag([1 - p / 2, p / 2]), atol=1e-14)

    def test_bell_marginal_maximally_mixed(self):
        bell = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                bell[i, j] = 0.5
        np.testing.assert_allclose(
            partial_trace(bell, (2, 2), "B"), np.eye(2) / 2, atol=1e-15
        )

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        m = random_hermitian(rng, 6)
        for keep, dims in (("A", (3, 2)), ("B", (3, 2)), ("A", (2, 3))):
            reduced = partial_trace(m, dims, keep)
            assert np.trace(reduced) == pytest.approx(np.trace(m), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), (3, 2), "A")


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_partial_trace_then_trace_equals_trace(seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, 4)
    assert np.trace(partial_trace(m, (2, 2), "A")) == pytest.approx(
        np.trace(m), abs=1e-12
    )
