import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_hermitian, random_pure_density
from qdiscord.errors import DimensionMismatch
from qdiscord.linalg import partial_trace, qubit_eigvalsh
from qdiscord.states import make_horodecki


class TestPartialTrace:
    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho_a = g @ g.conj().T
        rho_a /= np.trace(rho_a).real
        rho_b = np.diag([0.7, 0.3]).astype(complex)
        prod = np.kron(rho_a, rho_b)
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

    @pytest.mark.parametrize("dims", [(2.9, 2), (2, 2.0), ("2", 2), (2, 2, 1), None, (-2, -2)])
    def test_dims_that_are_not_two_positive_integers_raise(self, dims):
        # 2.9 once read as int(2.9) == 2 and traced I/4 to I/2.
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4) / 4, dims, "A")

    def test_numpy_integer_dims_are_accepted(self):
        reduced = partial_trace(np.eye(4) / 4, (np.int64(2), np.int32(2)), "A")
        np.testing.assert_array_equal(reduced, np.eye(2) / 2)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_partial_trace_then_trace_equals_trace(seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, 4)
    assert np.trace(partial_trace(m, (2, 2), "A")) == pytest.approx(
        np.trace(m), abs=1e-12
    )


class TestQubitEigvalsh:
    """The closed-form 2x2 spectrum against LAPACK's, in its ascending order."""

    @staticmethod
    def _matches_eigvalsh(m, atol=2e-15):
        got = qubit_eigvalsh(m)
        assert got.shape == m.shape[:-1]
        np.testing.assert_allclose(got, np.linalg.eigvalsh(m), rtol=0, atol=atol)

    def test_random_states(self):
        rng = np.random.default_rng(11)
        self._matches_eigvalsh(np.stack([random_density(rng, 2) for _ in range(200)]))

    def test_pure_states(self):
        rng = np.random.default_rng(12)
        pure = np.stack([random_pure_density(rng, 2) for _ in range(200)])
        self._matches_eigvalsh(pure)
        assert np.max(np.abs(qubit_eigvalsh(pure) - [0.0, 1.0])) <= 2e-15

    def test_diagonal_states(self):
        weights = np.linspace(0.0, 1.0, 11)
        diagonal = np.zeros((11, 2, 2), dtype=complex)
        diagonal[:, 0, 0], diagonal[:, 1, 1] = weights, 1.0 - weights
        self._matches_eigvalsh(diagonal, atol=2e-16)

    def test_degenerate_state(self):
        np.testing.assert_array_equal(qubit_eigvalsh(np.eye(2, dtype=complex) / 2), [0.5, 0.5])

    def test_complex_off_diagonal(self):
        # |+i><+i| has off-diagonals -+i/2 and the spectrum {0, 1} exactly.
        m = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        np.testing.assert_array_equal(qubit_eigvalsh(m), [0.0, 1.0])
        self._matches_eigvalsh(np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0.7]]))

    def test_reads_the_lower_triangle_as_eigvalsh_does(self):
        rng = np.random.default_rng(13)
        m = np.stack([random_density(rng, 2) for _ in range(20)])
        m[:, 0, 1] = 5.0 + 3.0j
        self._matches_eigvalsh(m)
