import math

import numpy as np
import pytest
from conftest import stack_of
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscord.discord import correlation_report
from qdiscord.errors import (
    DimensionMismatch,
    NotFinite,
    NotPositive,
    OutOfDomain,
    StateFormatError,
)
from qdiscord.measures import von_neumann_entropy
from qdiscord.oracles import decomposition_linear_cc, projective_classical_correlation
from qdiscord.states import (
    DensityMatrix,
    dump_state,
    load_state,
    make_bell_diagonal,
    make_example1,
    make_horodecki,
    make_random_rank2,
    make_rho2,
    purify,
    random_unitary,
    reduced,
    state_from_json_dict,
    state_to_json_dict,
    traced_over_b,
    traced_over_c,
    trial_seed,
)

BELL_PHI_PLUS = np.zeros((4, 4), dtype=complex)
for _i in (0, 3):
    for _j in (0, 3):
        BELL_PHI_PLUS[_i, _j] = 0.5


class TestBellDiagonal:
    def test_zero_coefficients_maximally_mixed(self):
        rho = make_bell_diagonal(0, 0, 0)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4)

    def test_bell_state_signature(self):
        rho = make_bell_diagonal(1, -1, 1)
        np.testing.assert_allclose(rho.matrix, BELL_PHI_PLUS, atol=1e-15)

    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.9])
    def test_two_bell_mixture_is_rank_two(self, lam):
        rho = make_bell_diagonal(1.0, 1 - 2 * lam, 2 * lam - 1)
        values = np.linalg.eigvalsh(rho.matrix)
        np.testing.assert_allclose(values, sorted([lam, 1 - lam, 0, 0]), atol=1e-12)
        assert correlation_report(rho).rank == 2

    def test_invalid_coefficients_raise(self):
        with pytest.raises(NotPositive):
            make_bell_diagonal(1, 1, 1)

    def test_maximally_mixed_marginals(self):
        rho = make_bell_diagonal(0.2, -0.4, 0.1)
        np.testing.assert_allclose(reduced(rho, "A"), np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(reduced(rho, "B"), np.eye(2) / 2, atol=1e-14)


class TestHorodecki:
    def test_endpoints(self):
        zero = make_horodecki(0.0)
        assert zero.matrix[0, 0] == pytest.approx(1.0)
        one = make_horodecki(1.0)
        psi_plus = np.zeros((4, 4), dtype=complex)
        for i in (1, 2):
            for j in (1, 2):
                psi_plus[i, j] = 0.5
        np.testing.assert_allclose(one.matrix, psi_plus)

    def test_marginal_linear_entropy_midpoint(self):
        from qdiscord.measures import linear_entropy

        assert linear_entropy(reduced(make_horodecki(0.5), "A")) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            make_horodecki(1.5)


class TestExample1:
    def test_rank_two_at_endpoint(self):
        values = np.linalg.eigvalsh(make_example1(2.0).matrix)
        np.testing.assert_allclose(values, [0, 0, 1 / 3, 2 / 3], atol=1e-12)

    def test_spectrum_at_zero(self):
        values = np.linalg.eigvalsh(make_example1(0.0).matrix)
        np.testing.assert_allclose(values, [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    @pytest.mark.parametrize("x", np.linspace(0, 2, 9))
    def test_spectrum_formula_and_trace(self, x):
        rho = make_example1(float(x))
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-14)
        expected = sorted([(2 - x) / 6, (2 - x) / 6, (2 + x) / 6, x / 6])
        np.testing.assert_allclose(np.linalg.eigvalsh(rho.matrix), expected, atol=1e-12)

    def test_marginal_b_maximally_mixed(self):
        for x in (0.0, 0.7, 2.0):
            np.testing.assert_allclose(
                reduced(make_example1(x), "B"), np.eye(2) / 2, atol=1e-14
            )

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            make_example1(2.5)


class TestRho2:
    def test_matches_horodecki_on_grid(self):
        for p in np.linspace(0, 1, 101):
            direct = make_horodecki(float(p))
            via_rho2 = make_rho2(1 - float(p), math.pi / 2, math.pi / 4)
            assert np.max(np.abs(direct.matrix - via_rho2.matrix)) < 1e-14

    def test_pure_limit(self):
        rho = make_rho2(1.0, 0.3, 1.1)
        assert correlation_report(rho).rank == 1

    def test_equal_mixture_entropy(self):
        assert von_neumann_entropy(
            make_rho2(0.5, math.pi / 4, math.pi / 4)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            make_rho2(1.2, 0.0, 0.0)
        with pytest.raises(OutOfDomain):
            make_rho2(0.5, 7.0, 0.0)


class TestRandomRank2:
    def test_deterministic_in_seed(self):
        a = make_random_rank2(123)
        b = make_random_rank2(123)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_rank_exactly_two(self):
        for seed in range(50):
            assert correlation_report(make_random_rank2(seed)).rank == 2

    @pytest.mark.parametrize("dim_a", [2, 3, 4])
    def test_constructor_invariants_hold(self, dim_a):
        # DensityMatrix validates Hermiticity, trace and positivity on build;
        # the loop would raise if any seed violated them.
        for seed in range(1000 if dim_a == 2 else 100):
            rho = make_random_rank2(seed, dim_a)
            assert rho.dims == (dim_a, 2)

    def test_bad_dimension(self):
        with pytest.raises(OutOfDomain):
            make_random_rank2(0, dim_a=5)

    def test_trial_seed_substreams_differ(self):
        assert trial_seed(1, 0) != trial_seed(1, 1)
        assert trial_seed(1, 0) != trial_seed(2, 0)
        assert trial_seed(5, 3) == trial_seed(5, 3)


class TestRandomUnitary:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_seed_sequence_matches_per_seed_calls(self, dim):
        seeds = [trial_seed(11, t, 101) for t in range(200)]
        stack = random_unitary(seeds, dim)
        singles = [random_unitary(seed, dim) for seed in seeds]
        assert stack.shape == (200, dim, dim)
        assert singles[0].shape == (dim, dim)
        np.testing.assert_allclose(stack, singles, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_unitary_and_deterministic(self, dim):
        u = random_unitary(7, dim)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-14)
        np.testing.assert_array_equal(u, random_unitary(7, dim))
        assert not np.allclose(u, random_unitary(8, dim))


class TestPurify:
    def test_pure_input_gets_trivial_ancilla(self):
        pur = purify(make_rho2(1.0, 0.4, 0.0))
        assert pur.dims == (2, 2, 1)
        np.testing.assert_allclose(
            traced_over_c(pur), make_rho2(1.0, 0.4, 0.0).matrix, atol=1e-10
        )

    def test_example1_roundtrip(self):
        rho = make_example1(2.0)
        pur = purify(rho)
        assert pur.state_vector.size == 8
        assert np.linalg.norm(pur.state_vector) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(traced_over_c(pur), rho.matrix, atol=1e-10)

    def test_ancilla_entropy_matches_state_entropy(self):
        rho = make_horodecki(0.5)
        pur = purify(rho)
        d_a, d_b, d_c = pur.dims
        t = pur.state_vector.reshape(d_a * d_b, d_c)
        rho_c = t.conj().T @ t
        assert von_neumann_entropy(rho_c) == pytest.approx(1.0, abs=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_roundtrip_families_and_random(self):
        states = [
            make_bell_diagonal(1, 0.2, -0.2),
            make_horodecki(0.3),
            make_example1(1.3),
            make_rho2(0.4, 1.0, 2.0),
        ] + [make_random_rank2(s) for s in range(25)]
        for rho in states:
            assert np.max(np.abs(traced_over_c(purify(rho)) - rho.matrix)) < 1e-10


def _with_third_eigenvalue(rho, eps):
    """rho with weight eps moved onto a vector outside its rank-2 support."""
    outside = np.linalg.eigh(rho.matrix)[1][:, 0]
    return DensityMatrix(rho.dims, (1 - eps) * rho.matrix + eps * np.outer(outside, outside.conj()))


class TestBatchedPurify:
    STATES = stack_of(make_random_rank2(range(6)), make_horodecki(0.3), make_example1(2.0),
                      make_rho2(1.0, 0.4, 0.0))

    def test_batch_reproduces_every_state(self):
        pur = purify(self.STATES)
        assert pur.dims == (2, 2, 2)
        assert pur.state_vector.shape == (9, 8)
        np.testing.assert_allclose(np.linalg.norm(pur.state_vector, axis=1), 1.0, atol=1e-12)
        for rho, back in zip(self.STATES, traced_over_c(pur)):
            assert np.max(np.abs(back - rho.matrix)) < 1e-10

    def test_rank1_member_gets_zero_weight_on_its_extra_level(self):
        pur = purify(self.STATES)
        assert pur.eigenvalues.shape == (9, 2)
        assert pur.eigenvalues[-1, 1] == 0.0
        assert np.all(pur.eigenvalues[:-1, 1] > 1e-10)
        rho_ac = traced_over_b(pur)[-1]
        # a pure source leaves C unentangled: rho_AC = rho_A x |0><0|
        expected = np.kron(reduced(self.STATES[-1], "A"), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(rho_ac, expected, atol=1e-12)

    def test_batch_rho_ac_spectra_match_single_purifications(self):
        batch = traced_over_b(purify(self.STATES))
        for rho, rho_ac in zip(self.STATES, batch):
            single = traced_over_b(purify(rho))
            want = np.sort(np.linalg.eigvalsh(single))
            got = np.sort(np.linalg.eigvalsh(rho_ac))[-want.size:]
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rank_counts_eigenvalues_above_rank_tol(self):
        base = make_random_rank2(11)
        assert purify(_with_third_eigenvalue(base, 5e-11)).dims == (2, 2, 2)
        assert purify(_with_third_eigenvalue(base, 2e-10)).dims == (2, 2, 3)
        assert correlation_report(_with_third_eigenvalue(base, 5e-11)).rank == 2

    def test_wide_states_and_unequal_dims(self):
        wide = make_random_rank2(range(3), dim_a=3)
        pur = purify(wide)
        assert pur.dims == (3, 2, 2) and traced_over_b(pur).shape == (3, 6, 6)
        # A stack has one dims, so unequal ones are rejected when it is built.
        with pytest.raises(DimensionMismatch):
            DensityMatrix(make_horodecki(0.5).dims, wide.matrix)


class TestReduced:
    def test_bell_state(self):
        rho = make_bell_diagonal(1, -1, 1)
        np.testing.assert_allclose(reduced(rho, "A"), np.eye(2) / 2, atol=1e-14)

    @pytest.mark.parametrize("p", [0.1, 0.6, 1.0])
    def test_horodecki_side_a(self, p):
        np.testing.assert_allclose(
            reduced(make_horodecki(p), "A"),
            np.diag([1 - p / 2, p / 2]),
            atol=1e-14,
        )


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        from qdiscord.errors import NotHermitian

        with pytest.raises(NotHermitian):
            DensityMatrix((2, 2), m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix((2, 2), np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositive):
            DensityMatrix((2, 2), np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DensityMatrix((2, 2), np.eye(2, dtype=complex) / 2)

    def test_matrix_is_immutable(self):
        rho = make_horodecki(0.5)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entry(self, value, entry):
        m = np.eye(4, dtype=complex) / 4
        m[entry] = value
        with pytest.raises(NotFinite, match="NaN or infinite"):
            DensityMatrix((2, 2), m)


def _bad_member(kind):
    """A 4x4 matrix that fails one construction check."""
    m = np.eye(4, dtype=complex) / 4
    if kind == "non_finite":
        m[1, 2] = math.nan
    elif kind == "non_hermitian":
        m[0, 1] = 0.1
    elif kind == "bad_trace":
        m = 4 * m
    else:
        m = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    return m


class TestDensityMatrixStack:
    @pytest.mark.parametrize("kind", ["non_finite", "non_hermitian", "bad_trace", "negative"])
    @pytest.mark.parametrize("index", [0, 2])
    def test_bad_member_raises_its_own_error_named(self, kind, index):
        bad = _bad_member(kind)
        with pytest.raises(Exception) as alone:
            DensityMatrix((2, 2), bad)
        matrices = np.stack([make_horodecki(0.3).matrix] * 3)
        matrices[index] = bad
        with pytest.raises(type(alone.value)) as in_stack:
            DensityMatrix((2, 2), matrices)
        assert type(in_stack.value) is type(alone.value)
        assert str(in_stack.value) == f"state {index}: {alone.value}"

    def test_first_offending_member_is_named(self):
        # Member 0 fails a later check than member 1; the first member wins.
        members = np.stack([_bad_member("negative"), _bad_member("non_finite")])
        with pytest.raises(NotPositive, match="^state 0: smallest eigenvalue"):
            DensityMatrix((2, 2), members)

    def test_empty_stack_is_rejected(self):
        with pytest.raises(DimensionMismatch, match="must not be empty"):
            DensityMatrix((2, 2), np.zeros((0, 4, 4), dtype=complex))
        with pytest.raises(DimensionMismatch, match="must not be empty"):
            make_random_rank2([])

    @pytest.mark.parametrize("dim_a", [2, 3, 4])
    def test_seed_sequence_members_equal_single_draws(self, dim_a):
        seeds = [trial_seed(3, t) for t in range(40)]
        stack = make_random_rank2(seeds, dim_a)
        assert stack.matrix.shape == (40, 2 * dim_a, 2 * dim_a) and len(stack) == 40
        for i, seed in enumerate(seeds):
            np.testing.assert_array_equal(stack[i].matrix, make_random_rank2(seed, dim_a).matrix)

    @pytest.mark.parametrize("build, grid", [
        (make_horodecki, np.linspace(0.0, 1.0, 41)),
        (make_example1, np.linspace(0.0, 2.0, 41)),
        (lambda x: make_rho2(x, 0.7, 2.1), np.linspace(0.0, 1.0, 41)),
    ], ids=["horodecki", "example1", "rho2"])
    def test_array_call_equals_per_value_calls(self, build, grid):
        stack = build(grid)
        assert stack.matrix.shape == (41, 4, 4)
        for i, value in enumerate(grid.tolist()):
            np.testing.assert_array_equal(stack.matrix[i], build(value).matrix)

    def test_domain_error_names_first_value_outside(self):
        with pytest.raises(OutOfDomain, match=r"^p=1.5 outside \[0, 1\]$"):
            make_horodecki(np.array([0.2, 1.5, -1.0]))
        with pytest.raises(OutOfDomain, match=r"^x=nan outside \[0, 2\]$"):
            make_example1(np.array([0.2, math.nan]))

    def test_members_are_read_only_views_not_validated_again(self):
        stack = make_random_rank2(range(5))
        block = stack[1:4]
        assert isinstance(block, DensityMatrix) and block.dims == stack.dims
        assert np.shares_memory(block.matrix, stack.matrix)
        np.testing.assert_array_equal(block.matrix, stack.matrix[1:4])
        member = stack[2]
        assert member.matrix.shape == (4, 4) and not member.matrix.flags.writeable
        picked = stack[[0, 4]]
        assert picked.matrix.shape == (2, 4, 4) and not picked.matrix.flags.writeable
        assert [rho.matrix.shape for rho in stack] == [(4, 4)] * 5

    def test_one_state_indexes_as_a_stack_of_one(self):
        rho = make_horodecki(0.4)
        assert len(rho) == 1 and rho[:].matrix.shape == (1, 4, 4)
        np.testing.assert_array_equal(rho[0].matrix, rho.matrix)
        with pytest.raises(IndexError):
            rho[1]

    def test_one_state_consumers_reject_a_stack(self):
        stack = make_random_rank2([1, 2])
        with pytest.raises(DimensionMismatch, match="projective oracle takes one state, got a stack of 2"):
            projective_classical_correlation(stack)
        with pytest.raises(DimensionMismatch, match="decomposition oracle takes one state, got a stack of 2"):
            decomposition_linear_cc(stack, trials=4)
        with pytest.raises(DimensionMismatch, match="JSON wire format takes one state, got a stack of 2"):
            dump_state(stack)
        doc = {"dims": [2, 2], "matrix": [state_to_json_dict(rho)["matrix"] for rho in stack]}
        with pytest.raises(StateFormatError, match=r"entries must be \[re, im\] pairs"):
            state_from_json_dict(doc)


class TestJsonFormat:
    def test_roundtrip_is_bit_exact(self):
        rho = make_example1(0.7)
        again = load_state(dump_state(rho))
        np.testing.assert_array_equal(again.matrix, rho.matrix)
        assert again.dims == rho.dims

    def test_schema_shape(self):
        doc = state_to_json_dict(make_horodecki(0.5))
        assert doc["dims"] == [2, 2]
        assert doc["matrix"][1][2] == [0.25, 0.0]

    def test_rejects_non_square(self):
        doc = {"dims": [2, 2], "matrix": [[[1.0, 0.0]], [[0.0, 0.0]]]}
        with pytest.raises(StateFormatError, match="square"):
            state_from_json_dict(doc)

    def test_rejects_non_hermitian(self):
        doc = state_to_json_dict(make_horodecki(0.5))
        doc["matrix"][0][1] = [0.5, 0.0]
        with pytest.raises(StateFormatError, match="Hermitian"):
            state_from_json_dict(doc)

    def test_rejects_bad_trace(self):
        doc = state_to_json_dict(make_horodecki(0.5))
        doc["matrix"][0][0] = [0.9, 0.0]
        with pytest.raises(StateFormatError, match="trace"):
            state_from_json_dict(doc)

    def test_rejects_dims_mismatch(self):
        doc = state_to_json_dict(make_horodecki(0.5))
        doc["dims"] = [2, 3]
        with pytest.raises(StateFormatError, match="dims"):
            state_from_json_dict(doc)

    def test_rejects_garbage(self):
        with pytest.raises(StateFormatError):
            load_state("not json at all")
        with pytest.raises(StateFormatError):
            state_from_json_dict({"dims": [2, 2]})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_is_a_format_error(self, literal):
        # Python's json module reads these literals as floats; the parser must
        # name them before any arithmetic can warn or fail to converge.
        text = dump_state(make_horodecki(0.5)).replace("0.25", literal, 1)
        with pytest.raises(StateFormatError, match="finite"):
            load_state(text)

    def test_small_asymmetry_within_parser_tolerance_is_symmetrized(self):
        # full-rank state, so a 5e-9 one-sided perturbation stays positive
        doc = state_to_json_dict(make_bell_diagonal(0.2, -0.3, 0.1))
        doc["matrix"][0][1] = [doc["matrix"][0][1][0] + 5e-9, doc["matrix"][0][1][1]]
        rho = state_from_json_dict(doc)
        assert abs(rho.matrix[0, 1] - rho.matrix[1, 0].conjugate()) == 0.0


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=-1, max_value=1),
)
def test_bell_diagonal_constructor_total(c1, c2, c3):
    """Valid parameters construct a state; invalid ones raise NotPositive."""
    weights = [
        (1 + c1 - c2 + c3) / 4,
        (1 - c1 + c2 + c3) / 4,
        (1 + c1 + c2 - c3) / 4,
        (1 - c1 - c2 - c3) / 4,
    ]
    if min(weights) < -1e-10:
        with pytest.raises(NotPositive):
            make_bell_diagonal(c1, c2, c3)
    else:
        rho = make_bell_diagonal(c1, c2, c3)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**40))
def test_random_rank2_purify_roundtrip(seed):
    rho = make_random_rank2(seed)
    assert np.max(np.abs(traced_over_c(purify(rho)) - rho.matrix)) < 1e-10
