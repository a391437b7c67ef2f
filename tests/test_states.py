import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import haar_unitary, stack_of
from hypothesis import given, settings
from hypothesis import strategies as st

import qdiscord
from qdiscord import discord as discord_module
from qdiscord.discord import correlation_report
from qdiscord.errors import (
    DimensionMismatch,
    NotFinite,
    NotHermitian,
    NotPositive,
    OutOfDomain,
    StateFormatError,
)
from qdiscord.linalg import partial_trace
from qdiscord.measures import von_neumann_entropy
from qdiscord.states import (
    _JSON_TOL,
    DENSITY_TOL,
    HERMITIAN_TOL,
    DensityMatrix,
    _trial_blocks,
    box_muller,
    dump_state,
    load_state,
    make_bell_diagonal,
    make_example1,
    make_horodecki,
    make_random_rank2,
    make_rho2,
    random_trials,
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_coefficient_is_named(self, monkeypatch, position, value):
        # Checked before any matrix is built, so the error names the flag.
        def built(*args, **kwargs):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(qdiscord.states, "DensityMatrix", built)
        c = [0.1, -0.2, 0.3]
        c[position] = value
        with pytest.raises(OutOfDomain, match=f"^c{position + 1}={value} is not a finite number$"):
            make_bell_diagonal(*c)

    def test_finite_negative_bell_weight_still_not_positive(self):
        with pytest.raises(NotPositive, match=r"^\(c1, c2, c3\)=\(0.9, 0.9, 0.9\) gives Bell weight "
                                               r"-4.250e-01$"):
            make_bell_diagonal(0.9, 0.9, 0.9)

    def test_maximally_mixed_marginals(self):
        rho = make_bell_diagonal(0.2, -0.4, 0.1)
        for side in ("A", "B"):
            np.testing.assert_allclose(
                partial_trace(rho.matrix, rho.dims, side), np.eye(2) / 2, atol=1e-14
            )


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

        rho_a = partial_trace(make_horodecki(0.5).matrix, (2, 2), "A")
        assert linear_entropy(rho_a) == pytest.approx(0.75, abs=1e-12)

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
                partial_trace(make_example1(x).matrix, (2, 2), "B"), np.eye(2) / 2, atol=1e-14
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


# Doubles per trial block: the eigenvalue uniform and 8 dA uniforms for the
# state, then 2 dA^2 for U_A and 8 for U_B, padded to a multiple of 4.
TRIAL_WIDTHS = {1: 20, 2: 36, 3: 52, 4: 76}


def scalar_normals(uniforms):
    """Box-Muller one pair at a time on numpy scalars, frozen: each pair
    (u0, u1) gives r cos(2 pi u1), r sin(2 pi u1), r = sqrt(-2 log1p(-u0))."""
    normals = []
    for u0, u1 in zip(uniforms[0::2], uniforms[1::2]):
        r = np.sqrt(-2.0 * np.log1p(-u0))
        normals += [r * np.cos(2.0 * np.pi * u1), r * np.sin(2.0 * np.pi * u1)]
    return np.array(normals)


def scalar_rank2_reference(seed, dim_a, row=None):
    """Trial 0 of ``seed`` as one loop of 1-D algebra, frozen: the first
    1 + 8 dA doubles of the fresh Philox stream keyed by the seed (or of a
    given block ``row``) are the eigenvalue uniform and, by Box-Muller, the
    real parts of both vectors and then their imaginary parts. The stacked
    ``make_random_rank2`` must give these matrices bit for bit."""
    n = 2 * dim_a
    if row is None:
        row = np.random.Generator(np.random.Philox(key=seed)).random(1 + 4 * n)
    lam = 0.05 + 0.9 * row[0]
    normals = scalar_normals(row[1:1 + 4 * n])
    re, im = normals[:2 * n].reshape(2, n), normals[2 * n:].reshape(2, n)
    v1 = re[0] + 1j * im[0]
    v2 = re[1] + 1j * im[1]
    v1 = v1 / np.linalg.norm(v1)
    v2 = v2 - np.vdot(v1, v2) * v1
    v2 = v2 / np.linalg.norm(v2)
    return lam * np.outer(v1, v1.conj()) + (1.0 - lam) * np.outer(v2, v2.conj())


def scalar_unitary_reference(normals, dim):
    """Haar unitary from 2 dim^2 normals (real parts, then imaginary parts):
    Q of the QR, its columns rephased so that R has a positive diagonal."""
    z = normals[:dim * dim].reshape(dim, dim) + 1j * normals[dim * dim:].reshape(dim, dim)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


class TestRandomRank2:
    def test_unitaries_follow_the_state_in_its_block(self):
        for dim_a, width in TRIAL_WIDTHS.items():
            row = np.random.Generator(np.random.Philox(key=8)).random((2, width))[1]
            states, twins = random_trials(8, range(1, 2), dim_a)
            np.testing.assert_array_equal(
                states.matrix[0],
                DensityMatrix((dim_a, 2), scalar_rank2_reference(None, dim_a, row)).matrix)
            # The twin is the state under U_A x U_B, as np.kron builds it, of
            # the Haar unitaries of the block's next normals.
            k = 1 + 8 * dim_a
            normals = scalar_normals(row[k:k + 2 * dim_a**2 + 8])
            u = np.kron(scalar_unitary_reference(normals[:2 * dim_a**2], dim_a),
                        scalar_unitary_reference(normals[2 * dim_a**2:], 2))
            twin = DensityMatrix((dim_a, 2), u @ states.matrix[0] @ u.conj().T)
            np.testing.assert_allclose(twins.matrix[0], twin.matrix, rtol=0, atol=1e-15)

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
        # Any positive integer dA; nothing else, not a boolean either, as
        # load_state refuses booleans as dims.
        for dim_a in (0, -1, 2.0, "3", True, False):
            with pytest.raises(OutOfDomain, match="is not a positive integer"):
                make_random_rank2(0, dim_a=dim_a)
            with pytest.raises(OutOfDomain, match="is not a positive integer"):
                random_trials(0, range(3), dim_a=dim_a)
        assert make_random_rank2(0, dim_a=5).dims == (5, 2)
        assert make_random_rank2(0, dim_a=1).dims == (1, 2)
        assert random_trials(0, range(3), dim_a=np.int64(1))[0].dims == (1, 2)

    @pytest.mark.parametrize("build", [make_random_rank2, lambda seed: random_trials(seed, range(2))])
    def test_seed_outside_the_philox_keys(self, build):
        build(2**128 - 1)
        for seed in (2**128, -1):
            with pytest.raises(OutOfDomain, match=r"outside \[0, 2\*\*128\)"):
                build(seed)

    @pytest.mark.parametrize("trials", [range(-1, 3), range(0, 6, 2), 5, [0, 1]])
    def test_trials_are_a_contiguous_range_of_indices(self, trials):
        with pytest.raises(OutOfDomain, match=r"trials=.* is not a range\(start, stop\)"):
            random_trials(0, trials)


class TestRandomUnitary:
    """The trials' local-unitary twins, and the counter-based stream they come from."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_seed_sequence_matches_per_seed_calls(self, dim):
        # A trial drawn alone, by advancing a fresh Philox to its block, is
        # its row of the whole draw, and so are its state and twin.
        states, twins = random_trials(11, range(1000), dim)
        width = TRIAL_WIDTHS[dim]
        whole = np.random.Generator(np.random.Philox(key=11)).random((1000, width))
        for t in (0, 1, 999):
            np.testing.assert_array_equal(_trial_blocks(11, range(t, t + 1), dim)[0], whole[t])
            state, twin = random_trials(11, range(t, t + 1), dim)
            np.testing.assert_array_equal(state.matrix[0], states.matrix[t])
            np.testing.assert_array_equal(twin.matrix[0], twins.matrix[t])
        np.testing.assert_array_equal(states.matrix[0], make_random_rank2(11, dim).matrix)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_generators_continue_their_streams(self, dim):
        # One generator read block after block gives trials 0, 1, 2, ... as
        # advancing to each does; a later range starts mid-stream.
        width = TRIAL_WIDTHS[dim]
        draw = np.random.Generator(np.random.Philox(key=12)).random
        blocks = [draw(width) for _ in range(7)]
        np.testing.assert_array_equal(_trial_blocks(12, range(7), dim), blocks)
        np.testing.assert_array_equal(_trial_blocks(12, range(3, 7), dim), blocks[3:])
        late = random_trials(12, range(3, 7), dim)
        early = random_trials(12, range(7), dim)
        for got, want in zip(late, early):
            np.testing.assert_array_equal(np.asarray(got), np.asarray(want)[3:])

    def test_empty_stack_is_rejected_as_for_states(self):
        with pytest.raises(DimensionMismatch, match="must not be empty"):
            random_trials(4, range(3, 3))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_unitary_and_deterministic(self, dim):
        # U_A x U_B keeps the state's spectrum and, through U_A, rho_A's; the
        # same seed gives the same twins bit for bit, another seed others.
        states, twins = random_trials(7, range(200), dim)
        assert twins.dims == (dim, 2) and twins.matrix.shape == (200, 2 * dim, 2 * dim)
        assert np.max(np.abs(twins.spectrum - states.spectrum)) <= 4e-15
        rho_a = [np.linalg.eigvalsh(partial_trace(rho.matrix, (dim, 2), "A"))
                 for rho in (states, twins)]
        assert np.max(np.abs(rho_a[0] - rho_a[1])) <= 4e-15
        assert not np.allclose(twins.matrix, states.matrix)
        np.testing.assert_array_equal(twins.matrix, random_trials(7, range(200), dim)[1].matrix)
        assert not np.allclose(twins.matrix, random_trials(8, range(200), dim)[1].matrix)


class TestBoxMuller:
    def test_extreme_uniforms_stay_finite(self):
        # random() gives doubles k 2^-53 in [0, 1 - 2^-53]; RuntimeWarnings are
        # errors under this suite's settings, so a log of 0 would fail here.
        top = 1.0 - 2.0**-53
        u = np.array([0.0, 0.0, top, top, 0.0, top, top, 0.0])
        normals = box_muller(u)
        assert np.isfinite(normals).all()
        np.testing.assert_array_equal(normals[:2], [0.0, 0.0])
        assert normals[2] == pytest.approx(math.sqrt(106.0 * math.log(2.0)), rel=1e-15)
        np.testing.assert_array_equal(normals, scalar_normals(u))

    def test_matches_the_scalar_reference(self):
        u = np.random.Generator(np.random.Philox(key=5)).random((50, 36))
        np.testing.assert_array_equal(box_muller(u), [scalar_normals(row) for row in u])


def _draw_violations(source: str, in_states: bool) -> list:
    """Every place in ``source`` that seeds or draws outside a counter-based
    Philox stream: a name default_rng, SeedSequence or RandomState, an import
    from numpy.random, an np.random attribute other than Generator and
    Philox, and an np.random.Philox outside ``states.philox``."""
    tree = ast.parse(source)
    builder = set()
    if in_states:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "philox":
                builder = {id(inner) for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", "") or getattr(node, "attr", "") or getattr(node, "name", "")
        if name in ("default_rng", "SeedSequence", "RandomState"):
            found.append((node.lineno, name))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            if any(f"{prefix}{alias.name}.".startswith("numpy.random.") for alias in node.names):
                found.append((node.lineno, "import of numpy.random"))
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "random" and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            if node.attr not in ("Generator", "Philox") or (
                    node.attr == "Philox" and id(node) not in builder):
                found.append((node.lineno, f"np.random.{node.attr}"))
    return found


class TestCounterBasedDraws:
    """Every draw in src/ is counter-based and replays from its key: the only
    bit generator is the Philox that ``states.philox`` builds."""

    def test_src_draws_only_through_philox(self):
        src = Path(qdiscord.__file__).parent
        for path in sorted(src.glob("*.py")):
            assert _draw_violations(path.read_text(), path.name == "states.py") == [], path.name
        # The guard reads the draw sites it is meant to watch.
        assert "np.random.Philox" in (src / "states.py").read_text()
        assert "np.random.Generator" in (src / "oracles.py").read_text()

    @pytest.mark.parametrize("source", [
        "rng = np.random.default_rng(0)",
        "from numpy.random import Generator",
        "from numpy import random",
        "import numpy.random",
        "x = np.random.normal(size=3)",
        "np.random.seed(1)",
        "u = numpy.random.random(4)",
        "s = np.random.SeedSequence(1)",
        "r = np.random.RandomState(0)",
        "g = np.random.Generator(np.random.PCG64(1))",
        "bits = np.random.Philox(key=1)",
        "def philox(key):\n    return np.random.Philox(key=key)",
    ])
    def test_the_guard_catches_each_pattern(self, source):
        assert _draw_violations(source, in_states=False)

    def test_the_guard_allows_philox_in_its_builder_only(self):
        source = ("def philox(key) -> np.random.Philox:\n    return np.random.Philox(key=key)\n"
                  "def draw(key):\n    return np.random.Generator(philox(key)).random(3)\n")
        assert _draw_violations(source, in_states=True) == []
        assert len(_draw_violations(source + "b = np.random.Philox(key=2)\n", in_states=True)) == 1


class TestBatchedPurify:
    """The purification each member's tau(rho_AC) is read across, taken over a
    stack and over each member alone; the last member is pure."""

    STATES = stack_of(random_trials(0, range(6))[0], make_horodecki(0.3), make_example1(2.0),
                      make_rho2(1.0, 0.4, 0.0))

    def test_batch_rho_ac_spectra_match_single_purifications(self):
        batch = discord_module._purified_tangle(self.STATES)
        assert batch.shape == (9,)
        for rho, tau in zip(self.STATES, batch):
            single = discord_module._purified_tangle(rho[:])
            np.testing.assert_allclose(tau, single[0], atol=1e-12)

    def test_wide_states_and_unequal_dims(self):
        wide = random_trials(0, range(3), dim_a=3)[0]
        assert wide.dims == (3, 2) and wide.matrix.shape == (3, 6, 6)
        report = correlation_report(wide)
        for i, rho in enumerate(wide):
            single = correlation_report(rho)
            assert single.I_cc is None and report.reason[i] == single.reason
            for name in ("S_A", "S_AB", "I_mutual", "I2_cc"):
                assert getattr(report, name)[i] == pytest.approx(getattr(single, name), abs=1e-12)
        # A stack has one dims, so unequal ones are rejected when it is built.
        with pytest.raises(DimensionMismatch):
            DensityMatrix(make_horodecki(0.5).dims, wide.matrix)


class TestReduced:
    def test_bell_state(self):
        rho = make_bell_diagonal(1, -1, 1)
        np.testing.assert_allclose(
            partial_trace(rho.matrix, rho.dims, "A"), np.eye(2) / 2, atol=1e-14
        )

    @pytest.mark.parametrize("p", [0.1, 0.6, 1.0])
    def test_horodecki_side_a(self, p):
        np.testing.assert_allclose(
            partial_trace(make_horodecki(p).matrix, (2, 2), "A"),
            np.diag([1 - p / 2, p / 2]),
            atol=1e-14,
        )


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(NotHermitian):
            DensityMatrix((2, 2), m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix((2, 2), np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositive):
            DensityMatrix((2, 2), np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex))

    def test_rejects_shape_mismatch(self):
        # A stack has one dims, so a stack of 3x2 states is no stack of 2x2 ones.
        for m in (np.eye(2, dtype=complex) / 2, random_trials(0, range(3), dim_a=3)[0].matrix):
            with pytest.raises(DimensionMismatch):
                DensityMatrix((2, 2), m)

    def test_dims_are_read_as_integers(self):
        # Integer types of any kind are accepted as plain ints; a float or a
        # pair of the wrong length is an error, not a silent truncation.
        rho = DensityMatrix((np.int64(2), 2), np.eye(4) / 4)
        assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
        for dims in ((2.9, 2), (2, 2.0), (4,), (2, 2, 1)):
            with pytest.raises(DimensionMismatch, match="dims must be two integers"):
                DensityMatrix(dims, np.eye(4) / 4)

    @pytest.mark.parametrize("dims", [(0, 2), (2, 0), (-2, -2)], ids=str)
    def test_dims_must_be_positive(self, dims):
        # Checked before the shape, whose message names the size the dims need.
        with pytest.raises(DimensionMismatch, match=r"^dims must be two positive integers"):
            DensityMatrix(dims, np.eye(4) / 4)

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

    # The constructor's 1e-10 cuts, on both sides: HERMITIAN_TOL on the
    # Hermiticity deviation, DENSITY_TOL on the trace and on the smallest
    # eigenvalue.
    @pytest.mark.parametrize("excess", [0.9e-10, 1.1e-10])
    def test_hermiticity_seam(self, excess):
        assert HERMITIAN_TOL == 1e-10
        rho = make_bell_diagonal(0.2, -0.3, 0.1)
        m = rho.matrix.copy()
        m[0, 1] += excess
        if excess > 1e-10:
            with pytest.raises(NotHermitian, match="deviates from Hermiticity by 1.100e-10$"):
                DensityMatrix((2, 2), m)
            return
        got = DensityMatrix((2, 2), m).matrix
        np.testing.assert_array_equal(got, got.conj().T)
        assert got[0, 1] - rho.matrix[0, 1] == pytest.approx(excess / 2.0, rel=1e-6)

    @pytest.mark.parametrize("excess", [0.9e-10, 1.1e-10])
    def test_trace_seam(self, excess):
        assert DENSITY_TOL == 1e-10
        rho = make_bell_diagonal(0.2, -0.3, 0.1)
        if excess > 1e-10:
            with pytest.raises(ValueError, match="is not 1 within 1e-10$"):
                DensityMatrix((2, 2), (1.0 + excess) * rho.matrix)
            return
        got = DensityMatrix((2, 2), (1.0 + excess) * rho.matrix).matrix
        assert np.trace(got).real == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(got, rho.matrix, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dip", [0.9e-10, 1.1e-10])
    def test_smallest_eigenvalue_seam(self, dip):
        u = haar_unitary(np.random.default_rng(62), 4)
        m = u @ np.diag([0.5 + dip, 0.5, 0.0, -dip]) @ u.conj().T
        if dip > 1e-10:
            with pytest.raises(NotPositive, match="smallest eigenvalue -1.100e-10 is negative"):
                DensityMatrix((2, 2), m)
            return
        got = DensityMatrix((2, 2), m).matrix
        assert np.linalg.eigvalsh(got)[0] == pytest.approx(-dip, rel=1e-4)

# The constructor's cuts drawn by Hypothesis, as the RANK_TOL seam test in
# test_discord.py: a random rank-2 state, a random perturbation direction
# scaled to a drawn multiple of the cut, and which side the state lands on.
_MULTIPLES = st.one_of(st.floats(min_value=0.5, max_value=0.95),
                       st.floats(min_value=1.05, max_value=2.0))


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), _MULTIPLES)
def test_hermiticity_seam_drawn(seed, multiple):
    # An anti-Hermitian direction with a zero diagonal, so that only the
    # Hermiticity deviation moves: m + s A deviates by s max|2 A|.
    base = make_random_rank2(seed).matrix
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    direction = g - g.conj().T
    np.fill_diagonal(direction, 0.0)
    m = base + multiple * HERMITIAN_TOL / np.max(np.abs(2.0 * direction)) * direction
    if multiple > 1.0:
        with pytest.raises(NotHermitian, match="deviates from Hermiticity"):
            DensityMatrix((2, 2), m)
        return
    got = DensityMatrix((2, 2), m).matrix
    np.testing.assert_array_equal(got, got.conj().T)
    np.testing.assert_allclose(got, base, rtol=0, atol=1e-15)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), _MULTIPLES, st.sampled_from([1.0, -1.0]))
def test_trace_seam_drawn(seed, multiple, sign):
    # A positive semidefinite direction of trace 1 added with either sign:
    # the trace moves by the multiple of DENSITY_TOL, and below the cut the
    # spectrum moves by less than DENSITY_TOL.
    base = make_random_rank2(seed).matrix
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    direction = g @ g.conj().T
    direction = (direction + direction.conj().T) / (2.0 * np.trace(direction).real)
    m = base + sign * multiple * DENSITY_TOL * direction
    if multiple > 1.0:
        with pytest.raises(ValueError, match="is not 1 within 1e-10$"):
            DensityMatrix((2, 2), m)
        return
    got = DensityMatrix((2, 2), m).matrix
    assert np.trace(got).real == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(got, m / np.trace(m).real, rtol=0, atol=1e-15)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), _MULTIPLES,
       st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_smallest_eigenvalue_seam_drawn(seed, multiple, angle):
    # Weight e moved from the top eigenvector onto a direction in the null
    # space of the rank-2 state, with a minus sign: the trace stays 1 and the
    # smallest eigenvalue is -e.
    base = make_random_rank2(seed).matrix
    vectors = np.linalg.eigh(base)[1]
    null = math.cos(angle) * vectors[:, 0] + math.sin(angle) * vectors[:, 1]
    dip = multiple * DENSITY_TOL
    m = base + dip * (np.outer(vectors[:, 3], vectors[:, 3].conj()) - np.outer(null, null.conj()))
    if multiple > 1.0:
        with pytest.raises(NotPositive, match="is negative$"):
            DensityMatrix((2, 2), m)
        return
    got = DensityMatrix((2, 2), m).matrix
    assert np.linalg.eigvalsh(got)[0] == pytest.approx(-dip, rel=1e-4)


def _state_file(m):
    """The wire-format text of a 4x4 matrix at dims (2, 2), its entries as
    they are: json writes each float's shortest round-trip repr."""
    rows = [[[z.real, z.imag] for z in row] for row in m.tolist()]
    return json.dumps({"dims": [2, 2], "matrix": rows})


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), _MULTIPLES)
def test_json_hermiticity_seam_drawn(seed, multiple):
    # A state file deviating from Hermiticity by a drawn multiple of
    # _JSON_TOL, along an anti-Hermitian direction with a zero diagonal, so
    # that the trace stays 1: below the cut load_state keeps the Hermitian
    # part, above it the file is refused.
    base = make_random_rank2(seed).matrix
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    direction = g - g.conj().T
    np.fill_diagonal(direction, 0.0)
    text = _state_file(base + multiple * _JSON_TOL / np.max(np.abs(2.0 * direction)) * direction)
    if multiple > 1.0:
        with pytest.raises(StateFormatError, match="matrix is not Hermitian: deviation"):
            load_state(text)
        return
    got = load_state(text).matrix
    np.testing.assert_array_equal(got, got.conj().T)
    np.testing.assert_allclose(got, base, rtol=0, atol=1e-15)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), _MULTIPLES, st.sampled_from([1.0, -1.0]))
def test_json_trace_seam_drawn(seed, multiple, sign):
    # A state file whose trace is off 1 by a drawn multiple of _JSON_TOL,
    # either way, along a positive semidefinite direction of trace 1 added
    # to a state whose eigenvalues are all at least 0.025: below the cut
    # load_state renormalizes it, above it the file is refused.
    base = 0.9 * make_random_rank2(seed).matrix + 0.025 * np.eye(4)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    direction = g @ g.conj().T
    direction = (direction + direction.conj().T) / (2.0 * np.trace(direction).real)
    m = base + sign * multiple * _JSON_TOL * direction
    text = _state_file(m)
    if multiple > 1.0:
        with pytest.raises(StateFormatError, match="matrix trace is not 1"):
            load_state(text)
        return
    got = load_state(text).matrix
    assert np.trace(got).real == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(got, m / np.trace(m).real, rtol=0, atol=1e-15)


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


def assert_spectrum_kept(rho):
    """``rho.spectrum`` is read-only and bit for bit the spectrum of its matrix."""
    assert rho.spectrum.shape == rho.matrix.shape[:-1] and not rho.spectrum.flags.writeable
    np.testing.assert_array_equal(rho.spectrum, np.linalg.eigvalsh(rho.matrix))


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
            random_trials(0, range(0))

    @pytest.mark.parametrize("dim_a", [2, 3, 4])
    def test_seed_sequence_members_equal_single_draws(self, dim_a):
        # Against the frozen per-block loop, not against another call of the
        # stacked code: a stack of trials of one seed, and each seed alone,
        # keyed with its high counter words set as the decomposition keys are.
        rows = np.random.Generator(np.random.Philox(key=3)).random((300, TRIAL_WIDTHS[dim_a]))
        reference = DensityMatrix((dim_a, 2), np.stack(
            [scalar_rank2_reference(None, dim_a, row) for row in rows])).matrix
        stack = random_trials(3, range(300), dim_a)[0]
        assert stack.matrix.shape == (300, 2 * dim_a, 2 * dim_a) and len(stack) == 300
        np.testing.assert_array_equal(stack.matrix, reference)
        for seed in (3 ^ ((t + 1) << 64) for t in range(300)):
            single = DensityMatrix((dim_a, 2), scalar_rank2_reference(seed, dim_a)).matrix
            np.testing.assert_array_equal(make_random_rank2(seed, dim_a).matrix, single)

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
        stack = random_trials(0, range(5))[0]
        block = stack[1:4]
        assert isinstance(block, DensityMatrix) and block.dims == stack.dims
        assert np.shares_memory(block.matrix, stack.matrix)
        np.testing.assert_array_equal(block.matrix, stack.matrix[1:4])
        member = stack[2]
        assert member.matrix.shape == (4, 4) and not member.matrix.flags.writeable
        picked = stack[[0, 4]]
        assert picked.matrix.shape == (2, 4, 4) and not picked.matrix.flags.writeable
        assert [rho.matrix.shape for rho in stack] == [(4, 4)] * 5
        for rho in (stack, block, member, picked, *stack):
            assert_spectrum_kept(rho)

    def test_one_state_indexes_as_a_stack_of_one(self):
        rho = make_horodecki(0.4)
        assert len(rho) == 1 and rho[:].matrix.shape == (1, 4, 4)
        np.testing.assert_array_equal(rho[0].matrix, rho.matrix)
        for state in (rho, rho[:], rho[0]):
            assert_spectrum_kept(state)
        with pytest.raises(IndexError):
            rho[1]

    def test_a_state_equals_only_itself_and_hashes_by_identity(self):
        rho, twin = make_horodecki(0.3), make_horodecki(0.3)
        np.testing.assert_array_equal(rho.matrix, twin.matrix)
        assert rho == rho and rho != twin and not rho == twin
        assert len({rho, rho[0], rho}) == 2 and rho in {rho}

    def test_numpy_reads_a_state_or_a_stack_as_its_matrix(self):
        for rho in (make_horodecki(0.3), random_trials(0, range(3), dim_a=3)[0]):
            array = np.asarray(rho)
            assert array.shape == rho.matrix.shape and array.dtype == complex
            np.testing.assert_array_equal(array, rho.matrix)
            assert np.shares_memory(array, rho.matrix)
            copied = np.array(rho)
            assert not np.shares_memory(copied, rho.matrix) and copied.flags.writeable
            narrow = np.asarray(rho, dtype=np.complex64)
            np.testing.assert_array_equal(narrow, rho.matrix.astype(np.complex64))

    def test_one_state_consumers_reject_a_stack(self):
        stack = random_trials(1, range(2))[0]
        with pytest.raises(DimensionMismatch, match="JSON wire format takes one state, got a stack of 2"):
            dump_state(stack)
        doc = {"dims": [2, 2], "matrix": [json.loads(dump_state(rho))["matrix"] for rho in stack]}
        with pytest.raises(StateFormatError, match=r"entries must be \[re, im\] pairs"):
            load_state(json.dumps(doc))


class TestJsonFormat:
    def test_roundtrip_is_bit_exact(self):
        rho = make_example1(0.7)
        again = load_state(dump_state(rho))
        np.testing.assert_array_equal(again.matrix, rho.matrix)
        assert again.dims == rho.dims

    def test_schema_shape(self):
        doc = json.loads(dump_state(make_horodecki(0.5)))
        assert doc["dims"] == [2, 2]
        assert doc["matrix"][1][2] == [0.25, 0.0]

    def test_rejects_non_square(self):
        doc = {"dims": [2, 2], "matrix": [[[1.0, 0.0]], [[0.0, 0.0]]]}
        with pytest.raises(StateFormatError, match="square"):
            load_state(json.dumps(doc))

    def test_rejects_non_hermitian(self):
        doc = json.loads(dump_state(make_horodecki(0.5)))
        doc["matrix"][0][1] = [0.5, 0.0]
        with pytest.raises(StateFormatError, match="Hermitian"):
            load_state(json.dumps(doc))

    def test_rejects_bad_trace(self):
        doc = json.loads(dump_state(make_horodecki(0.5)))
        doc["matrix"][0][0] = [0.9, 0.0]
        with pytest.raises(StateFormatError, match="trace"):
            load_state(json.dumps(doc))

    def test_rejects_dims_mismatch(self):
        doc = json.loads(dump_state(make_horodecki(0.5)))
        doc["dims"] = [2, 3]
        with pytest.raises(StateFormatError, match="dims"):
            load_state(json.dumps(doc))

    def test_rejects_garbage(self):
        with pytest.raises(StateFormatError):
            load_state("not json at all")
        with pytest.raises(StateFormatError):
            load_state(json.dumps({"dims": [2, 2]}))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_is_a_format_error(self, literal):
        # Python's json module reads these literals as floats; the parser must
        # name them before any arithmetic can warn or fail to converge.
        text = dump_state(make_horodecki(0.5)).replace("0.25", literal, 1)
        with pytest.raises(StateFormatError, match="finite"):
            load_state(text)

    def test_small_asymmetry_within_parser_tolerance_is_symmetrized(self):
        # full-rank state, so a 5e-9 one-sided perturbation stays positive
        doc = json.loads(dump_state(make_bell_diagonal(0.2, -0.3, 0.1)))
        doc["matrix"][0][1] = [doc["matrix"][0][1][0] + 5e-9, doc["matrix"][0][1][1]]
        rho = load_state(json.dumps(doc))
        assert abs(rho.matrix[0, 1] - rho.matrix[1, 0].conjugate()) == 0.0

    # The parser's 1e-8 cut, on both sides, for the Hermiticity deviation and the trace.
    @pytest.mark.parametrize("excess", [0.9e-8, 1.1e-8])
    def test_hermiticity_seam(self, excess):
        rho = make_bell_diagonal(0.2, -0.3, 0.1)
        doc = json.loads(dump_state(rho))
        doc["matrix"][0][1][0] += excess
        if excess > 1e-8:
            with pytest.raises(StateFormatError, match="deviation 1.100e-08 exceeds 1e-08$"):
                load_state(json.dumps(doc))
            return
        got = load_state(json.dumps(doc)).matrix
        np.testing.assert_array_equal(got, got.conj().T)
        assert got[0, 1] == pytest.approx(excess / 2.0, rel=1e-6)
        np.testing.assert_allclose(got, rho.matrix, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("excess", [0.9e-8, 1.1e-8])
    def test_trace_seam(self, excess):
        rho = make_bell_diagonal(0.2, -0.3, 0.1)
        doc = json.loads(dump_state(rho))
        doc["matrix"] = [[[(1.0 + excess) * part for part in cell] for cell in row]
                         for row in doc["matrix"]]
        if excess > 1e-8:
            with pytest.raises(StateFormatError, match="trace is not 1"):
                load_state(json.dumps(doc))
            return
        got = load_state(json.dumps(doc)).matrix
        assert np.trace(got).real == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(got, rho.matrix, rtol=0, atol=1e-15)


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
