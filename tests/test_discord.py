import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (haar_unitary, purified_tangle_reference, random_density,
                      random_pure_density, reference_f, reference_h, stack_of)
from qdiscord import discord as discord_module
from qdiscord.channel import linear_classical_correlation
from qdiscord.discord import (
    RANK_TOL,
    CorrelationReport,
    correlation_report,
    discord_rank2,
    discord_rho2_closed_form,
    identity_residuals,
)
from qdiscord.errors import (
    ConsistencyError,
    DegenerateDenominator,
    DimensionMismatch,
    OutOfDomain,
    RankTooHigh,
)
from qdiscord.linalg import SPIN_FLIP, partial_trace
from qdiscord.measures import linear_entropy, von_neumann_entropy
from qdiscord.states import (
    DensityMatrix,
    make_bell_diagonal,
    make_example1,
    make_horodecki,
    make_random_rank2,
    make_rho2,
    random_trials,
)

LOG2_3 = math.log2(3.0)


def horodecki_discord(p):
    return reference_h(p / 2) - reference_h(p) + reference_f(2 * p * (1 - p))


def classical_quantum_state(p, rng):
    """Rank-2 zero-discord state: p |a0><a0| x |0><0| + (1-p) |a1><a1| x |1><1|."""
    a0 = random_pure_density(rng, 2)
    a1 = random_pure_density(rng, 2)
    m = p * np.kron(a0, np.diag([1.0, 0.0])) + (1 - p) * np.kron(
        a1, np.diag([0.0, 1.0])
    )
    return DensityMatrix((2, 2), m)


class TestClassicalCorrelation:
    def test_bell_state(self):
        assert discord_rank2(make_bell_diagonal(1, -1, 1)).I_cc == (
            pytest.approx(1.0, abs=1e-12)
        )

    @pytest.mark.parametrize("lam", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_rank2_bell_diagonal_is_one(self, lam):
        rho = make_bell_diagonal(1.0, 1 - 2 * lam, 2 * lam - 1)
        assert discord_rank2(rho).I_cc == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 11))
    def test_horodecki_closed_form(self, p):
        p = float(p)
        got = discord_rank2(make_horodecki(p)).I_cc
        expected = reference_h(p / 2) - reference_f(2 * p * (1 - p))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_rank_gate_reports_third_eigenvalue(self):
        with pytest.raises(RankTooHigh, match="1.6"):
            discord_rank2(make_example1(1.0))

    def test_dimension_gate(self):
        with pytest.raises(DimensionMismatch):
            discord_rank2(make_random_rank2(0, dim_a=3))

    def test_clamp_guard_rejects_large_overshoot(self):
        from qdiscord.discord import _clamp_unit_interval

        assert _clamp_unit_interval(-1e-10) == 0.0
        assert _clamp_unit_interval(1.0 + 1e-10) == 1.0
        with pytest.raises(ConsistencyError):
            _clamp_unit_interval(-1e-3)
        with pytest.raises(ConsistencyError):
            _clamp_unit_interval(1.01)

    @pytest.mark.parametrize("overshoot", [0.9e-9, 1.1e-9])
    def test_clamp_window_seam(self, overshoot):
        from qdiscord.discord import _clamp_unit_interval

        for value, clipped in ((-overshoot, 0.0), (1.0 + overshoot, 1.0)):
            if overshoot > 1e-9:
                with pytest.raises(ConsistencyError, match="by more than 1e-09"):
                    _clamp_unit_interval(value)
            else:
                assert _clamp_unit_interval(value) == clipped


@settings(deadline=None, max_examples=60)
@given(st.one_of(st.floats(min_value=0.5, max_value=0.95),
                 st.floats(min_value=1.05, max_value=2.0)),
       st.sampled_from([0.0, 1.0]),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=7))
def test_clamp_window_seam_drawn(multiple, end, inside, position):
    # Values in [0, 1], one of them pushed past an end of the interval by a
    # drawn multiple of _CLAMP_WINDOW: below the cut it snaps to that end and
    # the others stay as they are, above it the clamp raises.
    from qdiscord.discord import _CLAMP_WINDOW, _clamp_unit_interval

    values = np.array(inside)
    position %= len(values)
    values[position] = end + (1.0 if end else -1.0) * multiple * _CLAMP_WINDOW
    if multiple > 1.0:
        with pytest.raises(ConsistencyError, match="by more than 1e-09$"):
            _clamp_unit_interval(values)
        return
    expected = np.array(inside)
    expected[position] = end
    np.testing.assert_array_equal(_clamp_unit_interval(values), expected)


class TestDiscordRank2:
    def test_example1_endpoint_value(self):
        report = discord_rank2(make_example1(2.0))
        assert report.Q_discord == pytest.approx(5.0 / 3.0 - LOG2_3, abs=1e-10)
        assert report.rank == 2
        assert report.S_B == pytest.approx(1.0, abs=1e-12)
        assert report.S_AB == pytest.approx(LOG2_3 - 2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 11))
    def test_horodecki_closed_form(self, p):
        p = float(p)
        got = discord_rank2(make_horodecki(p)).Q_discord
        assert got == pytest.approx(horodecki_discord(p), abs=1e-10)

    def test_horodecki_midpoint_frozen_value(self):
        got = discord_rank2(make_horodecki(0.5)).Q_discord
        assert got == pytest.approx(0.412154161151989, abs=1e-12)

    def test_horodecki_endpoints(self):
        assert discord_rank2(make_horodecki(0.0)).Q_discord == pytest.approx(
            0.0, abs=1e-12
        )
        assert discord_rank2(make_horodecki(1.0)).Q_discord == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_two_bell_mixture(self, lam):
        rho = make_bell_diagonal(1.0, 1 - 2 * lam, 2 * lam - 1)
        report = discord_rank2(rho)
        assert report.I_cc == pytest.approx(1.0, abs=1e-9)
        assert report.Q_discord == pytest.approx(1 - reference_h(lam), abs=1e-9)

    def test_report_internal_consistency(self):
        for seed in range(200):
            report = discord_rank2(make_random_rank2(seed))
            assert report.Q_discord == pytest.approx(
                report.I_mutual - report.I_cc, abs=1e-10
            )
            assert -1e-9 <= report.I_cc <= min(report.S_A, report.S_B) + 1e-9
            assert report.Q_discord >= -1e-9

    def test_nonnegativity_over_thousand_seeds(self):
        for seed in range(1000):
            report = discord_rank2(make_random_rank2(seed))
            assert report.Q_discord >= -1e-9
            assert report.I_cc >= -1e-9

    def test_rank_gate(self):
        with pytest.raises(RankTooHigh):
            discord_rank2(make_bell_diagonal(0.2, -0.3, 0.1))

    def test_pure_state_discord_equals_entanglement_entropy(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            rho = DensityMatrix((2, 2), random_pure_density(rng, 4))
            report = discord_rank2(rho)
            s_b = von_neumann_entropy(
                np.einsum("abad->bd", rho.matrix.reshape(2, 2, 2, 2))
            )
            assert report.Q_discord == pytest.approx(s_b, abs=1e-9)
            assert report.Q_discord == pytest.approx(report.S_A, abs=1e-9)

    def test_zero_discord_for_classical_quantum_states(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            rho = classical_quantum_state(rng.uniform(0.05, 0.95), rng)
            assert discord_rank2(rho).Q_discord <= 1e-8

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(33)
        for seed in range(30):
            rho = make_random_rank2(seed)
            u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
            rotated = DensityMatrix((2, 2), u @ rho.matrix @ u.conj().T)
            base = discord_rank2(rho)
            twin = discord_rank2(rotated)
            assert twin.Q_discord == pytest.approx(base.Q_discord, abs=1e-8)
            assert twin.I_cc == pytest.approx(base.I_cc, abs=1e-8)


class TestRho2ClosedForm:
    def test_horodecki_slice_on_grid(self):
        for p in np.linspace(0.0, 1.0, 101):
            p = float(p)
            try:
                got = discord_rho2_closed_form(1 - p, math.pi / 2, math.pi / 4)
            except DegenerateDenominator:
                got = discord_rank2(make_rho2(1 - p, math.pi / 2, math.pi / 4)).Q_discord
            assert got == pytest.approx(horodecki_discord(p), abs=1e-9)

    def test_pure_limit_is_entanglement_entropy(self):
        for theta in (0.3, 0.8, 1.2):
            got = discord_rho2_closed_form(1.0, theta, 0.7)
            assert got == pytest.approx(reference_h(math.sin(theta) ** 2), abs=1e-12)

    def test_matches_pipeline_at_spot(self):
        x, theta, eta = 0.5, math.pi / 3, math.pi / 5
        got = discord_rho2_closed_form(x, theta, eta)
        expected = discord_rank2(make_rho2(x, theta, eta)).Q_discord
        assert got == pytest.approx(expected, abs=1e-8)

    def test_matches_pipeline_random_triples(self):
        rng = np.random.default_rng(34)
        checked = 0
        while checked < 100:
            x = float(rng.uniform(0, 1))
            theta = float(rng.uniform(0, 2 * math.pi))
            eta = float(rng.uniform(0, 2 * math.pi))
            try:
                closed = discord_rho2_closed_form(x, theta, eta)
            except DegenerateDenominator:
                continue
            pipeline = discord_rank2(make_rho2(x, theta, eta)).Q_discord
            assert closed == pytest.approx(pipeline, abs=1e-8)
            checked += 1

    def test_array_of_weights_matches_scalar_calls(self):
        grid = np.linspace(0.0, 1.0, 41)
        for theta, eta in ((math.pi / 2, math.pi / 4), (1.1, 2.3), (0.4, 5.9)):
            got = discord_rho2_closed_form(grid, theta, eta)
            for x, value in zip(grid, got):
                try:
                    expected = discord_rho2_closed_form(float(x), theta, eta)
                except DegenerateDenominator:
                    assert np.isnan(value)
                    continue
                assert value == pytest.approx(expected, abs=1e-14)
        assert np.isnan(discord_rho2_closed_form(grid, math.pi / 2, math.pi / 4)[-1])

    def test_degenerate_denominator_signals_fallback(self):
        with pytest.raises(DegenerateDenominator):
            discord_rho2_closed_form(1.0, math.pi / 2, math.pi / 4)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_degenerate_denominator_cut_on_both_sides(self, side):
        # At theta = pi/2, eta = pi/4 the marginal weights are (1 - x)/2 and
        # (1 + x)/2, so x = sqrt(1 - 4c) puts their product at c.
        floor = discord_module._MARGINAL_PRODUCT_FLOOR
        assert floor == 1e-12
        theta, eta = math.pi / 2, math.pi / 4
        x = math.sqrt(1.0 - 4.0 * floor * (1.0 + side * 1e-3))
        d1 = x * math.cos(theta) ** 2 + (1.0 - x) * math.sin(eta) ** 2
        d2 = x * math.sin(theta) ** 2 + (1.0 - x) * math.cos(eta) ** 2
        assert (d1 * d2 > floor) == (side > 0)
        if side < 0:
            with pytest.raises(DegenerateDenominator):
                discord_rho2_closed_form(x, theta, eta)
            assert np.isnan(discord_rho2_closed_form(np.array([x]), theta, eta)).all()
        else:
            got = discord_rho2_closed_form(x, theta, eta)
            assert math.isfinite(got)
            np.testing.assert_array_equal(discord_rho2_closed_form(np.array([x]), theta, eta),
                                          [got])

    def test_domain_checks(self):
        with pytest.raises(OutOfDomain):
            discord_rho2_closed_form(1.5, 0.3, 0.3)
        with pytest.raises(OutOfDomain):
            discord_rho2_closed_form(0.5, -0.1, 0.3)
        with pytest.raises(OutOfDomain):
            discord_rho2_closed_form(np.array([0.5, math.nan]), 0.3, 0.3)


class TestIdentityResiduals:
    def test_koashi_winter_bell_state(self):
        assert identity_residuals(make_bell_diagonal(1, -1, 1))[1] == pytest.approx(
            0.0, abs=1e-10
        )

    def test_koashi_winter_horodecki(self):
        assert abs(identity_residuals(make_horodecki(0.5))[1]) <= 1e-8

    def test_koashi_winter_random(self):
        assert np.max(np.abs(identity_residuals(random_trials(0, range(200))[0])[1])) <= 1e-8

    def test_monogamy_pure_input(self):
        rng = np.random.default_rng(35)
        rho = DensityMatrix((2, 2), random_pure_density(rng, 4))
        assert abs(identity_residuals(rho)[2]) <= 1e-8

    def test_monogamy_horodecki_arithmetic(self):
        # tau + I2 - S2(A) at p = 1/2 decomposes as 0.5 + 0.25 - 0.75
        assert abs(identity_residuals(make_horodecki(0.5))[2]) <= 1e-8

    def test_monogamy_random(self):
        assert np.max(np.abs(identity_residuals(random_trials(0, range(200))[0])[2])) <= 1e-8

    def test_third_eigenvalue_below_rank_tol_keeps_qubit_ancilla(self):
        # 5e-11 outside the support still counts as rank 2; the purification
        # must then keep a qubit C, or E_f(rho_AC) and the tangle read 0.
        base = random_trials(0, range(5))[0].matrix
        outside = np.linalg.eigh(base)[1][:, :, 0]
        m = (1 - 5e-11) * base + 5e-11 * outside[:, :, None] * outside[:, None, :].conj()
        states = stack_of(DensityMatrix((2, 2), m), make_horodecki(0.0))
        report, kw, monogamy, _ = identity_residuals(states)
        assert list(report.rank) == [2] * 5 + [1]
        assert np.max(np.abs(kw)) <= 1e-8 and np.max(np.abs(monogamy)) <= 1e-8
        assert identity_residuals(states[0])[1] == pytest.approx(kw[0], abs=1e-14)

    def test_identity_residuals_report_is_discord_rank2(self):
        states = random_trials(0, range(20))[0]
        report, kw, monogamy, roundtrip = identity_residuals(states)
        reference = discord_rank2(states)
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(report, name), getattr(reference, name))
        assert kw.shape == monogamy.shape == roundtrip.shape == (20,)

    def test_rank_gate(self):
        with pytest.raises(RankTooHigh):
            identity_residuals(make_example1(0.5))

    def test_roundtrip_batch_equals_batches_of_one(self):
        # The pure last member has a rank-1 rho_B, where the rebuild is NaN.
        states = stack_of(random_trials(0, range(50))[0], make_horodecki(0.0))
        batch = identity_residuals(states)[3]
        np.testing.assert_array_equal(batch, [identity_residuals(rho)[3] for rho in states])
        assert np.isnan(batch[-1]) and np.max(batch[:-1]) <= 1e-9

    def test_calls_keep_nothing_on_the_stack(self):
        # A stack holds what validation set, and no call adds to it.
        stack = random_trials(3, range(20))[0]
        fields = {name: id(value) for name, value in vars(stack).items()}
        correlation_report(stack)
        linear_classical_correlation(stack)
        identity_residuals(stack)
        assert {name: id(value) for name, value in vars(stack).items()} == fields
        assert set(fields) == {"dims", "matrix", "spectrum"}


def _purified_tangles(states):
    """tau(rho_AC) of each state, read back from the monogamy residual."""
    report, _, monogamy, _ = identity_residuals(states)
    return monogamy - report.I2_cc + report.S2_A


class TestPurifiedTangle:
    # The last member is pure, so its purification has no weight on c = 1.
    # example1 at x = 2 is a mixture of two product states, and so is its
    # rho_AC: its tangle is 0 (the 40-digit reference reads 0.0 too).
    STATES = stack_of(random_trials(0, range(6))[0], make_horodecki(0.3), make_example1(2.0),
                      make_rho2(1.0, 0.4, 0.0))
    # Rank-<=2 members of every family, Bell-diagonal ones of rank 2 and 1.
    FAMILIES = stack_of(make_horodecki(np.linspace(0.0, 1.0, 5)), make_example1(2.0),
                        make_rho2(np.linspace(0.0, 1.0, 5), 0.4, 0.0),
                        make_rho2(np.linspace(0.0, 1.0, 5), 0.7, 1.1),
                        make_bell_diagonal(0.2, -0.2, 1.0), make_bell_diagonal(1.0, -1.0, 1.0))

    @pytest.mark.parametrize("states", [STATES, random_trials(100, range(25))[0]],
                             ids=["families", "random"])
    def test_matches_textbook_reference(self, states):
        for tau, rho in zip(_purified_tangles(states), states):
            assert tau == pytest.approx(purified_tangle_reference(rho), abs=1e-12)

    @pytest.mark.parametrize("states", [FAMILIES, random_trials(42, range(1000))[0][::50]],
                             ids=["families", "validate_seed_42"])
    def test_cholesky_factor_matches_textbook_reference(self, states):
        # Every 50th state of `validate --seed 42`; the 40-digit reference
        # takes some 15 ms a state. All 1000 read at most 1.0e-15 apart.
        tau = discord_module._purified_tangle(states)
        reference = [purified_tangle_reference(rho) for rho in states]
        np.testing.assert_allclose(tau, reference, rtol=0, atol=2e-15)

    @pytest.mark.parametrize("states", [STATES, FAMILIES, random_trials(42, range(1000))[0],
                                        random_trials(42, range(1000))[1]],
                             ids=["states", "families", "validate_seed_42", "twins_seed_42"])
    def test_outer_products_match_the_spin_flip_product(self, states):
        # A = F1 (x) F2 + F2 (x) F1 - F0 (x) F3 - F3 (x) F0 is M^T (YxY) M
        # written out; against the two batched products on the same factor
        # it reads at most 3.3e-16 apart here.
        keep = states.spectrum[:, :-3:-1] > RANK_TOL
        first = discord_module._pivot_column(states.matrix, keep[:, 0])
        rest = states.matrix - first[:, :, None] * first[:, None, :].conj()
        psi = np.stack([first, discord_module._pivot_column(rest, keep[:, 1])], axis=-1)
        psi = psi / np.linalg.norm(psi, axis=(1, 2))[:, None, None]
        factor = psi.reshape(-1, 2, 2, 2).swapaxes(2, 3).reshape(-1, 4, 2)
        a = factor.swapaxes(1, 2) @ SPIN_FLIP @ factor
        det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        want = np.maximum(0.0, np.sum(np.abs(a) ** 2, axis=(1, 2)) - 2.0 * np.abs(det))
        np.testing.assert_allclose(discord_module._purified_tangle(states), want,
                                   rtol=0, atol=1e-15)

    def test_pure_member_has_exactly_zero_tangle(self):
        tau = discord_module._purified_tangle(self.STATES)
        assert tau[-1] == tau[-2] == 0.0 and np.all(tau[:-2] > 0.0)

    def test_horodecki_half(self):
        # tau(rho_AC) + I2_cc = S2(rho_A): 0.75 - 0.25 leaves 0.5 at p = 1/2
        rho = make_horodecki(0.5)
        assert purified_tangle_reference(rho) == pytest.approx(0.5, abs=1e-12)
        assert _purified_tangles(rho) == pytest.approx(0.5, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.one_of(st.floats(min_value=0.5, max_value=0.95),
                 st.floats(min_value=1.05, max_value=2.0)))
def test_rank_tol_seam_through_identity_residuals(seed, multiple):
    # A third eigenvalue at `multiple` * RANK_TOL, outside a rank-2 support.
    base = make_random_rank2(seed).matrix
    outside = np.linalg.eigh(base)[1][:, 0]
    eps = multiple * RANK_TOL
    rho = DensityMatrix((2, 2), (1 - eps) * base + eps * np.outer(outside, outside.conj()))
    if multiple < 1.0:
        report, kw, monogamy, _ = identity_residuals(rho)
        assert report.rank == 2
        assert abs(kw) <= 1e-8 and abs(monogamy) <= 1e-8
    else:
        with pytest.raises(RankTooHigh):
            identity_residuals(rho)


def test_third_eigenvalue_below_rank_tol_across_a_stack():
    # 400 states with a third eigenvalue at 0.05-0.95 RANK_TOL: the second
    # Cholesky pivot still weighs in, and the identities hold. The largest
    # residuals read 1.0e-9 (kw) and 4.9e-10 (monogamy).
    base = random_trials(5, range(400))[0].matrix
    outside = np.linalg.eigh(base)[1][:, :, 0]
    eps = np.linspace(0.05, 0.95, 400)[:, None, None] * RANK_TOL
    m = (1 - eps) * base + eps * outside[:, :, None] * outside[:, None, :].conj()
    report, kw, monogamy, _ = identity_residuals(DensityMatrix((2, 2), m))
    assert np.all(report.rank == 2)
    assert np.max(np.abs(kw)) <= 1e-8 and np.max(np.abs(monogamy)) <= 1e-8


class TestRankCut:
    """example1 near x = 2 has two eigenvalues lam = (2 - x)/6 outside its
    rank-2 support: rank 4 above RANK_TOL, rank 2 at or below it."""

    def test_both_sides_of_the_cut(self):
        grid = np.array([2 - 1e-9, 2 - 1e-11, 2.0])
        report = correlation_report(make_example1(grid))
        assert list(report.rank) == [4, 2, 2]
        assert np.isnan(report.I_cc[0]) and np.isfinite(report.I_cc[1:]).all()
        assert "rank 4" in report.reason[0] and report.reason[1:] == (None, None)
        for i, x in enumerate(grid[:2]):
            # The two small eigenvalues add -lam log2 lam each; taking lam from
            # the two large ones moves their terms by at most lam log2 e each.
            lam = (2 - x) / 6
            bound = 2 * (-lam * math.log2(lam)) + 2 * lam * math.log2(math.e)
            for name in ("S_AB", "I_mutual"):
                move = abs(getattr(report, name)[i] - getattr(report, name)[2])
                assert 0 < move <= bound


FIELDS = ("S_A", "S_B", "S_AB", "S2_A", "S2_B", "I_mutual", "I2_cc", "I_cc",
          "Q_discord", "rank")


class TestBatchedReport:
    def test_batch_equals_batches_of_one(self):
        # The scalar API is a batch of one: each member's report, rank and
        # reason included, is its batch row bit for bit, in and outside the
        # closed form: rank-2 states at dA = 2, 3 and 4, full-rank states and
        # the example1 and horodecki sweep grids.
        rng = np.random.default_rng(459)
        full_rank = DensityMatrix((2, 2), np.stack([random_density(rng, 4) for _ in range(50)]))
        cases = (
            (discord_rank2, stack_of(random_trials(0, range(200))[0],
                                     make_horodecki(np.array([0.0, 0.3, 1.0])))),
            (correlation_report, random_trials(0, range(100), dim_a=3)[0]),
            (correlation_report, random_trials(0, range(100), dim_a=4)[0]),
            (correlation_report, full_rank),
            (correlation_report, make_example1(2.0 * np.arange(201) / 200)),
            (discord_rank2, make_horodecki(np.arange(101) / 100)),
        )
        for report, states in cases:
            batch = report(states)
            for i in range(len(states)):
                one = report(states[i : i + 1])
                for name in FIELDS:
                    assert (getattr(batch, name)[i].tobytes()
                            == getattr(one, name)[0].tobytes()), (states.dims, i, name)
                assert batch.reason[i] == one.reason[0]

    def test_single_state_gives_numbers(self):
        report = discord_rank2(make_horodecki(0.5))
        for name in FIELDS[:-1]:
            assert type(getattr(report, name)) is float
        assert type(report.rank) is int and report.reason is None

    @pytest.mark.parametrize("lam", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_two_bell_mixtures_in_a_batch(self, lam):
        # rho_B = I/2 is degenerate, so no eigenframe is preferred.
        rho = make_bell_diagonal(1.0, 1 - 2 * lam, 2 * lam - 1)
        report = discord_rank2(stack_of(rho, make_horodecki(0.5), rho))
        np.testing.assert_allclose(report.I_cc[[0, 2]], 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            report.Q_discord[[0, 2]], 1 - reference_h(lam), rtol=0, atol=1e-12
        )

    def test_mixed_ranks_give_reasons_only_on_high_rank_members(self):
        states = stack_of(make_random_rank2(1), make_bell_diagonal(0.2, -0.3, 0.1),
                          make_horodecki(0.5), make_example1(1.0))
        report = correlation_report(states)
        assert list(report.rank) == [2, 4, 2, 4]
        assert report.reason[0] is None and report.reason[2] is None
        assert "rank 4" in report.reason[1] and "rank 4" in report.reason[3]
        assert np.isnan(report.I_cc[[1, 3]]).all()
        assert np.isnan(report.Q_discord[[1, 3]]).all()
        assert np.isfinite(report.I_cc[[0, 2]]).all()
        assert report.I2_cc[3] == pytest.approx(1 / 9, abs=1e-12)
        single = discord_rank2(states[2])
        assert report.Q_discord[2] == pytest.approx(single.Q_discord, abs=1e-14)

    def test_batch_raise_names_first_offending_state(self):
        states = stack_of(make_random_rank2(1), make_horodecki(0.5),
                          make_example1(np.array([1.0, 0.5])))
        with pytest.raises(RankTooHigh, match="state 2: state has rank 4"):
            discord_rank2(states)
        with pytest.raises(RankTooHigh, match="state 2"):
            identity_residuals(states)

    def test_report_of_wide_state_keeps_linear_fields(self):
        report = correlation_report(make_random_rank2(3, dim_a=3))
        assert isinstance(report, CorrelationReport)
        assert report.I_cc is None and report.Q_discord is None
        assert "2x2" in report.reason and report.rank == 2
        assert report.I2_cc > 0.0
        with pytest.raises(DimensionMismatch, match="2x2"):
            discord_rank2(random_trials(3, range(1), dim_a=3)[0])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_marginal_entropies_match_the_partial_trace(self, d):
        # S_B and S2_B come from the rho_B eigenvalues that I2_cc reads; a
        # product member has a pure rho_B.
        rng = np.random.default_rng(50 + d)
        product = DensityMatrix((d, 2), np.kron(random_density(rng, d), np.diag([1.0, 0.0])))
        states = stack_of(random_trials(0, range(40), dim_a=d)[0], product)
        report = correlation_report(states)
        rho_b = partial_trace(states.matrix, states.dims, "B")
        np.testing.assert_allclose(report.S_B, von_neumann_entropy(rho_b), rtol=0, atol=1e-14)
        np.testing.assert_allclose(report.S2_B, linear_entropy(rho_b), rtol=0, atol=1e-14)
        assert abs(report.S2_B[-1]) < 1e-15

    def test_report_of_rank_two_state_equals_discord_rank2(self):
        rho = make_random_rank2(5)
        assert correlation_report(rho) == discord_rank2(rho)

    def test_residual_batches_equal_batches_of_one(self):
        # The pure last one has no weight on c = 1, in the stack and alone.
        states = stack_of(random_trials(0, range(200))[0], make_horodecki(0.0))
        for index in (1, 2):
            batch = identity_residuals(states)[index]
            singles = [identity_residuals(rho)[index] for rho in states]
            assert batch.shape == (201,)
            np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-14)
            assert np.max(np.abs(batch)) <= 1e-8
