import math

import numpy as np
import pytest

from conftest import haar_unitary, random_pure_density, stack_of
from qdiscord.discord import (
    CorrelationReport,
    correlation_report,
    discord_rank2,
    discord_rho2_closed_form,
    identity_residuals,
    koashi_winter_residual,
    monogamy_residual,
)
from qdiscord.errors import (
    ConsistencyError,
    DegenerateDenominator,
    DimensionMismatch,
    OutOfDomain,
    RankTooHigh,
)
from qdiscord.linalg import tensor
from qdiscord.measures import von_neumann_entropy
from qdiscord.states import (
    DensityMatrix,
    make_bell_diagonal,
    make_example1,
    make_horodecki,
    make_random_rank2,
    make_rho2,
)

LOG2_3 = math.log2(3.0)


def reference_h(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def reference_f(x):
    return reference_h((1 + math.sqrt(1 - x)) / 2)


def horodecki_discord(p):
    return reference_h(p / 2) - reference_h(p) + reference_f(2 * p * (1 - p))


def classical_quantum_state(p, rng):
    """Rank-2 zero-discord state: p |a0><a0| x |0><0| + (1-p) |a1><a1| x |1><1|."""
    a0 = random_pure_density(rng, 2)
    a1 = random_pure_density(rng, 2)
    m = p * tensor(a0, np.diag([1.0, 0.0])) + (1 - p) * tensor(
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
            u = tensor(haar_unitary(rng, 2), haar_unitary(rng, 2))
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

    def test_domain_checks(self):
        with pytest.raises(OutOfDomain):
            discord_rho2_closed_form(1.5, 0.3, 0.3)
        with pytest.raises(OutOfDomain):
            discord_rho2_closed_form(0.5, -0.1, 0.3)
        with pytest.raises(OutOfDomain):
            discord_rho2_closed_form(np.array([0.5, math.nan]), 0.3, 0.3)


class TestIdentityResiduals:
    def test_koashi_winter_bell_state(self):
        assert koashi_winter_residual(make_bell_diagonal(1, -1, 1)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_koashi_winter_horodecki(self):
        assert abs(koashi_winter_residual(make_horodecki(0.5))) <= 1e-8

    def test_koashi_winter_random(self):
        for seed in range(200):
            assert abs(koashi_winter_residual(make_random_rank2(seed))) <= 1e-8

    def test_monogamy_pure_input(self):
        rng = np.random.default_rng(35)
        rho = DensityMatrix((2, 2), random_pure_density(rng, 4))
        assert abs(monogamy_residual(rho)) <= 1e-8

    def test_monogamy_horodecki_arithmetic(self):
        # tau + I2 - S2(A) at p = 1/2 decomposes as 0.5 + 0.25 - 0.75
        assert abs(monogamy_residual(make_horodecki(0.5))) <= 1e-8

    def test_monogamy_random(self):
        for seed in range(200):
            assert abs(monogamy_residual(make_random_rank2(seed))) <= 1e-8

    def test_third_eigenvalue_below_rank_tol_keeps_qubit_ancilla(self):
        # 5e-11 outside the support still counts as rank 2; the purification
        # must then keep a qubit C, or E_f(rho_AC) and the tangle read 0.
        base = make_random_rank2(range(5)).matrix
        outside = np.linalg.eigh(base)[1][:, :, 0]
        m = (1 - 5e-11) * base + 5e-11 * outside[:, :, None] * outside[:, None, :].conj()
        states = stack_of(DensityMatrix((2, 2), m), make_horodecki(0.0))
        report, kw, monogamy = identity_residuals(states)
        assert list(report.rank) == [2] * 5 + [1]
        assert np.max(np.abs(kw)) <= 1e-8 and np.max(np.abs(monogamy)) <= 1e-8
        assert koashi_winter_residual(states[0]) == pytest.approx(kw[0], abs=1e-14)

    def test_identity_residuals_report_is_discord_rank2(self):
        states = make_random_rank2(range(20))
        report, kw, monogamy = identity_residuals(states)
        reference = discord_rank2(states)
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(report, name), getattr(reference, name))
        assert kw.shape == monogamy.shape == (20,)

    def test_rank_gate(self):
        with pytest.raises(RankTooHigh):
            koashi_winter_residual(make_example1(0.5))
        with pytest.raises(RankTooHigh):
            monogamy_residual(make_example1(0.5))


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
        states = stack_of(make_random_rank2(range(200)), make_horodecki(np.array([0.0, 0.3, 1.0])))
        batch = discord_rank2(states)
        for i in range(len(states)):
            one = discord_rank2(states[i : i + 1])
            for name in FIELDS:
                assert getattr(batch, name)[i] == pytest.approx(
                    getattr(one, name)[0], abs=1e-14
                )

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
            monogamy_residual(states)

    def test_report_of_wide_state_keeps_linear_fields(self):
        report = correlation_report(make_random_rank2(3, dim_a=3))
        assert isinstance(report, CorrelationReport)
        assert report.I_cc is None and report.Q_discord is None
        assert "2x2" in report.reason and report.rank == 2
        assert report.I2_cc > 0.0
        with pytest.raises(DimensionMismatch, match="2x2"):
            discord_rank2(make_random_rank2([3], dim_a=3))

    def test_report_of_rank_two_state_equals_discord_rank2(self):
        rho = make_random_rank2(5)
        assert correlation_report(rho) == discord_rank2(rho)

    def test_residual_batches_equal_batches_of_one(self):
        # 201 states span two blocks of 128; the pure last one has a trivial C.
        states = stack_of(make_random_rank2(range(200)), make_horodecki(0.0))
        for residual in (koashi_winter_residual, monogamy_residual):
            batch = residual(states)
            singles = [residual(rho) for rho in states]
            assert batch.shape == (201,)
            np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-14)
            assert np.max(np.abs(batch)) <= 1e-8
